"""Closed-form transforms on intrinsic radius multisets.

All values are intrinsic log-radii ``f = -log_p IR >= 0``.  The threshold
``1/(p-1)`` and the pure value ``p/(p-1)`` are the two distinguished
constants: pushing forward an entry below the threshold spreads it into the
pure value, and pulling back exactly at the pure value is genuinely ambiguous
and refused.  None of these act on module matrices; only radius data moves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .modules import RadiiMultiset
from .report import FAIL, PASS, Report
from .valued import _is_prime

__all__ = [
    "threshold",
    "pure_value",
    "frob_push",
    "frob_pull",
    "frob_antecedent",
    "wn_radius",
    "rotation_radius",
    "check_push_pull_laws",
    "PureValueError",
]


class PureValueError(ValueError):
    """Pullback requested exactly at the pure value p/(p-1)."""


def threshold(p: int) -> Fraction:
    return Fraction(1, p - 1)


def pure_value(p: int) -> Fraction:
    return Fraction(p, p - 1)


def _require_prime(p: int):
    if p == 0:
        raise ValueError("p = 0 has no Frobenius; callers must branch explicitly")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _require_uncapped(radii: RadiiMultiset):
    if radii.kind != "intrinsic":
        raise ValueError("transforms act on intrinsic radii")
    if radii.capped():
        raise ValueError("capped entries cannot be transformed")


def frob_push(radii: RadiiMultiset, p: int) -> RadiiMultiset:
    """Pushforward along the degree-p subfield; output rank is p times input.

    An entry ``f < 1/(p-1)`` becomes ``{p f} + {p/(p-1) x (p-1)}``; an entry
    ``f >= 1/(p-1)`` becomes ``{f + 1 x p}``.
    """
    _require_prime(p)
    _require_uncapped(radii)
    thr, pure = threshold(p), pure_value(p)
    out = []
    for f, m, _ in radii.entries:
        if f < thr:
            out.append((p * f, m, False))
            out.append((pure, m * (p - 1), False))
        else:
            out.append((f + 1, m * p, False))
    return RadiiMultiset.make(out, "intrinsic")


def frob_pull(radii: RadiiMultiset, p: int) -> RadiiMultiset:
    """Pullback: ``f' -> max(f'/p, f' - 1)``; refuses the pure value."""
    _require_prime(p)
    _require_uncapped(radii)
    pure = pure_value(p)
    out = []
    for f, m, _ in radii.entries:
        if f == pure:
            raise PureValueError(
                f"entry {f} equals p/(p-1): pullback ambiguous at the pure value"
            )
        out.append((max(f / p, f - 1), m, False))
    return RadiiMultiset.make(out, "intrinsic")


def frob_antecedent(radii: RadiiMultiset, p: int) -> RadiiMultiset:
    """Descent ``f -> p f``, defined only below the threshold ``1/(p-1)``."""
    _require_prime(p)
    _require_uncapped(radii)
    thr = threshold(p)
    out = []
    for f, m, _ in radii.entries:
        if f >= thr:
            raise ValueError(f"entry {f} >= 1/(p-1): no antecedent")
        out.append((p * f, m, False))
    return RadiiMultiset.make(out, "intrinsic")


def wn_radius(n: int, p: int) -> Fraction:
    """Intrinsic log-radius of the n-th character-twist module: 0 or p/(p-1)."""
    _require_prime(p)
    if not 0 <= n < p:
        raise ValueError(f"n must lie in 0..{p - 1}")
    return Fraction(0) if n == 0 else pure_value(p)


def rotation_radius(intrinsic_by_axis: Mapping, r, r_plus) -> Fraction:
    """Log-radius of the rotated one-derivation module at a fiber.

    Geometric axes contribute ``f + r`` and base axes ``f + r_plus`` (the
    outer scale); the rotated radius is the worst case, so the log value is
    the maximum.  Used to reduce intrinsic-radius slopes to slopes along the
    geometric direction.
    """
    if not intrinsic_by_axis:
        raise ValueError("empty axis map")
    r, r_plus = Fraction(r), Fraction(r_plus)
    best = None
    for axis, f in intrinsic_by_axis.items():
        f = Fraction(f)
        shift = r if axis.startswith("t") else r_plus
        val = f + shift
        if best is None or val > best:
            best = val
    return best


def check_push_pull_laws(radii: RadiiMultiset, p: int) -> Report:
    """Verify the pull-of-push and push-of-pull multiset identities per entry.

    Pull after push must give p exact copies; entries whose push lands on the
    pure value are reported ambiguous rather than guessed.  Push after pull is
    compared against the twist prediction ``{f} + {max(f, p/(p-1)) x (p-1)}``.
    """
    _require_prime(p)
    _require_uncapped(radii)
    thr, pure = threshold(p), pure_value(p)
    rep = Report()
    for f, m, _ in radii.entries:
        single = RadiiMultiset.make([(f, 1, False)], "intrinsic")
        # pull(push(f)) = p copies of f, where unambiguous
        pushed = frob_push(single, p)
        if f <= thr:
            rep.add(
                "pull of push",
                "ambiguous",
                f"entry {f}: push meets the pure value, pullback not defined there",
            )
        else:
            pulled = frob_pull(pushed, p)
            want = RadiiMultiset.make([(f, p, False)], "intrinsic")
            rep.add(
                "pull of push",
                PASS if pulled == want else FAIL,
                f"entry {f}: {pulled.entries} vs {want.entries}",
            )
        # push(pull(f)) = twist prediction, where pull is defined
        if f == pure:
            rep.add("push of pull", "ambiguous", f"entry {f} is the pure value")
            continue
        back = frob_push(frob_pull(single, p), p)
        predicted = RadiiMultiset.make(
            [(f, 1, False), (max(f, pure), p - 1, False)], "intrinsic"
        )
        rep.add(
            "push of pull",
            PASS if back == predicted else FAIL,
            f"entry {f}: {back.entries} vs {predicted.entries}",
        )
    return rep
