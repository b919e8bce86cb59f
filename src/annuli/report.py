"""Report objects returned by the verifier suites, and the clauses they share.

The variation clauses read exact functions as lists of pieces
``(lo, hi, slope, value_at_lo)`` in the profile orientation of
:mod:`annuli.profiles`: log-radii ``f_1 >= ... >= f_d`` and partial sums
``F_i = f_1 + ... + f_i``, which the variation theorem makes convex, with
slopes in ``U_k (1/k) Z``, integral where ``i`` is separated and nonpositive
on a disc.  Each ``check_*`` takes ``(label, pieces)`` pairs and returns one
result per piece it evaluates; :func:`clause` turns the results into report
entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["CheckResult", "Report", "PASS", "FAIL", "NOT_APPLICABLE", "Skip", "clause", "named",
           "check_convex", "check_membership", "check_integral", "check_nonincreasing"]

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not applicable"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    witness: Optional[str] = None

    def as_dict(self) -> dict:
        d = {"name": self.name, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class Report:
    results: list = field(default_factory=list)

    def add(self, name: str, status: str, witness: str = None):
        self.results.append(CheckResult(name, status, witness))

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.results)

    def failures(self) -> list:
        return [r for r in self.results if r.status == FAIL]

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [r.as_dict() for r in self.results],
        }

    def __repr__(self):
        lines = [f"{r.name}: {r.status}" + (f" ({r.witness})" if r.witness else "") for r in self.results]
        return "Report[\n  " + "\n  ".join(lines) + "\n]"


@dataclass(frozen=True)
class Skip:
    """A piece a clause could not evaluate, and why."""

    reason: str


def clause(rep: Report, name: str, results: list, na: str = None):
    """Add clause ``name`` to ``rep`` from its per-piece ``results``.

    A result is ``None`` (the piece passes), a witness string (it fails) or a
    :class:`Skip`.  Adds one FAIL per failure; otherwise NOT_APPLICABLE with
    witness ``na`` when nothing was evaluated and ``na`` is given; otherwise
    one PASS, whose witness counts the skipped pieces and says why.
    """
    fails = [r for r in results if isinstance(r, str)]
    skips = [r.reason for r in results if isinstance(r, Skip)]
    if fails:
        for w in fails:
            rep.add(name, FAIL, w)
    elif not results and na is not None:
        rep.add(name, NOT_APPLICABLE, na)
    elif skips:
        why = "; ".join(dict.fromkeys(skips))
        rep.add(name, PASS, f"{len(skips)} piece{'s' if len(skips) > 1 else ''} skipped: {why}")
    else:
        rep.add(name, PASS)


def named(prefix: str, functions) -> list:
    """Label the piece lists ``functions`` as ``prefix_1, prefix_2, ...``."""
    return [(f"{prefix}_{i}", pieces) for i, pieces in enumerate(functions, 1)]


def _per_piece(functions, ok, witness: str) -> list:
    return [
        None if ok(s) else witness.format(label=label, lo=lo, hi=hi, s=s)
        for label, pieces in functions
        for lo, hi, s, _ in pieces
    ]


def check_convex(functions) -> list:
    """FAIL where a slope drops from the adjacent piece before it (convexity)."""
    out = []
    for label, pieces in functions:
        out += [None] if pieces else []
        out += [
            f"{label} slope drops {s0} -> {s1} at r={h0}" if h0 == l1 and s1 < s0 else None
            for (_, h0, s0, _), (l1, _, s1, _) in zip(pieces, pieces[1:])
        ]
    return out


def check_membership(functions, k: int, scale=1) -> list:
    """FAIL where a slope lies outside ``U_{j <= k} (1/(scale j)) Z``."""
    return _per_piece(
        functions,
        lambda s: any((s * j * scale).denominator == 1 for j in range(1, k + 1)),
        f"{{label}} slope {{s}} on [{{lo}},{{hi}}] outside U_k (1/{scale}k)Z",
    )


def check_integral(functions, scale=1, where: str = "integral") -> list:
    """FAIL where ``scale`` times a slope is not an integer (integrality)."""
    return _per_piece(
        functions,
        lambda s: (s * scale).denominator == 1,
        f"{{label}} slope {{s}} on [{{lo}},{{hi}}] not {where}",
    )


def check_nonincreasing(functions) -> list:
    """FAIL where a slope is positive (monotonicity on a disc)."""
    return _per_piece(functions, lambda s: s <= 0, "{label} slope {s} > 0 on [{lo},{hi}]")
