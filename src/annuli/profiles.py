"""Radius profiles over an annulus and the variation-theorem verifier suite.

A :class:`RadiusProfile` stores, per cell of a subdivided window, the visible
log-radius functions ``f_1 >= ... >= f_m`` as exact affine pieces together
with the count of capped (uncertified) indices.  Values are visible exactly
when they exceed the cap line, so on every cell the definite indices form a
prefix; capped cells never contribute to partial sums, they poison them with
a flag instead.

Ordering convention: radii are listed increasing, so in log units the stored
functions are nonincreasing, ``f_1 >= ... >= f_d``.  This module is the one
place that fixes the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .modules import DiffModule, cyclic_vector
from .report import (FAIL, NOT_APPLICABLE, PASS, Report, Skip, check_convex, check_integral,
                     check_membership, check_nonincreasing, clause, named)
from .twisted import slope_functions
from .valued import omega_val

__all__ = [
    "ProfileCell",
    "RadiusProfile",
    "build_radius_profile",
    "verify_variation",
    "decomposition_loci",
    "swan_breaks",
    "SwanBreaks",
]


@dataclass(frozen=True)
class ProfileCell:
    lo: Fraction
    hi: Fraction
    visible: tuple  # ((slope, value_at_lo), ...) nonincreasing on the cell
    capped: int
    cap: tuple  # (slope, value_at_lo) of the visibility bound

    def value(self, i: int, x: Fraction) -> Fraction:
        s, v = self.visible[i]
        return v + s * (x - self.lo)

    def partial(self, i: int) -> tuple:
        """Piece ``(lo, hi, slope, value_at_lo)`` of ``F_i = f_1 + ... + f_i``."""
        s = sum((self.visible[j][0] for j in range(i)), Fraction(0))
        v = sum((self.visible[j][1] for j in range(i)), Fraction(0))
        return (self.lo, self.hi, s, v)

    def gap(self, i: int) -> tuple:
        """``f_i - f_{i+1}`` (``f_i`` minus the cap when ``m == i``) on the cell.

        Returns ``(slope, value at lo, value at hi)``; needs ``m >= i``.
        """
        (s, v), (gs, gv) = self.visible[i - 1], (self.cap if self.m == i else self.visible[i])
        ds, dv = s - gs, v - gv
        return ds, dv, dv + ds * (self.hi - self.lo)

    @property
    def m(self) -> int:
        return len(self.visible)


@dataclass(frozen=True)
class RadiusProfile:
    axis: str  # derivation axis or "intrinsic"
    kind: str  # "extrinsic" | "intrinsic"
    p: int
    rank: int
    window: tuple
    cells: tuple
    axis_weight: Optional[Fraction] = None  # w_j for base axes

    def partial_sum(self, i: int) -> list:
        """Affine pieces of ``F_i = f_1 + ... + f_i`` where all terms are definite."""
        return [c.partial(i) for c in self.cells if c.m >= i]

    def eval_visible(self, x) -> list:
        """Visible values at a point interior to some cell, nonincreasing."""
        x = Fraction(x)
        for c in self.cells:
            if c.lo <= x <= c.hi:
                return [c.value(i, x) for i in range(c.m)]
        raise ValueError(f"{x} outside profile window")


def _tau_line(config, axis: str, geom_axis: str, frozen) -> tuple:
    """Operator valuation of ``axis`` as ``(slope, value at 0)`` in the varying radius."""
    geom = config.axis_kind(geom_axis)
    at_zero = [0 if k == geom[1] else x for k, x in enumerate(frozen)]
    slope = -1 if config.axis_kind(axis) == geom else 0
    return (Fraction(slope), config.operator_valuation(axis, at_zero))


def build_radius_profile(
    M: DiffModule,
    axis: str,
    geom_axis: str,
    window,
    frozen: Sequence = (),
) -> RadiusProfile:
    """Exact profile of subsidiary log-radii along one geometric axis.

    ``axis`` names a derivation of ``M`` or is ``"intrinsic"``, in which case
    the per-axis intrinsic profiles are combined by pointwise maximum index by
    index.  No sampling is involved: the data comes from the parametric Newton
    hull of a cyclic-vector characteristic polynomial, and cells where a value
    sits at or under the visibility bound are flagged capped.
    """
    if axis == "intrinsic" and not M.axes():
        raise ValueError("module carries no derivations")
    axes = M.axes() if axis == "intrinsic" else [axis]
    return _charpoly_profile(M, {a: cyclic_vector(M, a)[1] for a in axes},
                             axis == "intrinsic", geom_axis, window, frozen)


def _charpoly_profile(M, charpolys: dict, intrinsic: bool, geom_axis, window, frozen):
    """The profile from one cyclic-vector charpoly per derivation axis (``{axis: P}``):
    the single extrinsic axis, or every axis combined intrinsically."""
    parts = [_axis_profile(M, a, P, geom_axis, window, frozen, intrinsic)
             for a, P in charpolys.items()]
    return _combine_intrinsic(parts, M) if intrinsic else parts[0]


def _axis_profile(M, axis, P, geom_axis, window, frozen, intrinsic) -> RadiusProfile:
    cfg = M.config
    frozen = list(frozen) if frozen else [Fraction(0)] * cfg.n_geom
    lo, hi = Fraction(window[0]), Fraction(window[1])
    sf = slope_functions(P, geom_axis, window, frozen)
    ts, tc = _tau_line(cfg, axis, geom_axis, frozen)
    omega = cfg.omega

    cuts = {lo, hi}
    for f in sf.fs:
        cuts.update(f.breakpoints())
        # crossings with the visibility line f = tau
        for a, b, s, v0 in f.pieces():
            ds = s - ts
            dc = (v0 - s * a) - tc
            if ds != 0:
                x = -dc / ds
                if a < x < b:
                    cuts.add(x)
    xs = sorted(cuts)
    cells = []
    kind = "intrinsic" if intrinsic else "extrinsic"
    for a, b in zip(xs, xs[1:]):
        mid = (a + b) / 2
        tau_mid = ts * mid + tc
        vis = []
        for f in sf.fs:
            if f(mid) < tau_mid:
                fa, fb = f(a), f(b)
                s = (fb - fa) / (b - a)
                if intrinsic:
                    # omega + tau(r) - f(r)
                    vis.append((ts - s, omega + (ts * a + tc) - fa))
                else:
                    vis.append((-s, omega - fa))
            else:
                break  # slopes ascend, so visibility is a prefix
        capped = M.rank - len(vis)
        cap = (Fraction(0), omega) if intrinsic else (-ts, omega - (ts * a + tc))
        cells.append(ProfileCell(a, b, tuple(vis), capped, cap))
    kindw = cfg.axis_kind(axis)
    weight = cfg.u_weights[kindw[1]] if kindw[0] == "u" else None
    return RadiusProfile(axis, kind, cfg.p, M.rank, (lo, hi), tuple(cells), weight)


def _combine_intrinsic(parts: List[RadiusProfile], M) -> RadiusProfile:
    omega = omega_val(M.config.p)
    window = parts[0].window
    rank = parts[0].rank
    cuts = set()
    for pr in parts:
        for c in pr.cells:
            cuts.add(c.lo)
            cuts.add(c.hi)

    def cell_at(pr, x):
        for c in pr.cells:
            if c.lo <= x < c.hi or (x == c.hi == pr.window[1]):
                return c
        raise ValueError("point outside profile")

    # refine at crossings between competing axis functions, index by index
    xs = sorted(cuts)
    extra = set()
    for a, b in zip(xs, xs[1:]):
        mid = (a + b) / 2
        local = [cell_at(pr, mid) for pr in parts]
        mmax = max(c.m for c in local)
        for i in range(mmax):
            lines = []
            for c in local:
                if c.m > i:
                    s, v = c.visible[i]
                    lines.append((s, v - s * c.lo))
            for j in range(len(lines)):
                for k in range(j + 1, len(lines)):
                    ds = lines[j][0] - lines[k][0]
                    if ds != 0:
                        x = (lines[k][1] - lines[j][1]) / ds
                        if a < x < b:
                            extra.add(x)
    xs = sorted(cuts | extra)
    cells = []
    for a, b in zip(xs, xs[1:]):
        mid = (a + b) / 2
        local = [cell_at(pr, mid) for pr in parts]
        mmax = max(c.m for c in local)
        vis = []
        for i in range(mmax):
            best = None
            for c in local:
                if c.m > i:
                    s, v = c.visible[i]
                    val = v + s * (mid - c.lo)
                    if best is None or val > best[0]:
                        best = (val, s, v + s * (a - c.lo))
            vis.append((best[1], best[2]))
        cells.append(
            ProfileCell(a, b, tuple(vis), rank - mmax, (Fraction(0), omega))
        )
    return RadiusProfile(
        "intrinsic", "intrinsic", M.config.p, rank, window, tuple(cells)
    )


# -- verifier -----------------------------------------------------------------


_BASE_SKIP = Skip("f_i not above p^-n omega + w for n < 64")


def verify_variation(profile: RadiusProfile, mode: str, axis_class: str, p: int) -> Report:
    """Check the variation clauses on an exact profile, cell by cell.

    Clauses, in order: "continuity" of each ``f_i`` across adjacent definite
    cells; then the clauses shared with :func:`annuli.twisted.verify_newton_properties`
    and the slice report of :mod:`annuli.polyhedral`: "convexity" of each
    ``F_i``; "slope membership" of the ``f_i`` slopes in ``U_k (1/k) Z``;
    "integrality" of the ``F_i`` slopes wherever ``i`` is separated
    (``i = rank`` or ``f_i > f_{i+1}`` somewhere on the cell); and
    "monotonicity", nonpositive ``F_i`` slopes, in disc mode.  On base axes
    (``p > 0``) slope membership and integrality scale by ``p^n`` at the
    cell's level ``n``; a piece whose level is not found is skipped, and the
    PASS witness counts it.  Capped cells are never evaluated.
    """
    if mode not in ("disc", "annulus"):
        raise ValueError("mode must be disc or annulus")
    if axis_class not in ("geometric", "base", "intrinsic"):
        raise ValueError("axis_class must be geometric, base or intrinsic")
    rep = Report()
    d = profile.rank
    cells = profile.cells
    base = axis_class == "base" and p > 0
    clause(rep, "continuity", [
        f"f_{i} jumps at r={a.hi}: {a.value(i - 1, a.hi)} vs {b.visible[i - 1][1]}"
        for i in range(1, d + 1)
        for a, b in zip(cells, cells[1:])
        if a.m >= i and b.m >= i and a.value(i - 1, a.hi) != b.visible[i - 1][1]
    ])
    Fs = named("F", [profile.partial_sum(i) for i in range(1, d + 1)])
    clause(rep, "convexity", check_convex(Fs), "no definite cells")

    members, integral = [], []
    for i in range(1, d + 1):
        for c in (c for c in cells if c.m >= i):
            f = (c.lo, c.hi, *c.visible[i - 1])
            n = _base_level(profile, f, p) if base else 0
            sep = _separated(c, i, d)
            if n is None:
                members.append(_BASE_SKIP)
                if sep:
                    integral.append(_BASE_SKIP)
            else:
                members += check_membership([(f"f_{i}", [f])], d, p ** n)
                if sep:
                    where = f"in p^-{n} Z" if base else "integral at separation"
                    integral += check_integral([(f"F_{i}", [c.partial(i)])], p ** n, where)
    clause(rep, "slope membership", members, "no definite cells")
    clause(rep, "integrality", integral, "no separated cells")
    if mode == "disc":
        clause(rep, "monotonicity", check_nonincreasing(Fs), "no definite cells")
    else:
        rep.add("monotonicity", NOT_APPLICABLE, "annulus mode")
    return rep


def _separated(c: ProfileCell, i: int, rank: int) -> bool:
    """True when ``i = rank`` or ``f_i > f_{i+1}`` somewhere on the open cell."""
    return i == rank or max(c.gap(i)[1:]) > 0


def _base_level(profile: RadiusProfile, piece: tuple, p: int):
    """Least ``n`` in ``0..63`` with ``f_i > p^-n * omega + w`` on a piece of ``f_i``."""
    lo, hi, s, v = piece
    w = profile.axis_weight if profile.axis_weight is not None else Fraction(0)
    omega = omega_val(p)
    inf_val = min(v, v + s * (hi - lo))
    return next((n for n in range(64) if inf_val > omega * Fraction(1, p ** n) + w), None)


# -- decomposition loci ---------------------------------------------------------


def decomposition_loci(profile: RadiusProfile) -> list:
    """Maximal open subintervals where the decomposition hypotheses hold.

    For each index ``i`` the report lists the maximal open intervals on which
    ``F_i`` is affine and ``f_i > f_{i+1}`` throughout; on such a window the
    fiberwise decomposition separating the first ``i`` radii glues, though the
    summands themselves are not constructed here.
    """
    out = []
    for i in range(1, profile.rank):
        atoms = []  # (lo, hi, F_slope) where the gap holds throughout
        for c in profile.cells:
            if c.m < i:
                continue
            _, _, Fs, Fv = c.partial(i)
            ds, ga, gb = c.gap(i)
            if ga > 0 and gb > 0:
                atoms.append((c.lo, c.hi, Fs, Fv))
            elif (ga > 0 or gb > 0) and ds != 0:
                x = c.lo - ga / ds  # the gap vanishes here
                if ga > 0:
                    atoms.append((c.lo, min(x, c.hi), Fs, Fv))
                else:
                    x0 = max(x, c.lo)
                    atoms.append((x0, c.hi, Fs, Fv + Fs * (x0 - c.lo)))
        # merge adjacent atoms with matching F_i slope and continuous value
        merged = []
        for lo, hi, s, v in atoms:
            if merged:
                plo, phi, ps, pv = merged[-1]
                if phi == lo and ps == s and pv + ps * (phi - plo) == v:
                    merged[-1] = (plo, hi, ps, pv)
                    continue
            merged.append((lo, hi, s, v))
        for lo, hi, _, _ in merged:
            if lo < hi:
                out.append((i, (lo, hi)))
    return out


# -- Swan breaks ----------------------------------------------------------------


@dataclass(frozen=True)
class SwanBreaks:
    breaks: tuple  # ((break, rank), ...) grouped, decreasing break
    report: Report


def swan_breaks(profile: RadiusProfile) -> SwanBreaks:
    """Limiting right-slopes at the solvable boundary ``r -> 0+``.

    Every intrinsic ``f_i`` must extrapolate to 0 at ``r = 0`` on the leftmost
    cell; the breaks are the leftmost slopes, grouped by equal value.  The
    weighted sum of breaks is checked to be an integer and all breaks
    nonnegative.
    """
    if profile.kind != "intrinsic":
        raise ValueError("swan breaks read an intrinsic profile")
    first = profile.cells[0]
    bs = []
    for i in range(1, profile.rank + 1):
        if first.m >= i:
            s, v = first.visible[i - 1]
            value_at_zero = v - s * first.lo
            if value_at_zero != 0:
                raise ValueError(
                    f"profile not solvable: f_{i} tends to {value_at_zero} at 0"
                )
            bs.append(s)
        else:
            if profile.p == 0:
                # capped intrinsic values at p = 0 are pinned to 0 exactly
                bs.append(Fraction(0))
            else:
                raise ValueError(
                    f"f_{i} capped near the boundary: breaks uncertified for p > 0"
                )
    rep = Report()
    groups = []
    for b in bs:
        if groups and groups[-1][0] == b:
            groups[-1] = (b, groups[-1][1] + 1)
        else:
            groups.append((b, 1))
    total = sum((b * m for b, m in groups), Fraction(0))
    rep.add(
        "break integrality",
        PASS if total.denominator == 1 else FAIL,
        f"sum b_i * rank_i = {total}",
    )
    neg = [b for b, _ in groups if b < 0]
    rep.add("nonnegativity", PASS if not neg else FAIL, f"negative breaks {neg}" if neg else None)
    return SwanBreaks(tuple(groups), rep)
