"""Exact piecewise-affine functions on a closed rational interval.

A :class:`PiecewiseAffine` is stored by its knots ``x_0 < ... < x_k`` and the
values at the knots, so continuity is structural and every query is exact
rational arithmetic.  Canonical form merges adjacent segments of equal slope,
which makes equality of functions equality of representations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["PiecewiseAffine", "pa_combine", "min_of_lines", "max_of_lines"]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class PiecewiseAffine:
    """A continuous piecewise-affine function on ``[knots[0], knots[-1]]``."""

    __slots__ = ("knots", "values")

    def __init__(self, knots: Sequence, values: Sequence):
        knots = tuple(_frac(x) for x in knots)
        values = tuple(_frac(y) for y in values)
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        if len(knots) != len(values):
            raise ValueError("knots and values must have equal length")
        if any(a >= b for a, b in zip(knots, knots[1:])):
            raise ValueError("knots must be strictly increasing")
        self.knots, self.values = _canonical(knots, values)

    @classmethod
    def _trusted(cls, knots: tuple, values: tuple) -> "PiecewiseAffine":
        """From canonical ``Fraction`` tuples, unchecked."""
        f = object.__new__(cls)
        f.knots, f.values = knots, values
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, lo, hi, c) -> "PiecewiseAffine":
        return cls((lo, hi), (c, c))

    @classmethod
    def affine(cls, lo, hi, slope, value_at_lo) -> "PiecewiseAffine":
        lo, hi = _frac(lo), _frac(hi)
        s, v = _frac(slope), _frac(value_at_lo)
        return cls((lo, hi), (v, v + s * (hi - lo)))

    # -- basic queries -----------------------------------------------------

    @property
    def domain(self) -> tuple:
        return (self.knots[0], self.knots[-1])

    def breakpoints(self) -> tuple:
        """Interior knots where the slope changes."""
        return self.knots[1:-1]

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        lo, hi = self.domain
        if not (lo <= x <= hi):
            raise ValueError(f"{x} outside domain [{lo}, {hi}]")
        ks = self.knots
        a, b = 0, len(ks) - 1
        while b - a > 1:
            m = (a + b) // 2
            if ks[m] <= x:
                a = m
            else:
                b = m
        t = self.values
        return t[a] + (t[a + 1] - t[a]) * (x - ks[a]) / (ks[a + 1] - ks[a])

    def pieces(self) -> list:
        """List of ``(lo, hi, slope, value_at_lo)`` in increasing order."""
        out = []
        for i in range(len(self.knots) - 1):
            lo, hi = self.knots[i], self.knots[i + 1]
            slope = (self.values[i + 1] - self.values[i]) / (hi - lo)
            out.append((lo, hi, slope, self.values[i]))
        return out

    def slopes(self) -> tuple:
        return tuple(p[2] for p in self.pieces())

    def is_affine_on_open(self, lo, hi) -> bool:
        """No breakpoint strictly inside ``(lo, hi)``."""
        lo, hi = _frac(lo), _frac(hi)
        return not any(lo < b < hi for b in self.breakpoints())

    def is_concave(self) -> bool:
        s = self.slopes()
        return all(a >= b for a, b in zip(s, s[1:]))

    def restrict(self, lo, hi) -> "PiecewiseAffine":
        lo, hi = _frac(lo), _frac(hi)
        d0, d1 = self.domain
        if not (d0 <= lo < hi <= d1):
            raise ValueError("restriction outside domain")
        ks = [lo] + [k for k in self.knots if lo < k < hi] + [hi]
        return PiecewiseAffine(ks, [self(k) for k in ks])

    def __neg__(self) -> "PiecewiseAffine":
        return PiecewiseAffine(self.knots, tuple(-v for v in self.values))

    def __add__(self, other):
        if isinstance(other, PiecewiseAffine):
            return pa_combine("sum", self, other)
        return PiecewiseAffine(self.knots, tuple(v + _frac(other) for v in self.values))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, PiecewiseAffine):
            return pa_combine("sum", self, -other)
        return self + (-_frac(other))

    def max_value(self) -> Fraction:
        return max(self.values)

    def __eq__(self, other):
        if not isinstance(other, PiecewiseAffine):
            return NotImplemented
        return self.knots == other.knots and self.values == other.values

    def __hash__(self):
        return hash((self.knots, self.values))

    def __repr__(self):
        # explicit sign: Fraction accepts the "+" format spec only from Python 3.13 on
        ps = ", ".join(
            f"[{lo},{hi}]: {s}*r{'+' if v0 >= 0 else ''}{v0}" for lo, hi, s, v0 in self.pieces()
        )
        return f"PiecewiseAffine({ps})"


def _canonical(knots, values):
    """Merge adjacent segments with equal slope."""
    if len(knots) == 2:
        return knots, values
    out_k = [knots[0]]
    out_v = [values[0]]
    for i in range(1, len(knots) - 1):
        s_prev = (values[i] - out_v[-1]) / (knots[i] - out_k[-1])
        s_next = (values[i + 1] - values[i]) / (knots[i + 1] - knots[i])
        if s_prev != s_next:
            out_k.append(knots[i])
            out_v.append(values[i])
    out_k.append(knots[-1])
    out_v.append(values[-1])
    return tuple(out_k), tuple(out_v)


def _read(f: PiecewiseAffine, i: int, x: Fraction) -> Fraction:
    """``f(x)`` for ``knots[i - 1] < x <= knots[i]``: the stored value at a knot."""
    ks, vs = f.knots, f.values
    return vs[i] if ks[i] == x else vs[i - 1] + (vs[i] - vs[i - 1]) * (x - ks[i - 1]) / (ks[i] - ks[i - 1])


def pa_combine(op: str, f: PiecewiseAffine, g: PiecewiseAffine) -> PiecewiseAffine:
    """Exact pointwise ``sum``, ``min`` or ``max`` of two functions.

    Domains must agree.  One forward merge walks the union of both knot sets:
    each function is read from its stored value at its own knots and
    interpolated only at the other's.  For min/max, a cell of the union where
    the difference of the two flips sign gets their crossing as one more knot.
    The result is re-canonicalized and built without revalidation.
    """
    pick = {"sum": lambda u, w: u + w, "min": min, "max": max}.get(op)
    if pick is None:
        raise ValueError(f"unknown op {op!r}")
    if f.domain != g.domain:
        raise ValueError(f"domain mismatch {f.domain} != {g.domain}")
    fk, gk = f.knots, g.knots
    xs, ys, i, j, prev = [], [], 0, 0, None
    while i < len(fk):  # both knot lists end at the domain's right end
        x = min(fk[i], gk[j])
        u, w = _read(f, i, x), _read(g, j, x)
        if op != "sum" and prev and (prev[1] - prev[2]) * (u - w) < 0:  # they cross inside
            a, ua, wa = prev
            t = (ua - wa) / (ua - wa - u + w)
            xs.append(a + t * (x - a))
            ys.append(ua + t * (u - ua))
        xs.append(x)
        ys.append(pick(u, w))
        prev = (x, u, w)
        i, j = i + (fk[i] == x), j + (gk[j] == x)
    return PiecewiseAffine._trusted(*_canonical(tuple(xs), tuple(ys)))


def _lower_hull(points: Iterable) -> list:
    """Lower convex hull of points ``(x, y)``, from the least point to the greatest.

    Andrew's monotone chain over the sorted points: a point on or above the
    chord of its neighbours is dropped, so the hull keeps no collinear point.
    """
    hull: list = []
    for p in sorted(points):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (p[0] - x0) >= (p[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def min_of_lines(lines: Iterable, lo, hi) -> PiecewiseAffine:
    """Lower envelope of finitely many lines ``(slope, intercept)`` on ``[lo, hi]``.

    The envelope of ``x -> a*x + b`` over the given pairs, computed exactly.
    Lines are swept by decreasing slope (lowest intercept first) through a
    monotone stack: the envelope is concave, and a line is popped once its
    successor crosses its predecessor no later than it does.  The crossings
    of consecutive stack lines inside ``(lo, hi)`` are the knots.  Cost:
    ``O(n log n)`` for the sort, ``O(n)`` for the sweep.  The result is built
    without revalidation: its knots increase strictly, and the segments on
    either side of a knot lie on consecutive stack lines, whose slopes differ,
    so it is already canonical.
    """
    lo, hi = _frac(lo), _frac(hi)
    if lo >= hi:
        raise ValueError("window must be nondegenerate")
    lines = [(_frac(a), _frac(b)) for a, b in lines]
    if not lines:
        raise ValueError("need at least one line")
    hull: list = []  # envelope lines, slopes decreasing
    xs: list = []  # xs[j]: where hull[j + 1] takes over from hull[j]
    for a, b in sorted(lines, key=lambda l: (-l[0], l[1])):
        if hull and hull[-1][0] == a:
            continue  # parallel to the line just pushed and not below it
        while hull:
            a0, b0 = hull[-1]
            x = (b - b0) / (a0 - a)
            if not xs or x > xs[-1]:
                break
            hull.pop()
            xs.pop()
        if hull:
            xs.append(x)
        hull.append((a, b))
    knots = [lo] + [x for x in xs if lo < x < hi] + [hi]
    values, j = [], 0
    for x in knots:
        while j < len(xs) and xs[j] < x:
            j += 1
        a, b = hull[j]
        values.append(a * x + b)
    return PiecewiseAffine._trusted(tuple(knots), tuple(values))


def max_of_lines(lines: Iterable, lo, hi) -> PiecewiseAffine:
    neg = min_of_lines([(-a, -b) for a, b in lines], lo, hi)
    return -neg
