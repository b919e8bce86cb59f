"""Twisted (Ore) polynomial arithmetic and Newton polygons.

Elements are finite sums ``sum a_i T^i`` multiplied by the rule
``T a = a T + d(a)`` where ``d`` is the derivation named by ``axis``.

Hull orientation.  The Newton polygon of ``P`` at the fiber ``r`` is the lower
convex hull of the points ``(i, v_r(a_i))`` with slopes read left to right
(ascending).  The classical presentation mirrors the x-axis, so a classical
slope ``f`` (in valuation units) corresponds to our slope ``sigma = -f``.
Four places flip signs: :meth:`NewtonPolygon.classical_slopes`;
:func:`slope_functions`, which returns classical ``f_i``; and, back into the
radius orientation, :func:`verify_newton_properties` (on ``-f_i``, ``-F_i``)
and ``profiles._axis_profile`` (log-radii ``omega - f_i`` or
``omega + tau - f_i``).
Spectral data reads off as: a hull slope ``sigma`` is *visible* at a fiber
where the derivation has operator valuation ``tau`` iff ``sigma > -tau``, and
then contributes a subquotient of spectral valuation ``-sigma``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from math import comb
from typing import Sequence, Tuple, Union

from .pwaffine import PiecewiseAffine, _lower_hull, min_of_lines, pa_combine
from .report import (NOT_APPLICABLE, PASS, Report, check_convex, check_integral, check_membership,
                     check_nonincreasing, clause, named)
from .valued import (
    INF,
    FracElement,
    LaurentElement,
    ValuationConfig,
    _valued_terms,
    solve_fraction_free,
    valuation_function,
)

__all__ = [
    "TwistedPoly",
    "NewtonPolygon",
    "SlopeFunctions",
    "twisted_mul",
    "newton_polygon",
    "slope_functions",
    "robba_factor",
    "verify_newton_properties",
    "FactorizationError",
    "NoSeparatingVertex",
    "SlopeNotVisible",
    "NonConvergence",
    "opposite",
]

Coefficient = Union[LaurentElement, FracElement]


class FactorizationError(ValueError):
    pass


class NoSeparatingVertex(FactorizationError):
    pass


class SlopeNotVisible(FactorizationError):
    pass


class NonConvergence(FactorizationError):
    def __init__(self, msg, factors=None, residual=None):
        super().__init__(msg)
        self.factors = factors
        self.residual = residual


class TwistedPoly:
    """An Ore polynomial ``sum a_i T^i`` over Laurent (or fraction) coefficients,
    multiplied by ``T a = a T + d(a)`` with ``d`` the derivation along ``axis``.
    If any coefficient is a fraction, all are stored as fractions."""

    __slots__ = ("config", "axis", "coeffs")

    def __init__(self, config: ValuationConfig, axis: str, coeffs: Sequence):
        config.axis_kind(axis)  # validates
        cs = list(coeffs)
        if any(isinstance(c, FracElement) for c in cs):
            cs = [FracElement.lift(c) for c in cs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.config = config
        self.axis = axis
        self.coeffs = tuple(cs)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Coefficient:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.config.zero()

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.config.one()

    def laurent(self) -> "TwistedPoly":
        """The same polynomial over Laurent coefficients; ``ValueError`` if one is
        a fraction whose denominator does not divide its numerator."""
        try:
            return self._clone([c.num.exact_div(c.den) if isinstance(c, FracElement) else c
                                for c in self.coeffs])
        except ValueError:
            raise ValueError("polynomial has non-Laurent coefficients") from None

    def is_untwisted(self) -> bool:
        """True when the derivation kills every coefficient."""
        return all(c.derive(self.axis).is_zero() for c in self.coeffs)

    def _check_compatible(self, other: "TwistedPoly"):
        if self.axis != other.axis:
            raise ValueError("derivation mismatch")
        if self.config != other.config:
            raise ValueError("configuration mismatch")

    def _clone(self, coeffs) -> "TwistedPoly":
        return TwistedPoly(self.config, self.axis, coeffs)

    def __eq__(self, other):
        if not isinstance(other, TwistedPoly):
            return NotImplemented
        return (
            self.axis == other.axis
            and len(self.coeffs) == len(other.coeffs)
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __add__(self, other: "TwistedPoly") -> "TwistedPoly":
        self._check_compatible(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return self._clone([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __neg__(self) -> "TwistedPoly":
        return self._clone([-c for c in self.coeffs])

    def __sub__(self, other: "TwistedPoly") -> "TwistedPoly":
        return self + (-other)

    def __mul__(self, other: "TwistedPoly") -> "TwistedPoly":
        return twisted_mul(self, other)

    def monomial_times(self, c, m: int, other: "TwistedPoly") -> "TwistedPoly":
        """Product ``(c T^m) * other`` via ``T^m a = sum C(m,l) d^l(a) T^(m-l)``."""
        out = [self.config.zero()] * (m + len(other.coeffs))
        for j, b in enumerate(other.coeffs):
            if b.is_zero():
                continue
            db = b
            for l in range(m + 1):
                out[m + j - l] = out[m + j - l] + c * comb(m, l) * db
                if l < m:
                    db = db.derive(self.axis)
        return self._clone(out)

    def rdivmod(self, divisor: "TwistedPoly") -> Tuple["TwistedPoly", "TwistedPoly"]:
        """Quotient and remainder with the divisor on the right: ``self = q*d + rem``."""
        self._check_compatible(divisor)
        if not divisor.is_monic():
            raise ValueError("right division needs a monic divisor")
        e = divisor.degree
        rem = self
        q = self._clone([])
        while not rem.is_zero() and rem.degree >= e:
            m = rem.degree - e
            c = rem.coeffs[-1]
            term = self.monomial_times(c, m, divisor)
            rem = rem - term
            qc = [self.config.zero()] * (m + 1)
            qc[m] = c
            q = q + self._clone(qc)
        return q, rem

    def min_valuation(self, r: Sequence):
        """Least Gauss valuation over the coefficients; INF for zero."""
        return min((c.gauss_valuation(r) for c in self.coeffs if c), default=INF)

    def __repr__(self):
        if not self.coeffs:
            return "TwistedPoly(0)"
        bits = [f"({c!r})*T^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(bits)


def twisted_mul(P: TwistedPoly, Q: TwistedPoly) -> TwistedPoly:
    """Product in the twisted ring; degrees add, leading coefficients multiply."""
    P._check_compatible(Q)
    return sum((P.monomial_times(c, i, Q) for i, c in enumerate(P.coeffs) if c), P._clone([]))


def opposite(P: TwistedPoly) -> TwistedPoly:
    """The adjoint ``sum (-1)^(d-i) T^i a_i`` of ``P = sum a_i T^i`` of degree ``d``.

    Each ``T^i a_i`` is expanded by :meth:`TwistedPoly.monomial_times`.  The map is
    ``a T^i -> T^i a`` into the ring ``T a = a T - d(a)`` followed by ``T -> -T``
    back into this ring, times ``(-1)^d``: an involution that reverses products
    (degrees add) and keeps monic input monic.
    """
    d = len(P.coeffs) - 1
    return sum((P.monomial_times(P.config.scalar((-1) ** (d - i)), i, P._clone([a]))
                for i, a in enumerate(P.coeffs) if a), P._clone([]))


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower hull of ``(i, v_r(a_i))`` with ascending slopes.

    ``slopes`` is the multiset ``[(slope, multiplicity), ...]`` ascending; the
    multiplicities sum to ``deg P - x_offset`` where ``x_offset`` is the least
    index with a nonzero coefficient.
    """

    vertices: tuple

    @property
    def x_offset(self) -> int:
        return self.vertices[0][0]

    @property
    def slopes(self) -> tuple:
        return tuple(((y1 - y0) / (x1 - x0), x1 - x0)
                     for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]))

    def classical_slopes(self) -> tuple:
        """The x-mirrored slope multiset ``[(f, mult)]`` ascending, ``f = -slope``."""
        return tuple((-s, m) for s, m in reversed(self.slopes))

    def slope_list(self) -> list:
        """Slopes expanded with multiplicity, ascending."""
        return [s for s, m in self.slopes for _ in range(m)]


def newton_polygon(P: TwistedPoly, r: Sequence) -> NewtonPolygon:
    """Exact hull of the coefficient valuations at the fiber ``r``."""
    if P.is_zero():
        raise ValueError("Newton polygon of the zero polynomial")
    pts = [
        (i, c.gauss_valuation(r))
        for i, c in enumerate(P.coeffs)
        if not c.is_zero()
    ]
    return NewtonPolygon(tuple(_lower_hull(pts)))


@dataclass(frozen=True)
class SlopeFunctions:
    """Classical slope functions ``f_1 <= ... <= f_D`` and partial sums ``F_i``."""

    fs: tuple
    Fs: tuple
    window: tuple

    def __len__(self):
        return len(self.fs)


def slope_functions(P: TwistedPoly, axis: str, window, frozen: Sequence = ()) -> SlopeFunctions:
    """Exact parametric Newton polygon along one geometric axis.

    With ``v_i`` the valuation function of the coefficient ``a_i``, the lower
    hull at an integer ``x`` is, at each fiber, the least of ``v_x`` (when
    ``a_x != 0``) and the chords ``((b - x) v_a + (x - a) v_b) / (b - a)`` over
    nonzero indices ``a < x < b``.  Each ``v_i`` is concave, the least of the
    lines of its pieces, so a chord is the least of the weighted sums of one
    line of ``v_a`` and one of ``v_b`` whose pieces overlap, and the height
    ``h(x)`` is one exact lower envelope (:func:`min_of_lines`) of ``v_x``'s
    lines and those sums.  Returns the classical slope
    functions ``f_i = F_i - F_{i-1}``, ascending, and their partial sums
    ``F_i = h(d - i) - h(d)``, ``d`` the degree.

    Common shift: adding one function ``G`` of ``r`` to every ``v_i`` adds
    ``G`` to every height, so ``f_i`` and ``F_i`` do not change.  Denominators
    other than 1 are grouped by equality (all of ``cyclic_vector``'s ``n_i/delta``
    share one), each group's denominator is valued once, and ``G`` is the sum
    of those valuations: ``n/den`` is valued as ``n`` plus the other groups, a
    Laurent coefficient as itself plus every group.
    """
    if P.is_zero():
        raise ValueError("slope functions of the zero polynomial")
    lo, hi = Fraction(window[0]), Fraction(window[1])
    one = P.config.one()
    groups, shifted = {}, {}
    for i, c in enumerate(P.coeffs):
        if c.is_zero():
            continue
        num, den = (c.num, c.den) if isinstance(c, FracElement) else (c, one)
        if den != one and den._key not in groups:
            groups[den._key] = valuation_function(den, axis, (lo, hi), frozen)
        shifted[i] = (valuation_function(num, axis, (lo, hi), frozen), den._key)
    v = {i: reduce(partial(pa_combine, "sum"), (G for k, G in groups.items() if k != key), f)
         for i, (f, key) in shifted.items()}
    lines = {i: [(x0, x1, s, y0 - s * x0) for x0, x1, s, y0 in f.pieces()] for i, f in v.items()}

    def hull_at(x):
        env = [(s, c) for _, _, s, c in lines.get(x, ())]
        for a, b in ((a, b) for a in v if a < x for b in v if b > x):
            wa, wb = Fraction(b - x, b - a), Fraction(x - a, b - a)
            env += [(wa * s + wb * t, wa * c + wb * e) for p0, p1, s, c in lines[a]
                    for q0, q1, t, e in lines[b] if p0 < q1 and q0 < p1]
        return min_of_lines(env, lo, hi)

    h = [hull_at(x) for x in range(P.degree, min(v) - 1, -1)]  # h[i] = h(d - i)
    fs = tuple(b - a for a, b in zip(h, h[1:]))
    Fs = tuple(g - h[0] for g in h[1:])
    return SlopeFunctions(fs, Fs, (lo, hi))


def _working_cut(P: TwistedPoly, r: Sequence, precision) -> Fraction:
    """Where the fiber layer cuts its series: ``precision + max(0, -v) + 4``, ``v`` the least
    coefficient valuation of ``P`` at ``r``.  A term of ``B`` dropped there reaches ``E = P - A B``
    only through ``A eps``, and ``A`` (polygon: the low piece of ``P``'s, ending at 0) has no
    coefficient below ``v``; ``E``, formed exactly, stays the certificate.  On the Robba goldens
    ``precision + max(0, -2v) + 8`` gave the same traces; a pad of 0 changed three."""
    return precision + max(Fraction(0), -P.min_valuation(r)) + 4


def _laurent_quotients(nums: Sequence, den: LaurentElement, r: Sequence, cut) -> list:
    """Each ``n / den`` within Gauss valuation ``cut`` at ``r``: ``1/den`` is expanded once
    against the strictly dominant term of ``den``, as far as the least numerator needs,
    and multiplied in by :meth:`LaurentElement.truncated_mul`.  When no term dominates,
    the exact fractions ``n / den`` come back."""
    if len(den.terms) == 1:
        return [n.truncated_mul(den ** -1, r, cut) for n in nums]
    D, vals = _valued_terms(den.config, den.terms, r)
    (v0, key0, c0), (v1, _, _) = sorted(vals)[:2]
    if v1 == v0:
        return [FracElement(n, den) for n in nums]
    gap, v0 = Fraction(v1 - v0, D), Fraction(v0, D)
    m0inv = LaurentElement(den.config, {key0: c0}) ** -1
    neg_u = den.config.one() - den * m0inv  # valuation gap > 0 at r
    vnum = min((n.gauss_valuation(r) for n in nums if n), default=cut + v0)  # all zero: no terms
    need = cut - (vnum - v0)
    terms = 0 if need <= 0 else int(need / gap) + 1
    inv = acc = den.config.one()
    for _ in range(terms):
        acc = neg_u.truncated_mul(acc, r, cut + max(Fraction(0), -vnum) + abs(v0) + 2)
        inv = inv + acc
    return [(n * m0inv).truncated_mul(inv, r, cut) for n in nums]


def _laurent_approx(x, r: Sequence, cut):
    """``x`` truncated at ``cut`` if Laurent, else expanded by :func:`_laurent_quotients`;
    a fraction without a dominant denominator term comes back itself, exact."""
    if isinstance(x, LaurentElement):
        return x.truncate(r, cut)
    (y,) = _laurent_quotients([x.num], x.den, r, cut)
    return y if isinstance(y, LaurentElement) else x


def robba_factor(
    P: TwistedPoly,
    r: Sequence,
    split_slope,
    precision,
    budget: int = 64,
    trace: list = None,
) -> Tuple[TwistedPoly, TwistedPoly, object]:
    """Split ``P`` at a Newton-polygon vertex by successive approximation.

    Returns monic ``(Q_low, Q_high, residual)`` with ``P ~ Q_low * Q_high``,
    where ``Q_high`` carries exactly the hull slopes ``>= split_slope`` (our
    orientation) and the residual is the exact coefficientwise Gauss valuation
    of ``P - Q_low * Q_high`` at ``r``.

    Starting from the polygon initializer, each step divides ``P = A B + E``
    on the right, solves the correction ``sum_j dB_j (A T^j mod B) = E``
    exactly by one Bareiss elimination (:func:`valued.solve_fraction_free`,
    which clears any fraction rows), and adds each ``n_j (1/delta)`` to ``B``
    with ``1/delta`` expanded once (:func:`_laurent_quotients`): the terms
    beyond the working cut (:func:`_working_cut`) drop as they form.  Only
    ``B`` is corrected; the residual is formed exactly.
    The system treats the unknowns ``dB_j`` as commuting with ``A``.  That is
    the exact linearization for untwisted input, where the residual doubles
    per step (measured 1, 2, 4, ..., 64 on constant products at p = 3).  For
    twisted input the step is only first-order and convergence is linear:
    ``(T - t^-2)(T - t^-3)`` at p = 2, r = 1 gives the residuals -5, -4, -1,
    1, 3, 5, 7, 9, 11, about +2 per step.  For genuinely twisted input the
    separated high side must be visible: every slope ``>= split_slope`` must
    exceed the negated operator valuation of the derivation at the fiber.
    Untwisted (derivation-constant) input factors at any strict gap.  Pass a
    list as ``trace`` to receive the residual history.  ``ValueError`` if
    ``budget < 1``.
    """
    split_slope = Fraction(split_slope)
    precision = Fraction(precision)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if not P.is_monic():
        raise FactorizationError("input must be monic")
    np_ = newton_polygon(P, r)
    slopes = np_.slope_list()
    lowc = sum(1 for s in slopes if s < split_slope)
    k = np_.x_offset + lowc
    d = P.degree
    if k == 0 or k == d:
        raise NoSeparatingVertex(
            f"no separating vertex at split {split_slope} (polygon slopes {slopes})"
        )
    if lowc > 0 and lowc < len(slopes) and slopes[lowc - 1] == slopes[lowc]:
        raise NoSeparatingVertex("split falls inside a slope of the polygon")
    if not P.is_untwisted():
        tau = P.config.operator_valuation(P.axis, r)
        bad = [s for s in slopes[lowc:] if not (s > -tau)]
        if bad:
            raise SlopeNotVisible(
                f"separated slopes {bad} not below the visibility threshold"
            )

    cfg = P.config
    e = d - k
    cut = _working_cut(P, r, precision)

    B = P._clone(list(P.coeffs[k:]))
    best = None
    for _ in range(budget):
        A, E = P.rdivmod(B)
        res = E.min_valuation(r)
        if trace is not None:
            trace.append(res)
        if best is None or res > best[2]:
            best = (A, B, res)
        if res >= precision:
            return A, B, res
        # A T^j: right multiplication by T^j does not twist, it shifts
        rems = [P._clone([cfg.zero()] * j + list(A.coeffs)).rdivmod(B)[1] for j in range(e)]
        M = [[rem.coeff(i) for rem in rems] for i in range(e)]
        try:
            N, delta = solve_fraction_free(M, [[E.coeff(i)] for i in range(e)])
        except ZeroDivisionError:
            raise NonConvergence("singular correction system") from None
        dB = _laurent_quotients([n for n, in N], delta, r, cut)
        B = P._clone([_laurent_approx(b + x, r, cut) for b, x in zip(B.coeffs, dB)] + [cfg.one()])
    raise NonConvergence(
        f"no convergence within {budget} iterations (best residual {best[2]})",
        factors=(best[0], best[1]),
        residual=best[2],
    )


def verify_newton_properties(
    P: TwistedPoly,
    axis: str,
    window,
    frozen: Sequence = (),
    disc: bool = False,
    truncation=None,
) -> Report:
    """Check the variation clauses on the exact parametric slope functions.

    Clauses, in order: "linearity" (the slope functions are exact and
    piecewise affine); then the clauses shared with
    :func:`annuli.profiles.verify_variation`, run on ``-f_i`` and ``-F_i`` so
    the profile orientation applies: "slope membership" of the ``f_i`` slopes
    in ``U_k (1/k) Z`` for ``k <= deg P``; "integrality" of the ``F_i`` slopes
    wherever ``i`` is separated (``i = D`` or ``f_i < f_{i+1}`` on part of the
    piece); "monotonicity", nonnegative ``F_i`` slopes, for monic ``P`` on a
    disc-side window; "concavity" of ``F_i`` for monic ``P``; and
    "truncation", for monic ``P``: the same after truncating by
    ``min(f_i, a r + b)`` when a pair ``(a, b)`` is supplied.  Witnesses show
    the negated slopes.
    """
    sf = slope_functions(P, axis, window, frozen)
    rep = Report()
    D = len(sf)
    if D == 0:
        rep.add("linearity", PASS, "degenerate polygon, no slopes")
        return rep
    rep.add("linearity", PASS, f"{D} exact piecewise-affine slope functions")
    monic = P.is_monic()
    fs = named("f", [(-f).pieces() for f in sf.fs])
    Fs = named("F", [(-F).pieces() for F in sf.Fs])
    clause(rep, "slope membership", check_membership(fs, P.degree))
    gaps = [g - f for f, g in zip(sf.fs, sf.fs[1:])]  # f_{i+1} - f_i >= 0
    separated = [
        (label, [pc for pc in pieces if i == D - 1 or gaps[i].restrict(*pc[:2]).max_value() > 0])
        for i, (label, pieces) in enumerate(Fs)
    ]
    clause(rep, "integrality", check_integral(separated, 1, "integral at separation"))
    if monic and disc:
        clause(rep, "monotonicity", check_nonincreasing(Fs))
    else:
        rep.add("monotonicity", NOT_APPLICABLE, "requires monic input on a disc window")
    if monic:
        clause(rep, "concavity", check_convex(Fs))
    else:
        rep.add("concavity", NOT_APPLICABLE, "requires monic input")

    if truncation is not None and not monic:
        rep.add("truncation", NOT_APPLICABLE, "requires monic input")
    elif truncation is not None:
        a, b = Fraction(truncation[0]), Fraction(truncation[1])
        lo, hi = sf.window
        line = PiecewiseAffine.affine(lo, hi, a, a * lo + b)
        fails, acc = [], None
        for i, f in enumerate(sf.fs, 1):
            f = pa_combine("min", f, line)
            acc = f if acc is None else pa_combine("sum", acc, f)
            if not acc.is_concave():
                fails.append(f"truncated F_{i} not concave")
            if disc and any(s < 0 for s in acc.slopes()):
                fails.append(f"truncated F_{i} has negative slope")
        clause(rep, "truncation", fails)
    return rep
