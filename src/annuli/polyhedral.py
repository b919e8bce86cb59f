"""Transrational polyhedral sets, max-of-affines functions, toroidal maps.

An :class:`AffineFunctional` has integer slope and rational constant; a
:class:`TRPSet` is cut out by finitely many such functionals being
nonnegative.  :func:`reconstruct_polyhedral` rebuilds a convex max-of-affines
function from exact one-dimensional slices, certifying the result by whole
segment comparisons over a triangulation of its own cell complex (supported in
ambient dimension one and two, which covers the slicing applications).

Toroidal transforms substitute ``t_i -> s^(column i of A)`` for unimodular
``A``; log-radius fibers correspond along ``r = A^T rho`` where ``rho`` lives
on the substituted side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Callable, List, Optional, Sequence

from .modules import DiffModule, _monomial_pullback, cyclic_vector
from .profiles import RadiusProfile, _charpoly_profile, decomposition_loci
from .pwaffine import PiecewiseAffine, _lower_hull, max_of_lines
from .report import Report, check_convex, check_integral, clause, named

__all__ = [
    "AffineFunctional",
    "TRPSet",
    "PolyFunc",
    "UnimodularMatrix",
    "angle_cone",
    "small_cone",
    "synthetic_oracle",
    "reconstruct_polyhedral",
    "OracleInconsistency",
    "unimodular_completion",
    "toroidal_pullback",
    "multidim_profile",
    "multidim_loci",
    "SliceResult",
    "MultidimReport",
]


def _fvec(x) -> tuple:
    return tuple(Fraction(v) for v in x)


@dataclass(frozen=True)
class AffineFunctional:
    """``x -> slope . x + const`` with integer slope (transintegral)."""

    slope: tuple
    const: Fraction

    def __post_init__(self):
        object.__setattr__(self, "slope", tuple(int(a) for a in self.slope))
        object.__setattr__(self, "const", Fraction(self.const))

    def __call__(self, x) -> Fraction:
        return sum((a * v for a, v in zip(self.slope, _fvec(x))), self.const)

    def homogeneous(self) -> "AffineFunctional":
        return AffineFunctional(self.slope, 0)

    def restrict(self, point, direction) -> tuple:
        """The restriction to ``point + t*direction`` as ``(slope_t, value_at_0)``."""
        s = sum(a * d for a, d in zip(self.slope, direction))
        return (Fraction(s), self(point))


@dataclass(frozen=True)
class TRPSet:
    """``{x : lam(x) >= 0 for all constraints}`` in ``R^dim``."""

    constraints: tuple
    dim: int

    @staticmethod
    def make(constraints: Sequence, dim: int) -> "TRPSet":
        cs = tuple(
            c if isinstance(c, AffineFunctional) else AffineFunctional(c[0], c[1])
            for c in constraints
        )
        for c in cs:
            if len(c.slope) != dim:
                raise ValueError("constraint dimension mismatch")
        return TRPSet(cs, dim)

    @staticmethod
    def box(lo_hi: Sequence) -> "TRPSet":
        """Product of intervals ``[(lo_1, hi_1), ...]``."""
        cs = []
        n = len(lo_hi)
        for i, (lo, hi) in enumerate(lo_hi):
            e = [0] * n
            e[i] = 1
            cs.append(AffineFunctional(tuple(e), -Fraction(lo)))
            e2 = [0] * n
            e2[i] = -1
            cs.append(AffineFunctional(tuple(e2), Fraction(hi)))
        return TRPSet(tuple(cs), n)

    def contains(self, x) -> bool:
        if len(tuple(x)) != self.dim:
            raise ValueError("point dimension mismatch")
        return all(c(x) >= 0 for c in self.constraints)

    def strictly_contains(self, x) -> bool:
        if len(tuple(x)) != self.dim:
            raise ValueError("point dimension mismatch")
        return all(c(x) > 0 for c in self.constraints)

    def segment_range(self, point, direction) -> Optional[tuple]:
        """Parameter interval of ``point + t*direction`` inside the set.

        Returns ``(tmin, tmax)`` (possibly infinite endpoints as None) or None
        when the chord misses the set.
        """
        point = _fvec(point)
        lo, hi = None, None  # None = unbounded
        for c in self.constraints:
            s, v = c.restrict(point, direction)
            if s == 0:
                if v < 0:
                    return None
                continue
            bound = -v / s
            if s > 0:
                if lo is None or bound > lo:
                    lo = bound
            else:
                if hi is None or bound < hi:
                    hi = bound
        if lo is not None and hi is not None and lo > hi:
            return None
        return (lo, hi)

    # -- 2-D geometry -------------------------------------------------------

    def vertices(self) -> list:
        """Corners of a bounded set in dimension <= 2.

        In dimension 2 they are the feasible crossings of pairs of constraint
        lines, listed counter-clockwise from the least ``(x, y)`` with
        collinear points dropped (the lower hull, then the upper hull as the
        negated lower hull of the negated points): a polygon with interior
        has at least 3 corners, a segment its 2 endpoints, a point itself.
        """
        if self.dim == 1:
            rng = self.segment_range((Fraction(0),), (1,))
            if rng is None:
                return []
            lo, hi = rng
            if lo is None or hi is None:
                raise ValueError("unbounded one-dimensional set")
            return [(lo,), (hi,)] if lo != hi else [(lo,)]
        if self.dim != 2:
            raise ValueError("vertex enumeration supported in dimension <= 2")
        pts = set()
        cs = self.constraints
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                (a1, b1), c1 = cs[i].slope, cs[i].const
                (a2, b2), c2 = cs[j].slope, cs[j].const
                det = Fraction(a1 * b2 - a2 * b1)
                if det == 0:
                    continue
                x = (-c1 * b2 + c2 * b1) / det
                y = (-a1 * c2 + a2 * c1) / det
                if self.contains((x, y)):
                    pts.add((x, y))
        lower = _lower_hull(pts)
        upper = [(-x, -y) for x, y in _lower_hull((-x, -y) for x, y in pts)]
        return lower[:-1] + upper[:-1] or lower

    def is_compact(self) -> bool:
        if self.dim > 2:
            raise ValueError("compactness test supported in dimension <= 2")
        if self.dim == 1:
            rng = self.segment_range((Fraction(0),), (1,))
            return rng is None or (rng[0] is not None and rng[1] is not None)
        nontrivial = [c for c in self.constraints if any(c.slope)]
        if not nontrivial:
            return False
        for c in nontrivial:
            a, b = c.slope
            for z in ((-b, a), (b, -a)):
                if z == (0, 0):
                    continue
                if all(zc.slope[0] * z[0] + zc.slope[1] * z[1] >= 0 for zc in nontrivial):
                    return False
        return True


def angle_cone(C: TRPSet, x) -> TRPSet:
    """Directions along which the set is entered from ``x``: homogeneous parts
    of the constraints active at ``x``."""
    if not C.contains(x):
        raise ValueError("angle cone is defined only at points of the set")
    active = [c.homogeneous() for c in C.constraints if c(x) == 0]
    return TRPSet(tuple(active), C.dim)


def small_cone(C: TRPSet) -> TRPSet:
    """Directions preserved for all positive time: all homogeneous parts."""
    return TRPSet(tuple(c.homogeneous() for c in C.constraints), C.dim)


@dataclass(frozen=True)
class PolyFunc:
    """``x -> max`` of finitely many transintegral affine functionals."""

    functionals: tuple

    @staticmethod
    def make(functionals: Sequence) -> "PolyFunc":
        fs = tuple(
            f if isinstance(f, AffineFunctional) else AffineFunctional(f[0], f[1])
            for f in functionals
        )
        if not fs:
            raise ValueError("need at least one functional")
        return PolyFunc(fs)

    def __call__(self, x) -> Fraction:
        return max(f(x) for f in self.functionals)

    def restrict(self, point, direction, lo, hi) -> PiecewiseAffine:
        lines = [f.restrict(point, direction) for f in self.functionals]
        return max_of_lines([(s, v) for s, v in lines], lo, hi)

    def canonical_on(self, C: TRPSet) -> "PolyFunc":
        """Drop duplicates and functionals whose domination cell has empty interior.

        A cell has interior when it has more corners than the dimension.
        """
        keep = {f for k, f in enumerate(self.functionals)
                if len(_cell(self, k, C).vertices()) > C.dim}
        return PolyFunc(tuple(sorted(keep or set(self.functionals),
                                     key=lambda f: (f.slope, f.const))))


def _cell(F: PolyFunc, k: int, C: TRPSet) -> TRPSet:
    """The subset of ``C`` where functional ``k`` dominates."""
    fk = F.functionals[k]
    cs = list(C.constraints)
    for j, fj in enumerate(F.functionals):
        if j == k:
            continue
        cs.append(
            AffineFunctional(
                tuple(a - b for a, b in zip(fk.slope, fj.slope)), fk.const - fj.const
            )
        )
    return TRPSet(tuple(cs), C.dim)


def synthetic_oracle(g: PolyFunc, C: TRPSet) -> Callable:
    """Slice oracle of a known max-of-affines function on ``C``."""

    def oracle(point, direction):
        rng = C.segment_range(point, direction)
        if rng is None:
            raise ValueError("chord misses the domain")
        lo, hi = rng
        if lo is None or hi is None:
            raise ValueError("chord unbounded: domain must be compact")
        if lo == hi:
            raise ValueError("degenerate chord")
        return g.restrict(point, direction, lo, hi)

    return oracle


class OracleInconsistency(ValueError):
    def __init__(self, msg, segment=None):
        super().__init__(msg)
        self.segment = segment


def _primitive(direction) -> tuple:
    d = [int(x) for x in direction]
    g = gcd(*d)
    if g == 0:
        raise ValueError("zero direction")
    return tuple(x // g for x in d)


def _integer_direction(u, w) -> tuple:
    diff = [Fraction(b) - Fraction(a) for a, b in zip(u, w)]
    den = lcm(*(x.denominator for x in diff))
    return _primitive([int(x * den) for x in diff])


def _probe_gradient(oracle, C: TRPSet, y, n: int, known=()):
    """Gradient of the sliced function at a point inside one of its cells.

    Nudges ``y`` until the point is off every kink and the boundary, skipping
    nudges whose gradient is in ``known``.  Returns the supporting functional
    there, or None when every nearby attempt fails.
    """
    nudges = [tuple(Fraction(0) for _ in range(n))]
    steps = [Fraction(1, k) for k in (64, 256, 1024)]
    if n == 2:
        for s in steps:
            nudges += [(s, 0), (-s, 0), (0, s), (0, -s), (s, s), (-s, -s), (s, -s), (-s, s)]
    else:
        for s in steps:
            nudges += [(s,), (-s,)]
    axes = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for nd in nudges:
        yy = tuple(Fraction(a) + b for a, b in zip(y, nd))
        if not C.strictly_contains(yy):
            continue
        grads, vals = [], []
        for e in axes:
            pa = oracle(yy, e)
            pieces = [p for p in pa.pieces() if p[0] <= 0 <= p[1]]
            if any(b == 0 for b in pa.breakpoints()) or not pieces:
                break  # a kink or the boundary at yy: try the next nudge
            lo, hi, s, v0 = pieces[0]
            grads.append(s)
            vals.append(v0 + s * (0 - lo))
        else:
            if any(v != vals[0] for v in vals):
                raise OracleInconsistency("oracle value disagrees between directions")
            if any(x.denominator != 1 for x in grads):
                raise OracleInconsistency(f"non-integer slope {grads} at {yy}")
            lam = AffineFunctional(tuple(int(x) for x in grads),
                                   vals[0] - sum(a * c for a, c in zip(grads, yy)))
            if lam not in known:
                return lam
    return None


def _compare_on_edge(oracle, F: PolyFunc, u, w):
    """Exact comparison of oracle and candidate along the segment ``[u, w]``.

    Returns None on agreement, else a point of strict discrepancy.
    """
    direction = _integer_direction(u, w)
    i = next(k for k, x in enumerate(direction) if x != 0)
    T = (Fraction(w[i]) - Fraction(u[i])) / direction[i]
    pa = oracle(u, direction)
    lo, hi = pa.domain
    if lo > 0 or hi < T:
        raise OracleInconsistency("oracle did not cover the requested segment", (u, w))
    got = pa.restrict(0, T) if (lo, hi) != (Fraction(0), T) else pa
    want = F.restrict(u, direction, Fraction(0), T)
    if got == want:
        return None
    diff = got - want
    for a, b, s, v0 in diff.pieces():
        va = v0
        vb = v0 + s * (b - a)
        if va < 0 or vb < 0:
            raise OracleInconsistency("oracle slice below a supporting functional", (u, w))
        if va > 0 or vb > 0:
            t = (a + b) / 2 if (va > 0 and vb > 0) else (a * 2 + b) / 3 if va > 0 else (a + 2 * b) / 3
            return tuple(Fraction(x) + t * d for x, d in zip(u, direction))
    return None


MAX_ROUNDS = 200  # refinement rounds of reconstruct_polyhedral before it gives up


def reconstruct_polyhedral(C: TRPSet, slice_oracle: Callable) -> PolyFunc:
    """Rebuild a convex transintegral max-of-affines function from 1-D slices.

    Supporting functionals are collected by gradient probes at cell-interior
    points: near the centroid, toward each corner, and at each discrepancy
    point, where the probe skips functionals already known.  The candidate is
    certified by exact whole-segment comparison along every edge of a
    triangulation of its own cell complex, which pins the function on each
    triangle by convexity.  Inconsistent oracles (non-convex slices,
    non-integer slopes, value disagreements) are reported with the offending
    segment.  Ambient dimension must be 1 or 2 and ``C`` compact and
    full-dimensional.
    """
    n = C.dim
    if n not in (1, 2):
        raise ValueError("reconstruction implemented for ambient dimension 1 and 2")
    if not C.is_compact():
        raise ValueError("domain must be compact")
    verts = C.vertices()
    if len(verts) <= n:
        raise ValueError("domain must be full-dimensional")
    centroid = tuple(sum(v[i] for v in verts) / len(verts) for i in range(n))

    funcs: List[AffineFunctional] = []
    seed = _probe_gradient(slice_oracle, C, centroid, n)
    if seed is None:
        raise OracleInconsistency("no gradient found near the centroid")
    funcs.append(seed)
    for v in verts:
        y = tuple((Fraction(a) + 3 * Fraction(b)) / 4 for a, b in zip(centroid, v))
        got = _probe_gradient(slice_oracle, C, y, n)
        if got is not None and got not in funcs:
            funcs.append(got)

    for _ in range(MAX_ROUNDS):
        F = PolyFunc(tuple(funcs))
        edges = _complex_edges(F, C)
        new_point = None
        for u, w in edges:
            bad = _compare_on_edge(slice_oracle, F, u, w)
            if bad is not None:
                new_point = bad
                break
        if new_point is None:
            return F.canonical_on(C)
        got = _probe_gradient(slice_oracle, C, new_point, n, funcs)
        if got is None:
            raise OracleInconsistency(
                f"cannot isolate a new gradient near discrepancy point {new_point}"
            )
        funcs.append(got)
    raise OracleInconsistency(f"no convergence after {MAX_ROUNDS} refinement rounds")


def _complex_edges(F: PolyFunc, C: TRPSet) -> list:
    """Edges of a triangulation of the cell complex of ``F`` inside ``C``.

    Each cell contributes the cycle of its corners and the fan from its first
    corner: one edge for a segment, none for a point.
    """
    edges = set()

    def add(u, w):
        if u != w:
            edges.add((u, w) if u <= w else (w, u))

    for j in range(len(F.functionals)):
        vs = _cell(F, j, C).vertices()
        for i in range(len(vs)):
            add(vs[i], vs[(i + 1) % len(vs)])
        for i in range(2, len(vs)):
            add(vs[0], vs[i])
    return sorted(edges)


# -- unimodular matrices and toroidal transforms --------------------------------


@dataclass(frozen=True)
class UnimodularMatrix:
    rows: tuple

    @staticmethod
    def make(rows: Sequence) -> "UnimodularMatrix":
        rs = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rs)
        if any(len(r) != n for r in rs):
            raise ValueError("matrix must be square")
        A = UnimodularMatrix(rs)
        if abs(A.det()) != 1:
            raise ValueError(f"determinant {A.det()} is not +-1")
        return A

    @staticmethod
    def identity(n: int) -> "UnimodularMatrix":
        return UnimodularMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def det(self) -> int:
        """Signed determinant by integer Bareiss: updates divide exactly by the previous pivot."""
        M, sign, prev, n = [list(r) for r in self.rows], 1, 1, self.n
        for k in range(n):
            piv = next((i for i in range(k, n) if M[i][k]), None)
            if piv is None:
                return 0
            if piv != k:
                M[k], M[piv], sign = M[piv], M[k], -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    M[i][j] = (M[k][k] * M[i][j] - M[i][k] * M[k][j]) // prev
            prev = M[k][k]
        return sign * prev

    def mul(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        n = self.n
        rows = tuple(
            tuple(sum(self.rows[i][k] * other.rows[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        return UnimodularMatrix(rows)

    def transpose(self) -> "UnimodularMatrix":
        return UnimodularMatrix(tuple(zip(*self.rows)))

    def inverse(self) -> "UnimodularMatrix":
        """The adjugate times ``det = +-1``: entry ``(i, j)`` is the signed minor ``(j, i)``."""
        d, rs, n = self.det(), self.rows, self.n
        if abs(d) != 1:
            raise ValueError(f"determinant {d} is not +-1")
        return UnimodularMatrix(tuple(tuple(
            (-1) ** (i + j) * d * UnimodularMatrix(tuple(
                r[:i] + r[i + 1:] for k, r in enumerate(rs) if k != j)).det()
            for j in range(n)) for i in range(n)))

    def apply(self, vec: Sequence) -> tuple:
        return tuple(
            sum((r * Fraction(v) for r, v in zip(row, vec)), Fraction(0)) for row in self.rows
        )


def unimodular_completion(direction: Sequence) -> UnimodularMatrix:
    """A unimodular matrix whose first row is the given primitive vector.

    Column reduction by extended gcd sends the row to ``e_1``; the inverse of
    the accumulated column operations is the completion.  Deterministic given
    the pivot order (leftmost smallest nonzero entry first).
    """
    a = [int(x) for x in direction]
    n = len(a)
    if gcd(*a) != 1:
        raise ValueError(f"direction {tuple(a)} is not primitive")
    v = list(a)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colop(i, j, q):
        # column i minus q times column j
        for row in range(n):
            U[row][i] -= q * U[row][j]
        v[i] -= q * v[j]

    while sum(1 for x in v if x != 0) > 1:
        nz = sorted((abs(x), i) for i, x in enumerate(v) if x != 0)
        (_, j), (_, i) = nz[0], nz[1]
        q = v[i] // v[j]
        colop(i, j, q)
    k = next(i for i, x in enumerate(v) if x != 0)
    if k != 0:
        for row in range(n):
            U[row][0], U[row][k] = U[row][k], U[row][0]
        v[0], v[k] = v[k], v[0]
    if v[0] == -1:
        for row in range(n):
            U[row][0] = -U[row][0]
    return UnimodularMatrix.make(U).inverse()


def toroidal_pullback(M: DiffModule, A: UnimodularMatrix) -> DiffModule:
    """Substitute ``t_i -> s^(column i of A)`` and transform the connection.

    This is :func:`annuli.modules._monomial_pullback` with the rows of ``A``:
    ``d/ds_k = sum_i A[k][i] (t_i o s)/s_k d/dt_i``, and base-axis matrices
    are only substituted.  Fibers correspond along ``r = A^T rho``; intrinsic
    radii are invariant at matched fibers.
    """
    n = M.config.n_geom
    if A.n != n:
        raise ValueError("matrix size must match the geometric variable count")
    for k in range(n):
        if f"t{k + 1}" not in M.matrices:
            raise ValueError(f"module must carry all geometric actions, missing t{k + 1}")
    return _monomial_pullback(M, A.rows)


# -- multidimensional slicing ----------------------------------------------------


@dataclass(frozen=True)
class SliceResult:
    base_point: tuple
    direction: tuple
    t_range: tuple
    profile: RadiusProfile
    report: Report


@dataclass
class MultidimReport:
    slices: list = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return all(s.report.passed for s in self.slices)


def multidim_profile(
    M: DiffModule,
    C: TRPSet,
    directions: Sequence,
    axis: str = "intrinsic",
) -> MultidimReport:
    """Exact profiles along integer-direction slices of a polyannulus region.

    Each primitive direction is completed to a unimodular matrix, the module
    is pulled back toroidally, and the one-dimensional profile machinery runs
    along the first substituted coordinate.  One call does that work once per
    direction, with one :func:`annuli.modules.cyclic_vector` charpoly per axis
    of the pullback, and builds one profile per chord, which every slice along
    that chord shares.  The per-slice report checks
    convexity of the partial sums and the slope membership asserted for
    transintegral polyhedrality (``d! F_l`` and ``F_d`` slopes integral along
    integer directions).
    """
    cfg = M.config
    if C.dim != cfg.n_geom:
        raise ValueError("region dimension must match the geometric variable count")
    out, memo = MultidimReport(), {}
    for base_point, direction in directions:
        if not C.contains(base_point):
            raise ValueError(f"base point {base_point} outside the region")
        a, t_range, profile = _chord_profile(M, C, base_point, direction, axis, memo)
        rep = _slice_report(profile)
        out.slices.append(SliceResult(_fvec(base_point), a, t_range, profile, rep))
    return out


def _chord_profile(M: DiffModule, C: TRPSet, point, direction, axis: str, memo: dict):
    """Profile of ``M`` along the chord of ``C`` from ``point`` in a primitive direction.

    Returns ``(direction, (tmin, tmax), profile)``; the profile runs along the
    first coordinate of the toroidal pullback, over ``rho0 + [tmin, tmax]``.
    ``memo``, the caller's own dict, keeps per direction ``a`` the inverse
    transpose of its completion ``A``, the pullback and one charpoly per axis,
    and per chord ``(a, rho0[1:])`` the profile: every point of a chord gives
    the same ``rho0[1:]`` and the same window ``rho0[0] + [tmin, tmax]``.
    """
    a = tuple(int(x) for x in direction)
    if a != _primitive(a):
        raise ValueError(f"direction {a} is not primitive")
    rng = C.segment_range(point, a)
    if rng is None or rng[0] is None or rng[1] is None or rng[0] >= rng[1]:
        raise ValueError("chord misses the region, is unbounded or is degenerate")
    tmin, tmax = rng
    if a not in memo:
        A = unimodular_completion(a)
        Mp = toroidal_pullback(M, A)
        axes = Mp.axes() if axis == "intrinsic" else [axis]
        memo[a] = (A.transpose().inverse(), Mp, {x: cyclic_vector(Mp, x)[1] for x in axes}, {})
    inverse_t, Mp, charpolys, chords = memo[a]
    rho0 = inverse_t.apply(point)
    if rho0[1:] not in chords:
        window = (rho0[0] + tmin, rho0[0] + tmax)
        chords[rho0[1:]] = _charpoly_profile(Mp, charpolys, axis == "intrinsic", "t1", window,
                                             list(rho0))
    return a, (tmin, tmax), chords[rho0[1:]]


def _slice_report(profile: RadiusProfile) -> Report:
    """Per-slice clauses, shared with :func:`annuli.profiles.verify_variation`.

    "convexity" of every ``F_i``, then "polyhedrality": on every definite
    piece the slope of ``d! F_i`` (of ``F_d`` itself for ``i = d``) is an
    integer.  Both are not applicable on a fully capped slice.
    """
    rep = Report()
    d = profile.rank
    Fs = named("F", [profile.partial_sum(i) for i in range(1, d + 1)])
    clause(rep, "convexity", check_convex(Fs), "fully capped slice")
    scale = factorial(d)
    clause(rep, "polyhedrality",
           check_integral(Fs[:-1], scale, f"in (1/{scale})Z") + check_integral(Fs[-1:]),
           "fully capped slice")
    return rep


def module_slice_oracle(M: DiffModule, C: TRPSet, level: int, scale: int = 1) -> Callable:
    """Slice oracle returning ``scale * F_level`` of a module along chords of ``C``.

    Every queried chord must be definite (no capped cells through index
    ``level``); a capped chord raises, on every query, since the value there
    is uncertified.  Feeding this to :func:`reconstruct_polyhedral` recovers
    the polyhedral form of ``d! F_l`` over the region.  The oracle keeps its
    own memo: the pullback and one :func:`annuli.modules.cyclic_vector`
    charpoly per axis once per direction, and one profile per chord, which
    later queries along that chord, from any point of it, reuse.
    """
    memo = {}

    def oracle(point, direction):
        _, (tmin, _), profile = _chord_profile(M, C, point, direction, "intrinsic", memo)
        window = profile.window
        shift = window[0] - tmin  # window coordinate -> chord parameter
        pieces = profile.partial_sum(level)
        if not pieces or pieces[0][0] != window[0] or pieces[-1][1] != window[1]:
            raise ValueError("slice has capped cells: value uncertified")
        knots = [tmin]
        values = [pieces[0][3] * scale]
        for lo, hi, s, v in pieces:
            knots.append(hi - shift)
            values.append((v + s * (hi - lo)) * scale)
        return PiecewiseAffine(knots, values)

    return oracle


def multidim_loci(report: MultidimReport) -> list:
    """Conservative decomposition loci from covering slices.

    For each separation index the certified open parameter intervals of every
    slice are reported; ``complete`` marks indices whose hypotheses hold on
    the whole interior of every covering slice.  Nothing is interpolated
    between slices.
    """
    if not report.slices:
        raise ValueError("insufficient coverage: no slices supplied")
    rank = report.slices[0].profile.rank
    out = []
    for l in range(1, rank):
        per_slice = []
        complete = True
        any_found = False
        for idx, s in enumerate(report.slices):
            lo_w, hi_w = s.profile.window
            loci = [iv for i, iv in decomposition_loci(s.profile) if i == l]
            shift = lo_w - s.t_range[0]  # window coord -> slice parameter
            ivs = [(a - shift, b - shift) for a, b in loci]
            per_slice.append((idx, ivs))
            if ivs:
                any_found = True
            if len(ivs) != 1 or ivs[0][0] != s.t_range[0] or ivs[0][1] != s.t_range[1]:
                complete = False
        if any_found:
            out.append({"index": l, "complete": complete, "slices": per_slice})
    return out
