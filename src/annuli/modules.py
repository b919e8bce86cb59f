"""Differential modules as commuting connection matrices.

A module of rank ``d`` is given by matrices ``N_a`` over the Laurent ring, one
per derivation axis, acting on column vectors by ``D_a(x) = d_a(x) + N_a x``.
Integrability (``D_a D_b = D_b D_a``) is checked symbolically at construction.

Radii are read off the Newton polygon of a cyclic-vector characteristic
polynomial: a hull slope ``sigma`` visible at a fiber (``sigma > -tau`` with
``tau`` the operator valuation of the derivation there) contributes

* extrinsic log-radius ``omega + sigma`` and
* intrinsic log-radius ``omega + tau + sigma``,

while the remaining rank is reported as a single capped entry at the
uncertified boundary (extrinsic ``omega - tau``, intrinsic ``omega``); capped
radii would require descending the module itself, which this library does not
do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, Sequence, Tuple

from .twisted import (
    NewtonPolygon,
    NonConvergence,
    TwistedPoly,
    _laurent_approx,
    _laurent_quotients,
    _working_cut,
    newton_polygon,
    opposite,
    robba_factor,
)
from .valued import (
    INF,
    FracElement,
    LaurentElement,
    ValuationConfig,
    _fiber_scale,
    _ord_int,
    _valued_terms,
    solve_fraction_free,
)

__all__ = [
    "DiffModule",
    "RadiiMultiset",
    "IntrinsicRadius",
    "apply_connection",
    "iterate_Dn",
    "spectral_valuation_estimate",
    "cyclic_vector",
    "visible_radii",
    "intrinsic_radius_multi",
    "tame_pullback",
    "decompose_fiber",
    "rank_one",
    "direct_sum",
    "dual",
    "tensor",
    "from_companion",
    "CyclicSearchError",
]


# -- small exact linear algebra over ring elements ---------------------------

def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [
        [sum((A[i][l] * B[l][j] for l in range(1, k)), A[i][0] * B[0][j]) for j in range(m)]
        for i in range(n)
    ]


def mat_derive(A, axis):
    return [[a.derive(axis) for a in row] for row in A]


def mat_neg_transpose(A):
    d = len(A)
    return [[-A[j][i] for j in range(d)] for i in range(d)]


def _mat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def _identity(cfg: ValuationConfig, d: int):
    return [[cfg.one() if i == j else cfg.zero() for j in range(d)] for i in range(d)]


def _inverse(A, r: Sequence, cut):
    """``N / delta`` by one Bareiss solve, with ``1/delta`` expanded once at the fiber
    (:func:`twisted._laurent_quotients`); ``ZeroDivisionError`` if ``A`` is singular."""
    N, delta = solve_fraction_free(A, _identity(A[0][0].config, len(A)))
    flat = iter(_laurent_quotients([n for row in N for n in row], delta, r, cut))
    return [[next(flat) for _ in row] for row in N]


# -- the module type ----------------------------------------------------------


class DiffModule:
    """Rank-``d`` module with one connection matrix per derivation axis."""

    __slots__ = ("config", "rank", "matrices")

    def __init__(self, config: ValuationConfig, rank: int, matrices: Dict[str, list],
                 check: bool = True):
        self.config = config
        self.rank = int(rank)
        mats = {}
        for axis, A in matrices.items():
            config.axis_kind(axis)
            if len(A) != rank or any(len(row) != rank for row in A):
                raise ValueError(f"matrix for {axis} is not {rank}x{rank}")
            mats[axis] = [
                [x if isinstance(x, LaurentElement) else config.scalar(x) for x in row]
                for row in A
            ]
        self.matrices = mats
        if check:
            self._check_integrability()

    def _check_integrability(self):
        axes = sorted(self.matrices)
        for i, a in enumerate(axes):
            for b in axes[i + 1 :]:
                Na, Nb = self.matrices[a], self.matrices[b]
                lhs = mat_add(mat_derive(Nb, a), mat_mul(Nb, Na))
                rhs = mat_add(mat_derive(Na, b), mat_mul(Na, Nb))
                if not _mat_eq(lhs, rhs):
                    raise ValueError(f"integrability fails for derivations ({a}, {b})")

    def axes(self) -> list:
        return sorted(self.matrices)

    def matrix(self, axis: str):
        """The connection matrix of ``axis``; ``ValueError`` if the module lacks it."""
        try:
            return self.matrices[axis]
        except KeyError:
            raise ValueError(f"module carries no derivation along {axis!r}") from None

    def __repr__(self):
        return f"DiffModule(rank={self.rank}, axes={self.axes()})"


def rank_one(config: ValuationConfig, entries: Dict[str, LaurentElement]) -> DiffModule:
    return DiffModule(config, 1, {a: [[e]] for a, e in entries.items()})


def direct_sum(M1: DiffModule, M2: DiffModule) -> DiffModule:
    if M1.config != M2.config or set(M1.matrices) != set(M2.matrices):
        raise ValueError("summands must share configuration and axes")
    z = M1.config.zero()
    mats = {a: [row + [z] * M2.rank for row in A] + [[z] * M1.rank + row for row in M2.matrices[a]]
            for a, A in M1.matrices.items()}
    return DiffModule(M1.config, M1.rank + M2.rank, mats, check=False)


def dual(M: DiffModule) -> DiffModule:
    return DiffModule(M.config, M.rank, {a: mat_neg_transpose(A) for a, A in M.matrices.items()})


def tensor(M1: DiffModule, M2: DiffModule) -> DiffModule:
    if M1.config != M2.config or set(M1.matrices) != set(M2.matrices):
        raise ValueError("factors must share configuration and axes")
    z = M1.config.zero()
    d1, d2 = M1.rank, M2.rank  # N = A (x) 1 + 1 (x) B: row i*d2 + k, column j*d2 + l
    mats = {a: [[(A[i][j] if k == l else z) + (M2.matrices[a][k][l] if i == j else z)
                 for j in range(d1) for l in range(d2)] for i in range(d1) for k in range(d2)]
            for a, A in M1.matrices.items()}
    return DiffModule(M1.config, d1 * d2, mats, check=False)


def from_companion(P: TwistedPoly) -> DiffModule:
    """The cyclic module attached to a monic twisted polynomial.

    Basis ``v, Tv, ..., T^{d-1}v`` with the derivation acting by left
    multiplication by ``T``; extra axes are not carried.
    """
    if not P.is_monic():
        raise ValueError("companion module needs a monic polynomial")
    cfg = P.config
    d = P.degree
    z = cfg.zero()
    N = [[z for _ in range(d)] for _ in range(d)]
    for i in range(1, d):
        N[i][i - 1] = cfg.one()
    P = P.laurent()
    for i in range(d):
        N[i][d - 1] = -P.coeff(i)
    return DiffModule(cfg, d, {P.axis: N})


# -- connection action and spectral iterates ---------------------------------


def apply_connection(M: DiffModule, axis: str, vec: Sequence) -> list:
    """Exact ``d(vec) + N vec`` on a coordinate vector: entry ``i`` is ``d(vec[i])``
    plus the products ``N[i][j] vec[j]`` whose two factors are nonzero."""
    if len(vec) != M.rank:
        raise ValueError("vector length mismatch")
    live = [(j, y) for j, y in enumerate(vec) if y]
    return [sum((row[j] * y for j, y in live if row[j]), x.derive(axis) if x else x)
            for x, row in zip(vec, M.matrix(axis))]


def iterate_Dn(M: DiffModule, axis: str, n_max: int, r: Sequence) -> list:
    """Valuations of the matrices through which the derivation powers act.

    ``D_1 = N`` and ``D_{n+1} = d(D_n) + N D_n``, so each column of ``D_{n+1}``
    is :func:`apply_connection` of that column of ``D_n``; returns
    ``[(n, min entry valuation at r)]`` for ``n = 1..n_max``.  Every value is
    exact: after the first steps ``D_n`` is carried truncated at the fiber, and
    each value is certified against an exact lower bound on what was dropped,
    or comes from an exact rerun (:func:`_iterate_Dn`).  ``ValueError`` unless
    ``r`` has one entry per geometric variable.
    """
    return _iterate_Dn(M, axis, n_max, r, from_n=1)


def _iterate_Dn(M: DiffModule, axis: str, n_max: int, r: Sequence, from_n: int,
                cutting: bool = True) -> list:
    """Certified recursion; valuations are returned only for ``n >= from_n``.

    With ``G_j`` the matrix of ``D^j`` (``G_0 = I``) and ``op`` the operator
    valuation, Leibniz gives ``D^k y = sum_j C(k, j) G_j d^(k-j) y`` and
    ``v(d^m f) >= v(f) + m op + ord_p(m!)``, so ``v(D^k y) >= v(y) + gamma_k``
    with ``gamma_k = min_{j<=k} (v(G_j) + (k-j) op + ord_p((k-j)!))``.  The first
    ``b = 8`` steps run exact and give ``gamma_1..gamma_b``.  Later ``D_n`` are
    truncated by Gauss valuation at ``r``, a margin above their least valuation
    (one cut for p-adic precision and t-degree), column by column: each column is
    first cut at its own least valuation plus the margin, which only keeps more.
    The error ``E_m``, exact minus kept, is ``D^b E_{m-b} + sum_{m-b<n<=m} D^{m-n}
    y_n`` with ``y_n`` the part dropped at step ``n``, of valuation at least ``c_n``;
    so ``v(E_m) >= err_m = min(err_{m-b} + gamma_b, min_n (c_n + gamma_{m-n}))``.
    ``v(D_m)`` is certified when the kept least valuation is below ``err_m``.  When
    it is not, or the kept part is zero under a finite bound, the loop reruns with
    no cut.  Valuations are integers on the fiber's scale ``D``
    (:func:`valued._fiber_scale`): each nonzero entry is valued once a step by
    :func:`valued._valued_terms` and cut from that list at ``floor(cut D)``, so on
    that scale ``c_n = floor(cut D) + 1``.  Zero entries are skipped; values return
    as ``Fraction(v, D)``.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    cfg, b, r = M.config, 8, tuple(Fraction(x) for x in r)
    D = _fiber_scale(cfg, r)[0]
    op = int(cfg.operator_valuation(axis, r) * D)
    fact = [D * _ord_int(factorial(k), cfg.p) if cfg.p else 0 for k in range(b + 1)]
    cols = [list(col) for col in zip(*M.matrix(axis))]
    vals, gamma, errs, cuts, out = [0], [0], [INF], {}, []
    for n in range(1, n_max + 1):
        if not (cutting and n > b and vals[b] is not INF):
            v = min((_valued_terms(cfg, x.terms, r, least=True)[1][-1][0]
                     for col in cols for x in col if x), default=INF)
        else:
            # the bound falls by gamma_b per b steps and D_n by the prefix's mean
            # slope: the margin keeps that gap for the steps still to come
            slack = 4 * D + (n_max - n) * max(0, b * (vals[b] - vals[1]) - (b - 1) * gamma[b]
                                              ) // (b * (b - 1))
            size = sum(len(x.terms) for col in cols for x in col)
            for j, col in enumerate(cols):
                col = [_valued_terms(cfg, x.terms, r)[1] if x else [] for x in col]
                top = min((w for terms in col for w, _, _ in terms), default=INF) + slack
                cols[j] = [[t for t in terms if t[0] <= top] for terms in col]
            v = min((w for col in cols for terms in col for w, _, _ in terms), default=INF)
            cols = [[LaurentElement._trusted(cfg, {k: c for w, k, c in terms if w <= v + slack})
                     for terms in col] for col in cols]
            if sum(len(x.terms) for col in cols for x in col) < size:
                cuts[n] = v + slack + 1
        if n <= b:
            vals.append(v)
            gamma.append(min(vj + (n - j) * op + fact[n - j] for j, vj in enumerate(vals)))
        errs.append(min([errs[n - b] + gamma[b] if n > b else INF]
                        + [cuts[k] + gamma[n - k] for k in range(n - b + 1, n + 1) if k in cuts]))
        if n >= from_n:
            if not (errs[n] is INF or v < errs[n]):
                return _iterate_Dn(M, axis, n_max, r, from_n, cutting=False)
            out.append((n, INF if v is INF else Fraction(v, D)))
        if n < n_max:
            cols = [apply_connection(M, axis, col) for col in cols]
    return out


def spectral_valuation_estimate(M: DiffModule, axis: str, r: Sequence, n_max: int):
    """Estimate of the spectral valuation from the growth of the iterates.

    Combines the base spectral valuation with the tail of ``v(D_n)/n``; the
    returned window is the oscillation over the last quarter of the samples, a
    heuristic convergence indicator rather than a bound.  Each ``v(D_n)`` in that
    tail is exact: :func:`_iterate_Dn` certifies it against its lower bound on the
    truncation error, or reruns exact when the certificate fails.  ``ValueError``
    unless ``r`` has one entry per geometric variable.
    """
    if n_max < 16:
        raise ValueError("n_max must be at least 16")
    tail = _iterate_Dn(M, axis, n_max, r, from_n=n_max - n_max // 4 + 1)
    base = M.config.spectral_base_valuation(axis, r)
    finite = [v / n for n, v in tail if v is not INF]
    if not finite:
        return base, Fraction(0)
    est = min(base, max(finite))
    window = max(finite) - min(finite)
    return est, window


# -- cyclic vectors and radii -------------------------------------------------


class CyclicSearchError(ValueError):
    pass


def _cyclic_candidates(M: DiffModule, axis: str):
    cfg = M.config
    d = M.rank
    kind, idx = cfg.axis_kind(axis)
    gens = [cfg.t(idx + 1) if kind == "t" else cfg.u(idx + 1)]
    gens += [cfg.t(k + 1) for k in range(cfg.n_geom) if (kind, idx) != ("t", k)]
    gens += [cfg.u(j + 1) for j in range(cfg.m_base) if (kind, idx) != ("u", j)]

    def e(i):
        return [cfg.one() if j == i else cfg.zero() for j in range(d)]

    yield e(0)
    for gen in gens:
        for k in range(0, 4):
            for i in range(1, d):
                v = e(0)
                v[i] = gen ** k
                yield v
        for k in range(0, 4):
            yield [gen ** (k * i) for i in range(d)]
    for lam in range(2, 8):
        yield [cfg.scalar(lam ** i) for i in range(d)]


def cyclic_vector(M: DiffModule, axis: str) -> Tuple[list, TwistedPoly]:
    """A Laurent cyclic vector plus its annihilator over the rational-function field.

    Each candidate ``v`` is a Laurent vector, and :func:`apply_connection`
    keeps ``v, Dv, ..., D^d v`` Laurent.  One Bareiss elimination
    (:func:`valued.solve_fraction_free`) of ``[v, Dv, ..., D^{d-1}v] c = -D^d v``
    gives Laurent numerators ``n_i`` over one determinant ``delta``, and the
    monic ``P = T^d + sum (n_i/delta) T^i`` has ``P(D)v = 0``.  ``v`` is cyclic
    iff ``delta != 0``; otherwise the next candidate is tried.
    """
    d = M.rank
    tried = 0
    for vec in _cyclic_candidates(M, axis):
        cols = [vec]
        for _ in range(d):
            cols.append(apply_connection(M, axis, cols[-1]))
        try:
            N, delta = solve_fraction_free(list(zip(*cols[:d])), [[-x] for x in cols[d]])
        except ZeroDivisionError:
            tried += 1
            continue
        return vec, TwistedPoly(M.config, axis,
                                [FracElement(n, delta) for n, in N] + [M.config.one()])
    raise CyclicSearchError(f"cyclic search bound exceeded after {tried} candidates")


@dataclass(frozen=True)
class RadiiMultiset:
    """Multiset of log-radius values with multiplicities and visibility flags.

    Entries are ``(value, multiplicity, capped)`` sorted by decreasing value
    with capped entries last; a capped entry records the uncertified boundary
    (the true value is at or below it in log units).
    """

    entries: tuple
    kind: str  # "extrinsic" | "intrinsic"

    @staticmethod
    def make(entries, kind) -> "RadiiMultiset":
        merged: dict = {}
        for value, mult, capped in entries:
            key = (Fraction(value), bool(capped))
            merged[key] = merged.get(key, 0) + int(mult)
        items = sorted(merged.items(), key=lambda kv: (kv[0][1], -kv[0][0]))
        return RadiiMultiset(
            tuple((v, m, c) for (v, c), m in items if m), kind
        )

    @property
    def rank(self) -> int:
        return sum(m for _, m, _ in self.entries)

    def visible(self) -> tuple:
        return tuple(e for e in self.entries if not e[2])

    def capped(self) -> tuple:
        return tuple(e for e in self.entries if e[2])

    def values(self) -> list:
        """Visible values expanded with multiplicity, decreasing."""
        return [v for v, m, c in self.entries if not c for _ in range(m)]

    def union(self, other: "RadiiMultiset") -> "RadiiMultiset":
        if self.kind != other.kind:
            raise ValueError("kind mismatch")
        return RadiiMultiset.make(self.entries + other.entries, self.kind)

    def top(self):
        """Largest entry ``(value, capped)`` in log units."""
        if not self.entries:
            raise ValueError("empty multiset")
        e = self.entries[0]
        return e[0], e[2]

    def __repr__(self):
        bits = [f"{v}x{m}" + ("(capped)" if c else "") for v, m, c in self.entries]
        return f"RadiiMultiset[{self.kind}: " + ", ".join(bits) + "]"


def _radii_from_polygon(np_: NewtonPolygon, tau: Fraction, omega: Fraction,
                        rank: int, intrinsic: bool) -> RadiiMultiset:
    entries = []
    seen = 0
    for sigma, mult in np_.slopes:
        if sigma > -tau:
            value = omega + tau + sigma if intrinsic else omega + sigma
            entries.append((value, mult, False))
            seen += mult
    if seen < rank:
        cap = omega if intrinsic else omega - tau
        entries.append((cap, rank - seen, True))
    return RadiiMultiset.make(entries, "intrinsic" if intrinsic else "extrinsic")


def visible_radii(M: DiffModule, axis: str, r: Sequence, intrinsic: bool = False) -> RadiiMultiset:
    """Subsidiary log-radii at a fiber from the characteristic polygon.

    Hull slopes strictly inside the visible range are reported exactly; the
    remaining rank is one capped entry.
    """
    _, charpoly = cyclic_vector(M, axis)
    np_ = newton_polygon(charpoly, r)
    tau = M.config.operator_valuation(axis, r)
    return _radii_from_polygon(np_, tau, M.config.omega, M.rank, intrinsic)


@dataclass(frozen=True)
class IntrinsicRadius:
    value: Fraction
    dominant: tuple
    capped: bool


def intrinsic_radius_multi(M: DiffModule, r: Sequence) -> IntrinsicRadius:
    """Intrinsic log-radius over all derivations and the achieving axes.

    The intrinsic radius is the worst over axes, so the log value is the max
    of the per-axis intrinsic log values.  Capped axes propagate a flag; if
    every axis is capped the boundary value 0 is returned flagged (the true
    value is only known to lie at or below the visibility bound).
    """
    axes = M.axes()
    if not axes:
        raise ValueError("module carries no derivations")
    per_axis = []
    for a in axes:
        ms = visible_radii(M, a, r, intrinsic=True)
        per_axis.append((a, *ms.top()))
    definite = [(v, a) for a, v, capped in per_axis if not capped]
    if not definite:
        return IntrinsicRadius(Fraction(0), tuple(a for a, _, _ in per_axis), True)
    best = max(v for v, _ in definite)
    dominant = tuple(a for v, a in definite if v == best)
    return IntrinsicRadius(best, dominant, False)


def tame_pullback(M: DiffModule, axis: str, n: int) -> DiffModule:
    """Substitute ``t_k -> s^n`` and rescale the derivation by the chain rule.

    This is :func:`_monomial_pullback` with the diagonal exponent matrix, so
    ``d/ds = n s^(n-1) d/dt_k``.  Fibers match along ``r_t = n * r_s``.  For
    ``p > 0`` the degree must be prime to ``p``.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    cfg = M.config
    kind, idx = cfg.axis_kind(axis)
    if kind != "t":
        raise ValueError("tame pullback substitutes a geometric variable")
    if cfg.p > 0 and n % cfg.p == 0:
        raise ValueError(f"degree {n} is divisible by p = {cfg.p}")
    return _monomial_pullback(M, [[n if i == j == idx else int(i == j) for j in range(cfg.n_geom)]
                                  for i in range(cfg.n_geom)])


def _monomial_pullback(M: DiffModule, rows) -> DiffModule:
    """Substitute ``t_i -> s^(column i of rows)`` and transform the connection.

    The chain rule gives ``d/ds_k = sum_i rows[k][i] (t_i o s)/s_k d/dt_i``;
    base-axis matrices are only substituted.
    """
    cfg = M.config
    n = cfg.n_geom
    sub = {a: [[x.substitute_geom(rows) for x in row] for row in A] for a, A in M.matrices.items()}
    mats = {}
    for a, A in sub.items():
        kind, k = cfg.axis_kind(a)
        if kind == "t":
            A = [[cfg.zero()] * M.rank for _ in range(M.rank)]
            for i in range(n):
                if rows[k][i]:
                    mono = cfg.monomial(rows[k][i], t=[rows[j][i] - (j == k) for j in range(n)])
                    A = [[x + mono * y for x, y in zip(ra, rb)]
                         for ra, rb in zip(A, sub[f"t{i + 1}"])]
        mats[a] = A
    return DiffModule(cfg, M.rank, mats)


# -- fiber decomposition -------------------------------------------------------


def _coords_mod(P: TwistedPoly, Q: TwistedPoly, power: int) -> list:
    """Coefficient vector of ``T^power * Q mod P`` in the cyclic basis."""
    lifted = Q.monomial_times(Q.config.one(), power, Q)
    _, rem = lifted.rdivmod(P)
    d = P.degree
    return [rem.coeff(i) for i in range(d)]


def _approx_mat(A, r, cut):
    """Entrywise :func:`_laurent_approx` at the fiber."""
    return [[_laurent_approx(x, r, cut) for x in row] for row in A]


def decompose_fiber(M: DiffModule, axis: str, r: Sequence, precision) -> list:
    """Split a fiber by visible radii via two-sided slope factorization.

    The parts are the entries of :func:`visible_radii` (extrinsic): the
    capped entry (if any) first, then the visible entries by increasing
    value.  Consecutive parts are split by slope factorization at the
    midpoint of their hull-slope bounds, ``-tau`` for the capped part and
    ``value - omega`` otherwise.  Returns ``[(part multiset, projector,
    residual)]`` in that order.  The projectors are matrices in the
    module's original basis, approximated to Laurent entries against the
    fiber; the residual is the exact Gauss valuation of ``proj^2 - proj``
    there and is certified ``>= precision`` (escalating the working
    precision if a first pass falls short).  If the last escalation still
    falls short, raises :class:`NonConvergence` with the uncertified parts
    as ``factors`` and the least residual as ``residual``.  The charpoly
    ``n_i / delta`` is expanded once; every later step is Laurent arithmetic
    cut at :func:`twisted._working_cut`.
    """
    precision = Fraction(precision)
    for extra in (0, 8, 24):
        out = _decompose_fiber_once(M, axis, r, precision, extra)
        worst = min(res for _, _, res in out)
        if worst >= precision:
            return out
    raise NonConvergence(f"projector residual {worst} below precision {precision}",
                         factors=out, residual=worst)


def _decompose_fiber_once(M: DiffModule, axis: str, r: Sequence, precision, extra) -> list:
    cfg = M.config
    d = M.rank
    vec, P = cyclic_vector(M, axis)
    np_ = newton_polygon(P, r)
    tau = cfg.operator_valuation(axis, r)
    ms = _radii_from_polygon(np_, tau, cfg.omega, d, intrinsic=False)
    parts = ms.capped() + ms.visible()[::-1]  # from the lowest slope up
    if len(parts) < 2:
        raise ValueError("no visible gap to decompose at this fiber")
    # split slopes between consecutive parts; the capped value omega - tau gives -tau
    bounds = [v - cfg.omega for v, _, _ in parts]
    splits = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]

    basis_cols = [vec]
    for _ in range(d - 1):
        basis_cols.append(apply_connection(M, axis, basis_cols[-1]))
    W = [[basis_cols[j][i] for j in range(d)] for i in range(d)]
    # Pi = W Pi_cyc W^-1 loses -v(W); without it, horizontality failed by 2 (rank 3, r = 2)
    work_prec = precision + d + 4 + extra
    loss = max(Fraction(0), -min(x.gauss_valuation(r) for row in W for x in row if x))
    cut = _working_cut(P, r, work_prec + loss) + extra
    den = next(c.den for c in P.coeffs if c)  # each n_i / delta up to a unit monomial
    P = P._clone(_laurent_quotients([c.num * den.exact_div(c.den) for c in P.coeffs[:-1]],
                                    den, r, cut) + [cfg.one()])
    W = _approx_mat(W, r, cut)
    Winv = _inverse(W, r, cut)

    high_projectors = []
    Pop = opposite(P)
    for s in splits:
        A1, B1, _ = robba_factor(P, r, s, work_prec)
        A2, B2, _ = robba_factor(Pop, r, s, work_prec)
        Ahat = opposite(A2)  # right factor of the mirrored pass, high slopes quotient
        k = A1.degree  # dimension of the low part
        cols = []
        for i in range(k):
            cols.append(_coords_mod(P, B1, i))
        for i in range(d - k):
            cols.append(_coords_mod(P, Ahat, i))
        U = _approx_mat([[cols[j][i] for j in range(d)] for i in range(d)], r, cut)
        Uinv = _inverse(U, r, cut)
        sel = [[U[i][j] if j >= k else cfg.zero() for j in range(d)] for i in range(d)]
        Pi_cyc = _approx_mat(mat_mul(sel, Uinv), r, cut)
        Pi = _approx_mat(mat_mul(_approx_mat(mat_mul(W, Pi_cyc), r, cut), Winv), r, cut)
        high_projectors.append(Pi)

    # part projectors as nested differences: low-to-high ordering of splits
    projs = []
    prev = _identity(cfg, d)
    for Pi in high_projectors:
        diff = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(prev, Pi)]
        projs.append(diff)
        prev = Pi
    projs.append(prev)

    out = []
    for part, Pi in zip(parts, projs):
        resid = min((a - b).gauss_valuation(r) for ra, rb in zip(mat_mul(Pi, Pi), Pi)
                    for a, b in zip(ra, rb))
        out.append((RadiiMultiset.make([part], "extrinsic"), Pi, resid))
    return out
