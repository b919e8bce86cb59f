import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annuli import (
    INF,
    DiffModule,
    FracElement,
    LaurentElement,
    TwistedPoly,
    ValuationConfig,
    apply_connection,
    build_radius_profile,
    cyclic_vector,
    decompose_fiber,
    direct_sum,
    dual,
    from_companion,
    intrinsic_radius_multi,
    iterate_Dn,
    rank_one,
    spectral_valuation_estimate,
    tame_pullback,
    tensor,
    visible_radii,
)
from annuli import modules
from annuli.modules import RadiiMultiset, mat_mul
from annuli.twisted import NonConvergence, twisted_mul
from annuli.valued import solve_fraction_free
from helpers import gauge

F = Fraction


def test_integrability_enforced():
    cfg = ValuationConfig(2, (F(0),), 1)
    t, u = cfg.t(1), cfg.u(1)
    # N_t = [[0, 1],[0, 0]], N_u = [[0, 0],[t, 0]] do not commute
    bad = {
        "t1": [[cfg.zero(), cfg.one()], [cfg.zero(), cfg.zero()]],
        "u1": [[cfg.zero(), cfg.zero()], [t, cfg.zero()]],
    }
    with pytest.raises(ValueError, match="integrability"):
        DiffModule(cfg, 2, bad)


def test_apply_connection_trivial(cfg2):
    M = DiffModule(cfg2, 2, {"t1": [[cfg2.zero()] * 2 for _ in range(2)]})
    out = apply_connection(M, "t1", [cfg2.one(), cfg2.scalar(3)])
    assert all(x.is_zero() for x in out)


def test_apply_connection_rank1(cfg2):
    M = rank_one(cfg2, {"t1": cfg2.t(1, -1)})
    out = apply_connection(M, "t1", [cfg2.one()])
    assert out[0] == cfg2.t(1, -1)


def test_apply_connection_nilpotent(cfg2):
    N = [[cfg2.zero(), cfg2.one()], [cfg2.zero(), cfg2.zero()]]
    M = DiffModule(cfg2, 2, {"t1": N})
    out = apply_connection(M, "t1", [cfg2.zero(), cfg2.one()])
    assert out == [cfg2.one(), cfg2.zero()]


def test_iterate_Dn_zero_matrix(cfg2):
    M = DiffModule(cfg2, 1, {"t1": [[cfg2.zero()]]})
    vals = iterate_Dn(M, "t1", 4, [F(0)])
    assert all(v is INF for _, v in vals)


def test_iterate_Dn_monomial_growth(cfg2):
    M = rank_one(cfg2, {"t1": cfg2.t(1, -2)})
    vals = iterate_Dn(M, "t1", 24, [F(1)])
    n, v = vals[-1]
    assert v / n == -2


def test_iterate_Dn_constant(cfg2):
    M = rank_one(cfg2, {"t1": cfg2.scalar(F(1, 8))})
    vals = iterate_Dn(M, "t1", 24, [F(0)])
    n, v = vals[-1]
    assert v / n == -3


def test_spectral_estimate_trivial(cfg2):
    M = DiffModule(cfg2, 2, {"t1": [[cfg2.zero()] * 2 for _ in range(2)]})
    est, window = spectral_valuation_estimate(M, "t1", [F(0)], 32)
    assert est == cfg2.spectral_base_valuation("t1", [F(0)]) == 1
    assert window == 0


def test_spectral_estimate_visible(cfg2):
    M = rank_one(cfg2, {"t1": cfg2.t(1, -2)})
    est, window = spectral_valuation_estimate(M, "t1", [F(1)], 64)
    assert abs(est - F(-2)) <= F(1, 10)
    assert window <= F(1, 10)


def test_spectral_estimate_unit_constant(cfg2):
    # d(v) = v at p=2, r=0: v(D_n)/n = 0 < base 1, the matrix growth dominates
    M = rank_one(cfg2, {"t1": cfg2.one()})
    est, _ = spectral_valuation_estimate(M, "t1", [F(0)], 32)
    assert est == 0


# -- certified truncated iterates ----------------------------------------------

FIBERS = (F(-1), F(0), F(1, 3), F(2))


def _exact_powers(M, axis, n_max):
    """``[G_0 = I, G_1 = N, ..., G_n_max]`` by ``G_{n+1} = d(G_n) + N G_n``, exact."""
    N, d = M.matrix(axis), M.rank
    G = [[M.config.one() if i == j else M.config.zero() for j in range(d)] for i in range(d)]
    out = [G]
    for _ in range(n_max):
        G = [[G[i][j].derive(axis) + sum((N[i][k] * G[k][j] for k in range(d)),
                                         M.config.zero())
              for j in range(d)] for i in range(d)]
        out.append(G)
    return out


def _mat_val(A, r):
    return min((x.gauss_valuation(r) for row in A for x in row if x), default=INF)


def _ord_fact(k, p):
    return sum(k // p ** i for i in range(1, 12)) if p else 0


@st.composite
def sparse_modules(draw, triangular=False):
    """A module of rank <= 3 along ``t1`` or ``u1`` (weight 1/2): upper-triangular, or
    full with some whole rows and columns zero and zero entries elsewhere."""
    p = draw(st.sampled_from((0, 2, 3)))
    cfg = ValuationConfig(p, (F(1, 2),), 1)
    axis = draw(st.sampled_from(("t1", "u1")))
    rank = draw(st.integers(1, 3))
    coeff = st.sampled_from((1, -1, 2, 3, F(1, 2), F(1, 3), F(-3, 4), F(5, 6)))

    def entry():
        terms = draw(st.lists(st.tuples(coeff, st.integers(-2, 1), st.integers(-4, 2)),
                              min_size=0, max_size=3))
        return sum((cfg.monomial(c, u=(e,), t=(i,)) for c, e, i in terms), cfg.zero())

    if triangular:
        N = [[entry() if j >= i else cfg.zero() for j in range(rank)] for i in range(rank)]
    else:
        rows, cols = (draw(st.sets(st.integers(0, rank - 1), max_size=rank)) for _ in "rc")
        N = [[cfg.zero() if i in rows or j in cols else entry() for j in range(rank)]
             for i in range(rank)]
    return DiffModule(cfg, rank, {axis: N}), axis


def _vectors(cfg, rank):
    """Coordinate vectors of length ``rank``; an empty term list is a zero entry."""
    term = st.tuples(st.sampled_from((1, -1, 2, 4, F(1, 2), F(3, 8))), st.integers(-2, 2),
                     st.integers(-3, 3))
    return st.lists(st.lists(term, max_size=3), min_size=rank, max_size=rank).map(
        lambda vec: [sum((cfg.monomial(c, u=(e,), t=(i,)) for c, e, i in terms), cfg.zero())
                     for terms in vec])


@settings(max_examples=120, deadline=None)
@given(sparse_modules(), st.data())
def test_apply_connection_matches_dense_reference(case, data):
    """The sparse action equals ``d(v)_i + sum_j N_ij v_j`` with every product formed."""
    M, axis = case
    N, d = M.matrix(axis), M.rank
    v = data.draw(_vectors(M.config, d))
    want = [v[i].derive(axis) + sum((N[i][j] * v[j] for j in range(d)), M.config.zero())
            for i in range(d)]
    assert apply_connection(M, axis, v) == want


@settings(max_examples=90, deadline=None)
@given(st.one_of(sparse_modules(triangular=True), sparse_modules()), st.sampled_from(FIBERS),
       st.integers(9, 24), st.booleans())
def test_iterate_Dn_matches_exact_recursion(case, r, n_max, half):
    M, axis = case
    from_n = n_max // 2 if half else 1
    powers = _exact_powers(M, axis, n_max)
    want = [(n, _mat_val(powers[n], [r])) for n in range(from_n, n_max + 1)]
    assert modules._iterate_Dn(M, axis, n_max, [r], from_n) == want


@settings(max_examples=40, deadline=None)
@given(sparse_modules(triangular=True), st.sampled_from(FIBERS), st.data())
def test_leibniz_bound_on_vectors(case, r, data):
    """``v(D^k y) >= v(y) + gamma_k``, ``gamma_k = min_j (v(G_j) + (k-j) op + ord_p((k-j)!))``."""
    M, axis = case
    cfg = M.config
    op = cfg.operator_valuation(axis, [r])
    vals = [_mat_val(G, [r]) for G in _exact_powers(M, axis, 8)]
    y = data.draw(_vectors(cfg, M.rank))
    vy = _mat_val([y], [r])
    for k in range(1, 9):
        y = apply_connection(M, axis, y)
        gamma = min(vals[j] + (k - j) * op + _ord_fact(k - j, cfg.p) for j in range(k + 1))
        assert _mat_val([y], [r]) >= vy + gamma


def _count_exact_reruns(monkeypatch):
    reruns = []
    inner = modules._iterate_Dn

    def spy(*args, **kw):
        if kw.get("cutting") is False:
            reruns.append(args[2])
        return inner(*args, **kw)

    monkeypatch.setattr(modules, "_iterate_Dn", spy)
    return reruns


@pytest.mark.parametrize("power", [0, 2, 12])
def test_iterate_Dn_nilpotent_is_exactly_inf(cfg2, monkeypatch, power):
    # N = [[0, 5 t^power, 1], [0, 0, 3], [0, 0, 0]]: D_n = 0 once t^power is derived away
    z, t = cfg2.zero(), cfg2.t(1, power)
    N = [[z, cfg2.scalar(5) * t, cfg2.one()], [z, z, cfg2.scalar(3)], [z, z, z]]
    reruns = _count_exact_reruns(monkeypatch)
    vals = iterate_Dn(DiffModule(cfg2, 3, {"t1": N}), "t1", 40, [F(0)])
    assert reruns == []
    assert all(v is INF for n, v in vals if n > power + 2)
    assert vals[power + 1][1] is not INF


def _truncation_traps():
    c = ValuationConfig(2, (), 1)
    z, t, s = c.zero(), c.t, c.scalar
    # D_n e_1 = 12 * 11 * ... * (13 - n) t^-n vanishes at n = 13, when only the
    # constant block 4^n, dropped by the cut until then, is left
    yield pytest.param(DiffModule(c, 2, {"t1": [[s(12) * t(1, -1), z], [z, s(4)]]}), F(0), 24,
                       id="vanishing-block")
    N = [[s(20), z, s(F(1, 2)) * t(1, -2)],
         [z, s(3) * t(1, -2), s(3) * t(1, -4) + s(F(1, 16)) * t(1, 1)],
         [z, z, s(F(1, 2)) * t(1, -4) + s(F(3, 8)) * t(1, -3) + s(24) * t(1, 1)]]
    yield pytest.param(DiffModule(c, 3, {"t1": N}), F(-1), 18, id="dropped-terms-surface")


@pytest.mark.parametrize("M, r, n_max", _truncation_traps())
def test_failed_certificate_reruns_exact(monkeypatch, M, r, n_max):
    """Cases where the kept part alone gives a wrong ``v(D_n)``: the certificate
    fails, and the exact rerun gives the reference values."""
    reruns = _count_exact_reruns(monkeypatch)
    want = [(n, _mat_val(G, [r])) for n, G in enumerate(_exact_powers(M, "t1", n_max)) if n]
    assert iterate_Dn(M, "t1", n_max, [r]) == want
    assert reruns == [n_max]


@pytest.mark.parametrize("p", [2, 3])
def test_companion_certified_without_rerun(monkeypatch, p):
    cfg = ValuationConfig(p, (), 1)
    t = cfg.t(1)
    M = from_companion(twisted_mul(TwistedPoly(cfg, "t1", [-(t ** -2), cfg.one()]),
                                   TwistedPoly(cfg, "t1", [-(t ** -4), cfg.one()])))
    reruns = _count_exact_reruns(monkeypatch)
    assert iterate_Dn(M, "t1", 64, [F(1)]) == [(n, F(-4 * n - 2)) for n in range(1, 65)]
    est, _ = spectral_valuation_estimate(M, "t1", [F(1)], 256)
    assert reruns == []
    assert abs(est - (cfg.omega - visible_radii(M, "t1", [F(1)]).top()[0])) <= F(1, 10)


def _twist_shapes():
    """The fiber-certify spectral modules: sums of ``+-t^-k``, distinct ``k`` in 2..4."""
    for p in (2, 3):
        for rank in (1, 2, 3):
            for ks in itertools.combinations((2, 3, 4), rank):
                for signs in itertools.product((1, -1), repeat=rank):
                    name = ",".join(f"{s:+}t^-{k}" for s, k in zip(signs, ks))
                    yield pytest.param(p, list(zip(signs, ks)), id=f"p{p}-{name}")


@pytest.mark.parametrize("p, twists", _twist_shapes())
def test_twist_sum_iterates_certified_without_rerun(monkeypatch, p, twists):
    cfg = ValuationConfig(p, (), 1)
    M = reduce(direct_sum, [rank_one(cfg, {"t1": cfg.scalar(s) * cfg.t(1, -k)})
                            for s, k in twists])
    want = modules._iterate_Dn(M, "t1", 128, [F(1)], 1, cutting=False)
    reruns = _count_exact_reruns(monkeypatch)
    for from_n in (1, 97):  # 97 is where spectral_valuation_estimate's tail starts at n = 128
        assert modules._iterate_Dn(M, "t1", 128, [F(1)], from_n) == want[from_n - 1:]
    assert reruns == []


def test_iterates_check_the_fiber_length(cfg2):
    M = rank_one(cfg2, {"t1": cfg2.t(1, -2)})
    zero = DiffModule(cfg2, 2, {"t1": [[cfg2.zero()] * 2 for _ in range(2)]})
    for module, r in ((M, []), (zero, []), (M, [F(1), F(0)]), (zero, [F(1), F(0)])):
        with pytest.raises(ValueError, match=f"fiber vector has length {len(r)}, expected 1"):
            iterate_Dn(module, "t1", 4, r)
        with pytest.raises(ValueError, match=f"fiber vector has length {len(r)}, expected 1"):
            spectral_valuation_estimate(module, "t1", r, 16)


def test_cyclic_rank1(cfg2):
    M = rank_one(cfg2, {"t1": cfg2.t(1, -1)})
    vec, P = cyclic_vector(M, "t1")
    assert vec[0] == cfg2.one()
    assert P.degree == 1
    assert P.coeff(0) == -cfg2.t(1, -1)


def test_cyclic_diagonal_rank2(cfg2):
    M = DiffModule(
        cfg2,
        2,
        {"t1": [[cfg2.zero(), cfg2.zero()], [cfg2.zero(), cfg2.t(1, -1)]]},
    )
    vec, P = cyclic_vector(M, "t1")
    assert P.degree == 2
    # the found vector has nonzero components on both blocks
    assert not vec[0].is_zero() and not vec[1].is_zero()


def _random_twist_sum(cfg, rank, rng):
    """Direct sum of rank-one modules ``c t^-k`` with distinct ``k``."""
    M = None
    for k in rng.sample(range(1, 7), rank):
        c = F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
        R = rank_one(cfg, {"t1": cfg.scalar(c) * cfg.t(1, -k)})
        M = R if M is None else direct_sum(M, R)
    return M


def _charpoly_cases():
    rng = random.Random(5)
    for p in (0, 2, 3):
        for rank in (2, 3, 4):
            yield pytest.param(_random_twist_sum(ValuationConfig(p), rank, rng), "t1",
                               id=f"twists-p{p}-rank{rank}")
    c = ValuationConfig(2)
    N = [[c.t(1, -2), c.one()], [c.zero(), c.t(1, -3) + c.scalar(2) * c.t(1, -1)]]
    yield pytest.param(DiffModule(c, 2, {"t1": N}), "t1", id="upper2")
    c = ValuationConfig(2, (), 2)
    t1, t2 = c.t(1), c.t(2)

    def pot(k, m, n):  # d/dt_i of k t1^m t2^n
        return {"t1": c.scalar(k * m) * t1 ** (m - 1) * t2 ** n,
                "t2": c.scalar(k * n) * t1 ** m * t2 ** (n - 1)}

    M = direct_sum(rank_one(c, pot(1, -1, -1)), rank_one(c, pot(-1, -1, -3)))
    yield pytest.param(M, "t1", id="two-variable-t1")
    yield pytest.param(M, "t2", id="two-variable-t2")
    for rank in (5, 6):
        yield pytest.param(_twist_ladder(rank), "t1", id=f"twists-p2-rank{rank}")
    c = ValuationConfig(2, (F(0),), 1)
    u, t = c.u(1), c.t(1)

    def upot(k, m, n):  # d/du, d/dt of k u^m t^n
        return {"u1": c.scalar(k * m) * u ** (m - 1) * t ** n,
                "t1": c.scalar(k * n) * u ** m * t ** (n - 1)}

    M = direct_sum(direct_sum(rank_one(c, upot(1, -2, -1)), rank_one(c, upot(3, -1, -2))),
                   rank_one(c, upot(-1, -3, 1)))
    yield pytest.param(M, "u1", id="base-u1-rank3")


def _twist_ladder(rank):
    """Direct sum of the twists ``t^-k``, ``k = 2..rank+1``, at p = 2."""
    c = ValuationConfig(2)
    M = rank_one(c, {"t1": c.t(1, -2)})
    for k in range(3, rank + 2):
        M = direct_sum(M, rank_one(c, {"t1": c.t(1, -k)}))
    return M


@pytest.mark.parametrize("M, axis", _charpoly_cases())
def test_charpoly_annihilates_cyclic_vector(M, axis):
    """``sum c_i D^i v + D^d v == 0`` for the returned ``P = T^d + sum c_i T^i``, whose
    nonzero ``c_i`` are stored over one shared determinant."""
    vec, P = cyclic_vector(M, axis)
    assert P.is_monic() and P.degree == M.rank
    dens = [c.den for c in P.coeffs[:-1] if c]
    assert all(den == dens[0] for den in dens)
    acc, Dv = [P.coeff(0) * x for x in vec], vec
    for c in P.coeffs[1:]:
        Dv = apply_connection(M, axis, Dv)
        acc = [a + c * x for a, x in zip(acc, Dv)]
    assert not any(acc)


def test_charpoly_is_numerators_over_one_determinant():
    """Rank 6 stores at most 80-term numerators over a Delta of at most 60 terms.

    Gauss-Jordan over fractions stored up to 766 and 746 terms for this module.
    """
    _, P = cyclic_vector(_twist_ladder(6), "t1")
    coeffs = P.coeffs[:-1]
    assert max(len(c.num.terms) for c in coeffs) <= 80
    assert max(len(c.den.terms) for c in coeffs) <= 60


def test_companion_roundtrip(cfg2):
    poly = TwistedPoly(cfg2, "t1", [-cfg2.t(1), cfg2.zero(), cfg2.one()])  # T^2 - t
    M = from_companion(poly)
    vec, P = cyclic_vector(M, "t1")
    assert vec[0] == cfg2.one() and vec[1].is_zero()
    assert P.degree == 2
    assert P.coeff(0) == -cfg2.t(1) and P.coeff(1).is_zero()


def test_companion_of_charpoly(cfg2):
    # the charpoly stores -t^-2 as the fraction -1/t^2, a Laurent coefficient all the same
    M = rank_one(cfg2, {"t1": cfg2.t(1, -2)})
    assert from_companion(cyclic_vector(M, "t1")[1]).matrices == M.matrices


def test_visible_radii_rank1(cfg2):
    M = rank_one(cfg2, {"t1": cfg2.t(1, -2)})
    ext = visible_radii(M, "t1", [F(1)])
    assert ext.entries == ((F(3), 1, False),)
    intr = visible_radii(M, "t1", [F(1)], intrinsic=True)
    assert intr.entries == ((F(2), 1, False),)


def test_visible_radii_trivial_capped(cfg2):
    M = DiffModule(cfg2, 3, {"t1": [[cfg2.zero()] * 3 for _ in range(3)]})
    ms = visible_radii(M, "t1", [F(0)], intrinsic=True)
    assert ms.entries == ((F(1), 3, True),)  # one capped entry at omega


def test_wn_module_value():
    # d(v) = (n/p) u^-p v with p = 2, n = 1, weight 0: intrinsic p/(p-1) = 2
    cfg = ValuationConfig(2, (F(0),), 0)
    M = rank_one(cfg, {"u1": cfg.monomial(F(1, 2), u=(-2,))})
    ms = visible_radii(M, "u1", [], intrinsic=True)
    assert ms.entries == ((F(2), 1, False),)


def test_intrinsic_multi_trivial():
    cfg = ValuationConfig(2, (), 2)
    M = DiffModule(cfg, 1, {"t1": [[cfg.zero()]], "t2": [[cfg.zero()]]})
    out = intrinsic_radius_multi(M, [F(0), F(0)])
    assert out.value == 0 and out.capped
    assert set(out.dominant) == {"t1", "t2"}


def test_intrinsic_multi_visible_dominant():
    cfg = ValuationConfig(2, (), 2)
    M = DiffModule(cfg, 1, {"t1": [[cfg.t(1, -3)]], "t2": [[cfg.zero()]]})
    out = intrinsic_radius_multi(M, [F(1), F(1)])
    assert not out.capped
    assert out.value == F(3)  # omega + tau + sigma = 1 - 1 + 3
    assert out.dominant == ("t1",)


def test_intrinsic_multi_wn_vs_trivial():
    cfg = ValuationConfig(2, (F(0), F(0)), 0)
    M = DiffModule(
        cfg,
        1,
        {"u1": [[cfg.monomial(F(1, 2), u=(-2, 0))]], "u2": [[cfg.zero()]]},
    )
    out = intrinsic_radius_multi(M, [])
    assert out.value == 2 and out.dominant == ("u1",)


# -- exactness, duals, tensors -------------------------------------------------


def test_direct_sum_multiset_union(cfg2):
    M1 = rank_one(cfg2, {"t1": cfg2.t(1, -2)})
    M2 = rank_one(cfg2, {"t1": cfg2.t(1, -3)})
    M = direct_sum(M1, M2)
    r = [F(1)]
    got = visible_radii(M, "t1", r)
    want = visible_radii(M1, "t1", r).union(visible_radii(M2, "t1", r))
    assert got == want


def test_dual_same_radii(cfg2):
    for entry in (cfg2.t(1, -2), cfg2.t(1, -3) + cfg2.scalar(2)):
        M = rank_one(cfg2, {"t1": entry})
        Mv = dual(M)
        r = [F(1)]
        assert visible_radii(M, "t1", r) == visible_radii(Mv, "t1", r)
    M2 = direct_sum(
        rank_one(cfg2, {"t1": cfg2.t(1, -2)}), rank_one(cfg2, {"t1": cfg2.t(1, -3)})
    )
    assert visible_radii(M2, "t1", [F(1)]) == visible_radii(dual(M2), "t1", [F(1)])


def test_tensor_min_rule(cfg2):
    L1 = rank_one(cfg2, {"t1": cfg2.t(1, -2)})
    L2 = rank_one(cfg2, {"t1": cfg2.t(1, -3)})
    r = [F(1)]
    prod = tensor(L1, L2)
    f1 = visible_radii(L1, "t1", r, intrinsic=True).top()[0]
    f2 = visible_radii(L2, "t1", r, intrinsic=True).top()[0]
    fp = visible_radii(prod, "t1", r, intrinsic=True).top()[0]
    assert f1 != f2
    assert fp == max(f1, f2)  # min of radii = max of log values, with equality


def test_christol_dwork_cross_check(cfg2):
    mods = [
        rank_one(cfg2, {"t1": cfg2.t(1, -2)}),
        rank_one(cfg2, {"t1": cfg2.t(1, -3)}),
        direct_sum(
            rank_one(cfg2, {"t1": cfg2.t(1, -2)}),
            rank_one(cfg2, {"t1": cfg2.t(1, -4)}),
        ),
    ]
    for M in mods:
        r = [F(1)]
        top = visible_radii(M, "t1", r).top()[0]
        v_sp = cfg2.omega - top  # spectral valuation of the worst constituent
        est, _ = spectral_valuation_estimate(M, "t1", r, 64)
        assert abs(est - v_sp) <= F(1, 10)


# -- tame pullback ---------------------------------------------------------------


def test_tame_identity(cfg2):
    M = rank_one(cfg2, {"t1": cfg2.t(1, -1)})
    M1 = tame_pullback(M, "t1", 1)
    assert M1.matrices["t1"][0][0] == M.matrices["t1"][0][0]


def test_tame_chain_rule(cfg3):
    M = rank_one(cfg3, {"t1": cfg3.t(1, -1)})
    M2 = tame_pullback(M, "t1", 2)
    assert M2.matrices["t1"][0][0] == cfg3.scalar(2) * cfg3.t(1, -1)


def test_tame_rejects_p_dividing(cfg2):
    M = rank_one(cfg2, {"t1": cfg2.t(1, -1)})
    with pytest.raises(ValueError):
        tame_pullback(M, "t1", 2)


def test_tame_inversion_roundtrip(cfg2):
    M = rank_one(cfg2, {"t1": cfg2.t(1, -2) + cfg2.scalar(3)})
    twice = tame_pullback(tame_pullback(M, "t1", -1), "t1", -1)
    assert twice.matrices["t1"][0][0] == M.matrices["t1"][0][0]


def test_tame_intrinsic_invariance(cfg3):
    # matched fibers r_t = n * r_s, exact equality of intrinsic values
    for n in (2, -1):
        for entry_pow in (-2, -3):
            M = rank_one(cfg3, {"t1": cfg3.t(1, entry_pow)})
            Mn = tame_pullback(M, "t1", n)
            r_t = F(1)
            r_s = r_t / n
            a = visible_radii(M, "t1", [r_t], intrinsic=True)
            b = visible_radii(Mn, "t1", [r_s], intrinsic=True)
            assert a == b


# -- fiber decomposition ----------------------------------------------------------


def test_inverse_clears_fraction_rows(cfg2):
    """A row with fraction entries (``_laurent_approx`` without a dominant term) inverts
    exactly: ``solve_fraction_free`` clears the row of ``[A | I]`` by its denominators.
    Here the determinant ``-t - t^2`` has no dominant term at r = 0, so the inverse
    comes back as exact fractions."""
    t, one = cfg2.t(1), cfg2.one()
    A = [[FracElement(one, one + t), FracElement(t, one - t)], [t ** -1, one + t]]
    inv = modules._inverse(A, [F(0)], F(10))
    assert mat_mul(A, inv) == [[one, cfg2.zero()], [cfg2.zero(), one]]
    with pytest.raises(ZeroDivisionError):
        modules._inverse([[FracElement(one, one + t), one], [one, one + t]], [F(0)], F(10))


def test_inverse_expands_a_dominant_determinant_within_the_cut(cfg2):
    """With a dominant determinant term, every entry is Laurent and differs from the
    exact ``N / delta`` only beyond the cut."""
    t, one = cfg2.t(1), cfg2.one()
    A = [[one + t, t ** -1], [2 * t, one]]  # delta = -1 - t: -1 dominates at r = 1
    inv = modules._inverse(A, [F(1)], F(10))
    N, delta = solve_fraction_free(A, [[one, cfg2.zero()], [cfg2.zero(), one]])
    for row, nrow in zip(inv, N):
        for x, n in zip(row, nrow):
            assert isinstance(x, LaurentElement)
            assert (FracElement(n, delta) - x).gauss_valuation([F(1)]) > 10


def test_decompose_two_visible(cfg2):
    r = [F(1, 2)]
    M = direct_sum(
        rank_one(cfg2, {"t1": cfg2.t(1, -2)}),  # extrinsic 2 at r = 1/2
        rank_one(cfg2, {"t1": cfg2.t(1, -4)}),  # extrinsic 3 at r = 1/2
    )
    parts = decompose_fiber(M, "t1", r, F(8))
    assert len(parts) == 2
    values = [ms.entries[0][0] for ms, _, _ in parts]
    assert values == [F(2), F(3)]
    # projectors approximate the exact block idempotents
    blocks = [
        [[cfg2.one(), cfg2.zero()], [cfg2.zero(), cfg2.zero()]],
        [[cfg2.zero(), cfg2.zero()], [cfg2.zero(), cfg2.one()]],
    ]
    for (ms, proj, residual), blk in zip(parts, blocks):
        assert residual is INF or residual >= 8
        for i in range(2):
            for j in range(2):
                diff = proj[i][j] - blk[i][j]
                assert diff.is_zero() or diff.gauss_valuation(r) >= 8


def _planted_sum(p, twists):
    """The direct sum of rank-one modules ``d + c t^-k`` over ``twists = [(c, k)]``."""
    cfg = ValuationConfig(p, (), 1)
    return reduce(direct_sum, (DiffModule(cfg, 1, {"t1": [[c * cfg.t(1, -k)]]})
                               for c, k in twists))


@st.composite
def planted_twist_sums(draw):
    """Sums of rank-one twists ``±t^-k`` with distinct ``k`` in 2..5, of rank 2 or 3, the
    first summand possibly the zero connection (a capped part), at p = 2 or 3 and r in
    {1/2, 1, 2}."""
    rank = draw(st.integers(2, 3))
    ks = draw(st.lists(st.integers(2, 5), min_size=rank, max_size=rank, unique=True))
    cs = [draw(st.sampled_from((1, -1))) for _ in ks]
    if draw(st.booleans()):
        cs[0] = 0
    M = _planted_sum(draw(st.sampled_from((2, 3))), list(zip(cs, ks)))
    return M, [draw(st.sampled_from((F(1, 2), F(1), F(2))))]


@settings(max_examples=12, deadline=None)
@given(planted_twist_sums(), st.sampled_from((F(1), F(2), F(4))))
@example(case=(_planted_sum(2, [(0, 2), (1, 3), (1, 5)]), [F(2)]), precision=F(1))
def test_decompose_projectors_are_horizontal(case, precision):
    """Every part's projector commutes with the connection to the precision:
    ``v(dPi + N Pi - Pi N) >= precision``, computed here, not by the library.  The
    explicit example missed it by 2 when the projector products were cut without the
    loss through the cyclic basis."""
    M, r = case
    N, d = M.matrix("t1"), M.rank
    for _, Pi, _ in decompose_fiber(M, "t1", r, precision):
        H = [[Pi[i][j].derive("t1") + sum((N[i][k] * Pi[k][j] - Pi[i][k] * N[k][j]
                                           for k in range(d)), M.config.zero())
              for j in range(d)] for i in range(d)]
        assert _mat_val(H, r) >= precision


def test_decompose_pure_errors(cfg2):
    M = from_companion(TwistedPoly(cfg2, "t1", [-cfg2.t(1), cfg2.zero(), cfg2.one()]))
    with pytest.raises(ValueError, match="no visible gap"):
        decompose_fiber(M, "t1", [F(1)], F(6))


def test_decompose_visible_vs_capped(cfg2):
    r = [F(1, 2)]
    M = direct_sum(
        DiffModule(cfg2, 1, {"t1": [[cfg2.zero()]]}),
        rank_one(cfg2, {"t1": cfg2.t(1, -4)}),
    )
    parts = decompose_fiber(M, "t1", r, F(6))
    assert len(parts) == 2
    assert parts[0][0].entries[0][2] is True  # capped part first
    assert parts[1][0].entries[0][0] == F(3)
    for _, proj, residual in parts:
        assert residual is INF or residual >= 6
    # the two projectors sum to the identity exactly
    s = [[parts[0][1][i][j] + parts[1][1][i][j] for j in range(2)] for i in range(2)]
    for i in range(2):
        for j in range(2):
            want = cfg2.one() if i == j else cfg2.zero()
            assert s[i][j] == want


def test_decompose_raises_when_escalation_falls_short(cfg2, monkeypatch):
    short = [(RadiiMultiset.make([(F(3), 1, False)], "extrinsic"), [[cfg2.one()]], F(1))]
    extras = []

    def once(M, axis, r, precision, extra):
        extras.append(extra)
        return short

    monkeypatch.setattr(modules, "_decompose_fiber_once", once)
    M = rank_one(cfg2, {"t1": cfg2.t(1, -4)})
    with pytest.raises(NonConvergence) as exc:
        decompose_fiber(M, "t1", [F(1, 2)], F(6))
    assert extras == [0, 8, 24]
    assert exc.value.factors is short and exc.value.residual == F(1)


@st.composite
def gauged_twist_sums(draw, max_rank=3):
    """A sum of rank-one twists ``c t^-k`` (distinct ``k``, ``c`` sometimes not a ``p``-adic
    unit) at ``p`` in {0, 2, 3}, and the same module after a random unipotent gauge whose
    entries above the diagonal are zero or monomials ``c t^e``."""
    p = draw(st.sampled_from((0, 2, 3)))
    cfg = ValuationConfig(p)
    rank = draw(st.sampled_from(range(max_rank, 0, -1)))
    ks = draw(st.lists(st.integers(1, 5), min_size=rank, max_size=rank, unique=True))
    cs = draw(st.lists(st.sampled_from((1, -1, 2, 3, F(1, 2), F(-2, 3))), min_size=rank,
                       max_size=rank))
    M = reduce(direct_sum, [rank_one(cfg, {"t1": cfg.monomial(c, t=(-k,))}) for c, k in zip(cs, ks)])
    mono = st.one_of(st.just(None), st.tuples(st.sampled_from((1, -1, 2, F(1, 2))), st.integers(-2, 2)))
    g = [[cfg.one() if i == j else cfg.zero() for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            m = draw(mono)
            g[i][j] = cfg.zero() if m is None else cfg.monomial(m[0], t=(m[1],))
    return M, gauge(M, g)


def _krylov_solve(M, axis, vec):
    """Bareiss on ``[v, Dv, ..., D^{d-1} v] c = -D^d v``; ``ZeroDivisionError`` if singular."""
    cols = [vec]
    for _ in range(M.rank):
        cols.append(apply_connection(M, axis, cols[-1]))
    return solve_fraction_free(list(zip(*cols[:M.rank])), [[-x] for x in cols[-1]])


def _reference_cyclic_vector(M, axis):
    """The cyclic search with no skip: ``(vec, P)`` for the first candidate whose Krylov
    matrix is nonsingular, or ``None``."""
    for vec in modules._cyclic_candidates(M, axis):
        try:
            N, delta = _krylov_solve(M, axis, vec)
        except ZeroDivisionError:
            continue
        return vec, TwistedPoly(M.config, axis, [FracElement(n, delta) for n, in N] + [M.config.one()])
    return None


@settings(max_examples=60, deadline=None)
@given(st.one_of(sparse_modules(), sparse_modules(triangular=True),
                 gauged_twist_sums().map(lambda pair: (pair[1], "t1"))))
def test_support_skip_is_exact(case):
    """Every candidate whose support closes on fewer than ``d`` indices has a singular
    Krylov matrix, and the search with the skip returns what the search without it does."""
    M, axis = case
    for vec in modules._cyclic_candidates(M, axis):
        if len(modules._support_closure(M.matrix(axis), vec)) < M.rank:
            with pytest.raises(ZeroDivisionError):
                _krylov_solve(M, axis, vec)
    want = _reference_cyclic_vector(M, axis)
    if want is None:
        with pytest.raises(modules.CyclicSearchError):
            cyclic_vector(M, axis)
        return
    vec, P = cyclic_vector(M, axis)
    assert (vec, P.coeffs) == (want[0], want[1].coeffs)


def _profile_at(prof, x):
    """The visible values, the capped count and the cap of a profile at ``x``."""
    c = next(c for c in prof.cells if c.lo <= x <= c.hi)
    return [c.value(i, x) for i in range(len(c.visible))], c.capped, c.cap[1] + c.cap[0] * (x - c.lo)


@settings(max_examples=30, deadline=None)
@given(gauged_twist_sums(), st.sampled_from((F(1, 2), F(1), F(3, 2))))
def test_radii_are_gauge_invariant(pair, r):
    """Extrinsic ``visible_radii`` and ``build_radius_profile`` are properties of the module,
    not of its basis: a twist sum and its unipotent conjugate give the same values.  The
    profiles are compared as functions, at every cell end of either and between them: the
    conjugate's profile may split a cell where only a capped slope bends."""
    M, G = pair
    assert visible_radii(G, "t1", [r]) == visible_radii(M, "t1", [r])
    window = (F(1, 2), F(3))
    want, got = (build_radius_profile(X, "t1", "t1", window) for X in (M, G))
    ends = sorted({e for prof in (want, got) for c in prof.cells for e in (c.lo, c.hi)})
    for x in ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]:
        assert _profile_at(got, x) == _profile_at(want, x)
