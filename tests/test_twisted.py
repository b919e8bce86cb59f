import random
from fractions import Fraction
from functools import partial, reduce
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from annuli import (
    INF,
    FracElement,
    TwistedPoly,
    ValuationConfig,
    cyclic_vector,
    direct_sum,
    newton_polygon,
    rank_one,
    robba_factor,
    slope_functions,
    twisted_mul,
    verify_newton_properties,
)
from annuli.pwaffine import PiecewiseAffine, pa_combine
from annuli.twisted import NonConvergence, NoSeparatingVertex, _laurent_approx, opposite
from annuli.valued import valuation_function
from helpers import by_name, classical_slope_list, is_affine

F = Fraction


def P(cfg, *coeffs, axis="t1"):
    return TwistedPoly(cfg, axis, list(coeffs))


def test_twist_rule_defining(cfg2):
    t = cfg2.t(1)
    T = P(cfg2, cfg2.zero(), cfg2.one())
    tt = P(cfg2, t)
    prod = twisted_mul(T, tt)
    # T * t = t T + 1
    assert prod == P(cfg2, cfg2.one(), t)


def test_T_squared(cfg2):
    T = P(cfg2, cfg2.zero(), cfg2.one())
    assert twisted_mul(T, T) == P(cfg2, cfg2.zero(), cfg2.zero(), cfg2.one())


def test_difference_of_squares_twisted(cfg2):
    t = cfg2.t(1)
    left = P(cfg2, -t, cfg2.one())   # T - t
    right = P(cfg2, t, cfg2.one())   # T + t
    prod = twisted_mul(left, right)
    # (T - t)(T + t) = T^2 + 1 - t^2, expanded by hand with the twist rule
    assert prod == P(cfg2, cfg2.one() - t * t, cfg2.zero(), cfg2.one())


def test_degree_adds_leading_multiplies(cfg2):
    t = cfg2.t(1)
    A = P(cfg2, t, cfg2.scalar(2))
    B = P(cfg2, cfg2.one(), t, t * t)
    prod = twisted_mul(A, B)
    assert prod.degree == A.degree + B.degree
    assert prod.coeffs[-1] == cfg2.scalar(2) * t * t


def test_derivation_mismatch():
    cfg = ValuationConfig(2, (F(0),), 1)
    A = TwistedPoly(cfg, "t1", [cfg.one()])
    B = TwistedPoly(cfg, "u1", [cfg.one()])
    with pytest.raises(ValueError):
        twisted_mul(A, B)


def test_newton_polygon_linear(cfg2):
    # T - c with v_r(c) = 1: vertices (0,1),(1,0), our slope -1
    c = cfg2.scalar(2)
    poly = P(cfg2, -c, cfg2.one())
    np_ = newton_polygon(poly, [F(0)])
    assert np_.vertices == ((0, F(1)), (1, F(0)))
    assert np_.slopes == ((F(-1), 1),)
    assert np_.classical_slopes() == ((F(1), 1),)


def test_newton_polygon_pure_half(cfg2):
    # T^2 - t at r = 1: vertices (0,1),(2,0); classical slopes {1/2 x2}
    poly = P(cfg2, -cfg2.t(1), cfg2.zero(), cfg2.one())
    np_ = newton_polygon(poly, [F(1)])
    assert np_.vertices == ((0, F(1)), (2, F(0)))
    assert np_.slopes == ((F(-1, 2), 2),)
    assert classical_slope_list(np_) == [F(1, 2), F(1, 2)]


def test_newton_polygon_monomial(cfg2):
    poly = P(cfg2, cfg2.zero(), cfg2.zero(), cfg2.one())  # T^2
    np_ = newton_polygon(poly, [F(0)])
    assert np_.x_offset == 2
    assert np_.slopes == ()


def test_slope_functions_worked_example(cfg2):
    # T^2 + T + t on [-1, 1]
    poly = P(cfg2, cfg2.t(1), cfg2.one(), cfg2.one())
    sf = slope_functions(poly, "t1", (F(-1), F(1)))
    f1, f2 = sf.fs
    assert f1(F(-1)) == F(-1, 2) and f1(F(0)) == 0 and f1(F(1)) == 0
    assert f1.slopes() == (F(1, 2), F(0))
    assert f2(F(-1)) == F(-1, 2) and f2(F(1)) == 1
    assert f2.slopes() == (F(1, 2), F(1))
    F2 = sf.Fs[1]
    assert is_affine(F2) and F2.slopes() == (F(1),)


def test_slope_functions_monomial_twist(cfg2):
    poly = P(cfg2, -cfg2.t(1, 3), cfg2.one())  # T - t^3
    sf = slope_functions(poly, "t1", (F(-2), F(2)))
    assert len(sf.fs) == 1
    assert is_affine(sf.fs[0])
    assert sf.fs[0].slopes() == (F(3),)


def test_slope_functions_constant_coeffs(cfg3):
    poly = P(cfg3, cfg3.scalar(9), cfg3.scalar(3), cfg3.one())
    sf = slope_functions(poly, "t1", (F(-1), F(1)))
    assert all(is_affine(f) and f.slopes() == (F(0),) for f in sf.fs)


def _random_polys(cfg2, rng):
    """Random monic polynomials with Laurent coefficients, some of them zero."""
    for _ in range(25):
        d = rng.randint(1, 4)
        coeffs = []
        for i in range(d):
            if rng.random() < 0.25:
                coeffs.append(cfg2.zero())
            else:
                coeffs.append(
                    cfg2.monomial(
                        F(rng.randint(1, 8), rng.randint(1, 4)) * (-1) ** rng.randint(0, 1),
                        t=(rng.randint(-3, 3),),
                    )
                    + (cfg2.monomial(rng.randint(1, 4), t=(rng.randint(-3, 3),))
                       if rng.random() < 0.5 else cfg2.zero())
                )
        coeffs.append(cfg2.one())
        yield P(cfg2, *coeffs)


def _random_charpolys(rng):
    """Cyclic-vector charpolys of twist sums; their coefficients are fractions."""
    for p in (0, 2, 3):
        for rank in (2, 3):
            cfg = ValuationConfig(p)
            M = None
            for k in rng.sample(range(1, 6), rank):
                c = F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
                R = rank_one(cfg, {"t1": cfg.scalar(c) * cfg.t(1, -k)})
                M = R if M is None else direct_sum(M, R)
            yield cyclic_vector(M, "t1")[1]


def test_parametric_hull_matches_pointwise(cfg2):
    """``fs`` equals the pointwise hull slopes at every knot, at the midpoint of
    every piece and at random fibers, in ascending order."""
    rng = random.Random(7)
    for poly in chain(_random_polys(cfg2, rng), _random_charpolys(rng)):
        sf = slope_functions(poly, "t1", (F(-2), F(2)))
        knots = sorted(set().union(*(f.knots for f in sf.fs)))
        mids = [(a + b) / 2 for a, b in zip(knots, knots[1:])]
        for r in knots + mids + [F(rng.randint(-16, 16), 8) for _ in range(10)]:
            slopes = classical_slope_list(newton_polygon(poly, [r]))
            assert [f(r) for f in sf.fs] == slopes
            assert [Fs(r) for Fs in sf.Fs] == [sum(slopes[:i + 1]) for i in range(len(slopes))]


_coefs = st.sampled_from((1, -1, 2, -3, F(1, 2), F(-1, 3), F(3, 4), 6))


@st.composite
def _laurents(draw, cfg, terms):
    """A Laurent element in ``t`` with ``terms`` distinct exponents in ``-3..3``."""
    exps = draw(st.lists(st.integers(-3, 3), min_size=terms, max_size=terms, unique=True))
    return sum((cfg.monomial(draw(_coefs), t=(k,)) for k in exps), cfg.zero())


@st.composite
def shifted_families(draw):
    """A Laurent polynomial ``sum c_i T^i`` and the same polynomial with every coefficient
    times one nonzero function of ``r``, written five ways: times a Laurent element;
    as fractions over one denominator up to monomials; alternately over two unrelated
    denominators ``b`` and ``b s``; Laurent coefficients mixed with ``(c s)/s``; and as
    it is.  Each coefficient valuation moves by the same function, so the hull slopes
    do not."""
    p = draw(st.sampled_from((0, 2, 3)))
    cfg = ValuationConfig(p)
    deg = draw(st.integers(1, 4))
    cs = [draw(st.one_of(st.just(cfg.zero()), _laurents(cfg, 1), _laurents(cfg, 2)))
          for _ in range(deg)]
    cs.append(draw(st.one_of(_laurents(cfg, 1), _laurents(cfg, 2))))
    u, a = draw(_laurents(cfg, 2)), draw(_laurents(cfg, 1))
    b, s = draw(_laurents(cfg, 2)), draw(_laurents(cfg, 2))
    monos = [draw(_laurents(cfg, 1)) for _ in cs]
    return [P(cfg, *cs),
            P(cfg, *(c * u for c in cs)),
            P(cfg, *(FracElement(c * a * m, b * m) for c, m in zip(cs, monos))),
            P(cfg, *(FracElement(c * a, b) if i % 2 else FracElement(c * a * s, b * s)
                     for i, c in enumerate(cs))),
            P(cfg, *(c if i % 2 else FracElement(c * s, s) for i, c in enumerate(cs)))]


@settings(max_examples=40, deadline=None)
@given(shifted_families())
def test_slope_functions_ignore_a_common_shift(family):
    """Multiplying every coefficient by one nonzero element moves every coefficient
    valuation by one function of ``r`` and leaves ``fs`` and ``Fs`` as they are, however
    the denominators group; at interior fibers each matches the pointwise hull."""
    window = (F(-2), F(2))
    want = slope_functions(family[0], "t1", window)
    knots = sorted(set(chain.from_iterable(f.knots for f in want.fs)) | set(window))
    points = [(x + y) / 2 for x, y in zip(knots, knots[1:])] + [F(k, 7) for k in range(-13, 14, 4)]
    for poly in family:
        sf = slope_functions(poly, "t1", window)
        assert (sf.fs, sf.Fs) == (want.fs, want.Fs)
        for r in points:
            assert [f(r) for f in sf.fs] == classical_slope_list(newton_polygon(poly, [r]))


def test_untwisted_additivity_of_polygons(cfg3):
    rng = random.Random(11)
    for _ in range(10):
        def rand_const_poly(d):
            cs = [cfg3.scalar(F(rng.randint(-24, 24), rng.randint(1, 6))) for _ in range(d)]
            cs.append(cfg3.one())
            return P(cfg3, *cs)

        A, B = rand_const_poly(rng.randint(1, 3)), rand_const_poly(rng.randint(1, 3))
        prod = twisted_mul(A, B)
        for r in (F(0), F(1), F(-2)):
            sa = newton_polygon(A, [r]).slope_list()
            sb = newton_polygon(B, [r]).slope_list()
            sp = newton_polygon(prod, [r]).slope_list()
            assert sorted(sa + sb) == sp


def test_twisted_additivity_below_threshold(cfg2):
    # visible slopes (> -tau) add; at r=1 tau=-1 so visible means sigma > 1
    t = cfg2.t(1)
    A = P(cfg2, -t ** -2, cfg2.one())   # slope 2 at r=1, visible
    B = P(cfg2, -t ** -3, cfg2.one())   # slope 3 at r=1, visible
    prod = twisted_mul(A, B)
    slopes = newton_polygon(prod, [F(1)]).slope_list()
    visible = [s for s in slopes if s > 1]
    assert sorted(visible) == [F(2), F(3)]


@st.composite
def adjoint_pairs(draw):
    """Two polynomials of degree <= 3 over one configuration at p = 0, 2 or 3, each monic
    or not; coefficients are Laurent, some of them fractions over a binomial ``t^k + 2``."""
    cfg = ValuationConfig(draw(st.sampled_from((0, 2, 3))))

    def coeff():
        c = draw(st.one_of(st.just(cfg.zero()), _laurents(cfg, 1), _laurents(cfg, 2)))
        if c and draw(st.integers(0, 3)) == 0:
            c = FracElement(c, cfg.t(1, draw(st.sampled_from((-2, -1, 1)))) + cfg.scalar(2))
        return c

    def poly():
        deg = draw(st.integers(0, 3))
        lead = cfg.one() if draw(st.booleans()) else draw(_laurents(cfg, 1))
        return P(cfg, *(coeff() for _ in range(deg)), lead)

    return poly(), poly()


@settings(max_examples=60, deadline=None)
@given(adjoint_pairs())
def test_opposite_is_involutive_antihomomorphism(pair):
    """The adjoint ``sum (-1)^(d-i) T^i a_i`` is an involution, reverses products and keeps
    monic input monic."""
    A, B = pair
    assert opposite(opposite(A)) == A
    assert opposite(twisted_mul(A, B)) == twisted_mul(opposite(B), opposite(A))
    for Q in pair:
        assert opposite(Q).degree == Q.degree
        assert opposite(Q).is_monic() == Q.is_monic()


def test_laurent_coefficients(cfg2):
    from annuli import FracElement, LaurentElement

    t = cfg2.t(1)
    frac = P(cfg2, FracElement(t ** -2), FracElement(t + cfg2.one()), cfg2.one())
    got = frac.laurent()
    assert all(isinstance(c, LaurentElement) for c in got.coeffs) and got == frac
    with pytest.raises(ValueError, match="non-Laurent"):
        P(cfg2, FracElement(cfg2.one(), t + cfg2.one()), cfg2.one()).laurent()


# -- robba_factor ----------------------------------------------------------------


def test_robba_commutative_exact(cfg3):
    # (T - 1)(T - 3) over p = 3: slopes {-1, 0}; split between them
    one, three = cfg3.one(), cfg3.scalar(3)
    prod = twisted_mul(P(cfg3, -one, one), P(cfg3, -three, one))
    qlo, qhi, res = robba_factor(prod, [F(0)], F(-1, 2), F(40))
    assert res is INF or res >= 40
    # Q_low carries the slope below the split (root valuation 1, the factor T - 3)
    for got, want in ((qlo, P(cfg3, -three, one)), (qhi, P(cfg3, -one, one))):
        diff = got - want
        assert diff.is_zero() or diff.min_valuation([F(0)]) >= 40


def test_robba_pure_polygon_rejected(cfg2):
    poly = P(cfg2, -cfg2.t(1), cfg2.zero(), cfg2.one())  # T^2 - t
    with pytest.raises(NoSeparatingVertex):
        robba_factor(poly, [F(1)], F(-1, 2), F(10))


def test_robba_twisted_product(cfg2):
    t = cfg2.t(1)
    A = P(cfg2, cfg2.zero(), cfg2.one())       # T
    B = P(cfg2, -t ** -2, cfg2.one())          # T - t^-2
    prod = twisted_mul(A, B)
    qlo, qhi, res = robba_factor(prod, [F(1)], F(1), F(10))
    assert res is INF or res >= 10
    recon = twisted_mul(qlo, qhi)
    diff = prod - recon
    assert diff.is_zero() or diff.min_valuation([F(1)]) >= 10
    # factor polygons partition the visible slope multiset
    slo = newton_polygon(qlo, [F(1)]).slope_list() if not qlo.is_zero() else []
    shi = newton_polygon(qhi, [F(1)]).slope_list()
    assert shi == [F(2)]
    assert qlo.degree == 1 and qhi.degree == 1


def test_robba_residual_monotone(cfg2):
    # inseparable-by-inspection twisted product needing several iterations
    t = cfg2.t(1)
    A = P(cfg2, t + cfg2.scalar(2), cfg2.one())        # T + (t+2): slope dominated by t at r<1
    B = P(cfg2, -t ** -3 + cfg2.scalar(4), cfg2.one())
    prod = twisted_mul(A, B)
    np_ = newton_polygon(prod, [F(1)])
    slopes = np_.slope_list()
    assert len(set(slopes)) == 2
    split = (slopes[0] + slopes[1]) / 2
    trace = []
    qlo, qhi, res = robba_factor(prod, [F(1)], split, F(12), trace=trace)
    assert res is INF or res >= 12
    assert all(a <= b for a, b in zip(trace, trace[1:]))  # residual never worsens
    diff = prod - twisted_mul(qlo, qhi)
    assert diff.is_zero() or diff.min_valuation([F(1)]) >= 12
    # visible slopes partition exactly; the sub-threshold part is not certified
    tau = cfg2.operator_valuation("t1", [F(1)])
    visible = sorted(s for s in slopes if s > -tau)
    out_visible = sorted(
        s
        for s in newton_polygon(qlo, [F(1)]).slope_list()
        + newton_polygon(qhi, [F(1)]).slope_list()
        if s > -tau
    )
    assert out_visible == visible


# -- verify_newton_properties ------------------------------------------------------


def test_verify_worked_example(cfg2):
    poly = P(cfg2, cfg2.t(1), cfg2.one(), cfg2.one())  # T^2 + T + t
    rep = verify_newton_properties(poly, "t1", (F(-1), F(1)), disc=True)
    assert rep.passed
    names = {r.name for r in rep.results}
    assert {"linearity", "integrality", "slope membership", "concavity", "monotonicity"} <= names


def test_verify_random_monic_concavity(cfg2):
    rng = random.Random(3)
    for _ in range(20):
        d = rng.randint(1, 4)
        coeffs = [
            cfg2.monomial(F(rng.randint(1, 9)), t=(rng.randint(-2, 2),))
            + cfg2.scalar(rng.randint(0, 3))
            for _ in range(d)
        ]
        coeffs.append(cfg2.one())
        poly = P(cfg2, *coeffs)
        rep = verify_newton_properties(poly, "t1", (F(-1), F(1)))
        concl = [r for r in rep.results if r.name == "concavity"]
        assert all(r.status == "pass" for r in concl)


def test_verify_nonmonic_monotonicity_na(cfg2):
    poly = P(cfg2, cfg2.one(), cfg2.scalar(2))
    rep = verify_newton_properties(poly, "t1", (F(0), F(1)), disc=True)
    mono = by_name(rep, "monotonicity")
    assert mono and mono[0].status == "not applicable"


def test_verify_truncation_clause(cfg2):
    poly = P(cfg2, cfg2.t(1), cfg2.one(), cfg2.one())
    rep = verify_newton_properties(
        poly, "t1", (F(-1), F(1)), disc=True, truncation=(F(1), F(0))
    )
    tr = by_name(rep, "truncation")
    assert tr and tr[0].status == "pass"


def test_verify_truncation_nonmonic_na(cfg2):
    poly = P(cfg2, cfg2.one(), cfg2.scalar(2))  # 2T + 1
    rep = verify_newton_properties(poly, "t1", (F(0), F(1)), disc=True, truncation=(1, 0))
    tr = by_name(rep, "truncation")
    assert [(r.status, r.witness) for r in tr] == [("not applicable", "requires monic input")]


def test_laurent_approx_keeps_a_fraction_without_dominant_term(cfg2):
    # at r = 0 both terms of 1 + t have valuation 0, so none dominates
    one = cfg2.one()
    x = FracElement(one, one + cfg2.t(1))
    assert _laurent_approx(x, [F(0)], F(10)) is x


# -- robba_factor at the working cut ------------------------------------------------


def _ref_ordp(c, p):
    if p == 0:
        return 0
    c, v = Fraction(c), 0
    n, d = c.numerator, c.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def _ref_valuation(coeffs, p, r):
    """Least ``ord_p(c) + i r`` over the terms ``c t^i`` of the coefficients; INF if none."""
    return min((_ref_ordp(c, p) + i[0] * r for x in coeffs for (_, i), c in x.terms.items()),
               default=INF)


def _ref_product(A, B):
    """``A * B`` in the twisted ring, one ``T`` at a time: ``T * sum b_j T^j`` is
    ``sum b_j T^(j+1) + d(b_j) T^j``."""
    zero = A.config.zero()
    out = [zero] * (len(A.coeffs) + len(B.coeffs) - 1)
    cur = list(B.coeffs)
    for a in A.coeffs:
        for j, b in enumerate(cur):
            out[j] = out[j] + a * b
        nxt = [zero] * (len(cur) + 1)
        for j, b in enumerate(cur):
            nxt[j + 1] = nxt[j + 1] + b
            nxt[j] = nxt[j] + b.derive(A.axis)
        cur = nxt
    return out


@st.composite
def linear_products(draw):
    """``(T - c_1 t^-k_1)...(T - c_m t^-k_m)`` at r = 1, m = 2 or 3, with ``k`` in 2..5 and
    ``c = ±1``, divided by ``p`` when drawn at ``p > 0``.  Each slope ``k - v(c)`` is at
    least 2, so visible.  The split falls between two distinct slopes."""
    p = draw(st.sampled_from((0, 2, 3)))
    cfg = ValuationConfig(p, (), 1)
    factors = []
    for _ in range(draw(st.integers(2, 3))):
        c = Fraction(draw(st.sampled_from((1, -1))))
        if p and draw(st.booleans()):
            c /= p
        factors.append((c, draw(st.integers(2, 5))))
    slopes = sorted({k - _ref_ordp(c, p) for c, k in factors})
    assume(len(slopes) > 1)
    gap = draw(st.integers(0, len(slopes) - 2))
    polys = [P(cfg, -cfg.scalar(c) * cfg.t(1, -k), cfg.one()) for c, k in factors]
    return reduce(twisted_mul, polys), (slopes[gap] + slopes[gap + 1]) / 2


@settings(max_examples=20, deadline=None)
@given(linear_products(), st.sampled_from((F(2), F(4), F(8))))
def test_robba_converges_at_the_working_cut(product, precision):
    """Products of linear twisted factors split at a visible gap: the residual reaches the
    precision, and ``P - Q_low Q_high``, recomputed here, agrees with it."""
    poly, split = product
    qlo, qhi, res = robba_factor(poly, [F(1)], split, precision)
    assert res >= precision
    diff = [a - b for a, b in zip(poly.coeffs, _ref_product(qlo, qhi))]
    assert _ref_valuation(diff, poly.config.p, 1) == res


def test_robba_two_variable_trace():
    """``(T - t^-2)(T - t^-3)(T - u^-1 t^-3)`` with ``u`` of weight 1, p = 2, r = 1."""
    cfg = ValuationConfig(2, (F(1),), 1)
    t, u = cfg.t(1), cfg.u(1)
    poly = reduce(twisted_mul, (P(cfg, -a, cfg.one()) for a in (t ** -2, t ** -3, u ** -1 * t ** -3)))
    trace = []
    robba_factor(poly, [F(1)], F(5, 2), F(2), trace=trace)
    assert trace == [-9, -8, -6, -3, 0, 2]


def test_robba_gives_up_with_its_best_pair(cfg2):
    """Out of budget, ``robba_factor`` raises with the best pair of its trace as ``factors``
    and that pair's residual, which ``P - A B`` recomputed here matches."""
    t = cfg2.t(1)
    poly = twisted_mul(P(cfg2, -t ** -2, cfg2.one()), P(cfg2, -t ** -3, cfg2.one()))
    trace = []
    with pytest.raises(NonConvergence) as exc:
        robba_factor(poly, [F(1)], F(5, 2), F(12), budget=2, trace=trace)
    assert trace == [-5, -4] and exc.value.residual == -4
    A, B = exc.value.factors
    assert (poly - twisted_mul(A, B)).min_valuation([F(1)]) == -4


def _scaled(f, c):
    return PiecewiseAffine(f.knots, [c * y for y in f.values])


def _chord_min_slope_functions(P, window):
    """``slope_functions`` as a least of whole chord functions, combined by ``pa_combine("min")``."""
    v = {i: valuation_function(c, "t1", window) for i, c in enumerate(P.coeffs) if not c.is_zero()}

    def hull_at(x):
        vals = [v[x]] if x in v else []
        vals += [pa_combine("sum", _scaled(v[a], F(b - x, b - a)), _scaled(v[b], F(x - a, b - a)))
                 for a in v if a < x for b in v if b > x]
        return reduce(partial(pa_combine, "min"), vals)

    h = [hull_at(x) for x in range(P.degree, min(v) - 1, -1)]
    return tuple(b - a for a, b in zip(h, h[1:])), tuple(g - h[0] for g in h[1:])


@settings(max_examples=40, deadline=None)
@given(shifted_families())
def test_one_envelope_per_height_matches_chord_minimum(family):
    """One lower envelope per hull height gives the functions that the least of the whole
    chords gives, with one denominator group (the Laurent and one-denominator forms) and
    with several (two unrelated denominators, and Laurent coefficients mixed with fractions)."""
    window = (F(-2), F(2))
    for poly in family:
        sf = slope_functions(poly, "t1", window)
        assert (sf.fs, sf.Fs) == _chord_min_slope_functions(poly, window)
