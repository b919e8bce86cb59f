from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annuli import (
    INF,
    LaurentElement,
    FracElement,
    ValuationConfig,
    gauss_valuation,
    is_unit_on_annulus,
    valuation_function,
)
from annuli.valued import _ord_int, solve_fraction_free
from helpers import is_affine

F = Fraction


def test_unit_constant_valuation(cfg2):
    one = cfg2.one()
    for r in (F(0), F(1), F(-3, 2)):
        assert gauss_valuation(one, [r]) == 0


def test_one_matches_validated_monomial():
    cfg = ValuationConfig(3, (F(1, 2),), 2)
    one = cfg.one()
    assert one.terms == LaurentElement(cfg, {((0,), (0, 0)): 1}).terms == cfg.monomial(1).terms
    assert one.terms is not cfg.one().terms  # each call owns its terms
    assert repr(one) == repr(cfg.monomial(1))


def test_single_monomial(cfg2):
    # 2 * t^-1 at r = 0: ord_2(2) - 0 = 1
    x = cfg2.monomial(2, t=(-1,))
    assert gauss_valuation(x, [F(0)]) == 1


def test_two_term_min(cfg2):
    # t + 2 at r = 1/2: min(1/2, 1) enumerated by hand
    x = cfg2.t(1) + cfg2.scalar(2)
    assert gauss_valuation(x, [F(1, 2)]) == F(1, 2)


def test_zero_valuation_is_inf(cfg2):
    assert gauss_valuation(cfg2.zero(), [F(0)]) is INF


def test_inf_orders_above_rationals_in_either_position():
    assert min(F(3), INF) == F(3) and min(INF, F(3)) == F(3)
    assert min([INF, F(-2), INF]) == F(-2)
    assert min([], default=INF) is INF
    assert INF >= F(10**6)
    assert not (F(3) >= INF)


def test_dimension_mismatch(cfg2):
    with pytest.raises(ValueError):
        gauss_valuation(cfg2.one(), [F(0), F(0)])


def test_p0_uses_weights():
    cfg = ValuationConfig(0, (F(1, 3),), 1)
    x = cfg.monomial(7, u=(2,))  # rational coefficients carry no valuation at p=0
    assert gauss_valuation(x, [F(0)]) == F(2, 3)


def test_derive_geometric(cfg2):
    t = cfg2.t(1)
    assert (t * t).derive("t1") == 2 * t


def test_derive_base_axis():
    cfg = ValuationConfig(2, (F(0),), 1)
    x = cfg.u(1, 3) * cfg.t(1, -1)
    assert x.derive("u1") == 3 * cfg.u(1, 2) * cfg.t(1, -1)
    y = cfg.u(1) + cfg.scalar(2) * cfg.t(1)
    assert y.derive("t1") == cfg.scalar(2)


def test_derivations_commute():
    cfg = ValuationConfig(3, (F(0), F(1)), 2)
    x = cfg.monomial(5, u=(2, -1), t=(3, 1)) + cfg.monomial(F(1, 3), u=(0, 4), t=(-2, 0))
    for a in ("u1", "u2", "t1", "t2"):
        for b in ("u1", "u2", "t1", "t2"):
            assert x.derive(a).derive(b) == x.derive(b).derive(a)


def test_valuation_function_two_terms(cfg2):
    # t + 2 on [0, 2]: min(r, 1)
    x = cfg2.t(1) + cfg2.scalar(2)
    f = valuation_function(x, "t1", (F(0), F(2)))
    assert f.breakpoints() == (F(1),)
    assert f(F(1)) == 1
    assert f.slopes() == (F(1), F(0))


def test_valuation_function_monomial(cfg2):
    f = valuation_function(cfg2.t(1, 3), "t1", (F(-1), F(1)))
    assert is_affine(f)
    assert f.slopes() == (F(3),)


def test_valuation_function_symmetric(cfg2):
    # t^-1 + t: min(-r, r) = -|r|, breakpoint at 0, concave
    x = cfg2.t(1, -1) + cfg2.t(1)
    f = valuation_function(x, "t1", (F(-1), F(1)))
    assert f.breakpoints() == (F(0),)
    assert f.slopes() == (F(1), F(-1))
    assert f(F(-1)) == -1 and f(F(0)) == 0 and f(F(1)) == -1


def test_valuation_function_rejects_zero(cfg2):
    with pytest.raises(ValueError):
        valuation_function(cfg2.zero(), "t1", (F(0), F(1)))


def test_unit_on_annulus(cfg2):
    t = cfg2.t(1)
    assert is_unit_on_annulus(t, "t1", (F(-5), F(5)))
    x = t + cfg2.scalar(2)
    assert not is_unit_on_annulus(x, "t1", (F(0), F(2)))
    assert is_unit_on_annulus(x, "t1", (F(2), F(3)))


# -- property tests ------------------------------------------------------------

_coeffs = st.fractions(max_denominator=12).filter(lambda q: q != 0)
_exps = st.integers(min_value=-4, max_value=4)


def _elements(cfg):
    term = st.tuples(_exps, _coeffs)
    return st.lists(term, min_size=0, max_size=5).map(
        lambda ts: sum((cfg.monomial(c, t=(e,)) for e, c in ts), cfg.zero())
    )


_cfg = ValuationConfig(2, (), 1)
_rs = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@given(x=_elements(_cfg), y=_elements(_cfg), r=_rs)
def test_ultrametric(x, y, r):
    vx, vy = gauss_valuation(x, [r]), gauss_valuation(y, [r])
    vs = gauss_valuation(x + y, [r])
    lo = min(vx, vy) if vx is not INF and vy is not INF else (vy if vx is INF else vx)
    assert vs >= lo
    if vx is not INF and vy is not INF and vx != vy:
        assert vs == min(vx, vy)


@given(x=_elements(_cfg), y=_elements(_cfg), r=_rs)
def test_multiplicativity(x, y, r):
    vx, vy = gauss_valuation(x, [r]), gauss_valuation(y, [r])
    vp = gauss_valuation(x * y, [r])
    if vx is INF or vy is INF:
        assert vp is INF
    else:
        assert vp == vx + vy


@given(x=_elements(_cfg), y=_elements(_cfg))
def test_leibniz(x, y):
    lhs = (x * y).derive("t1")
    rhs = x.derive("t1") * y + x * y.derive("t1")
    assert lhs == rhs


_ucfg = ValuationConfig(2, (F(0), F(1, 2)), 0)


def _uelements():
    term = st.tuples(_exps, _exps, _coeffs)
    return st.lists(term, min_size=1, max_size=4).map(
        lambda ts: sum(
            (_ucfg.monomial(c, u=(e1, e2)) for e1, e2, c in ts), _ucfg.zero()
        )
    )


@settings(max_examples=60)
@given(x=_uelements(), j=st.sampled_from(["u1", "u2"]), n=st.integers(1, 5))
def test_rational_type_derivation_bound(x, j, n):
    """v(d^n x / n!) >= v(x) - n * w_j, the rational-type operator bound."""
    import math

    w = _ucfg.u_weights[0] if j == "u1" else _ucfg.u_weights[1]
    dx = x
    for _ in range(n):
        dx = dx.derive(j)
    scaled = dx * _ucfg.scalar(F(1, math.factorial(n)))
    v0 = gauss_valuation(x, [])
    vn = gauss_valuation(scaled, [])
    if v0 is INF:
        assert vn is INF
    elif vn is not INF:
        assert vn >= v0 - n * w


def test_frac_element_arithmetic(cfg2):
    t = cfg2.t(1)
    f = FracElement(cfg2.one(), t + cfg2.scalar(2))  # 1/(t+2)
    g = f * (t + cfg2.scalar(2))
    assert g == cfg2.one()
    assert f.gauss_valuation([F(0)]) == 0
    assert f.gauss_valuation([F(2)]) == -1  # v(t+2) = min(2,1) = 1 at r=2
    h = f.derive("t1")  # -(1)/(t+2)^2
    assert h * (t + cfg2.scalar(2)) * (t + cfg2.scalar(2)) == -cfg2.one()


def test_frac_element_is_unhashable(cfg2):
    # equal elements with different stored num/den: a hash could not agree with ==
    x, one = FracElement(cfg2.one() + cfg2.t(1), cfg2.one() + cfg2.t(1)), FracElement(cfg2.one())
    assert x == one
    with pytest.raises(TypeError):
        {x, one}


def test_laurent_serialization_roundtrip(cfg2u):
    from annuli.serialize import laurent_from_obj, laurent_to_obj

    x = cfg2u.monomial(F(3, 7), u=(2,), t=(-1,)) + cfg2u.scalar(5)
    obj = laurent_to_obj(x)
    assert obj["terms"][0]["c"] in ("5", "3/7")
    assert laurent_from_obj(cfg2u, obj) == x


def test_rtruediv_by_unsupported_type_raises_type_error(cfg2):
    q = FracElement(cfg2.t(1), cfg2.t(1) + cfg2.one())
    with pytest.raises(TypeError):
        1.5 / q


def test_laurent_arithmetic_across_configs_raises():
    c1, c2 = ValuationConfig(2, (), 1), ValuationConfig(2, (), 2)
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a.exact_div(b)):
        with pytest.raises(ValueError, match="different configurations"):
            op(c1.t(1), c2.t(2))
    assert c1.t(1) != c2.t(1)
    twin = ValuationConfig(2, (), 1)  # equal, not identical: a pullback builds such configs
    assert c1.t(1) * twin.t(1) == c1.t(1, 2)


# -- exact division and the fraction-free solve ---------------------------------------

_div_cfgs = [ValuationConfig(2, (F(0),) * m, n) for m in (0, 1) for n in (1, 2)]


def _laurent_st(cfg, max_terms=4, coeffs=_coeffs, span=2):
    nvars = cfg.m_base + cfg.n_geom
    term = st.tuples(st.lists(st.integers(-span, span), min_size=nvars, max_size=nvars), coeffs)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((cfg.monomial(c, u=ex[:cfg.m_base], t=ex[cfg.m_base:]) for ex, c in ts),
                       cfg.zero()))


@st.composite
def _dividend_divisor(draw):
    cfg = draw(st.sampled_from(_div_cfgs))
    return draw(_laurent_st(cfg)), draw(_laurent_st(cfg).filter(bool))


@settings(max_examples=80)
@given(ab=_dividend_divisor())
def test_exact_div_inverts_product(ab):
    a, b = ab
    assert (a * b).exact_div(b) == a
    if len(b.terms) >= 2:  # b is no unit, so it cannot divide a * b + 1
        with pytest.raises(ValueError, match="not an exact divisor"):
            (a * b + 1).exact_div(b)
    with pytest.raises(ZeroDivisionError):
        a.exact_div(b.config.zero())


def test_exact_div_leaves_the_quotient_box():
    # highest-term division of x + 1 by x + x/y runs down 1 - 1/y + 1/y^2 - ... in y
    # alone; the exponent box of the quotient stops it
    c = ValuationConfig(2, (), 2)
    x, y = c.t(1), c.t(2)
    with pytest.raises(ValueError, match="not an exact divisor"):
        (x + 1).exact_div(x + x * y ** -1)


@st.composite
def _laurent_system(draw):
    cfg = draw(st.sampled_from(_div_cfgs))
    # small systems: Gauss-Jordan over fractions never cancels, so in several
    # variables or with big entries the reference itself takes minutes
    n = draw(st.integers(1, 4 if cfg.m_base + cfg.n_geom == 1 else 3))
    entry = _laurent_st(cfg, max_terms=2, coeffs=st.sampled_from([-3, -1, 1, 2, F(1, 2), F(5, 3)]),
                        span=1)
    A = [[draw(entry) for _ in range(n)] for _ in range(n)]
    B = [[draw(entry)] for _ in range(n)]
    # some rows of [A | B] hold a fraction over a non-monomial denominator
    den = draw(entry.filter(lambda x: len(x.terms) > 1))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        j = draw(st.integers(0, n))
        if j < n:
            A[i][j] = FracElement(A[i][j], den)
        else:
            B[i][0] = FracElement(B[i][0], den)
    if draw(st.booleans()):  # make A singular: its last row a multiple of the first
        f = draw(entry)
        A[-1] = [f * x for x in A[0]]
    return A, B


def _field_solve(A, B):
    """Gauss-Jordan reference: ``X`` with ``A X = B`` over the fraction field.

    Each column takes the first nonzero pivot, normalises the pivot row and clears
    every other row; raises ``ZeroDivisionError`` when ``A`` is singular."""
    n = len(A)
    M = [list(a) + list(b) for a, b in zip(A, B)]
    for col in range(n):
        piv = next((i for i in range(col, n) if M[i][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for i in range(n):
            if i != col and M[i][col]:
                f = M[i][col]
                M[i] = [x - f * y for x, y in zip(M[i], M[col])]
    return [row[n:] for row in M]


@settings(max_examples=40, deadline=None)
@given(system=_laurent_system())
def test_fraction_free_solve_matches_field_solve(system):
    A, B = system
    try:
        X = _field_solve([[FracElement.lift(x) for x in row] for row in A],
                         [[FracElement.lift(x) for x in row] for row in B])
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            solve_fraction_free(A, B)
        return
    N, delta = solve_fraction_free(A, B)
    for (n,), (x,) in zip(N, X):
        assert FracElement(n, delta) == x


# -- integer term valuations and the truncated product ---------------------------


def _ord_ref(n, p):
    """p-adic order of a nonzero rational by repeated division; 0 at p = 0."""
    if p == 0:
        return 0
    num, den, v = F(n).numerator, F(n).denominator, 0
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def _field_valuation(x, r):
    """min over terms of ord_p(c) + e.w + i.r, term by term in Fraction arithmetic."""
    w = x.config.u_weights
    return min((_ord_ref(c, x.config.p) + sum((a * b for a, b in zip(e, w)), F(0))
                + sum((a * b for a, b in zip(i, r)), F(0)) for (e, i), c in x.terms.items()),
               default=INF)


@st.composite
def _fiber_elements(draw, count):
    """A configuration (p in {0, 2, 3}, at most one fractional base weight, one or two
    geometric variables), ``count`` elements and a fractional fiber.  Coefficients carry
    the prime (2 at p = 0) in the numerator or in the denominator."""
    p = draw(st.sampled_from([0, 2, 3]))
    weights = draw(st.lists(st.fractions(-2, 2, max_denominator=4), max_size=1))
    cfg = ValuationConfig(p, weights, draw(st.integers(1, 2)))
    q = p or 2
    coeff = st.builds(lambda a, k: F(a) * F(q) ** k,
                      st.integers(-9, 9).filter(bool), st.integers(-3, 3))
    xs = [draw(_laurent_st(cfg, max_terms=6, coeffs=coeff, span=3)) for _ in range(count)]
    r = draw(st.lists(st.fractions(-3, 3, max_denominator=6), min_size=cfg.n_geom,
                      max_size=cfg.n_geom))
    return cfg, xs, r


_half_tie = ValuationConfig(2, (), 1)


@example(case=(_half_tie, [_half_tie.monomial(F(1, 2), t=(-1,)) + 1 + _half_tie.t(1)], [F(0)]))
@given(case=_fiber_elements(1))
def test_gauss_valuation_matches_field_reference(case):
    """Pruning by exponent part alone fails on ``1/2 t^-1 + 1 + t`` at p = 2, r = 0:
    the ``1/2`` term has negative ``ord_p`` and sets the minimum, -1."""
    _, (x,), r = case
    assert x.gauss_valuation(r) == _field_valuation(x, r)


@settings(deadline=None)
@given(case=_fiber_elements(2), cut=st.fractions(-6, 6, max_denominator=6))
def test_truncated_mul_matches_truncated_product(case, cut):
    cfg, (a, b), r = case
    full = a * b
    kept = {k: c for k, c in full.terms.items()
            if _field_valuation(LaurentElement(cfg, {k: c}), r) <= cut}
    assert full.truncate(r, cut).terms == kept
    assert a.truncated_mul(b, r, cut).terms == kept


@given(k=st.integers(0, 200), m=st.integers(1, 10 ** 12), sign=st.sampled_from([1, -1]))
def test_ord_int_at_two_matches_division(k, m, sign):
    n = sign * 2 ** k * m
    assert _ord_int(n, 2) == _ord_ref(n, 2) == k + _ord_ref(m, 2)
    assert _ord_int(-abs(m), 2) == _ord_ref(m, 2)
