"""The two hot kernels against the naive algorithms they replace.

``min_of_lines`` is checked against the envelope refined at every pairwise
crossing (``PiecewiseAffine`` is canonical, so equal functions have equal
knots and values); ``LaurentElement`` products, sums and derivatives against
``Fraction`` loops through the validating constructor; mixed Laurent/fraction
arithmetic against the fraction operator on the wrapped operand.  Equal
values, equal ``repr`` and, for ring elements, equal term order are required,
and every stored coefficient must be an ``int`` or a ``Fraction``: a float
would mean two ``int`` coefficients were divided with ``/``.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annuli.pwaffine import PiecewiseAffine, max_of_lines, min_of_lines
from annuli.valued import FracElement, LaurentElement, ValuationConfig

F = Fraction


# -- lower envelope -------------------------------------------------------------


def brute_envelope(lines, lo, hi):
    """Refine at every pairwise crossing in ``(lo, hi)``; canonical form drops the idle ones."""
    lines = [(F(a), F(b)) for a, b in lines]
    xs = {F(lo), F(hi)}
    for (a0, b0), (a1, b1) in combinations(lines, 2):
        if a0 != a1:
            x = (b1 - b0) / (a0 - a1)
            if lo < x < hi:
                xs.add(x)
    knots = sorted(xs)
    return PiecewiseAffine(knots, [min(a * x + b for a, b in lines) for x in knots])


small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)
# few slopes, so duplicate slopes and parallel lines are common
slope_st = st.integers(-3, 3).map(F) | small_fracs
lines_st = st.lists(st.tuples(slope_st, small_fracs), min_size=1, max_size=12)
width_st = st.fractions(min_value=F(1, 4), max_value=5, max_denominator=4)


def window_st():
    return st.tuples(small_fracs, width_st).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=300, deadline=None)
@given(lines_st, window_st())
def test_min_of_lines_matches_brute_force(lines, window):
    lo, hi = window
    got = min_of_lines(lines, lo, hi)
    want = brute_envelope(lines, lo, hi)
    assert (got.knots, got.values) == (want.knots, want.values)


@settings(max_examples=100, deadline=None)
@given(lines_st, window_st())
def test_max_of_lines_is_negated_min(lines, window):
    lo, hi = window
    neg = brute_envelope([(-a, -b) for a, b in lines], lo, hi)
    assert max_of_lines(lines, lo, hi) == -neg


@pytest.mark.parametrize(
    "lines, window",
    [
        ([(2, 1)], (0, 1)),  # a single line
        ([(1, 0), (1, -1), (1, 3)], (0, 2)),  # parallel lines, one wins everywhere
        ([(1, 0), (1, 0), (-1, 2)], (0, 2)),  # a duplicated line
        ([(1, 0), (-1, 0)], (0, 1)),  # crossing exactly at lo
        ([(1, 0), (-1, 0)], (-1, 0)),  # crossing exactly at hi
        ([(3, 0), (1, 0), (-2, 0)], (-1, 1)),  # three lines through one point
        ([(0, 0), (1, F(1, 2)), (-1, F(1, 2)), (2, 5)], (-2, 2)),
    ],
)
def test_min_of_lines_edge_cases(lines, window):
    got = min_of_lines(lines, *window)
    want = brute_envelope(lines, *window)
    assert (got.knots, got.values) == (want.knots, want.values)


# -- Laurent products -----------------------------------------------------------


def naive_mul(x, y):
    out = {}
    for (e1, i1), c1 in x.terms.items():
        for (e2, i2), c2 in y.terms.items():
            k = (tuple(a + b for a, b in zip(e1, e2)), tuple(a + b for a, b in zip(i1, i2)))
            out[k] = out.get(k, F(0)) + c1 * c2
    return LaurentElement(x.config, out)


def naive_add(x, y):
    out = dict(x.terms)
    for k, c in y.terms.items():
        out[k] = out.get(k, F(0)) + c
    return LaurentElement(x.config, out)


def naive_derive(x, axis):
    kind, idx = x.config.axis_kind(axis)
    out = {}
    for (e, i), c in x.terms.items():
        e, i = list(e), list(i)
        exps = e if kind == "u" else i
        a = exps[idx]
        exps[idx] -= 1
        out[(tuple(e), tuple(i))] = F(c) * a
    return LaurentElement(x.config, out)


CONFIGS = [ValuationConfig(2, (), 1), ValuationConfig(3, (F(1, 2),), 2), ValuationConfig(0, (), 2)]
# mixed denominators, including ones that cancel against each other
coeff_st = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 9, 12]))


def laurent_st(cfg):
    term = st.tuples(st.tuples(*[st.integers(-2, 2)] * cfg.m_base),
                     st.tuples(*[st.integers(-2, 2)] * cfg.n_geom), coeff_st)
    return st.lists(term, max_size=8).map(
        lambda ts: LaurentElement(cfg, {(e, i): c for e, i, c in ts}))


@st.composite
def element_pair(draw):
    cfg = draw(st.sampled_from(CONFIGS))
    return draw(laurent_st(cfg)), draw(laurent_st(cfg))


def exact(x):
    assert all(type(c) in (int, F) for c in x.terms.values()), x.terms


def same(got, want):
    exact(got)
    assert got == want
    assert repr(got) == repr(want)
    assert list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=300, deadline=None)
@given(element_pair())
def test_product_matches_naive(pair):
    x, y = pair
    prod = x * y
    same(prod, naive_mul(x, y))
    assert all(type(c) is int for c in prod.terms.values() if c.denominator == 1)


@settings(max_examples=200, deadline=None)
@given(element_pair())
def test_sum_and_negation_match_naive(pair):
    x, y = pair
    same(x + y, naive_add(x, y))
    same(-x, LaurentElement(x.config, {k: -c for k, c in x.terms.items()}))
    same(x + (-x), x.config.zero())
    for axis in x.config.axes():
        same(x.derive(axis), naive_derive(x, axis))


def test_product_edge_cases():
    cfg = ValuationConfig(2, (F(0),), 2)  # m_base = 1, n_geom = 2
    a = cfg.monomial(F(1, 2), u=(1,), t=(0, 1)) + cfg.monomial(F(2, 3), t=(-1, 0))
    b = cfg.monomial(F(3, 4), u=(-1,), t=(0, -1)) + cfg.monomial(F(-5, 6), t=(1, 0))
    same(a * b, naive_mul(a, b))
    one_plus, one_minus = cfg.one() + cfg.t(1), cfg.one() - cfg.t(1)
    same(one_plus * one_minus, naive_mul(one_plus, one_minus))  # the cross term cancels
    assert repr(one_plus * one_minus) == "1 + -1*t1^2"
    for z in (a * cfg.zero(), cfg.zero() * a, a * 0):
        same(z, cfg.zero())
        assert repr(z) == "0"
    for c in (2, 3, -6):  # 1 / c with an integral c other than 1
        inv = cfg.monomial(c, u=(1,), t=(3, 0)) ** -1
        same(inv, LaurentElement(cfg, {((-1,), (-3, 0)): F(1, c)}))
    # a fraction keeps num and den as given: no common monomial or scalar is divided out
    num = cfg.monomial(2, t=(0, -1)) + cfg.monomial(6, u=(1,))
    den = cfg.monomial(4, t=(0, -1)) + cfg.monomial(10, t=(1, -1))
    q = FracElement(num, den)
    same(q.num, num)
    same(q.den, den)
    same(FracElement(cfg.zero(), den).den, cfg.one())


# -- mixed Laurent/fraction arithmetic ------------------------------------------


@st.composite
def laurent_and_fraction(draw):
    """A Laurent ``x`` and a fraction ``q = y / z`` (``z != 0``) over one configuration."""
    cfg = draw(st.sampled_from(CONFIGS))
    x, y = draw(laurent_st(cfg)), draw(laurent_st(cfg))
    return x, FracElement(y, draw(laurent_st(cfg).filter(bool)))


def frac_terms(q):
    return sorted(q.num.terms.items()), sorted(q.den.terms.items())


@settings(max_examples=200, deadline=None)
@given(laurent_and_fraction(), st.integers(-6, 6), coeff_st)
def test_mixed_arithmetic_matches_wrapped_operand(xq, k, c):
    """``a op q`` for a Laurent, ``int`` or ``Fraction`` ``a`` stores what
    ``FracElement(a) op q`` stores, and compares as it does."""
    x, q = xq
    cfg = x.config
    for a in (x, k, c):
        wrapped = FracElement(a if isinstance(a, LaurentElement) else cfg.scalar(a))
        for got, want in ((a + q, wrapped + q), (a - q, wrapped - q), (a * q, wrapped * q)):
            assert isinstance(got, FracElement)
            assert repr(got) == repr(want)
            assert frac_terms(got) == frac_terms(want)
        assert (a == q) == (wrapped == q)
    assert x == FracElement(x * q.den, q.den)
