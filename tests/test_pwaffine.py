from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from annuli.pwaffine import PiecewiseAffine, max_of_lines, min_of_lines, pa_combine
from helpers import is_affine, roots

F = Fraction


def test_constant_and_affine():
    c = PiecewiseAffine.constant(0, 2, F(3, 2))
    assert c(1) == F(3, 2)
    a = PiecewiseAffine.affine(0, 2, F(1, 2), 1)
    assert a(2) == 2
    assert a.slopes() == (F(1, 2),)


def test_repr_signs_values():
    f = PiecewiseAffine([0, 1, 2], [0, -1, F(1, 2)])
    assert repr(f) == "PiecewiseAffine([0,1]: -1*r+0, [1,2]: 3/2*r-1)"


def test_sum_with_zero_is_identity():
    f = min_of_lines([(1, 0), (0, 1)], 0, 2)
    z = PiecewiseAffine.constant(0, 2, 0)
    assert pa_combine("sum", f, z) == f


def test_min_of_lines_shape():
    # min(r, 1) on [0, 2]
    f = min_of_lines([(1, 0), (0, 1)], 0, 2)
    assert f.breakpoints() == (F(1),)
    assert f.slopes() == (F(1), F(0))
    assert f(F(1, 2)) == F(1, 2)
    assert f(2) == 1


def test_max_crossing():
    # max(r, 2 - r) on [0, 2]: value 2, 1, 2 with breakpoint at 1
    f = PiecewiseAffine.affine(0, 2, 1, 0)
    g = PiecewiseAffine.affine(0, 2, -1, 2)
    h = pa_combine("max", f, g)
    assert h.breakpoints() == (F(1),)
    assert (h(0), h(1), h(2)) == (F(2), F(1), F(2))
    assert h.slopes() == (F(-1), F(1))


def test_domain_mismatch():
    f = PiecewiseAffine.constant(0, 1, 0)
    g = PiecewiseAffine.constant(0, 2, 0)
    with pytest.raises(ValueError):
        pa_combine("min", f, g)


def test_restrict_and_roots():
    f = min_of_lines([(1, 0), (-1, 2)], 0, 2)  # min(r, 2-r), peak at 1
    g = f.restrict(F(1, 2), F(3, 2))
    assert g.domain == (F(1, 2), F(3, 2))
    h = f - F(1, 2)
    assert roots(h) == [(F(1, 2), F(1, 2)), (F(3, 2), F(3, 2))]


def test_canonical_merges_equal_slopes():
    f = PiecewiseAffine([0, 1, 2], [0, 1, 2])
    assert is_affine(f)
    assert f.breakpoints() == ()


_lines = st.lists(
    st.tuples(
        st.integers(min_value=-4, max_value=4),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
    ),
    min_size=1,
    max_size=6,
)
_pts = st.fractions(min_value=0, max_value=1, max_denominator=32)


@given(lines=_lines, x=_pts)
def test_min_envelope_matches_bruteforce(lines, x):
    f = min_of_lines(lines, 0, 1)
    assert f(x) == min(F(a) * x + F(b) for a, b in lines)


@given(lines=_lines, x=_pts)
def test_max_envelope_matches_bruteforce(lines, x):
    f = max_of_lines(lines, 0, 1)
    assert f(x) == max(F(a) * x + F(b) for a, b in lines)


def _pa(lines):
    return min_of_lines(lines, 0, 1)


@given(a=_lines, b=_lines, c=_lines, x=_pts)
def test_combine_assoc_comm(a, b, c, x):
    f, g, h = _pa(a), _pa(b), _pa(c)
    for op, red in (("min", min), ("max", max)):
        fg = pa_combine(op, f, g)
        assert fg == pa_combine(op, g, f)
        left = pa_combine(op, fg, h)
        right = pa_combine(op, f, pa_combine(op, g, h))
        assert left == right
        assert left(x) == red(f(x), g(x), h(x))


@given(a=_lines, b=_lines, x=_pts)
def test_sum_exact(a, b, x):
    f, g = _pa(a), _pa(b)
    assert pa_combine("sum", f, g)(x) == f(x) + g(x)


@st.composite
def _functions(draw):
    """A continuous piecewise-affine function on ``[0, 1]`` with up to four inner knots."""
    inner = st.fractions(min_value=0, max_value=1, max_denominator=8).filter(lambda x: 0 < x < 1)
    xs = [0] + sorted(draw(st.lists(inner, max_size=4, unique=True))) + [1]
    value = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return PiecewiseAffine(xs, draw(st.lists(value, min_size=len(xs), max_size=len(xs))))


@given(f=_functions(), g=_functions())
def test_combine_matches_refined_reference(f, g):
    """The merge equals the validated constructor on the union of knots plus the crossings
    inside each union cell, every value read by ``__call__``; not only concave operands."""
    xs = sorted(set(f.knots) | set(g.knots))
    cross = [a + (b - a) * (f(a) - g(a)) / (f(a) - g(a) - f(b) + g(b))
             for a, b in zip(xs, xs[1:]) if (f(a) - g(a)) * (f(b) - g(b)) < 0]
    xs = sorted(xs + cross)
    for op, red in (("sum", lambda u, w: u + w), ("min", min), ("max", max)):
        want = PiecewiseAffine(xs, [red(f(x), g(x)) for x in xs])
        got = pa_combine(op, f, g)
        assert (got.knots, got.values) == (want.knots, want.values)


@given(lines=_lines, window=st.sampled_from(((0, 1), (-2, 3), (F(1, 3), F(1, 2)))))
def test_min_of_lines_is_canonical(lines, window):
    """The trusted construction is what the validating constructor makes of it."""
    out = min_of_lines(lines, *window)
    again = PiecewiseAffine(out.knots, out.values)
    assert (again.knots, again.values) == (out.knots, out.values)
