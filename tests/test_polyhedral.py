import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annuli import (
    AffineFunctional,
    DiffModule,
    PolyFunc,
    TRPSet,
    UnimodularMatrix,
    ValuationConfig,
    angle_cone,
    direct_sum,
    multidim_loci,
    multidim_profile,
    rank_one,
    reconstruct_polyhedral,
    small_cone,
    synthetic_oracle,
    toroidal_pullback,
    unimodular_completion,
    visible_radii,
)
from annuli.polyhedral import OracleInconsistency, _complex_edges
from annuli.pwaffine import PiecewiseAffine
from helpers import fiber_to_source, fiber_to_target

F = Fraction

SQUARE = TRPSet.box([(-1, 1), (-1, 1)])
UNIT = TRPSet.box([(0, 1), (0, 1)])
SIMPLEX = TRPSet.make(
    [
        AffineFunctional((1, 0), 0),
        AffineFunctional((0, 1), 0),
        AffineFunctional((-1, -1), 1),
    ],
    2,
)


def test_membership_examples():
    assert UNIT.contains((F(0), F(0)))
    assert not UNIT.strictly_contains((F(0), F(0)))
    assert SIMPLEX.strictly_contains((F(1, 3), F(1, 3)))
    assert not SIMPLEX.contains((F(2), F(0)))


def test_angle_cone_interior_is_everything():
    cone = angle_cone(UNIT, (F(1, 2), F(1, 2)))
    assert cone.constraints == ()
    assert cone.contains((F(100), F(-100)))


def test_angle_cone_corner():
    cone = angle_cone(UNIT, (F(0), F(0)))
    assert cone.contains((F(1), F(2)))
    assert not cone.contains((F(-1), F(1)))


def test_angle_cone_requires_membership():
    with pytest.raises(ValueError):
        angle_cone(UNIT, (F(2), F(0)))


def test_small_cone_of_simplex_is_origin():
    cone = small_cone(SIMPLEX)
    assert cone.contains((F(0), F(0)))
    for z in ((1, 0), (0, 1), (1, 1), (-1, 2)):
        assert not cone.contains(z)


def test_small_cone_inside_angle_cone():
    C = TRPSet.make(
        [AffineFunctional((1, 0), 0), AffineFunctional((0, 1), F(1, 2))], 2
    )
    x = (F(0), F(1))
    sc, ac = small_cone(C), angle_cone(C, x)
    for z in ((0, 1), (1, 0), (2, 3), (0, -1), (-1, 0)):
        if sc.contains(z):
            assert ac.contains(z)


def test_compactness():
    assert SQUARE.is_compact()
    assert SIMPLEX.is_compact()
    half = TRPSet.make([AffineFunctional((1, 0), 0)], 2)
    assert not half.is_compact()


# -- reconstruction -----------------------------------------------------------


def test_reconstruct_three_functionals():
    g = PolyFunc.make([((1, 0), 0), ((0, 1), 0), ((0, 0), 0)])
    oracle = synthetic_oracle(g, SQUARE)
    got = reconstruct_polyhedral(SQUARE, oracle)
    assert len(got.functionals) == 3
    assert set(got.functionals) == set(g.functionals)


def test_reconstruct_affine():
    g = PolyFunc.make([((2, -1), F(1, 3))])
    oracle = synthetic_oracle(g, SQUARE)
    got = reconstruct_polyhedral(SQUARE, oracle)
    assert got.functionals == g.functionals


def test_reconstruct_transintegral_constant():
    g = PolyFunc.make([((1, 0), F(1, 2)), ((0, 2), 0)])
    oracle = synthetic_oracle(g, SIMPLEX)
    got = reconstruct_polyhedral(SIMPLEX, oracle)
    assert set(got.functionals) == set(g.functionals)
    rng = random.Random(1)
    for _ in range(50):
        x = (F(rng.randint(0, 8), 16), F(rng.randint(0, 8), 16))
        if SIMPLEX.contains(x):
            assert got(x) == g(x)


def test_reconstruct_dimension_one():
    C = TRPSet.box([(0, 3)])
    g = PolyFunc.make([((1,), 0), ((-1,), 2), ((0,), F(3, 2))])
    oracle = synthetic_oracle(g, C)
    got = reconstruct_polyhedral(C, oracle)
    for k in range(13):
        x = (F(k, 4),)
        assert got(x) == g(x)


def test_reconstruct_random_roundtrip():
    rng = random.Random(99)
    for trial in range(6):
        fs = []
        for _ in range(rng.randint(1, 5)):
            fs.append(
                (
                    (rng.randint(-3, 3), rng.randint(-3, 3)),
                    F(rng.randint(-6, 6), rng.randint(1, 4)),
                )
            )
        g = PolyFunc.make(fs)
        oracle = synthetic_oracle(g, SQUARE)
        got = reconstruct_polyhedral(SQUARE, oracle)
        for _ in range(60):
            x = (F(rng.randint(-16, 16), 16), F(rng.randint(-16, 16), 16))
            assert got(x) == g(x)


def test_reconstruct_rejects_noninteger_slope():
    g = PolyFunc.make([(((0, 0)), 0)])
    bad = PolyFunc.make([((1, 0), 0)])

    def oracle(point, direction):
        # a slice with half-integer slope: inconsistent with transintegrality
        pa = synthetic_oracle(bad, SQUARE)(point, direction)
        return PiecewiseAffine(pa.knots, [v / 2 for v in pa.values])

    with pytest.raises(OracleInconsistency):
        reconstruct_polyhedral(SQUARE, oracle)


def box(x0, x1, y0, y1):
    return [((1, 0), -x0), ((-1, 0), x1), ((0, 1), -y0), ((0, -1), y1)]


def sample_points(C, rng, count):
    """Random convex combinations of the corners of ``C``."""
    vs = C.vertices()
    for _ in range(count):
        w = [F(rng.randint(0, 16)) for _ in vs]
        tot = sum(w) or F(1)
        yield tuple(sum(wi * v[i] for wi, v in zip(w, vs)) / tot for i in range(C.dim))


@pytest.mark.parametrize(
    "constraints, functionals",
    [
        (box(0, 3, -2, 2), [((-2, -3), F(-8, 3)), ((1, 1), F(-5, 4)), ((3, 3), F(-4)),
                            ((-3, -2), F(3, 2))]),
        (box(-1, 3, 0, 2) + [((2, 1), F(-1))], [((0, 0), F(-1, 2)), ((1, 1), F(-1, 4)),
                                                 ((0, -3), F(1, 2)), ((-3, 3), F(5, 2))]),
    ],
    ids=["box", "box_cut"],
)
def test_reconstruct_when_first_nudge_lands_in_a_known_cell(constraints, functionals):
    # the first smooth nudge at a discrepancy point has a known gradient
    C = TRPSet.make(constraints, 2)
    g = PolyFunc.make(functionals)
    got = reconstruct_polyhedral(C, synthetic_oracle(g, C))
    for x in sample_points(C, random.Random(7), 100):
        assert got(x) == g(x)


def test_canonical_on_drops_duplicates():
    x, minus_x = ((1, 0), 0), ((-1, 0), 0)
    assert (PolyFunc.make([x, x, minus_x]).canonical_on(SQUARE)
            == PolyFunc.make([x, minus_x]).canonical_on(SQUARE))


def test_segment_cell_is_dropped_and_kept_as_an_edge():
    # the cell of the constant 0 in max(x, -x, 0) is the segment x = 0
    F3 = PolyFunc.make([((1, 0), 0), ((-1, 0), 0), ((0, 0), 0)])
    assert F3.canonical_on(SQUARE) == PolyFunc.make([((-1, 0), 0), ((1, 0), 0)])
    assert ((0, -1), (0, 1)) in _complex_edges(F3, SQUARE)


def test_vertices_run_counter_clockwise_from_the_least_corner():
    assert SQUARE.vertices() == [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    assert SIMPLEX.vertices() == [(0, 0), (1, 0), (0, 1)]
    assert TRPSet.make(box(0, 2, 0, 0), 2).vertices() == [(0, 0), (2, 0)]
    assert TRPSet.make(box(1, 1, 0, 0), 2).vertices() == [(1, 0)]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


half_planes = st.tuples(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda s: s != (0, 0)),
    st.fractions(-6, 6, max_denominator=3),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 0), st.integers(-3, 0), st.integers(1, 4), st.integers(1, 4),
       st.lists(half_planes, max_size=3))
def test_vertices_are_the_convex_hull_of_the_crossings(x0, y0, w, h, cuts):
    C = TRPSet.make(box(x0, x0 + w, y0, y0 + h) + cuts, 2)
    vs = C.vertices()
    assert len(set(vs)) == len(vs) and all(C.contains(v) for v in vs)
    n = len(vs)
    if n >= 3:
        assert all(_cross(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) > 0 for i in range(n))
    cs = C.constraints
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            (a1, b1), c1 = cs[i].slope, cs[i].const
            (a2, b2), c2 = cs[j].slope, cs[j].const
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = ((-c1 * b2 + c2 * b1) / det, (-a1 * c2 + a2 * c1) / det)
            if not C.contains(x):
                continue
            if n >= 3:
                assert all(_cross(vs[k], vs[(k + 1) % n], x) >= 0 for k in range(n))
            else:  # on the segment or at the point
                assert _cross(vs[0], vs[-1], x) == 0 and min(vs) <= x <= max(vs)
    area2 = sum(_cross((0, 0), vs[k], vs[(k + 1) % n]) for k in range(n))
    assert (n >= 3) == (area2 > 0)


# -- unimodular machinery -------------------------------------------------------


def test_unimodular_validation():
    with pytest.raises(ValueError):
        UnimodularMatrix.make([[2, 0], [0, 1]])
    A = UnimodularMatrix.make([[1, 1], [0, 1]])
    assert A.inverse().rows == ((1, -1), (0, 1))


def test_unimodular_completion_small():
    for vec in [(1, 0), (0, 1), (2, 3), (-3, 5), (4, -7), (5, 3)]:
        A = unimodular_completion(vec)
        assert A.rows[0] == vec
        assert abs(A.det()) == 1


def test_unimodular_completion_dim3():
    for vec in [(1, 2, 3), (2, -3, 5), (6, 10, 15)]:
        A = unimodular_completion(vec)
        assert A.rows[0] == vec
        assert abs(A.det()) == 1
    with pytest.raises(ValueError):
        unimodular_completion((2, 4))


def _leibniz_det(rows):
    """Sum over permutations of the permutation's sign times the chosen entries."""
    n = len(rows)
    return sum((-1) ** sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n))
               * prod(rows[i][s[i]] for i in range(n)) for s in permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 4).flatmap(lambda n: st.lists(
           st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)),
       k=st.one_of(st.none(), st.integers(-1, 1)))
@example(rows=[[0, 2], [1, 0]], k=None)
@example(rows=[[1, 2, 3], [2, 4, 7], [0, 1, 1]], k=None)
def test_det_is_the_leibniz_sum(rows, k):
    if k is not None and rows:  # singular: the last row k times the first, or zero
        rows[-1] = [k * x for x in rows[0]]
    assert UnimodularMatrix(tuple(map(tuple, rows))).det() == _leibniz_det(rows)


@st.composite
def _elementary_products(draw):
    """A product of elementary integer matrices: row additions, swaps and negations."""
    n = draw(st.integers(1, 4))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 10))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            q = draw(st.integers(-3, 3))
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-a for a in rows[i]]
    return UnimodularMatrix(tuple(map(tuple, rows)))


@settings(max_examples=100, deadline=None)
@given(A=_elementary_products())
def test_inverse_is_two_sided(A):
    identity = UnimodularMatrix.identity(A.n)
    assert A.mul(A.inverse()) == identity and A.inverse().mul(A) == identity


@pytest.mark.parametrize("rows, det", [([[0, 2], [1, 0]], -2), ([[2, 1], [1, 3]], 5),
                                       ([[1, 2], [2, 4]], 0), ([[-3]], -3)])
def test_make_and_inverse_name_the_signed_determinant(rows, det):
    with pytest.raises(ValueError, match=f"^determinant {det} is not"):
        UnimodularMatrix.make(rows)
    with pytest.raises(ValueError, match=f"^determinant {det} is not"):
        UnimodularMatrix(tuple(map(tuple, rows))).inverse()


def _bimonomial(cfg, a, b):
    return DiffModule(
        cfg,
        1,
        {"t1": [[cfg.scalar(a) * cfg.t(1, -1)]], "t2": [[cfg.scalar(b) * cfg.t(2, -1)]]},
        check=False,
    )


def test_toroidal_identity():
    cfg = ValuationConfig(2, (), 2)
    M = _bimonomial(cfg, F(1, 2), F(1, 4))
    A = UnimodularMatrix.identity(2)
    M2 = toroidal_pullback(M, A)
    assert M2.matrices["t1"][0][0] == M.matrices["t1"][0][0]
    assert M2.matrices["t2"][0][0] == M.matrices["t2"][0][0]


def test_toroidal_chain_rule():
    cfg = ValuationConfig(2, (), 2)
    a, b = F(1, 2), F(1, 4)
    M = _bimonomial(cfg, a, b)
    A = UnimodularMatrix.make([[1, 1], [0, 1]])
    M2 = toroidal_pullback(M, A)
    assert M2.matrices["t1"][0][0] == cfg.scalar(a + b) * cfg.t(1, -1)
    assert M2.matrices["t2"][0][0] == cfg.scalar(b) * cfg.t(2, -1)


def test_toroidal_composition():
    cfg = ValuationConfig(3, (), 2)
    M = _bimonomial(cfg, F(1, 3), F(2, 9))
    A = UnimodularMatrix.make([[1, 1], [0, 1]])
    B = UnimodularMatrix.make([[1, 0], [1, 1]])
    # applying A then B composes to the product with B acting last
    lhs = toroidal_pullback(toroidal_pullback(M, A), B)
    rhs = toroidal_pullback(M, B.mul(A))
    for ax in ("t1", "t2"):
        assert lhs.matrices[ax][0][0] == rhs.matrices[ax][0][0]


def test_tame_and_toroidal_pullbacks_agree():
    from annuli import tame_pullback

    cfg = ValuationConfig(3, (F(1, 2),), 2)
    u1, t1, t2 = cfg.u(1), cfg.t(1), cfg.t(2)
    # the connection d(f) of f = 2 u1 t1^-1 + t2^-2 + u1^2 t1
    M = rank_one(cfg, {
        "u1": cfg.scalar(2) * t1 ** -1 + cfg.scalar(2) * u1 * t1,
        "t1": cfg.scalar(-2) * u1 * t1 ** -2 + u1 ** 2,
        "t2": cfg.scalar(-2) * t2 ** -3,
    })
    tame = tame_pullback(M, "t2", -1)
    toroidal = toroidal_pullback(M, UnimodularMatrix.make([[1, 0], [0, -1]]))
    for ax in ("u1", "t1", "t2"):
        assert tame.matrices[ax][0][0] == toroidal.matrices[ax][0][0]
    assert toroidal.matrices["u1"][0][0] == M.matrices["u1"][0][0]
    assert toroidal.matrices["t2"][0][0] == cfg.scalar(2) * t2  # d(s^2)/ds


def test_toroidal_intrinsic_invariance():
    from annuli import intrinsic_radius_multi

    cfg = ValuationConfig(2, (), 2)
    M = _bimonomial(cfg, F(1, 2), F(1, 4))
    mats = [
        UnimodularMatrix.make([[1, 1], [0, 1]]),
        UnimodularMatrix.make([[2, 1], [1, 1]]),
        UnimodularMatrix.make([[1, 0], [3, 1]]),
    ]
    r = (F(1), F(2))
    before = intrinsic_radius_multi(M, list(r))
    for A in mats:
        MA = toroidal_pullback(M, A)
        rho = fiber_to_source(A, r)
        assert fiber_to_target(A, rho) == r
        after = intrinsic_radius_multi(MA, list(rho))
        assert before.value == after.value and not after.capped


def test_multidim_axis_slices_match_closed_form():
    cfg = ValuationConfig(2, (), 2)
    M = _bimonomial(cfg, F(1, 2), F(1, 4))
    C = TRPSet.box([(1, 2), (1, 2)])
    rep = multidim_profile(
        M, C, [((F(1), F(1)), (1, 0)), ((F(1), F(1)), (0, 1))], axis="intrinsic"
    )
    assert rep.verdict
    # intrinsic value is constant max(1 + ord(1/2)... ) = max(2, 3) = 3
    for s in rep.slices:
        for c in s.profile.cells:
            assert c.visible[0] == (F(0), F(3))


def test_multidim_diagonal_slice():
    cfg = ValuationConfig(2, (), 2)
    M = _bimonomial(cfg, F(1, 2), F(1, 4))
    C = TRPSet.box([(1, 2), (1, 2)])
    rep = multidim_profile(M, C, [((F(1), F(1)), (1, 1))], axis="intrinsic")
    assert rep.verdict
    c = rep.slices[0].profile.cells[0]
    assert c.visible[0][1] == F(3) and c.visible[0][0] == F(0)


def test_multidim_rejects_bad_directions():
    cfg = ValuationConfig(2, (), 2)
    M = _bimonomial(cfg, F(1, 2), F(1, 4))
    C = TRPSet.box([(1, 2), (1, 2)])
    with pytest.raises(ValueError, match="primitive"):
        multidim_profile(M, C, [((F(1), F(1)), (2, 2))])
    with pytest.raises(ValueError, match="outside"):
        multidim_profile(M, C, [((F(5), F(5)), (1, 0))])


def test_multidim_loci_complete():
    cfg = ValuationConfig(2, (), 2)
    M1 = _bimonomial(cfg, F(1, 2), F(1, 4))
    M2 = _bimonomial(cfg, F(1, 8), F(1, 16))
    M = direct_sum(M1, M2)
    C = TRPSet.box([(1, 2), (1, 2)])
    rep = multidim_profile(
        M, C, [((F(1), F(1)), (1, 0)), ((F(1), F(1)), (0, 1)), ((F(1), F(1)), (1, 1))]
    )
    loci = multidim_loci(rep)
    entry = [e for e in loci if e["index"] == 1]
    assert entry and entry[0]["complete"]


def test_multidim_loci_empty_for_pure():
    cfg = ValuationConfig(2, (), 2)
    M1 = _bimonomial(cfg, F(1, 2), F(1, 4))
    M = direct_sum(M1, M1)
    C = TRPSet.box([(1, 2), (1, 2)])
    rep = multidim_profile(M, C, [((F(1), F(1)), (1, 0))])
    assert multidim_loci(rep) == []


def _potential_twist(cfg, coeff, m, n):
    """Rank-1 integrable pair from the potential coeff * t1^m t2^n."""
    N1 = cfg.scalar(coeff * m) * cfg.monomial(1, t=(m - 1, n)) if m else cfg.zero()
    N2 = cfg.scalar(coeff * n) * cfg.monomial(1, t=(m, n - 1)) if n else cfg.zero()
    return DiffModule(cfg, 1, {"t1": [[N1]], "t2": [[N2]]})


def test_multidim_loci_crossing_hyperplane():
    cfg = ValuationConfig(2, (), 2)
    # intrinsic values 1 + 3 + r1 and 1 + 1 + r2: they cross along r2 = r1 + 2
    A = _potential_twist(cfg, F(-1, 8), -1, 0)
    B = _potential_twist(cfg, F(-1, 2), 0, -1)
    M = direct_sum(A, B)
    C = TRPSet.box([(1, 4), (1, 4)])
    rep = multidim_profile(
        M,
        C,
        [((F(1), F(1)), (0, 1)), ((F(3, 2), F(1)), (0, 1))],
        axis="intrinsic",
    )
    loci = multidim_loci(rep)
    entry = [e for e in loci if e["index"] == 1]
    assert entry and not entry[0]["complete"]
    for idx, ivs in entry[0]["slices"]:
        base = rep.slices[idx].base_point
        crossing = base[0] + 2 - 1  # slice parameter where r2 = r1 + 2
        assert [iv for iv in ivs] == [(F(0), crossing), (crossing, F(3))]


def test_module_backed_reconstruction():
    from annuli.polyhedral import module_slice_oracle

    cfg = ValuationConfig(2, (), 2)
    # intrinsic F_1 = 4 + r1 over the region (potential (1/8) t1^-1)
    M = _potential_twist(cfg, F(-1, 8), -1, 0)
    C = TRPSet.box([(1, 3), (1, 3)])
    oracle = module_slice_oracle(M, C, level=1, scale=1)
    got = reconstruct_polyhedral(C, oracle)
    assert got.functionals == (AffineFunctional((1, 0), F(4)),)


def test_slice_oracle_memo_matches_fresh_oracles(monkeypatch):
    """One oracle reuses its pullback and charpolys per direction and its profile per
    chord: a chord queried from two of its points, and one direction at two offsets,
    give what a fresh oracle gives; one reconstruction runs ``cyclic_vector`` at most
    once per direction and axis; a capped chord raises on every query."""
    import annuli.modules
    import annuli.polyhedral as poly
    import annuli.profiles

    cfg = ValuationConfig(2, (), 2)
    M = direct_sum(_potential_twist(cfg, F(-1, 8), -1, 0), _potential_twist(cfg, F(-1, 2), 0, -1))
    C = TRPSet.box([(1, 4), (1, 4)])
    oracle = poly.module_slice_oracle(M, C, level=1, scale=2)
    queries = [((F(3, 2), F(5, 2)), (1, 1)), ((F(3), F(4)), (1, 1)),  # one chord
               ((F(5, 2), F(3, 2)), (1, 1)), ((F(2), F(2)), (1, 0)), ((F(2), F(3)), (1, 0))]
    for point, direction in queries + queries[::-1]:
        assert oracle(point, direction) == poly.module_slice_oracle(M, C, 1, 2)(point, direction)
    chord = [((F(3, 2), F(5, 2)), (1, 1)), ((F(3), F(4)), (1, 1))]
    sliced = multidim_profile(M, C, chord).slices
    assert sliced == [multidim_profile(M, C, [q]).slices[0] for q in chord]
    assert sliced[0].profile is sliced[1].profile

    calls, directions = [], set()
    counted = annuli.modules.cyclic_vector

    def counting(module, axis):
        calls.append(axis)
        return counted(module, axis)

    for mod in (poly, annuli.profiles):
        monkeypatch.setattr(mod, "cyclic_vector", counting)
    fresh = poly.module_slice_oracle(M, C, level=1, scale=2)

    def recording(point, direction):
        directions.add(tuple(direction))
        return fresh(point, direction)

    got = reconstruct_polyhedral(C, recording)
    assert 0 < len(calls) <= len(directions) * len(M.axes())
    # a new oracle for every query keeps no memo
    assert got == reconstruct_polyhedral(C, lambda x, a: poly.module_slice_oracle(M, C, 1, 2)(x, a))

    low = TRPSet.box([(-6, 0), (-6, 0)])
    capped = poly.module_slice_oracle(M, low, level=1)
    for point in [(F(-11, 2), F(-11, 2)), (F(-11, 2), F(-11, 2)), (F(-1), F(-11, 2))]:  # one chord
        with pytest.raises(ValueError, match="capped"):
            capped(point, (1, 0))
    assert capped((F(-1, 2), F(-1, 2)), (1, 0)) == poly.module_slice_oracle(M, low, 1)(
        (F(-1, 2), F(-1, 2)), (1, 0))
