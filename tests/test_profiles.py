import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annuli import (
    DiffModule,
    RadiusProfile,
    ValuationConfig,
    build_radius_profile,
    decomposition_loci,
    direct_sum,
    from_companion,
    rank_one,
    swan_breaks,
    verify_variation,
    visible_radii,
)
from annuli.profiles import ProfileCell
from annuli.report import PASS
from annuli.twisted import TwistedPoly
from helpers import by_name, fully_capped

F = Fraction


def make_profile(axis, kind, p, rank, cells):
    pcells = tuple(
        ProfileCell(
            F(lo),
            F(hi),
            tuple((F(s), F(v)) for s, v in vis),
            rank - len(vis),
            (F(0), F(1, p - 1) if p else F(0)),
        )
        for lo, hi, vis in cells
    )
    return RadiusProfile(axis, kind, p, rank, (pcells[0].lo, pcells[-1].hi), pcells)


def test_rank1_extrinsic_profile(cfg2):
    M = rank_one(cfg2, {"t1": cfg2.t(1, -2)})
    prof = build_radius_profile(M, "t1", "t1", (F(1, 2), F(2)))
    assert len(prof.cells) == 1
    c = prof.cells[0]
    assert c.m == 1 and c.capped == 0
    assert c.visible[0] == (F(2), F(2))  # slope 2, value omega + 2r = 2 at r=1/2


def test_trivial_module_capped(cfg2):
    M = DiffModule(cfg2, 2, {"t1": [[cfg2.zero()] * 2 for _ in range(2)]})
    prof = build_radius_profile(M, "intrinsic", "t1", (F(0), F(1)))
    assert fully_capped(prof)


def test_rank2_direct_sum_profile(cfg2):
    M = direct_sum(
        rank_one(cfg2, {"t1": cfg2.t(1, -2)}),
        rank_one(cfg2, {"t1": cfg2.t(1, -3)}),
    )
    prof = build_radius_profile(M, "t1", "t1", (F(1), F(2)))
    assert len(prof.cells) == 1
    c = prof.cells[0]
    assert [s for s, _ in c.visible] == [F(3), F(2)]  # f_1 >= f_2 in log units
    F2 = prof.partial_sum(2)
    assert len(F2) == 1 and F2[0][2] == F(5)


def test_profile_matches_fiberwise(cfg2):
    M = direct_sum(
        rank_one(cfg2, {"t1": cfg2.t(1, -2)}),
        rank_one(cfg2, {"t1": cfg2.t(1, -3) + cfg2.t(1, -2)}),
    )
    prof = build_radius_profile(M, "t1", "t1", (F(1), F(3)))
    rng = random.Random(23)
    for _ in range(50):
        r = F(rng.randint(8, 24), 8)
        vals = prof.eval_visible(r)
        ms = visible_radii(M, "t1", [r])
        assert vals == ms.values()


def test_intrinsic_profile_rank1(cfg2):
    M = rank_one(cfg2, {"t1": cfg2.t(1, -2)})
    prof = build_radius_profile(M, "intrinsic", "t1", (F(1, 2), F(2)))
    c = prof.cells[0]
    assert c.visible[0] == (F(1), F(3, 2))  # omega + tau + sigma = 1 + r at r=1/2


def test_intrinsic_profile_two_axes():
    cfg = ValuationConfig(2, (), 2)
    M = DiffModule(
        cfg,
        1,
        {"t1": [[cfg.t(1, -2)]], "t2": [[cfg.t(2, -3)]]},
        check=False,
    )
    # f^(t1) = 1 + r1, f^(t2) = 1 + 2*r2 = 4 frozen at r2 = 3/2
    prof = build_radius_profile(M, "intrinsic", "t1", (F(1), F(5)), [F(0), F(3, 2)])
    # max(1 + r, 4): crossing at r = 3
    assert prof.eval_visible(F(2)) == [F(4)]
    assert prof.eval_visible(F(4)) == [F(5)]
    bks = {c.lo for c in prof.cells} | {c.hi for c in prof.cells}
    assert F(3) in bks


def test_verify_variation_passes(cfg2):
    M = direct_sum(
        rank_one(cfg2, {"t1": cfg2.t(1, -2)}),
        rank_one(cfg2, {"t1": cfg2.t(1, -3)}),
    )
    prof = build_radius_profile(M, "t1", "t1", (F(1), F(2)))
    rep = verify_variation(prof, "annulus", "geometric", 2)
    assert rep.passed


def test_verify_integrality_failure():
    prof = make_profile(
        "t1", "extrinsic", 2, 1, [(0, 1, [(F(1, 2), F(3))])]
    )
    rep = verify_variation(prof, "annulus", "geometric", 2)
    assert not rep.passed
    assert any(r.name == "integrality" and r.status == "fail" for r in rep.results)


def test_verify_disc_monotonicity_failure():
    prof = make_profile("t1", "extrinsic", 2, 1, [(0, 1, [(1, F(3))])])
    rep = verify_variation(prof, "disc", "geometric", 2)
    assert any(r.name == "monotonicity" and r.status == "fail" for r in rep.results)
    ok = verify_variation(prof, "annulus", "geometric", 2)
    assert all(r.status != "fail" for r in by_name(ok, "monotonicity"))


def test_verify_convexity_failure():
    prof = make_profile(
        "t1", "extrinsic", 2, 1,
        [(0, 1, [(2, F(3))]), (1, 2, [(1, F(5))])],
    )
    rep = verify_variation(prof, "annulus", "geometric", 2)
    assert any(r.name == "convexity" and r.status == "fail" for r in rep.results)


def test_verify_base_axis_levels():
    # base-axis profile with slope 1/2 at level 1: f above p^-1 * omega + w
    prof = RadiusProfile(
        "u1",
        "extrinsic",
        2,
        1,
        (F(0), F(1)),
        (ProfileCell(F(0), F(1), ((F(1, 2), F(3, 4)),), 0, (F(0), F(1))),),
        F(0),
    )
    rep = verify_variation(prof, "annulus", "base", 2)
    assert rep.passed  # 3/4 > 1/2 = p^-1 omega + 0, slope 1/2 in (1/2)Z


def test_decomposition_locus_whole_interior(cfg2):
    M = direct_sum(
        rank_one(cfg2, {"t1": cfg2.t(1, -2)}),
        rank_one(cfg2, {"t1": cfg2.t(1, -3)}),
    )
    prof = build_radius_profile(M, "t1", "t1", (F(1), F(2)))
    loci = decomposition_loci(prof)
    assert (1, (F(1), F(2))) in loci


def test_decomposition_locus_pure_empty(cfg2):
    from annuli import TwistedPoly, from_companion

    M = from_companion(TwistedPoly(cfg2, "t1", [-cfg2.t(1), cfg2.zero(), cfg2.one()]))
    prof = build_radius_profile(M, "t1", "t1", (F(-2), F(-1)))
    assert decomposition_loci(prof) == []


def test_decomposition_locus_crossing(cfg2):
    M = direct_sum(
        rank_one(cfg2, {"t1": cfg2.t(1, -2)}),  # e = 1 + 2r
        rank_one(cfg2, {"t1": cfg2.scalar(4) * cfg2.t(1, -3)}),  # e = 3r - 1
    )
    prof = build_radius_profile(M, "t1", "t1", (F(5, 4), F(3)))
    loci = [iv for i, iv in decomposition_loci(prof) if i == 1]
    assert loci == [(F(5, 4), F(2)), (F(2), F(3))]


def test_swan_single_break():
    prof = make_profile("intrinsic", "intrinsic", 2, 1, [(0, F(1, 2), [(1, 0)])])
    out = swan_breaks(prof)
    assert out.breaks == ((F(1), 1),)
    assert out.report.passed


def test_swan_trivial_p0():
    prof = RadiusProfile(
        "intrinsic",
        "intrinsic",
        0,
        2,
        (F(0), F(1)),
        (ProfileCell(F(0), F(1), (), 2, (F(0), F(0))),),
    )
    out = swan_breaks(prof)
    assert out.breaks == ((F(0), 2),)
    assert out.report.passed


def test_swan_grouped_breaks():
    prof = make_profile(
        "intrinsic", "intrinsic", 2, 3,
        [(0, F(1, 2), [(1, 0), (F(1, 2), 0), (F(1, 2), 0)])],
    )
    out = swan_breaks(prof)
    assert out.breaks == ((F(1), 1), (F(1, 2), 2))
    assert out.report.passed  # 1*1 + 1/2*2 = 2 is an integer


def test_swan_rejects_nonsolvable():
    prof = make_profile("intrinsic", "intrinsic", 2, 1, [(0, 1, [(1, F(1, 3))])])
    with pytest.raises(ValueError, match="not solvable"):
        swan_breaks(prof)


def test_swan_integrality_violation_reported():
    prof = make_profile("intrinsic", "intrinsic", 2, 1, [(0, 1, [(F(1, 2), 0)])])
    out = swan_breaks(prof)
    assert not out.report.passed


def _formal_slopes(points):
    """Slopes of the lower convex hull of ``(i, y_i)``, largest first, each repeated
    once per unit of width; a slope at or below 0 reads as 0."""
    hull = []
    for q in sorted(points):
        while len(hull) >= 2 and ((hull[-1][1] - hull[-2][1]) * (q[0] - hull[-2][0])
                                  >= (q[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])):
            hull.pop()
        hull.append(q)
    slopes = [max(F(b[1] - a[1], b[0] - a[0]), F(0)) for a, b in zip(hull, hull[1:])
              for _ in range(b[0] - a[0])]
    return sorted(slopes, reverse=True)


_laurent_terms = st.dictionaries(st.integers(-6, 1),
                                 st.sampled_from([-2, -1, F(-1, 2), F(1, 3), 1, F(3, 2), 2]),
                                 max_size=3)


# a_0, ..., a_{d-1} of a monic operator of degree d <= 3: a_0 nonzero, the others maybe zero
@settings(max_examples=200, deadline=None)
@given(coeffs=st.integers(1, 3).flatmap(lambda d: st.tuples(
    _laurent_terms.filter(bool), *[_laurent_terms] * (d - 1))))
@example(coeffs=({-6: 1, -5: 4}, {-4: -1, -2: -1}))  # (T - t^-2)(T - t^-4): breaks 3, 1
@example(coeffs=({-3: -1}, {}))  # T^2 - t^-3: 1/2 twice
@example(coeffs=({-4: -1}, {}, {}))  # T^3 - t^-4: 1/3 three times
def test_swan_breaks_at_p0_are_the_formal_slopes(coeffs):
    """At p = 0 the breaks of the companion module of a monic ``sum a_i T^i`` are the
    slopes of the lower hull of ``(i, ord_t(a_i) - i)`` (Malgrange's irregularity)."""
    c = ValuationConfig(0, (), 1)
    P = TwistedPoly(c, "t1", [sum((c.scalar(F(v)) * c.t(1, e) for e, v in a.items()), c.zero())
                              for a in coeffs] + [c.one()])
    out = swan_breaks(build_radius_profile(from_companion(P), "intrinsic", "t1", (F(0), F(1))))
    points = [(i, min(a) - i) for i, a in enumerate(coeffs) if a] + [(len(coeffs), -len(coeffs))]
    assert [b for b, m in out.breaks for _ in range(m)] == _formal_slopes(points)
    assert [r.status for r in by_name(out.report, "break integrality")] == [PASS]


def test_decomposition_loci_maximal(cfg2):
    # endpoints of a reported locus cannot be extended: the gap vanishes there
    M = direct_sum(
        rank_one(cfg2, {"t1": cfg2.t(1, -2)}),
        rank_one(cfg2, {"t1": cfg2.scalar(4) * cfg2.t(1, -3)}),
    )
    prof = build_radius_profile(M, "t1", "t1", (F(5, 4), F(3)))
    for i, (lo, hi) in decomposition_loci(prof):
        if lo != prof.window[0] or hi != prof.window[1]:
            mid_vals = prof.eval_visible(F(2))
            assert mid_vals[i - 1] == mid_vals[i]  # the crossing pins the endpoint


@pytest.mark.parametrize("axis", ["t1", "intrinsic"])
def test_visibility_crossing_inside_a_piece(cfg2, axis):
    # 4 t^-2 turns visible at r = 2 inside an affine piece of its slope function, and
    # the two loci atoms on either side of that cut merge into one
    M = direct_sum(
        rank_one(cfg2, {"t1": cfg2.scalar(4) * cfg2.t(1, -2)}),
        rank_one(cfg2, {"t1": cfg2.t(1, -3)}),
    )
    prof = build_radius_profile(M, axis, "t1", (F(1), F(3)))
    assert [(c.lo, c.hi, c.m) for c in prof.cells] == [(1, 2, 1), (2, 3, 2)]
    assert decomposition_loci(prof) == [(1, (F(1), F(3)))]
