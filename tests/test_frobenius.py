import random
from fractions import Fraction

import pytest

from annuli import (
    check_push_pull_laws,
    frob_antecedent,
    frob_pull,
    frob_push,
    rotation_radius,
    wn_radius,
)
from annuli.frobenius import PureValueError
from annuli.modules import RadiiMultiset
from helpers import by_name

F = Fraction


def ms(*pairs):
    return RadiiMultiset.make([(F(v), m, False) for v, m in pairs], "intrinsic")


def test_push_below_threshold():
    out = frob_push(ms((F(1, 2), 1)), 2)
    assert out == ms((1, 1), (2, 1))


def test_push_above_threshold():
    out = frob_push(ms((2, 1)), 2)
    assert out == ms((3, 2))


def test_push_trivial_p3():
    out = frob_push(ms((0, 1)), 3)
    assert out == ms((0, 1), (F(3, 2), 2))


def test_push_total_multiplicity():
    rng = random.Random(5)
    for p in (2, 3, 5):
        entries = [(F(rng.randint(0, 40), rng.randint(1, 12)), rng.randint(1, 3)) for _ in range(6)]
        s = ms(*entries)
        out = frob_push(s, p)
        assert out.rank == p * s.rank


def test_push_min_law():
    # min of output = min(input_min + 1, p/(p-1)) in log form: the top entry
    # of the output is max(input_top + 1, p/(p-1)) since log values flip min/max
    for p in (2, 3, 5):
        for f in (F(0), F(1, p), F(1, p - 1), F(3)):
            out = frob_push(ms((f, 1)), p)
            top = out.top()[0]
            assert top == max(f + 1, F(p, p - 1))


def test_pull_formula():
    assert frob_pull(ms((3, 1)), 2) == ms((2, 1))
    assert frob_pull(ms((1, 1)), 2) == ms((F(1, 2), 1))


def test_pull_pure_value_refused():
    with pytest.raises(PureValueError):
        frob_pull(ms((2, 1)), 2)


def test_pull_rejects_p0():
    with pytest.raises(ValueError):
        frob_pull(ms((1, 1)), 0)


def test_antecedent():
    assert frob_antecedent(ms((F(1, 4), 1)), 3) == ms((F(3, 4), 1))
    assert frob_antecedent(ms((0, 1)), 2) == ms((0, 1))
    with pytest.raises(ValueError):
        frob_antecedent(ms((1, 1)), 2)


def test_antecedent_inverts_pull():
    for p in (2, 3):
        thr = F(1, p - 1)
        for f in (F(0), thr / 3, thr / 2, thr * F(9, 10)):
            pulled = frob_pull(ms((f * p, 1)), p) if f * p != F(p, p - 1) else None
            # strict antecedent regime: f' = p f < p/(p-1) i.e. f < 1/(p-1)
            back = frob_pull(frob_antecedent(ms((f, 1)), p), p)
            assert back == ms((f, 1))


def test_wn_values():
    assert wn_radius(0, 5) == 0
    assert wn_radius(1, 2) == 2
    assert wn_radius(4, 5) == F(5, 4)
    with pytest.raises(ValueError):
        wn_radius(5, 5)


def test_transform_monotonicity():
    rng = random.Random(17)
    p = 3
    for _ in range(40):
        a = F(rng.randint(0, 30), rng.randint(1, 10))
        b = a + F(rng.randint(0, 10), rng.randint(1, 10))
        pa, pb = frob_push(ms((a, 1)), p), frob_push(ms((b, 1)), p)
        va = sorted(v for v, m, _ in pa.entries for _ in range(m))
        vb = sorted(v for v, m, _ in pb.entries for _ in range(m))
        assert all(x <= y for x, y in zip(va, vb))


def test_rotation_single_axis():
    assert rotation_radius({"t1": F(0)}, F(2), F(1)) == 2


def test_rotation_all_equal():
    f = F(3, 2)
    assert rotation_radius({"t1": f, "u1": f, "u2": f}, F(1), F(1)) == f + 1


def test_rotation_base_axis_scale():
    # geometric contributes f + r, base axes f + r_plus; the result is the max
    assert rotation_radius({"t1": F(1), "u1": F(0)}, F(0), F(0)) == 1
    assert rotation_radius({"t1": F(0), "u1": F(2)}, F(1), F(0)) == 2
    with pytest.raises(ValueError):
        rotation_radius({}, F(0), F(0))


def test_laws_pass_away_from_pure():
    rep = check_push_pull_laws(ms((3, 1)), 2)
    pulls = by_name(rep, "pull of push")
    assert pulls and all(r.status == "pass" for r in pulls)


def test_laws_composition_below_threshold():
    rep = check_push_pull_laws(ms((F(1, 2), 1)), 2)
    # push meets the pure value, so pull-of-push is reported ambiguous,
    # while push-of-pull verifies against the twist prediction
    assert by_name(rep, "pull of push")[0].status == "ambiguous"
    assert by_name(rep, "push of pull")[0].status == "pass"


def test_laws_pure_value_flagged():
    rep = check_push_pull_laws(ms((2, 1)), 2)
    assert by_name(rep, "push of pull")[0].status == "ambiguous"
