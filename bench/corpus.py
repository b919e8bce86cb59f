"""Seeded corpus generation for the four workloads.

Inputs are plain JSON-able objects in the formats ``annuli.serialize`` reads,
produced from ``random.Random(f"{workload}/{seed}")`` alone, so the same seed
always yields the same inputs.  Each job spec also keeps the planted data the
reference checker needs (coefficients, exponents, windows, sample points).

A workload is a sequence of *rounds*.  Every round holds the same job classes
in the same proportions.  What sets a job's cost (rank, p, exponents, the
p-adic order of coefficients, axis, window, box, level, precision) is its
*shape*: the shape of round ``j`` (input set ``j`` of cli-batch) comes from
``random.Random(f"{workload}/shape/{j}")`` or is rotated by ``j``, the same
for every seed.  The seed picks
the signs of the coefficients, the sample fibers and points, the synthetic
functionals and the order of jobs inside each round.  So every seed runs the
same mix of costs, and runs stay comparable across seeds, while the values the
checker compares differ from seed to seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

F = Fraction

WORKLOADS = ("profile-sweep", "fiber-certify", "slice-reconstruct", "cli-batch")

# Rounds generated (and parsed during set-up) per workload: three to five
# runs' worth at today's speed, so no input repeats within a run until the
# library gets that much faster.  A run that needs more rounds wraps around.
ROUNDS = {"profile-sweep": 64, "fiber-certify": 24, "slice-reconstruct": 32, "cli-batch": 4}


def frac_str(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def term(c, u=(), t=(0,)) -> dict:
    return {"c": frac_str(c), "u": list(u), "t": list(t)}


def module_obj(p, rank, matrices, u_weights=(), n_geom=1) -> dict:
    return {
        "rank": rank,
        "p": p,
        "u_weights": [frac_str(w) for w in u_weights],
        "n_geom": n_geom,
        "matrices": matrices,
    }


def diagonal(entries) -> list:
    """A diagonal matrix of Laurent objects (``None`` is the zero entry)."""
    d = len(entries)
    return [
        [{"terms": entries[i] or []} if i == j else {"terms": []} for j in range(d)]
        for i in range(d)
    ]


def twist_sum_obj(p, twists) -> dict:
    """Direct sum of ``d/dt v = c t^-k v``; a ``None`` twist is the trivial summand."""
    entries = [None if tw is None else [term(tw[0], t=(-tw[1],))] for tw in twists]
    return module_obj(p, len(twists), {"t1": diagonal(entries)})


def coefficient(rng, shape, p, orders=(-1, 0, 1)):
    """``+-base^o`` with ``base = p`` (2 when ``p = 0``): ``rng`` picks the
    sign and ``shape`` the order."""
    return rng.choice((1, -1)) * F(p or 2) ** shape.choice(orders)


def samples(rng, lo, hi, n=3) -> list:
    """Sample points strictly inside ``(lo, hi)`` with denominator 997, which
    no breakpoint of the planted data can have."""
    return [lo + (hi - lo) * F(rng.randint(1, 996), 997) for _ in range(n)]


# -- profile-sweep --------------------------------------------------------------


def _profile_spec(rng, shape, p, summands, axis, base=False, w=0):
    lo = shape.choice((F(1, 4), F(1, 2), F(1)))
    hi = lo + shape.choice((F(1), F(3, 2), F(2)))
    return {
        "kind": "profile",
        "p": p,
        "summands": summands,
        "axis": axis,
        "base": base,
        "w": F(w),
        "window": (lo, hi),
        "samples": samples(rng, lo, hi),
    }


def profile_round(rng, shape, j) -> list:
    ps = (0, 2, 3)
    jobs = []
    # one rank-4 job a round sets the tail: the exponent set {2,3,4,5} in
    # ascending order with unit coefficients, because rank-4 cost varies 2-4x
    # with exponent order and coefficient size and only about sixteen of
    # these fit in a run; p is rotated by round
    p = ps[j % 3]
    twists = [(rng.choice((1, -1)), k) for k in (2, 3, 4, 5)]
    spec = _profile_spec(rng, shape, p, [[tw] for tw in twists], shape.choice(("t1", "intrinsic")))
    spec["module"] = twist_sum_obj(p, twists)
    jobs.append(spec)
    # one rank-3 and two rank-2 sums; with the two rank-one jobs below, the
    # median of a run falls in the middle of the rank-2 jobs
    for rank in (3, 2, 2):
        p = shape.choice(ps)
        twists = [(coefficient(rng, shape, p), k) for k in shape.sample(range(2, 7), rank)]
        spec = _profile_spec(rng, shape, p, [[tw] for tw in twists], shape.choice(("t1", "intrinsic")))
        spec["module"] = twist_sum_obj(p, twists)
        jobs.append(spec)
    # tensor of two rank-one twists: one summand d/dt v = (a1 + a2) v
    p = shape.choice(ps)
    k1, k2 = shape.sample(range(2, 7), 2)
    tw1, tw2 = (coefficient(rng, shape, p), k1), (coefficient(rng, shape, p), k2)
    spec = _profile_spec(rng, shape, p, [[tw1, tw2]], shape.choice(("t1", "intrinsic")))
    spec["factors"] = [twist_sum_obj(p, [tw1]), twist_sum_obj(p, [tw2])]
    jobs.append(spec)
    # base-axis rank one: d/du v = c u^-1 t^-k v with v(u) = w
    p = shape.choice(ps)
    w = shape.choice((F(0), F(1, 2), F(1)))
    c, k = coefficient(rng, shape, p, (-1, 0)), shape.randint(2, 4)
    spec = _profile_spec(rng, shape, p, [[(c, k)]], shape.choice(("u1", "intrinsic")), base=True, w=w)
    spec["module"] = module_obj(p, 1, {"u1": [[{"terms": [term(c, u=(-1,), t=(-k,))]}]]},
                                u_weights=(w,))
    jobs.append(spec)
    rng.shuffle(jobs)
    return jobs


# -- fiber-certify ----------------------------------------------------------------

# (k_low, k_high, order of the low coefficient, r): two visible radii at r
TWO_VISIBLE = ((2, 3, 1, F(2)), (2, 4, 1, F(2)), (2, 3, 2, F(3)))
ROBBA_PAIRS = ((2, 3), (2, 4), (3, 4))


def poly_obj(p, factors) -> dict:
    """Coefficients of ``(T - a1)(T - a2)`` with ``a_i = c_i t^-k_i`` in the
    twisted ring ``T a = a T + a'``: ``T^2 - (a1 + a2) T + a1 a2 - a2'``."""
    (c1, k1), (c2, k2) = factors
    const = [term(c1 * c2, t=(-(k1 + k2),)), term(k2 * c2, t=(-(k2 + 1),))]
    linear = [term(-c1, t=(-k1,)), term(-c2, t=(-k2,))]
    return {"p": p, "u_weights": [], "n_geom": 1, "derivation": "t1",
            "coeffs": [{"terms": const}, {"terms": linear}, {"terms": [term(1)]}]}


def fiber_round(rng, shape, j) -> list:
    ps = (2, 3)
    jobs = []
    for i in range(3):
        p = ps[(j + i) % 2]
        k_lo, k_hi, o, r = TWO_VISIBLE[i]
        twists = [(rng.choice((1, -1)) * p ** o, k_lo), (rng.choice((1, -1)), k_hi)]
        shape.shuffle(twists)
        jobs.append({"kind": "decompose", "p": p, "r": r, "twists": twists,
                     "precision": F(shape.choice((1, 2))), "module": twist_sum_obj(p, twists)})
    for i in range(3):
        p = ps[(j + i + 1) % 2]
        ks = list(ROBBA_PAIRS[i])
        shape.shuffle(ks)
        factors = [(rng.choice((1, -1)), k) for k in ks]
        precision = F(shape.choice(((2, 3), (4, 5), (6, 7))[i]))
        jobs.append({"kind": "robba", "p": p, "r": F(1), "factors": factors,
                     "precision": precision, "poly": poly_obj(p, factors)})
    for i in range(2):
        p = ps[(j + i) % 2]
        twists = [None, (rng.choice((1, -1)), shape.choice((3, 4)))]
        shape.shuffle(twists)
        jobs.append({"kind": "decompose", "p": p, "r": F(1), "twists": twists,
                     "precision": F(shape.choice((2, 4))), "module": twist_sum_obj(p, twists)})
    # five mid-cost spectral jobs hold the median of the round
    for rank, n in ((1, 64), (2, 64), (2, 128)) + ((3, 128),) * 5:
        p = shape.choice(ps)
        twists = [(rng.choice((1, -1)), k) for k in shape.sample(range(2, 5), rank)]
        jobs.append({"kind": "spectral", "p": p, "r": F(1), "twists": twists, "n": n,
                     "module": twist_sum_obj(p, twists)})
    rng.shuffle(jobs)
    return jobs


# -- slice-reconstruct ----------------------------------------------------------------

# exponents (m, n) whose entries are p-adic units, so every summand is visible
# along both axes with the same offset
UNIT_EXPONENTS = {2: ((-1, -1), (-1, -3), (-3, -1)), 3: ((-1, -1), (-1, -2), (-2, -1), (-2, -2))}
# direction pairs of the multidim jobs, rotated by position: axis chords and
# diagonal chords differ in cost by about 2x
DIRECTION_PAIRS = (((1, 0), (0, 1)), ((1, 1), (1, -1)))


def potential_module(p, potentials) -> dict:
    """Direct sum of rank-one pairs ``d/dt_i v = (d phi/dt_i) v``, ``phi = c t1^m t2^n``."""
    t1, t2 = [], []
    for c, (m, n) in potentials:
        t1.append([term(c * m, t=(m - 1, n))])
        t2.append([term(c * n, t=(m, n - 1))])
    return module_obj(p, len(potentials), {"t1": diagonal(t1), "t2": diagonal(t2)}, n_geom=2)


def _potentials(rng, shape, p, rank):
    return [(coefficient(rng, shape, p), e) for e in shape.sample(UNIT_EXPONENTS[p], rank)]


def _box(shape):
    return ((F(1), F(1 + shape.choice((1, 2)))), (F(1), F(1 + shape.choice((1, 2)))))


def _box_points(rng, box, n=4):
    return [tuple(a + (b - a) * F(rng.randint(1, 996), 997) for a, b in box) for _ in range(n)]


def _synthetic(rng, shape):
    """A max of one to four transintegral affine functionals on an axis box.

    ``shape`` picks the box and the number of functionals, ``rng`` the
    functionals and the sample points.

    Constants are integers: with fractional constants ``reconstruct_polyhedral``
    raises on about one valid input in a thousand (``defects.py`` reproduces
    two), which would fail runs at random; with integer constants it
    reconstructed 4000 of 4000.
    """
    lo1, lo2 = F(shape.randint(-3, 0)), F(shape.randint(-3, 0))
    hi1, hi2 = lo1 + shape.randint(2, 4), lo2 + shape.randint(2, 4)
    cons = [((1, 0), -lo1), ((-1, 0), hi1), ((0, 1), -lo2), ((0, -1), hi2)]
    funcs = [((rng.randint(-3, 3), rng.randint(-3, 3)), F(rng.randint(-8, 8)))
             for _ in range(shape.randint(1, 4))]
    pts = []
    while len(pts) < 4:
        x = (lo1 + (hi1 - lo1) * F(rng.randint(1, 996), 997),
             lo2 + (hi2 - lo2) * F(rng.randint(1, 996), 997))
        if all(s[0] * x[0] + s[1] * x[1] + c >= 0 for s, c in cons):
            pts.append(x)
    return {"kind": "synthetic", "domain": cons, "functionals": funcs, "samples": pts}


def slice_round(rng, shape, j) -> list:
    ps = (2, 3)
    jobs = []
    # counts put the median in the rank-1 reconstructions and the tail in
    # the rank-3 multidim jobs
    for i, rank in enumerate((1, 1, 1, 2, 2)):
        p = ps[(j + i) % 2]
        pots = _potentials(rng, shape, p, rank)
        box = _box(shape)
        jobs.append({"kind": "recon", "p": p, "potentials": pots, "box": box,
                     "level": shape.randint(1, rank), "samples": _box_points(rng, box),
                     "module": potential_module(p, pots)})
    for i, rank in enumerate((2, 3, 3)):
        p = ps[(j + i + 1) % 2]
        pots = _potentials(rng, shape, p, rank)
        box = _box(shape)
        slices = []
        for d in DIRECTION_PAIRS[i % 2]:
            point = tuple(a + (b - a) * F(shape.randint(1, 3), 4) for a, b in box)
            slices.append((point, d))
        jobs.append({"kind": "multidim", "p": p, "potentials": pots, "box": box,
                     "slices": slices, "module": potential_module(p, pots)})
    for _ in range(3):
        jobs.append(_synthetic(rng, shape))
    rng.shuffle(jobs)
    return jobs


# -- cli-batch -------------------------------------------------------------------------


def cli_inputs(rng, shape, i) -> dict:
    """One input set: a rank-2 twist sum, a radius multiset, two planted
    products of first-order factors and a synthetic polyhedral function."""
    p = (2, 3)[i % 2]
    k1, k2 = shape.sample(range(2, 6), 2)
    twists = [(coefficient(rng, shape, p, (0, 1)), k1), (coefficient(rng, shape, p, (0, 1)), k2)]
    lo = shape.choice((F(1), F(3, 2)))
    hi = lo + 1
    axis = shape.choice(("t1", "intrinsic"))
    profile = {"kind": "profile", "p": p, "summands": [[tw] for tw in twists], "axis": axis,
               "base": False, "w": F(0), "window": (lo, hi), "samples": samples(rng, lo, hi)}
    entries = [(F(rng.randint(0, 12), rng.randint(1, 6)), rng.randint(1, 2)) for _ in range(2)]
    # two factor calls per round: the slowest command, so it holds the tail
    robbas = []
    for ks in ((2, 3), (2, 4)):
        factors = [(rng.choice((1, -1)), k) for k in ks]
        shape.shuffle(factors)
        robbas.append({"kind": "robba", "p": p, "r": F(1), "factors": factors,
                       "precision": F(shape.choice((2, 3))), "split": F(sum(ks), 2),
                       "poly": poly_obj(p, factors)})
    synth = _synthetic(rng, shape)
    return {
        "p": p,
        "module": twist_sum_obj(p, twists),
        "profile": profile,
        "t1_profile": dict(profile, axis="t1"),
        "multiset": {"p": p, "entries": [[frac_str(v), m] for v, m in entries]},
        "entries": entries,
        "robbas": robbas,
        "synthetic": synth,
        "polyfunc": {
            "domain": {"dim": 2, "constraints": [{"slope": list(s), "const": frac_str(c)}
                                                 for s, c in synth["domain"]]},
            "functionals": [{"slope": list(s), "const": frac_str(c)}
                            for s, c in synth["functionals"]],
        },
    }


ROUND_MAKERS = {"profile-sweep": profile_round, "fiber-certify": fiber_round,
                "slice-reconstruct": slice_round}


def generate(workload: str, seed: int) -> list:
    """All rounds of a workload: a list of job-spec lists (input sets for cli-batch)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-batch":
        return [cli_inputs(rng, random.Random(f"{workload}/shape/{i}"), i)
                for i in range(ROUNDS[workload])]
    make = ROUND_MAKERS[workload]
    return [make(rng, random.Random(f"{workload}/shape/{j}"), j) for j in range(ROUNDS[workload])]
