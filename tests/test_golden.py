"""Byte-for-byte golden outputs of the CLI and of a few exact library results.

The files under ``tests/golden/`` were written once by running this file as a
script (``PYTHONPATH=src python tests/test_golden.py``) and are never edited
afterwards: a refactor that claims "same behaviour" must reproduce them
exactly.  The library goldens are ``repr`` strings, which show the stored
``num``/``den`` of every fraction, so they also catch a change of operation
order that equal values would hide.
"""

import json
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from annuli import ValuationConfig, direct_sum, rank_one
from annuli import serialize as ser
from annuli.cli import main
from annuli.modules import (DiffModule, cyclic_vector, decompose_fiber, from_companion,
                            iterate_Dn, spectral_valuation_estimate)
from annuli.polyhedral import (TRPSet, UnimodularMatrix, _slice_report, multidim_profile,
                               unimodular_completion)
from annuli.profiles import ProfileCell, RadiusProfile, build_radius_profile, verify_variation
from annuli.twisted import TwistedPoly, robba_factor, twisted_mul, verify_newton_properties
from helpers import fiber_to_source

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

GEOM = ["--axis", "t1", "--geom", "t1"]

# name -> argv; "@name" stands for the input file tests/golden/inputs/name.json
CLI_CASES = {
    "radii_rank1_csv": ["radii", "--input", "@rank1", *GEOM, "--window", "1/2", "2"],
    "radii_twist2_json": ["radii", "--input", "@twist2", *GEOM, "--window", "1", "2",
                          "--format", "json"],
    "radii_twist2_intrinsic_json": ["radii", "--input", "@twist2", "--window", "1/2", "5/2",
                                    "--format", "json"],
    "radii_twist2_svg": ["radii", "--input", "@twist2", *GEOM, "--window", "1", "2",
                         "--format", "svg"],
    "radii_twist3_p3_csv": ["radii", "--input", "@twist3_p3", *GEOM, "--window", "1/2", "3"],
    "radii_upper2_csv": ["radii", "--input", "@upper2", *GEOM, "--window", "0", "2"],
    "radii_base_u1_csv": ["radii", "--input", "@base_u1", "--axis", "u1", "--geom", "t1",
                          "--window", "0", "2"],
    "radii_base_intrinsic_csv": ["radii", "--input", "@base_u1", "--window", "0", "2"],
    "verify_twist2": ["verify", "--input", "@twist2", *GEOM, "--window", "1", "2"],
    "verify_upper2_disc": ["verify", "--input", "@upper2", "--window", "0", "2",
                           "--mode", "disc"],
    "verify_bad_profile": ["verify", "--input", "@bad_profile", "--mode", "disc"],
    "frobenius_push": ["frobenius", "--input", "@multiset_p3", "--op", "push"],
    "frobenius_pull": ["frobenius", "--input", "@multiset_p3", "--op", "pull"],
    "frobenius_pull_pure": ["frobenius", "--input", "@multiset_p2", "--op", "pull"],
    "frobenius_antecedent": ["frobenius", "--input", "@multiset_small_p3", "--op", "antecedent"],
    "frobenius_laws": ["frobenius", "--input", "@multiset_p2", "--op", "laws"],
    "factor_twisted": ["factor", "--input", "@poly_twisted", "--fiber", "1", "--split", "1",
                       "--precision", "10"],
    "factor_robba": ["factor", "--input", "@poly_robba", "--fiber", "1", "--split", "5/2",
                     "--precision", "3"],
    "factor_pure": ["factor", "--input", "@poly_pure", "--fiber", "1", "--split=-1/2",
                    "--precision", "10"],
    "polyhedral_synthetic": ["polyhedral", "--input", "@polyfunc"],
    "polyhedral_rank1_module": ["polyhedral", "--input", "@polyfunc_rank1_module"],
    "polyhedral_rank2_module": ["polyhedral", "--input", "@polyfunc_rank2_module"],
    "loci_twist2": ["loci", "--input", "@twist2", *GEOM, "--window", "1", "2"],
    "loci_upper2": ["loci", "--input", "@upper2", *GEOM, "--window", "0", "2"],
    "loci_directions": ["loci", "--input", "@loci_directions"],
}


def _argv(name):
    return [str(INPUTS / f"{a[1:]}.json") if a.startswith("@") else a for a in CLI_CASES[name]]


# -- library goldens ---------------------------------------------------------------


def _cfg(p, u=(), n=1):
    return ValuationConfig(p, u, n)


def _charpoly(M, axis):
    return repr(cyclic_vector(M, axis)[1])


def lib_twist2_charpoly():
    c = _cfg(2)
    M = direct_sum(rank_one(c, {"t1": c.t(1, -2)}), rank_one(c, {"t1": -c.t(1, -3)}))
    return _charpoly(M, "t1")


def lib_upper2_charpoly():
    c = _cfg(2)
    N = [[c.t(1, -2), c.one()], [c.zero(), c.t(1, -3) + c.scalar(2) * c.t(1, -1)]]
    return _charpoly(DiffModule(c, 2, {"t1": N}), "t1")


def lib_twist3_p3_charpoly():
    c = _cfg(3)
    M = direct_sum(
        direct_sum(rank_one(c, {"t1": c.t(1, -2)}), rank_one(c, {"t1": c.scalar(2) * c.t(1, -3)})),
        rank_one(c, {"t1": c.scalar(F(1, 3)) * c.t(1, -4)}),
    )
    return _charpoly(M, "t1")


def lib_two_variable_charpolys():
    c = _cfg(2, (), 2)
    t1, t2 = c.t(1), c.t(2)

    def pot(k, m, n):  # d/dt_i of k t1^m t2^n
        return {"t1": c.scalar(k * m) * t1 ** (m - 1) * t2 ** n,
                "t2": c.scalar(k * n) * t1 ** m * t2 ** (n - 1)}

    M = direct_sum(rank_one(c, pot(1, -1, -1)), rank_one(c, pot(-1, -1, -3)))
    return "\n".join(_charpoly(M, a) for a in ("t1", "t2"))


def lib_decompose_fiber():
    c = _cfg(2)
    M = direct_sum(DiffModule(c, 1, {"t1": [[c.zero()]]}), rank_one(c, {"t1": c.t(1, -4)}))
    return repr(decompose_fiber(M, "t1", [F(1, 2)], F(3)))


def lib_robba_trace():
    c = _cfg(2)
    t = c.t(1)
    A = TwistedPoly(c, "t1", [-(t ** -2), c.one()])
    B = TwistedPoly(c, "t1", [-(t ** -3), c.one()])
    trace = []
    qlo, qhi, res = robba_factor(twisted_mul(A, B), [F(1)], F(5, 2), F(4), trace=trace)
    return "\n".join(repr(x) for x in (trace, qlo, qhi, res))


def lib_robba_degree3():
    """``(T - t^-2)(T - t^-3)(T - t^-4)`` split off a degree-2 (5/2) and a degree-1 (7/2)
    high factor."""
    lines = []
    for p in (2, 3):
        c = _cfg(p)
        t = c.t(1)
        A, B, C = (TwistedPoly(c, "t1", [-(t ** -k), c.one()]) for k in (2, 3, 4))
        P = twisted_mul(twisted_mul(A, B), C)
        for split in (F(5, 2), F(7, 2)):
            trace = []
            qlo, qhi, _ = robba_factor(P, [F(1)], split, F(4), trace=trace)
            lines += [f"p={p} split={split}", repr(trace), repr(qlo), repr(qhi)]
    return "\n".join(lines)


def lib_fiber_truncation():
    """``robba_factor`` (residual trace and factors) and ``decompose_fiber`` where the
    fiber valuation has a denominator: p = 3 at r = 1/3 with ``1/3`` in a coefficient,
    p = 0, and a base parameter of weight 1/2."""
    def robba(c, roots, r, split):
        P = reduce(twisted_mul, (TwistedPoly(c, "t1", [-a, c.one()]) for a in roots))
        trace = []
        qlo, qhi, _ = robba_factor(P, r, split, F(4), trace=trace)
        return [repr(trace), repr(qlo), repr(qhi)]

    c3, c0, cu = _cfg(3), _cfg(0), _cfg(2, (F(1, 2),))
    t3, t0, tu, u = c3.t(1), c0.t(1), cu.t(1), cu.u(1)
    third = c3.scalar(F(1, 3)) * t3 ** -3
    cases = [
        ("robba p=3 r=1/3 (T - t^-2)(T - 1/3 t^-3) split 4/3",
         robba(c3, [t3 ** -2, third], [F(1, 3)], F(4, 3))),
        ("decompose p=3 r=1/3 t^-2 + 1/3 t^-3",
         [repr(decompose_fiber(direct_sum(rank_one(c3, {"t1": t3 ** -2}),
                                          rank_one(c3, {"t1": third})), "t1", [F(1, 3)], F(3)))]),
        ("robba p=0 r=1/2 (T - 2/3 t^-2)(T - t^-3) split 5/4",
         robba(c0, [c0.scalar(F(2, 3)) * t0 ** -2, t0 ** -3], [F(1, 2)], F(5, 4))),
        ("decompose p=0 r=1 2/3 t^-2 + -t^-4",
         [repr(decompose_fiber(direct_sum(rank_one(c0, {"t1": c0.scalar(F(2, 3)) * t0 ** -2}),
                                          rank_one(c0, {"t1": -(t0 ** -4)})),
                               "t1", [F(1)], F(3)))]),
        ("robba weight 1/2 r=1 (T - u t^-2)(T - 1/2 t^-3) split 11/4",
         robba(cu, [u * tu ** -2, cu.scalar(F(1, 2)) * tu ** -3], [F(1)], F(11, 4))),
        ("decompose weight 1/2 r=1 d(u/t) + d(t^-3/2)",
         [repr(decompose_fiber(direct_sum(
             rank_one(cu, {"t1": -u * tu ** -2, "u1": tu ** -1}),
             rank_one(cu, {"t1": cu.scalar(F(-3, 2)) * tu ** -4, "u1": cu.zero()})),
             "t1", [F(1)], F(3)))]),
    ]
    return "\n".join(line for name, reprs in cases for line in [name, *reprs])


def _profile(rank, cells, p=2, axis="t1", weight=None, cap=(0, 1)):
    """Hand-built profile; ``cells`` holds ``(lo, hi, [(slope, value_at_lo), ...])``."""
    cap = (F(cap[0]), F(cap[1]))
    pcells = tuple(
        ProfileCell(F(lo), F(hi), tuple((F(s), F(v)) for s, v in vis), rank - len(vis), cap)
        for lo, hi, vis in cells
    )
    return RadiusProfile(axis, "extrinsic", p, rank, (pcells[0].lo, pcells[-1].hi), pcells,
                         weight)


def _module_profile(name, axis, window):
    M = ser.module_from_obj(json.loads((INPUTS / f"{name}.json").read_text(encoding="utf-8")))
    return build_radius_profile(M, axis, "t1", tuple(F(x) for x in window))


def _base_twists_profile():
    c = _cfg(3, (F(1, 2),))
    M = direct_sum(*(rank_one(c, {"t1": c.t(1, -2), "u1": c.u(1, k)}) for k in (-2, -3)))
    return build_radius_profile(M, "u1", "t1", (F(-2), F(2)))


def lib_verifier_reports():
    """Every clause of the three verifiers on module data and on a hand-built corpus.

    The corpus makes each clause fail (one clause per case), pass, and be not
    applicable wherever the clause has that status.  ``verify_variation`` is
    recorded in full, witnesses included; ``verify_newton_properties`` and
    ``_slice_report`` as ``(name, status)`` pairs.  The slice pairs are grouped
    by clause name (a stable sort): the slice report once interleaved the
    FAILs of its two clauses by partial-sum index and added its PASSes last,
    and only the statuses of each clause are frozen.
    """
    variation = [
        ("twist2 t1 annulus", _module_profile("twist2", "t1", (1, 2)), "annulus", "geometric"),
        ("twist2 t1 disc", _module_profile("twist2", "t1", (1, 2)), "disc", "geometric"),
        ("twist2 intrinsic", _module_profile("twist2", "intrinsic", ("1/2", "5/2")), "annulus",
         "intrinsic"),
        ("upper2 t1 disc", _module_profile("upper2", "t1", (0, 2)), "disc", "geometric"),
        ("twist3_p3 t1", _module_profile("twist3_p3", "t1", ("1/2", 3)), "annulus", "geometric"),
        ("base_u1 u1", _module_profile("base_u1", "u1", (0, 2)), "annulus", "base"),
        ("base_u1 intrinsic", _module_profile("base_u1", "intrinsic", (0, 2)), "disc",
         "intrinsic"),
        ("u^-2 + u^-3 twists at p = 3, u1", _base_twists_profile(), "annulus", "base"),
        ("continuity jump", _profile(1, [(0, 1, [(-1, 3)]), (1, 2, [(-1, 5)])]), "annulus",
         "geometric"),
        ("convexity drop", _profile(1, [(0, 1, [(2, 3)]), (1, 2, [(1, 5)])]), "annulus",
         "geometric"),
        ("non-member slope, nothing separated",
         _profile(2, [(0, 1, [("1/3", 1)])], cap=("1/3", 1)), "annulus", "geometric"),
        ("non-integral separated slope", _profile(2, [(0, 1, [("1/2", 3), ("1/2", 1)])]),
         "annulus", "geometric"),
        ("disc monotonicity", _profile(1, [(0, 1, [(1, 3)])]), "disc", "geometric"),
        ("fully capped", _profile(2, [(0, 1, []), (1, 2, [])]), "disc", "geometric"),
        ("base axis at level 1", _profile(1, [(0, 1, [("1/2", "3/4")])], axis="u1", weight=F(0)),
         "annulus", "base"),
        ("base axis, separated slope outside p^-0 Z",
         _profile(2, [(0, 1, [("1/2", 5), ("1/2", 3)])], axis="u1", weight=F(0)), "annulus",
         "base"),
    ]
    lines = []
    for name, prof, mode, axis_class in variation:
        rep = verify_variation(prof, mode, axis_class, prof.p)
        lines.append(f"verify_variation {name}: " + json.dumps(rep.as_dict()))

    c = _cfg(2)
    t = c.t(1)

    def poly(*coeffs):
        return TwistedPoly(c, "t1", list(coeffs))

    newton = [
        ("T^2 + T + t disc", poly(t, c.one(), c.one()), (-1, 1), True, None),
        ("T^2 + T + t disc, passing truncation", poly(t, c.one(), c.one()), (-1, 1), True,
         (1, 0)),
        ("T^2 + t^-1 T + t", poly(t, c.t(1, -1), c.one()), (-1, 1), False, None),
        ("T + t^-1 disc", poly(c.t(1, -1), c.one()), (0, 1), True, None),
        ("T + t disc, failing truncation", poly(t, c.one()), (-1, 1), True, (-1, 0)),
        ("non-monic 2T + 1 disc", poly(c.one(), c.scalar(2)), (0, 1), True, None),
        ("zero constant term T^3 + T^2 + t T", poly(c.zero(), t, c.one(), c.one()), (-1, 1), True,
         None),
        ("degenerate T", poly(c.zero(), c.one()), (0, 1), True, None),
    ]
    for name, P, window, disc, trunc in newton:
        rep = verify_newton_properties(P, "t1", window, disc=disc, truncation=trunc)
        lines.append(f"verify_newton_properties {name}: "
                     + json.dumps([[r.name, r.status] for r in rep.results]))

    c2 = _cfg(2, (), 2)

    def bimonomial(a, b):
        return DiffModule(c2, 1, {"t1": [[c2.scalar(a) * c2.t(1, -1)]],
                                  "t2": [[c2.scalar(b) * c2.t(2, -1)]]}, check=False)

    box = TRPSet.box([(1, 2), (1, 2)])
    dirs = [((F(1), F(1)), (1, 0)), ((F(1), F(1)), (0, 1)), ((F(1), F(1)), (1, 1))]
    slices = [
        (f"{label} direction {d}", s.profile)
        for label, M in (("bimonomial", bimonomial(F(1, 2), F(1, 4))),
                         ("two bimonomials", direct_sum(bimonomial(F(1, 2), F(1, 4)),
                                                        bimonomial(F(1, 8), F(1, 16)))))
        for (_, d), s in zip(dirs, multidim_profile(M, box, dirs).slices)
    ]
    slices += [
        ("convexity drop", _profile(1, [(0, 1, [(2, 3)]), (1, 2, [(1, 5)])])),
        ("2!*F_1 slope not integral", _profile(2, [(0, 1, [("1/3", 5), ("-1/3", 1)])])),
        ("fully capped", _profile(2, [(0, 1, [])])),
    ]
    for name, prof in slices:
        pairs = sorted(([r.name, r.status] for r in _slice_report(prof).results),
                       key=lambda r: r[0])
        lines.append(f"_slice_report {name}: " + json.dumps(pairs))
    return "\n".join(lines)


def lib_iterate_dn():
    """``iterate_Dn`` in full and ``spectral_valuation_estimate`` on shapes the unit
    tests leave out: a non-diagonal module, fractional coefficients at p = 2 and
    p = 3, a base axis of weight 1/2, p = 0, the second axis of a two-variable
    module at a frozen fiber, and a rank-3 twist sum at n = 128."""
    def upper2():
        c = _cfg(2)
        N = [[c.t(1, -2), c.one()], [c.zero(), c.t(1, -3) + c.scalar(2) * c.t(1, -1)]]
        return DiffModule(c, 2, {"t1": N})

    def fractional(p):
        c = _cfg(p)
        N = [[c.scalar(F(1, 2)) * c.t(1, -2), c.scalar(F(5, 3))],
             [c.zero(), c.scalar(F(3, 4)) * c.t(1, -3)]]
        return DiffModule(c, 2, {"t1": N})

    def base_u1():
        c = _cfg(3, (F(1, 2),))
        return direct_sum(rank_one(c, {"t1": c.t(1, -2), "u1": c.scalar(F(1, 2)) * c.u(1, -1)}),
                          rank_one(c, {"t1": -c.t(1, -3), "u1": c.scalar(F(3, 4)) * c.u(1, -1)}))

    def p0():
        c = _cfg(0)
        return direct_sum(rank_one(c, {"t1": c.scalar(F(2, 3)) * c.t(1, -2)}),
                          rank_one(c, {"t1": -c.t(1, -3)}))

    def two_variable():
        c = _cfg(2, (), 2)
        t1, t2 = c.t(1), c.t(2)

        def pot(k, m, n):  # d/dt_i of k t1^m t2^n
            return {"t1": c.scalar(k * m) * t1 ** (m - 1) * t2 ** n,
                    "t2": c.scalar(k * n) * t1 ** m * t2 ** (n - 1)}

        return direct_sum(rank_one(c, pot(1, -1, -1)), rank_one(c, pot(-1, -1, -3)))

    def twist3():
        c = _cfg(2)
        t2, t3, t4 = (rank_one(c, {"t1": c.t(1, -k)}) for k in (2, 3, 4))
        return direct_sum(direct_sum(t2, t3), t4)

    cases = [
        ("upper2 t1", upper2(), "t1", [F(-1)], 24, 32),
        ("fractional p=2 t1", fractional(2), "t1", [F(-1)], 24, 32),
        ("fractional p=3 t1", fractional(3), "t1", [F(-1, 2)], 24, 32),
        ("base u1 weight 1/2", base_u1(), "u1", [F(-1)], 24, 32),
        ("base t1 weight 1/2", base_u1(), "t1", [F(-1)], 24, 32),
        ("p=0 t1", p0(), "t1", [F(-1)], 24, 32),
        ("two-variable t2 at t1 = -1", two_variable(), "t2", [F(-1), F(-1)], 24, 32),
        ("twist sum t^-2, t^-3, t^-4 at p=2", twist3(), "t1", [F(1)], 128, 128),
    ]
    lines = []
    for name, M, axis, r, n_iter, n_spec in cases:
        lines.append(f"iterate_Dn {name}: {iterate_Dn(M, axis, n_iter, r)!r}")
        lines.append(f"spectral_valuation_estimate {name}: "
                     f"{spectral_valuation_estimate(M, axis, r, n_spec)!r}")
    return "\n".join(lines)


def lib_spectral_companion():
    """``iterate_Dn`` (n = 48) and ``spectral_valuation_estimate`` (n = 128) on the
    companion module of ``(T - t^-2)(T - t^-4)`` at r = 1, p = 2 and p = 3: ``v(N)``
    is -6 while the iterates fall by 4 a step."""
    lines = []
    for p in (2, 3):
        c = _cfg(p)
        t = c.t(1)
        M = from_companion(twisted_mul(TwistedPoly(c, "t1", [-(t ** -2), c.one()]),
                                       TwistedPoly(c, "t1", [-(t ** -4), c.one()])))
        lines.append(f"iterate_Dn p={p}: {iterate_Dn(M, 't1', 48, [F(1)])!r}")
        lines.append(f"spectral_valuation_estimate p={p}: "
                     f"{spectral_valuation_estimate(M, 't1', [F(1)], 128)!r}")
    return "\n".join(lines)


def lib_unimodular():
    """``unimodular_completion`` of primitive directions in dimensions 1-4, each with
    its signed ``det``, ``inverse`` and ``fiber_to_source`` of two rational points,
    then the signed ``det`` of integer matrices that are singular or whose
    determinant is not +-1, a row swap included."""
    lines = []
    for d in [(1,), (-1,), (-1, 0), (0, 1), (3, -2), (6, 10, 15), (0, -1, 0), (4, 0, -3),
              (2, -3, 5, 7), (0, 0, 0, 1), (-5, 0, 3, 0)]:
        A = unimodular_completion(d)
        points = [tuple(F(k + 1, 2 + k) for k in range(len(d))),
                  tuple(F(-3 * k, 5) + 1 for k in range(len(d)))]
        lines += [f"completion {d}: {A.rows!r} det {A.det()} inverse {A.inverse().rows!r}",
                  *(f"  fiber_to_source {r!r}: {fiber_to_source(A, r)!r}" for r in points)]
    for rows in [(), ((0,),), ((2,),), ((-7,),), ((0, 2), (1, 0)), ((2, 1), (1, 3)),
                 ((1, 2), (2, 4)), ((0, 1), (0, 2)), ((0, 0), (0, 0)),
                 ((1, 2, 3), (4, 5, 6), (7, 8, 9)), ((1, 2, 3), (0, 4, 5), (1, 0, 6)),
                 ((1, 2, 3), (2, 4, 7), (0, 1, 1)), ((0, 0, 2), (0, 3, 0), (4, 0, 0)),
                 ((0, 0, 1, 2), (3, 0, 0, 1), (1, 1, 1, 1), (2, -1, 0, 3)),
                 ((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 2))]:
        lines.append(f"det {rows!r}: {UnimodularMatrix(rows).det()}")
    return "\n".join(lines)


LIB_CASES = {f.__name__[4:]: f for f in (
    lib_twist2_charpoly, lib_upper2_charpoly, lib_twist3_p3_charpoly,
    lib_two_variable_charpolys, lib_decompose_fiber, lib_robba_trace, lib_robba_degree3,
    lib_fiber_truncation, lib_verifier_reports, lib_iterate_dn, lib_spectral_companion,
    lib_unimodular,
)}


# -- tests ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden(name, capsys):
    code = main(_argv(name))
    out = capsys.readouterr().out
    exits = json.loads((GOLDEN / "cli" / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == exits[name]
    assert out == (GOLDEN / "cli" / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(LIB_CASES))
def test_library_golden(name):
    assert LIB_CASES[name]() + "\n" == (GOLDEN / "reprs" / f"{name}.txt").read_text(
        encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    (GOLDEN / "cli").mkdir(exist_ok=True)
    (GOLDEN / "reprs").mkdir(exist_ok=True)
    exits = {}
    for case in sorted(CLI_CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exits[case] = main(_argv(case))
        (GOLDEN / "cli" / f"{case}.out").write_text(buf.getvalue(), encoding="utf-8", newline="")
    (GOLDEN / "cli" / "exit_codes.json").write_text(
        json.dumps(exits, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for case, fn in sorted(LIB_CASES.items()):
        (GOLDEN / "reprs" / f"{case}.txt").write_text(fn() + "\n", encoding="utf-8")
