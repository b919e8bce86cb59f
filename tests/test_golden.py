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
from pathlib import Path

import pytest

from annuli import ValuationConfig, direct_sum, rank_one
from annuli.cli import main
from annuli.modules import DiffModule, cyclic_vector, decompose_fiber
from annuli.twisted import TwistedPoly, robba_factor, twisted_mul

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


LIB_CASES = {f.__name__[4:]: f for f in (
    lib_twist2_charpoly, lib_upper2_charpoly, lib_twist3_p3_charpoly,
    lib_two_variable_charpolys, lib_decompose_fiber, lib_robba_trace,
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
