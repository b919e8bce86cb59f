import json
from fractions import Fraction
from pathlib import Path

import pytest

from annuli.cli import main

F = Fraction


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def rank1_module_obj():
    return {
        "rank": 1,
        "p": 2,
        "u_weights": [],
        "n_geom": 1,
        "matrices": {"t1": [[{"terms": [{"c": "1", "u": [], "t": [-2]}]}]]},
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_radii_csv_rank1(tmp_path, capsys):
    path = write(tmp_path, "m.json", rank1_module_obj())
    code, out, _ = run(
        capsys,
        ["radii", "--input", path, "--axis", "t1", "--geom", "t1",
         "--window", "1/2", "2", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r_left,r_right,slope_1,value_1"
    assert lines[1] == "1/2,2,2,2"
    assert len(lines) == 2


def test_frobenius_push_example(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"p": 2, "entries": [["1/2", 1]]})
    code, out, _ = run(capsys, ["frobenius", "--input", path])
    assert code == 0
    assert out == '{"entries":[["1",1],["2",1]]}\n'


def test_frobenius_pull_and_laws(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"p": 2, "entries": [["3", 1]]})
    code, out, _ = run(capsys, ["frobenius", "--input", path, "--op", "pull"])
    assert code == 0 and json.loads(out)["entries"] == [["2", 1]]
    code, out, _ = run(capsys, ["frobenius", "--input", path, "--op", "laws"])
    assert code == 0 and json.loads(out)["passed"]


def test_verify_failing_profile_exits_2(tmp_path, capsys):
    profile = {
        "axis": "t1",
        "kind": "extrinsic",
        "p": 2,
        "rank": 1,
        "window": ["0", "1"],
        "axis_weight": None,
        "cells": [
            {"lo": "0", "hi": "1", "visible": [["1", "3"]], "capped": 0, "cap": ["0", "1"]}
        ],
    }
    path = write(tmp_path, "prof.json", profile)
    code, out, _ = run(capsys, ["verify", "--input", path, "--mode", "disc"])
    assert code == 2
    rep = json.loads(out)
    assert not rep["passed"]
    assert any(c["name"] == "monotonicity" and c["status"] == "fail" for c in rep["checks"])


def test_verify_names_base_level_skips(tmp_path, capsys):
    # f_1 = 1/2 never exceeds p^-n omega + w = 2^-n + 1/2, so no level exists
    profile = {
        "axis": "u1",
        "kind": "extrinsic",
        "p": 2,
        "rank": 1,
        "window": ["0", "1"],
        "axis_weight": "1/2",
        "cells": [
            {"lo": "0", "hi": "1", "visible": [["0", "1/2"]], "capped": 0, "cap": ["0", "1/2"]}
        ],
    }
    path = write(tmp_path, "prof.json", profile)
    code, out, _ = run(capsys, ["verify", "--input", path])
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for name in ("slope membership", "integrality"):
        assert checks[name] == {
            "name": name,
            "status": "pass",
            "witness": "1 piece skipped: f_i not above p^-n omega + w for n < 64",
        }


def test_verify_module_passes(tmp_path, capsys):
    path = write(tmp_path, "m.json", rank1_module_obj())
    code, out, _ = run(
        capsys,
        ["verify", "--input", path, "--axis", "t1", "--geom", "t1",
         "--window", "1", "2", "--mode", "annulus"],
    )
    assert code == 0 and json.loads(out)["passed"]


def test_factor_twisted(tmp_path, capsys):
    poly = {
        "p": 2,
        "u_weights": [],
        "n_geom": 1,
        "derivation": "t1",
        "coeffs": [
            {"terms": [{"c": "2", "u": [], "t": [-3]}]},
            {"terms": [{"c": "-1", "u": [], "t": [-2]}]},
            {"terms": [{"c": "1", "u": [], "t": [0]}]},
        ],
    }
    path = write(tmp_path, "p.json", poly)
    code, out, _ = run(
        capsys,
        ["factor", "--input", path, "--fiber", "1", "--split", "1",
         "--precision", "10"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] == "INF" or F(payload["residual"]) >= 10
    assert payload["polygon"]["slopes"] == [["0", 1], ["2", 1]]


def test_factor_bad_coefficient_names_path(tmp_path, capsys):
    poly = {"p": 2, "u_weights": [], "n_geom": 1, "derivation": "t1",
            "coeffs": [{"terms": [{"c": "2", "t": [-3]}]}, {"terms": [{"c": "1", "e": [0]}]}]}
    path = write(tmp_path, "p.json", poly)
    code, out, err = run(capsys, ["factor", "--input", path, "--fiber", "1", "--split", "1",
                                  "--precision", "10"])
    assert code == 1 and out == "" and err.startswith("error: coeffs[1].terms[0]:")


def test_polyhedral_roundtrip(tmp_path, capsys):
    obj = {
        "domain": {
            "dim": 2,
            "constraints": [
                {"slope": [1, 0], "const": "1"},
                {"slope": [-1, 0], "const": "1"},
                {"slope": [0, 1], "const": "1"},
                {"slope": [0, -1], "const": "1"},
            ],
        },
        "functionals": [
            {"slope": [1, 0], "const": "0"},
            {"slope": [0, 1], "const": "0"},
            {"slope": [0, 0], "const": "0"},
        ],
    }
    path = write(tmp_path, "f.json", obj)
    code, out, _ = run(capsys, ["polyhedral", "--input", path])
    assert code == 0
    got = json.loads(out)
    assert len(got["functionals"]) == 3


def test_loci_module(tmp_path, capsys):
    obj = {
        "rank": 2,
        "p": 2,
        "u_weights": [],
        "n_geom": 1,
        "matrices": {
            "t1": [
                [{"terms": [{"c": "1", "u": [], "t": [-2]}]}, {"terms": []}],
                [{"terms": []}, {"terms": [{"c": "1", "u": [], "t": [-3]}]}],
            ]
        },
    }
    path = write(tmp_path, "m2.json", obj)
    code, out, _ = run(
        capsys,
        ["loci", "--input", path, "--axis", "t1", "--geom", "t1", "--window", "1", "2"],
    )
    assert code == 0
    assert json.loads(out)["loci"] == [{"index": 1, "interval": ["1", "2"]}]


def test_malformed_json_position(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"rank": 1,, }', encoding="utf-8")
    code, _, err = run(
        capsys, ["radii", "--input", str(p), "--window", "0", "1"]
    )
    assert code == 1
    assert "line 1" in err and "column" in err


def test_integrability_failure_names_pair(tmp_path, capsys):
    obj = {
        "rank": 2,
        "p": 2,
        "u_weights": ["0"],
        "n_geom": 1,
        "matrices": {
            "t1": [
                [{"terms": []}, {"terms": [{"c": "1", "u": [0], "t": [0]}]}],
                [{"terms": []}, {"terms": []}],
            ],
            "u1": [
                [{"terms": []}, {"terms": []}],
                [{"terms": [{"c": "1", "u": [0], "t": [1]}]}, {"terms": []}],
            ],
        },
    }
    path = write(tmp_path, "bad_mod.json", obj)
    code, _, err = run(capsys, ["radii", "--input", path, "--window", "0", "1"])
    assert code == 1
    assert "t1" in err and "u1" in err


def test_cli_determinism(tmp_path, capsys):
    mpath = write(tmp_path, "m.json", rank1_module_obj())
    spath = write(tmp_path, "s.json", {"p": 3, "entries": [["1/4", 2], ["5", 1]]})
    outputs = []
    for _ in range(2):
        blobs = []
        for argv in (
            ["radii", "--input", mpath, "--axis", "t1", "--geom", "t1",
             "--window", "1/2", "2", "--format", "csv"],
            ["radii", "--input", mpath, "--axis", "intrinsic", "--geom", "t1",
             "--window", "1/2", "2", "--format", "json"],
            ["radii", "--input", mpath, "--axis", "t1", "--geom", "t1",
             "--window", "1/2", "2", "--format", "svg"],
            ["frobenius", "--input", spath, "--op", "push"],
        ):
            code, out, _ = run(capsys, argv)
            assert code == 0
            blobs.append(out)
        outputs.append("\x00".join(blobs))
    assert outputs[0] == outputs[1]


def test_svg_is_float_rendered_only(tmp_path, capsys):
    mpath = write(tmp_path, "m.json", rank1_module_obj())
    code, out, _ = run(
        capsys,
        ["radii", "--input", mpath, "--axis", "t1", "--geom", "t1",
         "--window", "1/2", "2", "--format", "svg"],
    )
    assert code == 0
    assert out.startswith("<svg") or out.startswith("<?xml") or "<svg" in out
    assert "polyline" in out


def test_polyhedral_module_backed(tmp_path, capsys):
    obj = {
        "domain": {
            "dim": 2,
            "constraints": [
                {"slope": [1, 0], "const": "-1"},
                {"slope": [-1, 0], "const": "3"},
                {"slope": [0, 1], "const": "-1"},
                {"slope": [0, -1], "const": "3"},
            ],
        },
        "module": {
            "rank": 1,
            "p": 2,
            "u_weights": [],
            "n_geom": 2,
            "matrices": {
                "t1": [[{"terms": [{"c": "1/8", "u": [], "t": [-2, 0]}]}]],
                "t2": [[{"terms": []}]],
            },
        },
        "level": 1,
        "scale": 1,
    }
    path = write(tmp_path, "mb.json", obj)
    code, out, _ = run(capsys, ["polyhedral", "--input", path])
    assert code == 0
    got = json.loads(out)
    assert got["functionals"] == [{"const": "4", "slope": [1, 0]}]


@pytest.mark.parametrize("axis", ["t7", "u1", "t2"])
def test_radii_unknown_axis_exits_1(tmp_path, capsys, axis):
    path = write(tmp_path, "m.json", rank1_module_obj())
    code, out, err = run(
        capsys, ["radii", "--input", path, "--axis", axis, "--geom", "t1", "--window", "1", "2"]
    )
    assert code == 1 and out == "" and err.startswith("error:")


def test_radii_axis_not_carried_by_module_exits_1(tmp_path, capsys):
    obj = dict(rank1_module_obj(), n_geom=2)
    obj["matrices"] = {"t1": [[{"terms": [{"c": "1", "u": [], "t": [-2, 0]}]}]]}
    path = write(tmp_path, "m.json", obj)
    code, out, err = run(
        capsys, ["radii", "--input", path, "--axis", "t2", "--geom", "t1", "--window", "1", "2"]
    )
    assert code == 1 and out == "" and "t2" in err


def test_factor_inconsistent_residual_exits_2(tmp_path, capsys, monkeypatch):
    import annuli.cli as cli

    real = cli.robba_factor

    def misreported(*args, **kwargs):
        qlo, qhi, _ = real(*args, **kwargs)
        return qlo, qhi, F(-100)

    monkeypatch.setattr(cli, "robba_factor", misreported)
    poly = {  # (T - t^-2)(T - t^-3), not split exactly at precision 3
        "p": 2,
        "u_weights": [],
        "n_geom": 1,
        "derivation": "t1",
        "coeffs": [
            {"terms": [{"c": "1", "u": [], "t": [-5]}, {"c": "3", "u": [], "t": [-4]}]},
            {"terms": [{"c": "-1", "u": [], "t": [-2]}, {"c": "-1", "u": [], "t": [-3]}]},
            {"terms": [{"c": "1", "u": [], "t": [0]}]},
        ],
    }
    path = write(tmp_path, "p.json", poly)
    code, out, err = run(
        capsys,
        ["factor", "--input", path, "--fiber", "1", "--split", "5/2", "--precision", "3"],
    )
    assert code == 2 and out == "" and err.startswith("error:")


def test_usage_error_exits_1_and_verifier_failure_exits_2(tmp_path, capsys):
    path = write(tmp_path, "p.json", {"p": 2, "derivation": "t1", "coeffs": []})
    with pytest.raises(SystemExit) as exc:  # argparse reads "-1/2" as an option
        main(["factor", "--input", path, "--split", "-1/2", "--precision", "3"])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
    profile = {
        "axis": "t1", "kind": "extrinsic", "p": 2, "rank": 1, "window": ["0", "1"],
        "axis_weight": None,
        "cells": [{"lo": "0", "hi": "1", "visible": [["1", "3"]], "capped": 0, "cap": ["0", "1"]}],
    }
    path = write(tmp_path, "prof.json", profile)
    assert run(capsys, ["verify", "--input", path, "--mode", "disc"])[0] == 2


def rank1_with(t1=None, terms=None, drop=None):
    """``rank1_module_obj`` with the t1 matrix, its entry's terms or one key replaced."""
    obj = rank1_module_obj()
    if t1 is not None:
        obj["matrices"]["t1"] = t1
    if terms is not None:
        obj["matrices"]["t1"][0][0]["terms"] = terms
    if drop is not None:
        del obj[drop]
    return obj


@pytest.mark.parametrize(
    "obj, window, named",
    [
        ([rank1_module_obj()], ["1", "2"], "list"),  # top-level JSON list
        ({"rank": 1, "p": 2, "n_geom": 1}, ["1", "2"], "'matrices'"),
        (rank1_module_obj(), ["1/0", "2"], "'1/0'"),
        (rank1_with(t1=[["x"]]), ["0", "1"], "matrices.t1[0][0]:"),
        (rank1_with(t1=[[0]]), ["0", "1"], "matrices.t1[0][0]:"),
        (rank1_with(terms=5), ["0", "1"], "matrices.t1[0][0].terms:"),
        (rank1_with(terms=[["1", [], [-2]]]), ["0", "1"], "matrices.t1[0][0].terms[0]:"),
        (rank1_with(t1=5), ["0", "1"], "matrices.t1:"),
        (rank1_with(terms=[{"c": "1", "e": [-2]}]), ["0", "1"], "terms[0]: expected an object"),
        (rank1_with(terms=[{"c": "1", "t": [-1.5]}]), ["0", "1"], "matrices.t1[0][0].terms[0].t:"),
        (rank1_with(terms=[{"t": [-2]}]), ["0", "1"], "matrices.t1[0][0].terms[0]:"),
        (rank1_with(drop="rank"), ["0", "1"], "'rank'"),
        (dict(rank1_module_obj(), rank=[1]), ["0", "1"], "rank: expected an integer"),
        (dict(rank1_module_obj(), n_geom=[1]), ["0", "1"], "n_geom: expected an integer"),
        (dict(rank1_module_obj(), u_weights=5), ["0", "1"], "u_weights: expected a list"),
        (dict(rank1_module_obj(), p=2.5), ["0", "1"], "p: expected an integer"),
        (dict(rank1_module_obj(), rank=1.5), ["0", "1"], "rank: expected an integer"),
        (dict(rank1_module_obj(), rank=True), ["0", "1"], "rank: expected an integer"),
    ],
    ids=["top_level_list", "no_matrices", "zero_denominator_window", "entry_string",
         "entry_number", "terms_number", "term_list", "matrix_number", "unknown_term_key",
         "fractional_exponent", "no_coefficient", "no_rank", "rank_list", "n_geom_list",
         "u_weights_number", "fractional_p", "fractional_rank", "boolean_rank"],
)
def test_bad_input_exits_1_naming_it(tmp_path, capsys, obj, window, named):
    path = write(tmp_path, "m.json", obj)
    code, out, err = run(
        capsys, ["radii", "--input", path, "--axis", "t1", "--window", *window]
    )
    assert code == 1 and out == "" and err.startswith("error:") and named in err
    assert "Traceback" not in err


SQUARE_OBJ = {"dim": 2, "constraints": [{"slope": s, "const": "1"}
                                       for s in ([1, 0], [-1, 0], [0, 1], [0, -1])]}
PROFILE_OBJ = {"axis": "t1", "kind": "extrinsic", "p": 2, "rank": 1, "window": ["0", "1"],
               "axis_weight": None,
               "cells": [{"lo": "0", "hi": "1", "visible": [["0"]], "capped": 0, "cap": ["0", "1"]}]}
ROBBA_OBJ = json.loads((Path(__file__).resolve().parent / "golden" / "inputs" / "poly_robba.json")
                       .read_text(encoding="utf-8"))
BAD_PROFILE_OBJ = json.loads((Path(__file__).resolve().parent / "golden" / "inputs"
                              / "bad_profile.json").read_text(encoding="utf-8"))
FACTOR_ARGV = ["factor", "--fiber", "1", "--split", "5/2", "--precision", "4"]


@pytest.mark.parametrize(
    "argv, obj, named",
    [
        (["frobenius"], {"p": [2], "entries": [["1/2", 1]]}, "p: expected an integer"),
        (["frobenius"], {"p": 2, "entries": [["1/2", 1.5]]}, "entries[0][1]: expected an integer"),
        (["polyhedral"], {"functionals": []}, "domain: expected an object"),
        (["polyhedral"], {"domain": SQUARE_OBJ, "module": rank1_module_obj(), "level": "x"},
         "level: expected an integer"),
        (["verify"], PROFILE_OBJ, "cells[0].visible[0]: expected a list of 2 rationals"),
        (["loci"], {"module": rank1_module_obj(), "domain": SQUARE_OBJ,
                    "directions": [{"point": ["0", "0"]}]},
         "directions[0].direction: expected a list of integers"),
        (["radii", "--window", "1/2", "2"], dict(rank1_module_obj(), matrices={}),
         "module carries no derivations"),
        (["frobenius"], {"p": 2, "entries": [["1/2", -1]]},
         "entries[0][1]: expected a nonnegative integer"),
        (["polyhedral"], {"domain": SQUARE_OBJ, "functionals": [
            {"slope": [1], "const": "0"}, {"slope": [0, 1, 5], "const": "0"}]},
         "functionals[0].slope: expected a list of 2 integers"),
        (["polyhedral"], {"domain": SQUARE_OBJ, "functionals": [
            {"slope": [1, 0, 0], "const": "0"}, {"slope": [0, 1, 0], "const": "0"}]},
         "functionals[0].slope: expected a list of 2 integers"),
        (FACTOR_ARGV + ["--budget", "0"], ROBBA_OBJ, "budget must be at least 1"),
        (FACTOR_ARGV + ["--budget", "-1"], ROBBA_OBJ, "budget must be at least 1"),
        (["verify"], dict(BAD_PROFILE_OBJ, axis="u1", p=1), "p: expected 0 or a prime, got 1"),
        (["verify", "--mode", "disc"], dict(BAD_PROFILE_OBJ, axis="u1", p=1),
         "p: expected 0 or a prime, got 1"),
    ],
    ids=["frobenius_p_list", "fractional_multiplicity", "polyhedral_no_domain",
         "polyhedral_level_string", "profile_visible_single", "loci_no_direction",
         "intrinsic_no_derivations", "negative_multiplicity", "polyfunc_mixed_dims",
         "polyfunc_wrong_dim", "factor_budget_zero", "factor_budget_negative",
         "profile_p1_base_axis", "profile_p1_base_axis_disc"],
)
def test_bad_reader_input_exits_1_naming_it(tmp_path, capsys, argv, obj, named):
    path = write(tmp_path, "in.json", obj)
    code, out, err = run(capsys, [*argv, "--input", path])
    assert code == 1 and out == "" and err.startswith("error:") and named in err
    assert "Traceback" not in err


def test_zero_multiplicity_is_dropped(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"p": 2, "entries": [["1/2", 1]], "capped": [["0", 0]]})
    code, out, _ = run(capsys, ["frobenius", "--input", path, "--op", "push"])
    assert code == 0 and out == '{"entries":[["1",1],["2",1]]}\n'


def test_factor_without_derivation_exits_1(tmp_path, capsys):
    poly = {"p": 2, "u_weights": [], "n_geom": 1, "coeffs": [{"terms": [{"c": "1"}]}]}
    path = write(tmp_path, "p.json", poly)
    code, out, err = run(capsys, ["factor", "--input", path, "--fiber", "1", "--split", "1",
                                  "--precision", "10"])
    assert code == 1 and out == "" and err.startswith("error:") and "'derivation'" in err
    assert "Traceback" not in err


def test_failed_cyclic_search_exits_1(tmp_path, capsys, monkeypatch):
    import annuli.modules as modules

    def singular(M, axis):
        yield [M.config.zero()] * M.rank

    monkeypatch.setattr(modules, "_cyclic_candidates", singular)
    path = write(tmp_path, "m.json", rank1_module_obj())
    code, out, err = run(capsys, ["radii", "--input", path, "--axis", "t1", "--window", "1", "2"])
    assert code == 1 and out == "" and err.startswith("error: cyclic search")
    assert "Traceback" not in err


def test_rank_zero_module_radii(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"p": 2, "rank": 0, "n_geom": 1, "matrices": {"t1": []}})
    code, out, _ = run(capsys, ["radii", "--input", path, "--axis", "t1", "--window", "0", "1"])
    assert code == 0 and out == "r_left,r_right\n0,1\n"
