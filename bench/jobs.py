"""Job runners and checks for each job kind.

``parse(lib, spec)`` turns a spec's JSON inputs into library objects with
``annuli.serialize`` (set-up work), ``run(lib, spec, parsed, tracer)`` makes
the timed library calls, and ``check(spec, result)`` compares the result with
:mod:`reference` and returns an empty string when it matches.  A check never
calls the library.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import reference as ref
from corpus import frac_str

F = Fraction
AXIS_CLASS = {"t1": "geometric", "intrinsic": "intrinsic", "u1": "base"}


def _is_inf(x) -> bool:
    return repr(x) == "INF"


def _meets(residual, precision) -> bool:
    return _is_inf(residual) or (isinstance(residual, Fraction) and residual >= precision)


def _domain_obj(constraints) -> dict:
    return {"dim": 2, "constraints": [{"slope": list(s), "const": frac_str(c)} for s, c in constraints]}


def _box_obj(box) -> dict:
    (x0, x1), (y0, y1) = box
    return _domain_obj([((1, 0), -x0), ((-1, 0), x1), ((0, 1), -y0), ((0, -1), y1)])


# -- parsing (set-up) ---------------------------------------------------------


def parse(lib, spec) -> dict:
    ser = lib.serialize
    kind = spec["kind"]
    if kind == "profile" and "factors" in spec:
        return {"factors": [ser.module_from_obj(o) for o in spec["factors"]]}
    if kind in ("profile", "decompose", "spectral"):
        return {"M": ser.module_from_obj(spec["module"])}
    if kind == "robba":
        cfg = ser.config_from_obj(spec["poly"])
        return {"P": ser.poly_from_obj(cfg, spec["poly"])}
    if kind in ("recon", "multidim"):
        return {"M": ser.module_from_obj(spec["module"]), "C": ser.trp_from_obj(_box_obj(spec["box"]))}
    if kind == "synthetic":
        C = ser.trp_from_obj(_domain_obj(spec["domain"]))
        g = ser.polyfunc_from_obj(
            {"functionals": [{"slope": list(s), "const": frac_str(c)} for s, c in spec["functionals"]]}
        )
        return {"C": C, "g": g}
    raise ValueError(f"unknown job kind {kind}")


# -- one-variable profiles --------------------------------------------------------


def run_profile(lib, spec, parsed, tracer):
    M = parsed.get("M") or lib.modules.tensor(*parsed["factors"])
    prof = lib.profiles.build_radius_profile(M, spec["axis"], "t1", spec["window"])
    rep = lib.profiles.verify_variation(prof, "annulus", AXIS_CLASS[spec["axis"]], spec["p"])
    loci = lib.profiles.decomposition_loci(prof)
    return prof, rep, loci


def check_profile(spec, result) -> str:
    prof, rep, loci = result
    if not rep.passed:
        return f"variation verifier failed: {[c.name for c in rep.failures()]}"
    cells = [(c.lo, c.hi, c.visible, c.capped) for c in prof.cells]
    err = ref.check_profile(spec, cells)
    if err:
        return err
    want = ref.expected_loci(spec)
    if list(loci) != want:
        return f"loci {loci} != {want}"
    return ""


def sample_charpolys(lib, spec, charpolys, tracer) -> str:
    """Traced runs only: valuations of the captured charpoly coefficients and
    its Newton polygon at the sample fibers, checked against planted slopes."""
    p = spec["p"]
    weights = [spec["w"]] if spec["base"] else []
    for axis, P in charpolys:
        for x in spec["samples"]:
            r = [F(x)]
            with tracer.span("valued.gauss_valuation"):
                vals = [lib.valued.gauss_valuation(c, r) for c in P.coeffs]
            mine = [ref.coeff_valuation(c, p, weights, r) for c in P.coeffs]
            if [ref.INF if _is_inf(v) else v for v in vals] != mine:
                return f"coefficient valuations {vals} != {mine}"
            slopes = lib.twisted.newton_polygon(P, r).slope_list()
            bound = F(spec["w"]) if axis == "u1" else F(x)
            got = sorted(s for s in slopes if s > bound)
            want = sorted(
                s for s in (ref.sigma(ls, F(x)) for ls in ref.summand_lines(spec)) if s > bound
            )
            if got != want:
                return f"visible charpoly slopes {got} != {want} at r={x}"
    return ""


# -- fiber-certify ----------------------------------------------------------------


def run_robba(lib, spec, parsed, tracer):
    P = parsed["P"]
    lo, hi = ref.factor_slopes(spec)
    qlo, qhi, res = lib.twisted.robba_factor(P, [spec["r"]], (lo + hi) / 2, spec["precision"],
                                             trace=spec.get("history"))
    if tracer is None:
        prod = lib.twisted.twisted_mul(qlo, qhi)
    else:
        with tracer.span("twisted.twisted_mul"):
            prod = lib.twisted.twisted_mul(qlo, qhi)
    return qlo, qhi, res, P - prod


def check_robba(spec, result) -> str:
    qlo, qhi, res, diff = result
    p, r = spec["p"], [spec["r"]]
    lo, hi = ref.factor_slopes(spec)
    got = (ref.poly_slopes(qlo.coeffs, p, [], r), ref.poly_slopes(qhi.coeffs, p, [], r))
    if got != ([lo], [hi]):
        return f"factor slopes {got} != {([lo], [hi])}"
    if not _meets(res, spec["precision"]):
        return f"residual {res} below precision {spec['precision']}"
    cert = min((ref.coeff_valuation(c, p, [], r) for c in diff.coeffs), default=ref.INF)
    if cert < spec["precision"]:
        return f"certification product residual {cert} below precision"
    return ""


def run_decompose(lib, spec, parsed, tracer):
    return lib.modules.decompose_fiber(parsed["M"], "t1", [spec["r"]], spec["precision"])


def check_decompose(spec, parts) -> str:
    got = sorted(e for ms, _, _ in parts for e in ms.entries)
    want = ref.expected_parts(spec)
    if got != want:
        return f"parts {got} != {want}"
    for _, _, res in parts:
        if not _meets(res, spec["precision"]):
            return f"projector residual {res} below precision {spec['precision']}"
    return ""


def run_spectral(lib, spec, parsed, tracer):
    return lib.modules.spectral_valuation_estimate(parsed["M"], "t1", [spec["r"]], spec["n"])


def check_spectral(spec, result) -> str:
    est, _ = result
    want = ref.spectral_target(spec)
    if abs(est - want) > F(1, 10):
        return f"spectral estimate {est} not within 1/10 of {want}"
    return ""


# -- slice-reconstruct ----------------------------------------------------------------


def _traced_oracle(oracle, tracer):
    """Span every oracle call and record its chord: (direction, transverse offset)."""
    chords = []

    def wrapped(point, direction):
        d = tuple(int(v) for v in direction)
        chords.append((d, d[0] * F(point[1]) - d[1] * F(point[0])))
        with tracer.span("polyhedral.slice_oracle"):
            return oracle(point, direction)

    return wrapped, chords


def _reconstruct(lib, C, oracle, tracer):
    if tracer is None:
        return lib.polyhedral.reconstruct_polyhedral(C, oracle)
    wrapped, chords = _traced_oracle(oracle, tracer)
    out = lib.polyhedral.reconstruct_polyhedral(C, wrapped)
    tracer.count("polyhedral.slice_oracle.calls", len(chords))
    tracer.count("polyhedral.slice_oracle.distinct", len(set(chords)))
    return out


def run_recon(lib, spec, parsed, tracer):
    rank = len(spec["potentials"])
    scale = math.factorial(rank) if spec["level"] < rank else 1
    oracle = lib.polyhedral.module_slice_oracle(parsed["M"], parsed["C"], spec["level"], scale)
    return _reconstruct(lib, parsed["C"], oracle, tracer)


def _functionals(polyfunc) -> list:
    return [(f.slope, f.const) for f in polyfunc.functionals]


def check_recon(spec, got) -> str:
    for x in spec["samples"]:
        have = ref.max_affine(_functionals(got), x)
        want = ref.level_value(spec, x, spec["level"])
        if have != want:
            return f"reconstruction {have} != {want} at {x}"
    return ""


def run_multidim(lib, spec, parsed, tracer):
    rep = lib.polyhedral.multidim_profile(parsed["M"], parsed["C"], spec["slices"], axis="intrinsic")
    return rep, lib.polyhedral.multidim_loci(rep)


def check_multidim(spec, result) -> str:
    rep, loci = result
    if not rep.verdict:
        return "slice report failed"
    for s, (point, direction) in zip(rep.slices, spec["slices"]):
        t0, t1 = ref.box_chord(spec["box"], point, direction)
        shift = s.profile.window[0] - t0
        cells = [(c.lo, c.hi, c.visible, c.capped) for c in s.profile.cells]
        for k in (1, 2, 3):
            t = t0 + (t1 - t0) * F(k, 4)
            x = [F(a) + t * d for a, d in zip(point, direction)]
            vis = ref.visible_potentials(spec, x)
            got = ref.profile_at(cells, t + shift)
            if got != (vis, len(spec["potentials"]) - len(vis)):
                return f"slice {direction} at t={t}: {got} != {vis}"
    got = [(e["index"], e["complete"], [(i, list(ivs)) for i, ivs in e["slices"]]) for e in loci]
    want = ref.expected_multidim_loci(spec)
    if got != want:
        return f"multidim loci {got} != {want}"
    return ""


def run_synthetic(lib, spec, parsed, tracer):
    oracle = lib.polyhedral.synthetic_oracle(parsed["g"], parsed["C"])
    return _reconstruct(lib, parsed["C"], oracle, tracer)


def check_synthetic(spec, got) -> str:
    for x in spec["samples"]:
        have = ref.max_affine(_functionals(got), x)
        want = ref.max_affine(spec["functionals"], x)
        if have != want:
            return f"reconstruction {have} != {want} at {x}"
    return ""


RUNNERS = {
    "profile": (run_profile, check_profile),
    "robba": (run_robba, check_robba),
    "decompose": (run_decompose, check_decompose),
    "spectral": (run_spectral, check_spectral),
    "recon": (run_recon, check_recon),
    "multidim": (run_multidim, check_multidim),
    "synthetic": (run_synthetic, check_synthetic),
}


# -- cli-batch ---------------------------------------------------------------------------


def write_cli_inputs(workdir, i, inputs) -> dict:
    """Write one input set's JSON files; returns ``name -> path``."""
    objs = {"module": inputs["module"], "multiset": inputs["multiset"],
            "polyfunc": inputs["polyfunc"]}
    for n, robba in enumerate(inputs["robbas"]):
        objs[f"poly{n}"] = robba["poly"]
    paths = {}
    for name, obj in objs.items():
        path = os.path.join(workdir, f"set{i}-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        paths[name] = path
    return paths


def parse_cli_inputs(lib, inputs):
    ser = lib.serialize
    ser.module_from_obj(inputs["module"])
    ser.multiset_from_obj(inputs["multiset"])
    for robba in inputs["robbas"]:
        ser.poly_from_obj(ser.config_from_obj(robba["poly"]), robba["poly"])
    ser.trp_from_obj(inputs["polyfunc"]["domain"])
    ser.polyfunc_from_obj(inputs["polyfunc"])


def cli_commands(inputs, paths) -> list:
    """``(subcommand, argv, check)`` for one round over an input set."""
    prof, t1 = inputs["profile"], inputs["t1_profile"]
    window = [frac_str(x) for x in prof["window"]]
    factor = [
        ("factor", ["factor", "--input", paths[f"poly{n}"], "--fiber", "1", "--split",
                    frac_str(robba["split"]), "--precision", frac_str(robba["precision"])],
         lambda out, robba=robba: check_factor(robba, out))
        for n, robba in enumerate(inputs["robbas"])
    ]
    return [
        ("radii", ["radii", "--input", paths["module"], "--axis", "t1", "--geom", "t1",
                   "--window", *window, "--format", "csv"], lambda out: check_csv(t1, out)),
        ("radii", ["radii", "--input", paths["module"], "--axis", prof["axis"], "--geom", "t1",
                   "--window", *window, "--format", "json"], lambda out: check_profile_json(prof, out)),
        ("radii", ["radii", "--input", paths["module"], "--axis", "t1", "--geom", "t1",
                   "--window", *window, "--format", "svg"], check_svg),
        ("verify", ["verify", "--input", paths["module"], "--axis", prof["axis"], "--geom", "t1",
                    "--window", *window], check_verify),
        ("frobenius", ["frobenius", "--input", paths["multiset"], "--op", "push"],
         lambda out: check_frobenius(inputs, out)),
        *factor,
        ("polyhedral", ["polyhedral", "--input", paths["polyfunc"]],
         lambda out: check_polyfunc(inputs["synthetic"], out)),
        ("loci", ["loci", "--input", paths["module"], "--axis", "t1", "--geom", "t1",
                  "--window", *window], lambda out: check_loci(t1, out)),
    ]


def cli_env(src_dir) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, env, cwd):
    return subprocess.run([sys.executable, "-m", "annuli.cli"] + argv, capture_output=True,
                          env=env, cwd=cwd, timeout=120)


def _cells_from_obj(obj) -> list:
    return [
        (F(c["lo"]), F(c["hi"]), [(F(s), F(v)) for s, v in c["visible"]], int(c["capped"]))
        for c in obj["cells"]
    ]


def check_profile_json(spec, out: bytes) -> str:
    return ref.check_profile(spec, _cells_from_obj(json.loads(out)))


def check_csv(spec, out: bytes) -> str:
    lines = out.decode().splitlines()
    d = len(spec["summands"])
    cells = []
    for line in lines[1:]:
        f = line.split(",")
        slopes, values = f[2:2 + d], f[2 + d:2 + 2 * d]
        vis = [(F(s), F(v)) for s, v in zip(slopes, values) if s != "cap"]
        cells.append((F(f[0]), F(f[1]), vis, d - len(vis)))
    return ref.check_profile(spec, cells)


def check_svg(out: bytes) -> str:
    text = out.decode()
    if not (text.startswith("<svg") and text.endswith("</svg>\n")):
        return "malformed svg"
    return ""


def check_verify(out: bytes) -> str:
    return "" if json.loads(out)["passed"] is True else "verifier reported failure"


def check_frobenius(inputs, out: bytes) -> str:
    got = {F(v): m for v, m in json.loads(out)["entries"]}
    want = ref.frob_push(inputs["entries"], inputs["p"])
    return "" if got == want else f"pushforward {got} != {want}"


def _terms(obj) -> dict:
    return {(tuple(t["u"]), tuple(t["t"])): F(t["c"]) for t in obj["terms"]}


def check_factor(spec, out: bytes) -> str:
    obj = json.loads(out)
    p, r = spec["p"], [spec["r"]]
    lo, hi = ref.factor_slopes(spec)
    got = []
    for key in ("q_low", "q_high"):
        vals = [(i, ref.laurent_valuation(_terms(c), p, [], r)) for i, c in enumerate(obj[key]["coeffs"])]
        got.append(ref.lower_hull_slopes(vals))
    if got != [[lo], [hi]]:
        return f"factor slopes {got} != {[[lo], [hi]]}"
    polygon = sorted(F(s) for s, m in obj["polygon"]["slopes"] for _ in range(m))
    if polygon != [lo, hi]:
        return f"polygon slopes {polygon} != {[lo, hi]}"
    if obj["residual"] != "INF" and F(obj["residual"]) < spec["precision"]:
        return f"residual {obj['residual']} below precision"
    return ""


def check_polyfunc(spec, out: bytes) -> str:
    funcs = [(tuple(f["slope"]), F(f["const"])) for f in json.loads(out)["functionals"]]
    for x in spec["samples"]:
        if ref.max_affine(funcs, x) != ref.max_affine(spec["functionals"], x):
            return f"reconstruction differs at {x}"
    return ""


def check_loci(spec, out: bytes) -> str:
    got = [(e["index"], (F(e["interval"][0]), F(e["interval"][1]))) for e in json.loads(out)["loci"]]
    want = ref.expected_loci(spec)
    return "" if got == want else f"loci {got} != {want}"
