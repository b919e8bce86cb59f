"""Command-line front end.

Subcommands: ``radii``, ``verify``, ``frobenius``, ``factor``, ``polyhedral``,
``loci``.  All inputs are JSON files, all emitted numbers are exact rational
strings (SVG coordinates excepted, rendered at six fixed decimal places), and
outputs are byte-identical across runs.  Exit codes: 0 success, 1 input
error, 2 verifier failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import factorial

from . import serialize as ser
from .serialize import _expect, _fracs, _int, _ints
from .frobenius import check_push_pull_laws, frob_antecedent, frob_pull, frob_push
from .polyhedral import (module_slice_oracle, multidim_loci, multidim_profile,
                         reconstruct_polyhedral, synthetic_oracle)
from .profiles import build_radius_profile, decomposition_loci, verify_variation
from .twisted import newton_polygon, robba_factor, twisted_mul
from .valued import INF

__all__ = ["main"]


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON in {path} at line {e.lineno} column {e.colno}: {e.msg}")
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top-level JSON value is a {type(obj).__name__}, not an object")
    return obj


def _emit(text: str, output: str = None):
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_frozen(s: str) -> list:
    if not s:
        return []
    return [ser.parse_frac(x) for x in s.split(",")]


def dec6(x: Fraction) -> str:
    """Deterministic fixed six-decimal rendering (half away from zero)."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    scaled = abs(x) * 10**6
    n = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    whole, frac = divmod(n, 10**6)
    return f"{sign}{whole}.{frac:06d}"


def _profile_csv(profile) -> str:
    d = profile.rank
    header = (
        ["r_left", "r_right"]
        + [f"slope_{i}" for i in range(1, d + 1)]
        + [f"value_{i}" for i in range(1, d + 1)]
    )
    lines = [",".join(header)]
    for c in profile.cells:
        slopes, values = [], []
        for i in range(d):
            if i < c.m:
                slopes.append(ser.frac_str(c.visible[i][0]))
                values.append(ser.frac_str(c.visible[i][1]))
            else:
                slopes.append("cap")
                values.append("cap")
        lines.append(",".join([ser.frac_str(c.lo), ser.frac_str(c.hi)] + slopes + values))
    return "\n".join(lines) + "\n"


def _profile_svg(profile) -> str:
    w, h = 640, 400
    lo, hi = profile.window
    vals = []
    for c in profile.cells:
        for i in range(c.m):
            vals.append(c.visible[i][1])
            vals.append(c.value(i, c.hi))
    vmin = min(vals) if vals else Fraction(0)
    vmax = max(vals) if vals else Fraction(1)
    if vmin == vmax:
        vmax = vmin + 1
    span_x = hi - lo
    span_y = vmax - vmin

    def X(r):
        return dec6(40 + (r - lo) * (w - 80) / span_x)

    def Y(v):
        return dec6(h - 40 - (v - vmin) * (h - 80) / span_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
    ]
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    for i in range(1, profile.rank + 1):
        pts = []
        for c in profile.cells:
            if c.m >= i:
                pts.append((c.lo, c.visible[i - 1][1]))
                pts.append((c.hi, c.value(i - 1, c.hi)))
        if not pts:
            continue
        attr = " ".join(f"{X(r)},{Y(v)}" for r, v in pts)
        color = colors[(i - 1) % len(colors)]
        parts.append(f'<polyline points="{attr}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _geometry_args(sub, window=None):
    sub.add_argument("--axis", default="intrinsic", help="t1|u1|...|intrinsic")
    sub.add_argument("--geom", default="t1", help="geometric axis that varies")
    sub.add_argument("--window", nargs=2, required=window is None, default=window,
                     metavar=("a/b", "c/d"))
    sub.add_argument("--frozen", default="", help="comma-separated fiber vector")


def _module_profile(obj: dict, args):
    """The radius profile of the module ``obj`` under the geometry flags."""
    M = ser.module_from_obj(obj)
    window = (ser.parse_frac(args.window[0]), ser.parse_frac(args.window[1]))
    frozen = _parse_frozen(args.frozen) or [Fraction(0)] * M.config.n_geom
    return build_radius_profile(M, args.axis, args.geom, window, frozen)


def cmd_radii(args) -> int:
    profile = _module_profile(_load_json(args.input), args)
    if args.format == "csv":
        _emit(_profile_csv(profile), args.output)
    elif args.format == "svg":
        _emit(_profile_svg(profile), args.output)
    else:
        _emit(ser.dumps(ser.profile_to_obj(profile)), args.output)
    return 0


def cmd_verify(args) -> int:
    obj = _load_json(args.input)
    profile = ser.profile_from_obj(obj) if "cells" in obj else _module_profile(obj, args)
    if profile.axis == "intrinsic":
        axis_class = "intrinsic"
    elif profile.axis.startswith("u"):
        axis_class = "base"
    else:
        axis_class = "geometric"
    rep = verify_variation(profile, args.mode, axis_class, profile.p)
    _emit(ser.dumps(rep.as_dict()), args.output)
    return 0 if rep.passed else 2


def cmd_frobenius(args) -> int:
    obj = _load_json(args.input)
    p = _int(obj.get("p"), "p")
    ms = ser.multiset_from_obj(obj)
    if args.op == "push":
        out = frob_push(ms, p)
    elif args.op == "pull":
        out = frob_pull(ms, p)
    elif args.op == "antecedent":
        out = frob_antecedent(ms, p)
    else:
        rep = check_push_pull_laws(ms, p)
        _emit(ser.dumps(rep.as_dict()), args.output)
        return 0 if rep.passed else 2
    payload = ser.multiset_to_obj(out)
    payload.pop("kind", None)
    _emit(ser.dumps(payload), args.output)
    return 0


def cmd_factor(args) -> int:
    obj = _load_json(args.input)
    cfg = ser.config_from_obj(obj)
    P = ser.poly_from_obj(cfg, obj)
    r = _parse_frozen(args.fiber) or [Fraction(0)] * cfg.n_geom
    qlo, qhi, residual = robba_factor(
        P, r, ser.parse_frac(args.split), ser.parse_frac(args.precision), budget=args.budget
    )
    check = P - twisted_mul(qlo, qhi)
    out = {
        "q_low": ser.poly_to_obj(qlo),
        "q_high": ser.poly_to_obj(qhi),
        "residual": "INF" if residual is INF else ser.frac_str(residual),
        "polygon": ser.polygon_to_obj(newton_polygon(P, r)),
    }
    if check.min_valuation(r) != residual:
        sys.stderr.write("error: reported residual differs from the residual of the factors\n")
        return 2
    _emit(ser.dumps(out), args.output)
    return 0


def cmd_polyhedral(args) -> int:
    obj = _load_json(args.input)
    C = ser.trp_from_obj(obj.get("domain"))
    if "functionals" in obj:
        g = ser.polyfunc_from_obj(obj, C.dim)
        oracle = synthetic_oracle(g, C)
    elif "module" in obj:
        M = ser.module_from_obj(_expect(obj.get("module"), dict, "module", "an object"))
        level = _int(obj.get("level", 1), "level")
        scale = _int(obj.get("scale", factorial(M.rank) if level < M.rank else 1), "scale")
        oracle = module_slice_oracle(M, C, level, scale)
    else:
        raise ValueError("polyhedral input needs a functionals list or a module")
    F = reconstruct_polyhedral(C, oracle)
    _emit(ser.dumps(ser.polyfunc_to_obj(F)), args.output)
    return 0


def cmd_loci(args) -> int:
    obj = _load_json(args.input)
    if "directions" in obj:
        M = ser.module_from_obj(_expect(obj.get("module"), dict, "module", "an object"))
        C = ser.trp_from_obj(obj.get("domain"))
        dirs = []
        for k, d in enumerate(_expect(obj.get("directions"), list, "directions", "a list")):
            at = f"directions[{k}]"
            _expect(d, dict, at, "an object with point and direction")
            dirs.append((_fracs(d.get("point"), f"{at}.point"),
                         _ints(d.get("direction"), f"{at}.direction")))
        rep = multidim_profile(M, C, dirs, axis=obj.get("axis", "intrinsic"))
        loci = multidim_loci(rep)
        payload = {
            "verdict": rep.verdict,
            "loci": [
                {
                    "index": entry["index"],
                    "complete": entry["complete"],
                    "slices": [
                        {
                            "slice": idx,
                            "intervals": [[ser.frac_str(a), ser.frac_str(b)] for a, b in ivs],
                        }
                        for idx, ivs in entry["slices"]
                    ],
                }
                for entry in loci
            ],
        }
        _emit(ser.dumps(payload), args.output)
        return 0
    profile = _module_profile(obj, args)
    loci = decomposition_loci(profile)
    payload = {
        "loci": [
            {"index": i, "interval": [ser.frac_str(a), ser.frac_str(b)]}
            for i, (a, b) in loci
        ]
    }
    _emit(ser.dumps(payload), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code; argparse's 2 means verifier failure."""

    def error(self, message):
        self.exit(1, f"{self.format_usage()}error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="annuli", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radii", help="exact radius profile as CSV, JSON or SVG")
    p.add_argument("--input", required=True)
    _geometry_args(p)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--output")
    p.set_defaults(func=cmd_radii)

    p = sub.add_parser("verify", help="run the variation verifier")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("disc", "annulus"), default="annulus")
    _geometry_args(p, window=("0", "1"))
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("frobenius", help="transform a radius multiset")
    p.add_argument("--input", required=True)
    p.add_argument("--op", choices=("push", "pull", "antecedent", "laws"), default="push")
    p.add_argument("--output")
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("factor", help="slope factorization at a fiber")
    p.add_argument("--input", required=True)
    p.add_argument("--fiber", default="", help="comma-separated fiber vector")
    p.add_argument("--split", required=True, help="split slope a/b")
    p.add_argument("--precision", required=True, help="target residual n/m")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--output")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("polyhedral", help="reconstruct a max-of-affines function from slices")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_polyhedral)

    p = sub.add_parser("loci", help="decomposition loci of a profile or sliced region")
    p.add_argument("--input", required=True)
    _geometry_args(p, window=("0", "1"))
    p.add_argument("--output")
    p.set_defaults(func=cmd_loci)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
