"""JSON schemas for the exchange formats.

Every number travels as an exact rational string ("3", "-7/2"); nothing is
ever rendered as a float.  Emission is deterministic: keys are sorted and
term lists are emitted in sorted exponent order.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .modules import DiffModule, RadiiMultiset
from .polyhedral import AffineFunctional, PolyFunc, TRPSet
from .profiles import ProfileCell, RadiusProfile
from .twisted import NewtonPolygon, TwistedPoly
from .valued import LaurentElement, ValuationConfig

__all__ = [
    "frac_str",
    "parse_frac",
    "dumps",
    "laurent_to_obj",
    "laurent_from_obj",
    "config_from_obj",
    "module_from_obj",
    "poly_to_obj",
    "poly_from_obj",
    "polygon_to_obj",
    "multiset_to_obj",
    "multiset_from_obj",
    "profile_to_obj",
    "profile_from_obj",
    "trp_from_obj",
    "polyfunc_from_obj",
    "polyfunc_to_obj",
]


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None
    raise ValueError(f"expected an exact rational string, got {s!r}")


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def laurent_to_obj(x: LaurentElement) -> dict:
    terms = []
    for (e, i), c in sorted(x.terms.items()):
        terms.append({"c": frac_str(c), "u": list(e), "t": list(i)})
    return {"terms": terms}


def _expect(x, kind, path: str, what: str):
    if not isinstance(x, kind):
        raise ValueError(f"{path}: expected {what}, got {type(x).__name__}")
    return x


def _int(obj: dict, key: str) -> int:
    """The integer field ``obj[key]``; a ``bool`` or any other type is refused."""
    if type(obj[key]) is not int:
        raise ValueError(f"{key}: expected an integer, got {obj[key]!r}")
    return obj[key]


def _frac(x, path: str) -> Fraction:
    try:
        return parse_frac(x)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _exponents(term: dict, name: str, n: int, path: str) -> tuple:
    e = term.get(name, [0] * n)
    if not (isinstance(e, list) and len(e) == n and all(type(a) is int for a in e)):
        raise ValueError(f"{path}.{name}: expected a list of {n} integers, got {e!r}")
    return tuple(e)


def _laurent(config: ValuationConfig, obj, path: str) -> LaurentElement:
    _expect(obj, dict, path, "an object with a 'terms' list")
    terms = {}
    for k, t in enumerate(_expect(obj.get("terms"), list, f"{path}.terms", "a list")):
        at = f"{path}.terms[{k}]"
        if not (isinstance(t, dict) and "c" in t and set(t) <= {"c", "u", "t"}):
            raise ValueError(f"{at}: expected an object with key c and optional u, t, got {t!r}")
        c = _frac(t["c"], f"{at}.c")
        key = (_exponents(t, "u", config.m_base, at), _exponents(t, "t", config.n_geom, at))
        terms[key] = terms.get(key, Fraction(0)) + c
    return LaurentElement(config, terms)


def laurent_from_obj(config: ValuationConfig, obj: dict) -> LaurentElement:
    """Read ``{"terms": [{"c", "u", "t"}, ...]}``; ``ValueError`` names a malformed part."""
    return _laurent(config, obj, "element")


def config_from_obj(obj: dict) -> ValuationConfig:
    """Read ``p``, ``u_weights`` and ``n_geom``; ``ValueError`` names a malformed field."""
    if "p" not in obj:
        raise ValueError("input has no 'p' key")
    p = _int(obj, "p")
    weights = _expect(obj.get("u_weights", []), list, "u_weights", "a list of rationals")
    u_weights = [_frac(w, f"u_weights[{k}]") for k, w in enumerate(weights)]
    if "n_geom" in obj:
        n_geom = _int(obj, "n_geom")
    else:
        tkeys = [k for k in obj.get("matrices", {}) if k.startswith("t")]
        n_geom = max((int(k[1:]) for k in tkeys), default=1)
    return ValuationConfig(p, u_weights, n_geom)


def module_from_obj(obj: dict) -> DiffModule:
    """Read a module object; ``ValueError`` names a malformed part by its path."""
    for key in ("matrices", "rank"):
        if key not in obj:
            raise ValueError(f"module input has no {key!r} key")
    mats = _expect(obj["matrices"], dict, "matrices", "an object")
    cfg = config_from_obj(obj)
    out = {}
    for a, mat in mats.items():
        out[a] = [
            [_laurent(cfg, x, f"matrices.{a}[{i}][{j}]")
             for j, x in enumerate(_expect(row, list, f"matrices.{a}[{i}]", "a list"))]
            for i, row in enumerate(_expect(mat, list, f"matrices.{a}", "a list of rows"))
        ]
    return DiffModule(cfg, _int(obj, "rank"), out)


def poly_to_obj(P: TwistedPoly) -> dict:
    """``{"derivation", "coeffs"}``; ``ValueError`` unless every coefficient is Laurent."""
    return {"derivation": P.axis, "coeffs": [laurent_to_obj(c) for c in P.laurent().coeffs]}


def poly_from_obj(config: ValuationConfig, obj: dict) -> TwistedPoly:
    """Read ``{"derivation", "coeffs"}``; ``ValueError`` names a malformed part."""
    if "derivation" not in obj:
        raise ValueError("polynomial input has no 'derivation' key")
    axis = _expect(obj["derivation"], str, "derivation", "an axis name")
    coeffs = [_laurent(config, c, f"coeffs[{i}]")
              for i, c in enumerate(_expect(obj.get("coeffs"), list, "coeffs", "a list"))]
    return TwistedPoly(config, axis, coeffs)


def polygon_to_obj(np_: NewtonPolygon) -> dict:
    return {
        "vertices": [[x, frac_str(y)] for x, y in np_.vertices],
        "slopes": [[frac_str(s), m] for s, m in np_.slopes],
    }


def multiset_to_obj(ms: RadiiMultiset) -> dict:
    vis = sorted((v, m) for v, m, c in ms.entries if not c)
    out = {"kind": ms.kind, "entries": [[frac_str(v), m] for v, m in vis]}
    capped = sorted((v, m) for v, m, c in ms.entries if c)
    if capped:
        out["capped"] = [[frac_str(v), m] for v, m in capped]
    return out


def multiset_from_obj(obj: dict) -> RadiiMultiset:
    kind = obj.get("kind", "intrinsic")
    entries = [(parse_frac(v), int(m), False) for v, m in obj.get("entries", [])]
    entries += [(parse_frac(v), int(m), True) for v, m in obj.get("capped", [])]
    return RadiiMultiset.make(entries, kind)


def profile_to_obj(profile: RadiusProfile) -> dict:
    return {
        "axis": profile.axis,
        "kind": profile.kind,
        "p": profile.p,
        "rank": profile.rank,
        "window": [frac_str(profile.window[0]), frac_str(profile.window[1])],
        "axis_weight": None
        if profile.axis_weight is None
        else frac_str(profile.axis_weight),
        "cells": [
            {
                "lo": frac_str(c.lo),
                "hi": frac_str(c.hi),
                "visible": [[frac_str(s), frac_str(v)] for s, v in c.visible],
                "capped": c.capped,
                "cap": [frac_str(c.cap[0]), frac_str(c.cap[1])],
            }
            for c in profile.cells
        ],
    }


def profile_from_obj(obj: dict) -> RadiusProfile:
    cells = tuple(
        ProfileCell(
            parse_frac(c["lo"]),
            parse_frac(c["hi"]),
            tuple((parse_frac(s), parse_frac(v)) for s, v in c["visible"]),
            int(c.get("capped", 0)),
            (parse_frac(c["cap"][0]), parse_frac(c["cap"][1]))
            if "cap" in c
            else (Fraction(0), Fraction(0)),
        )
        for c in obj["cells"]
    )
    weight = obj.get("axis_weight")
    return RadiusProfile(
        obj["axis"],
        obj["kind"],
        int(obj["p"]),
        int(obj["rank"]),
        (parse_frac(obj["window"][0]), parse_frac(obj["window"][1])),
        cells,
        None if weight is None else parse_frac(weight),
    )


def trp_from_obj(obj: dict) -> TRPSet:
    cs = [
        AffineFunctional(tuple(c["slope"]), parse_frac(c["const"]))
        for c in obj["constraints"]
    ]
    return TRPSet.make(cs, int(obj["dim"]))


def polyfunc_to_obj(F: PolyFunc) -> dict:
    return {
        "functionals": [
            {"slope": list(f.slope), "const": frac_str(f.const)} for f in F.functionals
        ]
    }


def polyfunc_from_obj(obj: dict) -> PolyFunc:
    return PolyFunc.make(
        [
            AffineFunctional(tuple(f["slope"]), parse_frac(f["const"]))
            for f in obj["functionals"]
        ]
    )
