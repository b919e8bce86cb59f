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
from .valued import LaurentElement, ValuationConfig, _is_prime

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


def _int(x, path: str) -> int:
    """``x`` as an integer; a ``bool`` or any other type is refused."""
    if type(x) is not int:
        raise ValueError(f"{path}: expected an integer, got {x!r}")
    return x


def _ints(x, path: str, n: int = None) -> list:
    """``x`` as a list of integers, of length ``n`` when given."""
    if not (isinstance(x, list) and n in (None, len(x)) and all(type(a) is int for a in x)):
        raise ValueError(f"{path}: expected a list of {f'{n} ' if n else ''}integers, got {x!r}")
    return x


def _frac(x, path: str) -> Fraction:
    try:
        return parse_frac(x)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _fracs(x, path: str, n: int = None) -> list:
    """``x`` as a list of rationals, of length ``n`` when given."""
    if not (isinstance(x, list) and n in (None, len(x))):
        raise ValueError(f"{path}: expected a list of {f'{n} ' if n else ''}rationals, got {x!r}")
    return [_frac(v, f"{path}[{k}]") for k, v in enumerate(x)]


def _laurent(config: ValuationConfig, obj, path: str) -> LaurentElement:
    _expect(obj, dict, path, "an object with a 'terms' list")
    terms = {}
    for k, t in enumerate(_expect(obj.get("terms"), list, f"{path}.terms", "a list")):
        at = f"{path}.terms[{k}]"
        if not (isinstance(t, dict) and "c" in t and set(t) <= {"c", "u", "t"}):
            raise ValueError(f"{at}: expected an object with key c and optional u, t, got {t!r}")
        c = _frac(t["c"], f"{at}.c")
        key = (tuple(_ints(t.get("u", [0] * config.m_base), f"{at}.u", config.m_base)),
               tuple(_ints(t.get("t", [0] * config.n_geom), f"{at}.t", config.n_geom)))
        terms[key] = terms.get(key, Fraction(0)) + c
    return LaurentElement(config, terms)


def laurent_from_obj(config: ValuationConfig, obj: dict) -> LaurentElement:
    """Read ``{"terms": [{"c", "u", "t"}, ...]}``; ``ValueError`` names a malformed part."""
    return _laurent(config, obj, "element")


def config_from_obj(obj: dict) -> ValuationConfig:
    """Read ``p``, ``u_weights`` and ``n_geom``; ``ValueError`` names a malformed field."""
    if "p" not in obj:
        raise ValueError("input has no 'p' key")
    p = _int(obj["p"], "p")
    u_weights = _fracs(obj.get("u_weights", []), "u_weights")
    if "n_geom" in obj:
        n_geom = _int(obj["n_geom"], "n_geom")
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
    return DiffModule(cfg, _int(obj["rank"], "rank"), out)


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
    """Read ``{"kind", "entries", "capped"}``; ``ValueError`` names a malformed part."""
    kind = _expect(obj.get("kind", "intrinsic"), str, "kind", "a string")
    entries = []
    for key, capped in (("entries", False), ("capped", True)):
        for k, e in enumerate(_expect(obj.get(key, []), list, key, "a list")):
            if not (isinstance(e, list) and len(e) == 2):
                raise ValueError(f"{key}[{k}]: expected a [value, multiplicity] pair, got {e!r}")
            mult = _int(e[1], f"{key}[{k}][1]")
            if mult < 0:
                raise ValueError(f"{key}[{k}][1]: expected a nonnegative integer, got {mult}")
            entries.append((_frac(e[0], f"{key}[{k}][0]"), mult, capped))
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
    """Read a profile object; ``ValueError`` names a malformed part by its path."""
    cells = []
    for k, c in enumerate(_expect(obj.get("cells"), list, "cells", "a list")):
        at = f"cells[{k}]"
        _expect(c, dict, at, "an object")
        visible = _expect(c.get("visible"), list, f"{at}.visible", "a list")
        cells.append(ProfileCell(
            _frac(c.get("lo"), f"{at}.lo"),
            _frac(c.get("hi"), f"{at}.hi"),
            tuple(tuple(_fracs(sv, f"{at}.visible[{i}]", 2)) for i, sv in enumerate(visible)),
            _int(c.get("capped", 0), f"{at}.capped"),
            tuple(_fracs(c.get("cap", [0, 0]), f"{at}.cap", 2)),
        ))
    weight, p = obj.get("axis_weight"), _int(obj.get("p"), "p")
    if p != 0 and not _is_prime(p):
        raise ValueError(f"p: expected 0 or a prime, got {p}")
    return RadiusProfile(
        _expect(obj.get("axis"), str, "axis", "an axis name"),
        _expect(obj.get("kind"), str, "kind", "a string"),
        p,
        _int(obj.get("rank"), "rank"),
        tuple(_fracs(obj.get("window"), "window", 2)),
        tuple(cells),
        None if weight is None else _frac(weight, "axis_weight"),
    )


def _functionals(fs, path: str, dim: int = None) -> list:
    """Read ``[{"slope", "const"}]`` as affine functionals, slopes of length ``dim``."""
    out = []
    for k, f in enumerate(_expect(fs, list, path, "a list")):
        at = f"{path}[{k}]"
        _expect(f, dict, at, "an object with slope and const")
        out.append(AffineFunctional(tuple(_ints(f.get("slope"), f"{at}.slope", dim)),
                                    _frac(f.get("const"), f"{at}.const")))
    return out


def trp_from_obj(obj: dict) -> TRPSet:
    """Read the domain ``{"dim", "constraints"}``; ``ValueError`` names a malformed part."""
    _expect(obj, dict, "domain", "an object")
    dim = _int(obj.get("dim"), "domain.dim")
    return TRPSet.make(_functionals(obj.get("constraints"), "domain.constraints", dim), dim)


def polyfunc_to_obj(F: PolyFunc) -> dict:
    return {
        "functionals": [
            {"slope": list(f.slope), "const": frac_str(f.const)} for f in F.functionals
        ]
    }


def polyfunc_from_obj(obj: dict, dim: int = None) -> PolyFunc:
    """Read ``{"functionals"}``, slopes of length ``dim``; ``ValueError`` names a bad part."""
    return PolyFunc.make(_functionals(obj.get("functionals"), "functionals", dim))
