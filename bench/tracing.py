"""In-memory spans around calls into the annuli layers.

A span records ``(name, start, end, parent, job)``; spans nest through a
stack, so a span's self time is its duration minus the durations of its
direct children (the loop is single-threaded, children never overlap).
Counters are ``(job, value)`` samples attached to a name.  Nothing is written
until :meth:`Tracer.dump` at the end of a run.

:func:`install` rebinds public functions of the loaded ``annuli`` modules to
timing wrappers (every module attribute bound to the original is replaced, so
calls between layers are seen as well as the benchmark's own).  Counters are
taken only from returned objects and public arguments.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self._stack = []
        self.job = None
        self.counters = defaultdict(list)  # name -> [(job, value)]
        self.charpolys = defaultdict(list)  # job -> [(axis, charpoly)]

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counters[name].append((self.job, value))

    def wrap(self, fn, name, observe=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ---------------------------------------------------------

    def self_times_ms(self) -> dict:
        """``name -> [self time in ms per span]``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(list)
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name].append((end - start - c) * 1000.0)
        return out

    def wall_ms(self, name) -> list:
        return [(end - start) * 1000.0 for n, start, end, _, _ in self.spans if n == name]

    def counter_values(self, name, jobs=None) -> list:
        return [v for job, v in self.counters[name] if jobs is None or jobs(job)]

    def dump(self, path):
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "job": j if j is None else str(j)}
            for n, s, e, p, j in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def _charpoly_terms(tracer, args, kwargs, out):
    _, P = out
    terms = 0
    for c in P.coeffs:
        if hasattr(c, "num"):
            terms += len(c.num.terms) + len(c.den.terms)
        else:
            terms += len(c.terms)
    tracer.count("valued.charpoly_terms", terms)
    tracer.count("modules.cyclic_vector.calls", 1)
    tracer.charpolys[tracer.job].append((args[1], P))


def _slope_cells(tracer, args, kwargs, out):
    cells = len(set().union(*(f.knots for f in out.fs))) - 1 if out.fs else 1
    tracer.count("twisted.slope_functions.cells", cells)


def _profile_cells(tracer, args, kwargs, out):
    tracer.count("profiles.build_radius_profile.cells", len(out.cells))


def _decompose_overshoot(tracer, args, kwargs, out):
    res = [r for _, _, r in out if isinstance(r, Fraction)]
    if res:
        tracer.count("modules.decompose_fiber.overshoot", min(res) - Fraction(args[3]))


def _robba_wrapper(tracer, fn):
    """Time ``robba_factor`` and read its residual history through ``trace=``."""

    def wrapper(P, r, split_slope, precision, budget=64, trace=None):
        history = [] if trace is None else trace
        start = len(history)
        with tracer.span("twisted.robba_factor"):
            out = fn(P, r, split_slope, precision, budget=budget, trace=history)
        tracer.count("twisted.robba_factor.iterations", len(history) - start)
        if isinstance(out[2], Fraction):
            tracer.count("twisted.robba_factor.overshoot", out[2] - Fraction(precision))
        return out

    wrapper.__wrapped__ = fn
    return wrapper


# (module, function, span name, observer)
WRAPPED = (
    ("modules", "cyclic_vector", "modules.cyclic_vector", _charpoly_terms),
    ("modules", "decompose_fiber", "modules.decompose_fiber", _decompose_overshoot),
    ("modules", "spectral_valuation_estimate", "modules.spectral_valuation_estimate", None),
    ("twisted", "slope_functions", "twisted.slope_functions", _slope_cells),
    ("twisted", "newton_polygon", "twisted.newton_polygon", None),
    ("profiles", "build_radius_profile", "profiles.build_radius_profile", _profile_cells),
    ("profiles", "verify_variation", "profiles.verify_variation", None),
    ("profiles", "decomposition_loci", "profiles.decomposition_loci", None),
    ("polyhedral", "reconstruct_polyhedral", "polyhedral.reconstruct_polyhedral", None),
    ("polyhedral", "multidim_profile", "polyhedral.multidim_profile", None),
    ("polyhedral", "multidim_loci", "polyhedral.multidim_loci", None),
    ("serialize", "module_from_obj", "serialize.module_from_obj", None),
)


def install(tracer, lib) -> list:
    """Rebind the wrapped functions in every loaded ``annuli`` module.

    Returns the bindings ``(module, attribute, original, wrapper)`` for
    :func:`activate`.
    """
    replacements = []
    for modname, fname, span, observe in WRAPPED:
        orig = getattr(getattr(lib, modname), fname)
        replacements.append((orig, tracer.wrap(orig, span, observe)))
    orig = lib.twisted.robba_factor
    replacements.append((orig, _robba_wrapper(tracer, orig)))
    bindings = []
    mods = [m for n, m in list(sys.modules.items()) if n == "annuli" or n.startswith("annuli.")]
    for mod in mods:
        for attr, val in list(vars(mod).items()):
            for orig, new in replacements:
                if val is orig:
                    bindings.append((mod, attr, orig, new))
    activate(bindings, True)
    return bindings


def activate(bindings, on: bool):
    """Point every binding at its wrapper (``on``) or at the original."""
    for mod, attr, orig, new in bindings:
        setattr(mod, attr, new if on else orig)
