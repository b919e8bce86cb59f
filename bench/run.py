"""End-to-end and per-layer benchmark of the annuli library and CLI.

Usage (from the repository root):

    python3 bench/run.py --workload profile-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client runs one job at a time in this process (closed loop, no threads);
``cli-batch`` runs each job as a ``python -m annuli.cli`` subprocess.  Jobs are
grouped in rounds with a fixed mix (see ``corpus.py``); the timed phase runs
whole rounds until ``--seconds`` have passed.  Every result is checked against
closed forms in ``reference.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate run
that wraps calls into each layer in spans (``tracing.py``) and prints the
per-layer metrics: it runs each job of the first three rounds untraced and
traced (the ratio is the tracing overhead), keeps running traced rounds for
``--seconds``, and finishes with a fixed layer probe that reproduces the
baseline rows and touches every layer.  Counters come from the first round
and the probe, so two traced runs with one seed give identical counts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import corpus
import jobs
import tracing

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 9
PAIRED_ROUNDS = 3  # rounds run both untraced and traced for trace.overhead_frac
LAYER_MODULES = ("valued", "twisted", "modules", "profiles", "polyhedral", "serialize")
ROBBA_BASELINE = [F(x) for x in (-5, -4, -1, 1, 3, 5, 7, 9, 11)]


class HarnessError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


# -- set-up -------------------------------------------------------------------------


class Lib:
    """The freshly imported annuli layer modules."""

    def __init__(self):
        for name in LAYER_MODULES:
            setattr(self, name, importlib.import_module(f"annuli.{name}"))


def _annuli_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "annuli" or n.startswith("annuli.")}


def import_annuli() -> Lib:
    for name in _annuli_modules():
        del sys.modules[name]
    importlib.import_module("annuli")
    lib = Lib()
    origin = Path(sys.modules["annuli"].__file__).resolve()
    if SRC not in origin.parents:
        raise HarnessError(f"annuli imported from {origin}, not from {SRC}")
    return lib


def setup_once(workload, seed):
    """Import annuli, generate the seeded corpus and parse every input."""
    lib = import_annuli()
    rounds = corpus.generate(workload, seed)
    if workload == "cli-batch":
        WORKDIR.mkdir(exist_ok=True)
        parsed = []
        for i, inputs in enumerate(rounds):
            jobs.parse_cli_inputs(lib, inputs)
            parsed.append(jobs.write_cli_inputs(str(WORKDIR), i, inputs))
    else:
        parsed = [[jobs.parse(lib, spec) for spec in specs] for specs in rounds]
    return lib, rounds, parsed


def setup_sources():
    if not (SRC / "annuli" / "__init__.py").is_file():
        raise HarnessError(f"annuli sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def timed_setup(workload, seed):
    """One set-up and its time.  A set-up made while a run is going on
    imports annuli afresh like any other, then puts the run's modules back,
    so the running loop never sees objects of a second import."""
    running = _annuli_modules()
    gc.collect()
    t0 = time.perf_counter()
    state = setup_once(workload, seed)
    elapsed = time.perf_counter() - t0
    if running:
        for name in _annuli_modules():
            del sys.modules[name]
        sys.modules.update(running)
        state = None
    return state, elapsed


def setup(workload, seed):
    """The set-up whose state the run uses, and its time."""
    setup_sources()
    return timed_setup(workload, seed)


# -- the closed loop ------------------------------------------------------------------


class Loop:
    """Runs rounds of one workload and records latency and failures."""

    def __init__(self, workload, lib, rounds, parsed, tracer=None):
        self.workload = workload
        self.lib = lib
        self.rounds = rounds
        self.parsed = parsed
        self.tracer = tracer
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.outputs = {}  # cli: (input set, command index) -> first stdout
        self.charpolys = []  # traced profile jobs: charpolys of the last job
        self.env = jobs.cli_env(str(SRC))

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def run_rounds(self, first, min_rounds, seconds, between=None):
        """Rounds ``first, first+1, ...`` until both limits are reached.

        ``between(busy)`` runs after each round but the last, off the clock.
        Returns the next round and the time spent in rounds."""
        busy = 0.0
        j = first
        while True:
            t0 = time.perf_counter()
            self.run_round(j)
            busy += time.perf_counter() - t0
            j += 1
            if j - first >= min_rounds and busy >= seconds:
                return j, busy
            if between is not None:
                between(busy)

    def round_size(self, j) -> int:
        k = j % len(self.rounds)
        if self.workload == "cli-batch":
            return len(jobs.cli_commands(self.rounds[k], self.parsed[k]))
        return len(self.rounds[k])

    def run_round(self, j):
        for idx in range(self.round_size(j)):
            self.run_one(j, idx)

    def run_one(self, j, idx, mutate=None):
        """Job ``idx`` of round ``j``; ``mutate`` corrupts its result (self-test)."""
        k = j % len(self.rounds)
        if self.tracer is not None:
            self.tracer.job = (j, idx)
        if self.workload == "cli-batch":
            sub, argv, check = jobs.cli_commands(self.rounds[k], self.parsed[k])[idx]
            self.run_cli(k, idx, sub, argv, check, mutate)
        else:
            self.run_job(self.rounds[k][idx], self.parsed[k][idx], mutate)

    def run_job(self, spec, parsed, mutate=None):
        run, check = jobs.RUNNERS[spec["kind"]]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = run(self.lib, spec, parsed, self.tracer)
        except Exception as e:  # a raising job is a failed job, the loop goes on
            self.fail(f"{spec['kind']}: {type(e).__name__}: {e}")
            return
        elapsed = time.perf_counter() - t0
        if mutate is not None:
            result = mutate(spec, result)
        why = check(spec, result)
        if self.tracer is not None and spec["kind"] == "profile":
            self.charpolys = self.tracer.charpolys.pop(self.tracer.job, [])
            why = why or jobs.sample_charpolys(self.lib, spec, self.charpolys, self.tracer)
        if why:
            self.fail(f"{spec['kind']}: {why}")
            return
        self.latencies.append(elapsed)

    def run_cli(self, k, idx, sub, argv, check, mutate=None):
        self.attempted += 1
        t0 = time.perf_counter()
        if self.tracer is None:
            proc = jobs.run_cli(argv, self.env, str(ROOT))
        else:
            with self.tracer.span(f"cli.{sub}"):
                proc = jobs.run_cli(argv, self.env, str(ROOT))
        elapsed = time.perf_counter() - t0
        out = proc.stdout if mutate is None else mutate(sub, proc.stdout)
        if proc.returncode != 0:
            self.fail(f"cli {sub}: exit {proc.returncode}: {proc.stderr.decode()[-200:]}")
            return
        if self.outputs.setdefault((k, idx), out) != out:
            self.fail(f"cli {sub}: stdout differs from an earlier identical call")
            return
        try:
            why = check(out)
        except (ValueError, KeyError, IndexError) as e:
            why = f"unparsable output: {e}"
        if why:
            self.fail(f"cli {sub}: {why}")
            return
        self.latencies.append(elapsed)


# -- metrics ---------------------------------------------------------------------------


def tail(latencies):
    """Highest percentile with at least ten jobs beyond it: the 11th largest."""
    n = len(latencies)
    if n < 11:
        raise HarnessError(f"only {n} jobs completed; the tail needs at least 11")
    xs = sorted(latencies)
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, loop, wall, setup_times):
    lat = loop.latencies
    tail_s, tail_q = tail(lat)
    who = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    metrics = {
        "jobs_per_s": (len(lat) / wall, "jobs/s"),
        "job_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "job_tail_ms": (tail_s * 1000.0, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "job_tail_ms": f"p{tail_q:.1f}, 10 of {len(lat)} jobs beyond",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "jobs_per_s": f"{len(lat)} checked jobs in {wall:.2f} s",
    }
    return metrics, notes


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "annuli").glob("*.py")))


def _mean(xs):
    return statistics.fmean(xs) if xs else None


# -- the traced run ---------------------------------------------------------------------


def cli_probe(loop, tracer):
    """Bare interpreter, ``import annuli.cli`` and one call of each subcommand."""
    env = loop.env
    for _ in range(3):
        with tracer.span("cli.interpreter"):
            subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=str(ROOT), check=True)
        with tracer.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import annuli.cli"], env=env, cwd=str(ROOT), check=True)
    WORKDIR.mkdir(exist_ok=True)
    inputs = corpus.cli_inputs(random.Random("probe"), random.Random("probe/shape"), 0)
    paths = jobs.write_cli_inputs(str(WORKDIR), "probe", inputs)
    probe_loop = Loop("cli-batch", loop.lib, [inputs], [paths], tracer)
    probe_loop.run_round(0)
    # the ROADMAP row: radii --format json on the rank-one module d/dt v = t^-2 v
    rank_one = WORKDIR / "probe-rank1.json"
    rank_one.write_text(json.dumps(corpus.twist_sum_obj(2, [(1, 2)])), encoding="utf-8")
    with tracer.span("baseline.cli_radii_json"):
        proc = jobs.run_cli(["radii", "--input", str(rank_one), "--axis", "t1", "--geom", "t1",
                             "--window", "1/2", "2", "--format", "json"], env, str(ROOT))
    probe_loop.attempted += 1
    if proc.returncode != 0:
        probe_loop.fail("cli radii (rank one): nonzero exit")
    loop.attempted += probe_loop.attempted
    loop.failed += probe_loop.failed
    loop.errors += probe_loop.errors


def baseline_probe(loop, tracer, rows):
    """The ROADMAP baseline rows plus one small call into every layer."""
    lib = loop.lib

    def job(name, spec):
        tracer.job = ("probe", name)
        parsed = jobs.parse(lib, spec)
        with tracer.span(f"baseline.{name}"):
            loop.run_job(spec, parsed)
        rows[name] = tracer.wall_ms(f"baseline.{name}")[-1]

    for d in (2, 3, 4):
        twists = [(1, k) for k in range(2, d + 2)]
        job(f"profile_rank{d}", {
            "kind": "profile", "p": 2, "summands": [[tw] for tw in twists], "axis": "t1",
            "base": False, "w": F(0), "window": (F(1, 2), F(2)),
            "samples": [F(600, 997), F(1500, 997), F(1900, 997)],
            "module": corpus.twist_sum_obj(2, twists)})
        if d == 4:
            rows["charpoly_rank4_terms"] = [
                (len(c.num.terms), len(c.den.terms)) for _, P in loop.charpolys for c in P.coeffs[:-1]
            ]
    twists = [(1, 2), (1, 3), (1, 4)]
    job("spectral_rank3_n256", {"kind": "spectral", "p": 2, "r": F(1), "twists": twists, "n": 256,
                                "module": corpus.twist_sum_obj(2, twists)})
    factors = [(1, 2), (1, 3)]
    history = []
    job("robba", {"kind": "robba", "p": 2, "r": F(1), "factors": factors, "precision": F(10),
                  "poly": corpus.poly_obj(2, factors), "history": history})
    rows["robba_trace"] = history
    # two visible radii, so the projector residuals are finite
    twists = [(9, 2), (1, 3)]
    job("decompose", {"kind": "decompose", "p": 3, "r": F(3), "twists": twists,
                      "precision": F(1), "module": corpus.twist_sum_obj(3, twists)})
    pots = [(F(1), (-1, -1)), (F(2), (-1, -3))]
    box = ((F(1), F(2)), (F(1), F(2)))
    job("recon", {"kind": "recon", "p": 2, "potentials": pots[:1], "box": box, "level": 1,
                  "samples": [(F(1200, 997), F(1700, 997))],
                  "module": corpus.potential_module(2, pots[:1])})
    job("multidim", {"kind": "multidim", "p": 2, "potentials": pots, "box": box,
                     "slices": [((F(5, 4), F(3, 2)), (1, 0)), ((F(5, 4), F(3, 2)), (1, 1))],
                     "module": corpus.potential_module(2, pots)})
    cons = [((1, 0), F(0)), ((-1, 0), F(2)), ((0, 1), F(0)), ((0, -1), F(2))]
    job("synthetic", {"kind": "synthetic", "domain": cons,
                      "functionals": [((1, 0), F(0)), ((0, 1), F(1, 2))],
                      "samples": [(F(300, 997), F(1500, 997)), (F(1800, 997), F(100, 997))]})
    cli_probe(loop, tracer)
    rows["cli_radii_json"] = tracer.wall_ms("baseline.cli_radii_json")[-1]


SPAN_METRICS = (
    "modules.cyclic_vector", "valued.gauss_valuation", "twisted.slope_functions",
    "twisted.newton_polygon", "twisted.robba_factor", "twisted.twisted_mul",
    "modules.decompose_fiber", "modules.spectral_valuation_estimate",
    "profiles.build_radius_profile", "profiles.verify_variation", "profiles.decomposition_loci",
    "polyhedral.reconstruct_polyhedral", "polyhedral.slice_oracle", "polyhedral.multidim_profile",
    "serialize.module_from_obj",
)
CLI_SUBCOMMANDS = ("radii", "verify", "frobenius", "factor", "polyhedral", "loci")
COUNTERS = (
    ("modules.cyclic_vector.calls", "sum"),
    ("valued.charpoly_terms", "mean"),
    ("twisted.slope_functions.cells", "mean"),
    ("twisted.robba_factor.iterations", "mean"),
    ("twisted.robba_factor.overshoot", "mean"),
    ("modules.decompose_fiber.overshoot", "mean"),
    ("profiles.build_radius_profile.cells", "mean"),
    ("polyhedral.slice_oracle.calls", "mean"),
)


def counted(job) -> bool:
    """Counters come from the first round and the probe, which every traced
    run with one seed repeats exactly."""
    return job is not None and (job[0] == "probe" or job[0] == 0)


def per_layer(tracer, overhead, rows):
    self_ms = tracer.self_times_ms()
    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.ms"] = (_mean(self_ms.get(name, [])), "ms")
    for name, how in COUNTERS:
        vals = tracer.counter_values(name, counted)
        value = sum(vals) if how == "sum" else _mean(vals)
        m[name] = (None if value is None else float(value), "count")
    calls = sum(tracer.counter_values("polyhedral.slice_oracle.calls", counted))
    distinct = sum(tracer.counter_values("polyhedral.slice_oracle.distinct", counted))
    m["polyhedral.slice_oracle.distinct_ratio"] = (distinct / calls if calls else None, "ratio")
    interp = _mean(tracer.wall_ms("cli.interpreter"))
    m["cli.interpreter_ms"] = (interp, "ms")
    m["cli.import_ms"] = (_mean(tracer.wall_ms("cli.import")) - interp, "ms")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.ms"] = (_mean(tracer.wall_ms(f"cli.{sub}")), "ms")
    m["src.lines"] = (float(src_lines()), "lines")
    m["trace.overhead_frac"] = (overhead, "ratio")
    for d in (2, 3, 4):
        m[f"baseline.profile_rank{d}.ms"] = (rows[f"profile_rank{d}"], "ms")
    m["baseline.spectral_rank3_n256.ms"] = (rows["spectral_rank3_n256"], "ms")
    m["baseline.robba.ms"] = (rows["robba"], "ms")
    m["baseline.robba.iterations"] = (float(len(rows["robba_trace"])), "count")
    m["baseline.cli_radii_json.ms"] = (rows["cli_radii_json"], "ms")
    missing = [k for k, (v, _) in m.items() if v is None]
    if missing:
        raise HarnessError(f"traced run produced no samples for {missing}")
    return m


def traced_run(workload, seed, lib, rounds, parsed, seconds):
    tracer = tracing.Tracer()
    bindings = tracing.install(tracer, lib)
    loop = Loop(workload, lib, rounds, parsed, tracer)
    # the first rounds job by job, untraced on freshly parsed inputs and
    # traced, each job's two runs back to back and in alternating order, so
    # the machine's drift and warm-up cancel out of the overhead ratio
    paired = min(PAIRED_ROUNDS, len(rounds))
    tracing.activate(bindings, False)
    fresh = parsed if workload == "cli-batch" else [
        [jobs.parse(lib, spec) for spec in specs] for specs in rounds[:paired]]
    plain = Loop(workload, lib, rounds[:paired], fresh)
    t0 = time.perf_counter()
    for j in range(paired):
        for idx in range(loop.round_size(j)):
            for traced in ((False, True) if (j + idx) % 2 == 0 else (True, False)):
                tracing.activate(bindings, traced)
                (loop if traced else plain).run_one(j, idx)
    tracing.activate(bindings, True)
    overhead = sum(loop.latencies) / sum(plain.latencies) - 1.0
    remaining = seconds - (time.perf_counter() - t0)
    if remaining > 0:
        loop.run_rounds(paired, 0, remaining)
    tracer.job = ("probe", "setup")
    if workload != "cli-batch":
        for specs in rounds:
            for spec in specs:
                if "module" in spec:
                    lib.serialize.module_from_obj(spec["module"])
    rows = {}
    baseline_probe(loop, tracer, rows)
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.errors += plain.errors
    WORKDIR.mkdir(exist_ok=True)
    tracer.dump(WORKDIR / f"trace-{workload}-seed{seed}.json")
    return loop, per_layer(tracer, overhead, rows), rows


# -- output -------------------------------------------------------------------------------


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(workload, seed, loop, metrics, notes, extra_lines=()):
    out = sys.stdout
    attempted, failed = loop.attempted, loop.failed
    out.write(f"workload {workload}  seed {seed}  attempted {attempted}  failed {failed}\n")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        out.write(f"  {name:<44} {fmt(value):>14} {unit:<7} {note}\n")
    frac = failed / attempted if attempted else 0.0
    out.write(f"  {'fail_frac':<44} {fmt(frac):>14} {'ratio':<7} {failed} of {attempted}\n")
    for line in extra_lines:
        out.write(f"  {line}\n")
    for err in loop.errors:
        sys.stderr.write(f"failure: {err}\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


def baseline_lines(rows) -> list:
    trace = [str(x) for x in rows["robba_trace"]]
    same = rows["robba_trace"] == ROBBA_BASELINE
    terms = rows["charpoly_rank4_terms"]
    nums = [n for n, _ in terms] or [0]
    dens = [d for _, d in terms] or [0]
    return [
        "baseline: profile rank 2/3/4 = "
        + " / ".join(f"{rows[f'profile_rank{d}'] / 1000:.3f}" for d in (2, 3, 4)) + " s",
        f"baseline: rank-4 charpoly terms per coefficient: numerator {min(nums)}-{max(nums)}, "
        f"denominator {min(dens)}-{max(dens)}",
        f"baseline: spectral rank 3, n=256 = {rows['spectral_rank3_n256'] / 1000:.3f} s",
        f"baseline: robba residual trace {', '.join(trace)} "
        + ("(matches ROADMAP)" if same else "(differs from ROADMAP -5, -4, -1, 1, 3, 5, 7, 9, 11)"),
        f"baseline: one CLI call (radii --format json, rank 1) = {rows['cli_radii_json']:.1f} ms",
    ]


def run_all(args) -> int:
    """Run every workload in its own process and print the metrics of each."""
    status = 0
    for workload in corpus.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    (lib, rounds, parsed), first_setup = setup(args.workload, args.seed)
    if args.trace:
        loop, metrics, rows = traced_run(args.workload, args.seed, lib, rounds, parsed, args.seconds)
        return report(args.workload, args.seed, loop, metrics, {}, baseline_lines(rows))
    setup_times = [first_setup]

    def between(busy):
        # the other set-ups are spread over the run, so their median sees the
        # machine in the same states as the jobs do
        if len(setup_times) < SETUP_REPEATS and busy >= len(setup_times) * args.seconds / SETUP_REPEATS:
            setup_times.append(timed_setup(args.workload, args.seed)[1])

    loop = Loop(args.workload, lib, rounds, parsed)
    _, wall = loop.run_rounds(0, 1, args.seconds, between)
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_setup(args.workload, args.seed)[1])
    metrics, notes = end_to_end(args.workload, loop, wall, setup_times)
    return report(args.workload, args.seed, loop, metrics, notes)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as e:
        sys.stderr.write(f"error: {e}\n")
        sys.exit(2)
