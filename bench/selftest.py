"""Self-tests of the benchmark itself.

    python3 bench/selftest.py            # corrupted results are counted as failures
    python3 bench/selftest.py --repeat   # counters repeat exactly across two traced runs

The first test runs one round of every workload twice: once as is, where no
job may fail, and once with every result deliberately corrupted after the
timed call, where every job must be counted as failed.  The second runs the
traced benchmark twice with one seed and flags every counter that differs.
Exit status 0 means every check held.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import corpus
import run


def _fake_polyfunc(got):
    return SimpleNamespace(functionals=[SimpleNamespace(slope=f.slope, const=f.const + 1)
                                        for f in got.functionals])


def corrupt(spec, result):
    """A plausible but wrong version of a job's result."""
    kind = spec["kind"]
    if kind == "profile":
        prof, rep, loci = result
        cells = list(prof.cells)
        c = cells[0]
        if c.visible:
            (s, v), *rest = c.visible
            cells[0] = replace(c, visible=((s, v + 1), *rest))
        else:
            cells[0] = replace(c, capped=c.capped + 1)
        return replace(prof, cells=tuple(cells)), rep, loci
    if kind == "robba":
        qlo, qhi, res, diff = result
        return qhi, qlo, res, diff
    if kind == "decompose":
        return result[:-1]
    if kind == "spectral":
        est, window = result
        return est + 1, window
    if kind in ("recon", "synthetic"):
        return _fake_polyfunc(result)
    if kind == "multidim":
        rep, loci = result
        return rep, loci + [{"index": 99, "complete": True, "slices": []}]
    raise ValueError(kind)


def corrupt_stdout(sub, out):
    """A CLI output that differs from the first call on the same input."""
    return out + b"\n"


def corrupted_results_counted() -> bool:
    ok = True
    for workload in corpus.WORKLOADS:
        lib, rounds, parsed = run.setup_once(workload, 1)
        loop = run.Loop(workload, lib, rounds, parsed)
        bad = corrupt_stdout if workload == "cli-batch" else corrupt
        for mutate in (None, bad):
            for idx in range(loop.round_size(0)):
                loop.run_one(0, idx, mutate)
            if mutate is None:
                clean = (loop.attempted, loop.failed)
        n = clean[0]
        counted = loop.failed - clean[1]
        good = clean[1] == 0 and loop.attempted == 2 * n and counted == n
        ok = ok and good
        print(f"{workload}: {n} clean jobs, {clean[1]} failed; "
              f"{n} corrupted jobs, {counted} counted as failed -> {'ok' if good else 'WRONG'}")
    return ok


def counters_repeat(workloads, seed=3) -> bool:
    """Two traced runs with one seed must give identical counters."""
    ok = True
    script = Path(__file__).resolve().parent / "run.py"
    for workload in workloads:
        results = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, check=True, timeout=900)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
        a, b = results
        counters = [k for k, m in a.items() if m["unit"] in ("count", "lines")
                    or k == "polyhedral.slice_oracle.distinct_ratio"]
        differ = [k for k in counters if a[k]["value"] != b[k]["value"]]
        for k in differ:
            print(f"{workload}: counter {k} does not repeat: {a[k]['value']} vs {b[k]['value']}")
        print(f"{workload}: {len(counters) - len(differ)} of {len(counters)} counters repeat exactly")
        ok = ok and not differ
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", action="store_true", help="check that counters repeat")
    args = ap.parse_args()
    run.setup_sources()
    ok = counters_repeat(corpus.WORKLOADS) if args.repeat else corrupted_results_counted()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
