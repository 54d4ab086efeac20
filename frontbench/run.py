#!/usr/bin/env python3
"""Benchmark of frontforge's three front computations.

Run from the repository root:

    python3 frontbench/run.py --workload variational --seed 1 --seconds 25 --trace 0

Workloads: variational, evolution, oracle-field (see README.md).  With
--trace 0 it prints the end-to-end metrics setup_s, round_s and peak_rss_mb;
with --trace 1 the per-layer metrics, and it writes every span to
.frontbench/spans-<workload>-seed<seed>.jsonl.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

Every process it starts runs with one BLAS/OpenMP thread (THREAD_ENV), so
the load comes from one thread of one process.  Set-up is measured in
fresh processes: set-up-only processes, one after the other, then the
measuring process, whose own set-up is the last sample.  Times are reported
in reference seconds (calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import selftest  # noqa: E402
from tracer import LAYER_METRICS, metric_name, metric_unit  # noqa: E402

WORKLOADS = ("variational", "evolution", "oracle-field")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: set-ups measured per run: at least SETUP_MIN, more while they fit in SETUP_SECONDS
SETUP_MIN = 3
SETUP_SECONDS = 6.0
#: the whole run, set-ups included, must end within this many seconds
DEADLINE_S = 170.0
SPANS_DIR = ".frontbench"


def _worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return its JSON line."""
    env = {**os.environ, **THREAD_ENV}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(timeout, 1.0),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "frontforge", "__init__.py")):
        print(f"frontbench: no frontforge sources under {ROOT}/src", file=sys.stderr)
        return 2
    bad = selftest.problems()
    if bad:
        print("frontbench: a round check accepts a wrong answer:", *bad, sep="\n  ", file=sys.stderr)
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    spent = 0.0
    while not args.trace:
        n = len(setups)
        # the measuring process adds one more set-up after these probes
        if n >= SETUP_MIN - 1 and spent / n * (n + 2) > SETUP_SECONDS:
            break
        before = calibrate.sample()
        t0 = time.monotonic()
        probe = _worker([*common, "--setup-only"], DEADLINE_S - (t0 - start))
        spent += probe["ready"] - t0
        setups.append(calibrate.scaled(probe["ready"] - t0, before + probe["setup_units"]))
    spans = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    if args.trace:
        os.makedirs(os.path.join(ROOT, SPANS_DIR), exist_ok=True)
    before = calibrate.sample()
    t0 = time.monotonic()
    run = _worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", spans],
        DEADLINE_S - (t0 - start),
    )
    setups.append(calibrate.scaled(run["ready"] - t0, before + run["setup_units"]))
    if not run["scaled"]:
        print("frontbench: no round passed its checks", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("threads: " + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    print(f"rounds: attempted {run['attempted']}, failed {run['failed']}")
    round_s = statistics.median(run["scaled"])
    wall = statistics.median(run["walls"])
    if args.trace:
        metrics = {}
        for span, stat in LAYER_METRICS:
            name = metric_name(span, stat)
            metrics[name] = {"value": run["layers"][name], "unit": metric_unit(stat)}
        print(f"round_s (traced, not a metric) = {round_s:.6f} s, wall {wall:.6f} s, over {len(run['walls'])} rounds")
        print(f"spans written to {spans}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "round_s": {"value": round_s, "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        print("set-ups: " + ", ".join(f"{t:.4f}" for t in setups) + " s")
        print(f"rounds: {len(run['walls'])} timed, median wall {wall:.6f} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(
        json.dumps(
            {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
