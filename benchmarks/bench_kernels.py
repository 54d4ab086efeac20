#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy fallback.

Runs each hot kernel in-process on the currently selected path, plus the
solver's layers (preconditioner build and solve, constraint projection) on
the seed at the default grid.  The Bessel entry and the solver layers use
scipy/numpy on both paths; to compare the rest, run twice:

    python3 benchmarks/bench_kernels.py
    FRONTFORGE_NUMBA=0 python3 benchmarks/bench_kernels.py

or let --both spawn the sibling configuration as a subprocess and print the
speedups.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np


def bench(fn, *args, repeat: int = 7) -> float:
    fn(*args)  # warm-up (JIT compilation on the numba path)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def run_suite() -> dict:
    from frontforge import _kernels

    rng = np.random.default_rng(0)
    results = {"numba": _kernels.USING_NUMBA}

    s = rng.uniform(1e-3, 400.0, size=400_000)
    results["bessel_scipy_k0e_k1e_400k"] = bench(_kernels.k01_scaled, s)

    n, m = 1024, 512
    dl = np.full(n, -1.0)
    d = np.full(n, 4.0)
    du = np.full(n, -1.0)
    rhs = rng.standard_normal((n, m))
    results["tridiag_1024x512"] = bench(_kernels.tridiag_solve_many, dl, d, du, rhs)

    vals = rng.uniform(0.0, 1.0, size=(257, 1025))
    meas = np.exp(np.linspace(-20.0, 10.0, 1025))
    results["rearrange_257x1025"] = bench(_kernels.rearrange_columns, vals, meas)

    # solver layers on the cubic law's seed at the default 96x448 grid
    from frontforge import grid, solver
    from frontforge.nonlinearity import make_bistable_cubic

    nl = make_bistable_cubic(0.25)
    spec = solver.default_grid(solver.choose_weight(nl), solver.SolverOptions())
    seed = grid.seed_function(spec)
    ws = solver._Workspace(spec)
    g_free = solver._gradient(ws, seed, nl).ravel()[ws.free]
    results["workspace_build_96x448"] = bench(solver._Workspace, spec)
    results["precond_solve_96x448"] = bench(ws.precond_solve, g_free)
    results["project_constraint_96x448"] = bench(grid.project_constraint, seed)

    return results


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--both", action="store_true", help="also run the other path and compare")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args()

    mine = run_suite()
    if args.json:
        print(json.dumps(mine))
        return

    label = "numba" if mine["numba"] else "numpy"
    print(f"path: {label}")
    for key, val in mine.items():
        if key != "numba":
            print(f"  {key:28s} {val * 1e3:9.3f} ms")

    if args.both:
        env = dict(os.environ)
        env["FRONTFORGE_NUMBA"] = "0" if mine["numba"] else "1"
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--json"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        other = json.loads(out.stdout.strip().splitlines()[-1])
        other_label = "numba" if other["numba"] else "numpy"
        print(f"\npath: {other_label}")
        for key, val in other.items():
            if key != "numba":
                print(f"  {key:28s} {val * 1e3:9.3f} ms")
        print(f"\nspeedup ({other_label} time / {label} time):")
        for key in mine:
            if key != "numba":
                print(f"  {key:28s} {other[key] / mine[key]:6.2f}x")


if __name__ == "__main__":
    main()
