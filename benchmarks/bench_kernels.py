#!/usr/bin/env python3
"""Time frontforge's hot kernels and the variational solver's layers.

Runs each kernel in-process (the scipy Bessel pair and, as
`bessel_scipy_k1e_400k`, K_1 alone for the Poisson kernel, the LAPACK
tridiagonal solve, the numpy rearrangement on uniform random rows and, as
`rearrange_solver_96x448`, on a field shaped like the solver's: mostly
nonincreasing rows, with a rippled band in a quarter of them), the two law
checks every `solve_front` runs before minimizing (`choose_weight_cubic` for
the weight policy on the cubic law, alpha = 0.25, and `validate_oracle_law`
for the structural validation of the oracle law, t = 1, c = 2), plus the
solver's layers on the seed at the default grid (`workspace_build_96x448` and
`precond_solve_96x448` for the preconditioner, `apply_stiffness_96x448` for
the matrix-free stiffness apply, `project_constraint_96x448` for the
constraint projection, `trial_96x448` for one whole trial: clamp, rearrange,
project and energy of an admissible field scaled by 1.01), and the parabolic
evolution on the oracle front (t = 1, c = 2) at `evolution_grid(2, 64)`
(`evolution_step_129x1153` for one step of a run on its sweep matrices,
`evolution_leg_129x1153` for one `evolve` leg of 0.125 time units), and the
closed-form oracle at t = 1, c = 2 (`sample_front_129x897` for the sampled
field on the fine residual grid h = 1/64, `front_nonlinearity_t1c2` for the
law table, `invert_trace_tail_t1c2` for the trace inversion at s = 1e-180 that
the endpoint slope needs, `invert_trace_one_side_t1c2` for the inversion at
s = 1 - 1e-6, which runs on the complement integral below eta = -34), and
prints the best of several repeats:

    python3 benchmarks/bench_kernels.py [--json]
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np


def bench(fn, *args, repeat: int = 7) -> float:
    fn(*args)  # warm-up
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def run_suite() -> dict:
    from frontforge import _kernels

    rng = np.random.default_rng(0)
    results = {}

    s = rng.uniform(1e-3, 400.0, size=400_000)
    results["bessel_scipy_k0e_k1e_400k"] = bench(_kernels.k01_scaled, s)
    results["bessel_scipy_k1e_400k"] = bench(_kernels.k1_scaled, s)

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
    from frontforge.nonlinearity import make_bistable_cubic, validate

    nl = make_bistable_cubic(0.25)
    results["choose_weight_cubic"] = bench(solver.choose_weight, nl)
    spec = solver.default_grid(solver.choose_weight(nl), solver.SolverOptions())
    seed = grid.seed_function(spec)
    ws = solver._Workspace(spec)
    g_free = solver._gradient(seed, nl)[:, 1:-1]
    results["workspace_build_96x448"] = bench(solver._Workspace, spec)
    results["precond_solve_96x448"] = bench(ws.precond_solve, g_free)
    results["apply_stiffness_96x448"] = bench(grid.apply_stiffness, spec, seed.values)
    results["project_constraint_96x448"] = bench(grid.project_constraint, seed)

    w, _ = solver._trial(seed.copy(), nl)
    rippled = w.values.copy()
    rippled[: (spec.nx + 1) // 4, 180:260] += 0.01 * np.sin(np.arange(80.0))
    results["rearrange_solver_96x448"] = bench(_kernels.rearrange_columns, rippled, spec.ymeasure)
    # _trial changes its input in place, so each call gets a fresh field
    results["trial_96x448"] = bench(lambda: solver._trial(grid.Field(w.values * 1.01, spec), nl))

    # the evolution on the oracle front, as one frontbench `evolution` leg
    from frontforge import evolution
    from frontforge.explicit_front import ExplicitFrontParams, front_nonlinearity, invert_trace, sample_front
    from frontforge.front_suite import evolution_grid, oracle_residual_grid

    params = ExplicitFrontParams(1.0, 2.0)
    law = front_nonlinearity(params)
    results["validate_oracle_law"] = bench(validate, law)
    spec = evolution_grid(params.c, 64)
    front = grid.Field(sample_front(params, spec.xs, spec.ys), spec)
    dt = 0.5 * evolution.stability_limit(spec, law)
    sweeps = evolution._sweep_matrices(spec, dt)
    state = evolution.EvolutionState(front, 0.0)
    results["evolution_step_129x1153"] = bench(evolution._advance, state, dt, law, sweeps)
    results["evolution_leg_129x1153"] = bench(evolution.evolve, front, law, 0.125)

    # the closed-form oracle, as in a frontbench `oracle-field` round
    spec = oracle_residual_grid(params, 1.0 / 64.0)
    results["sample_front_129x897"] = bench(sample_front, params, spec.xs, spec.ys)
    results["front_nonlinearity_t1c2"] = bench(front_nonlinearity, params)
    results["invert_trace_tail_t1c2"] = bench(invert_trace, params, 1e-180)
    results["invert_trace_one_side_t1c2"] = bench(invert_trace, params, 1.0 - 1e-6)

    return results


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args()

    results = run_suite()
    if args.json:
        print(json.dumps(results))
        return
    for key, val in results.items():
        print(f"  {key:28s} {val * 1e3:9.3f} ms")


if __name__ == "__main__":
    main()
