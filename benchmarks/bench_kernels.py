#!/usr/bin/env python3
"""Time frontforge's hot kernels and the variational solver's layers.

Runs each kernel in-process (the scipy Bessel pair and, as
`bessel_scipy_k1e_400k`, K_1 alone for the Poisson kernel, the factored SPD
tridiagonal solve (LAPACK dpttrs) on 512 right-hand sides, and
`rearrange_449` for the numpy rearrangement of one uniform random trace
of the default grid's 449 nodes, through the sort as in a trace trial),
the two
law checks every `solve_front` runs before minimizing, the weight policy and
the structural validation (`choose_weight_cubic` on the cubic law, alpha =
0.25, `validate_combustion` on combustion, beta = 0.3 and amplitude 1, and
`validate_oracle_law` and `choose_weight_oracle_law` on the oracle law, t =
1, c = 2), plus the solver's layers at the default grid
(`trace_build_96x448` for the trace problem: the stiffness's x-modes and
per-mode factors, closed-form boundary modes and the pins' 1-D profile;
`apply_stiffness_96x448` on the seed; and,
from the trace the 20-step hand-off burst
leaves, `lambda_apply_96x448` for the trace's scaled forms in the boundary
operator's modes with Gamma (one DST, scipy.fft's DST-I, of the default
grid's 447 free trace nodes, and two elementwise products),
`trace_trial_96x448` for one trace trial of that trace scaled by
1.01, `trace_newton_step_96x448` for one Newton step, its bordered solve
by preconditioned MINRES, `extension_96x448` for the extension into the
front and `field_test_96x448` for the two-dimensional stationarity test of
that front, with `trace_newton_step_384x1792`, `extension_384x1792` and
`field_test_384x1792` for the same from the hand-off burst's trace at
`refine=2`; `kernel_seed_96x448`
for the seed trace a kernel-seeded solve starts from, the closed-form
front at t = 1, c = a on x = 0), and the parabolic
evolution on the oracle front (t = 1, c = 2) at `evolution_grid(2, 64)`
(`sweep_x_129x1151` for one x-sweep, the product of the x-matrix's inverse
with the field's interior columns, and `sweep_y_1153x129` for one y-sweep
on the field's transpose, `evolution_step_129x1153` for one step of a run
on its sweeps, `evolution_leg_129x1153` for one `evolve` leg of 0.125 time
units) and at `evolution_grid(2, 128)` (`evolution_step_257x2305`, where
the x-sweep's product costs four times as much per column), and the
closed-form oracle at t = 1, c = 2 (`sample_front_65x449` and
`sample_front_129x897` for the sampled field on the residual grids h = 1/32
and 1/64, `panel_kernel_129x897` for the kernel on the finer grid's
shared-panel nodes in the column blocks of `_shared_cells`,
`shared_cells_129x897` for that whole shared-panel pass: kernel, one small
product per column and panel, check; `top_values_129x897` for the value at
the top node of each of the finer grid's columns that the sampled field
starts from,
`sample_front_129x1153` for the evolution's initial field on
`evolution_grid(2, 64)`, `front_nonlinearity_t1c2` for the law table,
`ignition_beta_t1c2` for the table's Hermite interpolant and its exact
integral plus that integral's zero beta,
`oracle_law_G_449` for one call of the law's potential G on the 449-node
trace the cubic's hand-off burst leaves (a trace trial makes one),
`invert_trace_tail_t1c2` for the trace inversion at s = 1e-180 that
the endpoint slope needs, matched against the mass above each edge and
bisected inside the graded cell above eta = 2, `invert_trace_one_side_t1c2`
for the inversion at s = 1 - 1e-6, matched against the mass below each edge
and bisected inside one geometric cell near eta = -6e11 (each one
whole-line cumulative pass and one bisection),
`kernel_mass_t1` for the kernel's mass on the full line at t = 1), and
prints the best of several repeats:

    python3 benchmarks/bench_kernels.py [--json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

# the checkout's sources, so the script runs without an installed package
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


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

    # the solve overwrites its F-ordered right-hand side, so each repeat
    # solves the previous repeat's solution
    n, m = 1024, 512
    factors = _kernels.spd_tridiag_factor(np.full(n, 4.0), np.full(n - 1, -1.0))
    rhs = np.asfortranarray(rng.standard_normal((n, m)))
    results["tridiag_1024x512"] = bench(_kernels.tridiag_solve_many, *factors, (1.0, 1.0), rhs)

    # the rearrangement works in place, so each call gets a fresh trace
    vals = rng.uniform(0.0, 1.0, size=449)
    meas = np.exp(np.linspace(-20.0, 6.0, 449))
    results["rearrange_449"] = bench(lambda: _kernels.rearrange_columns(vals.copy(), meas))

    # solver layers on the cubic law's seed at the default 96x448 grid
    from frontforge import grid, solver
    from frontforge.nonlinearity import _hermite_table, make_bistable_cubic, make_combustion, validate

    nl = make_bistable_cubic(0.25)
    results["choose_weight_cubic"] = bench(solver.choose_weight, nl)
    results["validate_combustion"] = bench(validate, make_combustion(0.3, 1.0))
    spec = solver.default_grid(solver.choose_weight(nl), solver.SolverOptions())
    seed = grid.seed_function(spec)
    results["trace_build_96x448"] = bench(solver._Trace, spec)
    problem = solver._Trace(spec)
    results["apply_stiffness_96x448"] = bench(grid.apply_stiffness, spec, seed.values)

    # the trace pieces, from the trace the 20-step hand-off burst leaves
    u, e_seed = problem.trial(seed.values[0].copy(), nl)
    u, _ = problem.burst(u, nl, [e_seed], solver._HANDOFF_ITERS, solver.SolveRecord())
    test = problem.stationarity(u, nl)
    results["lambda_apply_96x448"] = bench(problem.scaled, u)
    # trial changes its input in place, so each call gets a fresh trace
    results["trace_trial_96x448"] = bench(lambda: problem.trial(u * 1.01, nl))
    results["trace_newton_step_96x448"] = bench(problem.newton_step, u, nl, test[2], test, solver.SolveRecord())
    results["extension_96x448"] = bench(problem.extend, u)
    results["field_test_96x448"] = bench(solver._stationarity, problem.ws, problem.extend(u), nl)
    fine = solver._Trace(solver.default_grid(spec.a, solver.SolverOptions(refine=2)))
    v, e_seed = fine.trial(grid.seed_function(fine.spec).values[0].copy(), nl)
    v, _ = fine.burst(v, nl, [e_seed], solver._HANDOFF_ITERS, solver.SolveRecord())
    test = fine.stationarity(v, nl)
    results["trace_newton_step_384x1792"] = bench(fine.newton_step, v, nl, test[2], test, solver.SolveRecord())
    results["extension_384x1792"] = bench(fine.extend, v)
    results["field_test_384x1792"] = bench(solver._stationarity, fine.ws, fine.extend(v), nl)
    from frontforge.explicit_front import ExplicitFrontParams, front_profile

    results["kernel_seed_96x448"] = bench(front_profile, ExplicitFrontParams(1.0, spec.a), 0.0, spec.ys)

    # the evolution on the oracle front, as one frontbench `evolution` leg
    from frontforge import evolution
    from frontforge.explicit_front import (
        _BLOCK_POINTS,
        _law_table,
        _p_kernel,
        _shared_cells,
        _shared_panels,
        _u_speed2,
        front_nonlinearity,
        invert_trace,
        kernel_mass,
        sample_front,
    )
    from frontforge.front_suite import evolution_grid, oracle_residual_grid

    params = ExplicitFrontParams(1.0, 2.0)
    law = front_nonlinearity(params)
    results["validate_oracle_law"] = bench(validate, law)
    results["choose_weight_oracle_law"] = bench(solver.choose_weight, law)
    spec = evolution_grid(params.c, 64)
    front = grid.Field(sample_front(params, spec.xs, spec.ys), spec)
    results["sample_front_129x1153"] = bench(sample_front, params, spec.xs, spec.ys)
    dt = 0.5 * evolution.stability_limit(spec, law)
    sweeps = evolution._sweep_matrices(spec, dt)
    # the two sweeps in the layouts a step uses: the x-inverse times a
    # C-ordered copy of the interior columns, written into the new field's
    # interior, and dpttrs on the transpose of a C array
    rhs = front.values[:, 1:-1].copy()
    out = np.empty_like(front.values)
    results["sweep_x_129x1151"] = bench(lambda: np.matmul(sweeps[0], rhs, out=out[:, 1:-1]))
    results["sweep_y_1153x129"] = bench(_kernels.tridiag_solve_many, *sweeps[1], front.values.copy().T)
    state = evolution.EvolutionState(front, 0.0)
    results["evolution_step_129x1153"] = bench(evolution._advance, state, dt, law, sweeps)
    results["evolution_leg_129x1153"] = bench(evolution.evolve, front, law, 0.125)
    # twice the resolution: the x-sweep's product grows as nx^2 per column
    spec = evolution_grid(params.c, 128)
    dt = 0.5 * evolution.stability_limit(spec, law)
    state = evolution.EvolutionState(grid.Field(sample_front(params, spec.xs, spec.ys), spec), 0.0)
    results["evolution_step_257x2305"] = bench(evolution._advance, state, dt, law, evolution._sweep_matrices(spec, dt))

    # the closed-form oracle, as in a frontbench `oracle-field` round
    spec = oracle_residual_grid(params, 1.0 / 32.0)
    results["sample_front_65x449"] = bench(sample_front, params, spec.xs, spec.ys)
    spec = oracle_residual_grid(params, 1.0 / 64.0)
    results["sample_front_129x897"] = bench(sample_front, params, spec.xs, spec.ys)
    x_offs = 0.5 * params.c * spec.xs + params.t
    shared = _shared_panels(0.5 * params.c * spec.ys)
    nodes = shared.nodes.ravel()
    # `_shared_cells`' column blocks: on this grid its nodes outnumber its products' entries
    block = _BLOCK_POINTS // len(nodes)

    def panel_kernel():
        for first in range(0, len(x_offs), block):
            _p_kernel(x_offs[first : first + block, None], nodes)

    results["panel_kernel_129x897"] = bench(panel_kernel)
    cells = np.zeros((len(x_offs), len(spec.ys) - 1))
    results["shared_cells_129x897"] = bench(_shared_cells, cells, x_offs, shared, 1e-11)
    results["top_values_129x897"] = bench(_u_speed2, x_offs, 0.5 * params.c * float(spec.ys[-1]))
    results["front_nonlinearity_t1c2"] = bench(front_nonlinearity, params)
    s_tab, f_tab, fp_tab = _law_table(params.t)
    results["ignition_beta_t1c2"] = bench(lambda: _hermite_table(s_tab, f_tab, fp_tab)[3]())
    results["oracle_law_G_449"] = bench(law.G, u)
    results["invert_trace_tail_t1c2"] = bench(invert_trace, params, 1e-180)
    results["invert_trace_one_side_t1c2"] = bench(invert_trace, params, 1.0 - 1e-6)
    results["kernel_mass_t1"] = bench(kernel_mass, params.t)

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
