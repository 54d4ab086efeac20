"""Composite verification procedures shared by the CLI, corpus, and tests.

These drive whole-pipeline experiments: convergence studies of the sampled
closed-form front, traveling-wave evolution runs, and tail-law fitting of
variational fronts.  Everything returns plain floats so the regression
corpus can pin them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .analysis import TAIL_LAWS, fit_decay
from .evolution import EvolveOptions, evolve, measure_speed
from .explicit_front import ExplicitFrontParams, front_nonlinearity, sample_front
from .grid import Field, GridSpec, TraceProfile, trace, trace_crossing
from .nonlinearity import Nonlinearity, make_bistable_cubic
from .solver import FrontSolution, SolverOptions, pde_residual, solve_front


def oracle_residual_grid(params: ExplicitFrontParams, h: float) -> GridSpec:
    """The convergence-study window [0,2] x [-10,4] at mesh width h."""
    return GridSpec(
        x_max=2.0,
        y_min=-10.0,
        y_max=4.0,
        nx=int(round(2.0 / h)),
        ny=int(round(14.0 / h)),
        a=min(params.c, 1.0),
    )


def oracle_residuals(params: ExplicitFrontParams, h: float) -> tuple[float, float]:
    """(interior, boundary) residuals of the sampled closed-form front."""
    spec = oracle_residual_grid(params, h)
    vals = sample_front(params, spec.xs, spec.ys)
    nl = front_nonlinearity(params)
    return pde_residual(vals, spec.hx, spec.hy, params.c, nl, ys=spec.ys)


def oracle_residual_orders(
    params: ExplicitFrontParams, hs: tuple[float, ...] = (1 / 32, 1 / 64, 1 / 128)
) -> tuple[float, float, list[float]]:
    """(min observed order, boundary residual at finest h, interior residuals).

    Order between successive halvings: log2 of the interior-residual ratio.
    """
    interior = []
    boundary_finest = np.nan
    for h in hs:
        inner, bdry = oracle_residuals(params, h)
        interior.append(inner)
        boundary_finest = bdry
    orders = [float(np.log2(interior[i] / interior[i + 1])) for i in range(len(hs) - 1)]
    return min(orders), float(boundary_finest), interior


# -- evolution experiments -----------------------------------------------------


def evolution_grid(c: float, resolution: int = 64) -> GridSpec:
    """Window sized for a speed-c front: spans 8/c in x and [-28, 8]/c in y.

    The y-window is deep on the invading side because the (-y)^{-1/2} tail
    converges to 1 slowly; a shallow window drags the measured speed through
    the frozen Dirichlet row.  `resolution`/2 nodes per unit of 1/c in y.
    """
    scale = 1.0 / c
    return GridSpec(
        x_max=8.0 * scale,
        y_min=-28.0 * scale,
        y_max=8.0 * scale,
        nx=2 * resolution,
        ny=18 * resolution,
        a=min(c, 1.0),
    )


def oracle_evolution_run(
    t: float = 1.0, c: float = 2.0, T: float = 3.0, resolution: int = 64
) -> tuple[float, float]:
    """Evolve the closed-form front under its own law: (speed, shape drift).

    Shape drift is the sup distance between the final and initial boundary
    traces after aligning their 1/2-levels (traveling-wave invariance).  The
    run is deterministic, so each argument set is computed once per process.
    """
    return _oracle_evolution_run(float(t), float(c), float(T), int(resolution))


@lru_cache(maxsize=8)
def _oracle_evolution_run(t: float, c: float, T: float, resolution: int) -> tuple[float, float]:
    params = ExplicitFrontParams(t, c)
    nl = front_nonlinearity(params)
    spec = evolution_grid(c, resolution)
    init = Field(sample_front(params, spec.xs, spec.ys), spec)
    final, speed_trace = evolve(init, nl, T)
    speed = measure_speed(speed_trace)

    tr0, tr1 = trace(init), trace(final.field)
    shift = trace_crossing(tr1) - trace_crossing(tr0)
    pad = 2.0 / c
    ys = np.linspace(spec.y_min + pad, spec.y_max - pad, 1500)
    v0 = np.interp(ys, tr0.y_nodes, tr0.values)
    v1 = np.interp(ys + shift, tr1.y_nodes, tr1.values)
    return speed, float(np.max(np.abs(v0 - v1)))


def oracle_evolution_speed(t: float = 1.0, c: float = 2.0) -> float:
    return oracle_evolution_run(t, c)[0]


def step_initial(spec: GridSpec, y0: float) -> Field:
    """Sharp-interface initial data: 1 below y0, 0 above."""
    vals = np.where(spec.ys[None, :] < y0, 1.0, 0.0) * np.ones((spec.nx + 1, 1))
    return Field(vals, spec)


def evolution_speed_match(alpha: float = 0.25) -> float:
    """Relative gap between the parabolic invasion speed from step initial
    data and the variational front speed, for the cubic law.

    Step data relaxes to the traveling front only at a power rate (the
    invading-side tail builds like 1/sqrt(t)), so the level drift is fitted
    on the late window of a long run and the residual gap stays at the 10%
    scale; this is a diagnostic of asymptotic linearity, not a tight match.
    """
    nl = make_bistable_cubic(alpha)
    sol = solve_front(nl, SolverOptions())
    c = sol.speed
    spec = evolution_grid(c, resolution=64)
    init = step_initial(spec, y0=0.0)
    T = 20.0 / c
    _, speed_trace = evolve(init, nl, T, EvolveOptions(out_every=T / 160.0))
    measured = measure_speed(speed_trace, burn_in_fraction=0.6)
    return abs(measured - c) / c


# -- tail-law fitting of computed fronts ----------------------------------------


def derivative_trace(tr: TraceProfile) -> TraceProfile:
    """Centered-difference u_y of a trace (interior nodes)."""
    der = (tr.values[2:] - tr.values[:-2]) / (tr.y_nodes[2:] - tr.y_nodes[:-2])
    return TraceProfile(tr.y_nodes[1:-1], der)


def front_decay_reports(sol: FrontSolution) -> dict:
    """Fit all four tail laws of a computed front on the standard windows."""
    tr = sol.trace
    tdy = derivative_trace(tr)
    return {(side, quantity): fit_decay(tr, tdy, sol.speed, side, quantity) for side, quantity in TAIL_LAWS}


def sandwich_b_max(alpha: float = 0.25, sol: FrontSolution | None = None) -> float:
    """Largest sandwich constant over the four tail laws of the cubic front.

    Finite means every law admits a two-sided bound on its window.
    """
    if sol is None:
        sol = solve_front(make_bistable_cubic(alpha), SolverOptions())
    reports = front_decay_reports(sol)
    return max(rep.sandwich_b for rep in reports.values())
