"""Parabolic validator: v_t = Laplace(v) with the boundary reaction -v_x = f(v).

Integrates the time-dependent problem on the truncated half-plane and
measures the empirical invasion speed from the drift of the 1/2-level of
the boundary trace.  Diffusion is treated implicitly by alternating
tridiagonal sweeps (backward-Euler splitting: unconditionally stable and
max-principle preserving), the boundary reaction explicitly through the
ghost row at x = 0, which caps the step at hx / (2 Lip f).  `evolve` settles
one step size per run and forms the two sweeps once: halving the x-sweep's
ghost-closure and Neumann rows, and moving the y-sweep's Dirichlet couplings
to its right-hand side, makes both matrices symmetric positive definite, so
LAPACK dpttrf factors them as LDL^T.  The y-sweep applies its factors by
dpttrs at every step.  The x-sweep's systems are short (nx + 1 unknowns) and
many (one per interior column), so its inverse is formed once from the
factors and each step applies it as one matrix product on the field's own
layout.

A moving window keeps long runs feasible: when the level approaches either
y-boundary the field is shifted by whole cells and extended constantly
(`grid.shift_cells`), while recorded level positions stay in the original
frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import spd_tridiag_factor, tridiag_solve_many
from .grid import Field, GridSpec, shift_cells, trace, trace_crossing
from .nonlinearity import Nonlinearity


@dataclass
class EvolutionState:
    field: Field
    time: float


@dataclass(frozen=True)
class SpeedTrace:
    times: np.ndarray
    level_positions: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        p = np.asarray(self.level_positions, dtype=float)
        if t.shape != p.shape or t.ndim != 1:
            raise ValueError("times and level_positions must be 1-D of equal length")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "level_positions", p)


@dataclass
class EvolveOptions:
    dt: float | None = None  # None: half the stability limit
    out_every: float | None = None  # sampling interval; None: T/80


_RECENTER_MARGIN = 0.2  # fraction of the window width
_LEVEL = 0.5
_LIPSCHITZ_SAMPLES = 2001  # nodes on [0, 1] where |f'| is sampled


def lipschitz_bound(nl: Nonlinearity) -> float:
    s = np.linspace(0.0, 1.0, _LIPSCHITZ_SAMPLES)
    return float(np.max(np.abs(np.asarray(nl.f_prime(s)))))


def stability_limit(spec: GridSpec, nl: Nonlinearity) -> float:
    """Largest safe dt: the explicit ghost-row reaction feeds back at rate
    2*Lip(f)/hx; diffusion itself is unconditionally stable."""
    lip = max(lipschitz_bound(nl), 1e-12)
    return spec.hx / (2.0 * lip)


def _check_dt(dt: float, lim: float) -> None:
    if not 0.0 < dt <= lim * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:g} must be positive and at most the stability limit {lim:g}")


def _sweep_matrices(spec: GridSpec, dt: float):
    """The x- and y-sweeps for step dt: the x-matrix's inverse, and the
    y-matrix as the (d, e, end_scale) that `tridiag_solve_many` takes.

    Halving the x-matrix's ghost-closure and Neumann rows (the trapezoid
    weights) makes it SPD; its inverse is `tridiag_solve_many` on the
    identity, an (nx + 1)^2 array whose entries are >= 0 (dpttrs on
    nonnegative data only adds) and whose rows sum to 1 up to rounding (the
    matrix's rows do), the discrete maximum principle.  Applying it costs
    2 (nx + 1)^2 flops per column against dpttrs' 5 (nx + 1), but at BLAS
    rate on the field's C layout, where dpttrs is a serial recurrence on an
    F-ordered copy.  On one Haswell core the x-sweep, its copy included, is
    1.6x faster than dpttrs with its two transposing copies at nx + 1 = 129
    (every caller's size), 1.05-1.25x at 257 and 0.86-0.89x at 513: the
    crossover lies between nx = 256 and 512.  The y-matrix is SPD once its
    Dirichlet rows' couplings move to the right-hand side."""
    rx = dt / (spec.hx * spec.hx)
    d = np.full(spec.nx + 1, 1.0 + 2.0 * rx)
    d[[0, -1]] *= 0.5
    x = tridiag_solve_many(*spd_tridiag_factor(d, np.full(spec.nx, -rx)), (0.5, 0.5), np.eye(spec.nx + 1))
    ry = dt / (spec.hy * spec.hy)
    d = np.full(spec.ny + 1, 1.0 + 2.0 * ry)
    e = np.full(spec.ny, -ry)
    d[[0, -1]] = 1.0  # the Dirichlet rows at y_min/y_max are identities
    e[[0, -1]] = 0.0
    y = (*spd_tridiag_factor(d, e), (1.0, 1.0))
    return x, y


def _advance(state: EvolutionState, dt: float, nl: Nonlinearity, sweeps) -> EvolutionState:
    """One step of size dt on the sweeps `_sweep_matrices(spec, dt)`.

    The x-sweep is one product of the x-inverse with a C-ordered copy of
    the interior columns, written straight into the new field; the caller's
    field is never written, whatever its layout."""
    spec = state.field.spec
    v = state.field.values
    # the ghost-row flux -v_x = f(v) enters the x-sweep's right-hand side on
    # row 0 only
    rhs = v[:, 1:-1].copy()
    rhs[0] += dt * (2.0 * np.asarray(nl.f(rhs[0])) / spec.hx)
    vnew = np.empty(v.shape)
    np.matmul(sweeps[0], rhs, out=vnew[:, 1:-1])
    # the Dirichlet columns keep v and enter the y-sweep through the rows
    # next to them; the y-sweep solves vnew.T in place (F-ordered), so the
    # transpose of its solution is C-ordered again
    vnew[:, [0, -1]] = v[:, [0, -1]]
    ry = dt / (spec.hy * spec.hy)
    vnew[:, 1] += ry * v[:, 0]
    vnew[:, -2] += ry * v[:, -1]
    vnew = tridiag_solve_many(*sweeps[1], vnew.T).T
    return EvolutionState(Field(vnew, spec), state.time + dt)


def step(state: EvolutionState, dt: float, nl: Nonlinearity) -> EvolutionState:
    """One implicit-diffusion step with explicit boundary reaction.

    x-sweep: (I - dt D_xx) v* = v + dt*s(v); the reactive boundary enters
    D_xx through the second-order ghost closure, its nonlinear part s is
    frozen at the current state.  y-sweep: (I - dt D_yy) v' = v*, with the
    y_min/y_max rows held at their Dirichlet values.  Raises ValueError
    unless 0 < dt <= stability_limit.
    """
    spec = state.field.spec
    _check_dt(dt, stability_limit(spec, nl))
    return _advance(state, dt, nl, _sweep_matrices(spec, dt))


def evolve(
    initial: Field,
    nl: Nonlinearity,
    T: float,
    opts: EvolveOptions | None = None,
) -> tuple[EvolutionState, SpeedTrace]:
    """Integrate to time T, recording the level position of the boundary trace.

    dt (default: half the stability limit) must lie in (0, stability_limit]
    and out_every (default: T/80) must be positive and finite, else
    ValueError before any step; the run takes n = ceil(T/dt) steps of T/n.
    Level positions are reported in the fixed initial frame even when the
    moving window recenters the field.
    """
    opts = opts or EvolveOptions()
    if T <= 0.0:
        raise ValueError("T must be positive")
    out_every = opts.out_every if opts.out_every is not None else T / 80.0
    if not (out_every > 0.0 and math.isfinite(out_every)):
        raise ValueError(f"out_every = {out_every:g} must be positive and finite")
    if np.any(initial.values < -1e-12) or np.any(initial.values > 1.0 + 1e-12):
        raise ValueError("initial data must take values in [0, 1]")
    spec = initial.spec
    lim = stability_limit(spec, nl)
    dt = 0.5 * lim if opts.dt is None else opts.dt
    _check_dt(dt, lim)
    n_steps = max(1, math.ceil(T / dt))
    dt = T / n_steps
    sweeps = _sweep_matrices(spec, dt)

    state = EvolutionState(field=initial.copy(), time=0.0)
    offset = 0.0
    span = spec.y_max - spec.y_min
    lo_trigger = spec.y_min + _RECENTER_MARGIN * span
    hi_trigger = spec.y_max - _RECENTER_MARGIN * span

    times = []
    levels = []

    def record():
        level = trace_crossing(trace(state.field), _LEVEL)
        times.append(state.time)
        levels.append(level + offset)
        return level

    level_local = record()
    next_out = out_every

    for _ in range(n_steps):
        state = _advance(state, dt, nl, sweeps)
        if state.time + 1e-12 >= next_out:
            level_local = record()
            next_out += out_every
            if not lo_trigger < level_local < hi_trigger:
                target = 0.5 * (spec.y_min + spec.y_max)
                cells = int(round((level_local - target) / spec.hy))
                if cells != 0:
                    state.field = Field(shift_cells(spec, state.field.values, cells), spec)
                    offset += cells * spec.hy

    if times[-1] < state.time:
        record()
    return state, SpeedTrace(np.asarray(times), np.asarray(levels))


def measure_speed(speed_trace: SpeedTrace, burn_in_fraction: float = 0.25) -> float:
    """Invasion speed: magnitude of the fitted level-drift rate.

    Least-squares slope of level position against time after discarding the
    burn-in prefix; the sign convention of the y-axis drops out through the
    absolute value, so an invading front always reports c > 0.
    """
    if not 0.0 <= burn_in_fraction < 1.0:
        raise ValueError("burn_in_fraction must lie in [0, 1)")
    t = speed_trace.times
    p = speed_trace.level_positions
    cut = t[0] + burn_in_fraction * (t[-1] - t[0])
    keep = t >= cut
    if int(np.sum(keep)) < 10:
        raise ValueError("need at least 10 samples after burn-in")
    slope = np.polyfit(t[keep], p[keep], 1)[0]
    return float(abs(slope))
