"""Constrained variational front solver.

Minimizes E_a(w) = (1/2) Gamma_a(w) + int e^{ay} G(w(0,y)) dy over the
manifold Gamma_a(w) = 1, then converts the minimizer to a traveling front:
with multiplier lambda_a the rescaling u(x,y) = w(mu x, mu y), mu = 1 -
2*lambda_a, travels at speed c = a*(1 - 2*lambda_a) = a*(1 - 2*I_a).

Minimization is one loop.  Each iteration runs a burst of the damped flux
fixed point, which can transport the front across the window, and then the
stationarity test; only when the burst is stuck does it try one
preconditioned Sobolev-gradient step (the stiffness operator of Gamma_a,
inverted through its Kronecker-sum structure: one small generalized
eigenproblem in x and one tridiagonal factor per x mode, built once per
grid).  Both kinds of step go through one acceptance rule (`_step`): halve
the step until E_a falls.  Every trial field goes through one pipeline
(`_trial`): range clamping to [0,1], monotone rearrangement, and the
closed-form y-translation onto the constraint.  The stiffness itself is
applied matrix-free by `grid.apply_stiffness`, from the same definition of
Gamma_a as `grid.dirichlet`.  The grid pins w = 1 at y_min and w = 0 at
y_max, so the free nodes are the block [:, 1:-1]; x-boundaries are natural
(Neumann).

The speed c = a*(1 - 2*lambda_a) means something only at a stationary point
of E_a on Gamma_a = 1, so "converged" has one meaning: the stationarity
residual passed (see `minimize`).  Any other stop is reported unconverged,
and `extract_speed` then raises SolverError (exit code 1 on the CLI), as it
does when c and a*(1 - 2*I_a) disagree by more than 5 %.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla  # noqa: F401  (frontbench/tracer.py patches solver.spla)
from scipy.linalg import eigh, lapack

from . import grid as gridmod
from .explicit_front import ExplicitFrontParams, sample_front
from .grid import Field, GridSpec, TraceProfile
from .nonlinearity import Nonlinearity, NonlinearityError, _adaptive_simpson, validate


class SolverError(RuntimeError):
    pass


class DegenerateMultiplierError(SolverError):
    """lambda_a reached 1/2; the discretization cannot support the front."""


@dataclass
class SolverOptions:
    nx: int = 96
    ny: int = 448
    x_span: float = 8.0  # domain sizes in units of 1/a
    y_span_down: float = 40.0
    y_span_up: float = 12.0
    tol: float = 0.03  # stationarity residual relative to the gradient norm
    max_iter: int = 300
    a: float | None = None  # weight; None = choose_weight policy
    seed: str = "exponential"  # "exponential" | "kernel"
    refine: int = 0  # halvings of the mesh width


# Iteration constants of `minimize`.
_WARM_ITERS = 60  # flux fixed-point steps per burst
_BURST_TRIES = 6  # step lengths 1, 1/2, ..., 1/32 of a fixed-point step
_GRADIENT_TRIES = 45  # step lengths 1, 1/2, ..., 2^-44 of a gradient step
_STALL_REL = 1e-9  # relative decrease of E_a at or below which a step is refused
_CONSTRAINT_TOL = 1e-8  # |Gamma_a - 1| that the projection leaves alone
# largest |c - c_var| / c_var that `extract_speed` reports: the two speed
# estimates coincide at the continuum minimizer
_SPEED_AGREEMENT = 0.05


@dataclass
class MinimizerResult:
    minimizer: Field
    infimum: float
    multiplier: float
    a: float
    iterations: int
    converged: bool
    constraint: float
    residual_norm: float
    energy_history: list = field(default_factory=list, repr=False)


@dataclass
class FrontSolution:
    speed: float
    mu: float
    front: Field
    trace: TraceProfile
    interior_residual: float
    boundary_residual: float
    speed_variational: float  # a*(1 - 2*I_a), the energy-based estimate
    multiplier: float
    infimum: float
    a: float


# -- weight selection ---------------------------------------------------------

_SEED_M = 8.0  # seed steepness used by the weight-selection policy


def seed_energy_value(nl: Nonlinearity, a: float, d: float | None = None, m: float = _SEED_M) -> float:
    """E_a of the seed e^{-dx} h(y), in closed form (exact in the continuum).

    a*E = (d/4)(1 + 1/(2m-1)) + a^2 m^2 / (4 d (2m-1)) - int_0^1 s^{-1/m} f ds.
    """
    return _seed_energy(_seed_integral(nl, m), a, d, m)


def _seed_integral(nl: Nonlinearity, m: float) -> float:
    return _adaptive_simpson(lambda s: nl.f(s) * s ** (-1.0 / m), 1e-12, 1.0)


def _seed_energy(s_m: float, a: float, d: float | None = None, m: float = _SEED_M) -> float:
    """E_a of the seed from s_m = int_0^1 s^{-1/m} f ds, which is free of a."""
    d = 0.5 * a if d is None else d
    val = d / 4.0 * (1.0 + 1.0 / (2.0 * m - 1.0)) + a * a * m * m / (4.0 * d * (2.0 * m - 1.0)) - s_m
    return val / a


def choose_weight(nl: Nonlinearity) -> float:
    """Largest a = 0.5 * 2^{-k} whose seed energy is negative.

    Negative seed energy guarantees -inf < inf E_a < 0, i.e. the
    minimization is well posed.  Failure down to 1e-6 means the integral
    condition on f is (numerically) violated.
    """
    s_m = _seed_integral(nl, _SEED_M)
    a = 0.5
    while a > 1e-6:
        if _seed_energy(s_m, a) < 0.0:
            return a
        a *= 0.5
    raise NonlinearityError(
        "no weight with negative seed energy above 1e-6; is int_0^1 f <= 0?"
    )


# -- discrete operators -------------------------------------------------------


class _Workspace:
    """Per-grid separable preconditioner.

    On the free nodes (the block [:, 1:-1], all but the pinned columns j = 0
    and j = ny) the stiffness matrix is the Kronecker sum S_ff = Kx (x) C +
    Sigma (x) T, with Kx the Neumann path Laplacian in x, Sigma =
    diag(sigma), C = diag(tau wy hy/hx) and T the path Laplacian in y with
    edge weights wy_edge hx/hy.
    The generalized eigenpairs Kx Phi = Sigma Phi Lambda (Phi^T Sigma Phi =
    I) turn S_ff X = G into one SPD tridiagonal system (lambda_k C + T) per
    x mode k; they are factored once, as one block-diagonal LDL^T.
    """

    def __init__(self, spec: GridSpec):
        nx, ny = spec.nx, spec.ny
        kx = 2.0 * np.eye(nx + 1) - np.eye(nx + 1, k=1) - np.eye(nx + 1, k=-1)
        kx[0, 0] = kx[-1, -1] = 1.0
        lam, self.phi = eigh(kx, np.diag(spec.sigma))
        c = (spec.tau * spec.wy)[1:-1] * spec.hy / spec.hx
        t = spec.wy_edge * spec.hx / spec.hy
        diag = (lam[:, None] * c[None, :] + (t[:-1] + t[1:])[None, :]).ravel()
        # zero couplings between consecutive blocks keep the modes apart
        off = np.zeros((nx + 1, ny - 1))
        off[:, :-1] = -t[1:-1]
        d, e, info = lapack.dpttrf(diag, off.ravel()[:-1])
        if info != 0:
            raise SolverError(f"separable preconditioner is not positive definite (dpttrf info {info})")
        self.ldl = (d, e)

    def precond_solve(self, g_free: np.ndarray) -> np.ndarray:
        """S_ff^{-1} G on an (nx+1, ny-1) free-node block G:
        Phi (lambda_k C + T)^{-1} Phi^T G."""
        modes = self.phi.T @ g_free
        y, _ = lapack.dpttrs(*self.ldl, modes.reshape(-1, 1), overwrite_b=True)
        return self.phi @ y.reshape(modes.shape)


def _pin(values: np.ndarray) -> None:
    values[:, 0] = 1.0
    values[:, -1] = 0.0


def _boundary_flux(w: Field, nl: Nonlinearity) -> np.ndarray:
    """The row e^{ay} f(w(0,y)) hy tau of nodal boundary fluxes on x = 0."""
    return w.spec.ymeasure * np.asarray(nl.f(w.values[0, :]))


def _gradient(w: Field, nl: Nonlinearity, sw: np.ndarray | None = None) -> np.ndarray:
    """Nodal gradient of E_a: S w minus the boundary flux on x = 0.

    `sw` is S w when the caller has it already (`grid.apply_stiffness`).
    """
    g = gridmod.apply_stiffness(w.spec, w.values) if sw is None else sw.copy()
    g[0, :] -= _boundary_flux(w, nl)
    return g


def _boundary_fu(w: Field, nl: Nonlinearity) -> float:
    """B = int e^{ay} f(w(0,y)) w(0,y) dy, the multiplier's boundary integral."""
    return gridmod.boundary_integral(w, lambda s: np.asarray(nl.f(s)) * s)


def _multiplier(w: Field, nl: Nonlinearity, gamma: float) -> float:
    """lambda_a from stationarity tested with phi = w: (D_kin - B)/(2 D_kin),
    with D_kin = gamma = Gamma_a(w)."""
    return (gamma - _boundary_fu(w, nl)) / (2.0 * gamma)


def _trial(w: Field, nl: Nonlinearity) -> tuple[Field, float]:
    """The admissible field made from `w` (changed in place), and its E_a.

    Pin the end columns, clamp to [0,1], rearrange monotone in y, translate
    onto Gamma_a = 1 and pin again.  Raises `grid.NumericalError` (a
    ValueError) when `grid.project_constraint` cannot reach Gamma_a = 1.
    """
    _pin(w.values)
    np.clip(w.values, 0.0, 1.0, out=w.values)
    w = gridmod.rearrange_monotone(w)
    w = gridmod.project_constraint(w, tol=_CONSTRAINT_TOL)
    _pin(w.values)
    return w, gridmod.energy(w, nl)


def _step(w: Field, nl: Nonlinearity, delta: np.ndarray, tries: int, history: list) -> Field | None:
    """The first admissible `_trial` of w + s*delta, s = 1, 1/2, ... (at most
    `tries` lengths), whose E_a is below history[-1] by more than
    `_STALL_REL` relative; its E_a is appended to `history`.  None when no
    step length qualifies.
    """
    e_cur = history[-1]
    s = 1.0
    for _ in range(tries):
        try:
            trial, e_new = _trial(Field(w.values + s * delta, w.spec), nl)
        except ValueError:
            e_new = math.inf
        if e_new < e_cur - _STALL_REL * abs(e_cur):
            history.append(e_new)
            return trial
        trial = None  # free the rejected field before the next one is built
        s *= 0.5
    return None


def _warm_start(ws: _Workspace, w: Field, nl: Nonlinearity, history: list) -> tuple[Field, bool]:
    """Flux fixed-point burst: solve the linear problem with frozen boundary
    flux f(w(0,y))/B, then take a `_step` towards the solution.

    At the minimizer this map is stationary (its fixed point is the
    Euler-Lagrange equation), and far from it a single step can transport
    the front across the window, which gradient descent cannot do quickly.
    The map is damped by `_step`'s halving of the mixing weight.  Returns
    the last accepted field and whether any step was accepted.
    """
    spec = w.spec
    pin = np.zeros_like(w.values)
    _pin(pin)
    s_pin_free = gridmod.apply_stiffness(spec, pin)[:, 1:-1]
    moved = False
    for _ in range(_WARM_ITERS):
        b_over = _boundary_fu(w, nl)
        if not np.isfinite(b_over):
            break
        # B approximates 1 - 2*lambda_a >= 1 at the minimizer; floor the
        # divisor so misplaced seeds (B near or below 0) still get a
        # usefully-scaled flux solve, damped by the energy check in `_step`
        divisor = max(b_over, 0.2)
        rhs = -s_pin_free
        rhs[0] += _boundary_flux(w, nl)[1:-1] / divisor
        delta = pin.copy()
        delta[:, 1:-1] = ws.precond_solve(rhs)
        delta -= w.values
        trial = _step(w, nl, delta, _BURST_TRIES, history)
        if trial is None:
            break
        w, moved = trial, True
    return w, moved


def minimize(
    spec: GridSpec,
    nl: Nonlinearity,
    opts: SolverOptions | None = None,
    seed: Field | None = None,
) -> MinimizerResult:
    """Constrained minimization of the discrete E_a on Gamma_a = 1.

    Each iteration runs one flux fixed-point burst (`_warm_start`) and then
    the stationarity test.  Only when the burst accepted no step is one
    preconditioned Sobolev-gradient step tried: delta = -S_ff^{-1} g on the
    free nodes (`_Workspace`), taken by `_step` under the same acceptance
    rule as the burst's steps.

    Converged means only that the stationarity residual g - lambda_a
    D(Gamma_a) is at most `opts.tol` relative to the gradient norm (both in
    the inverse-stiffness metric), with |Gamma_a - 1| <= 1e-7.  When neither
    the burst nor the gradient step lowers E_a, or after `opts.max_iter`
    iterations, the result is returned unconverged and `extract_speed`
    refuses it.
    """
    opts = opts or SolverOptions()
    ws = _Workspace(spec)

    if seed is None:
        seed = gridmod.seed_function(spec)
    w, e_seed = _trial(seed.copy(), nl)
    history = [e_seed]
    rho_ratio = math.inf
    converged = False
    it = 0

    for it in range(1, opts.max_iter + 1):
        w, moved = _warm_start(ws, w, nl, history)
        sw = gridmod.apply_stiffness(spec, w.values)
        g = _gradient(w, nl, sw)
        gamma = gridmod.dirichlet(w)
        lam = _multiplier(w, nl, gamma)
        r_free = (g - 2.0 * lam * sw)[:, 1:-1]
        g_free = g[:, 1:-1]
        d_free = ws.precond_solve(g_free)
        slope = float(np.vdot(g_free, d_free))
        rho = math.sqrt(abs(float(np.vdot(r_free, ws.precond_solve(r_free)))))
        rho_ratio = rho / max(math.sqrt(abs(slope)), 1e-300)
        if rho_ratio <= opts.tol and abs(gamma - 1.0) <= 10.0 * _CONSTRAINT_TOL:
            converged = True
            break
        if moved:
            continue
        # the fixed point is stuck away from a stationary point: one
        # gradient step, and if that cannot lower E_a either, stop
        delta = np.zeros_like(w.values)
        np.negative(d_free, out=delta[:, 1:-1])
        trial = _step(w, nl, delta, _GRADIENT_TRIES, history)
        if trial is None:
            break
        w = trial

    w, e_cur = _trial(w, nl)
    gamma = gridmod.dirichlet(w)
    lam = _multiplier(w, nl, gamma)
    if lam >= 0.5:
        raise DegenerateMultiplierError(
            f"lambda_a = {lam:.6f} >= 1/2: grid too coarse for this reaction law"
        )
    return MinimizerResult(
        minimizer=w,
        infimum=e_cur,
        multiplier=lam,
        a=spec.a,
        iterations=it,
        converged=converged,
        constraint=gamma,
        residual_norm=rho_ratio,
        energy_history=history,
    )


# -- speed extraction ---------------------------------------------------------


def extract_speed(result: MinimizerResult, nl: Nonlinearity | None = None) -> FrontSolution:
    """Rescale the minimizer into the traveling front and read off speeds.

    mu = 1 - 2*lambda_a, c = a*mu.  The resampling w(mu x, mu y) lands
    exactly on the nodes of the grid with all spans divided by mu, so the
    front keeps the minimizer's nodal values on a contracted grid whose
    natural weight exponent is c.  A converged result whose c and
    c_var = a*(1 - 2*I_a) differ by more than `_SPEED_AGREEMENT` relative is
    refused too: the residual test alone does not certify the speed.
    """
    if not result.converged:
        raise SolverError(
            f"minimizer did not converge (stationarity residual rho/|g| = "
            f"{result.residual_norm:.3g}); refusing to extract a speed"
        )
    if result.multiplier >= 0.5:
        raise DegenerateMultiplierError(f"lambda_a = {result.multiplier:.6f} >= 1/2")
    mu = 1.0 - 2.0 * result.multiplier
    c = result.a * mu
    c_var = result.a * (1.0 - 2.0 * result.infimum)
    if abs(c - c_var) > _SPEED_AGREEMENT * abs(c_var):
        raise SolverError(
            f"speed estimates disagree: c = a(1 - 2 lambda_a) = {c:.6g} against "
            f"c_var = a(1 - 2 I_a) = {c_var:.6g}; refusing to report a speed"
        )
    spec = result.minimizer.spec
    front_spec = GridSpec(
        x_max=spec.x_max / mu,
        y_min=spec.y_min / mu,
        y_max=spec.y_max / mu,
        nx=spec.nx,
        ny=spec.ny,
        a=c,
    )
    front = Field(result.minimizer.values.copy(), front_spec)
    tr = gridmod.trace(front)
    interior = boundary = math.nan
    if nl is not None:
        interior, boundary = pde_residual(
            front.values, front_spec.hx, front_spec.hy, c, nl, ys=front_spec.ys
        )
    return FrontSolution(
        speed=c,
        mu=mu,
        front=front,
        trace=tr,
        interior_residual=interior,
        boundary_residual=boundary,
        speed_variational=c_var,
        multiplier=result.multiplier,
        infimum=result.infimum,
        a=result.a,
    )


def pde_residual(
    values: np.ndarray,
    hx: float,
    hy: float,
    c: float,
    nl: Nonlinearity,
    ys: np.ndarray | None = None,
):
    """(interior, boundary) residual norms of Laplace(u) + c u_y = 0, -u_x = f(u).

    Interior: weighted sup of the centered-difference residual over nodes at
    least two cells from every boundary, with weight min(1, e^{cy}) -- the
    deep lower region carries weight e^{cy} -> 0 in the energy, so the
    minimizer is not (and need not be) smooth there.  Boundary: sup of
    |-u_x - f(u)| on x = 0 with a second-order one-sided difference.
    """
    u = values
    lap = (
        (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / (hx * hx)
        + (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / (hy * hy)
        + c * (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * hy)
    )
    core = np.abs(lap[1:-1, 1:-1])
    if ys is not None:
        wgt = np.minimum(1.0, np.exp(c * np.asarray(ys)[2:-2]))
        core = core * wgt[None, :]
    interior = float(np.max(core)) if core.size else math.nan
    # second-order one-sided flux: (u1 - u0)/h - (h/2) u_xx, with u_xx taken
    # from the PDE (u_xx = -u_yy - c u_y); truncation h^2 u_xxx / 6, half the
    # constant of the plain 3-point stencil
    u0, u1 = u[0, 1:-1], u[1, 1:-1]
    uyy = (u[0, 2:] - 2.0 * u[0, 1:-1] + u[0, :-2]) / (hy * hy)
    uy = (u[0, 2:] - u[0, :-2]) / (2.0 * hy)
    ux = (u1 - u0) / hx + 0.5 * hx * (uyy + c * uy)
    boundary = float(np.max(np.abs(-ux - np.asarray(nl.f(u0)))))
    return interior, boundary


def residual(front: FrontSolution, nl: Nonlinearity):
    """Residual norms of a computed front under its own reaction law."""
    spec = front.front.spec
    return pde_residual(front.front.values, spec.hx, spec.hy, front.speed, nl, ys=spec.ys)


# -- orchestration ------------------------------------------------------------


def default_grid(a: float, opts: SolverOptions) -> GridSpec:
    """Spans proportional to 1/a: slow left tail gets the deep side."""
    factor = 1 << opts.refine
    return GridSpec(
        x_max=opts.x_span / a,
        y_min=-opts.y_span_down / a,
        y_max=opts.y_span_up / a,
        nx=opts.nx * factor,
        ny=opts.ny * factor,
        a=a,
    )


def solve_front(nl: Nonlinearity, opts: SolverOptions | None = None) -> FrontSolution:
    """Full pipeline: validate f, choose a, seed, minimize, rescale.

    The returned front is monotone in y (rearranged), takes values in
    [0, 1], and carries both speed estimates a(1-2*lambda_a) (authoritative)
    and a(1-2*I_a) (reported for cross-checking).
    """
    opts = opts or SolverOptions()
    report = validate(nl)
    if not report.passed:
        raise NonlinearityError(
            f"reaction law fails structural validation: {report.violated_conditions[:3]}"
        )
    a = opts.a if opts.a is not None else choose_weight(nl)
    spec = default_grid(a, opts)
    seed = None
    if opts.seed == "kernel":
        seed = Field(sample_front(ExplicitFrontParams(t=1.0, c=a), spec.xs, spec.ys), spec)
    result = minimize(spec, nl, opts, seed=seed)
    return extract_speed(result, nl)
