"""Constrained variational front solver.

Minimizes E_a(w) = (1/2) Gamma_a(w) + int e^{ay} G(w(0,y)) dy over the
manifold Gamma_a(w) = 1, then converts the minimizer to a traveling front:
with multiplier lambda_a the rescaling u(x,y) = w(mu x, mu y), mu = 1 -
2*lambda_a, travels at speed c = a*(1 - 2*lambda_a) = a*(1 - 2*I_a).

The reaction acts on the row x = 0 only, so a stationary point is the
harmonic extension of its boundary trace u = w(0, .), and the problem is
solved on the trace (`_Trace`): E_a(u) = Gamma(u)/2 + sum ymeasure G(u)
with Gamma(u) = kappa0 + (u - u0)^T Lambda (u - u0), the discrete form of
the half-plane to boundary reduction (Cabre and Sola-Morales, CPAM 58,
2005), all in closed form: Lambda, the boundary Dirichlet-to-Neumann map,
is diagonal in DST-I y-modes (`_boundary_modes`; `_dst` is scipy.fft's),
u0 and kappa0 come from the pins' 1-D profile in y, and the trace problem
works in those modes (`_Trace.scaled`).  A solve is one pass from a seed
trace: a short burst of the damped flux fixed point, which can carry the
front across the window, then one attempt of exact Newton steps on (u,
lambda_a), each one bordered solve in Lambda's modes by preconditioned
MINRES, two DSTs an iteration (`_minres`).  Every trial pins, clamps and
rearranges the trace, then walks it in y onto Gamma = 1 in closed form
(`_Trace.walk`).  The front is built once, as the extension of the final
trace: one solve with the separable preconditioner of the stiffness
(`_Workspace`: DCT-I x-modes and one tridiagonal factor per mode).  The
grid pins w = 1 at y_min and w = 0 at y_max, so the free nodes are the
block [:, 1:-1]; x-boundaries are natural (Neumann).

The speed c = a*(1 - 2*lambda_a) means something only at a stationary point
of E_a on Gamma_a = 1, so "converged" has one meaning: the extended front's
two-dimensional stationarity residual rho/|g| is at most
`SolverOptions.tol`, 1e-10 by default (see `minimize`).  Any other stop is
reported unconverged, and `extract_speed` then raises SolverError (exit
code 1 on the CLI), as it does when c and a*(1 - 2*I_a) disagree by more
than 5 %.  `MinimizerResult.record` says why and how the solve stopped.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from . import grid as gridmod
from ._kernels import spd_tridiag_factor
from .explicit_front import ExplicitFrontParams, front_profile
from .grid import Field, GridSpec, TraceProfile
from .nonlinearity import Nonlinearity, NonlinearityError, _adaptive_simpson, validate


def __getattr__(name: str):
    # the benchmark's tracer patches solver.spla.splu and solver.sample_front;
    # no solve uses either, so each is imported only when asked for
    if name == "spla":
        return importlib.import_module("scipy.sparse.linalg")
    if name == "sample_front":
        return importlib.import_module(".explicit_front", __package__).sample_front
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    tol: float = 1e-10  # stationarity residual relative to the gradient norm
    a: float | None = None  # weight; None = choose_weight policy
    seed: str = "exponential"  # "exponential" | "kernel"
    refine: int = 0  # halvings of the mesh width

    def check(self) -> None:
        """ValueError for a seed, tol or refine that no solve can run."""
        if self.seed not in ("exponential", "kernel"):
            raise ValueError(f"seed must be exponential|kernel, got {self.seed!r}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol = {self.tol} must be positive and finite")
        if not (isinstance(self.refine, (int, np.integer)) and self.refine >= 0):
            raise ValueError(f"refine = {self.refine!r} must be a nonnegative integer")


# Iteration constants of `minimize`.
_HANDOFF_ITERS = 20  # flux fixed-point steps before the Newton attempt
_NEWTON_STEPS = 12  # steps of the Newton attempt
_BURST_TRIES = 6  # step lengths 1, 1/2, ..., 1/32 of a fixed-point step
_STALL_REL = 1e-9  # relative decrease of E_a at or below which a step is refused
_CONSTRAINT_TOL = 1e-8  # |Gamma_a - 1| that the projection leaves alone
_KRYLOV_RTOL = 1e-14  # preconditioned residual at which a Newton step's MINRES stops
# largest |c - c_var| / c_var that `extract_speed` reports: the two speed
# estimates coincide at the continuum minimizer
_SPEED_AGREEMENT = 0.05


@dataclass
class SolveRecord:
    """Why and how `minimize` stopped, and where its time went.

    `stop` is "residual" (the stationarity test passed), "newton" (Newton
    broke down or used up its `_NEWTON_STEPS` steps) or "refused" (Newton's
    trace had a higher E_a/Gamma_a than the burst's, or the extension of the
    trace to report failed `_admissible` or the two-dimensional test).
    `burst_steps` counts the accepted flux fixed-point steps, `trials` all
    trace trials, `newton_steps` every Newton step and `krylov_iterations`
    their MINRES iterations; `rho_history` holds rho/|g| at every stationarity
    test in order.  The `_s` fields are each phase's seconds: the build,
    the burst, Newton, and extensions with their two-dimensional tests.
    """

    stop: str = ""
    burst_steps: int = 0
    newton_steps: int = 0
    rho_history: list = field(default_factory=list)
    trials: int = 0
    krylov_iterations: int = 0
    build_s: float = 0.0
    burst_s: float = 0.0
    newton_s: float = 0.0
    extension_s: float = 0.0

    def lap(self, phase: str, since: float) -> float:
        """Add the seconds since `since` to the phase's total; returns now."""
        now = time.perf_counter()
        setattr(self, phase, getattr(self, phase) + now - since)
        return now


@dataclass
class MinimizerResult:
    minimizer: Field
    infimum: float
    multiplier: float
    a: float
    iterations: int  # passes, always 1; the benchmark's tracer sums it
    converged: bool
    constraint: float
    residual_norm: float
    energy_history: list = field(default_factory=list, repr=False)
    record: SolveRecord = field(default_factory=SolveRecord, repr=False)


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
    record: SolveRecord = field(default_factory=SolveRecord, repr=False)


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
    I) are the DCT-I cosines phi_k(i) = cos(pi i k/nx), lambda_k =
    4 sin^2(pi k/(2 nx)); they turn S_ff X = G into one SPD tridiagonal
    system (lambda_k C + T) per x mode k, factored once as one
    block-diagonal LDL^T (`_kernels.spd_tridiag_factor`).  The solves run
    along y on the unscaled weights, so they stay accurate in the deep
    columns, where C is smallest.
    """

    def __init__(self, spec: GridSpec):
        nx, ny = spec.nx, spec.ny
        k = np.arange(nx + 1)
        lam = 4.0 * np.sin(0.5 * np.pi * k / nx) ** 2
        # i*k reduced mod 2 nx keeps the cosine's argument exact
        self.phi = np.cos((np.pi / nx) * (np.outer(k, k) % (2 * nx)))
        self.phi *= math.sqrt(2.0 / nx)
        self.phi[:, [0, -1]] *= math.sqrt(0.5)
        c = (spec.tau * spec.wy)[1:-1] * spec.hy / spec.hx
        self.root_c = np.sqrt(c)
        t = spec.wy_edge * spec.hx / spec.hy
        diag = (lam[:, None] * c[None, :] + (t[:-1] + t[1:])[None, :]).ravel()
        # zero couplings between consecutive blocks keep the modes apart
        off = np.zeros((nx + 1, ny - 1))
        off[:, :-1] = -t[1:-1]
        self.ldl = spd_tridiag_factor(diag, off.ravel()[:-1])

    def precond_solve(self, g_free: np.ndarray) -> np.ndarray:
        """S_ff^{-1} G on an (nx+1, ny-1) free-node block G:
        Phi (lambda_k C + T)^{-1} Phi^T G."""
        modes = self.phi.T @ g_free
        y, _ = lapack.dpttrs(*self.ldl, modes.reshape(-1, 1), overwrite_b=True)
        return self.phi @ y.reshape(modes.shape)


def _boundary_modes(spec: GridSpec) -> np.ndarray:
    """d_m, m = 1..ny-1: Lambda = (U^T S_ff^{-1} U)^{-1}, the boundary
    operator of the free nodes of row 0 (U their injection; C, S_ff as in
    `_Workspace`), is C^{1/2} Psi diag(d) Psi^T C^{1/2}.

    C^{-1/2} T C^{-1/2}, the symmetrised y-operator, is Toeplitz (diagonal
    r^2 (1 + cosh(a hy)), off-diagonal -r^2 cosh(a hy/2), r = hx/hy), so its
    eigenvectors are the orthonormal DST-I sines Psi_jm = sqrt(2/ny)
    sin(pi j m/ny) with eigenvalues mu_m = r^2 (1 + cosh(2b) - 2 cosh(b)
    cos(phi_m)) = 4 r^2 cosh(b) (sinh^2(b/2) + sin^2(phi_m/2)), b = a hy/2,
    phi_m = pi m/ny, the last form free of the cancellation of the first at
    small phi_m.  Per mode, d_m is the Schur
    complement of Kx + mu_m Sigma onto x = 0, the last step of the backward
    recurrence s_nx = 1 + mu sigma_nx, s_i = k_i + mu sigma_i - 1/s_{i+1}
    (k_i = 2 inside, 1 at the ends).  With cosh(theta) = 1 + mu/2 and
    2 cosh(theta) cosh(n theta) = cosh((n+1) theta) + cosh((n-1) theta),
    s_i = cosh((nx-i+1) theta)/cosh((nx-i) theta) for i >= 1, so d = s_0 =
    cosh(theta) - 1/s_1 = sinh(theta) tanh(nx theta) = sqrt(mu (1 + mu/4))
    tanh(2 nx asinh(sqrt(mu)/2)), the last form free of cancellation: the
    discrete strip's Dirichlet-to-Neumann symbol |k| tanh(|k| L), whose
    tanh -> 1 limit closes x as a half-line.  N = Lambda^{-1} has 1/d.
    """
    r2, b = (spec.hx / spec.hy) ** 2, 0.5 * spec.a * spec.hy
    half_phi = 0.5 * np.pi / spec.ny * np.arange(1, spec.ny)
    mu = 4.0 * r2 * math.cosh(b) * (math.sinh(0.5 * b) ** 2 + np.sin(half_phi) ** 2)
    return np.sqrt(mu * (1.0 + 0.25 * mu)) * np.tanh(2.0 * spec.nx * np.arcsinh(0.5 * np.sqrt(mu)))


def _dst(x: np.ndarray) -> np.ndarray:
    """Psi x = Psi^T x = Psi^{-1} x, scipy.fft's orthonormal DST-I.
    Imported on first use: scipy.fft loads scipy.special."""
    from scipy.fft import dst

    return dst(x, type=1, norm="ortho")


def _minres(apply, precond: np.ndarray, rhs: np.ndarray, cap: int) -> tuple[np.ndarray | None, int]:
    """Preconditioned MINRES (Paige and Saunders, SIAM J. Numer. Anal. 12,
    1975) for the symmetric system apply(x) = rhs, with the SPD diagonal
    preconditioner `precond`.  Returns (x, iterations) once the residual's
    precond^{-1}-norm is at most `_KRYLOV_RTOL` times the rhs's, or (None,
    cap) when `cap` iterations do not get there."""
    x = np.zeros_like(rhs)
    r1 = r2 = rhs
    y = rhs / precond
    beta1 = beta = math.sqrt(float(rhs @ y))
    if beta1 == 0.0:
        return x, 0
    old_beta = eps = dbar = 0.0
    phibar, cs, sn = beta1, -1.0, 0.0
    w = w2 = np.zeros_like(rhs)
    for it in range(1, cap + 1):
        # Lanczos step: v_k = y/beta, and the next r with y = P^{-1} r
        v = y / beta
        y = apply(v)
        if it > 1:
            y -= (beta / old_beta) * r1
        alpha = float(v @ y)
        y -= (alpha / beta) * r2
        r1, r2 = r2, y
        y = r2 / precond
        old_beta, beta = beta, math.sqrt(float(r2 @ y))
        # the previous rotation on the new column, then the next rotation
        old_eps = eps
        delta = cs * dbar + sn * alpha
        gbar = sn * dbar - cs * alpha
        eps, dbar = sn * beta, -cs * beta
        gamma = max(math.hypot(gbar, beta), 1e-300)
        cs, sn = gbar / gamma, beta / gamma
        w1, w2 = w2, w
        w = (v - old_eps * w1 - delta * w2) / gamma
        x += (cs * phibar) * w
        phibar *= sn
        if phibar <= _KRYLOV_RTOL * beta1:
            return x, it
    return None, cap


def _boundary_fu(spec: GridSpec, u: np.ndarray, fu: np.ndarray) -> float:
    """B = int e^{ay} f(u) u dy over the trace u = w(0, .), fu = f(u)."""
    return float(np.sum(spec.ymeasure * fu * u))


def _multiplier(spec: GridSpec, u: np.ndarray, fu: np.ndarray, gamma: float) -> float:
    """lambda_a from stationarity tested with phi = w: (D_kin - B)/(2 D_kin),
    with D_kin = gamma = Gamma_a(w), u = w(0, .) and fu = f(u)."""
    return (gamma - _boundary_fu(spec, u, fu)) / (2.0 * gamma)


def _stationarity(ws: _Workspace, w: Field, nl: Nonlinearity) -> tuple[float, float, float]:
    """The stationarity test at the field w: (rho/|g|, Gamma_a, lambda_a).

    rho is the residual g - 2 lambda_a S w on the free nodes, lambda_a from
    `_multiplier`, and |g| the gradient, both in the inverse-stiffness
    metric.  As g = S w - b with the flux b = ymeasure f(w(0, .)) on row 0
    only, the residual is (1 - 2 lambda_a) g - 2 lambda_a b, formed on g.
    """
    spec = w.spec
    gamma = gridmod.dirichlet(w)
    fu = np.asarray(nl.f(w.values[0]))
    lam = _multiplier(spec, w.values[0], fu, gamma)
    flux = spec.ymeasure[1:-1] * fu[1:-1]
    g_free = gridmod.apply_stiffness(spec, w.values)[:, 1:-1]
    g_free[0] -= flux
    slope = float(np.vdot(g_free, ws.precond_solve(g_free)))
    g_free *= 1.0 - 2.0 * lam
    g_free[0] -= 2.0 * lam * flux
    rho = math.sqrt(abs(float(np.vdot(g_free, ws.precond_solve(g_free)))))
    return rho / max(math.sqrt(abs(slope)), 1e-300), gamma, lam


def _admissible(v: np.ndarray) -> bool:
    """Inside [0, 1] and nonincreasing in y: a front the solver may report."""
    return bool(v.min() >= 0.0 and v.max() <= 1.0 and not (v[:, 1:] > v[:, :-1]).any())


class _Trace:
    """The variational problem on the boundary trace u = w(0, .), a whole
    row of ny + 1 nodes with the pins at its ends.

    A stationary point has (S w)_free = 0 off row 0, so it is the
    S-harmonic extension of its trace, the field of least Gamma_a with that
    trace.  With u0, kappa0 the trace and Gamma_a of the pins' extension
    w_p: Gamma(u) = kappa0 + (u - u0)^T Lambda (u - u0) exactly, Lambda as
    in `_boundary_modes`.  Kx annihilates constants, so every column of
    w_p is the profile p_j = sum_{k>=j} r_k / R, r = 1/wy_edge, R = sum r,
    with the flux 1/R through each y-edge: kappa0 = x_max/(hy R), and p is
    summed from y_max, where it is about e^-52, to stay accurate there.  In
    the scaled unknowns v = C^{1/2}(u - u0) Lambda is M = Psi diag(d) Psi^T,
    so the one representation of u is its modes q = Psi v (`scaled`), where
    Gamma = kappa0 + sum d q^2 and every product stays well scaled however
    far C spans; a DST goes back to the nodes only where a product is
    pointwise (the burst's step, the MINRES apply with f'(u), the
    extension).  The trial's two moves in y are the weighted rearrangement
    (`rearrange`) and the translation onto Gamma = 1 (`walk`).
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.ws = _Workspace(spec)
        self.root_c = self.ws.root_c
        self.d = _boundary_modes(spec)
        tail = np.cumsum(1.0 / spec.wy_edge[::-1])[::-1]
        self.profile = np.append(tail / tail[0], 0.0)
        self.u0 = self.profile[1:-1]
        self.kappa0 = float(spec.x_max / (spec.hy * tail[0]))

    def scaled(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(q, d q, Gamma(u)) with q = Psi C^{1/2}(u - u0), from one DST:
        Gamma = kappa0 + sum d q^2."""
        q = _dst(self.root_c * (u[1:-1] - self.u0))
        dq = self.d * q
        return q, dq, self.kappa0 + float(q @ dq)

    def flux(self, fu: np.ndarray) -> np.ndarray:
        """Psi C^{-1/2} ymeasure f(u), the flux on the free nodes in Lambda's
        modes (ymeasure = hx C), from fu = f(u) on the whole row."""
        return _dst(self.spec.hx * self.root_c * fu[1:-1])

    def energy(self, u: np.ndarray, gamma: float, nl: Nonlinearity) -> float:
        return 0.5 * gamma + float(np.sum(self.spec.ymeasure * np.asarray(nl.G(u))))

    def cell(self, a: tuple, b: tuple) -> tuple[float, float, float]:
        """(Gamma(A), kappa0 + (A - u0)^T Lambda (B - u0), Gamma(B)) from the
        `scaled` forms a of A and b of B: the quadratic in theta of
        Gamma((1 - theta) A + theta B)."""
        return a[2], self.kappa0 + float(a[0] @ b[1]), b[2]

    @staticmethod
    def _unit_root(p: float, q: float, r: float) -> float:
        """The theta in [0, 1] with (1-theta)^2 p + 2 theta (1-theta) q + theta^2 r = 1.

        Requires (p - 1)(r - 1) <= 0.  In powers of theta the equation is
        alpha theta^2 + 2 beta theta + gamma = 0 with alpha = p - 2q + r >= 0
        (the form of A - B), beta = q - p, gamma = p - 1; both roots are taken
        from the cancellation-free pair s/alpha, gamma/s.
        """
        alpha, beta, gamma = p - 2.0 * q + r, q - p, p - 1.0
        s = -(beta + math.copysign(math.sqrt(max(beta * beta - alpha * gamma, 0.0)), beta))
        if gamma < 0.0 and beta < 0.0 and alpha > 0.0:
            theta = s / alpha  # the larger root; the smaller one is negative
        else:
            theta = gamma / s if s != 0.0 else 0.0
        return min(max(theta, 0.0), 1.0)

    def walk(self, u: np.ndarray, forms: tuple) -> tuple[np.ndarray, float]:
        """u translated in y onto Gamma = 1, from its `scaled` forms: ((1 -
        theta) A + theta B, Gamma there).

        A and B are u's translates by k and k + 1 cells (`grid.shift_cells`,
        with `forms` for the translate by 0 cells), and Gamma of their
        convex combination is the quadratic `cell` in theta.  Starting from
        the cell of the continuum shift log(Gamma)/a, the walk moves one cell
        at a time to the cell whose ends bracket Gamma = 1 and solves the
        quadratic there (`_unit_root`).  Zero or non-finite Gamma, or a shift
        beyond a quarter of the y-window, raises NumericalError.
        """
        spec, gamma = self.spec, forms[2]
        if not math.isfinite(gamma):
            raise gridmod.NumericalError(f"cannot translate onto Gamma = 1 from Gamma = {gamma}")
        if gamma <= 0.0:
            raise gridmod.NumericalError("cannot translate onto Gamma = 1 from Gamma = 0")
        limit = 0.25 * (spec.y_max - spec.y_min)
        reach = limit / spec.hy
        k = math.floor(math.log(gamma) / (spec.a * spec.hy))
        while -reach - 1.0 <= k <= reach:
            a, b = (gridmod.shift_cells(spec, u, j) for j in (k, k + 1))
            p, q, r = self.cell(forms if k == 0 else self.scaled(a), forms if k == -1 else self.scaled(b))
            if (p - 1.0) * (r - 1.0) <= 0.0:
                theta = self._unit_root(p, q, r)
                if abs((k + theta) * spec.hy) > limit:
                    break
                return (1.0 - theta) * a + theta * b, (1.0 - theta) ** 2 * p + 2.0 * theta * (1.0 - theta) * q + theta**2 * r
            # Gamma falls with the shift; the cell ends are shared, so the walk
            # never turns back
            k += 1 if r > 1.0 else -1
        raise gridmod.NumericalError("Gamma = 1 needs a shift beyond a quarter of the y-window")

    def rearrange(self, u: np.ndarray) -> np.ndarray:
        """Pin the ends, clamp to [0, 1] and rearrange monotone in y, all in
        place: the weighted rearrangement against ymeasure keeps the
        boundary potential and does not raise Gamma (up to O(h))."""
        u[0], u[-1] = 1.0, 0.0
        np.clip(u, 0.0, 1.0, out=u)
        # through grid's name, which the benchmark's tracer patches
        return gridmod.rearrange_columns(u, self.spec.ymeasure)

    def trial(self, u: np.ndarray, nl: Nonlinearity) -> tuple[np.ndarray, float]:
        """The admissible trace made from `u` (changed in place), and its E_a.

        `rearrange`, then `walk` onto Gamma = 1 and pin the translate
        again; the pins are no unknowns of Gamma.  Raises NumericalError
        when Gamma = 1 is out of reach.
        """
        forms = self.scaled(self.rearrange(u))
        gamma = forms[2]
        if not abs(gamma - 1.0) <= _CONSTRAINT_TOL:
            u, gamma = self.walk(u, forms)
            u[0], u[-1] = 1.0, 0.0
        return u, self.energy(u, gamma, nl)

    def burst(self, u, nl, history: list, steps: int, record: SolveRecord):
        """Flux fixed-point burst: step towards u0 + N(ymeasure f(u)/B), the
        trace of the linear problem with frozen flux, halving the step (at
        most `_BURST_TRIES` lengths) until a `trial` lowers E_a below
        history[-1] by more than `_STALL_REL` relative.  The map's fixed
        point is the Euler-Lagrange equation, and far from it one step can
        carry the front across the window.  Returns the last accepted trace
        and the number of accepted steps; their E_a go into `history`.
        """
        moved = 0
        for _ in range(steps):
            fu = np.asarray(nl.f(u))
            b_over = _boundary_fu(self.spec, u, fu)
            # B approximates 1 - 2*lambda_a >= 1 at the minimizer; floor the
            # divisor so misplaced seeds (B near or below 0) still get a
            # usefully-scaled flux solve, damped by the energy check
            delta = np.zeros_like(u)
            delta[1:-1] = self.u0 - u[1:-1]
            delta[1:-1] += _dst(self.flux(fu) / self.d) / (max(b_over, 0.2) * self.root_c)
            e_cur, s = history[-1], 1.0
            for _ in range(_BURST_TRIES):
                record.trials += 1
                try:
                    trial, e_new = self.trial(u + s * delta, nl)
                except gridmod.NumericalError:
                    e_new = math.inf
                if e_new < e_cur - _STALL_REL * abs(e_cur):
                    break
                s *= 0.5
            else:
                break
            history.append(e_new)
            u = trial
            moved += 1
        return u, moved

    def stationarity(self, u: np.ndarray, nl: Nonlinearity) -> tuple[float, float, float]:
        """`_stationarity` of the extension of u from the trace alone: its
        gradient and residual are Lambda(u - u0) - b and (1 - 2 lambda_a)
        Lambda(u - u0) - b on row 0, where the inverse stiffness is N, so in
        Lambda's modes both N-norms are sum z^2/d."""
        _, dq, gamma = self.scaled(u)
        fu = np.asarray(nl.f(u))
        lam = _multiplier(self.spec, u, fu, gamma)
        flux = self.flux(fu)

        def norm(z):
            return math.sqrt(float(z @ (z / self.d)))

        return norm((1.0 - 2.0 * lam) * dq - flux) / max(norm(dq - flux), 1e-300), gamma, lam

    def newton_step(self, u, nl, lam: float, record: SolveRecord):
        """(du, dlambda) of one exact Newton step on F1 = (1 - 2 lambda)
        Lambda(u - u0) - ymeasure f(u) = 0, F2 = Gamma(u) - 1 = 0, or None
        when MINRES breaks down or has no SPD preconditioner (1 - 2 lambda
        <= 0, or q = 0); its iterations go into `record`.

        In Lambda's modes Psi C^{1/2} du, with F1 scaled by Psi C^{-1/2},
        the system is symmetric: block mu diag(d) - Psi diag(hx f'(u)) Psi
        (mu = 1 - 2 lambda), border -2 d q and rhs (flux - mu d q, Gamma - 1)
        from u's `scaled` forms (q, d q, Gamma) and `flux`.  It is solved by
        `_minres`, two DSTs an iteration for the nodal product with f'(u),
        preconditioned by the block's constant-shift part mu d - hx min(f'(1),
        0) and, on the border, its Schur scalar: an SPD diagonal, whose
        iterations do not grow as the mesh is refined.
        """
        n = self.spec.ny - 1
        mu = 1.0 - 2.0 * lam
        _, dq, gamma = self.scaled(u)
        border = -2.0 * dq
        rhs = np.append(self.flux(np.asarray(nl.f(u))) - mu * dq, gamma - 1.0)
        diag = mu * self.d
        shifted = diag - self.spec.hx * min(float(nl.f_prime(1.0)), 0.0)
        schur = float(border @ (border / shifted))
        if not (shifted.min() > 0.0 and schur > 0.0):
            return None
        hfp = self.spec.hx * np.asarray(nl.f_prime(u[1:-1]))

        def apply(z):
            dz, out = z[:n], np.empty(n + 1)
            out[:n] = diag * dz - _dst(hfp * _dst(dz)) + z[n] * border
            out[n] = border @ dz
            return out

        x, iterations = _minres(apply, np.append(shifted, schur), rhs, self.spec.ny)
        record.krylov_iterations += iterations
        if x is None:
            return None
        return _dst(x[:n]) / self.root_c, float(x[n])

    def newton(self, u, nl, lam: float, tol: float, record: SolveRecord):
        """Newton from u (not changed) to rho/|g| <= tol, |Gamma - 1| <=
        `_CONSTRAINT_TOL` in at most `_NEWTON_STEPS` steps: the trace, or
        None when MINRES breaks down, on a non-finite iterate or 1 - 2 lambda
        <= 0.  Steps, MINRES iterations and residuals go into `record`."""
        cur = u.copy()
        for _ in range(_NEWTON_STEPS):
            step = self.newton_step(cur, nl, lam, record)
            record.newton_steps += 1
            if step is None:
                return None
            cur[1:-1] += step[0]
            lam += step[1]
            if not (lam < 0.5 and np.all(np.isfinite(cur))):
                return None
            rho, gamma, _ = self.stationarity(cur, nl)
            record.rho_history.append(rho)
            if rho <= tol and abs(gamma - 1.0) <= _CONSTRAINT_TOL:
                return cur
        return None

    def extend(self, u: np.ndarray) -> Field:
        """The front of trace u: u on row 0, w_p + S_ff^{-1} U Lambda (u - u0)
        below.  A second pass on the first one's trace mismatch removes the
        error, up to 1e-5 where C is smallest, of Lambda's scaled apply."""
        values = np.tile(self.profile, (self.spec.nx + 1, 1))
        flux = np.zeros((self.spec.nx + 1, self.spec.ny - 1))
        for _ in range(2):
            flux[0] = self.root_c * _dst(self.d * _dst(self.root_c * (u[1:-1] - values[0, 1:-1])))
            values[:, 1:-1] += self.ws.precond_solve(flux)
        values[0] = u
        return Field(values, self.spec)


def minimize(
    spec: GridSpec,
    nl: Nonlinearity,
    opts: SolverOptions | None = None,
    seed: TraceProfile | None = None,
) -> MinimizerResult:
    """Constrained minimization of the discrete E_a on Gamma_a = 1.

    The problem is solved on the boundary trace (`_Trace`) in one pass
    from the seed trace, ny + 1 finite values on spec.ys (else ValueError;
    by default row 0 of `grid.seed_function`): a `_HANDOFF_ITERS`-step flux
    fixed-point burst, then, unless the burst's trace already passes, one
    exact Newton attempt on (u, lambda_a).  Newton's trace is accepted only
    when it converges with 1 - 2 lambda_a > 0 and E_a/Gamma_a at most the
    burst's, and the accepted trace's extension must be `_admissible`
    (checked, never enforced) and pass `_stationarity`; each trace is
    extended once.  E_a and Gamma_a both scale by e^{-at} under a shift by t
    in y, so the ratio compares the two traces as if both sat exactly on
    Gamma_a = 1.

    Options that `SolverOptions.check` refuses raise ValueError before any
    work.  Converged means only that the extension's stationarity residual g -
    lambda_a D(Gamma_a) is at most `opts.tol` relative to the gradient norm
    (both in the inverse-stiffness metric), with |Gamma_a - 1| <= 1e-8.
    Otherwise the extension of the burst's trace is returned unconverged,
    `extract_speed` refuses it, and `record.stop` says why.
    """
    opts = opts or SolverOptions()
    opts.check()
    record = SolveRecord(stop="residual", trials=1)  # the seed's trial
    clock = time.perf_counter()
    seed = seed or gridmod.trace(gridmod.seed_function(spec))
    if not (np.array_equal(seed.y_nodes, spec.ys) and np.isfinite(seed.values).all()):
        raise ValueError(
            f"the seed trace must be ny + 1 = {spec.ny + 1} finite values on spec.ys, "
            f"got {seed.values.size} from y = {seed.y_nodes[0]:g}"
        )
    problem = _Trace(spec)
    u, e_seed = problem.trial(seed.values.copy(), nl)
    history = [e_seed]
    clock = record.lap("build_s", clock)

    u, record.burst_steps = problem.burst(u, nl, history, _HANDOFF_ITERS, record)
    rho, gamma, lam = problem.stationarity(u, nl)
    record.rho_history.append(rho)
    clock = record.lap("burst_s", clock)
    found = u
    if not (rho <= opts.tol and abs(gamma - 1.0) <= _CONSTRAINT_TOL):
        found = problem.newton(u, nl, lam, opts.tol, record)
        if found is None:
            record.stop = "newton"
        else:
            # E_a/Gamma_a, which a shift in y leaves unchanged: the two traces
            # may sit up to _CONSTRAINT_TOL apart in Gamma_a
            gamma_new = problem.scaled(found)[2]
            e_new = problem.energy(found, gamma_new, nl)
            if e_new / gamma_new > history[-1] / gamma:
                found, record.stop = None, "refused"
        clock = record.lap("newton_s", clock)
    for candidate in [u] if found is None or found is u else [found, u]:
        front = problem.extend(candidate)
        rho, gamma, lam = _stationarity(problem.ws, front, nl)
        record.rho_history.append(rho)
        clock = record.lap("extension_s", clock)
        if found is None:
            break
        if rho <= opts.tol and abs(gamma - 1.0) <= _CONSTRAINT_TOL and _admissible(front.values):
            if found is not u:
                history.append(e_new)
            break
        found, record.stop = None, "refused"
    if lam >= 0.5:
        raise DegenerateMultiplierError(
            f"lambda_a = {lam:.6f} >= 1/2: grid too coarse for this reaction law"
        )
    return MinimizerResult(
        minimizer=front,
        infimum=history[-1],
        multiplier=lam,
        a=spec.a,
        iterations=1,
        converged=record.stop == "residual",
        constraint=gamma,
        residual_norm=rho,
        energy_history=history,
        record=record,
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
        record=result.record,
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
    and a(1-2*I_a) (reported for cross-checking).  Options that
    `SolverOptions.check` refuses raise ValueError before f is validated.
    """
    opts = opts or SolverOptions()
    opts.check()
    report = validate(nl)
    if not report.passed:
        raise NonlinearityError(
            f"reaction law fails structural validation: {report.violated_conditions[:3]}"
        )
    a = opts.a if opts.a is not None else choose_weight(nl)
    spec = default_grid(a, opts)
    kernel = opts.seed == "kernel"
    seed = TraceProfile(spec.ys, front_profile(ExplicitFrontParams(t=1.0, c=a), 0.0, spec.ys)) if kernel else None
    result = minimize(spec, nl, opts, seed=seed)
    return extract_speed(result, nl)
