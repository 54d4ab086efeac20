"""Independent numerical oracles used by the test suite.

These deliberately avoid every code path they are meant to check: Bessel
values come from trapezoid quadrature of the integral representation

    K_nu(s) = int_0^infty exp(-s*cosh(t)) * cosh(nu*t) dt,

integrals of reaction laws from composite Simpson on refined meshes, and
derivatives from Richardson-extrapolated central differences.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
from scipy.sparse.linalg import spsolve


def bessel_k_scaled_quadrature(nu: int, s: float, n: int = 6000) -> float:
    """exp(s)*K_nu(s) by trapezoid quadrature, stable for any s > 0.

    The scaled integrand exp(-s*(cosh t - 1))*cosh(nu*t) never under- or
    overflows; cosh(t)-1 is evaluated as 2*sinh(t/2)^2 to avoid cancellation
    for small t.  The trapezoid rule converges exponentially here (analytic,
    rapidly decaying integrand), so n = 6000 leaves roundoff as the only
    error source (~1e-14 relative).
    """
    if s <= 0.0:
        raise ValueError("s must be positive")
    # truncation point: s*(cosh T - 1) = 780 kills the integrand;
    # acosh(1+x) written in log1p form so tiny x keeps full precision
    big = 780.0 / s
    t_max = math.log1p(big + math.sqrt(big * (2.0 + big)))
    t = np.linspace(0.0, t_max, n + 1)
    expo = 2.0 * np.sinh(t / 2.0) ** 2
    f = np.exp(-s * expo) * np.cosh(nu * t)
    h = t_max / n
    return float(h * (np.sum(f) - 0.5 * (f[0] + f[-1])))


def bessel_k_quadrature(nu: int, s: float, n: int = 6000) -> float:
    """K_nu(s) by quadrature of the integral representation (s <= ~700)."""
    return math.exp(-s) * bessel_k_scaled_quadrature(nu, s, n=n)


def simpson_integral(f, a: float, b: float, n: int = 4096) -> float:
    """Composite Simpson integral of a vectorized callable on [a, b]."""
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])))


def central_derivative(f, x: float, h: float = 1e-5) -> float:
    """Richardson-extrapolated central difference, O(h^4)."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def adaptive_simpson_recursive(fun, a: float, b: float, tol: float = 1e-12, depth: int = 48) -> float:
    """Depth-first adaptive Simpson on a scalar callable: the reference the
    breadth-first `nonlinearity._adaptive_simpson` must reproduce exactly."""

    def simp(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def rec(x0, x2, f0, f1, f2, whole, eps, d):
        xm = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        fl = float(fun(lm))
        fr = float(fun(rm))
        left = simp(x0, xm, f0, fl, f1)
        right = simp(xm, x2, f1, fr, f2)
        if d <= 0 or not math.isfinite(left + right) or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return rec(x0, xm, f0, fl, f1, left, eps / 2.0, d - 1) + rec(
            xm, x2, f1, fr, f2, right, eps / 2.0, d - 1
        )

    if a == b:
        return 0.0
    f0, f1, f2 = float(fun(a)), float(fun(0.5 * (a + b))), float(fun(b))
    whole = simp(a, b, f0, f1, f2)
    return rec(a, b, f0, f1, f2, whole, tol, depth)


def subpanels_linspace(edges, panel: float, z_geo: float, z_exp: float, z_dead: float):
    """Sub-panel table (starts, stops, owner) built one cell at a time: a cell
    starting in [z_exp, z_dead) has its edges at lo + panel * 2^k up to its
    top, every other cell the edges of np.linspace.  The reference for
    `explicit_front._subpanels`."""
    lo = edges[:-1]
    hi = edges[1:]
    center = 0.5 * (lo + hi)
    wmax = np.where(center >= z_geo, panel, 0.25 * np.abs(center))
    nsub = np.minimum(np.maximum(1, np.ceil((hi - lo) / wmax).astype(int)), 10000)
    nsub = np.where(lo >= z_dead, 1, nsub)
    starts, stops, owner = [], [], []
    for i in range(len(lo)):
        if z_exp <= lo[i] < z_dead:
            e = [lo[i]]
            off = panel
            while off < hi[i] - lo[i]:
                e.append(lo[i] + off)
                off *= 2.0
            e = np.array(e + [hi[i]])
            nsub[i] = len(e) - 1
        else:
            e = np.linspace(lo[i], hi[i], nsub[i] + 1)
        starts.append(e[:-1])
        stops.append(e[1:])
        owner.append(np.full(nsub[i], i))
    return np.concatenate(starts), np.concatenate(stops), np.concatenate(owner)


def _poisson_kernel_pair(x_off, z):
    """P^t from the Bessel pair k01_scaled, as before the K_1-only kernel."""
    from frontforge import explicit_front as ef
    from frontforge._kernels import k01_scaled

    z = np.asarray(z, dtype=float)
    r = np.hypot(x_off, z)
    _, k1h = k01_scaled(np.ravel(r))
    k1h = k1h.reshape(r.shape)
    return x_off / (math.pi * r) * k1h * np.exp(ef._expo_down(x_off, z, r))


def gauss_cells_by_column(x_off: float, edges, tol: float = 1e-11, keep=None):
    """Kernel integrals over the cells of `edges` for one scalar offset, each
    from its Gauss sub-panels with the 6/12 -> halved 12/24 check: the
    accuracy reference for `explicit_front._cells`, and the reference for its
    Gauss tier on the cells the boolean mask `keep` selects (0 elsewhere)."""
    from frontforge import explicit_front as ef

    starts, stops, owner = ef._subpanels(edges)
    out = np.zeros(len(edges) - 1)
    if keep is not None:
        sel = keep[owner]
        starts, stops, owner = starts[sel], stops[sel], owner[sel]
        if not len(owner):
            return out
    mid = 0.5 * (starts + stops)
    hw = 0.5 * (stops - starts)

    def rule(n):
        xi, wi = ef._gl(n)
        zz = mid[:, None] + hw[:, None] * xi[None, :]
        vals = _poisson_kernel_pair(x_off, zz.ravel()).reshape(zz.shape)
        return (vals * wi[None, :]).sum(axis=1) * hw

    coarse = rule(6)
    fine = rule(12)
    err = float(np.abs(fine - coarse).sum())
    if err > max(tol, 1e-13 * float(np.abs(fine).sum())):
        starts2 = np.column_stack([starts, mid]).ravel()
        stops2 = np.column_stack([mid, stops]).ravel()
        mid = 0.5 * (starts2 + stops2)
        hw = 0.5 * (stops2 - starts2)
        owner = np.repeat(owner, 2)
        coarse = rule(12)
        fine = rule(24)
        err = float(np.abs(fine - coarse).sum())
        if err > max(tol, 1e-12 * float(np.abs(fine).sum())):
            raise ef.QuadratureError("kernel quadrature did not converge", err)
    np.add.at(out, owner, fine)
    return out


def u_speed2_uniform(x_off: float, eta: float) -> float:
    """u^t at (x, eta >= _Y_COMPLEMENT) in speed-2 units on the uniform
    _PANEL-wide cells of [eta, max(eta, 0) + 30], with their edges summed up
    from eta one _PANEL at a time: the reference, deep in the tail where the
    check's absolute floor passes anything, for the graded sub-panels above
    `explicit_front._Z_EXP`."""
    from frontforge import explicit_front as ef

    top = max(eta, 0.0) + 30.0
    edges = [eta]
    while edges[-1] < top:
        edges.append(min(edges[-1] + ef._PANEL, top))
    return float(gauss_cells_by_column(x_off, np.array(edges)).sum())


def panel_cells_by_column(x_off: float, edges, tol: float = 1e-11):
    """Kernel integrals over the cells of `edges` for one scalar offset: the
    reference for one row of the batched `explicit_front._cells`.  The shared
    panels (grouping, nodes and per-cell interpolant weights) come from
    `explicit_front._shared_panels`; each panel's weights are packed here
    into one zero-padded (25 x 2M) block, M the most cells a panel holds, and
    the panel's node values make one (1 x 25)(25 x 2M) product with it.  A
    column whose shared panels fail their 13/25-point check takes the Gauss
    path on every cell."""
    from frontforge import explicit_front as ef

    shared = ef._shared_panels(edges)
    if shared is None:
        return gauss_cells_by_column(x_off, edges, tol)
    panels, n = shared.nodes.shape
    m = int(np.bincount(shared.panel).max())
    start = np.empty(panels, dtype=int)
    start[shared.panel[::-1]] = shared.cells[::-1]  # each panel's first cell
    local = shared.cells - start[shared.panel]
    block = np.zeros((panels, n, 2 * m))
    block[shared.panel, :, local] = shared.fine
    block[shared.panel, 0::2, m + local] = shared.coarse
    vals = _poisson_kernel_pair(x_off, shared.nodes.ravel()).reshape(panels, 1, n)
    sums = np.matmul(vals, block)[:, 0, :]
    fine = sums[shared.panel, local]
    coarse = sums[shared.panel, m + local]
    err = float(np.abs(fine - coarse).sum())
    if err > max(tol, 1e-13 * float(np.abs(fine).sum())):
        return gauss_cells_by_column(x_off, edges, tol)
    wide = np.ones(len(edges) - 1, dtype=bool)
    wide[shared.cells] = False
    out = gauss_cells_by_column(x_off, edges, tol, keep=wide)
    out[shared.cells] = fine
    return out


def sample_front_by_columns(params, xs, ys, cells=panel_cells_by_column):
    """u^{t,c} on xs x ys one column at a time, each column its own scalar
    quadrature `cells`: with the default, the reference for the batched
    `explicit_front.sample_front`, which must give the same bits; with
    `gauss_cells_by_column`, the Gauss accuracy reference.  The panel table,
    the Gauss nodes and the far limit of the complement integral come from
    explicit_front itself."""
    from frontforge import explicit_front as ef

    def top_value(x_off, eta):
        if eta >= ef._Z_DEAD:
            return 0.0
        if eta >= ef._Y_COMPLEMENT:
            return float(cells(x_off, ef._edges(eta, max(eta, 0.0) + 30.0)).sum())
        return 1.0 - float(cells(x_off, ef._edges(min(2.0 * eta, ef._far(x_off)), eta)).sum())

    def sweep(x_off, etas):
        top = top_value(x_off, float(etas[-1]))
        u = np.empty(len(etas))
        u[-1] = top
        u[:-1] = top + np.cumsum(cells(x_off, etas)[::-1])[::-1]
        return u

    ys = np.asarray(ys, dtype=float)
    return np.stack([sweep(0.5 * params.c * float(x) + params.t, 0.5 * params.c * ys) for x in np.asarray(xs)])


def sparse_stiffness(spec) -> sp.csr_matrix:
    """Sparse S with Gamma_a(w) = w^T S w (edge-based quadrature), assembled
    edge by edge: the reference for `grid.apply_stiffness`."""
    nx, ny = spec.nx, spec.ny
    n = (nx + 1) * (ny + 1)

    def node(i, j):
        return i * (ny + 1) + j

    rows, cols, vals = [], [], []

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny + 1), indexing="ij")
    wgt = (spec.tau * spec.wy)[jj] * spec.hy / spec.hx
    a_idx = node(ii, jj).ravel()
    b_idx = node(ii + 1, jj).ravel()
    w = wgt.ravel()
    rows += [a_idx, b_idx, a_idx, b_idx]
    cols += [a_idx, b_idx, b_idx, a_idx]
    vals += [w, w, -w, -w]

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny), indexing="ij")
    wgt = spec.sigma[ii] * spec.wy_edge[jj] * spec.hx / spec.hy
    a_idx = node(ii, jj).ravel()
    b_idx = node(ii, jj + 1).ravel()
    w = wgt.ravel()
    rows += [a_idx, b_idx, a_idx, b_idx]
    cols += [a_idx, b_idx, b_idx, a_idx]
    vals += [w, w, -w, -w]

    S = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    return S.tocsr()


def _free_mask(spec) -> np.ndarray:
    free = np.zeros((spec.nx + 1, spec.ny + 1), dtype=bool)
    free[:, 1:-1] = True
    return free.ravel()


def free_stiffness_solve(spec, g):
    """S_ff^{-1} G on an (nx+1, ny-1) free-node block by a sparse direct
    solve on the free rows and columns of `sparse_stiffness`: the reference
    for `solver._Workspace.precond_solve`."""
    free = _free_mask(spec)
    S_ff = sparse_stiffness(spec)[free][:, free].tocsc()
    return spsolve(S_ff, np.ravel(g)).reshape(g.shape)


def boundary_ntd_dense(spec) -> np.ndarray:
    """N = U^T S_ff^{-1} U, U the injection of the free nodes of row 0, as the
    inverse of the dense Schur complement of the free stiffness onto those
    nodes (the discrete Dirichlet-to-Neumann map): the reference for the
    inverse of `solver._boundary_modes`' operator."""
    s_ff = sparse_stiffness(spec)[_free_mask(spec)][:, _free_mask(spec)].toarray()
    nb = spec.ny - 1  # row 0 comes first in the free ordering
    s_bb, s_bi, s_ii = s_ff[:nb, :nb], s_ff[:nb, nb:], s_ff[nb:, nb:]
    return np.linalg.inv(s_bb - s_bi @ np.linalg.solve(s_ii, s_bi.T))


def boundary_eigenvalues_exact(spec) -> np.ndarray:
    """mu_m = r^2 (1 + cosh(a hy) - 2 cosh(a hy/2) cos(pi m/ny)), r = hx/hy,
    m = 1..ny-1, in 40-digit mpmath arithmetic on the float64 grid constants
    and rounded once: the eigenvalues of `solver._boundary_modes`' symmetrised
    y-operator, free of the cancellation the expression suffers in float64
    at small m."""
    import mpmath

    with mpmath.workdps(40):
        r2 = (mpmath.mpf(spec.hx) / mpmath.mpf(spec.hy)) ** 2
        ahy = mpmath.mpf(spec.a) * mpmath.mpf(spec.hy)
        diag, off = 1 + mpmath.cosh(ahy), 2 * mpmath.cosh(ahy / 2)
        return np.array([float(r2 * (diag - off * mpmath.cospi(mpmath.mpf(m) / spec.ny))) for m in range(1, spec.ny)])


def boundary_modes_exact(spec) -> np.ndarray:
    """d_m, m = 1..ny-1, by the backward recurrence s_nx = 1 + mu sigma_nx,
    s_i = k_i + mu sigma_i - 1/s_{i+1} (k_i = 2 inside, 1 at the ends), run
    in exact rational arithmetic on the 40-digit mu_m rounded once
    (`boundary_eigenvalues_exact`) and rounded once more at d = s_0: the
    reference for the closed form of `solver._boundary_modes`."""
    mu = boundary_eigenvalues_exact(spec)
    sigma = [Fraction(float(v)) for v in spec.sigma]
    out = np.empty(mu.size)
    for m, mu_m in enumerate(mu):
        q = Fraction(float(mu_m))
        s = 1 + q * sigma[spec.nx]
        for i in range(spec.nx - 1, -1, -1):
            s = (2 if i else 1) + q * sigma[i] - 1 / s
        out[m] = float(s)
    return out


def newton_step_sparse(w, nl, lam: float):
    """(dw, dlambda) of one Newton step on F1 = (1 - 2 lambda)(S w)_free -
    b(w)_free, F2 = w.S w - 1, by `spsolve` of the sparse bordered Jacobian
    [[(1 - 2 lambda) S_ff - U D U^T, -2 s], [2 s^T, 0]] with s = (S w)_free
    and D = diag(ymeasure f'(w(0, y))).  From the harmonic extension of a
    trace, row 0 of dw and dlambda are the trace Newton step of
    `solver._Trace.newton_step`."""
    spec = w.spec
    free = _free_mask(spec)
    S = sparse_stiffness(spec)
    s_ff = S[free][:, free]
    sw = S @ w.values.ravel()
    s = sw[free]
    nb = spec.ny - 1
    row0 = w.values[0, 1:-1]
    b = np.zeros(s.size)
    b[:nb] = spec.ymeasure[1:-1] * np.asarray(nl.f(row0))
    d = np.zeros(s.size)
    d[:nb] = spec.ymeasure[1:-1] * np.asarray(nl.f_prime(row0))
    mu = 1.0 - 2.0 * lam
    jac = sp.bmat(
        [
            [mu * s_ff - sp.diags(d), sp.csr_matrix(-2.0 * s[:, None])],
            [sp.csr_matrix(2.0 * s[None, :]), None],
        ]
    ).tocsc()
    rhs = np.concatenate([-(mu * s - b), [1.0 - float(w.values.ravel() @ sw)]])
    x = spsolve(jac, rhs)
    return x[:-1].reshape(spec.nx + 1, spec.ny - 1), float(x[-1])


def trace_extension_sparse(spec, u) -> np.ndarray:
    """The field with row 0 held at the trace u (ny + 1 values, pins
    included) and the pins held at 1 and 0 whose other free nodes minimize
    Gamma_a, by `spsolve` of S restricted to those nodes: the reference for
    `solver._Trace.extend`."""
    S = sparse_stiffness(spec)
    inner = _free_mask(spec).reshape(spec.nx + 1, spec.ny + 1)
    inner[0] = False
    inner = inner.ravel()
    fixed = np.zeros((spec.nx + 1, spec.ny + 1))
    fixed[:, 0] = 1.0
    fixed[0] = u
    values = fixed.ravel().copy()
    rhs = -(S[inner][:, ~inner] @ values[~inner])
    values[inner] = spsolve(S[inner][:, inner].tocsc(), rhs)
    return values.reshape(fixed.shape)


def reduced_problem_dense(spec):
    """(Lambda, u0, kappa0) of the reduced form Gamma(u) = kappa0 + (u -
    u0)^T Lambda (u - u0) on the free trace nodes: Lambda is the dense Schur
    complement of the free stiffness onto row 0 (the inverse of
    `boundary_ntd_dense`), and u0, kappa0 are the trace and Gamma_a of the
    pins' extension by `spsolve`.  The reference for `solver._Trace`."""
    s_ff = sparse_stiffness(spec)[_free_mask(spec)][:, _free_mask(spec)].toarray()
    nb = spec.ny - 1
    s_bb, s_bi, s_ii = s_ff[:nb, :nb], s_ff[:nb, nb:], s_ff[nb:, nb:]
    dtn = s_bb - s_bi @ np.linalg.solve(s_ii, s_bi.T)
    S = sparse_stiffness(spec)
    free = _free_mask(spec)
    pins = np.zeros((spec.nx + 1, spec.ny + 1))
    pins[:, 0] = 1.0
    values = pins.ravel()
    values[free] = spsolve(S[free][:, free].tocsc(), -(S[free][:, ~free] @ values[~free]))
    pins = values.reshape(pins.shape)
    return dtn, pins[0, 1:-1].copy(), float(values @ (S @ values))


def newton_step_finite_difference(spec, u, nl, lam: float, h: float = 1e-2):
    """(du, dlambda) of one Newton step on the reduced problem, F1 =
    (1 - 2 lambda) Lambda (u - u0) - ymeasure f(u), F2 = Gamma(u) - 1, from
    `reduced_problem_dense` and a dense bordered Jacobian of Richardson
    extrapolated central differences (`central_derivative`), exact to
    round-off for a law polynomial of degree <= 4 while u +- h stays in
    (0, 1): the reference for `solver._Trace.newton_step`."""
    dtn, u0, kappa0 = reduced_problem_dense(spec)
    m = spec.ymeasure[1:-1]

    def residual(z):
        x, mu = z[:-1] - u0, 1.0 - 2.0 * z[-1]
        return np.append(mu * (dtn @ x) - m * np.asarray(nl.f(z[:-1])), kappa0 + x @ dtn @ x - 1.0)

    z = np.append(u[1:-1], lam)
    jac = np.empty((z.size, z.size))
    for j in range(z.size):
        e = np.zeros(z.size)
        e[j] = 1.0
        jac[:, j] = central_derivative(lambda t: residual(z + t * e), 0.0, h)
    x = np.linalg.solve(jac, -residual(z))
    return x[:-1], float(x[-1])


def rearrange_rows_sorted(vals, meas):
    """Weighted decreasing rearrangement that sorts every row, one row at a
    time (stable sort, cumulative-measure search at cell midpoints): the
    reference for `_kernels.rearrange_columns`, which keeps rows that are
    already nonincreasing as they are."""
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    meas = np.ascontiguousarray(meas, dtype=np.float64)
    n = vals.shape[1]
    zeta = (np.cumsum(meas) - meas) + 0.5 * meas
    out = np.empty_like(vals)
    for i in range(vals.shape[0]):
        idx = np.argsort(-vals[i], kind="stable")
        cum = np.cumsum(meas[idx])
        k = np.searchsorted(cum, zeta, side="left")
        out[i] = vals[i, idx][np.minimum(k, n - 1)]
    return out


def dirichlet_expression(spec, v) -> float:
    """Gamma_a(v) with each edge direction written as one expression on
    fresh temporaries: the reference for the in-place `grid.dirichlet`,
    which must give the same bits (same operations in the same order)."""
    ux = (v[1:, :] - v[:-1, :]) / spec.hx
    uy = (v[:, 1:] - v[:, :-1]) / spec.hy
    kx = float(np.sum(ux * ux @ (spec.tau * spec.wy)) * spec.hx * spec.hy)
    ky = float(np.sum(spec.sigma @ (uy * uy * spec.wy_edge[None, :])) * spec.hx * spec.hy)
    return kx + ky


def _reaction_source(vals: np.ndarray, spec, nl) -> np.ndarray:
    """Ghost-row flux term: -v_x(0,y) = f(v(0,y)) folded into the x-stencil."""
    src = np.zeros_like(vals)
    src[0, :] = 2.0 * np.asarray(nl.f(vals[0, :])) / spec.hx
    return src


def _solve_tridiag(dl, d, du, rhs):
    """T x = rhs for the tridiagonal T with sub/main/super diagonals dl, d,
    du (dl[0] and du[-1] are ignored), by scipy's banded solve."""
    ab = np.zeros((3, d.size))
    ab[0, 1:] = du[:-1]
    ab[1] = d
    ab[2, :-1] = dl[1:]
    return solve_banded((1, 1), ab, rhs)


def step_reference(state, dt: float, nl):
    """One evolution step that rebuilds the limit, both sweep matrices and a
    full-field reaction source on every call, and solves the sweeps as the
    PDE writes them (the x-sweep unsymmetrized, with its ghost-closure and
    Neumann rows) by scipy's banded LU: the reference for `evolution.step`."""
    from frontforge.evolution import EvolutionState, stability_limit
    from frontforge.grid import Field

    spec = state.field.spec
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    lim = stability_limit(spec, nl)
    if dt > lim * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:g} exceeds the stability limit {lim:g}")
    v = state.field.values
    nx, ny = spec.nx, spec.ny
    rx = dt / (spec.hx * spec.hx)
    ry = dt / (spec.hy * spec.hy)

    # x-sweep over interior y-columns (Dirichlet rows stay fixed)
    dl = np.full(nx + 1, -rx)
    d = np.full(nx + 1, 1.0 + 2.0 * rx)
    du = np.full(nx + 1, -rx)
    du[0] = -2.0 * rx  # ghost closure at the reactive boundary
    dl[nx] = -2.0 * rx  # homogeneous Neumann at x_max
    rhs = v + dt * _reaction_source(v, spec, nl)
    vstar = v.copy()
    vstar[:, 1:ny] = _solve_tridiag(dl, d, du, rhs[:, 1:ny])

    # y-sweep over all x-rows for the interior nodes; the Dirichlet values
    # at y_min/y_max are known and enter the equations next to them.  (A
    # pivoting solve of the full system with identity Dirichlet rows moves
    # those values by rounding once ry > 1.)
    rhs = vstar[:, 1:ny].T.copy()
    rhs[0] += ry * vstar[:, 0]
    rhs[-1] += ry * vstar[:, ny]
    off = np.full(ny - 1, -ry)
    vnew = vstar.copy()
    vnew[:, 1:ny] = _solve_tridiag(off, np.full(ny - 1, 1.0 + 2.0 * ry), off, rhs).T

    out = Field(vnew, spec)
    return EvolutionState(field=out, time=state.time + dt)


def invert_trace_bracketed(params, s: float) -> float:
    """The trace position y with u^{t,c}(0, y) = s by the earlier two-path
    inversion: below s = 1/2 a bracket doubled from +-4 and bisected with a
    fresh [eta, eta + 30] integral at each step, above it a bracket from one
    cumulative pass below eta = -4 (`_mass_gap_below`): the reference for
    `explicit_front.invert_trace`'s one-cell bisection."""
    from frontforge.explicit_front import _mass_below, _u_speed2
    from frontforge.nonlinearity import _bisect

    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    t = params.t

    def gap(eta):
        return (1.0 - s) - _mass_below(t, eta) if s > 0.5 else _u_speed2(t, eta) - s

    lo, hi = -4.0, 4.0  # eta bracket; the gap decreases from 1 - s to -s
    while gap(hi) > 0.0 and hi < 1.0e6:
        hi *= 2.0
    if s > 0.5:
        lo, gap = _mass_gap_below(t, 1.0 - s)
    else:
        while gap(lo) < 0.0 and lo > -1.0e18:
            lo *= 2.0
    return 2.0 * _bisect(gap, lo, hi, 1e-13) / params.c


def _mass_gap_below(t: float, target: float):
    """(lo, gap) for the bisection of eta -> target - (mass below eta).

    One cumulative pass over the cells of _edges(_far(t), -4) gives the mass
    below each of their edges, and lo is the highest edge whose mass is at
    most `target`.  Each gap(eta) then adds only the cells from the bracket's
    low end to eta: `_bisect` moves its low end to every eta with a positive
    gap, so the sum moves up with it.
    """
    from frontforge.explicit_front import _cells, _edges, _far, _integral_p

    edges = _edges(_far(t), -4.0)
    below = np.concatenate([[0.0], np.cumsum(_cells(np.array([t]), edges)[0])])
    k = int(np.searchsorted(below, target, side="right")) - 1
    low, mass = float(edges[k]), float(below[k])

    def gap(eta):
        nonlocal low, mass
        m = mass + _integral_p(t, low, eta)
        if target - m > 0.0:
            low, mass = eta, m
        return target - m

    return low, gap
