"""Closed-form traveling fronts built from the half-plane Bessel kernel.

The family u^{t,c}(x,y) = u^t(cx/2, cy/2) with

    u^t(x,y) = int_y^inf e^{-z} (x+t)/(pi r) K_1(r) dz,   r = sqrt((x+t)^2 + z^2),

solves Laplace(u) + c u_y = 0 with boundary reaction f^{t,c} = (c/2) f^t,
where f^t is known implicitly in closed form.  These fronts (plus the kernel
G^t, the Poisson kernel P^t = -2 G^t_x, and the exact asymptotic constants)
are the oracle that the variational solver and the decay analysis are tested
against.

All kernel evaluations use exponentially scaled Bessel functions with the
exponent -(z + r) computed in cancellation-free form, so profiles stay
accurate far into both tails.  The Poisson kernel, and with it every front
value, profile and sampled field, evaluates e^r K_1(r) alone
(`_kernels.k1_scaled`); the Green kernel needs e^r K_0(r) and the implicit law
f^t both functions, and they take the pair from `_kernels.k01_scaled`.

Every front value goes through the one checked quadrature `_cells`; below
_Y_COMPLEMENT as 1 minus the mass below, from `kernel_mass`'s limit `_far`.

A sampled field is one batched quadrature pass over all its columns: one
shared panel table, one kernel evaluation per block of columns and one
cumulative sum per column.  A block holds as many columns as fit in
_BLOCK_POINTS kernel points of the 12-point rule, so the temporaries stay the
same size whatever the number of columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._kernels import k01_scaled, k1_scaled
from .nonlinearity import Nonlinearity, _bisect, ignition_point, make_custom
from .specfun import k_ratio

#: uniform quadrature panels this wide resolve the kernel to machine precision
_PANEL = 0.4
#: switch to geometric panels below this z (power-law regime)
_Z_GEO = -32.0
#: beyond this z the integrand underflows to exact 0
_Z_DEAD = 400.0
#: use the complement integral for trace values this far down
_Y_COMPLEMENT = -34.0
#: kernel points of the 12-point rule in one block of columns of `_cells`
_BLOCK_POINTS = 65536
#: smallest kernel offset t whose law table `front_nonlinearity` resolves
LAW_T_MIN = 0.125
#: spacing of the uniform core of the law table's trace positions
_LAW_STEP = 0.05


class QuadratureError(RuntimeError):
    """Panel quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class ExplicitFrontParams:
    """Kernel offset t and speed c of the closed-form front u^{t,c}."""

    t: float
    c: float

    def __post_init__(self):
        if not (self.t > 0.0 and np.isfinite(self.t)):
            raise ValueError(f"t must be positive, got {self.t}")
        if not (self.c > 0.0 and np.isfinite(self.c)):
            raise ValueError(f"c must be positive, got {self.c}")


# -- kernel pieces (u^t normalization, speed 2) ------------------------------


def _expo_down(x_off, z, r):
    """-(z + r) without cancellation; z + r = x_off^2/(r - z) for z < 0."""
    z = np.asarray(z, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        neg = -(x_off * x_off) / (r - z)
    return np.where(z < 0.0, neg, -(z + r))


def _p_kernel(x_off, z):
    """P^t(x, z) with x_off = x + t, in the speed-2 normalization."""
    z = np.asarray(z, dtype=float)
    r = np.hypot(x_off, z)
    k1h = k1_scaled(np.ravel(r)).reshape(r.shape)
    return x_off / (math.pi * r) * k1h * np.exp(_expo_down(x_off, z, r))


@lru_cache(maxsize=8)
def _gl(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _edges(a: float, b: float) -> np.ndarray:
    """Quadrature panel edges on [a, b]: geometric in the far power-law
    region, uniform elsewhere, truncated where the integrand underflows."""
    if not a < b:
        raise ValueError("empty integration interval")
    b_eff = min(b, _Z_DEAD)
    if b_eff <= a:
        return np.array([a, b])
    out = [a]
    z = a
    while z < b_eff:
        if z < _Z_GEO:
            z = min(z / 1.3, _Z_GEO)
        else:
            z = z + _PANEL
        z = min(z, b_eff)
        out.append(z)
    if b > b_eff:
        out.append(b)
    return np.asarray(out)


def _subpanels(edges: np.ndarray):
    """The sub-panel table of `edges`: (starts, stops, owner cell).

    A cell wider than its panel width is split into equal sub-panels with
    the arithmetic of np.linspace (lo + j*step, last edge exactly hi), all
    cells at once.
    """
    lo = edges[:-1]
    hi = edges[1:]
    width = hi - lo
    center = 0.5 * (lo + hi)
    wmax = np.where(center >= _Z_GEO, _PANEL, 0.25 * np.abs(center))
    nsub = np.minimum(np.maximum(1, np.ceil(width / wmax).astype(int)), 10000)
    nsub = np.where(lo >= _Z_DEAD, 1, nsub)  # integrand underflowed to 0 there
    owner = np.repeat(np.arange(len(lo)), nsub)
    last = np.cumsum(nsub) - 1  # index of each cell's final sub-panel
    j = np.arange(len(owner)) - (last - nsub + 1)[owner]
    step = (width / nsub)[owner]
    starts = j * step + lo[owner]
    stops = (j + 1) * step + lo[owner]
    stops[last] = hi
    return starts, stops, owner


def _rule(x_offs: np.ndarray, mid: np.ndarray, hw: np.ndarray, n: int) -> np.ndarray:
    """n-point Gauss sums of the kernel on each sub-panel (centers `mid`,
    half-widths `hw`), one row per offset in `x_offs`."""
    xi, wi = _gl(n)
    zz = mid[:, None] + hw[:, None] * xi[None, :]
    vals = _p_kernel(x_offs[:, None], zz.ravel()).reshape(-1, n)
    return (vals * wi[None, :]).sum(axis=1).reshape(len(x_offs), -1) * hw


def _cells(x_offs: np.ndarray, edges: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """Integrals of the kernel over each cell [edges[i], edges[i+1]], one row
    per offset in the 1-D array `x_offs`.

    Cells wider than a panel are subdivided internally.  Every row is checked
    with nested 6/12-point Gauss rules; a row that fails is redone on halved
    sub-panels with 12/24 points, and disagreement beyond `tol` there raises.
    Rows go in blocks of at most _BLOCK_POINTS kernel points of the 12-point
    rule (at least one row).
    """
    x_offs = np.asarray(x_offs, dtype=float)
    starts, stops, owner = _subpanels(edges)
    mid = 0.5 * (starts + stops)
    hw = 0.5 * (stops - starts)
    halved = None
    out = np.zeros((len(x_offs), len(edges) - 1))
    block = max(1, _BLOCK_POINTS // (12 * len(mid)))
    for first in range(0, len(x_offs), block):
        rows = np.arange(first, min(first + block, len(x_offs)))
        coarse = _rule(x_offs[rows], mid, hw, 6)
        fine = _rule(x_offs[rows], mid, hw, 12)
        err = np.abs(fine - coarse).sum(axis=1)
        bad = err > np.maximum(tol, 1e-13 * np.abs(fine).sum(axis=1))
        np.add.at(out, (rows[~bad, None], owner), fine[~bad])
        if not bad.any():
            continue
        if halved is None:
            # halve every sub-panel; halves stay in order, next to their owner
            starts2 = np.column_stack([starts, mid]).ravel()
            stops2 = np.column_stack([mid, stops]).ravel()
            halved = 0.5 * (starts2 + stops2), 0.5 * (stops2 - starts2), np.repeat(owner, 2)
        mid2, hw2, owner2 = halved
        coarse = _rule(x_offs[rows[bad]], mid2, hw2, 12)
        fine = _rule(x_offs[rows[bad]], mid2, hw2, 24)
        err = np.abs(fine - coarse).sum(axis=1)
        worse = err > np.maximum(tol, 1e-12 * np.abs(fine).sum(axis=1))
        if worse.any():
            raise QuadratureError("kernel quadrature did not converge", float(err[worse][0]))
        np.add.at(out, (rows[bad, None], owner2), fine)
    return out


def _integral_p(x_off, a: float, b: float):
    """int_a^b of the kernel at each offset of x_off (direct panel quadrature);
    a float for a scalar offset."""
    sums = _cells(np.atleast_1d(x_off), _edges(a, b)).sum(axis=1)
    return float(sums[0]) if np.ndim(x_off) == 0 else sums


def _far(x_off: float) -> float:
    """Lower limit of the kernel's mass integral at a scalar offset: the
    kernel's w^{-3/2} decay leaves less than 1e-17 of its mass below it."""
    return -((0.8 * x_off * 1.0e17) ** 2)


def _u_speed2(x_off, eta: float):
    """u^t at (x, eta) in speed-2 coordinates, with x_off = x + t; a float
    for a scalar offset, one value per offset for an array."""
    if eta >= _Z_DEAD:
        return 0.0 if np.ndim(x_off) == 0 else np.zeros(len(x_off))
    if eta >= _Y_COMPLEMENT:
        return _integral_p(x_off, eta, max(eta, 0.0) + 30.0)
    return 1.0 - _mass_below(x_off, eta)


def _mass_below(x_off, eta: float):
    """1 - u^t at (x, eta), each offset integrated from its own _far; a float
    for a scalar offset."""
    below = [_integral_p(x, min(2.0 * eta, _far(x)), eta) for x in np.atleast_1d(x_off).tolist()]
    return below[0] if np.ndim(x_off) == 0 else np.array(below)


# -- public closed forms ------------------------------------------------------


def green_g(t: float, x, y):
    """G^t(x,y) = (1/2pi) e^{-y} K_0(sqrt((x+t)^2 + y^2)); solves Lw + 2w_y = 0."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if np.any(np.asarray(x) < 0.0):
        raise ValueError("x must be nonnegative")
    x_off = np.asarray(x, dtype=float) + t
    yarr = np.asarray(y, dtype=float)
    r = np.hypot(x_off, yarr)
    k0h, _ = k01_scaled(np.ravel(r))
    k0h = k0h.reshape(r.shape)
    out = k0h / (2.0 * math.pi) * np.exp(_expo_down(x_off, yarr, r))
    return float(out) if out.ndim == 0 else out


def poisson_kernel(t: float, x, y):
    """P^t(x,y) = -2 G^t_x; positive, unit mass in y for every x."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if np.any(np.asarray(x) < 0.0):
        raise ValueError("x must be nonnegative")
    out = _p_kernel(np.asarray(x, dtype=float) + t, y)
    return float(out) if np.ndim(out) == 0 else out


def kernel_mass(t: float, x: float = 0.0, lo: float | None = None, hi: float = 380.0) -> float:
    """Direct quadrature of int P^t(x, z) dz; defaults cover the full line.

    Never uses the unit-mass identity, so it can serve as its check.  The
    omitted tail below `lo` is bounded by the kernel's power decay and stays
    under 1e-16 for the default.
    """
    x_off = x + t
    return _integral_p(x_off, _far(x_off) if lo is None else lo, hi)


def explicit_front(params: ExplicitFrontParams, x: float, y) -> float | np.ndarray:
    """The front value u^{t,c}(x, y) in (0, 1), decreasing in y."""
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    x_off = 0.5 * params.c * x + params.t
    if np.ndim(y) == 0:
        return _u_speed2(x_off, 0.5 * params.c * float(y))
    return np.array([_u_speed2(x_off, 0.5 * params.c * float(v)) for v in np.asarray(y)])


def _sweep(x_offs: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """The speed-2 front on the ascending eta nodes, one row per offset in
    `x_offs`: its value at the top node plus the cumulative kernel integrals
    of the cells above."""
    top = _u_speed2(x_offs, float(etas[-1]))
    u = np.empty((len(x_offs), len(etas)))
    # cumulative sums from the top node down, written into u[:, :-1] reversed
    np.cumsum(_cells(x_offs, etas)[:, ::-1], axis=1, out=u[:, -2::-1])
    u[:, :-1] += top[:, None]
    u[:, -1] = top
    return u


def _ascending(ys) -> np.ndarray:
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1 or len(ys) < 2 or np.any(np.diff(ys) <= 0.0):
        raise ValueError("ys must be strictly increasing with at least two nodes")
    return ys


def front_profile(params: ExplicitFrontParams, x: float, ys: np.ndarray) -> np.ndarray:
    """u^{t,c}(x, ys) on an ascending grid via one cumulative kernel pass."""
    x_off = 0.5 * params.c * x + params.t
    return _sweep(np.array([x_off]), 0.5 * params.c * _ascending(ys))[0]


def explicit_front_dy(params: ExplicitFrontParams, x: float, y):
    """d/dy of u^{t,c}: equals -(c/2) P^t(cx/2, cy/2) < 0."""
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    x_off = 0.5 * params.c * x + params.t
    out = -0.5 * params.c * _p_kernel(x_off, 0.5 * params.c * np.asarray(y, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def sample_front(params: ExplicitFrontParams, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Field u^{t,c} on the tensor grid xs x ys, shape (len(xs), len(ys)),
    all columns in one batched kernel pass."""
    x_offs = 0.5 * params.c * np.asarray(xs, dtype=float) + params.t
    return _sweep(x_offs, 0.5 * params.c * _ascending(ys))


def asymptotic_constant(params: ExplicitFrontParams, side: str) -> float:
    """Coefficient t/sqrt(pi c) of the tail laws of -u_y(0,y), both sides."""
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    return params.t / math.sqrt(math.pi * params.c)


# -- implicit nonlinearity ----------------------------------------------------


def _f_speed2(t: float, eta) -> np.ndarray:
    """f^t at trace position eta (speed-2 units), stable in both tails."""
    eta = np.asarray(eta, dtype=float)
    r = np.hypot(t, eta)
    k0h, k1h = k01_scaled(np.ravel(r))
    k0h = k0h.reshape(r.shape)
    k1h = k1h.reshape(r.shape)
    return (k0h - eta / r * k1h) / math.pi * np.exp(_expo_down(t, eta, r))


def _fprime_speed2(t: float, eta) -> np.ndarray:
    """(f^t)' at trace position eta: (t/r) h^t with
    h^t = -r/t^2 + 1/r + (K_0 + K_2)/(2 K_1)."""
    eta = np.asarray(eta, dtype=float)
    r = np.hypot(t, eta)
    h = -r / (t * t) + 1.0 / r + k_ratio(r)
    return t / r * h


def invert_trace(params: ExplicitFrontParams, s: float) -> float:
    """The unique y with u^{t,c}(0, y) = s, by bisection to a bracket of
    relative width 1e-13 in the speed-2 trace position; above s = 1/2 on
    1 - s against the mass below, which resolves 1 - u where u rounds to s."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    t = params.t

    def gap(eta):
        return (1.0 - s) - _mass_below(t, eta) if s > 0.5 else _u_speed2(t, eta) - s

    lo, hi = -4.0, 4.0  # eta bracket; the gap decreases from 1 - s to -s
    while gap(hi) > 0.0 and hi < 1.0e6:
        hi *= 2.0
    while gap(lo) < 0.0 and lo > -1.0e18:
        lo *= 2.0
    if s > 0.5:
        gap = _mass_gap(t, 1.0 - s, lo)
    return 2.0 * _bisect(gap, lo, hi, 1e-13) / params.c


def _mass_gap(t: float, target: float, lo: float):
    """eta -> target - (mass below eta) for a bisection whose bracket starts
    at `lo`: the mass is integrated once up to lo, and each eta adds only
    the cells from the bracket's low end to eta.  `_bisect` moves its low
    end to every eta with a positive gap, so the sum moves up with it."""
    low, mass = lo, _mass_below(t, lo)

    def gap(eta):
        nonlocal low, mass
        m = mass + _integral_p(t, low, eta)
        if target - m > 0.0:
            low, mass = eta, m
        return target - m

    return gap


def explicit_nonlinearity(params: ExplicitFrontParams, s: float) -> float:
    """f^{t,c}(s) = (c/2) f^t(s); exact 0 at the endpoints s = 0, 1."""
    if s <= 0.0 or s >= 1.0:
        if s in (0.0, 1.0):
            return 0.0
        raise ValueError("s must lie in [0, 1]")
    eta = 0.5 * params.c * invert_trace(params, s)
    return 0.5 * params.c * float(_f_speed2(params.t, eta))


def explicit_nonlinearity_deriv(params: ExplicitFrontParams, s: float) -> float:
    """(f^{t,c})'(s); approaches -c/(2t) at both endpoints."""
    if s <= 0.0 or s >= 1.0:
        if s in (0.0, 1.0):
            return -params.c / (2.0 * params.t)
        raise ValueError("s must lie in [0, 1]")
    eta = 0.5 * params.c * invert_trace(params, s)
    return 0.5 * params.c * float(_fprime_speed2(params.t, eta))


# -- packaged nonlinearity for the solver -------------------------------------


def _hphase_root(t: float) -> float:
    """The positive eta where h^t, and with it f^t', changes sign; at eta = 0
    h^t(t) = (K_0 + K_2)/(2 K_1)(t) > 0."""
    hi = max(4.0 * t, 4.0)
    while _fprime_speed2(t, hi) > 0.0:
        hi *= 2.0
    return _bisect(lambda eta: _fprime_speed2(t, eta), 0.0, hi, 1e-13)


def _law_eta_grid(t: float) -> np.ndarray:
    """Trace positions of the law table: a uniform core of spacing _LAW_STEP
    with a geometric tail below it and a coarse tail above."""
    core_lo, core_hi = -40.0 * max(t, 1.0), 15.0 + 3.0 * t
    tail = []
    v = core_lo
    while v > -4.0e5:
        v *= 1.2
        tail.append(v)
    neg_tail = np.asarray(tail[::-1])  # ascending, strictly below core_lo
    core = np.arange(core_lo, core_hi + _LAW_STEP, _LAW_STEP)
    pos_tail = core_hi + np.cumsum(np.full(40, 0.5))
    return np.concatenate([neg_tail, core, pos_tail])


def front_nonlinearity(params: ExplicitFrontParams) -> Nonlinearity:
    """The reaction law f^{t,c} packaged as a table-backed Nonlinearity.

    The trace is swept once (cumulative quadrature) on a grid combining a
    uniform core with geometric tails, giving the parametric table
    (s, f, f') with exact derivative data; inside the table f is cubic
    Hermite in s and f' is that cubic's derivative, outside both continue
    with the exact endpoint slopes -c/(2t).  Structural constants delta,
    alpha, beta are located from the closed forms.  Interpolation error is
    below ~1e-9, far inside what the variational solver resolves.
    """
    t, c = params.t, params.c
    if t < LAW_T_MIN:
        raise ValueError(f"the law table needs t >= {LAW_T_MIN:g}, got t = {t:g}")
    y_star = _hphase_root(t)

    eta_grid = _law_eta_grid(t)
    u = _sweep(np.array([t]), eta_grid)[0]

    f_tab = _f_speed2(t, eta_grid)
    fp_tab = _fprime_speed2(t, eta_grid)

    # ascending in s = reversed eta order; drop non-monotone roundoff ties
    s_tab = u[::-1]
    f_tab = f_tab[::-1]
    fp_tab = fp_tab[::-1]
    keep = np.concatenate([[True], np.diff(s_tab) > 0.0])
    s_tab, f_tab, fp_tab = s_tab[keep], f_tab[keep], fp_tab[keep]

    slope = -1.0 / t  # speed-2 endpoint slope; scaled by c/2 below
    s_lo, s_hi = float(s_tab[0]), float(s_tab[-1])
    h_tab = np.diff(s_tab)

    def locate(s):
        s = np.asarray(s, dtype=float)
        sc = np.clip(s, s_lo, s_hi)
        idx = np.clip(np.searchsorted(s_tab, sc) - 1, 0, len(h_tab) - 1)
        hloc = h_tab[idx]
        return s, idx, hloc, (sc - s_tab[idx]) / hloc

    def f_core(s):
        s, idx, hloc, w = locate(s)
        # products, not **, so a scalar s gives the array bits
        h00 = (1.0 + 2.0 * w) * ((1.0 - w) * (1.0 - w))
        h10 = w * ((1.0 - w) * (1.0 - w))
        h01 = w * w * (3.0 - 2.0 * w)
        h11 = w * w * (w - 1.0)
        val = (
            h00 * f_tab[idx]
            + h10 * hloc * fp_tab[idx]
            + h01 * f_tab[idx + 1]
            + h11 * hloc * fp_tab[idx + 1]
        )
        val = np.where(s < s_lo, slope * s, val)
        val = np.where(s > s_hi, slope * (s - 1.0), val)
        return val

    def fp_core(s):
        # derivative in s of the same Hermite cubic as f_core
        s, idx, hloc, w = locate(s)
        val = (
            6.0 * w * (w - 1.0) * (f_tab[idx] - f_tab[idx + 1]) / hloc
            + (3.0 * w - 1.0) * (w - 1.0) * fp_tab[idx]
            + w * (3.0 * w - 2.0) * fp_tab[idx + 1]
        )
        val = np.where((s < s_lo) | (s > s_hi), slope, val)
        return val

    gamma1 = _u_speed2(t, y_star)
    gamma2 = _u_speed2(t, -y_star)
    delta = min(gamma1, 1.0 - gamma2)
    delta = min(delta, 0.499)

    # unique zero of f^t between the two turning points, f^t > 0 below it
    alpha = _u_speed2(t, _bisect(lambda eta: _f_speed2(t, eta), -y_star, y_star, 1e-12))

    scale = 0.5 * c
    nl = make_custom(
        f=lambda s: scale * f_core(s),
        f_prime=lambda s: scale * fp_core(s),
        delta=delta,
        beta=0.5,  # placeholder, replaced by the antiderivative root below
        alpha=alpha,
        label=f"explicit(t={t:g}, c={c:g})",
    )
    return replace(
        nl,
        beta=float(ignition_point(nl)),
        params={"kind": "explicit", "t": t, "c": c},
    )
