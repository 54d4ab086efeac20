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

Every front value goes through one checked quadrature, `_cells`, in three
tiers:

- shared panels: a run of two or more cells narrower than _SHARED_WIDTH (the
  cells of a sampled grid) is cut into panels at most that wide.  The kernel
  is evaluated once per panel at _SHARED_POINTS Chebyshev-Lobatto points,
  each cell takes the exact integral of the panel's interpolant over it, and
  the interpolant through every other point is the check; both come from
  one small matrix product per column and panel, the node values times the
  panel's packed weights;
- Gauss sub-panels, with nested 6/12-point rules, for every other cell.
  They are graded to the kernel's decay (`_subpanels`): a quarter of the
  distance from 0 below _Z_GEO, where it decays like a power; at most
  _PANEL wide up to _Z_EXP; above _Z_EXP, where it decays like e^{-2z},
  doubling in width from the cell's own lower edge;
- the fallback: a row whose shared panels fail their check takes the Gauss
  sub-panels on every cell, halved to 12/24 points where 6/12 fails.

An `_edges` table has no run of narrow cells unless it ends just above
_Z_EXP, so `_integral_p` (with it `kernel_mass`, point values, the column
tops of a sampled field, and `invert_trace`'s whole-line pass and the
bisection inside one of its cells) takes the Gauss tier alone; all of its
part above _Z_EXP is one graded cell.  Below _Y_COMPLEMENT a value is 1
minus the mass below, from `kernel_mass`'s limit `_far`.

A sampled field is one batched quadrature pass over all its columns: one
panel table, one kernel evaluation per block of columns and one cumulative
sum per column.  A block holds as many columns as fit in _BLOCK_POINTS kernel
points of the tier (and, for shared panels, entries of the panel products),
so the temporaries stay the same size whatever the number of columns.  Each
column's shared panels are products of their own, of one shape, so a
column's values do not depend on the block it falls in or on the columns
sampled with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import k01_scaled, k1_scaled
from .nonlinearity import Nonlinearity, _bisect, _hermite_table, _law
from .specfun import k_ratio

#: uniform quadrature panels this wide resolve the kernel to machine precision
_PANEL = 0.4
#: runs of cells narrower than this share Chebyshev panels at most this wide
_SHARED_WIDTH = 0.5 * _PANEL
#: Chebyshev-Lobatto points of a shared panel; every other one is its check rule
_SHARED_POINTS = 25
#: switch to geometric panels below this z (power-law regime)
_Z_GEO = -32.0
#: above this z a cell's sub-panels double in width from its lower edge
#: (exponential regime)
_Z_EXP = 2.0
#: offsets of the graded sub-panel edges from their cell's lower edge: 0 and
#: _PANEL * 2^k, exact multiples of _PANEL, so each graded sub-panel is a run
#: of whole uniform panels from that edge
_GRADED = np.concatenate([[0.0], _PANEL * 2.0 ** np.arange(63)])
#: beyond this z the integrand underflows to exact 0
_Z_DEAD = 400.0
#: use the complement integral for trace values this far down
_Y_COMPLEMENT = -34.0
#: kernel points (or shared-panel product entries) in one block of columns of
#: `_cells`
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
    region below _Z_GEO, uniform up to _Z_EXP, one cell from max(a, _Z_EXP)
    on (which `_subpanels` grades), truncated where the integrand underflows."""
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
        elif z < _Z_EXP:
            z = min(z + _PANEL, _Z_EXP)
        else:
            z = b_eff
        z = min(z, b_eff)
        out.append(z)
    if b > b_eff:
        out.append(b)
    return np.asarray(out)


def _subpanels(edges: np.ndarray):
    """The sub-panel table of `edges`: (starts, stops, owner cell), all cells
    at once.

    A cell with its lower edge lo in [_Z_EXP, _Z_DEAD) is graded from lo:
    sub-panel j starts at lo + _GRADED[j] (widths _PANEL, _PANEL, 2 _PANEL,
    4 _PANEL, ...), and the first edge at or past the cell's top is replaced
    by hi.  Grading from each cell's own edge keeps the rule's relative
    accuracy the same however deep the cell lies, where the check's absolute
    floor cannot see an error.  Any other cell wider than its panel width is
    split into equal sub-panels with the arithmetic of np.linspace
    (lo + j*step, last edge exactly hi).
    """
    lo = edges[:-1]
    hi = edges[1:]
    width = hi - lo
    center = 0.5 * (lo + hi)
    wmax = np.where(center >= _Z_GEO, _PANEL, 0.25 * np.abs(center))
    nsub = np.minimum(np.maximum(1, np.ceil(width / wmax).astype(int)), 10000)
    graded = (lo >= _Z_EXP) & (lo < _Z_DEAD)
    nsub = np.where(graded, np.minimum(np.searchsorted(_GRADED, width), len(_GRADED) - 1), nsub)
    nsub = np.where(lo >= _Z_DEAD, 1, nsub)  # integrand underflowed to 0 there
    owner = np.repeat(np.arange(len(lo)), nsub)
    last = np.cumsum(nsub) - 1  # index of each cell's final sub-panel
    j = np.arange(len(owner)) - (last - nsub + 1)[owner]
    step = (width / nsub)[owner]
    start_off = j * step
    stop_off = (j + 1) * step
    g = graded[owner]
    start_off[g] = _GRADED[j[g]]
    stop_off[g] = _GRADED[j[g] + 1]
    starts = start_off + lo[owner]
    stops = stop_off + lo[owner]
    stops[last] = hi
    return starts, stops, owner


def _rule(x_offs: np.ndarray, mid: np.ndarray, hw: np.ndarray, n: int) -> np.ndarray:
    """n-point Gauss sums of the kernel on each sub-panel (centers `mid`,
    half-widths `hw`), one row per offset in `x_offs`."""
    xi, wi = _gl(n)
    zz = mid[:, None] + hw[:, None] * xi[None, :]
    vals = _p_kernel(x_offs[:, None], zz.ravel()).reshape(-1, n)
    return (vals * wi[None, :]).sum(axis=1).reshape(len(x_offs), -1) * hw


@lru_cache(maxsize=2)
def _lobatto(n: int):
    """The n Chebyshev-Lobatto points cos(pi k/(n-1)) and the matrix that maps
    values there to the antiderivative of their interpolant, written in
    T_0 .. T_n (up to a constant, which cancels in differences)."""
    m = n - 1
    x = np.cos(np.pi * np.arange(n) / m)
    to_coef = 2.0 / m * np.cos(np.pi * np.outer(np.arange(n), np.arange(n)) / m)
    to_coef[:, [0, m]] *= 0.5
    to_coef[[0, m], :] *= 0.5
    # int T_0 = T_1, int T_1 = T_2/4, int T_j = T_{j+1}/(2(j+1)) - T_{j-1}/(2(j-1))
    anti = np.zeros((n + 1, n))
    anti[1, 0] = 1.0
    anti[2, 1] = 0.25
    j = np.arange(2, n)
    anti[j + 1, j] = 1.0 / (2.0 * (j + 1))
    anti[j - 1, j] = -1.0 / (2.0 * (j - 1))
    return x, anti @ to_coef


def _chebyshev(xi: np.ndarray, n: int) -> np.ndarray:
    """T_0 .. T_n at the points xi of [-1, 1] by their recurrence, one row per
    point."""
    cheb = np.empty((len(xi), n + 1))
    cheb[:, 0] = 1.0
    cheb[:, 1] = xi
    for k in range(2, n + 1):
        cheb[:, k] = 2.0 * xi * cheb[:, k - 1] - cheb[:, k - 2]
    return cheb


@dataclass(frozen=True)
class _SharedPanels:
    """The shared-panel tier of an edge table: the grouped cells, the panel
    each belongs to, the kernel nodes of every panel and the weights that give
    each cell the integral of its panel's interpolant through all nodes
    (`fine`) or through every other node (`coarse`).

    `packed` holds them per panel for one product: packed[p, k, m] is the fine
    weight of panel p's m-th cell on node k, and packed[p, k, M + m] its
    coarse weight (zero on odd k), with M the most cells any panel holds and
    zeros past a panel's own cells.  Cell i's fine integral is entry
    `slot[i]` of the flattened (panel, 2M) product, its coarse one entry
    slot[i] + M."""

    cells: np.ndarray
    panel: np.ndarray
    nodes: np.ndarray
    fine: np.ndarray
    coarse: np.ndarray
    packed: np.ndarray
    slot: np.ndarray


def _shared_panels(edges: np.ndarray) -> _SharedPanels | None:
    """The shared-panel tier of `edges`, or None when it groups no cell.

    Each run of two or more consecutive cells narrower than _SHARED_WIDTH
    between _Z_GEO and _Z_DEAD is cut greedily into panels at most
    _SHARED_WIDTH wide.  An `_edges` table has two narrow cells side by side
    only when it ends less than _SHARED_WIDTH above _Z_EXP, so it rarely
    groups a cell.
    """
    lo, hi = edges[:-1], edges[1:]
    narrow = (hi - lo < _SHARED_WIDTH) & (lo >= _Z_GEO) & (hi <= _Z_DEAD)
    if np.count_nonzero(narrow) < 2:
        return None
    change = np.flatnonzero(np.diff(narrow, prepend=False, append=False)).tolist()
    reach = (np.searchsorted(edges, edges + _SHARED_WIDTH, side="right") - 1).tolist()
    bounds = []  # (first edge, last edge) of each panel
    for first, stop in zip(change[0::2], change[1::2]):
        if stop - first < 2:
            continue
        k = first
        while k < stop:
            j = min(max(reach[k], k + 1), stop)
            bounds.append((k, j))
            k = j
    if not bounds:
        return None
    first, last = np.array(bounds).T
    panel = np.repeat(np.arange(len(first)), last - first)
    cells = np.concatenate([np.arange(k, j) for k, j in bounds])
    mid = 0.5 * (edges[first] + edges[last])
    hw = 0.5 * (edges[last] - edges[first])
    # panel-local cell edges; a panel's own ends are -1 and 1 exactly
    a = np.where(cells == first[panel], -1.0, (edges[cells] - mid[panel]) / hw[panel])
    b = np.where(cells + 1 == last[panel], 1.0, (edges[cells + 1] - mid[panel]) / hw[panel])

    def weights(n):
        # each cell's integral of the interpolant through n Lobatto points
        return hw[panel, None] * ((_chebyshev(b, n) - _chebyshev(a, n)) @ _lobatto(n)[1])

    fine, coarse = weights(_SHARED_POINTS), weights(_SHARED_POINTS // 2 + 1)
    m = int((last - first).max())
    local = cells - first[panel]  # each cell's place in its panel
    packed = np.zeros((len(first), _SHARED_POINTS, 2 * m))
    packed[panel, :, local] = fine
    packed[panel, 0::2, m + local] = coarse
    return _SharedPanels(
        cells=cells,
        panel=panel,
        nodes=mid[:, None] + hw[:, None] * _lobatto(_SHARED_POINTS)[0][None, :],
        fine=fine,
        coarse=coarse,
        packed=packed,
        slot=panel * 2 * m + local,
    )


def _shared_cells(out: np.ndarray, x_offs: np.ndarray, shared: _SharedPanels, tol: float) -> np.ndarray:
    """Write into `out` the grouped cells of every row that passes its check,
    and return the mask of those rows.

    The kernel is evaluated once per panel node.  Each row's node values on
    each panel make one (1 x 25)(25 x 2M) product with the panel's `packed`
    weights, which gives every cell of the panel its integral and its check
    sum over every other node at once; the check compares the two under the
    6/12 rule's per-row test.  Every row and panel is its own product of the
    same shape, so a row's bits do not depend on the block it falls in.
    """
    nodes = shared.nodes.ravel()
    panels, n, width = shared.packed.shape
    ok = np.zeros(len(x_offs), dtype=bool)
    block = max(1, _BLOCK_POINTS // max(len(nodes), panels * width))
    for first in range(0, len(x_offs), block):
        rows = np.arange(first, min(first + block, len(x_offs)))
        vals = _p_kernel(x_offs[rows, None], nodes).reshape(len(rows), panels, 1, n)
        sums = np.matmul(vals, shared.packed).reshape(len(rows), -1)
        fine = sums[:, shared.slot]
        err = np.abs(fine - sums[:, shared.slot + width // 2]).sum(axis=1)
        good = err <= np.maximum(tol, 1e-13 * np.abs(fine).sum(axis=1))
        out[rows[good, None], shared.cells] = fine[good]
        ok[rows] = good
        del vals, sums, fine  # so the next block's kernel pass does not hold them
    return ok


def _gauss_cells(out, x_offs, rows, starts, stops, owner, tol):
    """Add into out[rows] the Gauss sums of the sub-panels (starts, stops),
    each onto its owner cell.  Every row is checked with nested 6/12-point
    rules; a row that fails is redone on halved sub-panels with 12/24 points,
    and disagreement beyond `tol` there raises.  Rows go in blocks of at most
    _BLOCK_POINTS kernel points of the 12-point rule (at least one row)."""
    if not len(starts):
        return
    mid = 0.5 * (starts + stops)
    hw = 0.5 * (stops - starts)
    halved = None
    block = max(1, _BLOCK_POINTS // (12 * len(mid)))
    for first in range(0, len(rows), block):
        part = rows[first : first + block]
        coarse = _rule(x_offs[part], mid, hw, 6)
        fine = _rule(x_offs[part], mid, hw, 12)
        err = np.abs(fine - coarse).sum(axis=1)
        bad = err > np.maximum(tol, 1e-13 * np.abs(fine).sum(axis=1))
        np.add.at(out, (part[~bad, None], owner), fine[~bad])
        if not bad.any():
            continue
        if halved is None:
            # halve every sub-panel; halves stay in order, next to their owner
            starts2 = np.column_stack([starts, mid]).ravel()
            stops2 = np.column_stack([mid, stops]).ravel()
            halved = 0.5 * (starts2 + stops2), 0.5 * (stops2 - starts2), np.repeat(owner, 2)
        mid2, hw2, owner2 = halved
        coarse = _rule(x_offs[part[bad]], mid2, hw2, 12)
        fine = _rule(x_offs[part[bad]], mid2, hw2, 24)
        err = np.abs(fine - coarse).sum(axis=1)
        worse = err > np.maximum(tol, 1e-12 * np.abs(fine).sum(axis=1))
        if worse.any():
            raise QuadratureError("kernel quadrature did not converge", float(err[worse][0]))
        np.add.at(out, (part[bad, None], owner2), fine)


def _cells(x_offs: np.ndarray, edges: np.ndarray, tol: float = 1e-11) -> np.ndarray:
    """Integrals of the kernel over each cell [edges[i], edges[i+1]], one row
    per offset in the 1-D array `x_offs`.

    Runs of narrow cells share Chebyshev panels (`_shared_panels`,
    `_shared_cells`).  The other cells, and every cell of a row whose shared
    panels fail their check, take the Gauss sub-panels of `_subpanels`
    (`_gauss_cells`), as every cell of a table without such runs does.
    """
    x_offs = np.asarray(x_offs, dtype=float)
    out = np.zeros((len(x_offs), len(edges) - 1))
    table = _subpanels(edges)
    rows = np.arange(len(x_offs))
    shared = _shared_panels(edges)
    if shared is not None:
        ok = _shared_cells(out, x_offs, shared, tol)
        wide = np.ones(len(edges) - 1, dtype=bool)
        wide[shared.cells] = False
        keep = wide[table[2]]
        _gauss_cells(out, x_offs, rows[ok], *(a[keep] for a in table), tol)
        rows = rows[~ok]
    _gauss_cells(out, x_offs, rows, *table, tol)
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
    x_off = _offsets(ExplicitFrontParams(t, 2.0), x)
    yarr = np.asarray(y, dtype=float)
    r = np.hypot(x_off, yarr)
    k0h, _ = k01_scaled(np.ravel(r))
    k0h = k0h.reshape(r.shape)
    out = k0h / (2.0 * math.pi) * np.exp(_expo_down(x_off, yarr, r))
    return float(out) if out.ndim == 0 else out


def poisson_kernel(t: float, x, y):
    """P^t(x,y) = -2 G^t_x; positive, unit mass in y for every x."""
    out = _p_kernel(_offsets(ExplicitFrontParams(t, 2.0), x), y)
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
    x_off = float(_offsets(params, x))
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


def _offsets(params: ExplicitFrontParams, xs) -> np.ndarray:
    """The speed-2 kernel offsets c x/2 + t of the columns xs, which must be
    finite and nonnegative; with c = 2 the offsets x + t of the kernels
    `green_g` and `poisson_kernel`, whose t obeys the same rule."""
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs) & (xs >= 0.0)):
        raise ValueError("x must be nonnegative")
    return 0.5 * params.c * xs + params.t


def front_profile(params: ExplicitFrontParams, x: float, ys: np.ndarray) -> np.ndarray:
    """u^{t,c}(x, ys) on an ascending grid via one cumulative kernel pass."""
    return _sweep(_offsets(params, [x]), 0.5 * params.c * _ascending(ys))[0]


def explicit_front_dy(params: ExplicitFrontParams, x: float, y):
    """d/dy of u^{t,c}: equals -(c/2) P^t(cx/2, cy/2) < 0."""
    x_off = _offsets(params, x)
    out = -0.5 * params.c * _p_kernel(x_off, 0.5 * params.c * np.asarray(y, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def sample_front(params: ExplicitFrontParams, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Field u^{t,c} on the tensor grid xs x ys, shape (len(xs), len(ys)),
    all columns in one batched kernel pass."""
    return _sweep(_offsets(params, xs), 0.5 * params.c * _ascending(ys))


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
    relative width 1e-13 in the speed-2 trace position eta.

    One cumulative pass over the cells of _edges(_far(t), _Z_DEAD) gives
    the kernel's mass beyond each edge on the side that resolves s: below
    for s > 1/2, matched against 1 - s (u rounds to s where 1 - u does not),
    above otherwise, matched against s.  The bisection runs inside the one
    cell whose end masses bracket the target, on the upper side in v = -eta
    so that the gap stays positive on the low side; each gap adds only the
    cells from the bracket's low end, which `_bisect` moves to every point
    with a positive gap, so the carried sum moves with it.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    t, upper = params.t, s <= 0.5
    edges = _edges(_far(t), _Z_DEAD)
    mass = _cells(np.array([t]), edges)[0]
    if upper:
        edges, mass = -edges[::-1], mass[::-1]
    target = s if upper else 1.0 - s
    beyond = np.concatenate([[0.0], np.cumsum(mass)])
    k = int(np.searchsorted(beyond, target, side="right")) - 1
    low, carried = float(edges[k]), float(beyond[k])

    def gap(v):
        nonlocal low, carried
        m = carried + (_integral_p(t, -v, -low) if upper else _integral_p(t, low, v))
        if target - m > 0.0:
            low, carried = v, m
        return target - m

    v = _bisect(gap, low, float(edges[k + 1]), 1e-13)
    return 2.0 * (-v if upper else v) / params.c


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


def _law_table(t: float):
    """The speed-2 law table (s, f^t, f^t') ascending in s on [0, 1]: the
    trace swept once over `_law_eta_grid(t)` between the exact end nodes
    (0, 0, -1/t) and (1, 0, -1/t), with non-monotone round-off ties dropped."""
    eta_grid = _law_eta_grid(t)
    u = _sweep(np.array([t]), eta_grid)[0]
    # ascending in s = reversed eta order
    s_tab = np.concatenate([[0.0], u[::-1], [1.0]])
    f_tab = np.concatenate([[0.0], _f_speed2(t, eta_grid)[::-1], [0.0]])
    fp_tab = np.concatenate([[-1.0 / t], _fprime_speed2(t, eta_grid)[::-1], [-1.0 / t]])
    keep = np.concatenate([[True], np.diff(s_tab) > 0.0])
    return s_tab[keep], f_tab[keep], fp_tab[keep]


def front_nonlinearity(params: ExplicitFrontParams) -> Nonlinearity:
    """The reaction law f^{t,c} packaged as a table-backed Nonlinearity.

    The trace is swept once (cumulative quadrature) on a grid combining a
    uniform core with geometric tails, giving the parametric table
    (s, f, f') with exact derivative data, which ends at the exact
    endpoint values (0, 0, -1/t) and (1, 0, -1/t).  On [0, 1] f is its cubic
    Hermite interpolant in s (`nonlinearity._hermite_table`), f' that
    cubic's derivative and G = -(c/2) A, A = int_0^s f^t the closed form
    integral of that same piecewise f, so G' = -f holds to round-off; beta
    is the zero of A.  Outside [0, 1] `_law` continues all three with the
    exact endpoint slope -c/(2t).  The structural constants
    delta and alpha are located from the closed forms.  Interpolation error
    is below ~1e-9, far inside what the variational solver resolves.
    """
    t, c = params.t, params.c
    if t < LAW_T_MIN:
        raise ValueError(f"the law table needs t >= {LAW_T_MIN:g}, got t = {t:g}")
    y_star = _hphase_root(t)
    s_tab, f_tab, fp_tab = _law_table(t)
    f_core, fp_core, a_core, zero = _hermite_table(s_tab, f_tab, fp_tab)

    gamma1 = _u_speed2(t, y_star)
    gamma2 = _u_speed2(t, -y_star)
    delta = min(gamma1, 1.0 - gamma2)
    delta = min(delta, 0.499)

    # unique zero of f^t between the two turning points, f^t > 0 below it
    alpha = _u_speed2(t, _bisect(lambda eta: _f_speed2(t, eta), -y_star, y_star, 1e-12))

    scale = 0.5 * c
    return _law(
        lambda s: scale * f_core(s),
        lambda s: scale * fp_core(s),
        lambda s: -scale * a_core(s),
        slopes=(scale * float(fp_tab[0]), scale * float(fp_tab[-1])),
        kind="custom",
        delta=delta,
        beta=zero(),
        alpha=alpha,
        label=f"explicit(t={t:g}, c={c:g})",
        params={"kind": "explicit", "t": t, "c": c},
    )

