"""Truncated half-plane grids with the exponential weight e^{ay}.

Fields live on uniform (nx+1) x (ny+1) node grids over [0, x_max] x
[y_min, y_max].  The weighted Dirichlet form Gamma_a, behind both the energy
and the constraint, is an edge-based quadratic form (trapezoid weights at
nodes, arithmetic-mean weight on vertical edges), which keeps it
O(h^2)-consistent.  This module holds its only definition: the x-edge and
y-edge parts `_x_part`, `_y_part` of the bilinear form on products of the
differences from `_diff`, and its matrix-free apply `apply_stiffness`, the
exact linear operator of the solver's gradient.

`project_constraint` takes the field's differences once and reduces them
over x to four per-column sums (`_column_sums`): Gamma_a of the field and
the cell quadratic of every shift its walk tries (`_cell_forms`) are then
O(ny) dot products of those sums with the weights of `_x_part` and
`_y_part`, and only the final `translate` builds a field.  The walk itself
(`_unit_shift`) is shared with the solver's trace trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import rearrange_columns
from .nonlinearity import Nonlinearity


class NumericalError(ValueError):
    """A numerical failure deep in a run, as opposed to invalid input: a
    trace that does not cross its level, or a field that cannot be brought
    onto Gamma_a = 1 inside the window.  The CLI maps it to exit code 1;
    callers that treat any ValueError as a rejected trial still catch it."""


@dataclass(eq=False)
class GridSpec:
    """Grid geometry plus the weight exponent a.  Treat as immutable."""

    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int
    a: float

    def __post_init__(self):
        if not (self.x_max > 0.0 and self.y_min < 0.0 < self.y_max):
            raise ValueError("require x_max > 0 and y_min < 0 < y_max")
        if self.nx < 16 or self.ny < 64:
            raise ValueError("require nx >= 16 and ny >= 64")
        if self.a <= 0.0:
            raise ValueError("weight exponent a must be positive")
        if self.a * self.y_max > 50.0:
            raise ValueError("a*y_max > 50 would overflow the weight")
        self.hx = self.x_max / self.nx
        self.hy = (self.y_max - self.y_min) / self.ny
        self.xs = np.linspace(0.0, self.x_max, self.nx + 1)
        self.ys = np.linspace(self.y_min, self.y_max, self.ny + 1)
        self.wy = np.exp(self.a * self.ys)
        self.tau = np.ones(self.ny + 1)
        self.tau[0] = self.tau[-1] = 0.5
        self.sigma = np.ones(self.nx + 1)
        self.sigma[0] = self.sigma[-1] = 0.5
        # arithmetic-mean weight on vertical (y-direction) edges
        self.wy_edge = 0.5 * (self.wy[:-1] + self.wy[1:])
        # cell measures of e^{ay} dy along a column (trapezoid split)
        self.ymeasure = self.tau * self.wy * self.hy

    def __repr__(self):
        return (
            f"GridSpec(x_max={self.x_max:g}, y=[{self.y_min:g},{self.y_max:g}], "
            f"nx={self.nx}, ny={self.ny}, a={self.a:g})"
        )


@dataclass(eq=False)
class Field:
    """Nodal values on a grid; values[i, j] sits at (xs[i], ys[j])."""

    values: np.ndarray
    spec: GridSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.spec.nx + 1, self.spec.ny + 1)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    def copy(self) -> "Field":
        return Field(self.values.copy(), self.spec)


@dataclass(frozen=True)
class TraceProfile:
    """Boundary restriction x = 0: values over strictly increasing y nodes."""

    y_nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y_nodes, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if y.shape != v.shape or y.ndim != 1:
            raise ValueError("y_nodes and values must be 1-D of equal length")
        if np.any(np.diff(y) <= 0.0):
            raise ValueError("y_nodes must be strictly increasing")
        object.__setattr__(self, "y_nodes", y)
        object.__setattr__(self, "values", v)


# -- quadratic forms ----------------------------------------------------------


def _diff(v: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Differences of nodal values along `axis` (0: x, 1: y), divided by h."""
    d = np.diff(v, axis=axis)
    d /= h
    return d


def _x_part(spec: GridSpec, p: np.ndarray) -> float:
    """x-edge part of Gamma_a's bilinear form, from the product p = ux*vx of
    two x differences."""
    return float(np.sum(p @ (spec.tau * spec.wy)) * spec.hx * spec.hy)


def _y_part(spec: GridSpec, p: np.ndarray) -> float:
    """y-edge part of Gamma_a's bilinear form, from the product p = uy*vy of
    two y differences; p is weighted in place."""
    p *= spec.wy_edge
    return float(np.sum(spec.sigma @ p) * spec.hx * spec.hy)


def apply_stiffness(spec: GridSpec, v: np.ndarray) -> np.ndarray:
    """S v, where Gamma_a(v) = v . S v: the adjoint of `_diff` applied to
    the differences weighted as in `_x_part` and `_y_part`, each edge's flux
    scattered back onto its two end nodes.  Each direction's fluxes are
    weighted in place and scattered before the other direction's are built."""
    out = np.zeros(v.shape)
    fx = _diff(v, 0, spec.hx)
    fx *= spec.tau * spec.wy
    fx *= spec.hy
    out[:-1, :] -= fx
    out[1:, :] += fx
    del fx
    fy = _diff(v, 1, spec.hy)
    fy *= spec.wy_edge
    fy *= spec.sigma[:, None]
    fy *= spec.hx
    out[:, :-1] -= fy
    out[:, 1:] += fy
    return out


def dirichlet(w: Field) -> float:
    """Weighted Dirichlet integral int e^{ay} |grad w|^2 dx dy.

    Each direction's differences are squared in place and reduced before the
    other direction's are built.
    """
    g = w.spec
    dx = _diff(w.values, 0, g.hx)
    kx = _x_part(g, np.multiply(dx, dx, out=dx))
    del dx
    dy = _diff(w.values, 1, g.hy)
    return kx + _y_part(g, np.multiply(dy, dy, out=dy))


def boundary_integral(w: Field, fun) -> float:
    """int e^{ay} fun(w(0, y)) dy along the reactive boundary."""
    g = w.spec
    return float(np.sum(g.ymeasure * np.asarray(fun(w.values[0, :]))))


def weighted_mass(w: Field) -> float:
    """int e^{ay} w^2 dx dy (trapezoid with nodal weights)."""
    g = w.spec
    v2 = w.values * w.values
    return float((g.sigma @ v2 @ (g.tau * g.wy)) * g.hx * g.hy)


def boundary_mass(w: Field) -> float:
    """int e^{ay} w(0,y)^2 dy."""
    return boundary_integral(w, lambda s: s * s)


def energy(w: Field, nl: Nonlinearity) -> float:
    """E_a(w) = (1/2) int e^{ay}|grad w|^2 + int e^{ay} G(w(0,y)) dy."""
    return 0.5 * dirichlet(w) + boundary_integral(w, nl.G)


# -- field constructors -------------------------------------------------------


def seed_function(spec: GridSpec, d: float | None = None, m: float = 8.0) -> Field:
    """Negative-energy seed e^{-dx} h(y), h = 1 for y <= 0, e^{-a m y} above.

    Defaults follow the weight-selection policy d = a/2, m = 8.
    """
    a = spec.a
    if d is None:
        d = 0.5 * a
    if d <= 0.0 or m < 1.0:
        raise ValueError("require d > 0 and m >= 1")
    h = np.where(spec.ys > 0.0, np.exp(-a * m * np.maximum(spec.ys, 0.0)), 1.0)
    vals = np.exp(-d * spec.xs)[:, None] * h[None, :]
    return Field(vals, spec)


def trace(w: Field) -> TraceProfile:
    return TraceProfile(w.spec.ys.copy(), w.values[0, :].copy())


def trace_crossing(profile: TraceProfile, level: float = 0.5) -> float:
    """The y where a nonincreasing trace crosses `level`, by linear interpolation."""
    v = profile.values
    y = profile.y_nodes
    below = v <= level
    if not below.any() or below[0]:
        raise NumericalError(f"trace does not cross level {level:g} inside the window")
    k = int(np.argmax(below))
    v0, v1 = v[k - 1], v[k]
    if v1 == v0:
        return float(y[k])
    return float(y[k - 1] + (level - v0) * (y[k] - y[k - 1]) / (v1 - v0))


# -- structural operations ----------------------------------------------------


def translate(w: Field, t: float) -> Field:
    """w^t(x, y) = w(x, y + t), linear interpolation on the shifted grid.

    Vacated rows are filled by constant extension of the facing boundary
    row (the 1-state at y_min, the 0-state at y_max for monotone fronts).
    Shifts beyond a quarter of the window would eat into the truncation
    margins and are rejected.
    """
    g = w.spec
    if abs(t) > 0.25 * (g.y_max - g.y_min):
        raise ValueError(f"shift {t:g} exceeds a quarter of the y-window")
    if t == 0.0:
        return w.copy()
    shift = t / g.hy
    j = np.arange(g.ny + 1, dtype=float) + shift
    j0 = np.clip(np.floor(j).astype(int), 0, g.ny)
    j1 = np.clip(j0 + 1, 0, g.ny)
    frac = np.clip(j - j0, 0.0, 1.0)
    frac = np.where(j < 0.0, 0.0, np.where(j > g.ny, 0.0, frac))
    j0 = np.where(j < 0.0, 0, j0)
    vals = w.values[:, j0]
    vals *= 1.0 - frac
    upper = w.values[:, j1]
    upper *= frac
    vals += upper
    return Field(vals, g)


def _column_sums(spec: GridSpec, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gamma_a's differences of `v`, reduced over x to four per-column sums.

    With ux, uy the x and y differences: x2[j] = sum_i ux[i,j]^2 and
    xx[j] = sum_i ux[i,j] ux[i,j+1] over the columns, y2[j] = sum_i sigma_i
    uy[i,j]^2 and yy[j] = sum_i sigma_i uy[i,j] uy[i,j+1] over the y-edges.
    xx, y2 and yy are padded with zeros to ny + 1 entries, so that a clipped
    column index never leaves them.  `_cell_forms`, Gamma_a itself among
    them (k = 0), are dot products of these with the weights of `_x_part`
    and `_y_part`.
    """
    ny = spec.ny
    ux = _diff(v, 0, spec.hx)
    x2 = np.einsum("ij,ij->j", ux, ux)
    xx = np.zeros(ny + 1)
    xx[:-1] = np.einsum("ij,ij->j", ux[:, :-1], ux[:, 1:])
    del ux
    uy = _diff(v, 1, spec.hy)
    y2 = np.zeros(ny + 1)
    y2[:-1] = spec.sigma @ (uy * uy)
    yy = np.zeros(ny + 1)
    yy[:-2] = spec.sigma @ (uy[:, :-1] * uy[:, 1:])
    return x2, xx, y2, yy


def _cell_forms(spec: GridSpec, sums: tuple[np.ndarray, ...], k: int) -> tuple[float, float, float]:
    """(Q(A,A), Q(A,B), Q(B,B)) for A, B = the field of `sums` translated by
    k*hy and (k+1)*hy.

    Integer translates are column gathers with constant extension: A and B
    are the windows [:-1] and [1:] of the extended field whose column j is
    column c_j = clip(j + k, 0, ny).  Where c_{j+1} = c_j + 1 the extended
    field's edge j is the field's own, with the field's sums; where the
    column repeats at a clipped end, the x cross sum is the column's square
    sum and the y-difference is zero.  For theta in [0, 1],
    translate(w, (k+theta)*hy) = (1-theta) A + theta B, so Gamma there is
    (1-theta)^2 Q(A,A) + 2 theta (1-theta) Q(A,B) + theta^2 Q(B,B).
    """
    x2, xx, y2, yy = sums
    cols = np.clip(np.arange(spec.ny + 2) + k, 0, spec.ny)
    step = np.diff(cols) == 1
    c = cols[:-1]
    ey2 = y2[c] * step  # y square sums of the extended field's edges
    xw, yw = spec.tau * spec.wy, spec.wy_edge
    p = xw @ x2[c] + yw @ ey2[:-1]
    q = xw @ np.where(step, xx[c], x2[c]) + yw @ (yy[c[:-1]] * (step[:-1] & step[1:]))
    r = xw @ x2[cols[1:]] + yw @ ey2[1:]
    h2 = spec.hx * spec.hy
    return float(p) * h2, float(q) * h2, float(r) * h2


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


def project_constraint(w: Field, tol: float = 1e-8) -> Field:
    """Translate in y so that the constraint Gamma_a = 1 holds.

    A field already within `tol` of the constraint is returned as a copy.
    Otherwise Gamma of the translate is an exact quadratic in the shift on
    each grid cell (`_cell_forms`), and `_unit_shift` finds the shift, so
    the result meets the constraint to round-off.
    """
    out, _ = _project(w, tol)
    return out.copy() if out is w else out


def _project(w: Field, tol: float) -> tuple[Field, float]:
    """`project_constraint` without the copy: (the projected field, its
    Gamma_a), from one `_column_sums` of the field; Gamma_a is the field's
    own within `tol`, else the cell quadratic at the root."""
    g = w.spec
    sums = _column_sums(g, w.values)
    gamma = _cell_forms(g, sums, 0)[0]
    if abs(gamma - 1.0) <= tol:
        return w, gamma
    k, theta, gamma = _unit_shift(g, gamma, lambda k: _cell_forms(g, sums, k))
    return translate(w, (k + theta) * g.hy), gamma


def _unit_shift(spec: GridSpec, gamma: float, forms) -> tuple[int, float, float]:
    """(k, theta, Gamma) of the y-shift t = (k + theta) hy that brings
    Gamma, now `gamma`, to 1, where forms(k) is the cell quadratic
    (Q(A,A), Q(A,B), Q(B,B)) of the translates A, B by k hy and (k+1) hy.

    Starting from the cell of the continuum shift log(Gamma)/a, the walk
    moves one cell at a time to the cell whose ends bracket Gamma = 1 and
    solves the quadratic there (`_unit_root`).  Zero or non-finite Gamma, or
    a shift beyond a quarter of the y-window (the limit of `translate`),
    raises NumericalError.
    """
    if not math.isfinite(gamma):
        raise NumericalError(f"cannot project a field with Dirichlet energy {gamma}")
    if gamma <= 0.0:
        raise NumericalError("cannot project a field with zero Dirichlet energy")
    limit = 0.25 * (spec.y_max - spec.y_min)
    reach = limit / spec.hy
    k = math.floor(math.log(gamma) / (spec.a * spec.hy))
    while -reach - 1.0 <= k <= reach:
        p, q, r = forms(k)
        if (p - 1.0) * (r - 1.0) <= 0.0:
            theta = _unit_root(p, q, r)
            if abs((k + theta) * spec.hy) > limit:
                break
            return k, theta, (1.0 - theta) ** 2 * p + 2.0 * theta * (1.0 - theta) * q + theta**2 * r
        # Gamma falls with the shift; the cell ends are shared, so the walk
        # never turns back
        k += 1 if r > 1.0 else -1
    raise NumericalError("constraint projection needs a shift beyond a quarter of the y-window")


def rearrange_monotone(w: Field) -> Field:
    """Monotone-in-y decreasing rearrangement of w clamped to [0,1].

    Works per column in the variable z = e^{ay}/a: values are redistributed
    against the cell measures e^{ay_j} hy (weighted counting sort), which
    preserves the weighted distribution up to one-cell resampling and fixes
    every already-monotone column exactly; such columns are copied, not
    sorted.  The clamped copy, C-ordered for the kernel's row access, is
    rearranged in place.
    """
    g = w.spec
    vals = np.clip(w.values, 0.0, 1.0, order="C")
    return Field(rearrange_columns(vals, g.ymeasure, out=vals), g)
