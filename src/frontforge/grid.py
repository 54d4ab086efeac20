"""Truncated half-plane grids with the exponential weight e^{ay}.

Fields live on uniform (nx+1) x (ny+1) node grids over [0, x_max] x
[y_min, y_max].  The weighted Dirichlet form Gamma_a, behind both the energy
and the constraint, is an edge-based quadratic form (trapezoid weights at
nodes, arithmetic-mean weight on vertical edges), which keeps it
O(h^2)-consistent.  This module holds its only definition: the x-edge and
y-edge parts `_x_part`, `_y_part` of the bilinear form on products of the
differences from `_diff`, and its matrix-free apply `apply_stiffness`, the
exact linear operator of the solver's gradient.

`shift_cells` translates nodal values in y by whole cells: the translates
the solver's trace trial walks over onto Gamma = 1 (`solver._Trace.walk`)
and the evolution's moving window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# the solver's trace trial looks the rearrangement up here, where the
# benchmark's tracer patches it
from ._kernels import rearrange_columns
from .nonlinearity import Nonlinearity

# Names of the retired two-dimensional projection, translate and
# rearrangement.  The benchmark's tracer still wraps them when it installs,
# so each resolves to `_retired`; this goes when the tracer drops the hooks
# (ROADMAP, the benchmark change).
_RETIRED = ("project_constraint", "translate", "rearrange_monotone")


def _retired(*args, **kwargs):
    raise NotImplementedError("retired: the solver rearranges and translates the boundary trace (solver._Trace)")


def __getattr__(name: str):
    if name in _RETIRED:
        return _retired
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NumericalError(ValueError):
    """A numerical failure deep in a run, as opposed to invalid input: a
    trace that does not cross its level, or one that cannot be brought onto
    Gamma_a = 1 inside the window.  The CLI maps it to exit code 1;
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
        for name in ("a", "x_max", "y_min", "y_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} must be finite")
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


#: the seed's steepness m in the weight-selection policy (its decay is `seed_decay`)
SEED_M = 8.0


def seed_decay(a: float) -> float:
    """The seed's decay d = a/2 in the weight-selection policy."""
    return 0.5 * a


def seed_function(spec: GridSpec, d: float | None = None, m: float = SEED_M) -> Field:
    """Negative-energy seed e^{-dx} h(y), h = 1 for y <= 0, e^{-a m y} above.

    Defaults follow the weight-selection policy: d = `seed_decay(a)`, m = SEED_M.
    """
    a = spec.a
    if d is None:
        d = seed_decay(a)
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


def shift_cells(spec: GridSpec, values: np.ndarray, k: int) -> np.ndarray:
    """`values` translated along their last (y) axis by k whole cells, k hy
    in y: node j takes node j + k, with constant extension past either end.
    The copy is C-ordered, as the evolution's sweeps expect a field to be."""
    return np.take(values, np.clip(np.arange(spec.ny + 1) + k, 0, spec.ny), axis=-1)
