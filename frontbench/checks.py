"""Correctness checks that every benchmark round applies to its outputs.

Each check returns None when the output passes and a one-line reason when it
does not.  The checks compare against closed forms of the front family or
against properties every valid result has; none compares against a recorded
number, so a change that moves a result within its tolerance still passes.
They need only numpy, so `selftest.py` can feed them wrong answers without
importing frontforge.
"""

from __future__ import annotations

import math

import numpy as np

#: multiplier speed a(1-2*lambda) against infimum speed a(1-2*I); they agree
#: at a minimiser, and differ by at most 0.4 % at the default grid
SPEED_PAIR_REL = 1e-2
#: |Gamma(front) - 1|: the solver accepts 10x its projection tolerance 1e-8,
#: and Gamma is invariant under the rescaling into the front
CONSTRAINT_TOL = 1e-7
#: oracle-law solve against the construction speed c; the package README
#: promises "~2 to a few 1e-3" at the default grid, so 1 % leaves margin
#: while still rejecting a 10 % error that the corpus tolerance would allow
ORACLE_SPEED_REL = 1e-2
#: measured invasion speed of the evolved closed-form front (corpus case
#: oracle-evolution-speed and acceptance criterion 10)
EVOLUTION_SPEED_REL = 0.05
#: observed interior-residual order of the sampled exact front between the
#: nested grids h = 1/32 and 1/64 (the front is O(h^2)-consistent)
RESIDUAL_ORDER_MIN = 1.8
#: f(s)/s deep in the tail against the endpoint slope -c/(2t) (corpus case
#: endpoint-slope-zero)
ENDPOINT_SLOPE_ABS = 0.01
#: kernel mass by direct quadrature against the unit-mass identity
KERNEL_MASS_ABS = 1e-6
#: rounding slack for range and monotonicity of computed fields
FIELD_SLACK = 1e-12


def speed_positive(c: float) -> str | None:
    if not (math.isfinite(c) and c > 0.0):
        return f"speed {c!r} is not finite and positive"
    return None


def speeds_agree(c: float, c_var: float) -> str | None:
    if not abs(c - c_var) <= SPEED_PAIR_REL * abs(c):
        return f"multiplier speed {c!r} and infimum speed {c_var!r} differ by more than {SPEED_PAIR_REL:g}"
    return None


def speed_near(measured: float, exact: float, rel: float) -> str | None:
    if not abs(measured - exact) <= rel * exact:
        return f"speed {measured!r} is not within {rel:g} of the exact speed {exact!r}"
    return None


def in_unit_interval(values: np.ndarray, open_ends: bool = False) -> str | None:
    lo, hi = float(np.min(values)), float(np.max(values))
    if open_ends:
        ok = 0.0 < lo and hi < 1.0
    else:
        ok = -FIELD_SLACK <= lo and hi <= 1.0 + FIELD_SLACK
    if not ok:
        bounds = "(0, 1)" if open_ends else "[0, 1]"
        return f"field takes values in [{lo!r}, {hi!r}], outside {bounds}"
    return None


def nonincreasing_in_y(values: np.ndarray) -> str | None:
    rise = float(np.max(np.diff(values, axis=1)))
    if rise > FIELD_SLACK:
        return f"field increases in y by {rise!r}"
    return None


def constraint_holds(gamma: float) -> str | None:
    if not abs(gamma - 1.0) <= CONSTRAINT_TOL:
        return f"Dirichlet integral {gamma!r} is not 1 within {CONSTRAINT_TOL:g}"
    return None


def level_inside(level: float, y_min: float, y_max: float) -> str | None:
    if not y_min < level < y_max:
        return f"1/2-level {level!r} left the window [{y_min!r}, {y_max!r}]"
    return None


def residual_order(coarse: float, fine: float) -> str | None:
    order = math.log2(coarse / fine) if coarse > 0.0 and fine > 0.0 else math.nan
    if not order >= RESIDUAL_ORDER_MIN:
        return f"interior-residual order {order!r} is below {RESIDUAL_ORDER_MIN:g}"
    return None


def endpoint_slope(ratio: float, t: float, c: float) -> str | None:
    exact = -c / (2.0 * t)
    if not abs(ratio - exact) <= ENDPOINT_SLOPE_ABS:
        return f"tail slope f(s)/s = {ratio!r} is not within {ENDPOINT_SLOPE_ABS:g} of -c/(2t) = {exact!r}"
    return None


def unit_mass(mass: float) -> str | None:
    if not abs(mass - 1.0) <= KERNEL_MASS_ABS:
        return f"kernel mass {mass!r} is not 1 within {KERNEL_MASS_ABS:g}"
    return None
