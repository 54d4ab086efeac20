"""Quantitative post-processing of fronts.

Covers the tail laws of the boundary trace (two-sided sandwich bounds with
model e^{-cy} y^{-3/2} on the invaded side and the power laws (-y)^{-3/2},
(-y)^{-1/2} on the invading side), alignment of monotone traces at their
1/2-level for uniqueness experiments, and speed-ordering runs for pointwise
comparable reaction laws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import TraceProfile, trace_crossing
from .nonlinearity import Nonlinearity, validate
from .solver import SolverOptions, choose_weight, solve_front

# the (side, quantity) pairs that have a tail law, in reporting order
TAIL_LAWS = (
    ("plus", "minus_u_y"),
    ("minus", "minus_u_y"),
    ("plus", "u"),
    ("minus", "one_minus_u"),
)


class FitWindowError(ValueError):
    """The trace admits no tail fit on a window: the window is empty or holds
    too few samples, or the fitted quantity is not positive on it."""


@dataclass(frozen=True)
class DecayReport:
    side: str
    quantity: str
    fitted_constant: float
    sandwich_b: float
    window: tuple[float, float]
    ratio_min: float  # extremes of q/model over the window, for sandwich_check
    ratio_max: float


def _model(side: str, quantity: str, c: float, y: np.ndarray) -> np.ndarray:
    if (side, quantity) not in TAIL_LAWS:
        raise ValueError(f"no tail law for side={side!r}, quantity={quantity!r}")
    if side == "plus":
        return np.exp(-c * y) * y ** (-1.5)
    if quantity == "minus_u_y":
        return (-y) ** (-1.5)
    return (-y) ** (-0.5)


def standard_window(trace: TraceProfile, side: str, margin: float = 0.15) -> tuple[float, float]:
    """|y| > 1 and clear of the outer `margin` fraction of the trace domain."""
    y0, y1 = float(trace.y_nodes[0]), float(trace.y_nodes[-1])
    pad = margin * (y1 - y0)
    if side == "plus":
        lo, hi = 1.0, y1 - pad
    else:
        lo, hi = y0 + pad, -1.0
    if not lo < hi:
        raise FitWindowError(f"trace window too small for a {side}-side tail fit")
    return lo, hi


def fit_decay(
    trace: TraceProfile,
    trace_dy: TraceProfile | None,
    c: float,
    side: str,
    quantity: str,
    window: tuple[float, float] | None = None,
) -> DecayReport:
    """Fit the compensated tail q(y)/model(y) on a window.

    fitted_constant is the geometric mean of the compensated values (the
    minimax center on the log scale), sandwich_b the smallest b >= 1 with
    1/b <= q/model <= b on the window.  Windows reaching into |y| < 1 or
    the outer 15% of the trace domain are rejected as contaminated.  A
    window too short for a fit, or one where the quantity is not positive,
    raises FitWindowError.
    """
    if not (c > 0.0 and np.isfinite(c)):
        raise ValueError(f"c must be positive and finite, got {c}")
    lo_ok, hi_ok = standard_window(trace, side)
    if window is None:
        window = (lo_ok, hi_ok)
    lo, hi = window
    if lo < lo_ok - 1e-12 or hi > hi_ok + 1e-12 or not lo < hi:
        raise ValueError(
            f"window [{lo:g}, {hi:g}] touches the truncation margin "
            f"(allowed [{lo_ok:g}, {hi_ok:g}])"
        )
    if quantity == "minus_u_y":
        if trace_dy is None:
            raise ValueError("minus_u_y requires the derivative trace")
        y = trace_dy.y_nodes
        q = -trace_dy.values
    elif quantity == "u":
        y, q = trace.y_nodes, trace.values
    elif quantity == "one_minus_u":
        y, q = trace.y_nodes, 1.0 - trace.values
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    mask = (y >= lo) & (y <= hi)
    if int(mask.sum()) < 8:
        raise FitWindowError("window contains fewer than 8 samples")
    y = y[mask]
    q = q[mask]
    if np.any(q <= 0.0):
        raise FitWindowError(f"{quantity} is not strictly positive on the window")
    ratio = q / _model(side, quantity, c, y)
    fitted = float(np.exp(np.mean(np.log(ratio))))
    rmin, rmax = float(ratio.min()), float(ratio.max())
    b = max(rmax, 1.0 / rmin, 1.0)
    return DecayReport(
        side=side,
        quantity=quantity,
        fitted_constant=fitted,
        sandwich_b=float(b),
        window=(float(lo), float(hi)),
        ratio_min=rmin,
        ratio_max=rmax,
    )


_ULP_GUARD = 1.0 - 4e-16  # reciprocal rounding must not fail the self-check


def sandwich_check(report: DecayReport, b: float) -> bool:
    """Does (1/b) model <= q <= b model hold at every window sample?"""
    if b < 1.0:
        raise ValueError("b must be at least 1")
    return report.ratio_max <= b / _ULP_GUARD and report.ratio_min >= _ULP_GUARD / b


def lower_bound_check(report: DecayReport, b: float) -> bool:
    """One-sided version: q >= (1/b) model at every window sample."""
    if b < 1.0:
        raise ValueError("b must be at least 1")
    return report.ratio_min >= _ULP_GUARD / b


def align_and_compare(trace1: TraceProfile, trace2: TraceProfile) -> tuple[float, float]:
    """Shift trace2 so both cross 1/2 at the same y; return (shift, sup distance).

    Both traces must be monotone nonincreasing and cross 1/2 inside their
    windows.  The distance is the sup over the overlap of the shifted
    domains, with linear interpolation between nodes.
    """
    for tr in (trace1, trace2):
        if np.any(np.diff(tr.values) > 1e-10):
            raise ValueError("traces must be monotone nonincreasing")
    y1 = trace_crossing(trace1)
    y2 = trace_crossing(trace2)
    shift = y1 - y2
    lo = max(trace1.y_nodes[0], trace2.y_nodes[0] + shift)
    hi = min(trace1.y_nodes[-1], trace2.y_nodes[-1] + shift)
    if not lo < hi:
        raise ValueError("shifted traces do not overlap")
    ys = np.linspace(lo, hi, 4 * max(len(trace1.y_nodes), len(trace2.y_nodes)))
    v1 = np.interp(ys, trace1.y_nodes, trace1.values)
    v2 = np.interp(ys - shift, trace2.y_nodes, trace2.values)
    return float(shift), float(np.max(np.abs(v1 - v2)))


@dataclass(frozen=True)
class SpeedOrderingResult:
    c1: float
    c2: float
    ordered: bool  # c1 > c2
    infimum1: float
    infimum2: float
    variational_ordered: bool  # I_{1,a} < I_{2,a}
    a: float


def speed_ordering(
    nl1: Nonlinearity,
    nl2: Nonlinearity,
    opts: SolverOptions | None = None,
) -> SpeedOrderingResult:
    """Solve both laws at the same weight and grid; check c1 > c2.

    Requires f1 >= f2 pointwise on [0,1] with strict inequality somewhere
    (verified by sampling), both laws structurally valid.  Also reports the
    variational route: G1 <= G2 forces I_{1,a} < I_{2,a}, which gives the
    ordering through c = a(1 - 2 I_a).
    """
    s = np.linspace(0.0, 1.0, 4001)
    diff = np.asarray(nl1.f(s)) - np.asarray(nl2.f(s))
    if diff.min() < -1e-10:
        raise ValueError(
            f"f1 >= f2 fails at s = {s[int(np.argmin(diff))]:.4f} ({diff.min():.3e})"
        )
    if diff.max() <= 1e-10:
        raise ValueError("f1 and f2 coincide on [0,1]; ordering needs f1 != f2")
    for k, nl in (("f1", nl1), ("f2", nl2)):
        rep = validate(nl)
        if not rep.passed:
            raise ValueError(f"{k} fails validation: {rep.violated_conditions[:3]}")
    base = opts or SolverOptions()
    a = base.a if base.a is not None else min(choose_weight(nl1), choose_weight(nl2))
    shared = replace(base, a=a)
    sol1 = solve_front(nl1, shared)
    sol2 = solve_front(nl2, shared)
    return SpeedOrderingResult(
        c1=sol1.speed,
        c2=sol2.speed,
        ordered=sol1.speed > sol2.speed,
        infimum1=sol1.infimum,
        infimum2=sol2.infimum,
        variational_ordered=sol1.infimum < sol2.infimum,
        a=a,
    )
