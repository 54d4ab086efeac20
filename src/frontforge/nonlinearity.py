"""Reaction laws on the boundary: bistable and combustion families.

A reaction law f lives on [0,1] with f(0) = f(1) = 0.  The constructors
give its cores, on [0,1] or on a table's own range inside it, and one rule,
`_law`, continues them outside: f with its endpoint slopes (slope0*s below
the core, slope1*(s-1) above it), f' as those slopes and the potential
G = -int_0^s f as the matching quadratic.  The tabulated laws (`make_custom`
and `explicit_front.front_nonlinearity`) share one cubic Hermite table,
`_hermite_table`, whose exact integral is their G.  Valid laws satisfy five
structural conditions:

    1. f(0) = f(1) = 0,
    2. f' <= 0 on (0, delta) and (1-delta, 1) for some delta in (0, 1/2),
    3. int_0^1 f > 0,
    4. f > 0 on (beta, 1),
    5. int_0^s f <= 0 for s in (0, beta),

where beta is the ignition temperature (combustion) or the unique zero in
(alpha, 1) of the antiderivative (bistable).  The validator checks all of
these by sampling plus the linear-extension rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class NonlinearityError(ValueError):
    """Structurally inconsistent reaction law."""


@dataclass(frozen=True)
class Nonlinearity:
    kind: str  # "bistable" | "combustion" | "custom"
    f: Callable
    f_prime: Callable
    delta: float
    beta: float
    alpha: float | None
    extension_slopes: tuple[float, float]
    G: Callable  # potential, G(0) = 0 and G' = -f on the extended line
    label: str = ""
    params: dict = field(default_factory=dict)

    def __repr__(self) -> str:  # params carry the reproducible description
        return f"Nonlinearity({self.label or self.kind})"


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violated_conditions: list  # (condition id, sample point) pairs


# -- constructors -----------------------------------------------------------

#: cells of the Hermite table behind a custom law's potential
_TABLE_POINTS = 4096


def _law(f, f_prime, G, slopes, domain=(0.0, 1.0), **fields) -> Nonlinearity:
    """The law with cores f, f_prime, G on `domain` [d0, d1], which is
    [0, 1] but for a table's own range: f is slopes[0]*s below d0 and
    slopes[1]*(s-1) above d1, f' the slope there, and G the matching
    quadratic, -slopes[0]*s^2/2 below d0 (the core G meets it at d0) and
    continued from the core's G(d1) above d1, so G(0) = 0 and G' = -f.  The
    cores see s clipped to the domain as an array (a numpy scalar's ** is
    libm pow)."""
    lo, hi = slopes
    d0, d1 = domain
    # G(1) of the quadratic that continues G above d1
    g1 = float(G(np.asarray(d1))) + 0.5 * hi * (d1 - 1.0) ** 2

    def core(fun, s):
        return fun(np.asarray(np.clip(s, d0, d1)))

    def fx(s):
        s = np.asarray(s, dtype=float)
        return np.where(s < d0, lo * s, np.where(s > d1, hi * (s - 1.0), core(f, s)))

    def fpx(s):
        s = np.asarray(s, dtype=float)
        return np.where(s < d0, lo, np.where(s > d1, hi, core(f_prime, s)))

    def Gx(s):
        s = np.asarray(s, dtype=float)
        high = g1 - 0.5 * hi * (s - 1.0) ** 2
        return np.where(s < d0, -0.5 * lo * s * s, np.where(s > d1, high, core(G, s)))

    return Nonlinearity(f=fx, f_prime=fpx, G=Gx, extension_slopes=(lo, hi), **fields)


def _hermite_table(s_tab: np.ndarray, f_tab: np.ndarray, fp_tab: np.ndarray, a0: float):
    """(value, derivative, integral, zero) of the cubic Hermite interpolant
    of the table (s_tab, f_tab, fp_tab), ascending in s.

    The first three are functions of an array s in [s_tab[0], s_tab[-1]]
    (products, not **, so a 0-d s gives the array bits).  The integral is
    a0 at s_tab[0] plus the exact integral of the cubic: at the nodes the
    cumulative cell integrals h/2 (f_i + f_{i+1}) + h^2/12 (f'_i - f'_{i+1}),
    inside a cell the cubic's own antiderivative, a quartic in the cell
    coordinate w with no constant term, in Horner form.  zero() bisects,
    when called, in w for where the integral turns positive inside the cell
    of the first positive node (nan if no node is positive).
    """
    h = np.diff(s_tab)
    # h f and h^2 f' at each cell's lower and upper node
    f0, f1 = h * f_tab[:-1], h * f_tab[1:]
    d0, d1 = h * h * fp_tab[:-1], h * h * fp_tab[1:]
    cell = 0.5 * (f0 + f1) + (d0 - d1) / 12.0
    at_nodes = a0 + np.concatenate([[0.0], np.cumsum(cell)])
    # the quartic's coefficients of w^2, w^3, w^4 (that of w is f0)
    c2 = 0.5 * d0
    c3 = f1 - f0 - (2.0 * d0 + d1) / 3.0
    c4 = 0.5 * (f0 - f1) + 0.25 * (d0 + d1)

    def locate(s):
        idx = np.clip(np.searchsorted(s_tab, s) - 1, 0, len(h) - 1)
        return idx, h[idx], (s - s_tab[idx]) / h[idx]

    def value(s):
        i, hloc, w = locate(s)
        h00 = (1.0 + 2.0 * w) * ((1.0 - w) * (1.0 - w))
        h10 = w * ((1.0 - w) * (1.0 - w))
        h01 = w * w * (3.0 - 2.0 * w)
        h11 = w * w * (w - 1.0)
        return h00 * f_tab[i] + h10 * hloc * fp_tab[i] + h01 * f_tab[i + 1] + h11 * hloc * fp_tab[i + 1]

    def derivative(s):
        i, hloc, w = locate(s)
        return (
            6.0 * w * (w - 1.0) * (f_tab[i] - f_tab[i + 1]) / hloc
            + (3.0 * w - 1.0) * (w - 1.0) * fp_tab[i]
            + w * (3.0 * w - 2.0) * fp_tab[i + 1]
        )

    def in_cell(i, w):
        return at_nodes[i] + w * (f0[i] + w * (c2[i] + w * (c3[i] + w * c4[i])))

    def integral(s):
        i, _, w = locate(s)
        return in_cell(i, w)

    def zero():
        i = int(np.argmax(at_nodes > 0.0)) - 1
        return math.nan if i < 0 else float(s_tab[i] + h[i] * _bisect(lambda w: -in_cell(i, w), 0.0, 1.0, 1e-13))

    return value, derivative, integral, zero


def make_bistable_cubic(alpha: float) -> Nonlinearity:
    """Cubic bistable law f(s) = s(1-s)(s-alpha), positively balanced.

    Requires 0 < alpha < 1/2; otherwise int_0^1 f = (1-2*alpha)/12 is not
    positive and the law is rejected.
    """
    if not 0.0 < alpha < 0.5:
        raise NonlinearityError(f"alpha must lie in (0, 1/2), got {alpha}")
    a = float(alpha)
    # f' = -3s^2 + 2(1+a)s - a is negative outside its two roots
    disc = np.sqrt((1.0 + a) ** 2 - 3.0 * a)
    r_lo = ((1.0 + a) - disc) / 3.0
    r_hi = ((1.0 + a) + disc) / 3.0
    delta = min(r_lo, 1.0 - r_hi)
    # closed-form root in (alpha, 1) of int_0^s f = 0
    beta = 2.0 * (1.0 + a) / 3.0 - np.sqrt(4.0 * (1.0 + a) ** 2 / 9.0 - 2.0 * a)
    return _law(
        lambda s: s * (1.0 - s) * (s - a),
        lambda s: -3.0 * s * s + 2.0 * (1.0 + a) * s - a,
        lambda s: 0.25 * s**4 - (1.0 + a) / 3.0 * s**3 + 0.5 * a * s * s,
        slopes=(-a, a - 1.0),
        kind="bistable",
        delta=float(delta),
        beta=float(beta),
        alpha=a,
        label=f"cubic(alpha={a:g})",
        params={"kind": "bistable_cubic", "alpha": a},
    )


def make_combustion(beta: float, amplitude: float) -> Nonlinearity:
    """Ignition law: f = 0 below beta, amplitude*(s-beta)*(1-s) on (beta, 1)."""
    if not 0.0 < beta < 1.0:
        raise NonlinearityError(f"beta must lie in (0, 1), got {beta}")
    if not 0.0 < amplitude < math.inf:
        raise NonlinearityError(f"amplitude must be positive and finite, got {amplitude}")
    b = float(beta)
    amp = float(amplitude)

    def _g_core(s):
        # -int_beta^s amp*(t-beta)*(1-t) dt for s in [beta, 1]
        return -amp * (
            -(s**3 - b**3) / 3.0 + (1.0 + b) * (s * s - b * b) / 2.0 - b * (s - b)
        )

    delta = min(b, (1.0 - b) / 2.0)
    return _law(
        lambda s: np.where(s > b, amp * (s - b) * (1.0 - s), 0.0),
        lambda s: np.where(s > b, amp * (1.0 + b - 2.0 * s), 0.0),
        lambda s: np.where(s > b, _g_core(s), 0.0),
        slopes=(0.0, amp * (b - 1.0)),
        kind="combustion",
        delta=float(delta),
        beta=b,
        alpha=None,
        label=f"combustion(beta={b:g}, amp={amp:g})",
        params={"kind": "combustion", "beta": b, "amplitude": amp},
    )


def make_custom(
    f: Callable,
    f_prime: Callable,
    delta: float,
    beta: float,
    alpha: float | None = None,
    label: str = "custom",
) -> Nonlinearity:
    """Wrap user callables (defined on [0,1]) with the linear extension.

    The claimed constants delta, alpha, beta are not trusted; run
    `validate` to verify them by sampling.  f and f' are the callables
    themselves.  G is minus the exact integral of their cubic Hermite
    interpolant at the _TABLE_POINTS + 1 uniform nodes, within 2e-15 of the
    closed form for a cubic or sine f.  Where f' jumps inside a cell the
    interpolant is off in that cell: combustion (0.3, 1) rebuilt here has
    max|G' + f| = 8.7e-6 next to beta, against 1e-11 for a smooth f
    (central differences, step 1e-6).
    """
    nodes = np.linspace(0.0, 1.0, _TABLE_POINTS + 1)
    fn, fpn = (np.asarray(fun(nodes), dtype=float) for fun in (f, f_prime))
    integral = _hermite_table(nodes, fn, fpn, 0.0)[2]
    return _law(
        f,
        f_prime,
        lambda s: -integral(s),
        slopes=(float(fpn[0]), float(fpn[-1])),
        kind="custom",
        delta=float(delta),
        beta=float(beta),
        alpha=None if alpha is None else float(alpha),
        label=label,
        params={"kind": "custom", "label": label},
    )


# -- operations -------------------------------------------------------------


def potential(nl: Nonlinearity, s):
    """G(s) = -int_0^s f, with G(0) = 0."""
    out = nl.G(s)
    return float(out) if np.ndim(s) == 0 else out


#: bisection levels below which `_adaptive_simpson` accepts an interval as is
_SIMPSON_DEPTH = 48


def _adaptive_simpson(fun, a, b, tol: float = 1e-12):
    """Adaptive composite Simpson with absolute tolerance.

    `fun` must accept an array.  `a` and `b` may be arrays of interval ends:
    each interval is the root of its own bisection tree, and an array of
    integrals is returned (a float for scalar ends).  The trees are walked
    breadth first: each level evaluates the quarter points of all open
    intervals in one call.  An interval is accepted when its two halves
    agree with the whole to 15*eps (eps halves per level), when their sum is
    not finite, or at the depth cap, and the accepted values are summed back
    in tree order, left + right, so each result is the float the depth-first
    recursion returns.
    """
    x0 = np.atleast_1d(np.asarray(a, dtype=float))
    x2 = np.atleast_1d(np.asarray(b, dtype=float))
    f0, f1, f2 = np.split(np.asarray(fun(np.concatenate([x0, 0.5 * (x0 + x2), x2])), dtype=float), 3)
    whole = (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)
    eps = tol
    levels = []  # per level: (accepted mask, value of each interval)
    for d in range(_SIMPSON_DEPTH, -1, -1):
        xm = 0.5 * (x0 + x2)
        quarter = np.concatenate([0.5 * (x0 + xm), 0.5 * (xm + x2)])
        fl, fr = np.split(np.asarray(fun(quarter), dtype=float), 2)
        left = (xm - x0) / 6.0 * (f0 + 4.0 * fl + f1)
        right = (x2 - xm) / 6.0 * (f1 + 4.0 * fr + f2)
        both = left + right
        # a non-finite value is accepted as it is: halving cannot settle it
        done = (np.abs(both - whole) <= 15.0 * eps) | ~np.isfinite(both) | (d <= 0)
        levels.append((done, both + (both - whole) / 15.0))
        if done.all():
            break
        # children of the open intervals, each left child before its right one
        o = ~done
        x0, x2 = _interleave(x0[o], xm[o]), _interleave(xm[o], x2[o])
        f0, f1, f2 = _interleave(f0[o], f1[o]), _interleave(fl[o], fr[o]), _interleave(f1[o], f2[o])
        whole = _interleave(left[o], right[o])
        eps /= 2.0

    total = levels[-1][1]
    for done, value in reversed(levels[:-1]):
        value[~done] = total[0::2] + total[1::2]
        total = value
    return float(total[0]) if np.ndim(a) == 0 and np.ndim(b) == 0 else total


def _interleave(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.column_stack([lhs, rhs]).ravel()


def antiderivative(nl: Nonlinearity, s: float, tol: float = 1e-12) -> float:
    """int_0^s f by adaptive Simpson (absolute tolerance)."""
    return _adaptive_simpson(lambda x: nl.f(x), 0.0, float(s), tol=tol)


def validate(nl: Nonlinearity, samples: int = 1000) -> ValidationReport:
    """Check the five structural conditions plus the linear extension.

    Failures are recorded as (condition id, sample point) pairs; nothing is
    raised.  `samples` controls the density of the interior sampling grid.
    """
    if samples < 100:
        raise ValueError("samples must be at least 100")
    tol = 1e-10
    bad: list[tuple[str, float]] = []

    for s0 in (0.0, 1.0):
        if abs(float(nl.f(s0))) > tol:
            bad.append(("f(0)=f(1)=0", s0))

    if not 0.0 < nl.delta < 0.5:
        bad.append(("f_prime_nonpositive_near_endpoints", nl.delta))
    else:
        eps = nl.delta / samples
        for lo, hi in ((eps, nl.delta - eps), (1.0 - nl.delta + eps, 1.0 - eps)):
            ss = np.linspace(lo, hi, samples)
            fp = np.asarray(nl.f_prime(ss))
            k = np.argmax(fp)
            if fp[k] > tol:
                bad.append(("f_prime_nonpositive_near_endpoints", float(ss[k])))

    total = antiderivative(nl, 1.0)
    if not total > tol:
        bad.append(("integral_f_positive", 1.0))

    if not 0.0 < nl.beta < 1.0:
        bad.append(("f_positive_above_beta", nl.beta))
    else:
        margin = (1.0 - nl.beta) / samples
        ss = np.linspace(nl.beta + margin, 1.0 - margin, samples)
        fv = np.asarray(nl.f(ss))
        k = np.argmin(fv)
        if fv[k] <= 0.0:
            bad.append(("f_positive_above_beta", float(ss[k])))

        grid = np.linspace(0.0, nl.beta, samples + 1)
        acc = np.cumsum(_adaptive_simpson(nl.f, grid[:-1], grid[1:], tol=1e-13))
        k = int(np.argmax(acc))
        if acc[k] > tol:
            bad.append(("antiderivative_nonpositive_below_beta", float(grid[k + 1])))

    s_lo, s_hi = nl.extension_slopes
    for tau in (0.25, 0.5, 1.0, 2.0):
        scale = 1.0 + abs(s_lo) * tau
        if abs(float(nl.f(-tau)) - (-tau * s_lo)) > tol * scale:
            bad.append(("linear_extension_outside", -tau))
        scale = 1.0 + abs(s_hi) * tau
        if abs(float(nl.f(1.0 + tau)) - tau * s_hi) > tol * scale:
            bad.append(("linear_extension_outside", 1.0 + tau))

    return ValidationReport(passed=not bad, violated_conditions=bad)


def reflect(nl: Nonlinearity) -> Nonlinearity:
    """The reflected law s -> -f(1-s).

    Negates the integral of f: if f has negative integral the reflected law
    is solvable, and the original front is recovered from the reflected one
    by (c, u) -> (-c, 1 - u(x, -y)).
    """
    base_f, base_fp, base_g = nl.f, nl.f_prime, nl.G
    g1 = float(np.asarray(base_g(1.0)))

    def f(s):
        return -base_f(1.0 - np.asarray(s, dtype=float))

    def f_prime(s):
        return base_fp(1.0 - np.asarray(s, dtype=float))

    def G(s):
        return base_g(1.0 - np.asarray(s, dtype=float)) - g1

    return Nonlinearity(
        kind="custom",
        f=f,
        f_prime=f_prime,
        delta=nl.delta,
        beta=1.0 - nl.beta,
        alpha=None if nl.alpha is None else 1.0 - nl.alpha,
        extension_slopes=(nl.extension_slopes[1], nl.extension_slopes[0]),
        G=G,
        label=f"reflect({nl.label or nl.kind})",
        params={"kind": "reflect", "base": dict(nl.params)},
    )


def ignition_point(nl: Nonlinearity, tol: float = 1e-10) -> float:
    """The unique beta with int_0^beta f = 0 (stored value for combustion).

    For bistable laws the root is bracketed in (alpha, 1); bracket failure
    means the law violates the structural conditions.  In x = s/alpha the
    bracket [1, 1/alpha] is walked over geometric cells, none wider than a
    doubling, to the first whose end has a nonnegative antiderivative, and
    beta is bisected inside that cell to `tol` relative to beta.  The
    antiderivative at the low end is carried, so each step at s integrates
    f only from there, to 1e-12 of |F(alpha)| (s/alpha)^2, the size F grows
    to from alpha where f is near linear: a law with a tiny beta, whose
    antiderivative stays far below an absolute tolerance, gets beta to
    `tol` as well.
    """
    if nl.kind == "combustion":
        return nl.beta
    lo = nl.alpha if nl.alpha is not None else 1e-6
    hi = 1.0
    flo = antiderivative(nl, lo)
    fhi = antiderivative(nl, hi)
    if not (flo < 0.0 < fhi):
        raise NonlinearityError(
            f"antiderivative does not change sign on [{lo:g}, 1]: {flo:g} .. {fhi:g}"
        )
    # in x = s/lo >= 1 _bisect's stop is relative to x, so to beta however
    # small it is; gap moves the low end to every x where -F > 0, on the
    # walk and in _bisect, so the carried F(lo * low) moves up with it, as in
    # explicit_front.invert_trace
    low, mass = 1.0, antiderivative(nl, lo, 1e-12 * min(1.0, -flo))

    def gap(x):
        nonlocal low, mass
        m = mass + _adaptive_simpson(nl.f, lo * low, lo * x, tol=1e-12 * min(1.0, -flo * x * x))
        if -m > 0.0:
            low, mass = x, m
        return -m

    span = hi / lo
    edges = np.geomspace(1.0, span, max(1, math.ceil(math.log2(span))) + 1)[1:]
    top = next((float(x) for x in edges if gap(float(x)) <= 0.0), span)
    return lo * _bisect(gap, low, top, tol)


def _bisect(fun, lo: float, hi: float, rel: float) -> float:
    """The midpoint of the bracket [lo, hi] of a sign change of `fun`,
    positive on the lo side and nonpositive on the hi side, halved while
    hi - lo > rel * max(1, |lo|, |hi|)."""
    while hi - lo > rel * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if fun(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
