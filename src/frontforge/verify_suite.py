"""Built-in property checks behind `frontforge verify`.

The randomized suites realize the structural inequalities as finite-grid
statements: each holds up to an O(h) defect, and the slack constants used
here were calibrated once on refined grids and then frozen with a safety
factor (they are documented next to each check).  Seeded generators make
every run reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from . import corpus
from .grid import (
    Field,
    GridSpec,
    boundary_mass,
    dirichlet,
    energy,
    seed_function,
    shift_cells,
    weighted_mass,
)
from .nonlinearity import (
    make_bistable_cubic,
    make_combustion,
    make_custom,
    potential,
    reflect,
    validate,
)
from .solver import _Trace, choose_weight, seed_energy_value
from .specfun import bessel_k, k_ratio

_BUMPS = 4  # bumps in each random compact field


def _bump(r2: np.ndarray) -> np.ndarray:
    """exp(-1/(1 - r2)) inside the unit ball r2 < 1, exactly 0 outside."""
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def _random_bump_field(spec: GridSpec, rng: np.random.Generator) -> Field:
    """Smooth random field with exact compact support inside the window."""
    xs, ys = spec.xs, spec.ys
    vals = np.zeros((spec.nx + 1, spec.ny + 1))
    y_margin = 0.15 * (spec.y_max - spec.y_min)
    for _ in range(_BUMPS):
        cx = rng.uniform(0.0, 0.6 * spec.x_max)
        cy = rng.uniform(spec.y_min + 1.5 * y_margin, spec.y_max - 1.5 * y_margin)
        sx = rng.uniform(0.08, 0.25) * spec.x_max
        sy = rng.uniform(0.08, 0.2) * (spec.y_max - spec.y_min)
        amp = rng.uniform(0.2, 1.0)
        r2 = ((xs[:, None] - cx) / sx) ** 2 + ((ys[None, :] - cy) / sy) ** 2
        vals += amp * math.e * _bump(r2)
    return Field(vals, spec)


def _random_bump_trace(spec: GridSpec, rng: np.random.Generator) -> np.ndarray:
    """Smooth random trace on spec.ys with exact compact support inside the
    window: `_random_bump_field`'s bumps in y alone."""
    ys = spec.ys
    vals = np.zeros(spec.ny + 1)
    y_margin = 0.15 * (spec.y_max - spec.y_min)
    for _ in range(_BUMPS):
        cy = rng.uniform(spec.y_min + 1.5 * y_margin, spec.y_max - 1.5 * y_margin)
        sy = rng.uniform(0.08, 0.2) * (spec.y_max - spec.y_min)
        amp = rng.uniform(0.2, 1.0)
        vals += amp * math.e * _bump(((ys - cy) / sy) ** 2)
    return vals


def trace_poincare_suite(seed: int = 1234, cases: int = 24):
    """Discrete trace and Poincare inequalities on random compact fields.

    Slack: 0.5*(hx+hy)*(RHS scale), covering the O(h) quadrature defect
    (measured defects sit well below half of this allowance).
    """
    rng = np.random.default_rng(seed)
    worst = []
    for _ in range(cases):
        a = float(rng.uniform(0.1, 0.5))
        spec = GridSpec(x_max=12.0, y_min=-20.0, y_max=8.0, nx=48, ny=224, a=a)
        w = _random_bump_field(spec, rng)
        lhs_trace = boundary_mass(w)
        norm2 = weighted_mass(w) + dirichlet(w)
        slack = 0.5 * (spec.hx + spec.hy) * norm2
        worst.append(lhs_trace - norm2 - slack)
        lhs_mass = weighted_mass(w)
        rhs_poincare = 4.0 / (a * a) * dirichlet(w)
        slack_p = 0.5 * (spec.hx + spec.hy) * rhs_poincare
        worst.append(lhs_mass - rhs_poincare - slack_p)
    violations = sum(1 for v in worst if v > 0.0)
    return violations == 0, f"{cases} cases, {violations} violations, margin {max(worst):+.3e}"


def scaling_suite(seed: int = 1234, cases: int = 24):
    """E_a(u^t) = e^{-at} E_a(u) for the solver's trace energy.

    u is a random trace after the solver's rearrangement
    (`_Trace.rearrange`), a front with the pins at its ends; u^t(y) = u(y +
    t) is its translate by t rounded to whole cells (`grid.shift_cells`,
    the translates of the solver's trial), and E_a is `_Trace.energy` at
    the Gamma of `_Trace.scaled`.  Relative slack 2*(hx+hy) against the
    energy scale |E| + Gamma covers the window's defect: the pins sit at
    fixed ends while the front moves.
    """
    rng = np.random.default_rng(seed + 1)
    nl = make_bistable_cubic(0.25)
    worst = []
    for _ in range(cases):
        a = float(rng.uniform(0.1, 0.4))
        spec = GridSpec(x_max=12.0, y_min=-20.0, y_max=8.0, nx=48, ny=224, a=a)
        problem = _Trace(spec)
        u = problem.rearrange(_random_bump_trace(spec, rng))
        k = round(float(rng.uniform(-5.0, 5.0)) / spec.hy)
        gamma = problem.scaled(u)[2]
        e0 = problem.energy(u, gamma, nl)
        moved = shift_cells(spec, u, k)
        e1 = problem.energy(moved, problem.scaled(moved)[2], nl)
        defect = abs(e1 - math.exp(-a * k * spec.hy) * e0)
        worst.append(defect - 2.0 * (spec.hx + spec.hy) * (abs(e0) + gamma))
    violations = sum(1 for v in worst if v > 0.0)
    return violations == 0, f"{cases} cases, {violations} violations, margin {max(worst):+.3e}"


def rearrangement_suite(seed: int = 1234, cases: int = 24):
    """The solver's rearrangement of a trace (`_Trace.rearrange`): the output
    is nonincreasing, the boundary potential and the weighted distribution
    are kept, and Gamma and E_a do not increase.

    Gamma(u*) <= Gamma(u) is the two-dimensional inequality on traces:
    Gamma(u) is the least Gamma_a over fields with trace u, and rearranging
    that field's columns in y gives a field with trace u*.  The input is a
    random trace with its pins, clamped to [0, 1].  Equimeasurability is
    checked through the boundary potential, E_a at Gamma = 0 (slack 0.2*hy
    times the total weighted boundary mass), and through the weighted
    distribution function at 9 thresholds (slack: 1.5 weighted cells).
    Gamma slack: 0.1*(hx+hy)*Gamma(u), energy slack 0.1*(hx+hy)*(1 +
    Gamma(u)), the calibrated O(h) defect allowance of the quantile
    resampling.
    """
    rng = np.random.default_rng(seed + 2)
    nl = make_bistable_cubic(0.25)
    worst = []
    ascents = 0  # outputs that increase somewhere
    for _ in range(cases):
        a = float(rng.uniform(0.1, 0.4))
        spec = GridSpec(x_max=12.0, y_min=-20.0, y_max=8.0, nx=48, ny=224, a=a)
        problem = _Trace(spec)
        u = _random_bump_trace(spec, rng)
        u[0], u[-1] = 1.0, 0.0
        np.clip(u, 0.0, 1.0, out=u)
        us = problem.rearrange(u.copy())
        ascents += bool((us[1:] > us[:-1]).any())

        pot0 = problem.energy(u, 0.0, nl)
        pot1 = problem.energy(us, 0.0, nl)
        wmass = float(np.sum(spec.ymeasure))
        worst.append(abs(pot1 - pot0) - 2.0 * spec.hy * wmass * 0.1)

        for thr in np.linspace(0.05, 0.9, 9):
            m0 = float(np.sum(spec.ymeasure[u > thr]))
            m1 = float(np.sum(spec.ymeasure[us > thr]))
            worst.append(abs(m1 - m0) - 1.5 * float(np.max(spec.ymeasure)))

        gamma, gamma_s = problem.scaled(u)[2], problem.scaled(us)[2]
        worst.append(gamma_s - gamma - 0.1 * (spec.hx + spec.hy) * gamma)
        e0, e1 = problem.energy(u, gamma, nl), problem.energy(us, gamma_s, nl)
        worst.append(e1 - e0 - 0.1 * (spec.hx + spec.hy) * (1.0 + gamma))
    violations = ascents + sum(1 for v in worst if v > 0.0)
    return violations == 0, f"{cases} cases, {violations} violations, margin {max(worst):+.3e}"


def seed_energy_suite(seed: int = 1234, cases: int = 20):
    """Negative seed energy at the selected weight, for random valid laws.

    Checks both the closed form (exact) and the discrete energy on a grid
    resolving the seed's scales.
    """
    rng = np.random.default_rng(seed + 3)
    bad = 0
    detail = []
    for k in range(cases):
        if k % 2 == 0:
            nl = make_bistable_cubic(float(rng.uniform(0.05, 0.42)))
        else:
            nl = make_combustion(float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.4, 2.0)))
        a = choose_weight(nl)
        closed = seed_energy_value(nl, a)
        spec = GridSpec(x_max=6.0 / a, y_min=-42.0 / a, y_max=10.0 / a, nx=32, ny=1024, a=a)
        disc = energy(seed_function(spec), nl)
        if not (closed < 0.0 and disc < 0.0):
            bad += 1
            detail.append(f"a={a:g} closed={closed:g} disc={disc:g}")
    return bad == 0, f"{cases} cases, {bad} violations" + ("; " + "; ".join(detail) if detail else "")


def fast_checks(seed: int = 1234):
    """(name, callable) pairs for the quick verify table."""

    def bessel_pinned():
        ok = True
        vals = {(0, 0.4210244382407084), (1, 0.6019072301972346)}
        for order, expected in vals:
            got = bessel_k(order, 1.0)
            ok &= abs(got - expected) <= 1e-9 * expected
        s = np.geomspace(0.01, 100.0, 200)
        rec = np.abs(bessel_k(2, s) - bessel_k(0, s) - 2.0 / s * bessel_k(1, s))
        ok &= bool(np.all(rec <= 1e-9 * bessel_k(2, s)))
        h = 1e-6
        for sv in (0.5, 1.0, 5.0, 40.0):
            fd = (bessel_k(1, sv + h) - bessel_k(1, sv - h)) / (2.0 * h)
            ident = -0.5 * (bessel_k(0, sv) + bessel_k(2, sv))
            ok &= abs(fd - ident) <= 1e-6 * abs(ident)
        return ok, "pinned values, recurrence, derivative identity"

    def ratio_shape():
        s = np.geomspace(1e-3, 200.0, 400)
        r = k_ratio(s)
        ok = bool(np.all(np.diff(r) < 0.0))
        ok &= abs(r[-1] - (1.0 + 1.0 / (2.0 * s[-1]))) < 1e-3
        ok &= abs(r[0] * s[0] - 1.0) < 2e-2
        return ok, "(K0+K2)/(2K1) decreasing with the right limits"

    def validators():
        ok = validate(make_bistable_cubic(0.25)).passed
        ok &= validate(make_combustion(0.3, 1.0)).passed
        ok &= not validate(reflect(make_bistable_cubic(0.25))).passed
        flat = make_custom(
            lambda s: 0.1 * np.ones_like(np.asarray(s, dtype=float)),
            lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            delta=0.1,
            beta=0.5,
        )
        ok &= not validate(flat).passed
        return ok, "cubic/combustion pass; reflected and constant laws fail"

    def potential_bounds():
        ok = True
        for nl in (make_bistable_cubic(0.25), make_combustion(0.3, 1.0)):
            s = np.linspace(-10.0, 10.0, 2001)
            g = np.asarray(nl.G(s))
            cbound = 1.05 * float(np.max(np.abs(g) / np.maximum(s * s, 1e-12)))
            ok &= bool(np.all(g <= cbound * s * s + 1e-12))
            ok &= bool(np.all(g >= -cbound * s * s - 1e-12))
            g1 = potential(nl, 1.0)
            ok &= g1 < 0.0
            ok &= bool(np.all(g[s <= 0.0] >= -1e-12))
            ok &= bool(np.all(np.asarray(nl.G(np.linspace(1.0, 10.0, 200))) >= g1 - 1e-12))
            sb = np.linspace(0.0, nl.beta, 300)
            ok &= bool(np.all(np.asarray(nl.G(sb)) >= -1e-12))
        return ok, "quadratic bounds and sign structure of the potential"

    yield "bessel-pinned-and-identities", bessel_pinned
    yield "bessel-ratio-shape", ratio_shape
    yield "nonlinearity-validators", validators
    yield "potential-bounds", potential_bounds
    yield "trace-poincare-suite", lambda: trace_poincare_suite(seed)
    yield "scaling-identity-suite", lambda: scaling_suite(seed)
    yield "rearrangement-suite", lambda: rearrangement_suite(seed)
    yield "seed-energy-suite", lambda: seed_energy_suite(seed)
    for case in corpus.load_cases():
        if case.cost == "fast":
            yield f"corpus:{case.identifier}", _case_runner(case)


def slow_checks():
    """Solver- and evolution-backed corpus cases (minutes)."""
    for case in corpus.load_cases():
        if case.cost == "slow":
            yield f"corpus:{case.identifier}", _case_runner(case)


def _case_runner(case):
    def run():
        res = corpus.check(case)
        return res.passed, res.detail

    return run
