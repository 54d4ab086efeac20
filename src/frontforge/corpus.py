"""Pinned reference cases: derived values, their generating commands, tolerances.

Each case file in corpus_data/ is a flat key = value record naming a
command from the registry below, the expected value, a comparison kind
(rel | abs | min | bool) with tolerance, provenance, and a cost tag.
`check` reruns the command and compares; the acceptance suite leans on the
same registry for its pinned numbers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from glob import glob

import numpy as np

from .formats import read_kv

_DATA_DIR = os.path.join(os.path.dirname(__file__), "corpus_data")


@dataclass(frozen=True)
class PinnedCase:
    identifier: str
    command: str
    expected: float
    kind: str  # rel | abs | min | max | bool
    tol: float
    provenance: str
    cost: str  # fast | slow


@dataclass(frozen=True)
class CheckResult:
    case: PinnedCase
    passed: bool
    observed: float | None
    detail: str


def load_cases(directory: str | None = None) -> list[PinnedCase]:
    directory = directory or _DATA_DIR
    cases = []
    for path in sorted(glob(os.path.join(directory, "*.txt"))):
        kv = read_kv(path)
        try:
            cases.append(
                PinnedCase(
                    identifier=kv["id"],
                    command=kv["command"],
                    expected=float(kv["expect"]),
                    kind=kv.get("kind", "rel"),
                    tol=float(kv.get("tol", "1e-9")),
                    provenance=kv.get("provenance", ""),
                    cost=kv.get("cost", "fast"),
                )
            )
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed corpus case {path}: {exc}") from exc
    return cases


# -- command registry ----------------------------------------------------------


def _cmd_bessel_k(order, s):
    from .specfun import bessel_k

    return bessel_k(int(order), float(s))


def _cmd_bessel_k_asymptotic(order, s):
    from .specfun import bessel_k_asymptotic

    return bessel_k_asymptotic(int(order), float(s))

def _cmd_cubic_integral(alpha):
    from .nonlinearity import antiderivative, make_bistable_cubic

    return antiderivative(make_bistable_cubic(float(alpha)), 1.0)


def _cmd_cubic_beta(alpha):
    from .nonlinearity import ignition_point, make_bistable_cubic

    return ignition_point(make_bistable_cubic(float(alpha)))


def _cmd_cubic_beta_stored(alpha):
    from .nonlinearity import make_bistable_cubic

    return make_bistable_cubic(float(alpha)).beta


def _cmd_combustion_value(beta, amp, s):
    from .nonlinearity import make_combustion

    return float(make_combustion(float(beta), float(amp)).f(float(s)))


def _cmd_combustion_integral(beta, amp):
    from .nonlinearity import antiderivative, make_combustion

    return antiderivative(make_combustion(float(beta), float(amp)), 1.0)


def _cmd_potential_cubic(alpha, s):
    from .nonlinearity import make_bistable_cubic, potential

    return potential(make_bistable_cubic(float(alpha)), float(s))


def _cmd_validate_cubic(alpha, samples):
    from .nonlinearity import make_bistable_cubic, validate

    return 1.0 if validate(make_bistable_cubic(float(alpha)), int(samples)).passed else 0.0


def _cmd_green_g(t, x, y):
    from .explicit_front import green_g

    return green_g(float(t), float(x), float(y))


def _cmd_kernel_mass(t):
    from .explicit_front import kernel_mass

    return kernel_mass(float(t))


def _cmd_front_value(t, c, x, y):
    from .explicit_front import ExplicitFrontParams, explicit_front

    return explicit_front(ExplicitFrontParams(float(t), float(c)), float(x), float(y))


def _cmd_asymptotic_constant(t, c):
    from .explicit_front import ExplicitFrontParams, asymptotic_constant

    return asymptotic_constant(ExplicitFrontParams(float(t), float(c)), "plus")


def _cmd_endpoint_slope(t, c, side, h):
    from .explicit_front import ExplicitFrontParams, explicit_nonlinearity

    params = ExplicitFrontParams(float(t), float(c))
    h = float(h)
    if side == "zero":
        return explicit_nonlinearity(params, h) / h
    return (0.0 - explicit_nonlinearity(params, 1.0 - h)) / h


def _cmd_seed_energy(alpha, a, d, m, x_max, y_min, y_max, nx, ny):
    from .grid import GridSpec, energy, seed_function
    from .nonlinearity import make_bistable_cubic

    spec = GridSpec(float(x_max), float(y_min), float(y_max), int(nx), int(ny), float(a))
    return energy(seed_function(spec, float(d), float(m)), make_bistable_cubic(float(alpha)))


def _cmd_seed_dirichlet(a, d, m, x_max, y_min, y_max, nx, ny):
    from .grid import GridSpec, dirichlet, seed_function

    spec = GridSpec(float(x_max), float(y_min), float(y_max), int(nx), int(ny), float(a))
    return dirichlet(seed_function(spec, float(d), float(m)))


def _cmd_projection_residual(a, d, m, x_max, y_min, y_max, nx, ny):
    from .grid import GridSpec, dirichlet, project_constraint, seed_function

    spec = GridSpec(float(x_max), float(y_min), float(y_max), int(nx), int(ny), float(a))
    return abs(dirichlet(project_constraint(seed_function(spec, float(d), float(m)))) - 1.0)


def _cmd_choose_weight_cubic(alpha):
    from .nonlinearity import make_bistable_cubic
    from .solver import choose_weight

    return choose_weight(make_bistable_cubic(float(alpha)))


def _cmd_residual_order(t, c):
    from .explicit_front import ExplicitFrontParams
    from .front_suite import oracle_residual_orders

    return oracle_residual_orders(ExplicitFrontParams(float(t), float(c)))[0]


def _cmd_oracle_solve_speed(t, c):
    from .explicit_front import ExplicitFrontParams, front_nonlinearity
    from .solver import SolverOptions, solve_front

    return solve_front(front_nonlinearity(ExplicitFrontParams(float(t), float(c))), SolverOptions()).speed


def _cmd_cubic_solve_speed(alpha):
    from .nonlinearity import make_bistable_cubic
    from .solver import SolverOptions, solve_front

    return solve_front(make_bistable_cubic(float(alpha)), SolverOptions()).speed


def _cmd_cubic_uniqueness(alpha):
    from .analysis import align_and_compare
    from .nonlinearity import make_bistable_cubic
    from .solver import SolverOptions, solve_front

    nl = make_bistable_cubic(float(alpha))
    s1 = solve_front(nl, SolverOptions(seed="exponential"))
    s2 = solve_front(nl, SolverOptions(seed="kernel"))
    return align_and_compare(s1.trace, s2.trace)[1]


def _cmd_oracle_evolution_speed(t, c):
    from .front_suite import oracle_evolution_speed

    return oracle_evolution_speed(float(t), float(c))


def _cmd_cubic_evolution_match(alpha):
    from .front_suite import evolution_speed_match

    return evolution_speed_match(float(alpha))


def _cmd_sandwich_all_finite(alpha):
    from .front_suite import sandwich_b_max

    return sandwich_b_max(float(alpha))


_REGISTRY = {
    "bessel_k": _cmd_bessel_k,
    "bessel_k_asymptotic": _cmd_bessel_k_asymptotic,
    "cubic_integral": _cmd_cubic_integral,
    "cubic_beta": _cmd_cubic_beta,
    "cubic_beta_stored": _cmd_cubic_beta_stored,
    "combustion_value": _cmd_combustion_value,
    "combustion_integral": _cmd_combustion_integral,
    "potential_cubic": _cmd_potential_cubic,
    "validate_cubic": _cmd_validate_cubic,
    "green_g": _cmd_green_g,
    "kernel_mass": _cmd_kernel_mass,
    "front_value": _cmd_front_value,
    "asymptotic_constant": _cmd_asymptotic_constant,
    "endpoint_slope": _cmd_endpoint_slope,
    "seed_energy": _cmd_seed_energy,
    "seed_dirichlet": _cmd_seed_dirichlet,
    "projection_residual": _cmd_projection_residual,
    "choose_weight_cubic": _cmd_choose_weight_cubic,
    "residual_order": _cmd_residual_order,
    "oracle_solve_speed": _cmd_oracle_solve_speed,
    "cubic_solve_speed": _cmd_cubic_solve_speed,
    "cubic_uniqueness": _cmd_cubic_uniqueness,
    "oracle_evolution_speed": _cmd_oracle_evolution_speed,
    "cubic_evolution_match": _cmd_cubic_evolution_match,
    "sandwich_all_finite": _cmd_sandwich_all_finite,
}


def run_command(command: str) -> float:
    parts = command.split()
    if not parts or parts[0] not in _REGISTRY:
        raise ValueError(f"unknown corpus command {command!r}")
    return float(_REGISTRY[parts[0]](*parts[1:]))


def check(case: PinnedCase) -> CheckResult:
    """Rerun the generating command and compare against the pinned value."""
    try:
        observed = run_command(case.command)
    except Exception as exc:  # report, never raise: failures are results
        return CheckResult(case, False, None, f"command failed: {exc}")
    exp = case.expected
    if case.kind == "rel":
        ok = math.isfinite(observed) and abs(observed - exp) <= case.tol * abs(exp)
        detail = f"observed {observed!r}, expected {exp!r} (rel tol {case.tol:g})"
    elif case.kind == "abs":
        ok = math.isfinite(observed) and abs(observed - exp) <= case.tol
        detail = f"observed {observed!r}, expected {exp!r} (abs tol {case.tol:g})"
    elif case.kind == "min":
        ok = observed >= exp
        detail = f"observed {observed!r}, required >= {exp!r}"
    elif case.kind == "max":
        ok = observed <= exp
        detail = f"observed {observed!r}, required <= {exp!r}"
    elif case.kind == "bool":
        ok = observed == 1.0
        detail = f"observed {observed!r}, expected true"
    else:
        return CheckResult(case, False, observed, f"unknown comparison kind {case.kind!r}")
    return CheckResult(case, ok, observed, detail)

