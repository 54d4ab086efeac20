"""Traveling fronts of the half-plane boundary-reaction problem.

Computes, verifies, and analyzes solution pairs (c, u) of

    Laplace(u) + c u_y = 0   in the half-plane x > 0,
    -u_x = f(u)              on the boundary x = 0,

with u decreasing from 1 to 0 in y.  Ships a constrained variational solver,
a closed-form Bessel-kernel front family used as an oracle, a parabolic
evolution validator, and decay-law analysis tools.
"""

from .analysis import DecayReport, align_and_compare, fit_decay, sandwich_check, speed_ordering
from .evolution import EvolutionState, SpeedTrace, evolve, measure_speed, step
from .explicit_front import (
    ExplicitFrontParams,
    asymptotic_constant,
    explicit_front_dy,
    explicit_nonlinearity,
    explicit_nonlinearity_deriv,
    front_nonlinearity,
    green_g,
    poisson_kernel,
)
from .grid import (
    Field,
    GridSpec,
    TraceProfile,
    dirichlet,
    energy,
    project_constraint,
    rearrange_monotone,
    seed_function,
    trace,
    translate,
)
from .nonlinearity import (
    Nonlinearity,
    ValidationReport,
    ignition_point,
    make_bistable_cubic,
    make_combustion,
    make_custom,
    potential,
    reflect,
    validate,
)
from .solver import (
    FrontSolution,
    MinimizerResult,
    SolverOptions,
    choose_weight,
    extract_speed,
    minimize,
    solve_front,
)
from .specfun import bessel_k, bessel_k_asymptotic, bessel_k_flagged, bessel_k_scaled

__version__ = "0.1.0"

__all__ = [
    "DecayReport",
    "EvolutionState",
    "ExplicitFrontParams",
    "Field",
    "FrontSolution",
    "GridSpec",
    "MinimizerResult",
    "Nonlinearity",
    "SolverOptions",
    "SpeedTrace",
    "TraceProfile",
    "ValidationReport",
    "align_and_compare",
    "asymptotic_constant",
    "bessel_k",
    "bessel_k_asymptotic",
    "bessel_k_flagged",
    "bessel_k_scaled",
    "choose_weight",
    "dirichlet",
    "energy",
    "evolve",
    "explicit_front_dy",
    "explicit_nonlinearity",
    "explicit_nonlinearity_deriv",
    "extract_speed",
    "fit_decay",
    "front_nonlinearity",
    "green_g",
    "ignition_point",
    "make_bistable_cubic",
    "make_combustion",
    "make_custom",
    "measure_speed",
    "minimize",
    "poisson_kernel",
    "potential",
    "project_constraint",
    "rearrange_monotone",
    "reflect",
    "sandwich_check",
    "seed_function",
    "solve_front",
    "speed_ordering",
    "step",
    "trace",
    "translate",
    "validate",
]
