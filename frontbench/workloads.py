"""The three benchmark workloads: set-up, one round of work, and its checks.

Each workload is a closed loop from one process and one thread: the next
round starts when the previous one ends.  `setup` builds the inputs, `inputs`
draws round k's inputs from the seed, `run` does the timed program work of
one round as a generator that yields one result per step, and `check`
returns the reasons a round's results are wrong (empty when they are right).
The worker times each step on its own and gauges the machine's speed between
steps (calibrate.py).

The seed perturbs each round's law parameters by a relative 1e-12.  That is
too small to change the work of a round (iteration, step and call counts
stay equal) but makes every round's inputs distinct, so a memo of whole
results cannot turn rounds into lookups.  The program sees only these
generated inputs.

Calls go through the defining module's attribute (for example
`ef.sample_front`), so the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import importlib
import math

import numpy as np

import checks

#: relative size of the seeded parameter draws
JITTER = 1e-12
#: simulated time of one evolution leg
LEG_T = 0.125
#: mesh widths of the nested residual grids
RESIDUAL_HS = (1.0 / 32.0, 1.0 / 64.0)
#: trace value deep in the law's zero-side tail
TAIL_S = 1e-180


def _modules():
    """frontforge's modules by name.  `frontforge.explicit_front` as a package
    attribute is the function, so modules are looked up by import path."""
    names = ("explicit_front", "evolution", "front_suite", "grid", "nonlinearity", "solver")
    return {n: importlib.import_module(f"frontforge.{n}") for n in names}


def _draw(rng: np.random.Generator, value: float) -> float:
    return value * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


def _scaled_law(base, factor: float, c: float):
    """f^{t, c*factor} from f^{t,c}: the law family is linear in c
    (f^{t,c} = (c/2) f^t) and its structural constants do not depend on c."""
    return dataclasses.replace(
        base,
        f=lambda s: factor * base.f(s),
        f_prime=lambda s: factor * base.f_prime(s),
        G=lambda s: factor * base.G(s),
        extension_slopes=tuple(factor * v for v in base.extension_slopes),
        label=f"{base.label} x {factor!r}",
        params={**base.params, "c": c},
    )


class Variational:
    """Three solve_front calls per round at the default 96x448 grid."""

    name = "variational"

    def __init__(self, seed: int, tracer):
        self.m = _modules()
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.params = self.m["explicit_front"].ExplicitFrontParams(_draw(self.rng, 1.0), _draw(self.rng, 2.0))

    def setup(self) -> None:
        self.oracle = self.m["explicit_front"].front_nonlinearity(self.params)

    def inputs(self, k: int):
        nl = self.m["nonlinearity"]
        c = _draw(self.rng, self.params.c)
        laws = [
            ("cubic", nl.make_bistable_cubic(_draw(self.rng, 0.25)), None),
            ("combustion", nl.make_combustion(_draw(self.rng, 0.3), 1.0), None),
            ("oracle", _scaled_law(self.oracle, c / self.params.c, c), c),
        ]
        return [(label, self.tracer.wrap_law(law), exact) for label, law, exact in laws]

    def run(self, laws):
        for label, law, exact in laws:
            yield label, self.m["solver"].solve_front(law), exact

    def check(self, inputs, results) -> list[str]:
        dirichlet = self.m["grid"].dirichlet
        bad = []
        for label, sol, exact in results:
            found = [
                checks.speed_positive(sol.speed),
                checks.speeds_agree(sol.speed, sol.speed_variational),
                checks.in_unit_interval(sol.front.values),
                checks.nonincreasing_in_y(sol.front.values),
                checks.constraint_holds(dirichlet(sol.front)),
            ]
            if exact is not None:
                found.append(checks.speed_near(sol.speed, exact, checks.ORACLE_SPEED_REL))
            bad += [f"{label}: {msg}" for msg in found if msg]
        return bad


class Evolution:
    """One evolve leg of LEG_T per round, continuing the previous leg's field."""

    name = "evolution"

    def __init__(self, seed: int, tracer):
        self.m = _modules()
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.params = self.m["explicit_front"].ExplicitFrontParams(_draw(self.rng, 1.0), _draw(self.rng, 2.0))

    def setup(self) -> None:
        ef = self.m["explicit_front"]
        self.law = self.tracer.wrap_law(ef.front_nonlinearity(self.params))
        spec = self.m["front_suite"].evolution_grid(self.params.c, 64)
        self.field = self.m["grid"].Field(ef.sample_front(self.params, spec.xs, spec.ys), spec)

    def inputs(self, k: int):
        return self.field

    def run(self, field):
        state, speed_trace = self.m["evolution"].evolve(field, self.law, LEG_T)
        self.field = state.field
        yield state.field, speed_trace

    def check(self, inputs, results) -> list[str]:
        (field, speed_trace), = results
        grid = self.m["grid"]
        spec = field.spec
        try:
            level = grid.trace_crossing(grid.trace(field))
        except ValueError as exc:
            level = math.nan
            bad = [str(exc)]
        else:
            bad = []
        found = [
            checks.speed_near(self.m["evolution"].measure_speed(speed_trace), self.params.c, checks.EVOLUTION_SPEED_REL),
            checks.in_unit_interval(field.values),
            checks.level_inside(level, spec.y_min, spec.y_max),
        ]
        return bad + [msg for msg in found if msg]


class OracleField:
    """The closed-form oracle: law table, two sampled grids, tail, kernel mass."""

    name = "oracle-field"

    def __init__(self, seed: int, tracer):
        self.m = _modules()
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer

    def setup(self) -> None:
        pass

    def inputs(self, k: int):
        return self.m["explicit_front"].ExplicitFrontParams(_draw(self.rng, 1.0), _draw(self.rng, 2.0))

    def run(self, params):
        ef = self.m["explicit_front"]
        law = self.tracer.wrap_law(ef.front_nonlinearity(params))
        yield law
        for h in RESIDUAL_HS:
            spec = self.m["front_suite"].oracle_residual_grid(params, h)
            values = ef.sample_front(params, spec.xs, spec.ys)
            yield values, self.m["solver"].pde_residual(values, spec.hx, spec.hy, params.c, law, ys=spec.ys)
        yield ef.explicit_nonlinearity(params, TAIL_S) / TAIL_S, ef.kernel_mass(params.t)

    def check(self, params, results) -> list[str]:
        _, (coarse, res_coarse), (fine, res_fine), (slope, mass) = results
        found = [checks.residual_order(res_coarse[0], res_fine[0])]
        for values in (coarse, fine):
            found += [checks.in_unit_interval(values, open_ends=True), checks.nonincreasing_in_y(values)]
        found += [checks.endpoint_slope(slope, params.t, params.c), checks.unit_mass(mass)]
        return [msg for msg in found if msg]


WORKLOADS = {w.name: w for w in (Variational, Evolution, OracleField)}


class NoTracer:
    """Stands in for the tracer in untraced runs: installs and records nothing."""

    def wrap_law(self, nl):
        return nl
