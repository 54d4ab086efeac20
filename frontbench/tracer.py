"""Spans around frontforge's module boundaries, installed from outside.

The tracer replaces public functions with timing wrappers at the place each
is looked up.  Names a module imports with `from ... import` are bound in the
importing module, so they are patched there (for example
`evolution.tridiag_solve_many` and `grid.rearrange_columns`).  Nothing inside
frontforge changes, and an untraced run installs nothing.

Each wrapped call records one span: name, start, end, parent span, the round
it belongs to ("setup" or the round index) and the number of array elements
passed in.  Spans are kept in memory and written out when the run ends.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np


def _points_first(args) -> int:
    return int(np.size(args[0]))


def _points_rhs(args) -> int:
    return int(np.size(args[3]))


def _points_none(args) -> int:
    return 0


# (module, attribute, span name, points of the call).  Layer names follow the
# module that defines the function; `kernels` is frontforge._kernels.
PATCHES = [
    ("solver", "solve_front", "solver.solve_front", _points_none),
    ("solver", "minimize", "solver.minimize", _points_none),
    ("solver", "extract_speed", "solver.extract_speed", _points_none),
    ("solver", "choose_weight", "solver.choose_weight", _points_none),
    ("solver", "validate", "nonlinearity.validate", _points_none),
    ("solver", "pde_residual", "solver.pde_residual", _points_none),
    ("solver", "sample_front", "explicit_front.sample_front", _points_none),
    ("grid", "project_constraint", "grid.project_constraint", _points_none),
    ("grid", "dirichlet", "grid.dirichlet", _points_none),
    ("grid", "translate", "grid.translate", _points_none),
    ("grid", "energy", "grid.energy", _points_none),
    ("grid", "rearrange_monotone", "grid.rearrange_monotone", _points_none),
    ("grid", "rearrange_columns", "kernels.rearrange_columns", _points_first),
    ("grid", "trace_crossing", "grid.trace_crossing", _points_none),
    ("evolution", "evolve", "evolution.evolve", _points_none),
    ("evolution", "step", "evolution.step", _points_none),
    ("evolution", "stability_limit", "evolution.stability_limit", _points_none),
    ("evolution", "tridiag_solve_many", "kernels.tridiag_solve_many", _points_rhs),
    ("evolution", "trace_crossing", "grid.trace_crossing", _points_none),
    ("explicit_front", "front_nonlinearity", "explicit_front.front_nonlinearity", _points_none),
    ("explicit_front", "sample_front", "explicit_front.sample_front", _points_none),
    ("explicit_front", "front_profile", "explicit_front.front_profile", _points_none),
    ("explicit_front", "explicit_nonlinearity", "explicit_front.explicit_nonlinearity", _points_none),
    ("explicit_front", "invert_trace", "explicit_front.invert_trace", _points_none),
    ("explicit_front", "kernel_mass", "explicit_front.kernel_mass", _points_none),
    ("explicit_front", "k01_scaled", "kernels.k01_scaled", _points_first),
    ("explicit_front", "k_ratio", "specfun.k_ratio", _points_first),
    ("specfun", "k01_scaled", "kernels.k01_scaled", _points_first),
]

#: reported per-layer metrics: (span name, statistic); statistic is
#: "calls", "points", "s" (self seconds) or a counter name
LAYER_METRICS = [
    ("solver.minimize", "iterations"),
    ("solver.splu", "calls"),
    ("solver.splu", "s"),
    ("solver.lu_solve", "calls"),
    ("solver.lu_solve", "s"),
    ("solver.extract_speed", "s"),
    ("solver.choose_weight", "s"),
    ("nonlinearity.validate", "s"),
    ("grid.project_constraint", "calls"),
    ("grid.project_constraint", "s"),
    ("grid.dirichlet", "calls"),
    ("grid.dirichlet", "s"),
    ("grid.translate", "calls"),
    ("grid.translate", "s"),
    ("grid.energy", "calls"),
    ("grid.energy", "s"),
    ("grid.rearrange_monotone", "calls"),
    ("grid.rearrange_monotone", "s"),
    ("kernels.rearrange_columns", "calls"),
    ("kernels.rearrange_columns", "points"),
    ("kernels.rearrange_columns", "s"),
    ("evolution.step", "calls"),
    ("evolution.step", "s"),
    ("evolution.stability_limit", "calls"),
    ("evolution.stability_limit", "s"),
    ("kernels.tridiag_solve_many", "calls"),
    ("kernels.tridiag_solve_many", "points"),
    ("kernels.tridiag_solve_many", "s"),
    ("grid.trace_crossing", "calls"),
    ("grid.trace_crossing", "s"),
    ("nonlinearity.f", "points"),
    ("nonlinearity.f", "s"),
    ("nonlinearity.f_prime", "points"),
    ("nonlinearity.f_prime", "s"),
    ("explicit_front.front_nonlinearity", "s"),
    ("explicit_front.sample_front", "s"),
    ("explicit_front.front_profile", "calls"),
    ("explicit_front.front_profile", "s"),
    ("explicit_front.explicit_nonlinearity", "calls"),
    ("explicit_front.explicit_nonlinearity", "s"),
    ("explicit_front.invert_trace", "s"),
    ("explicit_front.kernel_mass", "s"),
    ("kernels.k01_scaled", "calls"),
    ("kernels.k01_scaled", "points"),
    ("kernels.k01_scaled", "s"),
    ("specfun.k_ratio", "points"),
    ("specfun.k_ratio", "s"),
    ("solver.pde_residual", "s"),
]


def metric_name(span: str, stat: str) -> str:
    return f"{span}.{stat}"


def metric_unit(stat: str) -> str:
    return "s" if stat == "s" else "count"


class _TracedLU:
    """Stands in for a SuperLU factor so that its `solve` is a span."""

    def __init__(self, tracer: "Tracer", lu):
        self.solve = tracer.wrap("solver.lu_solve", lu.solve)


class Tracer:
    """In-memory span recorder.  Spans are recorded only while `round` is set."""

    def __init__(self):
        self.round = None
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rounds: list = []
        self.points: list[int] = []
        self.counters: dict = defaultdict(int)  # (round, name) -> total
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def wrap(self, name: str, fn, points=_points_none, on_result=None):
        def traced(*args, **kwargs):
            if self.round is None:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.rounds.append(self.round)
            self.points.append(points(args))
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def install(self) -> None:
        """Patch every boundary in PATCHES, plus the sparse LU the solver uses."""
        for module, attr, name, points in PATCHES:
            mod = importlib.import_module(f"frontforge.{module}")
            on_result = self._count_iterations if name == "solver.minimize" else None
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), points, on_result))
        spla = importlib.import_module("frontforge.solver").spla
        splu = spla.splu
        spla.splu = self.wrap("solver.splu", lambda *a, **k: _TracedLU(self, splu(*a, **k)))

    def _count_iterations(self, result) -> None:
        self.counters[(self.round, "solver.minimize.iterations")] += int(result.iterations)

    def wrap_law(self, nl):
        """A copy of a reaction law whose f and f_prime record spans."""
        return dataclasses.replace(
            nl,
            f=self.wrap("nonlinearity.f", nl.f, _points_first),
            f_prime=self.wrap("nonlinearity.f_prime", nl.f_prime, _points_first),
        )

    def begin(self, round_id) -> int:
        """Open the root span of a round (or of the setup)."""
        self.round = round_id
        idx = len(self.names)
        self.names.append("round")
        self.parents.append(-1)
        self.rounds.append(round_id)
        self.points.append(0)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self.round = None

    def _self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def layer_metrics(self) -> dict:
        """Per-layer figures for the setup plus one round.

        Each figure is the setup's total plus the median over the timed
        rounds; counts are equal in every round, so their median is exact.
        """
        own = self._self_times()
        per: dict = defaultdict(lambda: defaultdict(float))  # round -> key -> value
        for i, name in enumerate(self.names):
            bucket = per[self.rounds[i]]
            bucket[(name, "calls")] += 1
            bucket[(name, "points")] += self.points[i]
            bucket[(name, "s")] += own[i]
        for (round_id, key), value in self.counters.items():
            name, stat = key.rsplit(".", 1)
            per[round_id][(name, stat)] += value
        setup = per.get("setup", {})
        rounds = [per[r] for r in sorted(k for k in per if k != "setup")]
        out = {}
        for name, stat in LAYER_METRICS:
            key = (name, stat)
            if rounds:
                values = [r.get(key, 0.0) for r in rounds]
                mid = statistics.median_low(values) if stat != "s" else statistics.median(values)
            else:
                mid = 0.0
            value = setup.get(key, 0.0) + mid
            out[metric_name(name, stat)] = int(value) if stat != "s" else float(value)
        return out

    def write(self, path: str, header: dict) -> None:
        """Write the header and then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": round(self.starts[i] - self._t0, 9),
                            "end": round(self.ends[i] - self._t0, 9),
                            "parent": self.parents[i],
                            "round": self.rounds[i],
                            "points": self.points[i],
                        }
                    )
                    + "\n"
                )
