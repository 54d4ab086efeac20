"""Plain-text persistence: config files, trace/field CSV, metadata records.

Config files are flat `key = value` lines with `#` comments; unknown keys
are rejected.  All floating-point output is written with shortest
round-trip formatting (repr) and LF line endings, so identical runs produce
byte-identical files, apart from the wall-clock phase seconds of a solve's
run record in its metadata.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np


class ConfigError(ValueError):
    pass


_NL_KEYS = {"nonlinearity.kind", "nonlinearity.alpha", "nonlinearity.beta", "nonlinearity.amplitude", "nonlinearity.t", "nonlinearity.c"}
_GRID_KEYS = {"grid.nx", "grid.ny", "grid.x_span", "grid.y_span_down", "grid.y_span_up"}
_SOLVER_KEYS = {"solver.tol", "solver.a", "solver.seed", "solver.refine"}
_EVOLVE_KEYS = {"evolve.T", "evolve.dt", "evolve.out_every", "evolve.initial"}
_MISC_KEYS = {"output.dir"}
_ALL_KEYS = _NL_KEYS | _GRID_KEYS | _SOLVER_KEYS | _EVOLVE_KEYS | _MISC_KEYS

_INT_KEYS = {"grid.nx", "grid.ny", "solver.refine"}
_STR_KEYS = {"nonlinearity.kind", "solver.seed", "evolve.initial", "output.dir"}
# checked to be positive and finite at parse time
_POSITIVE_KEYS = (
    "nonlinearity.amplitude",
    "grid.x_span",
    "grid.y_span_down",
    "grid.y_span_up",
    "solver.tol",
    "solver.a",
    "evolve.T",
    "evolve.dt",
    "evolve.out_every",
)


@dataclass
class ExperimentConfig:
    """Parsed experiment description; see `parse_config` for the key set."""

    nonlinearity: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    evolve: dict = field(default_factory=dict)
    output_dir: str = "."


def parse_config_text(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in _STR_KEYS:
            parsed: object = value
        elif key in _INT_KEYS:
            try:
                parsed = int(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} needs an integer") from exc
        else:
            try:
                parsed = float(value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key} needs a number") from exc
        section, _, name = key.partition(".")
        if key == "output.dir":
            cfg.output_dir = str(parsed)
        else:
            getattr(cfg, section)[name] = parsed
    _check_ranges(cfg)
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    with open(path, "r") as fh:
        return parse_config_text(fh.read())


def _check_ranges(cfg: ExperimentConfig) -> None:
    from .explicit_front import LAW_T_MIN
    from .solver import SolverOptions

    nl = cfg.nonlinearity
    kind = nl.get("kind")
    if kind is not None and kind not in ("bistable_cubic", "combustion", "explicit"):
        raise ConfigError(f"nonlinearity.kind must be bistable_cubic|combustion|explicit, got {kind!r}")
    if "alpha" in nl and not 0.0 < nl["alpha"] < 0.5:
        raise ConfigError("nonlinearity.alpha must lie in (0, 1/2)")
    if "beta" in nl and not 0.0 < nl["beta"] < 1.0:
        raise ConfigError("nonlinearity.beta must lie in (0, 1)")
    if "t" in nl and not nl["t"] >= LAW_T_MIN:
        raise ConfigError(f"nonlinearity.t must be at least {LAW_T_MIN:g}, the smallest the law table resolves")
    if "c" in nl and nl["c"] <= 0.0:
        raise ConfigError("nonlinearity.c must be positive")
    for key, lo in (("nx", 16), ("ny", 64)):
        if key in cfg.grid and cfg.grid[key] < lo:
            raise ConfigError(f"grid.{key} must be at least {lo}")
    for key in _POSITIVE_KEYS:
        section, _, name = key.partition(".")
        value = getattr(cfg, section).get(name)
        if value is not None and not 0.0 < value < math.inf:
            raise ConfigError(f"{key} must be positive and finite")
    refine = cfg.solver.get("refine", 0)
    if not 0 <= refine <= 3:
        raise ConfigError("solver.refine must lie in 0..3")
    # the solver's preconditioner holds dense (nx+1) x (nx+1) matrices
    for key, cap in (("nx", 2048), ("ny", 8192)):
        if cfg.grid.get(key, getattr(SolverOptions, key)) << refine > cap:
            raise ConfigError(f"grid.{key} * 2^solver.refine must be at most {cap}")
    if "initial" in cfg.evolve and cfg.evolve["initial"] not in ("oracle", "step"):
        raise ConfigError("evolve.initial must be oracle|step")
    if "seed" in cfg.solver and cfg.solver["seed"] not in ("exponential", "kernel"):
        raise ConfigError("solver.seed must be exponential|kernel")


def build_nonlinearity(cfg: ExperimentConfig):
    from .explicit_front import ExplicitFrontParams, front_nonlinearity
    from .nonlinearity import make_bistable_cubic, make_combustion

    nl = cfg.nonlinearity
    kind = nl.get("kind")
    if kind == "bistable_cubic":
        return make_bistable_cubic(nl.get("alpha", 0.25))
    if kind == "combustion":
        return make_combustion(nl.get("beta", 0.3), nl.get("amplitude", 1.0))
    if kind == "explicit":
        return front_nonlinearity(ExplicitFrontParams(nl.get("t", 1.0), nl.get("c", 2.0)))
    raise ConfigError("config is missing nonlinearity.kind")


def build_solver_options(cfg: ExperimentConfig):
    from .solver import SolverOptions

    kw = {}
    for key in _GRID_KEYS | _SOLVER_KEYS:
        section, _, name = key.partition(".")
        if name in getattr(cfg, section):
            kw[name] = getattr(cfg, section)[name]
    return SolverOptions(**kw)


# -- repr-formatted text files -------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_columns(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("columns must have equal length")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(_fmt(col[i]) for col in columns) + "\n")


def read_columns(path: str, expected_header: list[str] | None = None):
    with open(path, "r") as fh:
        header = fh.readline().strip().split(",")
        if expected_header is not None and header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header}, got {header}")
        data = [[] for _ in header]
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            parts = raw.split(",")
            if len(parts) != len(header):
                raise ValueError(f"{path}: ragged row {raw!r}")
            for slot, part in zip(data, parts):
                slot.append(float(part))
    return header, [np.asarray(col) for col in data]


def write_trace_csv(path: str, y, u, uy) -> None:
    write_columns(path, ["y", "u", "uy"], [np.asarray(y), np.asarray(u), np.asarray(uy)])


def read_trace_csv(path: str):
    _, cols = read_columns(path, ["y", "u", "uy"])
    return cols[0], cols[1], cols[2]


def write_field_csv(path: str, xs, ys, values) -> None:
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    xcol = np.repeat(xs, len(ys))
    ycol = np.tile(ys, len(xs))
    write_columns(path, ["x", "y", "u"], [xcol, ycol, np.asarray(values).ravel()])


def write_speed_trace_csv(path: str, times, levels) -> None:
    write_columns(path, ["time", "level_y"], [np.asarray(times), np.asarray(levels)])


def read_speed_trace_csv(path: str):
    _, cols = read_columns(path, ["time", "level_y"])
    return cols[0], cols[1]


def write_kv(path: str, items: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        for key, val in items.items():
            fh.write(f"{key} = {_fmt(val) if isinstance(val, (int, float, np.floating, np.integer, bool)) else val}\n")


def read_kv(path: str) -> dict:
    out: dict = {}
    with open(path, "r") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def front_meta(sol) -> dict:
    spec = sol.front.spec
    return {
        "c": sol.speed,
        "mu": sol.mu,
        "lambda_a": sol.multiplier,
        "I_a": sol.infimum,
        "a": sol.a,
        "nx": spec.nx,
        "ny": spec.ny,
        "x_max": spec.x_max,
        "y_min": spec.y_min,
        "y_max": spec.y_max,
        "interior_residual": sol.interior_residual,
        "boundary_residual": sol.boundary_residual,
        "c_variational": sol.speed_variational,
        "stop": sol.record.stop,
        "burst_steps": sol.record.burst_steps,
        "newton_steps": sol.record.newton_steps,
        "rho_history": " ".join(_fmt(r) for r in sol.record.rho_history),
        "trials": sol.record.trials,
        "krylov_iterations": sol.record.krylov_iterations,
        "build_s": sol.record.build_s,
        "burst_s": sol.record.burst_s,
        "newton_s": sol.record.newton_s,
        "extension_s": sol.record.extension_s,
    }


def decay_record(report) -> dict:
    return {
        "side": report.side,
        "quantity": report.quantity,
        "fitted_constant": report.fitted_constant,
        "sandwich_b": report.sandwich_b,
        "window_lo": report.window[0],
        "window_hi": report.window[1],
        "ratio_min": report.ratio_min,
        "ratio_max": report.ratio_max,
    }


def output_dir(cfg_dir: str | None) -> str:
    """Resolve the output directory: FRONTFORGE_OUT overrides everything."""
    out = os.environ.get("FRONTFORGE_OUT") or cfg_dir or "."
    os.makedirs(out, exist_ok=True)
    return out
