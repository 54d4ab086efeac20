"""Command-line surface: reproducible front experiments from config files.

Subcommands:

    explicit-front --t T --c C     closed-form trace, derivative, reaction table
    solve --config F               variational solve, emits a front bundle
    evolve --config F              parabolic run, emits a speed trace
    asymptotics --input trace.csv --c C    tail-law reports from a trace file
    compare --config F1 --config F2        speed-ordering experiment
    verify                         built-in property/corpus suite

Exit codes: 0 success, 1 numerical failure, 2 invalid input.  The
environment variable FRONTFORGE_OUT overrides every output directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

import numpy as np

from . import formats
from .explicit_front import (
    ExplicitFrontParams,
    QuadratureError,
    explicit_front_dy,
    front_nonlinearity,
    front_profile,
)
from .formats import ConfigError, ExperimentConfig
from .grid import NumericalError, TraceProfile
from .nonlinearity import NonlinearityError
from .solver import SolverError, SolverOptions, solve_front


def _cmd_explicit_front(args) -> int:
    params = ExplicitFrontParams(args.t, args.c)
    nl = front_nonlinearity(params)  # rejects a t below LAW_T_MIN before any quadrature
    out = formats.output_dir(args.out)
    ys = np.linspace(args.y_min, args.y_max, args.samples)
    u = front_profile(params, 0.0, ys)
    uy = explicit_front_dy(params, 0.0, ys)
    formats.write_trace_csv(os.path.join(out, "trace.csv"), ys, u, uy)
    ss = np.linspace(0.0, 1.0, args.table + 1)
    formats.write_columns(
        os.path.join(out, "nonlinearity.csv"),
        ["s", "f", "fprime"],
        [ss, np.asarray(nl.f(ss)), np.asarray(nl.f_prime(ss))],
    )
    formats.write_kv(
        os.path.join(out, "meta.txt"),
        {"t": params.t, "c": params.c, "samples": args.samples, "y_min": args.y_min, "y_max": args.y_max},
    )
    print(f"wrote trace.csv, nonlinearity.csv, meta.txt to {out}")
    return 0


def _cmd_solve(args) -> int:
    cfg = formats.parse_config(args.config)
    nl = formats.build_nonlinearity(cfg)
    opts = formats.build_solver_options(cfg)
    sol = solve_front(nl, opts)
    out = formats.output_dir(args.out or cfg.output_dir)
    tdy = np.gradient(sol.trace.values, sol.trace.y_nodes)
    formats.write_trace_csv(os.path.join(out, "trace.csv"), sol.trace.y_nodes, sol.trace.values, tdy)
    formats.write_field_csv(os.path.join(out, "field.csv"), sol.front.spec.xs, sol.front.spec.ys, sol.front.values)
    formats.write_kv(os.path.join(out, "meta.txt"), formats.front_meta(sol))
    print(
        f"c = {sol.speed!r}  (variational estimate {sol.speed_variational!r}, "
        f"lambda_a = {sol.multiplier!r}, I_a = {sol.infimum!r})"
    )
    print(f"wrote trace.csv, field.csv, meta.txt to {out}")
    return 0


def _cmd_evolve(args) -> int:
    from .evolution import EvolveOptions, evolve, measure_speed
    from .front_suite import evolution_grid, step_initial
    from .explicit_front import sample_front
    from .grid import Field

    cfg = formats.parse_config(args.config)
    nl = formats.build_nonlinearity(cfg)
    T = cfg.evolve.get("T", 3.0)
    kind = cfg.evolve.get("initial", "oracle" if cfg.nonlinearity.get("kind") == "explicit" else "step")
    if kind == "oracle":
        params = ExplicitFrontParams(cfg.nonlinearity.get("t", 1.0), cfg.nonlinearity.get("c", 2.0))
        spec = evolution_grid(params.c)
        init = Field(sample_front(params, spec.xs, spec.ys), spec)
    else:
        sol = solve_front(nl, formats.build_solver_options(cfg))
        spec = evolution_grid(sol.speed)
        init = step_initial(spec, y0=0.0)
    eopts = EvolveOptions(dt=cfg.evolve.get("dt"), out_every=cfg.evolve.get("out_every"))
    final, speed_trace = evolve(init, nl, T, eopts)
    out = formats.output_dir(args.out or cfg.output_dir)
    formats.write_speed_trace_csv(os.path.join(out, "speed_trace.csv"), speed_trace.times, speed_trace.level_positions)
    speed = measure_speed(speed_trace)
    formats.write_kv(os.path.join(out, "meta.txt"), {"measured_speed": speed, "T": T, "initial": kind})
    wrote = "speed_trace.csv, meta.txt"
    if args.snapshot:
        formats.write_field_csv(os.path.join(out, "field.csv"), spec.xs, spec.ys, final.field.values)
        wrote += ", field.csv"
    print(f"measured invasion speed = {speed!r}")
    print(f"wrote {wrote} to {out}")
    return 0


def _cmd_asymptotics(args) -> int:
    from .analysis import TAIL_LAWS, fit_decay

    if not (args.c > 0.0 and np.isfinite(args.c)):
        raise ValueError(f"--c must be positive and finite, got {args.c}")
    y, u, uy = formats.read_trace_csv(args.input)
    tr = TraceProfile(y, u)
    tdy = TraceProfile(y, uy)
    out = formats.output_dir(args.out)
    wrote = []
    for side, quantity in TAIL_LAWS:
        try:
            rep = fit_decay(tr, tdy, args.c, side, quantity)
        except ValueError as exc:
            print(f"{side}/{quantity}: skipped ({exc})")
            continue
        name = f"decay_{side}_{quantity}.txt"
        formats.write_kv(os.path.join(out, name), formats.decay_record(rep))
        wrote.append(name)
        print(
            f"{side}/{quantity}: fitted_constant = {rep.fitted_constant!r}, "
            f"sandwich_b = {rep.sandwich_b!r}"
        )
    if not wrote:
        print("no window admitted a fit", file=sys.stderr)
        return 1
    print(f"wrote {', '.join(wrote)} to {out}")
    return 0


def _cmd_compare(args) -> int:
    from .analysis import speed_ordering

    cfg1 = formats.parse_config(args.config[0])
    cfg2 = formats.parse_config(args.config[1])
    nl1 = formats.build_nonlinearity(cfg1)
    nl2 = formats.build_nonlinearity(cfg2)
    res = speed_ordering(nl1, nl2, formats.build_solver_options(cfg1))
    out = formats.output_dir(args.out or cfg1.output_dir)
    formats.write_kv(
        os.path.join(out, "compare.txt"),
        {
            "c1": res.c1,
            "c2": res.c2,
            "ordered": res.ordered,
            "I1": res.infimum1,
            "I2": res.infimum2,
            "variational_ordered": res.variational_ordered,
            "a": res.a,
        },
    )
    print(f"c1 = {res.c1!r}, c2 = {res.c2!r}, ordered = {res.ordered}")
    print(f"I1 = {res.infimum1!r}, I2 = {res.infimum2!r}, variational_ordered = {res.variational_ordered}")
    return 0 if res.ordered and res.variational_ordered else 1


def _verify_checks(seed: int, full: bool):
    """(name, callable) pairs; each callable returns (ok, detail)."""
    from . import verify_suite

    checks = list(verify_suite.fast_checks(seed))
    if full:
        checks += list(verify_suite.slow_checks())
    return checks


def _cmd_verify(args) -> int:
    checks = _verify_checks(args.seed, args.full)

    def run(item):
        name, fn = item
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        return name, ok, detail

    results = [run(item) for item in checks]
    width = max(len(name) for name, _, _ in results)
    failures = 0
    for name, ok, detail in results:
        mark = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{name:<{width}}  {mark}  {detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="frontforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explicit-front", help="emit the closed-form front")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--y-min", type=float, default=-30.0)
    p.add_argument("--y-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=2001)
    p.add_argument("--table", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_explicit_front)

    p = sub.add_parser("solve", help="variational front solve")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("evolve", help="parabolic evolution run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--snapshot", action="store_true", help="also write the final field")
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser("asymptotics", help="tail-law reports from a trace file")
    p.add_argument("--input", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_asymptotics)

    p = sub.add_parser("compare", help="speed ordering of two laws")
    p.add_argument("--config", action="append", required=True, help="give twice: F1 F2")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("verify", help="built-in property suite")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--full", action="store_true", help="include solver-backed checks (minutes)")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare" and len(args.config) != 2:
        print("compare needs exactly two --config files", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (NumericalError, SolverError, QuadratureError, RuntimeError) as exc:
        # ahead of the ValueError branch: NumericalError is a ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1
    except (ConfigError, NonlinearityError, FileNotFoundError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
