#!/usr/bin/env python3
"""Run `solve_front` over a fixed sweep of reaction laws and print each outcome.

The sweep is 124 solves: the cubic law at alpha in {0.02, 0.05, 0.1, 0.15,
..., 0.45, 0.48}, combustion at beta in {0.1, 0.3, 0.5, 0.7} times amplitude
in {0.5, 1, 3}, and the closed-form oracle law at t in {0.125, 0.5, 1, 2.5}
times c in {0.5, 2}, each at `refine` 0 and 1 with the exponential and the
kernel seed.  A line gives the law, the refinement and the seed, then the
outcome -- the speed in `repr`, or the `SolverError` class and its message
with every number masked as `#` -- and the solve's stop reason, Newton steps,
MINRES iterations and trace trials (from `MinimizerResult.record`; `-` when
`minimize` raised before returning).  Two checkouts that print the same
lines kept every outcome and count:

    python3 benchmarks/sweep_solves.py
"""

from __future__ import annotations

import os
import re
import sys

# the checkout's sources, so the script runs without an installed package
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

CUBIC = (0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.48)
COMBUSTION = [(beta, amp) for beta in (0.1, 0.3, 0.5, 0.7) for amp in (0.5, 1.0, 3.0)]
ORACLE = [(t, c) for t in (0.125, 0.5, 1.0, 2.5) for c in (0.5, 2.0)]
RECORD = ("stop", "newton_steps", "krylov_iterations", "trials")
_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def laws():
    """(label, law) for the sweep's 31 reaction laws."""
    from frontforge.explicit_front import ExplicitFrontParams, front_nonlinearity
    from frontforge.nonlinearity import make_bistable_cubic, make_combustion

    for alpha in CUBIC:
        yield f"cubic {alpha:g}", make_bistable_cubic(alpha)
    for beta, amp in COMBUSTION:
        yield f"combustion {beta:g} {amp:g}", make_combustion(beta, amp)
    for t, c in ORACLE:
        yield f"oracle {t:g} {c:g}", front_nonlinearity(ExplicitFrontParams(t, c))


def run_sweep() -> list[dict]:
    from frontforge import solver

    minimize, results = solver.minimize, []

    def kept(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    # solve_front calls minimize through the module, so its result is kept
    # even when extract_speed then refuses it
    solver.minimize = kept
    rows = []
    try:
        for label, law in laws():
            for refine in (0, 1):
                for seed in ("exponential", "kernel"):
                    results.clear()
                    opts = solver.SolverOptions(refine=refine, seed=seed)
                    try:
                        outcome, converged = repr(solver.solve_front(law, opts).speed), True
                    except solver.SolverError as exc:
                        outcome, converged = f"{type(exc).__name__}: {_NUMBER.sub('#', str(exc))}", False
                    record = results[0].record if results else None
                    rows.append(
                        {"law": label, "refine": refine, "seed": seed, "outcome": outcome, "converged": converged}
                        | {key: getattr(record, key, None) for key in RECORD}
                    )
    finally:
        solver.minimize = minimize
    return rows


def main() -> None:
    rows = run_sweep()
    for row in rows:
        counts = " ".join("-" if row[key] is None else str(row[key]) for key in RECORD)
        print(f"{row['law']:20s} refine {row['refine']} {row['seed']:11s} {row['outcome']}  [{counts}]")
    converged = sum(row["converged"] for row in rows)
    print(f"{len(rows)} solves, {converged} converged, {len(rows) - converged} SolverError")


if __name__ == "__main__":
    main()
