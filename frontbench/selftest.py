#!/usr/bin/env python3
"""Feed every round check a wrong answer and confirm that it rejects it.

A check that accepts a wrong answer would let a broken program pass the
benchmark, so `run.py` runs this before every measurement and refuses to
measure if any case misbehaves.  It can also be run on its own:

    python3 frontbench/selftest.py
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402


def _front() -> np.ndarray:
    """A valid front: in (0, 1), nonincreasing in y (axis 1)."""
    y = np.linspace(-4.0, 4.0, 65)
    x = np.linspace(0.0, 2.0, 9)
    return 0.5 * (1.0 - np.tanh(y[None, :] + 0.1 * x[:, None]))


def _bumped() -> np.ndarray:
    v = _front()
    v[3, 40] = v[3, 38]  # a rise in y in one column
    return v


# (label, check result on a right answer, check result on a wrong answer)
CASES = [
    ("speed is positive", checks.speed_positive(0.1), checks.speed_positive(-0.1)),
    ("speed is finite", checks.speed_positive(0.1), checks.speed_positive(float("nan"))),
    ("speed estimates agree", checks.speeds_agree(0.1033, 0.1035), checks.speeds_agree(0.1033, 0.1070)),
    (
        "oracle-law speed 2.2 for c = 2",
        checks.speed_near(1.998, 2.0, checks.ORACLE_SPEED_REL),
        checks.speed_near(2.2, 2.0, checks.ORACLE_SPEED_REL),
    ),
    (
        "evolved speed 1.85 for c = 2",
        checks.speed_near(1.97, 2.0, checks.EVOLUTION_SPEED_REL),
        checks.speed_near(1.85, 2.0, checks.EVOLUTION_SPEED_REL),
    ),
    ("field above 1", checks.in_unit_interval(_front()), checks.in_unit_interval(_front() + 0.01)),
    ("field at 0 in the open interval", checks.in_unit_interval(_front(), open_ends=True),
     checks.in_unit_interval(np.clip(_front(), 1e-3, 1.0) - 1e-3, open_ends=True)),
    ("field not monotone", checks.nonincreasing_in_y(_front()), checks.nonincreasing_in_y(_bumped())),
    ("constraint off by 1e-6", checks.constraint_holds(1.0 + 5e-9), checks.constraint_holds(1.0 + 1e-6)),
    ("level outside the window", checks.level_inside(0.5, -14.0, 4.0), checks.level_inside(4.5, -14.0, 4.0)),
    ("residual order of 1", checks.residual_order(4.0e-4, 1.1e-4), checks.residual_order(4.0e-4, 2.0e-4)),
    ("residual is nan", checks.residual_order(4.0e-4, 1.1e-4), checks.residual_order(4.0e-4, float("nan"))),
    ("tail slope -0.98 for -1", checks.endpoint_slope(-0.995, 1.0, 2.0), checks.endpoint_slope(-0.98, 1.0, 2.0)),
    ("kernel mass of 1.001", checks.unit_mass(1.0 - 2e-16), checks.unit_mass(1.001)),
]


def problems() -> list[str]:
    """Every case whose check accepts the wrong answer or rejects the right one."""
    out = []
    for label, right, wrong in CASES:
        if right is not None:
            out.append(f"{label}: right answer rejected ({right})")
        if wrong is None:
            out.append(f"{label}: wrong answer accepted")
    return out


def main() -> int:
    bad = problems()
    for line in bad:
        print(f"FAIL {line}")
    print(f"selftest: {len(CASES)} cases, {len(bad)} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
