"""A fixed unit of interpreter and small-array numpy work that gauges machine speed.

On a shared machine the same round can take 0.29 s at one moment and 0.53 s
a minute later, because the machine itself runs faster and slower.  Within
one moment, the round time and the time of this fixed unit move together,
so their ratio holds steady where the raw time does not (README.md has the
measurements).  The benchmark therefore times this unit right before and
right after every round and every set-up, and reports times as

    REFERENCE_S * time / (median time of the unit beside it)

that is, in seconds of a machine on which the unit takes REFERENCE_S.  The
unit is the benchmark's own code and touches no frontforge code, so a change
to frontforge cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: median time of one unit on the machine the bounds were set on
#: (2-core Xeon at 2.0 GHz, Python 3.11, numpy 2.4, one BLAS thread)
REFERENCE_S = 0.012
#: units timed on each side of a round or a set-up
REPS = 5

_A = np.random.default_rng(0).standard_normal((64, 64))


def _unit() -> float:
    acc = 0.0
    for i in range(3000):
        acc += i * 0.5
    b = _A
    for _ in range(200):
        b = np.sin(b) * 0.5 + _A[0]
    return acc + float(b[0, 0])


def sample(reps: int = REPS) -> list[float]:
    """Wall times of `reps` consecutive units."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _unit()
        out.append(time.perf_counter() - t0)
    return out


def scaled(seconds: float, unit_times: list[float]) -> float:
    """`seconds` expressed in seconds of the reference machine."""
    return REFERENCE_S * seconds / statistics.median(unit_times)
