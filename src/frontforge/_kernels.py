"""Hot numeric kernels, one implementation each.

The scaled Bessel pair comes from scipy.special (k0e, k1e), the batched
tridiagonal solve from LAPACK's dgtsv (scipy.linalg.lapack), and the
weighted rearrangement is numpy: a stable sort and a cumulative-measure
search per row.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack
from scipy.special import k0e, k1e

# ---------------------------------------------------------------------------
# scaled modified Bessel functions: e^s K_0(s), e^s K_1(s)
# ---------------------------------------------------------------------------


def k01_scaled(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^s K_0(s), e^s K_1(s)) for a 1-D positive array; never underflows."""
    s = np.ascontiguousarray(s, dtype=np.float64)
    return k0e(s), k1e(s)


# ---------------------------------------------------------------------------
# batched tridiagonal solve (one matrix, many right-hand sides)
# ---------------------------------------------------------------------------


def tridiag_solve_many(dl, d, du, rhs):
    """Solve T x = b for each column of `rhs`.

    T is tridiagonal with sub/main/super diagonals dl, d, du (dl[0] and
    du[-1] are ignored).  One LAPACK dgtsv call (Gaussian elimination with
    partial pivoting) solves all columns; an F-ordered `rhs` such as a
    transposed C array is passed to it without a reordering copy.  Raises
    RuntimeError if T is singular.
    """
    dl = np.asarray(dl, dtype=np.float64)
    du = np.asarray(du, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    *_, x, info = lapack.dgtsv(dl[1:], d, du[:-1], rhs)
    if info != 0:
        raise RuntimeError(f"tridiagonal solve failed (LAPACK dgtsv info = {info})")
    return x


# ---------------------------------------------------------------------------
# weighted monotone decreasing rearrangement, column by column
# ---------------------------------------------------------------------------


def rearrange_columns(vals, meas):
    """Weighted decreasing rearrangement of each row of `vals` (along axis 1).

    `meas[j]` is the measure of cell j.  The output row is nonincreasing and
    redistributes the input values by quantile resampling at cell midpoints:
    a row that is already nonincreasing is returned unchanged.
    """
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    meas = np.ascontiguousarray(meas, dtype=np.float64)
    ncol, n = vals.shape
    prefix = np.cumsum(meas) - meas
    zeta = prefix + 0.5 * meas
    out = np.empty_like(vals)
    for i in range(ncol):
        idx = np.argsort(-vals[i], kind="stable")
        sv = vals[i, idx]
        cum = np.cumsum(meas[idx])
        k = np.searchsorted(cum, zeta, side="left")
        out[i] = sv[np.minimum(k, n - 1)]
    return out
