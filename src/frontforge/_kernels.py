"""Hot numeric kernels, one implementation each.

The scaled Bessel functions come from scipy.special, imported on first use so
that laws without a Bessel function never load it: `k01_scaled` evaluates
the pair (k0e, k1e) for the callers that need both (the Green kernel G^t,
the implicit law f^t and specfun), `k1_scaled` evaluates k1e alone for the
Poisson kernel P^t, which is most of the closed-form front's cost.  The
batched tridiagonal solve is for a matrix that is symmetric positive
definite once its first and last rows are scaled: LAPACK's dpttrf factors it
once as LDL^T and dpttrs applies the factors to many right-hand sides
(scipy.linalg.lapack).  The weighted rearrangement is numpy: rows that are
already nonincreasing are kept as they are, every other row gets a stable
sort and a cumulative-measure search.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

# ---------------------------------------------------------------------------
# scaled modified Bessel functions: e^s K_0(s), e^s K_1(s)
# ---------------------------------------------------------------------------


def k01_scaled(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^s K_0(s), e^s K_1(s)) for a 1-D positive array; never underflows."""
    from scipy.special import k0e, k1e

    s = np.ascontiguousarray(s, dtype=np.float64)
    return k0e(s), k1e(s)


def k1_scaled(s: np.ndarray) -> np.ndarray:
    """e^s K_1(s) for a 1-D positive array, the same bits as k01_scaled(s)[1]."""
    from scipy.special import k1e

    return k1e(np.ascontiguousarray(s, dtype=np.float64))


# ---------------------------------------------------------------------------
# batched SPD tridiagonal solve (one factored matrix, many right-hand sides)
# ---------------------------------------------------------------------------


def spd_tridiag_factor(d, e):
    """LDL^T factors (D's diagonal, L's subdiagonal) of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e, by one LAPACK
    dpttrf call.  Raises RuntimeError unless the matrix is positive definite."""
    d, e, info = lapack.dpttrf(d, e)
    if info != 0:
        raise RuntimeError(f"tridiagonal matrix is not positive definite (LAPACK dpttrf info = {info})")
    return d, e


def tridiag_solve_many(d, e, end_scale, rhs):
    """Solve T x = b for each column of `rhs`.

    Scaling T's first and last rows by end_scale = (s0, s1) makes it the SPD
    matrix whose `spd_tridiag_factor` is (d, e), so b's end rows are scaled
    alike and one LAPACK dpttrs call applies the factors to all columns.  An
    F-ordered `rhs` such as a transposed C array is overwritten with the
    solution and returned; any other is copied first.
    """
    rhs = np.asfortranarray(rhs, dtype=np.float64)
    rhs[0] *= end_scale[0]
    rhs[-1] *= end_scale[1]
    x, info = lapack.dpttrs(d, e, rhs, overwrite_b=True)
    if info != 0:
        raise RuntimeError(f"tridiagonal solve failed (LAPACK dpttrs info = {info})")
    return x


# ---------------------------------------------------------------------------
# weighted monotone decreasing rearrangement, column by column
# ---------------------------------------------------------------------------


def rearrange_columns(vals, meas, *, out=None):
    """Weighted decreasing rearrangement of each row of `vals` (along axis 1).

    `meas[j]` is the measure of cell j.  The output row is nonincreasing and
    redistributes the input values by quantile resampling at cell midpoints.
    The resampling maps a row that is already nonincreasing onto itself, so
    such rows are copied as they are and only rows with an ascent are
    sorted.  The result goes into `out` when given (it may be `vals` itself:
    rows are independent), else into a new array; `vals` is not changed
    unless it is `out`.
    """
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    meas = np.ascontiguousarray(meas, dtype=np.float64)
    n = vals.shape[1]
    prefix = np.cumsum(meas) - meas
    zeta = prefix + 0.5 * meas
    if out is None:
        out = vals.copy()
    elif out is not vals:
        np.copyto(out, vals)
    for i in np.flatnonzero((vals[:, 1:] > vals[:, :-1]).any(axis=1)):
        idx = np.argsort(-vals[i], kind="stable")
        sv = vals[i, idx]
        cum = np.cumsum(meas[idx])
        k = np.searchsorted(cum, zeta, side="left")
        out[i] = sv[np.minimum(k, n - 1)]
    return out
