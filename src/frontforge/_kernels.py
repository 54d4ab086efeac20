"""Hot numeric kernels, one implementation each.

The scaled Bessel functions come from scipy.special, imported on first use so
that laws without a Bessel function never load it: `k01_scaled` evaluates
the pair (k0e, k1e) for the callers that need both (the Green kernel G^t,
the implicit law f^t and specfun), `k1_scaled` evaluates k1e alone for the
Poisson kernel P^t, which is most of the closed-form front's cost.  The
batched tridiagonal solve is for a matrix that is symmetric positive
definite once its first and last rows are scaled: LAPACK's dpttrf factors it
once as LDL^T and dpttrs applies the factors to many right-hand sides
(scipy.linalg.lapack): the evolution's y-sweep at every step, and once per
run the identity, whose solution is the x-sweep's inverse.  The weighted
rearrangement of a trace is numpy: a stable sort and a cumulative-measure
search.
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
# weighted monotone decreasing rearrangement of one trace
# ---------------------------------------------------------------------------


def rearrange_columns(u, meas):
    """Weighted decreasing rearrangement of the 1-D trace `u`, in place.

    `meas[j]` is the measure of cell j.  The output is nonincreasing and
    redistributes the input values by quantile resampling at cell
    midpoints: a stable sort and a cumulative-measure search, which map a
    trace that is already nonincreasing onto itself.  Returns `u`.
    """
    zeta = (np.cumsum(meas) - meas) + 0.5 * meas
    idx = np.argsort(-u, kind="stable")
    k = np.searchsorted(np.cumsum(meas[idx]), zeta, side="left")
    u[:] = u[idx][np.minimum(k, u.size - 1)]
    return u
