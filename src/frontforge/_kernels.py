"""Hot numeric kernels.

The scaled Bessel pair comes from scipy.special (k0e, k1e).  The batched
tridiagonal solve and the weighted rearrangement carry a numba fast path
with a pure-numpy fallback.  Set FRONTFORGE_NUMBA=0 in the environment to
force the numpy path (useful for debugging and for the benchmark in
benchmarks/bench_kernels.py).  Both paths implement identical arithmetic;
results agree to the last few ulps.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.special import k0e, k1e

_env = os.environ.get("FRONTFORGE_NUMBA", "1").strip().lower()
_want_numba = _env not in ("0", "false", "off", "no")

if _want_numba:
    try:
        from numba import njit, prange

        USING_NUMBA = True
    except ImportError:  # pragma: no cover - numba is an optional extra
        USING_NUMBA = False
else:
    USING_NUMBA = False

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


def _tridiag_numpy(dl, d, du, rhs):
    n, m = rhs.shape
    cp = np.empty(n)
    x = np.empty_like(rhs)
    cp[0] = du[0] / d[0]
    x[0] = rhs[0] / d[0]
    for i in range(1, n):
        den = d[i] - dl[i] * cp[i - 1]
        cp[i] = du[i] / den if i < n - 1 else 0.0
        x[i] = (rhs[i] - dl[i] * x[i - 1]) / den
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


if USING_NUMBA:

    @njit(cache=True, parallel=True)
    def _tridiag_numba(dl, d, du, rhs):
        n, m = rhs.shape
        cp = np.empty(n)
        cp[0] = du[0] / d[0]
        for i in range(1, n - 1):
            cp[i] = du[i] / (d[i] - dl[i] * cp[i - 1])
        x = np.empty_like(rhs)
        for k in prange(m):
            x[0, k] = rhs[0, k] / d[0]
            for i in range(1, n):
                den = d[i] - dl[i] * cp[i - 1]
                x[i, k] = (rhs[i, k] - dl[i] * x[i - 1, k]) / den
            for i in range(n - 2, -1, -1):
                x[i, k] -= cp[i] * x[i + 1, k]
        return x


def tridiag_solve_many(dl, d, du, rhs):
    """Solve T x = b for each column of `rhs`.

    T is tridiagonal with sub/main/super diagonals dl, d, du (dl[0] and
    du[-1] are ignored).  All columns share the same matrix, so the
    elimination coefficients are computed once.
    """
    dl = np.ascontiguousarray(dl, dtype=np.float64)
    d = np.ascontiguousarray(d, dtype=np.float64)
    du = np.ascontiguousarray(du, dtype=np.float64)
    rhs = np.ascontiguousarray(rhs, dtype=np.float64)
    if USING_NUMBA:
        return _tridiag_numba(dl, d, du, rhs)
    return _tridiag_numpy(dl, d, du, rhs)


# ---------------------------------------------------------------------------
# weighted monotone decreasing rearrangement, column by column
# ---------------------------------------------------------------------------


def _rearrange_numpy(vals, meas):
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


if USING_NUMBA:

    @njit(cache=True, parallel=True)
    def _rearrange_numba(vals, meas):
        ncol, n = vals.shape
        zeta = np.empty(n)
        acc = 0.0
        for j in range(n):
            zeta[j] = acc + 0.5 * meas[j]
            acc += meas[j]
        out = np.empty_like(vals)
        for i in prange(ncol):
            idx = np.argsort(-vals[i], kind="mergesort")
            cum = np.empty(n)
            c = 0.0
            for j in range(n):
                c += meas[idx[j]]
                cum[j] = c
            for j in range(n):
                k = np.searchsorted(cum, zeta[j])
                if k >= n:
                    k = n - 1
                out[i, j] = vals[i, idx[k]]
        return out


def rearrange_columns(vals, meas):
    """Weighted decreasing rearrangement of each row of `vals` (along axis 1).

    `meas[j]` is the measure of cell j.  The output row is nonincreasing and
    redistributes the input values by quantile resampling at cell midpoints:
    a row that is already nonincreasing is returned unchanged.
    """
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    meas = np.ascontiguousarray(meas, dtype=np.float64)
    if USING_NUMBA:
        return _rearrange_numba(vals, meas)
    return _rearrange_numpy(vals, meas)
