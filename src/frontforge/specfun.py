"""Modified Bessel functions of the second kind K_0, K_1, K_2.

K_0 and K_1 come from scipy.special's exponentially scaled k0e and k1e
(through _kernels.k01_scaled); K_2 always comes from the exact recurrence
K_2 = K_0 + (2/s) K_1.

Relative accuracy is about 1e-14 over s in [1e-6, 700]; beyond the underflow
cutoff the unscaled values are reported as exact 0 together with a flag.
Scaled values e^s K_nu(s) are available for any positive s and never
underflow.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import k01_scaled

VALID_ORDERS = (0, 1, 2)

#: above this argument e^{-s}/sqrt(s) leaves the normal float64 range
UNDERFLOW_CUTOFF = 700.0

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def _check_order(order: int) -> int:
    if order not in VALID_ORDERS:
        raise ValueError(f"order must be one of {VALID_ORDERS}, got {order!r}")
    return int(order)


def _check_positive(s):
    arr = np.asarray(s, dtype=np.float64)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("argument must be positive and finite")
    return arr


def bessel_k_scaled(order: int, s):
    """e^s K_order(s); stable for arbitrarily large positive s."""
    _check_order(order)
    arr = _check_positive(s)
    flat = np.atleast_1d(arr).ravel()
    k0, k1 = k01_scaled(flat)
    if order == 0:
        out = k0
    elif order == 1:
        out = k1
    else:
        out = k0 + 2.0 * k1 / flat
    out = out.reshape(np.shape(arr))
    return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out


def bessel_k_flagged(order: int, s):
    """(K_order(s), underflowed).  Values past the cutoff are exact 0."""
    _check_order(order)
    arr = _check_positive(s)
    scaled = bessel_k_scaled(order, arr)
    under = arr > UNDERFLOW_CUTOFF
    value = np.where(under, 0.0, np.asarray(scaled) * np.exp(-np.minimum(arr, UNDERFLOW_CUTOFF)))
    if np.isscalar(s) or np.ndim(s) == 0:
        return float(value), bool(under)
    return value, under


def bessel_k(order: int, s):
    """K_order(s) for s > 0; returns 0 past the underflow cutoff."""
    value, _ = bessel_k_flagged(order, s)
    return value


def bessel_k_asymptotic(order: int, s):
    """Leading-order large-s value sqrt(pi/2) s^{-1/2} e^{-s}, all orders."""
    _check_order(order)
    arr = _check_positive(s)
    value = SQRT_HALF_PI * np.exp(-arr) / np.sqrt(arr)
    return float(value) if np.isscalar(s) or np.ndim(s) == 0 else value


def k_ratio(s):
    """(K_0 + K_2)/(2 K_1); decreasing, ~1/s at 0+, ~1 + 1/(2s) at infinity."""
    arr = _check_positive(s)
    flat = np.atleast_1d(arr).ravel()
    k0, k1 = k01_scaled(flat)
    # with K_2 = K_0 + (2/s) K_1 the ratio collapses to K_0/K_1 + 1/s
    out = k0 / k1 + 1.0 / flat
    out = out.reshape(np.shape(arr))
    return float(out) if np.isscalar(s) or np.ndim(s) == 0 else out
