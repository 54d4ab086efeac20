import json
import os
import subprocess
import sys

import numpy as np
import pytest

from frontforge import _kernels
from oracles import bessel_k_scaled_quadrature

RNG = np.random.default_rng(12)


def test_tridiag_matches_dense_solve():
    n, m = 60, 9
    dl = RNG.uniform(-1.0, -0.2, n)
    du = RNG.uniform(-1.0, -0.2, n)
    d = np.abs(dl) + np.abs(du) + RNG.uniform(1.0, 2.0, n)
    rhs = RNG.standard_normal((n, m))
    x = _kernels.tridiag_solve_many(dl, d, du, rhs)
    dense = np.diag(d) + np.diag(du[:-1], 1) + np.diag(dl[1:], -1)
    ref = np.linalg.solve(dense, rhs)
    np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-12)


def test_rearrange_preserves_weighted_distribution():
    vals = RNG.uniform(0.0, 1.0, size=(5, 300))
    meas = np.exp(np.linspace(-6.0, 2.0, 300))
    out = _kernels.rearrange_columns(vals, meas)
    assert np.all(np.diff(out, axis=1) <= 0.0)
    for thr in (0.2, 0.5, 0.8):
        m0 = np.sum(np.where(vals > thr, meas[None, :], 0.0), axis=1)
        m1 = np.sum(np.where(out > thr, meas[None, :], 0.0), axis=1)
        np.testing.assert_allclose(m0, m1, atol=1.2 * meas.max())


def test_k01_scaled_matches_quadrature_oracle():
    s = np.geomspace(1e-6, 700.0, 61)
    k0, k1 = _kernels.k01_scaled(s)
    for k, ref in ((k0, 0), (k1, 1)):
        want = [bessel_k_scaled_quadrature(ref, float(v)) for v in s]
        np.testing.assert_allclose(k, want, rtol=1e-13, atol=0.0)


def test_bessel_core_branches_join_smoothly():
    # values straddling s = 2 (scipy's series/Chebyshev switch) and s = 8
    for s0 in (2.0, 8.0):
        lo, hi = _kernels.k01_scaled(np.array([s0 * (1 - 1e-12), s0 * (1 + 1e-12)]))[0]
        assert lo == pytest.approx(hi, rel=1e-11)


def _run_fallback_probe() -> dict:
    """Evaluate the kernels with numba disabled in a fresh interpreter."""
    code = (
        "import json, numpy as np\n"
        "from frontforge import _kernels\n"
        "rng = np.random.default_rng(12)\n"
        "s = rng.uniform(1e-3, 500.0, 2000)\n"
        "k0, k1 = _kernels.k01_scaled(s)\n"
        "dl = rng.uniform(-1.0, -0.2, 40); du = rng.uniform(-1.0, -0.2, 40)\n"
        "d = np.abs(dl) + np.abs(du) + rng.uniform(1.0, 2.0, 40)\n"
        "rhs = rng.standard_normal((40, 5))\n"
        "x = _kernels.tridiag_solve_many(dl, d, du, rhs)\n"
        "vals = rng.uniform(0.0, 1.0, (4, 100))\n"
        "meas = np.exp(np.linspace(-4.0, 2.0, 100))\n"
        "out = _kernels.rearrange_columns(vals, meas)\n"
        "print(json.dumps({'numba': _kernels.USING_NUMBA,\n"
        "                  'k0': k0.sum(), 'k1': k1.sum(),\n"
        "                  'x': float(np.abs(x).sum()), 'out': float(out.sum())}))\n"
    )
    env = dict(os.environ)
    env["FRONTFORGE_NUMBA"] = "0"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_numpy_fallback_agrees_with_active_path():
    probe = _run_fallback_probe()
    assert probe["numba"] is False
    rng = np.random.default_rng(12)
    s = rng.uniform(1e-3, 500.0, 2000)
    k0, k1 = _kernels.k01_scaled(s)
    assert probe["k0"] == pytest.approx(float(k0.sum()), rel=1e-13)
    assert probe["k1"] == pytest.approx(float(k1.sum()), rel=1e-13)
    dl = rng.uniform(-1.0, -0.2, 40)
    du = rng.uniform(-1.0, -0.2, 40)
    d = np.abs(dl) + np.abs(du) + rng.uniform(1.0, 2.0, 40)
    rhs = rng.standard_normal((40, 5))
    x = _kernels.tridiag_solve_many(dl, d, du, rhs)
    assert probe["x"] == pytest.approx(float(np.abs(x).sum()), rel=1e-12)
    vals = rng.uniform(0.0, 1.0, (4, 100))
    meas = np.exp(np.linspace(-4.0, 2.0, 100))
    out = _kernels.rearrange_columns(vals, meas)
    assert probe["out"] == pytest.approx(float(out.sum()), rel=1e-13)
