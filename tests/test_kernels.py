import os
import subprocess
import sys

import numpy as np
import pytest

from frontforge import _kernels, evolution
from frontforge.grid import GridSpec
from oracles import bessel_k_scaled_quadrature, rearrange_rows_sorted

RNG = np.random.default_rng(12)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _sweep_cases(nx=24, ny=64):
    """The two matrices `evolution._sweep_matrices` builds, each with the
    right-hand side layout the evolution passes: a C-ordered column slice
    (x) and a transpose (y)."""
    rng = np.random.default_rng(5)
    spec = GridSpec(x_max=1.0, y_min=-1.0, y_max=1.0, nx=nx, ny=ny, a=0.5)
    # dt / hx^2 = 3.7: the x-sweep is far from the identity
    x_sweep, y_sweep = evolution._sweep_matrices(spec, 3.7 * spec.hx * spec.hx)
    rhs = rng.standard_normal((nx + 1, ny + 1))[:, 1:ny]
    assert not rhs.flags.c_contiguous and not rhs.flags.f_contiguous
    yield (*x_sweep, rhs)
    rhs = rng.standard_normal((nx + 1, ny + 1)).T
    assert rhs.flags.f_contiguous
    yield (*y_sweep, rhs)


def test_tridiag_matches_dense_solve():
    n, m = 60, 9
    dl = RNG.uniform(-1.0, -0.2, n)
    du = RNG.uniform(-1.0, -0.2, n)
    d = np.abs(dl) + np.abs(du) + RNG.uniform(1.0, 2.0, n)
    rhs = RNG.standard_normal((n, m))
    for dl, d, du, rhs in [(dl, d, du, rhs), *_sweep_cases()]:
        x = _kernels.tridiag_solve_many(dl, d, du, rhs)
        dense = np.diag(d) + np.diag(du[:-1], 1) + np.diag(dl[1:], -1)
        ref = np.linalg.solve(dense, rhs)
        np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-12)


def test_tridiag_singular_system_raises():
    # row 2 is zero, so the matrix is singular
    n = 6
    dl = np.ones(n)
    d = np.full(n, 4.0)
    du = np.ones(n)
    dl[2] = d[2] = du[2] = 0.0
    with pytest.raises(RuntimeError):
        _kernels.tridiag_solve_many(dl, d, du, np.ones((n, 2)))


def test_rearrange_preserves_weighted_distribution():
    vals = RNG.uniform(0.0, 1.0, size=(5, 300))
    meas = np.exp(np.linspace(-6.0, 2.0, 300))
    out = _kernels.rearrange_columns(vals, meas)
    assert np.all(np.diff(out, axis=1) <= 0.0)
    for thr in (0.2, 0.5, 0.8):
        m0 = np.sum(np.where(vals > thr, meas[None, :], 0.0), axis=1)
        m1 = np.sum(np.where(out > thr, meas[None, :], 0.0), axis=1)
        np.testing.assert_allclose(m0, m1, atol=1.2 * meas.max())


def _mixed_rows(n=449):
    """Rows of every shape the rearrangement meets, and which are monotone."""
    rng = np.random.default_rng(21)
    down = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
    plateaus = np.round(down, 1)  # ties in long runs
    inverted = down.copy()
    inverted[[100, 101]] = inverted[[101, 100]]  # one ascent
    front = 1.0 / (1.0 + np.exp(0.05 * (np.arange(n) - 300.0)))
    bumped = front.copy()
    bumped[280:300] += 0.02 * np.sin(np.arange(20))  # a perturbed band
    rows = [
        (down, True),
        (np.linspace(1.0, 0.0, n), True),
        (plateaus, True),
        (np.full(n, 0.3), True),
        (np.zeros(n), True),
        (np.ones(n), True),
        (front, True),
        (inverted, False),
        (plateaus[::-1].copy(), False),
        (bumped, False),
        (rng.uniform(0.0, 1.0, n), False),
        (rng.uniform(0.0, 1.0, n), False),
    ]
    vals = np.array([r for r, _ in rows])
    monotone = np.array([m for _, m in rows])
    assert np.array_equal(monotone, ~np.any(np.diff(vals, axis=1) > 0.0, axis=1))
    return vals, monotone


def test_rearrange_batch_matches_row_by_row_sort():
    vals, monotone = _mixed_rows()
    meas = np.exp(np.linspace(-20.0, 6.0, vals.shape[1]))
    meas[[0, -1]] *= 0.5
    given = vals.copy()
    out = _kernels.rearrange_columns(vals, meas)
    assert np.array_equal(vals, given)  # input untouched
    assert np.array_equal(out, rearrange_rows_sorted(vals, meas))
    assert np.array_equal(out[monotone], given[monotone])
    # into a caller's array, including the input itself
    into = np.empty_like(vals)
    assert _kernels.rearrange_columns(vals, meas, out=into) is into
    assert np.array_equal(into, out)
    assert _kernels.rearrange_columns(vals, meas, out=vals) is vals
    assert np.array_equal(vals, out)


def test_k01_scaled_matches_quadrature_oracle():
    s = np.geomspace(1e-6, 700.0, 61)
    k0, k1 = _kernels.k01_scaled(s)
    for k, ref in ((k0, 0), (k1, 1)):
        want = [bessel_k_scaled_quadrature(ref, float(v)) for v in s]
        np.testing.assert_allclose(k, want, rtol=1e-13, atol=0.0)


def test_k1_scaled_is_the_pairs_k1():
    s = np.concatenate([np.geomspace(1e-6, 700.0, 61), np.random.default_rng(3).uniform(1e-3, 400.0, 997)])
    assert np.array_equal(_kernels.k1_scaled(s), _kernels.k01_scaled(s)[1])


def test_bessel_core_branches_join_smoothly():
    # values straddling s = 2 (scipy's series/Chebyshev switch) and s = 8
    for s0 in (2.0, 8.0):
        lo, hi = _kernels.k01_scaled(np.array([s0 * (1 - 1e-12), s0 * (1 + 1e-12)]))[0]
        assert lo == pytest.approx(hi, rel=1e-11)


def test_import_does_not_load_scipy_special():
    code = "import sys, frontforge; assert 'scipy.special' not in sys.modules, 'loaded'"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
