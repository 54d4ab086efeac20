import os
import subprocess
import sys

import numpy as np
import pytest

from frontforge import _kernels, evolution
from frontforge.front_suite import evolution_grid
from frontforge.grid import GridSpec
from oracles import bessel_k_scaled_quadrature, rearrange_rows_sorted

RNG = np.random.default_rng(12)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _sweep_cases(nx=24, ny=64):
    """The two sweeps `evolution._sweep_matrices` builds, each as the solve a
    step applies, with the PDE matrix it stands for and a right-hand side in
    the layout the step passes: a C-ordered copy of the interior columns,
    which the x-inverse multiplies (x), and the transpose of a C array, which
    dpttrs solves in place (y).  Each case is (solve, dense PDE matrix, b,
    rhs): solve(rhs) is the PDE solution with data b."""
    rng = np.random.default_rng(5)
    spec = GridSpec(x_max=1.0, y_min=-1.0, y_max=1.0, nx=nx, ny=ny, a=0.5)
    # dt / hx^2 = 3.7: the x-sweep is far from the identity
    dt = 3.7 * spec.hx * spec.hx
    x_inverse, y_sweep = evolution._sweep_matrices(spec, dt)

    def pde(n, h):
        r = dt / (h * h)
        return (1.0 + 2.0 * r) * np.eye(n + 1) - r * (np.eye(n + 1, k=1) + np.eye(n + 1, k=-1)), r

    # x: the ghost closure at x = 0 and the Neumann row at x_max double the
    # coupling to the interior
    dense, rx = pde(nx, spec.hx)
    dense[0, 1] = dense[nx, nx - 1] = -2.0 * rx
    b = rng.standard_normal((nx + 1, ny + 1))[:, 1:ny]
    yield (lambda rhs: x_inverse @ rhs), dense, b, b.copy()
    # y: identity Dirichlet rows, whose couplings ry*b[0] and ry*b[-1] the
    # evolution moves into the rows next to them
    dense, ry = pde(ny, spec.hy)
    dense[0] = dense[ny] = 0.0
    dense[0, 0] = dense[ny, ny] = 1.0
    b = rng.standard_normal((nx + 1, ny + 1)).T
    rhs = b.copy(order="F")
    rhs[1] += ry * b[0]
    rhs[-2] += ry * b[-1]
    yield (lambda rhs: _kernels.tridiag_solve_many(*y_sweep, rhs)), dense, b, rhs


def test_tridiag_matches_dense_solve():
    # a random matrix that is SPD once its end rows are scaled by (0.3, 2)
    n, m = 60, 9
    e = RNG.uniform(-1.0, -0.2, n - 1)
    d = np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e]) + RNG.uniform(1.0, 2.0, n)
    sym = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    dense = sym / np.r_[0.3, np.ones(n - 2), 2.0][:, None]
    b = RNG.standard_normal((n, m))
    factors = (*_kernels.spd_tridiag_factor(d, e), (0.3, 2.0))
    cases = [(lambda rhs: _kernels.tridiag_solve_many(*factors, rhs), dense, b, np.asfortranarray(b)), *_sweep_cases()]
    for solve, matrix, data, rhs in cases:
        ref = np.linalg.solve(matrix, data)
        x = solve(rhs)
        np.testing.assert_allclose(x, ref, rtol=1e-10, atol=1e-12)
        # dpttrs solves an F-ordered right-hand side in place; the x-inverse's
        # product writes a new array
        assert np.shares_memory(x, rhs) == rhs.flags.f_contiguous
    # any other layout is copied and left as it was
    kept = b.copy()
    x = _kernels.tridiag_solve_many(*factors, b)
    np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-12)
    assert np.array_equal(b, kept)


def test_tridiag_non_spd_matrix_raises():
    # singular (row 2 is zero) and indefinite symmetric tridiagonal matrices
    n = 6
    d = np.full(n, 4.0)
    e = np.ones(n - 1)
    d[2] = e[1] = e[2] = 0.0
    for d, e in ((d, e), (np.ones(3), np.full(2, 2.0))):
        with pytest.raises(RuntimeError, match="dpttrf info = [1-9]"):
            _kernels.spd_tridiag_factor(d, e)


def test_sweep_of_nonnegative_data_is_nonnegative():
    # the dpttrf multipliers are negative, so both substitutions only add:
    # the y-sweep and the x-inverse (dpttrs on the identity) keep
    # nonnegative data, with exact zeros and subnormals, nonnegative to the
    # bit, and so does the x-inverse's product, a sum of nonnegative terms
    rng = np.random.default_rng(8)
    for solve, _, b, _ in _sweep_cases():
        data = np.abs(b) * rng.choice([0.0, 1e-310, 1.0], size=b.shape)
        assert (data == 0.0).any() and ((data > 0.0) & (data < 1e-300)).any()
        x = solve(data)
        assert (x >= 0.0).all()
        assert (x > 0.0).any()


def test_x_inverse_is_a_discrete_maximum_principle(oracle_nl):
    # on the benchmark's grid and step the x-inverse is entrywise >= 0 and
    # its rows sum to 1 (the x-matrix's rows do), so each x-sweep value is a
    # convex combination of its column's data
    spec = evolution_grid(2.0, 64)
    x_inverse, _ = evolution._sweep_matrices(spec, 0.5 * evolution.stability_limit(spec, oracle_nl))
    assert x_inverse.shape == (spec.nx + 1, spec.nx + 1)
    assert (x_inverse >= 0.0).all()
    np.testing.assert_allclose(x_inverse.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)


def test_rearrange_preserves_weighted_distribution():
    meas = np.exp(np.linspace(-6.0, 2.0, 300))
    for vals in RNG.uniform(0.0, 1.0, size=(5, 300)):
        out = _kernels.rearrange_columns(vals.copy(), meas)
        assert np.all(np.diff(out) <= 0.0)
        for thr in (0.2, 0.5, 0.8):
            m0 = np.sum(np.where(vals > thr, meas, 0.0))
            m1 = np.sum(np.where(out > thr, meas, 0.0))
            np.testing.assert_allclose(m0, m1, atol=1.2 * meas.max())


def _mixed_rows(n=449):
    """Traces of every shape the rearrangement meets, and which are monotone."""
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
    for row, monotone in rows:
        assert monotone == (not np.any(np.diff(row) > 0.0))
    return rows


def test_rearrange_batch_matches_row_by_row_sort():
    # one trace at a time, in place; a nonincreasing trace is a fixed point
    rows = _mixed_rows()
    meas = np.exp(np.linspace(-20.0, 6.0, rows[0][0].size))
    meas[[0, -1]] *= 0.5
    for row, monotone in rows:
        u = row.copy()
        assert _kernels.rearrange_columns(u, meas) is u
        assert np.array_equal(u, rearrange_rows_sorted(row, meas))
        if monotone:
            assert np.array_equal(u, row)


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


def _run_fresh(code: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_does_not_load_scipy_special():
    # nor scipy.fft, which loads scipy.special; solver._dst imports it on
    # first use
    _run_fresh(
        "import sys, frontforge; assert 'scipy.special' not in sys.modules, 'loaded'; "
        "assert 'scipy.fft' not in sys.modules, 'fft loaded'"
    )


def test_import_does_not_load_scipy_sparse():
    # no solve uses scipy.sparse; solver.spla imports it on first access
    _run_fresh(
        "import sys, frontforge; assert 'scipy.sparse' not in sys.modules, 'loaded'; "
        "from frontforge import solver; assert solver.spla.splu and 'scipy.sparse.linalg' in sys.modules"
    )
