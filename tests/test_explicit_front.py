import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

import frontforge.explicit_front as ef
from frontforge import solver
from frontforge.analysis import fit_decay
from frontforge.evolution import lipschitz_bound, stability_limit
from frontforge.explicit_front import (
    ExplicitFrontParams,
    asymptotic_constant,
    explicit_front,
    explicit_front_dy,
    explicit_nonlinearity,
    explicit_nonlinearity_deriv,
    front_nonlinearity,
    front_profile,
    green_g,
    invert_trace,
    kernel_mass,
    poisson_kernel,
)
from frontforge.front_suite import evolution_grid, oracle_residual_grid
from frontforge.grid import SEED_M, TraceProfile
from frontforge.nonlinearity import antiderivative, ignition_point, validate
from frontforge.specfun import bessel_k, k_ratio
from oracles import (
    gauss_cells_by_column,
    invert_trace_bracketed,
    panel_cells_by_column,
    sample_front_by_columns,
    subpanels_linspace,
    u_speed2_uniform,
)

P12 = ExplicitFrontParams(t=1.0, c=2.0)


def test_module_import_is_not_shadowed():
    # the package must not re-export the function under its module's name
    assert ef.ExplicitFrontParams is ExplicitFrontParams
    assert ef.explicit_front is explicit_front


def test_params_validation():
    with pytest.raises(ValueError):
        ExplicitFrontParams(t=0.0, c=2.0)
    with pytest.raises(ValueError):
        ExplicitFrontParams(t=1.0, c=-1.0)


class TestKernel:
    def test_green_value_at_origin(self):
        assert green_g(1.0, 0.0, 0.0) == pytest.approx(bessel_k(0, 1.0) / (2 * math.pi), rel=1e-12)

    def test_green_solves_weighted_laplace(self):
        # residual of Laplace(G) + 2 G_y by centered differences
        h = 1e-3
        x0, y0 = 0.5, 0.3
        lap = (
            green_g(1.0, x0 + h, y0)
            + green_g(1.0, x0 - h, y0)
            + green_g(1.0, x0, y0 + h)
            + green_g(1.0, x0, y0 - h)
            - 4.0 * green_g(1.0, x0, y0)
        ) / (h * h)
        gy = (green_g(1.0, x0, y0 + h) - green_g(1.0, x0, y0 - h)) / (2.0 * h)
        assert abs(lap + 2.0 * gy) < 1e-5

    def test_green_vanishes_upward(self):
        assert green_g(1.0, 0.0, 60.0) < 1e-40

    def test_kernel_positive(self):
        ys = np.linspace(-40.0, 40.0, 101)
        assert np.all(poisson_kernel(1.0, 0.5, ys) > 0.0)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_unit_mass(self, t):
        assert kernel_mass(t) == pytest.approx(1.0, abs=1e-6)

    def test_unit_mass_off_boundary(self):
        assert kernel_mass(1.0, x=1.5) == pytest.approx(1.0, abs=1e-6)

    def test_tail_asymptotics_both_sides(self):
        target = 1.0 / math.sqrt(2.0 * math.pi)
        plus = poisson_kernel(1.0, 0.0, 20.0) * 20.0**1.5 * math.exp(40.0)
        minus = poisson_kernel(1.0, 0.0, -20.0) * 20.0**1.5
        assert plus == pytest.approx(target, rel=2e-2)
        assert minus == pytest.approx(target, rel=2e-2)


class TestPanelQuadrature:
    @staticmethod
    def _edge_set(name):
        if name == "evolution":
            return 0.5 * P12.c * evolution_grid(P12.c, 64).ys
        if name == "law":
            return ef._law_eta_grid(P12.t)
        if name == "kernel_mass":
            return ef._edges(-((0.8 * P12.t * 1.0e17) ** 2), 380.0)
        # a coarse profile grid from y = 0, where lo + nsub*step misses hi
        return 0.5 * P12.c * np.array([0.0, 0.9, 1.7, 4.0])

    @pytest.mark.parametrize(
        "name,split", [("evolution", False), ("law", True), ("kernel_mass", True), ("coarse", True)]
    )
    def test_subpanel_table_matches_linspace(self, name, split):
        edges = self._edge_set(name)
        starts, stops, owner = ef._subpanels(edges)
        ref = subpanels_linspace(edges, ef._PANEL, ef._Z_GEO, ef._Z_EXP, ef._Z_DEAD)
        assert (len(owner) > len(edges) - 1) == split  # some cells hold several sub-panels
        for got, want in zip((starts, stops, owner), ref):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("x_off", [0.125, 1.0, 5.0])
    @pytest.mark.parametrize("eta", [4.0, 38.0, 100.0, 202.0])
    def test_graded_tail_keeps_relative_accuracy(self, x_off, eta):
        # values down to 1e-181, which the check's absolute floor cannot judge
        ref = u_speed2_uniform(x_off, eta)
        assert abs(ef._u_speed2(x_off, eta) - ref) <= 1e-14 * ref

    def test_graded_tail_keeps_the_endpoint_inversion(self):
        # the trace position of s = 1e-180 on uniform panels above _Z_EXP
        assert invert_trace(P12, 1e-180) == pytest.approx(202.44161308223886, rel=1e-13, abs=0.0)

    def test_graded_tail_takes_few_subpanels(self):
        # a column top's [eta, eta + 30] took 75 uniform sub-panels
        assert len(ef._subpanels(ef._edges(4.0, 34.0))[2]) <= 16

    def test_complement_branch_is_checked(self, monkeypatch):
        orders = []
        gl = ef._gl
        monkeypatch.setattr(ef, "_gl", lambda n: orders.append(n) or gl(n))
        ef._u_speed2(1.0, -40.0)
        assert {6, 12} <= set(orders)

    @pytest.mark.parametrize("x_off", [0.3, 1.0, 4.0])
    def test_complement_branch_meets_direct_integral(self, x_off):
        eta = math.nextafter(ef._Y_COMPLEMENT, -math.inf)
        assert ef._u_speed2(x_off, eta) == pytest.approx(ef._integral_p(x_off, eta, 30.0), abs=1e-15)

    def test_refined_rule_matches_direct_integral(self, monkeypatch):
        # the kernel at x + t = 0.3 is too peaked for the 6/12 check, so
        # every sub-panel is halved and checked with 12/24
        orders = []
        gl = ef._gl
        monkeypatch.setattr(ef, "_gl", lambda n: orders.append(n) or gl(n))
        edges = np.linspace(-2.0, 2.0, 11)
        cells = ef._cells(np.array([0.3]), edges)[0]
        assert 24 in orders
        for k in range(len(cells)):
            lo, hi = edges[k], edges[k + 1]
            ref, _ = quad(lambda z: poisson_kernel(0.3, 0.0, z), lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)
            assert cells[k] == pytest.approx(ref, abs=1e-12)

    def test_shared_panels_group_runs_of_narrow_cells(self):
        # narrow cells below _Z_GEO, a run of cells too wide to share a panel,
        # a lone narrow cell and a fine run that spans several panels
        edges = np.concatenate(
            [
                [-33.0, -32.95, -32.9],
                np.linspace(-32.0, -31.0, 8),
                [-30.0, -29.9, -29.0],
                np.linspace(-28.0, -27.0, 65),
            ]
        )
        shared = ef._shared_panels(edges)
        lo, hi = edges[:-1], edges[1:]
        grouped = np.zeros(len(lo), dtype=bool)
        grouped[shared.cells] = True
        want = (hi - lo < ef._SHARED_WIDTH) & (lo >= ef._Z_GEO)
        want[np.flatnonzero(np.isclose(lo, -30.0))] = False  # alone between wide cells
        np.testing.assert_array_equal(grouped, want)
        assert np.all(np.diff(shared.cells) > 0) and np.all(np.diff(shared.panel) >= 0)
        for p in range(shared.nodes.shape[0]):
            mine = shared.cells[shared.panel == p]
            assert np.all(np.diff(mine) == 1)  # a panel holds consecutive cells
            a, b = edges[mine[0]], edges[mine[-1] + 1]
            assert b - a <= ef._SHARED_WIDTH * (1.0 + 1e-15)
            assert shared.nodes[p].max() == pytest.approx(b, rel=1e-15)
            assert shared.nodes[p].min() == pytest.approx(a, rel=1e-15)
        assert ef._shared_panels(ef._edges(-50.0, 10.0)) is None

    @pytest.mark.parametrize("degree,rule", [(24, "fine"), (12, "coarse")])
    def test_shared_weights_integrate_polynomials_exactly(self, degree, rule):
        widths = np.random.default_rng(3).uniform(0.01, 0.05, 60)
        edges = np.concatenate([np.linspace(-3.0, -1.0, 40), -1.0 + np.cumsum(widths)])
        shared = ef._shared_panels(edges)
        weights = getattr(shared, rule)
        step = 2 if rule == "coarse" else 1
        coef = np.random.default_rng(4).standard_normal(degree + 1)
        for p in range(shared.nodes.shape[0]):
            mine = np.flatnonzero(shared.panel == p)
            nodes = shared.nodes[p, ::step]
            poly = np.polynomial.Chebyshev(coef, domain=[nodes.min(), nodes.max()])
            anti = poly.integ()
            lo, hi = edges[shared.cells[mine]], edges[shared.cells[mine] + 1]
            np.testing.assert_allclose(weights[mine] @ poly(nodes), anti(hi) - anti(lo), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("x_off", [0.3, 1.0, 5.0])
    def test_shared_cells_match_direct_integral(self, x_off, monkeypatch):
        orders = []
        gl = ef._gl
        monkeypatch.setattr(ef, "_gl", lambda n: orders.append(n) or gl(n))
        edges = np.linspace(-2.0, 2.0, 129)
        assert len(ef._shared_panels(edges).cells) == len(edges) - 1
        cells = ef._cells(np.array([x_off]), edges)[0]
        assert orders == []  # every cell came from the shared panels
        for k in range(len(cells)):
            lo, hi = edges[k], edges[k + 1]
            ref, _ = quad(
                lambda z: poisson_kernel(x_off, 0.0, z), lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200
            )
            assert cells[k] == pytest.approx(ref, abs=1e-13)


class TestBatchedSampling:
    """The batched pass gives the bits of the column-by-column pipeline."""

    # (0.05, 2): the x = 0 column fails the shared panels' check and the 6/12
    # check, and is halved
    COARSE_XS = np.linspace(0.0, 2.0, 9)
    COARSE_YS = np.linspace(-10.0, 4.0, 141)

    @pytest.mark.parametrize("t,c", [(1.0, 2.0), (2.5, 0.7)])
    def test_evolution_grid_matches_columns(self, t, c):
        params = ExplicitFrontParams(t, c)
        spec = evolution_grid(2.0, 64)
        shared = ef._shared_panels(0.5 * c * spec.ys)
        assert len(shared.cells) == len(spec.ys) - 1
        assert len(spec.xs) > ef._BLOCK_POINTS // max(shared.nodes.size, len(shared.cells))  # several blocks
        got = ef.sample_front(params, spec.xs, spec.ys)
        assert np.array_equal(got, sample_front_by_columns(params, spec.xs, spec.ys))

    def test_halved_column_matches_columns(self, monkeypatch):
        params = ExplicitFrontParams(0.05, 2.0)
        orders = []
        gl = ef._gl
        monkeypatch.setattr(ef, "_gl", lambda n: orders.append(n) or gl(n))
        got = ef.sample_front(params, self.COARSE_XS, self.COARSE_YS)
        assert 24 in orders
        monkeypatch.undo()
        assert np.array_equal(got, sample_front_by_columns(params, self.COARSE_XS, self.COARSE_YS))
        # the failing column is the Gauss path's, cell for cell
        gauss = sample_front_by_columns(params, self.COARSE_XS[:1], self.COARSE_YS, gauss_cells_by_column)
        assert np.array_equal(got[:1], gauss)

    @pytest.mark.parametrize("t,c", [(1.0, 2.0), (2.5, 0.7), (0.3, 2.0), (0.125, 2.0)])
    def test_fields_match_the_gauss_reference(self, t, c):
        params = ExplicitFrontParams(t, c)
        grids = [(self.COARSE_XS, self.COARSE_YS), (self.COARSE_XS, np.linspace(-60.0, -35.0, 51))]
        specs = [oracle_residual_grid(params, h) for h in (1 / 32, 1 / 64)] + [evolution_grid(2.0, 64)]
        grids += [(spec.xs, spec.ys) for spec in specs]
        for xs, ys in grids:
            got = ef.sample_front(params, xs, ys)
            want = sample_front_by_columns(params, xs, ys, gauss_cells_by_column)
            assert np.max(np.abs(got - want)) <= 1e-14
        eta = ef._law_eta_grid(t)
        want = sample_front_by_columns(ExplicitFrontParams(t, 2.0), [0.0], eta, gauss_cells_by_column)[0]
        assert np.max(np.abs(ef._sweep(np.array([t]), eta)[0] - want)) <= 1e-14

    def test_complement_top_matches_columns(self):
        ys = np.linspace(-60.0, -35.0, 51)  # top node at eta = -35
        assert 0.5 * P12.c * ys[-1] < ef._Y_COMPLEMENT
        got = ef.sample_front(P12, self.COARSE_XS, ys)
        assert np.array_equal(got, sample_front_by_columns(P12, self.COARSE_XS, ys))

    def test_profile_law_table_and_mass_match_columns(self):
        ys = np.linspace(-12.0, 4.0, 97)
        assert np.array_equal(front_profile(P12, 0.3, ys), sample_front_by_columns(P12, [0.3], ys)[0])
        eta = ef._law_eta_grid(P12.t)
        # speed 2 and x = 0: the sampled column is the law's speed-2 sweep
        want = sample_front_by_columns(ExplicitFrontParams(P12.t, 2.0), [0.0], eta)[0]
        assert np.array_equal(ef._sweep(np.array([P12.t]), eta)[0], want)
        lo = -((0.8 * P12.t * 1.0e17) ** 2)
        assert kernel_mass(P12.t) == float(panel_cells_by_column(P12.t, ef._edges(lo, 380.0)).sum())

    def test_unresolved_kernel_still_raises(self):
        with pytest.raises(ef.QuadratureError):
            ef.sample_front(ExplicitFrontParams(0.01, 2.0), self.COARSE_XS, self.COARSE_YS)

    @pytest.mark.parametrize("t", [1.0, 0.125])
    def test_blocking_cannot_change_a_column(self, t, monkeypatch):
        params = ExplicitFrontParams(t, 2.0)
        spec = oracle_residual_grid(params, 1 / 64)
        xs, ys = spec.xs, spec.ys
        assert (len(xs), len(ys)) == (129, 897)
        got = ef.sample_front(params, xs, ys)
        assert np.array_equal(ef.sample_front(params, xs[:1], ys), got[:1])
        assert np.array_equal(ef.sample_front(params, xs[1:4], ys), got[1:4])
        assert np.array_equal(front_profile(params, xs[0], ys), got[0])
        assert np.array_equal(front_profile(params, xs[64], ys), got[64])
        monkeypatch.setattr(ef, "_BLOCK_POINTS", 1)  # one column per block
        assert np.array_equal(ef.sample_front(params, xs, ys), got)

    def test_bad_nodes_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="strictly increasing"):
            ef.sample_front(P12, self.COARSE_XS, self.COARSE_YS[::-1])
        # a column left of the boundary, or not finite, is refused before any
        # quadrature, as the pointwise forms refuse x < 0
        monkeypatch.setattr(ef, "_cells", lambda *a, **k: pytest.fail("quadrature ran"))
        ys = np.linspace(-2.0, 2.0, 5)
        for x in (-1.5, -1e-300, np.nan, np.inf):
            with pytest.raises(ValueError, match="x must be nonnegative"):
                ef.sample_front(P12, [x, 0.0], ys)
            with pytest.raises(ValueError, match="x must be nonnegative"):
                front_profile(P12, x, ys)
        # the pointwise forms refuse the same x, and a kernel offset t that
        # ExplicitFrontParams refuses, before any kernel call
        for name in ("_p_kernel", "_u_speed2", "k01_scaled"):
            monkeypatch.setattr(ef, name, lambda *a, **k: pytest.fail("kernel ran"))
        pointwise = [(explicit_front, P12), (explicit_front_dy, P12), (green_g, P12.t), (poisson_kernel, P12.t)]
        for fn, first in pointwise:
            for x in (-1.5, np.nan, np.inf):
                with pytest.raises(ValueError, match="x must be nonnegative"):
                    fn(first, x, 0.0)
        for fn in (green_g, poisson_kernel):
            for t in (0.0, -1.0, np.nan, np.inf):
                with pytest.raises(ValueError, match="t must be positive"):
                    fn(t, 0.0, 0.0)


class TestFrontValues:
    def test_limit_one_downward(self):
        # the invading-side tail is a slow power law: 1 - u ~ (-y)^{-1/2},
        # so reaching 1e-6 of the limit takes -y of order 1e12
        assert explicit_front(P12, 0.0, -6.5e11) == pytest.approx(1.0, abs=1e-6)
        assert 1.0 - explicit_front(P12, 0.0, -40.0) == pytest.approx(0.126, abs=5e-3)

    def test_limit_zero_upward(self):
        assert explicit_front(P12, 0.0, 40.0) == pytest.approx(0.0, abs=1e-10)

    def test_pinned_center_value(self):
        assert explicit_front(P12, 0.0, 0.0) == pytest.approx(0.10449683150232618, rel=1e-9)

    def test_profile_matches_pointwise_evaluation(self):
        ys = np.linspace(-12.0, 4.0, 97)
        prof = front_profile(P12, 0.3, ys)
        for k in (0, 31, 48, 96):
            assert prof[k] == pytest.approx(explicit_front(P12, 0.3, float(ys[k])), abs=1e-12)

    def test_monotone_and_in_range(self):
        ys = np.linspace(-30.0, 10.0, 400)
        prof = front_profile(P12, 0.0, ys)
        assert np.all(np.diff(prof) < 0.0)
        assert np.all((prof > 0.0) & (prof < 1.0))

    def test_scaling_between_speeds(self):
        # u^{t,c}(x, y) = u^{t,2}(c x/2, c y/2)
        p_slow = ExplicitFrontParams(t=1.0, c=0.5)
        assert explicit_front(p_slow, 0.8, -2.0) == pytest.approx(
            explicit_front(P12, 0.2, -0.5), rel=1e-11
        )


class TestFrontDerivative:
    def test_matches_finite_difference(self):
        h = 1e-5
        fd = (explicit_front(P12, 0.0, 1.0 + h) - explicit_front(P12, 0.0, 1.0 - h)) / (2 * h)
        assert explicit_front_dy(P12, 0.0, 1.0) == pytest.approx(fd, abs=1e-6)

    def test_strictly_negative(self):
        rng = np.random.default_rng(7)
        ys = rng.uniform(-25.0, 8.0, size=20)
        assert np.all(explicit_front_dy(P12, 0.4, ys) < 0.0)

    def test_compensated_tail_constant(self):
        y = 20.0
        val = -explicit_front_dy(P12, 0.0, y) * y**1.5 * math.exp(2.0 * y)
        assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=2e-2)


class TestImplicitNonlinearity:
    def test_exact_zeros_at_endpoints(self):
        assert explicit_nonlinearity(P12, 0.0) == 0.0
        assert explicit_nonlinearity(P12, 1.0) == 0.0

    def test_interior_rejects_outside(self):
        with pytest.raises(ValueError):
            explicit_nonlinearity(P12, -0.1)
        with pytest.raises(ValueError):
            explicit_nonlinearity(P12, 1.1)

    def test_boundary_flux_consistency(self):
        # -u_x(0, y) == f(u(0, y)) at 50 points, one-sided 2nd order in x
        ys = np.linspace(-8.0, 3.0, 50)
        h = 5e-4
        u0 = front_profile(P12, 0.0, ys)
        u1 = front_profile(P12, h, ys)
        u2 = front_profile(P12, 2 * h, ys)
        ux = (-3.0 * u0 + 4.0 * u1 - u2) / (2.0 * h)
        for k in range(0, 50, 7):
            f_val = explicit_nonlinearity(P12, float(u0[k]))
            assert -ux[k] == pytest.approx(f_val, abs=1e-6)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_derivative_consistency(self, s):
        h = 1e-6
        fd = (explicit_nonlinearity(P12, s + h) - explicit_nonlinearity(P12, s - h)) / (2 * h)
        assert explicit_nonlinearity_deriv(P12, s) == pytest.approx(fd, abs=1e-5)

    def test_derivative_endpoint_values(self):
        assert explicit_nonlinearity_deriv(P12, 0.0) == -1.0
        assert explicit_nonlinearity_deriv(P12, 1.0) == -1.0
        p = ExplicitFrontParams(t=2.0, c=1.0)
        assert explicit_nonlinearity_deriv(p, 0.0) == -0.25

    def test_derivative_sign_pattern(self):
        # negative near both endpoints, positive in between
        svals = np.array([1e-3, 0.02, 0.3, 0.6, 0.95, 0.999])
        signs = np.sign([explicit_nonlinearity_deriv(P12, float(s)) for s in svals])
        assert signs[0] == -1 and signs[-1] == -1
        assert np.any(signs[1:-1] > 0)

    def test_phase_function_positive_at_center(self):
        t = 1.0
        assert float(k_ratio(t)) > 0.0  # h^t(0) = (K_0+K_2)/(2K_1)(t)

    @pytest.mark.parametrize("t,c", [(0.5, 2.0), (1.0, 2.0), (2.0, 1.0)])
    def test_positive_integral(self, t, c, oracle_nl):
        from frontforge.explicit_front import front_nonlinearity

        nl = oracle_nl if (t, c) == (1.0, 2.0) else front_nonlinearity(ExplicitFrontParams(t, c))
        assert antiderivative(nl, 1.0) > 0.0

    def test_inversion_roundtrip(self):
        for s in (0.05, 0.4, 0.85):
            y = invert_trace(P12, s)
            assert explicit_front(P12, 0.0, y) == pytest.approx(s, rel=1e-9)

    @pytest.mark.parametrize("gap", [0.4, 0.15, 0.01, 1e-4, 1e-6])
    def test_inversion_near_one_pins_the_mass_below(self, gap):
        # u rounds to s over a wide range of y there, while 1 - u does not
        s = 1.0 - gap
        eta = 0.5 * P12.c * invert_trace(P12, s)
        assert abs(kernel_mass(P12.t, hi=eta) - (1.0 - s)) <= 1e-12 * (1.0 - s)

    @pytest.mark.parametrize("t", [0.125, 0.5, 1.0, 2.5])
    def test_inversion_matches_the_bracketed_reference(self, monkeypatch, t):
        # both sides, both tails and s = 1/2; at no point more quadratures
        params = ExplicitFrontParams(t, 2.0)
        calls = []
        integral_p = ef._integral_p
        monkeypatch.setattr(ef, "_integral_p", lambda *args: calls.append(1) or integral_p(*args))
        for s in (1e-180, 1e-20, 0.05, 0.3, 0.5, 0.6, 0.9, 1.0 - 1e-6, 1.0 - 1e-12):
            calls.clear()
            want = invert_trace_bracketed(params, s)
            budget = len(calls)
            calls.clear()
            got = invert_trace(params, s)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), s
            assert len(calls) <= budget, s

    def test_inversion_bisects_once_after_one_pass(self, monkeypatch):
        seen = {"cells": [], "bisect": 0}
        cells, bisect = ef._cells, ef._bisect

        def count_cells(x_offs, edges, *args):
            seen["cells"].append((edges[0], edges[-1]))
            return cells(x_offs, edges, *args)

        def count_bisect(*args):
            seen["bisect"] += 1
            return bisect(*args)

        monkeypatch.setattr(ef, "_cells", count_cells)
        monkeypatch.setattr(ef, "_bisect", count_bisect)
        for s in (1e-180, 0.5, 1.0 - 1e-6):
            seen["cells"].clear()
            seen["bisect"] = 0
            invert_trace(P12, s)
            assert seen["cells"][0] == (ef._far(P12.t), ef._Z_DEAD)
            assert seen["bisect"] == 1


class TestPackagedNonlinearity:
    def test_validates(self, oracle_nl):
        assert validate(oracle_nl, 1000).passed

    def test_table_matches_exact_operation(self, oracle_nl):
        for s in np.linspace(0.02, 0.98, 17):
            assert float(oracle_nl.f(s)) == pytest.approx(
                explicit_nonlinearity(P12, float(s)), abs=1e-6
            )

    def test_f_prime_is_derivative_of_f(self, oracle_nl):
        s = np.linspace(0.0, 1.0, 2003)[1:-1]
        h = 1e-7
        fd = (oracle_nl.f(s + h) - oracle_nl.f(s - h)) / (2.0 * h)
        assert np.max(np.abs(oracle_nl.f_prime(s) - fd)) < 1e-6

    def test_evolution_leg_keeps_its_step_count(self, oracle_nl):
        # evolve's default dt is half the stability limit, which samples f'
        assert lipschitz_bound(oracle_nl) == pytest.approx(1.6994839, abs=1e-6)
        limit = stability_limit(evolution_grid(P12.c, 64), oracle_nl)
        assert math.ceil(0.125 / (0.5 * limit)) == 28

    def test_offset_below_table_limit_rejected_before_quadrature(self, monkeypatch):
        assert front_nonlinearity(ExplicitFrontParams(ef.LAW_T_MIN, 2.0)).beta < 1.0
        monkeypatch.setattr(ef, "_cells", lambda *a, **k: pytest.fail("quadrature ran"))
        with pytest.raises(ValueError, match="t >= 0.125"):
            front_nonlinearity(ExplicitFrontParams(0.12, 2.0))

    @pytest.mark.parametrize("t", [0.125, 1.0, 2.5])
    def test_beta_is_the_root_of_the_table_integral(self, t, oracle_nl):
        law = oracle_nl if t == 1.0 else front_nonlinearity(ExplicitFrontParams(t, 2.0))
        assert abs(law.beta - ignition_point(law)) <= 1e-9
        assert validate(law).passed

    @pytest.mark.parametrize("t", [0.125, 1.0, 2.5])
    def test_potential_is_the_antiderivative_of_the_law(self, t, oracle_nl):
        # G is -(c/2) times the closed-form integral of the table's own
        # Hermite f, so G' = -f is left to the difference quotient's error
        # and G vanishes at beta to round-off in G's scale
        law = oracle_nl if t == 1.0 else front_nonlinearity(ExplicitFrontParams(t, 2.0))
        s = np.linspace(1e-4, 1.0 - 1e-4, 20001)
        h = 1e-6
        fd = (law.G(s + h) - law.G(s - h)) / (2.0 * h)
        assert np.max(np.abs(fd + law.f(s))) <= 1e-9
        assert abs(float(law.G(law.beta))) <= 1e-14 * abs(float(law.G(1.0)))

    @pytest.mark.parametrize("t", [1.0, 2.5])
    def test_ignition_point_meets_table_beta_relatively(self, t, oracle_nl):
        # beta = 4.35e-8 at t = 2.5, where int_0^s f stays below 5e-18
        law = oracle_nl if t == 1.0 else front_nonlinearity(ExplicitFrontParams(t, 2.0))
        assert abs(ignition_point(law) - law.beta) <= 1e-9 * law.beta

    @pytest.mark.parametrize("t, c", [(1.0, 2.0), (2.5, 2.0)])
    def test_law_is_continuous_at_the_last_swept_node(self, t, c):
        # the Hermite table runs on to its exact end node at s = 1, so f and
        # f' are continuous to round-off at the last node below it
        law = front_nonlinearity(ExplicitFrontParams(t, c))
        s_tab = ef._law_table(t)[0]
        node = s_tab[s_tab < 1.0][-1]
        s = np.array([node, np.nextafter(node, 2.0)])
        assert np.ptp(law.f(s)) <= 1e-14
        assert np.ptp(law.f_prime(s)) <= 1e-12

    @pytest.mark.parametrize("t, c", [(1.0, 2.0), (2.5, 0.5), (2.5, 2.0)])
    def test_tight_seed_integral_stays_shallow(self, t, c, monkeypatch):
        # at tol 1e-14 each breadth-first Simpson level is one call of f:
        # a jump of f inside a cell would send it 40-odd levels deep
        law = front_nonlinearity(ExplicitFrontParams(t, c))
        calls = []

        def counted(s):
            calls.append(1)
            return law.f(s)

        tight = functools.partial(solver._adaptive_simpson, tol=1e-14)
        monkeypatch.setattr(solver, "_adaptive_simpson", tight)
        solver._seed_integral(dataclasses.replace(law, f=counted), SEED_M)
        assert len(calls) <= 3

    def test_structural_constants(self, oracle_nl):
        assert 0.0 < oracle_nl.delta < 0.5
        assert 0.0 < oracle_nl.alpha < oracle_nl.beta < 1.0
        assert float(oracle_nl.f(oracle_nl.alpha)) == pytest.approx(0.0, abs=1e-7)


def test_asymptotic_constant_values():
    assert asymptotic_constant(P12, "plus") == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
    assert asymptotic_constant(P12, "plus") == asymptotic_constant(P12, "minus")
    doubled = asymptotic_constant(ExplicitFrontParams(2.0, 2.0), "plus")
    assert doubled == pytest.approx(2.0 * asymptotic_constant(P12, "plus"), rel=1e-12)
    with pytest.raises(ValueError):
        asymptotic_constant(P12, "sideways")


def test_front_satisfies_all_four_tail_bounds():
    ys = np.linspace(-60.0, 30.0, 1500)
    u = front_profile(P12, 0.0, ys)
    uy = explicit_front_dy(P12, 0.0, ys)
    tr, tdy = TraceProfile(ys, u), TraceProfile(ys, uy)
    for side, quantity in (
        ("plus", "minus_u_y"),
        ("minus", "minus_u_y"),
        ("plus", "u"),
        ("minus", "one_minus_u"),
    ):
        rep = fit_decay(tr, tdy, P12.c, side, quantity)
        assert np.isfinite(rep.sandwich_b) and rep.sandwich_b >= 1.0
