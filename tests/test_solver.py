import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh

from frontforge import grid as gridmod
from frontforge.grid import GridSpec, Field, dirichlet, energy, seed_function, trace
from frontforge.nonlinearity import NonlinearityError, make_bistable_cubic, make_combustion, reflect
from frontforge.solver import (
    MinimizerResult,
    SolverError,
    SolverOptions,
    _capacitance,
    _gradient,
    _Newton,
    _stationarity,
    _trial,
    _warm_start,
    _Workspace,
    choose_weight,
    default_grid,
    extract_speed,
    minimize,
    pde_residual,
    seed_energy_value,
    solve_front,
)
from oracles import boundary_ntd_dense, free_stiffness_solve, newton_step_sparse


class TestChooseWeight:
    def test_cubic_pinned(self):
        assert choose_weight(make_bistable_cubic(0.25)) == 0.015625

    def test_negative_integral_rejected(self):
        with pytest.raises(NonlinearityError):
            choose_weight(reflect(make_bistable_cubic(0.25)))

    def test_balanced_limit_shrinks_weight(self):
        a_mid = choose_weight(make_bistable_cubic(0.25))
        a_near = choose_weight(make_bistable_cubic(0.47))
        assert a_near < a_mid
        assert a_near <= 0.002

    def test_seed_energy_closed_form(self):
        nl = make_bistable_cubic(0.25)
        # hand-evaluated: (d/4)(1+1/7) + a^2 16/(4 d 7) - 0.0450211...; over a
        val = seed_energy_value(nl, 0.01, 0.02, 4.0)
        hand = (0.02 / 4 * (8 / 7) + 1e-4 * 16 / (4 * 0.02 * 7) - 0.04502104) / 0.01
        assert val == pytest.approx(hand, abs=2e-4)


class TestPreconditioner:
    @pytest.mark.parametrize("nx, ny", [(16, 64), (96, 448)])
    def test_matches_sparse_direct_solve(self, nx, ny):
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions(nx=nx, ny=ny))
        ws = _Workspace(spec)
        gradient = _gradient(seed_function(spec), nl)[:, 1:-1]
        noise = np.random.default_rng(0).standard_normal(gradient.shape)
        for rhs in (gradient, noise):
            ref = free_stiffness_solve(spec, rhs)
            assert np.max(np.abs(ws.precond_solve(rhs) - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_closed_form_x_modes_match_the_generalized_eigenproblem(self):
        # Kx Phi = Sigma Phi Lambda with Phi^T Sigma Phi = I: the DCT-I
        # cosines against LAPACK's generalized symmetric eigensolver
        spec = GridSpec(x_max=8.0, y_min=-20.0, y_max=6.0, nx=16, ny=64, a=0.5)
        nx = spec.nx
        kx = 2.0 * np.eye(nx + 1) - np.eye(nx + 1, k=1) - np.eye(nx + 1, k=-1)
        kx[0, 0] = kx[-1, -1] = 1.0
        lam, phi = eigh(kx, np.diag(spec.sigma))
        ws = _Workspace(spec)
        np.testing.assert_allclose(ws.phi.T @ np.diag(spec.sigma) @ ws.phi, np.eye(nx + 1), atol=1e-13)
        np.testing.assert_allclose(kx @ ws.phi, np.diag(spec.sigma) @ ws.phi * lam[None, :], atol=1e-13)
        # eigenvectors are fixed up to sign (the eigenvalues are simple)
        signs = np.sign(np.sum(phi * ws.phi, axis=0))
        assert np.max(np.abs(phi * signs - ws.phi)) <= 1e-13


class TestNewton:
    def test_capacitance_matches_the_dense_schur_complement(self):
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions(nx=16, ny=64))
        toeplitz, hankel = _capacitance(spec)
        root_c = _Workspace(spec).root_c
        ref = root_c[:, None] * boundary_ntd_dense(spec) * root_c[None, :]
        assert np.max(np.abs(toeplitz - hankel - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_step_matches_the_sparse_bordered_jacobian(self):
        # from the iterate a short burst hands to Newton, and from a
        # perturbed one off Gamma_a = 1
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions(nx=32, ny=128))
        ws = _Workspace(spec)
        w, e_seed = _trial(seed_function(spec), nl)
        w, _ = _warm_start(ws, w, nl, [e_seed], 20)
        bump = np.zeros_like(w.values)
        bump[:, 1:-1] = 1e-3 * np.sin(np.linspace(0.0, 9.0, spec.ny - 1))[None, :]
        newton = _Newton(ws, spec)

        def energy_norm(free_block):
            # sqrt(v.S v) of the free-node block with zero pins: the metric
            # the weights e^{ay} set; the deep rows, whose weight is below
            # 1e-15, are not constrained in the max norm
            v = np.zeros_like(w.values)
            v[:, 1:-1] = free_block
            return np.sqrt(dirichlet(Field(v, spec)))

        for field in (w, Field(w.values + bump, spec)):
            _, gamma, lam, sw = _stationarity(ws, field, nl)
            dw, dlam = newton.step(field, nl, lam, sw, gamma)
            ref_dw, ref_dlam = newton_step_sparse(field, nl, lam)
            assert energy_norm(dw - ref_dw) <= 1e-12 * energy_norm(ref_dw)
            assert dlam == pytest.approx(ref_dlam, rel=1e-12)

    def test_benchmark_laws_converge_to_the_pinned_speeds(
        self, cubic_solution, combustion_pair, oracle_solution
    ):
        # the discrete minimizer's speed at 96x448; the combustion law is
        # make_combustion(0.3, 1.0) at its own weight, which the pair shares
        pinned = [
            (cubic_solution, 0.1034567654),
            (combustion_pair[1], 0.1721071604),
            (oracle_solution, 1.9980581851),
        ]
        for sol, speed in pinned:
            assert sol.record.stop == "residual"
            assert sol.record.rho_history[-1] <= 1e-10
            assert abs(gridmod.dirichlet(sol.front) - 1.0) <= 1e-8
            assert sol.speed == pytest.approx(speed, rel=1e-9)

    def test_refined_oracle_solve_converges(self, oracle_solution_refined):
        sol = oracle_solution_refined
        assert sol.record.stop == "residual"
        assert sol.record.rho_history[-1] <= 1e-10
        assert sol.speed == pytest.approx(1.9999300832, rel=1e-9)


def _peak_in_fields(fn, *args) -> float:
    """Peak of the allocations traced during fn(*args), in 97x449 float64 fields."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (97 * 449 * 8)


def test_trial_peak_allocation_in_fields():
    # one trial on a perturbed admissible field at the default 96x448 grid,
    # and grid steps on their own.  The trial, which rearranges in place
    # and takes E_a from the projection, measures 2.3 fields (with a
    # rearranged copy and a second Dirichlet sum: 3.2; with every
    # temporary built fresh: 5.2), and 1.4 / 2.2 / 2.05 / 1.5 for dirichlet
    # / translate / the projection's column sums / rearrange_monotone
    # (fresh: 4.2 / 3.2 / - / 2.1); each pin has half a field of margin
    nl = make_bistable_cubic(0.25)
    spec = default_grid(choose_weight(nl), SolverOptions())
    w, _ = _trial(seed_function(spec), nl)
    assert w.values.shape == (97, 449)
    perturbed = Field(w.values * 1.01, spec)
    assert _peak_in_fields(gridmod._column_sums, spec, perturbed.values) <= 2.05 + 0.5
    assert _peak_in_fields(_trial, perturbed, nl) <= 2.3 + 0.5
    assert _peak_in_fields(gridmod.dirichlet, perturbed) <= 1.4 + 0.5
    assert _peak_in_fields(gridmod.translate, perturbed, 0.37 * spec.hy) <= 2.25 + 0.5
    assert _peak_in_fields(gridmod.rearrange_monotone, perturbed) <= 1.5 + 0.5


def test_trial_energy_is_the_energy_of_its_field():
    # E_a comes from the projection's Gamma_a and the end columns' change
    # under the second pin.  The last field has a small bump below y_max,
    # which the projection's shift carries onto column ny, so the pin there
    # moves Gamma_a by about 1e-5
    nl = make_bistable_cubic(0.25)
    spec = default_grid(choose_weight(nl), SolverOptions())
    seed = seed_function(spec)
    w, _ = _trial(seed.copy(), nl)
    ramp = np.clip((spec.ys - spec.y_max) / (40.0 * spec.hy) + 1.0, 0.0, 1.0)
    bumped = 0.8 * w.values + 1e-5 * ramp * (1.0 - ramp)
    for vals in (seed.values, w.values * 1.01, w.values * 0.9, w.values, bumped):
        out, e_a = _trial(Field(vals.copy(), spec), nl)
        assert e_a == pytest.approx(energy(out, nl), rel=1e-13, abs=0.0)


class TestMinimize:
    def test_oracle_minimizer_properties(self, oracle_nl):
        opts = SolverOptions()
        spec = default_grid(choose_weight(oracle_nl), opts)
        res = minimize(spec, oracle_nl, opts)
        assert res.converged
        assert res.infimum < 0.0
        assert abs(res.constraint - 1.0) <= 1e-7
        # multiplier equals the infimum (within discretization)
        assert res.multiplier == pytest.approx(res.infimum, rel=5e-2)
        # the boundary trace leaves [0, beta]
        assert float(np.max(res.minimizer.values[0, :])) > oracle_nl.beta
        assert np.all((res.minimizer.values >= 0.0) & (res.minimizer.values <= 1.0))

    def test_energy_history_is_nonincreasing(self):
        nl = make_bistable_cubic(0.25)
        opts = SolverOptions(nx=48, ny=224, max_iter=60)
        spec = default_grid(choose_weight(nl), opts)
        res = minimize(spec, nl, opts)
        hist = np.asarray(res.energy_history)
        # every accepted step decreases the energy (descent property)
        assert np.all(np.diff(hist) <= 1e-9 * np.abs(hist[:-1]) + 1e-13)

    def test_descent_converges_by_the_residual(self):
        # the hand-off burst leaves rho/|g| at 0.29 here; six Newton steps
        # from there pass the residual test
        nl = make_bistable_cubic(0.35)
        opts = SolverOptions(nx=64, ny=288)
        spec = default_grid(choose_weight(nl), opts)
        res = minimize(spec, nl, opts)
        assert res.record.newton_steps >= 1
        assert res.converged
        assert res.residual_norm <= opts.tol
        assert np.all(np.diff(res.energy_history) <= 0.0)
        sol = extract_speed(res)
        assert sol.speed == pytest.approx(sol.speed_variational, rel=5e-2)

    @pytest.mark.slow
    def test_gradient_step_finishes_where_the_fixed_point_stalls(self):
        # the fixed point alone stops here at rho/|g| ~ 0.99, and Newton
        # from there takes 1 - 2 lambda below 0; gradient steps taken when a
        # burst is stuck carry the solve to where Newton converges.  At the
        # default grid the stationary point's two speed estimates are 4.9 %
        # apart; at refine=1 they agree within 1e-4
        nl = make_bistable_cubic(0.4)
        opts = SolverOptions()
        res = minimize(default_grid(choose_weight(nl), opts), nl, opts)
        assert res.iterations > 1
        assert res.converged
        opts = SolverOptions(refine=1)
        res = minimize(default_grid(choose_weight(nl), opts), nl, opts)
        assert res.iterations > 1
        assert res.converged
        sol = extract_speed(res)
        assert sol.speed == pytest.approx(sol.speed_variational, rel=1e-2)

    def test_disagreeing_speeds_are_refused(self):
        # on this grid the residual test passes, yet c = a(1 - 2 lambda_a)
        # is 9 % off a(1 - 2 I_a): the speed check refuses the result
        nl = make_bistable_cubic(0.4)
        opts = SolverOptions(nx=64, ny=288)
        res = minimize(default_grid(choose_weight(nl), opts), nl, opts)
        assert res.converged
        with pytest.raises(SolverError, match="disagree"):
            extract_speed(res)

    def test_coarse_stationary_point_is_refused(self):
        # on this coarse grid Newton reaches a stationary point (rho/|g|
        # 1.8e-11), but c = a(1 - 2 lambda_a) is 10 % off a(1 - 2 I_a), so
        # no speed may be reported
        nl = make_bistable_cubic(0.4)
        opts = SolverOptions(nx=48, ny=224)
        spec = default_grid(choose_weight(nl), opts)
        res = minimize(spec, nl, opts)
        assert res.converged
        assert res.residual_norm <= opts.tol
        with pytest.raises(SolverError, match="disagree"):
            solve_front(nl, opts)

    def test_stop_reasons(self):
        # one iteration: the stalled burst's Newton attempt fails, so the
        # loop runs out of iterations
        nl = make_bistable_cubic(0.4)
        opts = SolverOptions(max_iter=1)
        res = minimize(default_grid(choose_weight(nl), opts), nl, opts)
        assert res.record.stop == "max-iter"
        assert not res.converged
        assert res.record.rho_history[0] > 0.5
        with pytest.raises(SolverError, match="did not converge"):
            extract_speed(res)
        # from the minimizer itself no step lowers E_a, and no test passes
        # at a tolerance below round-off
        nl = make_bistable_cubic(0.25)
        opts = SolverOptions(nx=48, ny=224)
        spec = default_grid(choose_weight(nl), opts)
        start = minimize(spec, nl, opts)
        assert start.record.stop == "residual"
        res = minimize(spec, nl, replace(opts, tol=1e-30), seed=start.minimizer)
        assert res.record.stop == "no-descent"
        assert res.record.burst_steps == 0
        assert not res.converged


class TestExtractSpeed:
    @staticmethod
    def _synthetic(infimum: float) -> MinimizerResult:
        spec = GridSpec(x_max=8.0, y_min=-20.0, y_max=6.0, nx=16, ny=64, a=0.5)
        vals = np.tile(np.linspace(1.0, 0.0, spec.ny + 1), (spec.nx + 1, 1))
        return MinimizerResult(
            minimizer=Field(vals, spec),
            infimum=infimum,
            multiplier=0.0,
            a=0.5,
            iterations=1,
            converged=True,
            constraint=1.0,
            residual_norm=0.0,
        )

    def test_formula_on_synthetic_result(self):
        res = self._synthetic(infimum=0.0)
        sol = extract_speed(res)
        assert sol.mu == 1.0
        assert sol.speed == 0.5
        assert sol.speed_variational == 0.5
        np.testing.assert_array_equal(sol.front.values, res.minimizer.values)

    def test_refuses_disagreeing_speed_estimates(self):
        # multiplier 0 and infimum -0.1: c = 0.5 against c_var = 0.6
        with pytest.raises(SolverError, match="disagree"):
            extract_speed(self._synthetic(infimum=-0.1))
        # 4.8 % apart is reported
        assert extract_speed(self._synthetic(infimum=-0.025)).speed == 0.5

    def test_two_speed_estimates_agree(self, oracle_solution):
        assert oracle_solution.speed == pytest.approx(
            oracle_solution.speed_variational, rel=5e-2
        )

    def test_rescaled_grid_spans(self, oracle_solution):
        spec = oracle_solution.front.spec
        assert spec.a == pytest.approx(oracle_solution.speed, rel=1e-12)
        # natural truncation: x_max ~ 8/c, y ~ [-40/c, 12/c]
        assert spec.x_max == pytest.approx(8.0 / oracle_solution.speed, rel=0.05)

    def test_refuses_unconverged(self):
        res = replace(self._synthetic(infimum=0.0), converged=False, residual_norm=1.0)
        with pytest.raises(SolverError, match="did not converge"):
            extract_speed(res)


class TestResidual:
    def test_zero_field_zero_reaction(self):
        nl = make_combustion(0.5, 1.0)  # f(0) = 0
        vals = np.zeros((33, 129))
        interior, boundary = pde_residual(vals, 0.1, 0.1, 1.0, nl)
        assert interior == 0.0 and boundary == 0.0

    def test_wrong_speed_inflates_interior(self, oracle_nl):
        from frontforge.explicit_front import ExplicitFrontParams, sample_front

        spec = GridSpec(x_max=2.0, y_min=-10.0, y_max=4.0, nx=64, ny=448, a=1.0)
        vals = sample_front(ExplicitFrontParams(1.0, 2.0), spec.xs, spec.ys)
        good, _ = pde_residual(vals, spec.hx, spec.hy, 2.0, oracle_nl, ys=spec.ys)
        bad, _ = pde_residual(vals, spec.hx, spec.hy, 4.0, oracle_nl, ys=spec.ys)
        assert bad > 5.0 * good


class TestSolveFront:
    def test_rejects_invalid_law(self):
        with pytest.raises(NonlinearityError):
            solve_front(reflect(make_bistable_cubic(0.25)), SolverOptions())

    def test_cubic_front_properties(self, cubic_solution):
        sol = cubic_solution
        assert sol.speed > 0.0
        assert sol.mu > 1.0  # lambda_a = I_a < 0 forces mu = 1 - 2 lambda_a > 1
        tr = sol.trace
        assert np.all(np.diff(tr.values) <= 0.0)
        assert tr.values[0] > 1.0 - 1e-6
        assert tr.values[-1] < 1e-6
        assert np.all((sol.front.values >= 0.0) & (sol.front.values <= 1.0))

    def test_combustion_monotone_in_x_too(self, combustion_pair):
        for sol in combustion_pair:
            assert sol.speed > 0.0
            assert np.all(np.diff(sol.front.values, axis=0) <= 1e-9)

    def test_speed_estimates_close_for_combustion(self, combustion_pair):
        for sol in combustion_pair:
            assert sol.speed == pytest.approx(sol.speed_variational, rel=5e-2)

    @pytest.mark.slow
    def test_front_shape_approaches_closed_form_under_refinement(self, oracle_nl):
        from frontforge.analysis import align_and_compare
        from frontforge.explicit_front import ExplicitFrontParams, front_profile
        from frontforge.grid import TraceProfile

        # converged fronts on the default 8/a x-window sit at that window's
        # error floor (0.0039 at both grids); a 12/a window lowers the floor
        # below the grid error
        params = ExplicitFrontParams(1.0, 2.0)
        dists = []
        for refine in (0, 1):
            sol = solve_front(oracle_nl, SolverOptions(x_span=12.0, refine=refine))
            ys = sol.trace.y_nodes
            # compare where the weight e^{cy} still constrains the profile;
            # deeper down the domain truncation dominates and no mesh
            # refinement can tighten the tail
            keep = (ys > -8.0) & (ys < 0.85 * ys[-1])
            exact = TraceProfile(ys[keep], front_profile(params, 0.0, ys[keep]))
            computed = TraceProfile(ys[keep], sol.trace.values[keep])
            _, dist = align_and_compare(exact, computed)
            dists.append(dist)
        assert dists[1] < dists[0]  # refinement tightens the match
        assert dists[1] < 0.005
