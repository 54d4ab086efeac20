import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh

from frontforge import grid as gridmod
from frontforge import solver
from frontforge.explicit_front import ExplicitFrontParams, front_nonlinearity, sample_front
from frontforge.grid import GridSpec, Field, TraceProfile, dirichlet, energy, seed_function, trace
from frontforge.nonlinearity import NonlinearityError, make_bistable_cubic, make_combustion, reflect
from frontforge.solver import (
    MinimizerResult,
    SolverError,
    SolverOptions,
    SolveRecord,
    _admissible,
    _boundary_modes,
    _dst,
    _stationarity,
    _Trace,
    _Workspace,
    choose_weight,
    default_grid,
    extract_speed,
    minimize,
    pde_residual,
    seed_energy_value,
    solve_front,
)
from oracles import (
    boundary_modes_exact,
    boundary_ntd_dense,
    free_stiffness_solve,
    newton_step_finite_difference,
    newton_step_sparse,
    reduced_problem_dense,
    trace_extension_sparse,
)


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
        stiff = gridmod.apply_stiffness(spec, seed_function(spec).values)[:, 1:-1]
        noise = np.random.default_rng(0).standard_normal(stiff.shape)
        for rhs in (stiff, noise):
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


def _burst_trace(spec, nl, steps=20):
    """The trace problem and the trace that a `steps`-step burst hands to
    Newton, with lambda_a there."""
    problem = _Trace(spec)
    u, e_seed = problem.trial(seed_function(spec).values[0].copy(), nl)
    u, _ = problem.burst(u, nl, [e_seed], steps, SolveRecord())
    return problem, u, problem.stationarity(u, nl)[2]


def _monotone_traces(ny, rng, count):
    """Random nonincreasing traces with the pins at the ends, some flat at 1
    or at 0 over long runs and some with plateaus inside."""
    for k in range(count):
        u = np.sort(rng.uniform(0.0, 1.0, ny + 1))[::-1]
        if k % 3 == 1:
            u[: rng.integers(ny // 4, 3 * ny // 4)] = 1.0
        elif k % 3 == 2:
            u[rng.integers(ny // 4, 3 * ny // 4) :] = 0.0
        else:
            u = np.round(u, 1)
        u[0], u[-1] = 1.0, 0.0
        yield u


class TestTrace:
    def test_pins_extension_matches_the_sparse_solve(self):
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions(nx=16, ny=64))
        problem = _Trace(spec)
        _, u0, kappa0 = reduced_problem_dense(spec)
        assert np.max(np.abs(problem.u0 - u0)) <= 1e-12
        assert problem.kappa0 == pytest.approx(kappa0, rel=1e-12)

    @pytest.mark.parametrize("refine", [0, 1])
    def test_pins_profile_is_the_pins_extension(self, refine):
        # the profile broadcast over x leaves no stiffness residual on the
        # free nodes, measured against the pins' coupling into them (the
        # flux every y-edge carries), and its Gamma_a is kappa0.  Against
        # correctly rounded tail sums the profile is relatively accurate up
        # to y_max, where it is about e^-52 (summed from y_min, 1e8 off)
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions(refine=refine))
        problem = _Trace(spec)
        r = 1.0 / spec.wy_edge
        tails = np.array([math.fsum(r[j:]) for j in range(spec.ny)])
        assert np.max(np.abs(problem.profile[:-1] / (tails / tails[0]) - 1.0)) <= 1e-14
        pins = np.tile(problem.profile, (spec.nx + 1, 1))
        coupling = np.zeros_like(pins)
        coupling[:, 0] = 1.0
        scale = np.max(np.abs(gridmod.apply_stiffness(spec, coupling)[:, 1:-1]))
        assert np.max(np.abs(gridmod.apply_stiffness(spec, pins)[:, 1:-1])) <= 1e-14 * scale
        assert type(problem.kappa0) is float
        assert problem.kappa0 == pytest.approx(dirichlet(Field(pins, spec)), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("nx, ny", [(16, 64), (96, 448)])
    def test_boundary_modes_match_the_exact_recurrence(self, nx, ny):
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions(nx=nx, ny=ny))
        exact = boundary_modes_exact(spec)
        assert np.max(np.abs(_boundary_modes(spec) - exact) / exact) <= 1e-15

    @pytest.mark.parametrize("nx, ny", [(16, 64), (32, 128)])
    def test_extension_matches_the_sparse_solve(self, nx, ny):
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions(nx=nx, ny=ny))
        problem, burst, _ = _burst_trace(spec, nl)
        for u in (burst, *_monotone_traces(ny, np.random.default_rng(3), 3)):
            ref = trace_extension_sparse(spec, u)
            ext = problem.extend(u).values
            assert np.max(np.abs(ext - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_gamma_is_the_dirichlet_integral_of_the_extension(self):
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions())
        problem, burst, _ = _burst_trace(spec, nl)
        for u in (burst, *_monotone_traces(spec.ny, np.random.default_rng(5), 3)):
            gamma = problem.scaled(u)[2]
            assert gamma == pytest.approx(dirichlet(problem.extend(u)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nx, ny", [(16, 64), (96, 448)])
    @pytest.mark.parametrize("law", ["cubic", "combustion", "oracle"])
    def test_trace_stationarity_is_the_test_of_the_extension(self, law, nx, ny, oracle_nl):
        # the trace test in Lambda's modes against the two-dimensional test
        # of the extended field, after a short and the hand-off burst; rho
        # is compared where it is not round-off of a difference near zero
        nl = {"cubic": make_bistable_cubic(0.25), "combustion": make_combustion(0.3, 1.0), "oracle": oracle_nl}[law]
        spec = default_grid(choose_weight(nl), SolverOptions(nx=nx, ny=ny))
        for steps in (3, 20):
            problem, u, _ = _burst_trace(spec, nl, steps)
            rho, gamma, lam = problem.stationarity(u, nl)
            ref_rho, ref_gamma, ref_lam = _stationarity(problem.ws, problem.extend(u), nl)
            assert gamma == pytest.approx(ref_gamma, rel=1e-13, abs=0.0)
            assert lam == pytest.approx(ref_lam, rel=1e-13, abs=0.0)
            if ref_rho >= 1e-6:
                assert rho == pytest.approx(ref_rho, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("nx, ny", [(16, 64), (48, 224), (96, 448)])
    def test_extension_of_a_monotone_trace_is_monotone(self, nx, ny):
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions(nx=nx, ny=ny))
        problem = _Trace(spec)
        for u in _monotone_traces(ny, np.random.default_rng(nx), 9):
            ext = problem.extend(u).values
            assert np.all(np.diff(ext, axis=1) <= 0.0)
            assert np.all((ext >= 0.0) & (ext <= 1.0))
            assert _admissible(ext)


class TestNewton:
    def test_capacitance_matches_the_dense_schur_complement(self):
        # M = C^{-1/2} Lambda C^{-1/2} as the DST apply, and its inverse,
        # the scaled Neumann-to-Dirichlet map C^{1/2} N C^{1/2}
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions(nx=16, ny=64))
        problem = _Trace(spec)
        root_c = problem.root_c
        ntd = root_c[:, None] * boundary_ntd_dense(spec) * root_c[None, :]
        ref = np.linalg.inv(ntd)
        applied = np.stack([_dst(problem.d * _dst(e)) for e in np.eye(spec.ny - 1)])
        assert np.max(np.abs(applied - ref)) <= 1e-12 * np.max(np.abs(ref))
        applied = np.stack([_dst(_dst(e) / problem.d) for e in np.eye(spec.ny - 1)])
        assert np.max(np.abs(applied - ntd)) <= 1e-12 * np.max(np.abs(ntd))

    def test_step_matches_the_finite_difference_jacobian(self):
        # the reduced problem's bordered Jacobian by differences: exact for
        # the cubic law while the trace stays inside (0, 1), so the burst's
        # trace is squeezed into [0.02, 0.98]; on and off Gamma = 1
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions(nx=16, ny=64))
        problem, burst, lam = _burst_trace(spec, nl)
        dtn = reduced_problem_dense(spec)[0]
        squeezed = 0.02 + 0.96 * burst
        for u in (squeezed, squeezed * 1.01):
            du, dlam = problem.newton_step(u, nl, lam, SolveRecord())
            ref_du, ref_dlam = newton_step_finite_difference(spec, u, nl, lam)
            err = du - ref_du
            assert np.sqrt(err @ dtn @ err) <= 1e-12 * np.sqrt(ref_du @ dtn @ ref_du)
            assert dlam == pytest.approx(ref_dlam, rel=1e-12)

    def test_step_matches_the_sparse_bordered_jacobian(self):
        # the trace step is row 0 of the two-dimensional Newton step from
        # the extension.  From a 3-step burst (rho/|g| 0.24) and from a
        # perturbed trace off Gamma = 1; nearer the minimizer (rho/|g| 1e-2
        # after 20 steps) the residual is a difference of terms 100 times
        # larger, whose round-off limits the agreement to 5e-12
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions(nx=32, ny=128))
        problem, burst, lam = _burst_trace(spec, nl, steps=3)
        bump = np.zeros_like(burst)
        bump[1:-1] = 1e-3 * np.sin(np.linspace(0.0, 9.0, spec.ny - 1))
        root_c = problem.root_c
        for u in (burst, burst + bump):
            du, dlam = problem.newton_step(u, nl, lam, SolveRecord())
            ref_dw, ref_dlam = newton_step_sparse(problem.extend(u), nl, lam)
            # in the scaled unknowns C^{1/2} du: the weights e^{ay} set the
            # metric, and the deep nodes, whose weight is below 1e-15, are
            # not constrained in the max norm
            err = np.linalg.norm(root_c * (du - ref_dw[0]))
            assert err <= 1e-12 * np.linalg.norm(root_c * ref_dw[0])
            assert dlam == pytest.approx(ref_dlam, rel=1e-12)

    def test_minres_iterations_per_step_do_not_depend_on_the_grid(self, monkeypatch):
        # the shifted preconditioner leaves a perturbation confined to the
        # front, so each step's iterations (about 27 on the cubic) stay put
        # when the mesh width halves
        per_step = []
        minres = solver._minres

        def counted(*args):
            x, iterations = minres(*args)
            per_step[-1].append(iterations)
            return x, iterations

        monkeypatch.setattr(solver, "_minres", counted)
        nl = make_bistable_cubic(0.25)
        for refine in (0, 1):
            per_step.append([])
            spec = default_grid(choose_weight(nl), SolverOptions(refine=refine))
            problem, burst, lam = _burst_trace(spec, nl)
            record = SolveRecord()
            assert problem.newton(burst, nl, lam, 1e-10, record) is not None
            assert record.krylov_iterations == sum(per_step[-1])
        coarse, fine = per_step
        assert len(coarse) == len(fine)
        assert max(abs(a - b) for a, b in zip(coarse, fine)) <= 2

    @pytest.mark.parametrize(
        "nl",
        [
            make_bistable_cubic(0.25),
            make_combustion(0.3, 1.0),
            make_combustion(0.7, 1.0),
            front_nonlinearity(ExplicitFrontParams(1.0, 2.0)),
        ],
        ids=["cubic", "combustion-0.3", "combustion-0.7", "oracle"],
    )
    def test_minres_converges_within_its_cap_on_a_coarse_grid(self, nl, monkeypatch):
        # the cap is ny iterations, nearest to a step's needs on the coarsest
        # grid: at 16x64 the steps take at most 38 (combustion 0.7), and
        # Newton ends as it did with the dense solve, converged (stop
        # "residual") or, for combustion 0.3, converged and refused
        per_step = []
        minres = solver._minres

        def counted(*args):
            x, iterations = minres(*args)
            per_step.append(iterations)
            return x, iterations

        monkeypatch.setattr(solver, "_minres", counted)
        opts = SolverOptions(nx=16, ny=64)
        res = minimize(default_grid(choose_weight(nl), opts), nl, opts)
        assert res.record.stop in ("residual", "refused")
        assert res.record.krylov_iterations == sum(per_step)
        assert 0 < max(per_step) <= 0.75 * opts.ny

    def test_a_minres_that_does_not_converge_stops_newton(self, monkeypatch):
        # capped at one iteration, the first step's MINRES breaks down:
        # Newton returns None and the burst's trace is reported unconverged
        minres = solver._minres
        monkeypatch.setattr(solver, "_minres", lambda apply, precond, rhs, cap: minres(apply, precond, rhs, 1))
        nl = make_bistable_cubic(0.25)
        opts = SolverOptions(nx=48, ny=224)
        spec = default_grid(choose_weight(nl), opts)
        problem, burst, lam = _burst_trace(spec, nl)
        record = SolveRecord()
        assert problem.newton(burst, nl, lam, opts.tol, record) is None
        assert record.newton_steps == record.krylov_iterations == 1
        res = minimize(spec, nl, opts)
        assert res.record.stop == "newton"
        assert not res.converged
        assert res.record.newton_steps == res.record.krylov_iterations == 1

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

    @pytest.mark.parametrize("refine", [0, 1])
    def test_kernel_seeded_oracle_law_converges_to_the_same_speed(
        self, refine, oracle_nl, oracle_solution, oracle_solution_refined
    ):
        # the kernel seed's burst stops within 1e-8 of Gamma = 1 but off it;
        # E_a/Gamma_a, which a shift in y leaves unchanged, ranks the burst's
        # and Newton's traces whatever their Gamma, and the law's G is the
        # antiderivative of its f, so Newton's trace is accepted
        sol = solve_front(oracle_nl, SolverOptions(seed="kernel", refine=refine))
        assert sol.record.stop == "residual"
        ref = oracle_solution_refined if refine else oracle_solution
        assert sol.speed == pytest.approx(ref.speed, rel=1e-12, abs=0.0)


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
    # at the default 96x448 grid a trace trial measures 0.11 fields, a
    # Newton step 0.26 and a whole Newton run 0.28 (MINRES keeps a few
    # vectors of ny values and no ny x ny matrix) and an extension 4.0;
    # dirichlet on its own, on an extended front scaled by 1.01, 1.4; each
    # pin has half a field of margin
    nl = make_bistable_cubic(0.25)
    spec = default_grid(choose_weight(nl), SolverOptions())
    problem, burst, lam = _burst_trace(spec, nl)
    assert _peak_in_fields(problem.trial, burst * 1.01, nl) <= 0.12 + 0.5
    assert _peak_in_fields(problem.newton_step, burst, nl, lam, SolveRecord()) <= 0.26 + 0.5
    assert _peak_in_fields(problem.newton, burst, nl, lam, 1e-10, SolveRecord()) <= 0.28 + 0.5
    assert _peak_in_fields(problem.extend, burst) <= 4.0 + 0.5
    perturbed = Field(problem.extend(burst).values * 1.01, spec)
    assert perturbed.values.shape == (97, 449)
    assert _peak_in_fields(gridmod.dirichlet, perturbed) <= 1.4 + 0.5


def test_trial_energy_is_the_energy_of_its_field():
    # E_a comes from the projection's Gamma.  The last trace has a small
    # bump below y_max, which the projection's shift carries onto the pin
    # at y_max; the pins are no unknowns of Gamma, so pinning it again
    # leaves Gamma as the projection found it
    nl = make_bistable_cubic(0.25)
    spec = default_grid(choose_weight(nl), SolverOptions())
    problem = _Trace(spec)
    seed = seed_function(spec).values[0]
    u, _ = problem.trial(seed.copy(), nl)
    ramp = np.clip((spec.ys - spec.y_max) / (40.0 * spec.hy) + 1.0, 0.0, 1.0)
    bumped = 0.8 * u + 1e-5 * ramp * (1.0 - ramp)
    for vals in (seed, u * 1.01, u * 0.9, u, bumped):
        out, e_a = problem.trial(vals.copy(), nl)
        assert e_a == pytest.approx(energy(problem.extend(out), nl), rel=1e-13, abs=0.0)


class _Stop(Exception):
    pass


class TestSeed:
    @pytest.mark.parametrize("refine", [0, 1])
    @pytest.mark.parametrize("law", ["cubic_nl", "oracle_nl"])
    def test_kernel_seed_is_row_0_of_the_sampled_front(self, monkeypatch, request, law, refine):
        seen = {}

        def capture(spec, nl, opts, seed):
            seen.update(spec=spec, seed=seed)
            raise _Stop

        monkeypatch.setattr(solver, "minimize", capture)
        with pytest.raises(_Stop):
            solve_front(request.getfixturevalue(law), SolverOptions(seed="kernel", refine=refine))
        spec = seen["spec"]
        assert np.array_equal(seen["seed"].y_nodes, spec.ys)
        want = sample_front(ExplicitFrontParams(1.0, spec.a), spec.xs, spec.ys)[0]
        assert np.array_equal(seen["seed"].values, want)

    @pytest.mark.parametrize("bad", ["short", "long", "nan", "inf", "other window"])
    def test_minimize_rejects_a_bad_seed_before_any_work(self, monkeypatch, bad):
        nl = make_bistable_cubic(0.25)
        opts = SolverOptions(nx=16, ny=64)
        spec = default_grid(choose_weight(nl), opts)
        ys = {
            "short": spec.ys[:-1],
            "long": np.append(spec.ys, spec.y_max + spec.hy),
            "other window": spec.ys + spec.hy,  # the same ny nodes, shifted
        }.get(bad, spec.ys)
        values = np.linspace(1.0, 0.0, ys.size)
        values[ys.size // 2] = {"nan": np.nan, "inf": np.inf}.get(bad, values[ys.size // 2])

        def no_build(spec):
            raise AssertionError("the trace problem was built")

        monkeypatch.setattr(solver, "_Trace", no_build)
        with pytest.raises(ValueError, match="seed trace"):
            minimize(spec, nl, opts, seed=TraceProfile(ys, values))


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
        opts = SolverOptions(nx=48, ny=224)
        spec = default_grid(choose_weight(nl), opts)
        res = minimize(spec, nl, opts)
        hist = np.asarray(res.energy_history)
        # every accepted step decreases the energy (descent property)
        assert np.all(np.diff(hist) <= 1e-9 * np.abs(hist[:-1]) + 1e-13)

    def test_descent_converges_by_the_residual(self):
        # the hand-off burst leaves rho/|g| at 1.4e-2 here; three Newton
        # steps from there pass the residual test
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

    def test_near_balanced_cubic_converges_at_both_grids(self):
        # alpha = 0.4, where the two-dimensional fixed point stalled at
        # rho/|g| ~ 0.99: the trace burst leaves 5e-2, and Newton converges
        # in 8 steps at the default grid and 5 at refine=1.  At the default
        # grid the stationary point's two speed estimates are 4.9 % apart; at
        # refine=1 they agree within 1e-4
        nl = make_bistable_cubic(0.4)
        opts = SolverOptions()
        res = minimize(default_grid(choose_weight(nl), opts), nl, opts)
        assert res.converged
        opts = SolverOptions(refine=1)
        res = minimize(default_grid(choose_weight(nl), opts), nl, opts)
        assert res.converged
        sol = extract_speed(res)
        assert sol.speed == pytest.approx(sol.speed_variational, rel=1e-2)

    def test_disagreeing_speeds_are_refused(self):
        # on this grid the residual test passes, yet c = a(1 - 2 lambda_a)
        # is 10 % off a(1 - 2 I_a): the speed check refuses the result
        nl = make_bistable_cubic(0.4)
        opts = SolverOptions(nx=64, ny=288)
        res = minimize(default_grid(choose_weight(nl), opts), nl, opts)
        assert res.converged
        with pytest.raises(SolverError, match="disagree"):
            extract_speed(res)

    def test_coarse_stationary_point_is_refused(self):
        # on this coarse grid Newton reaches a stationary point (rho/|g|
        # 4e-14), but c = a(1 - 2 lambda_a) is 31 % off a(1 - 2 I_a), so
        # no speed may be reported
        nl = make_bistable_cubic(0.4)
        opts = SolverOptions(nx=48, ny=224)
        spec = default_grid(choose_weight(nl), opts)
        res = minimize(spec, nl, opts)
        assert res.converged
        assert res.residual_norm <= opts.tol
        with pytest.raises(SolverError, match="disagree"):
            solve_front(nl, opts)

    def test_a_refused_burst_trace_is_extended_once(self, monkeypatch):
        # seeded from its own minimizer the burst's trace passes the trace
        # test and Newton is skipped; the two-dimensional test, made to fail
        # here, refuses it, and that one extension is the one reported
        nl = make_bistable_cubic(0.25)
        opts = SolverOptions(nx=48, ny=224)
        spec = default_grid(choose_weight(nl), opts)
        seed = trace(minimize(spec, nl, opts).minimizer)
        extended = []
        extend = solver._Trace.extend
        monkeypatch.setattr(solver._Trace, "extend", lambda self, u: extended.append(u) or extend(self, u))
        monkeypatch.setattr(solver, "_stationarity", lambda ws, w, nl: (1.0, 1.0, 0.0))
        res = minimize(spec, nl, opts, seed=seed)
        assert res.record.stop == "refused"
        assert res.record.newton_steps == 0
        assert len(extended) == 1
        assert len(res.record.rho_history) == 2  # the burst's trace test, then its extension's
        assert res.residual_norm == res.record.rho_history[-1] == 1.0

    def test_stop_reasons(self):
        # at a tolerance below round-off the Newton attempt runs all 12
        # steps without passing the test, and the burst's trace is reported
        nl = make_bistable_cubic(0.4)
        opts = SolverOptions(tol=1e-30)
        res = minimize(default_grid(choose_weight(nl), opts), nl, opts)
        assert res.record.stop == "newton"
        assert not res.converged
        assert res.iterations == 1
        assert res.record.newton_steps == 12
        assert res.record.rho_history[-1] == res.residual_norm > 1e-2
        with pytest.raises(SolverError, match="did not converge"):
            extract_speed(res)
        # from the minimizer itself the burst accepts no step, and Newton
        # passes no test at a tolerance below round-off
        nl = make_bistable_cubic(0.25)
        opts = SolverOptions(nx=48, ny=224)
        spec = default_grid(choose_weight(nl), opts)
        start = minimize(spec, nl, opts)
        assert start.record.stop == "residual"
        res = minimize(spec, nl, replace(opts, tol=1e-30), seed=trace(start.minimizer))
        assert res.record.stop == "newton"
        assert res.record.burst_steps == 0
        assert not res.converged
        # at tol = 1e-14 Newton's trace passes the trace test (rho 1.2e-15),
        # but its extension's two-dimensional test reads 3.8e-14, so the
        # trace is refused and the burst's is reported
        nl = make_bistable_cubic(0.25)
        opts = SolverOptions(tol=1e-14)
        res = minimize(default_grid(choose_weight(nl), opts), nl, opts)
        assert res.record.stop == "refused"
        assert res.record.rho_history[-3] <= opts.tol < res.record.rho_history[-2]
        assert res.record.rho_history[-1] == res.residual_norm > 1e-5
        assert not res.converged
        with pytest.raises(SolverError, match="did not converge"):
            extract_speed(res)

    @pytest.mark.parametrize(
        "make, speed",
        [
            (lambda: make_bistable_cubic(0.02), 0.28690693589375105),
            (lambda: make_combustion(0.1, 3.0), 1.6396395765858731),
            (lambda: make_combustion(0.5, 0.5), 0.025637039880117948),
            (lambda: front_nonlinearity(ExplicitFrontParams(0.125, 0.5)), 0.4991610141894357),
            (lambda: front_nonlinearity(ExplicitFrontParams(2.5, 2.0)), 1.9816575916681294),
        ],
        ids=["cubic-0.02", "combustion-0.1-3", "combustion-0.5-0.5", "oracle-0.125-0.5", "oracle-2.5-2"],
    )
    def test_one_pass_converges_to_the_pinned_speed(self, make, speed):
        # the burst and one Newton attempt reach the residual test at the
        # default grid from the exponential seed, far from and near to the
        # balanced limit of each law family
        sol = solve_front(make(), SolverOptions())
        assert sol.record.stop == "residual"
        assert sol.speed == pytest.approx(speed, rel=1e-12, abs=0.0)

    def test_near_balanced_cubic_is_not_converged(self):
        # alpha = 0.48: the Newton attempt breaks down from the burst's trace
        with pytest.raises(SolverError, match="did not converge"):
            solve_front(make_bistable_cubic(0.48), SolverOptions())


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

    @pytest.mark.parametrize(
        "field, value", [("seed", "kernal"), ("tol", 0.0), ("tol", -1e-10), ("tol", math.nan), ("refine", -1)]
    )
    def test_bad_options_rejected_before_any_work(self, monkeypatch, field, value):
        nl = make_bistable_cubic(0.25)
        spec = default_grid(choose_weight(nl), SolverOptions(nx=16, ny=64))
        opts = replace(SolverOptions(), **{field: value})

        def no_work(*args):
            raise AssertionError("the solve started")

        for name in ("validate", "choose_weight", "_Trace"):
            monkeypatch.setattr(solver, name, no_work)
        with pytest.raises(ValueError, match=field):
            solve_front(nl, opts)
        with pytest.raises(ValueError, match=field):
            minimize(spec, nl, opts)

    def test_non_finite_weight_is_named(self):
        with pytest.raises(ValueError, match="^a = nan must be finite"):
            solve_front(make_bistable_cubic(0.25), SolverOptions(a=math.nan))

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
