import math

import numpy as np
import pytest

from frontforge import evolution, front_suite
from frontforge.evolution import (
    EvolutionState,
    EvolveOptions,
    SpeedTrace,
    evolve,
    measure_speed,
    stability_limit,
    step,
)
from frontforge.front_suite import evolution_grid, oracle_evolution_run, step_initial
from frontforge.grid import Field, GridSpec, trace
from frontforge.nonlinearity import make_bistable_cubic, make_combustion
from oracles import step_reference


def quiet_law():
    """Reaction vanishing on [0, 0.9]: effectively f = 0 for mid-range data."""
    return make_combustion(0.9, 1.0)


def small_grid():
    return GridSpec(x_max=4.0, y_min=-8.0, y_max=4.0, nx=32, ny=192, a=0.5)


class TestStep:
    def test_constant_state_is_stationary_without_reaction(self):
        spec = small_grid()
        nl = quiet_law()
        state = EvolutionState(Field(np.full((spec.nx + 1, spec.ny + 1), 0.5), spec), 0.0)
        out = step(state, 0.01, nl)
        np.testing.assert_allclose(out.field.values, 0.5, atol=1e-13)
        assert out.time == pytest.approx(0.01)

    def test_all_ones_is_equilibrium(self):
        spec = small_grid()
        nl = make_bistable_cubic(0.25)  # f(1) = 0
        state = EvolutionState(Field(np.ones((spec.nx + 1, spec.ny + 1)), spec), 0.0)
        out = step(state, 0.01, nl)
        np.testing.assert_allclose(out.field.values, 1.0, atol=1e-13)

    def test_maximum_principle_without_reaction(self):
        spec = small_grid()
        nl = quiet_law()
        rng = np.random.default_rng(0)
        blob = 0.35 + 0.25 * rng.uniform(size=(spec.nx + 1, spec.ny + 1))
        state = EvolutionState(Field(blob, spec), 0.0)
        for _ in range(5):
            state = step(state, 0.02, nl)
        assert state.field.values.min() >= blob.min() - 1e-12
        assert state.field.values.max() <= blob.max() + 1e-12

    def test_stability_guard(self):
        spec = small_grid()
        nl = make_bistable_cubic(0.25)
        state = EvolutionState(Field(np.zeros((spec.nx + 1, spec.ny + 1)), spec), 0.0)
        for factor in (10.0, 0.0, math.nan):
            with pytest.raises(ValueError):
                step(state, factor * stability_limit(spec, nl), nl)

    @pytest.mark.parametrize("law", [make_bistable_cubic(0.25), quiet_law()], ids=["cubic", "quiet"])
    def test_matches_reference_step(self, law):
        # the reference solves the unsymmetrized PDE matrices by banded LU, a
        # different exact factorization, so the fields agree to rounding only
        spec = small_grid()
        blob = 0.35 + 0.25 * np.random.default_rng(0).uniform(size=(spec.nx + 1, spec.ny + 1))
        dt = 0.5 * stability_limit(spec, law)
        for values in (blob, np.ones_like(blob), np.full_like(blob, 0.5)):
            state = ref = EvolutionState(Field(values, spec), 0.0)
            for _ in range(5):
                state, ref = step(state, dt, law), step_reference(ref, dt, law)
                np.testing.assert_allclose(state.field.values, ref.field.values, rtol=0.0, atol=1e-13)
                assert state.time == ref.time

    def test_step_leaves_an_f_ordered_field_unchanged(self):
        # a step only reads its field, whatever the layout: an F-ordered
        # field is left as it was and steps to the bits of its C-ordered copy
        spec = GridSpec(x_max=2.0, y_min=-4.0, y_max=4.0, nx=16, ny=64, a=0.5)
        nl = make_bistable_cubic(0.25)
        front = 1.0 / (1.0 + np.exp(2.0 * spec.ys))
        values = np.asfortranarray(np.broadcast_to(front, (spec.nx + 1, spec.ny + 1)))
        kept = values.copy()
        dt = 0.5 * stability_limit(spec, nl)
        out = step(EvolutionState(Field(values, spec), 0.0), dt, nl)
        assert np.array_equal(values, kept)
        ref = step(EvolutionState(Field(np.ascontiguousarray(values), spec), 0.0), dt, nl)
        assert np.array_equal(out.field.values, ref.field.values)

    def test_profile_translates_by_ct(self, oracle_nl):
        # evolving the closed-form front shifts it by c*dt per step
        from frontforge.explicit_front import ExplicitFrontParams, sample_front
        from frontforge.grid import trace_crossing

        params = ExplicitFrontParams(1.0, 2.0)
        spec = evolution_grid(2.0, resolution=48)
        state = EvolutionState(Field(sample_front(params, spec.xs, spec.ys), spec), 0.0)
        y0 = trace_crossing(trace(state.field))
        T = 0.5
        n = 160
        for _ in range(n):
            state = step(state, T / n, oracle_nl)
        y1 = trace_crossing(trace(state.field))
        assert (y1 - y0) == pytest.approx(2.0 * T, rel=0.05)


class TestEvolve:
    def test_comparison_principle(self):
        spec = small_grid()
        nl = make_bistable_cubic(0.25)
        rng = np.random.default_rng(4)
        lower = 0.3 * rng.uniform(size=(spec.nx + 1, spec.ny + 1))
        upper = lower + 0.2
        s_lo = EvolutionState(Field(lower.copy(), spec), 0.0)
        s_hi = EvolutionState(Field(upper.copy(), spec), 0.0)
        dt = 0.4 * stability_limit(spec, nl)
        for _ in range(30):
            s_lo = step(s_lo, dt, nl)
            s_hi = step(s_hi, dt, nl)
        assert np.all(s_lo.field.values <= s_hi.field.values + 1e-11)

    def test_step_data_trace_becomes_monotone(self):
        nl = make_bistable_cubic(0.25)
        spec = evolution_grid(0.1, resolution=24)
        init = step_initial(spec, y0=0.0)
        final, _ = evolve(init, nl, T=20.0)
        tr = trace(final.field)
        assert np.all(np.diff(tr.values) <= 1e-10)

    @pytest.mark.slow
    def test_combustion_front_invades_with_positive_speed(self, combustion_pair):
        sol = combustion_pair[1]  # amplitude 1.0 at beta = 0.3
        nl = make_combustion(0.3, 1.0)
        spec = evolution_grid(sol.speed, resolution=32)
        init = step_initial(spec, y0=0.0)
        T = 12.0 / sol.speed
        _, speed_trace = evolve(init, nl, T, EvolveOptions(out_every=T / 100.0))
        measured = measure_speed(speed_trace, burn_in_fraction=0.5)
        assert measured > 0.0
        assert measured == pytest.approx(sol.speed, rel=0.25)  # power-rate relaxation

    def test_maximum_principle_with_reaction(self, monkeypatch):
        # steps at the stability limit keep step data inside [0, 1] on every
        # step of the leg, the final field included
        nl = make_bistable_cubic(0.25)
        spec = evolution_grid(0.1, resolution=24)
        dt = stability_limit(spec, nl)
        bounds = []
        advance_unrecorded = evolution._advance

        def advance(*args):
            out = advance_unrecorded(*args)
            bounds.append((out.field.values.min(), out.field.values.max()))
            return out

        monkeypatch.setattr(evolution, "_advance", advance)
        final, _ = evolve(step_initial(spec, y0=0.0), nl, T=40.0 * dt, opts=EvolveOptions(dt=dt))
        assert len(bounds) == 40
        assert bounds[-1] == (final.field.values.min(), final.field.values.max())
        assert min(lo for lo, _ in bounds) >= -1e-12
        assert max(hi for _, hi in bounds) <= 1.0 + 1e-12

    def test_leg_matches_reference_steps(self, oracle_nl):
        # the benchmark's evolution leg (oracle front, evolution_grid(2, 64))
        # gives the bits of n chained `step` calls of T/n, each of which
        # factors its own sweep matrices
        from frontforge.explicit_front import ExplicitFrontParams, sample_front

        params = ExplicitFrontParams(1.0, 2.0)
        spec = evolution_grid(2.0, resolution=64)
        init = Field(sample_front(params, spec.xs, spec.ys), spec)
        T = 0.125
        n = math.ceil(T / (0.5 * stability_limit(spec, oracle_nl)))
        final, _ = evolve(init, oracle_nl, T)
        ref = EvolutionState(init, 0.0)
        for _ in range(n):
            ref = step(ref, T / n, oracle_nl)
        assert np.array_equal(final.field.values, ref.field.values)
        assert final.time == ref.time

    @pytest.mark.parametrize("dt_factor", [None, 0.3])
    def test_stability_limit_runs_once(self, monkeypatch, dt_factor):
        spec = small_grid()
        nl = make_bistable_cubic(0.25)
        lim = stability_limit(spec, nl)
        calls = []

        def counted(*args):
            calls.append(args)
            return stability_limit(*args)

        monkeypatch.setattr(evolution, "stability_limit", counted)
        dt = None if dt_factor is None else dt_factor * lim
        state, _ = evolve(step_initial(spec, y0=-2.0), nl, T=20.0 * lim, opts=EvolveOptions(dt=dt))
        assert state.time == pytest.approx(20.0 * lim)
        assert len(calls) == 1

    def test_over_limit_dt_rejected_before_first_step(self, monkeypatch):
        spec = small_grid()
        nl = make_bistable_cubic(0.25)
        dt = 1.01 * stability_limit(spec, nl)
        monkeypatch.setattr(evolution, "_advance", lambda *a: pytest.fail("a step ran"))
        with pytest.raises(ValueError) as exc:
            evolve(step_initial(spec, y0=-2.0), nl, T=10.0 * dt, opts=EvolveOptions(dt=dt))
        assert f"dt = {dt:g} " in str(exc.value)

    @pytest.mark.parametrize("out_every", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_out_every_rejected_before_first_step(self, monkeypatch, out_every):
        spec = small_grid()
        monkeypatch.setattr(evolution, "_advance", lambda *a: pytest.fail("a step ran"))
        with pytest.raises(ValueError) as exc:
            evolve(step_initial(spec, y0=-2.0), quiet_law(), T=2.0, opts=EvolveOptions(out_every=out_every))
        assert f"out_every = {out_every:g} " in str(exc.value)

    def test_traveling_invariance_and_speed(self):
        speed, drift = oracle_evolution_run(1.0, 2.0, T=3.0, resolution=48)
        assert speed == pytest.approx(2.0, rel=0.05)
        assert drift < 0.02

    def test_oracle_run_shares_one_cache_key(self, monkeypatch):
        # the corpus (positional) and criterion 10 (keywords) reach the same run
        runs = []
        monkeypatch.setattr(front_suite, "_oracle_evolution_run", lambda *a: runs.append(a) or (2.0, 0.0))
        assert front_suite.oracle_evolution_speed(1, 2) == 2.0
        oracle_evolution_run(1.0, 2.0, T=3.0, resolution=64)
        assert runs[0] == runs[1] == (1.0, 2.0, 3.0, 64)
        assert [type(v) for v in runs[0]] == [type(v) for v in runs[1]]

    def test_recentering_keeps_level_recorded_continuously(self, oracle_nl):
        from frontforge.explicit_front import ExplicitFrontParams, sample_front

        params = ExplicitFrontParams(1.0, 2.0)
        spec = evolution_grid(2.0, resolution=32)
        init = Field(sample_front(params, spec.xs, spec.ys), spec)
        _, tr = evolve(init, oracle_nl, T=6.0, opts=EvolveOptions(out_every=0.05))
        gaps = np.diff(tr.level_positions)
        # drift stays near c*dt_out with no recentering jumps
        assert np.max(np.abs(gaps - np.median(gaps))) < 0.2

    def test_input_validation(self):
        spec = small_grid()
        nl = quiet_law()
        bad = Field(np.full((spec.nx + 1, spec.ny + 1), 1.4), spec)
        with pytest.raises(ValueError):
            evolve(bad, nl, T=1.0)
        good = Field(np.full((spec.nx + 1, spec.ny + 1), 0.5), spec)
        with pytest.raises(ValueError):
            evolve(good, nl, T=-1.0)


class TestMeasureSpeed:
    def test_exact_linear_trace(self):
        t = np.linspace(0.0, 10.0, 40)
        tr = SpeedTrace(t, 5.0 - 2.0 * t)
        assert measure_speed(tr) == pytest.approx(2.0, abs=1e-12)

    def test_constant_trace(self):
        t = np.linspace(0.0, 10.0, 40)
        tr = SpeedTrace(t, np.full_like(t, 1.5))
        assert measure_speed(tr) == pytest.approx(0.0, abs=1e-12)

    def test_rising_trace_reports_positive_speed(self):
        t = np.linspace(0.0, 10.0, 40)
        tr = SpeedTrace(t, 5.0 + 2.0 * t)
        assert measure_speed(tr) == pytest.approx(2.0, abs=1e-12)

    def test_sample_count_guard(self):
        t = np.linspace(0.0, 1.0, 8)
        tr = SpeedTrace(t, -2.0 * t)
        with pytest.raises(ValueError):
            measure_speed(tr)

    def test_burn_in_guard(self):
        t = np.linspace(0.0, 1.0, 40)
        tr = SpeedTrace(t, -2.0 * t)
        with pytest.raises(ValueError):
            measure_speed(tr, burn_in_fraction=1.2)
