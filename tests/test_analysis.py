import math

import numpy as np
import pytest

from frontforge.analysis import (
    align_and_compare,
    fit_decay,
    lower_bound_check,
    sandwich_check,
    speed_ordering,
    standard_window,
)
from frontforge.explicit_front import ExplicitFrontParams, front_nonlinearity
from frontforge.grid import TraceProfile
from frontforge.nonlinearity import make_combustion


def synthetic_traces(c=2.0, const=0.4):
    """Traces matching the four tail models exactly on both sides."""
    ys = np.linspace(-60.0, 30.0, 1801)
    plus_model = np.exp(-c * np.maximum(ys, 1e-9)) * np.maximum(ys, 1e-9) ** -1.5
    minus_model_dy = (-np.minimum(ys, -1e-9)) ** -1.5
    uy = -const * np.where(ys > 0, plus_model, minus_model_dy)
    one_minus = const * (-np.minimum(ys, -1e-9)) ** -0.5
    vals = np.where(ys > 0, const * plus_model, 1.0 - one_minus)
    return TraceProfile(ys, vals), TraceProfile(ys, uy)


class TestFitDecay:
    def test_exact_model_recovers_constant(self):
        tr, tdy = synthetic_traces(const=0.4)
        for side, quantity in (
            ("plus", "minus_u_y"),
            ("minus", "minus_u_y"),
            ("plus", "u"),
            ("minus", "one_minus_u"),
        ):
            rep = fit_decay(tr, tdy, 2.0, side, quantity)
            assert rep.fitted_constant == pytest.approx(0.4, rel=1e-10)
            assert rep.sandwich_b == pytest.approx(max(0.4, 1 / 0.4), rel=1e-10)
            assert sandwich_check(rep, rep.sandwich_b)
            assert lower_bound_check(rep, rep.sandwich_b)

    def test_b_of_one_needs_exact_compensation(self):
        tr, tdy = synthetic_traces(const=1.0)
        rep = fit_decay(tr, tdy, 2.0, "plus", "minus_u_y")
        assert sandwich_check(rep, 1.0)  # exactly the model: b = 1 works
        tr2, tdy2 = synthetic_traces(const=0.7)
        rep2 = fit_decay(tr2, tdy2, 2.0, "plus", "minus_u_y")
        assert not sandwich_check(rep2, 1.0)

    def test_window_margin_rejection(self):
        tr, tdy = synthetic_traces()
        with pytest.raises(ValueError):
            fit_decay(tr, tdy, 2.0, "plus", "minus_u_y", window=(0.2, 10.0))
        with pytest.raises(ValueError):
            fit_decay(tr, tdy, 2.0, "plus", "minus_u_y", window=(5.0, 29.5))
        with pytest.raises(ValueError):
            fit_decay(tr, tdy, 2.0, "minus", "one_minus_u", window=(-59.0, -10.0))

    @pytest.mark.parametrize("c", [-1.0, 0.0, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_speed_rejected(self, c):
        tr, tdy = synthetic_traces()
        with pytest.raises(ValueError, match="positive and finite"):
            fit_decay(tr, tdy, c, "plus", "minus_u_y")

    def test_unsupported_law_combination(self):
        tr, tdy = synthetic_traces()
        with pytest.raises(ValueError):
            fit_decay(tr, tdy, 2.0, "minus", "u")
        with pytest.raises(ValueError):
            fit_decay(tr, tdy, 2.0, "plus", "one_minus_u")

    def test_nonpositive_quantity_rejected(self):
        ys = np.linspace(-40.0, 20.0, 801)
        flat = TraceProfile(ys, np.clip(0.5 - 0.01 * ys, 0.0, 1.0))
        zero_dy = TraceProfile(ys, np.zeros_like(ys))
        with pytest.raises(ValueError):
            fit_decay(flat, zero_dy, 1.0, "plus", "minus_u_y")

    def test_standard_window_geometry(self):
        tr, _ = synthetic_traces()
        lo, hi = standard_window(tr, "plus")
        assert lo == 1.0
        assert hi == pytest.approx(30.0 - 0.15 * 90.0)
        lo, hi = standard_window(tr, "minus")
        assert hi == -1.0
        assert lo == pytest.approx(-60.0 + 0.15 * 90.0)


class TestAlign:
    def test_idempotent_on_same_trace(self):
        ys = np.linspace(-20.0, 20.0, 401)
        vals = 1.0 / (1.0 + np.exp(ys))
        tr = TraceProfile(ys, vals)
        shift, dist = align_and_compare(tr, tr)
        assert shift == 0.0
        assert dist == 0.0

    def test_recovers_known_shift(self):
        ys = np.linspace(-20.0, 20.0, 2001)
        f = lambda y: 1.0 / (1.0 + np.exp(y))
        tr1 = TraceProfile(ys, f(ys))
        tr2 = TraceProfile(ys, f(ys + 3.7))  # tr2 = tr1 shifted
        shift, dist = align_and_compare(tr1, tr2)
        assert shift == pytest.approx(3.7, abs=1e-3)
        assert dist < 5e-4

    def test_requires_crossing(self):
        ys = np.linspace(-20.0, 20.0, 101)
        tr1 = TraceProfile(ys, 1.0 / (1.0 + np.exp(ys)))
        high = TraceProfile(ys, 0.9 - 0.001 * (ys + 20.0))
        with pytest.raises(ValueError):
            align_and_compare(tr1, high)

    def test_requires_monotone(self):
        ys = np.linspace(-20.0, 20.0, 101)
        wiggly = TraceProfile(ys, 0.5 + 0.4 * np.sin(ys))
        tr1 = TraceProfile(ys, 1.0 / (1.0 + np.exp(ys)))
        with pytest.raises(ValueError):
            align_and_compare(tr1, wiggly)


class TestSpeedOrdering:
    def test_rejects_sign_crossing_pair(self):
        # (c/2) f^t laws for c = 2 vs c = 1 differ by a positive factor,
        # so f1 - f2 = f^t/2 changes sign: not pointwise ordered
        f1 = front_nonlinearity(ExplicitFrontParams(1.0, 2.0))
        f2 = front_nonlinearity(ExplicitFrontParams(1.0, 1.0))
        with pytest.raises(ValueError):
            speed_ordering(f1, f2)

    def test_rejects_equal_laws(self):
        nl = make_combustion(0.3, 1.0)
        with pytest.raises(ValueError):
            speed_ordering(nl, nl)

    @pytest.mark.slow
    def test_combustion_amplitudes_are_ordered(self):
        res = speed_ordering(make_combustion(0.3, 1.5), make_combustion(0.3, 1.0))
        assert res.ordered
        assert res.variational_ordered
        assert res.c1 > res.c2 > 0.0
        assert res.infimum1 < res.infimum2 < 0.0

    @pytest.mark.slow
    def test_identical_solves_agree(self):
        from frontforge.nonlinearity import make_bistable_cubic
        from frontforge.solver import SolverOptions, solve_front

        nl = make_bistable_cubic(0.25)
        c1 = solve_front(nl, SolverOptions()).speed
        c2 = solve_front(nl, SolverOptions()).speed
        assert c1 == pytest.approx(c2, rel=1e-9)  # deterministic pipeline


@pytest.mark.slow
def test_combustion_tail_exponent_contrast(combustion_pair):
    """Compensating a combustion front by the bistable-tail model produces a
    rising trend: its invaded-side decay carries y^{-1/2}, not y^{-3/2}."""
    from frontforge.front_suite import derivative_trace

    sol = combustion_pair[1]
    tr = sol.trace
    tdy = derivative_trace(tr)
    lo, hi = standard_window(tr, "plus")
    rep = fit_decay(tr, tdy, sol.speed, "plus", "u", window=(lo, hi))
    y = tr.y_nodes
    m = (y >= lo) & (y <= hi)
    q = tr.values[m] / (np.exp(-sol.speed * y[m]) * y[m] ** -1.5)
    # ratio grows across the window by more than the bistable o(1) wiggle
    assert q[-1] / q[0] > 3.0
    assert rep.ratio_max / rep.ratio_min > 3.0
