import dataclasses
import math

import numpy as np
import pytest

from frontforge import nonlinearity as nlmod
from frontforge.nonlinearity import (
    NonlinearityError,
    antiderivative,
    ignition_point,
    make_bistable_cubic,
    make_combustion,
    make_custom,
    potential,
    reflect,
    validate,
)
from frontforge.explicit_front import ExplicitFrontParams, _law_table, front_nonlinearity
from oracles import adaptive_simpson_recursive, simpson_integral

CUBIC_BETA_CLOSED = (5.0 - math.sqrt(7.0)) / 6.0


class TestBistableCubic:
    def test_roots_are_exact(self):
        nl = make_bistable_cubic(0.25)
        assert float(nl.f(0.0)) == 0.0
        assert float(nl.f(1.0)) == 0.0
        assert float(nl.f(0.25)) == 0.0

    def test_integral_closed_form(self):
        nl = make_bistable_cubic(0.25)
        assert antiderivative(nl, 1.0) == pytest.approx((1.0 - 0.5) / 12.0, abs=1e-10)
        # independent Simpson cross-check
        assert simpson_integral(nl.f, 0.0, 1.0) == pytest.approx(1.0 / 24.0, abs=1e-10)

    def test_endpoint_derivatives_negative(self):
        nl = make_bistable_cubic(0.25)
        assert float(nl.f_prime(0.0)) == -0.25
        assert float(nl.f_prime(1.0)) == -(1.0 - 0.25)

    def test_beta_stored_matches_closed_form(self):
        nl = make_bistable_cubic(0.25)
        assert nl.beta == pytest.approx(CUBIC_BETA_CLOSED, rel=1e-12)

    def test_rejects_alpha_out_of_range(self):
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(NonlinearityError):
                make_bistable_cubic(bad)

    def test_validates(self):
        assert validate(make_bistable_cubic(0.25), 1000).passed


class TestCombustion:
    def test_zero_below_ignition(self):
        nl = make_combustion(0.3, 1.0)
        assert float(nl.f(0.15)) == 0.0
        assert float(nl.f(0.3)) == 0.0

    def test_value_above_ignition(self):
        nl = make_combustion(0.3, 1.0)
        assert float(nl.f(0.65)) == pytest.approx(0.35 * 0.35, rel=1e-12)

    def test_integral_closed_form(self):
        nl = make_combustion(0.3, 1.0)
        assert antiderivative(nl, 1.0) == pytest.approx((1.0 - 0.3) ** 3 / 6.0, rel=1e-9)

    def test_validates(self):
        assert validate(make_combustion(0.3, 1.0), 1000).passed

    def test_rejects_bad_parameters(self):
        with pytest.raises(NonlinearityError):
            make_combustion(1.2, 1.0)
        with pytest.raises(NonlinearityError):
            make_combustion(0.3, -1.0)


class TestPotential:
    def test_zero_at_origin(self):
        for nl in (make_bistable_cubic(0.25), make_combustion(0.3, 1.0)):
            assert potential(nl, 0.0) == 0.0

    def test_cubic_value_at_one(self):
        nl = make_bistable_cubic(0.25)
        assert potential(nl, 1.0) == pytest.approx(-(1.0 - 0.5) / 12.0, rel=1e-12)

    def test_combustion_flat_below_ignition(self):
        nl = make_combustion(0.3, 1.0)
        assert potential(nl, 0.3) == 0.0

    def test_derivative_is_minus_f(self):
        nl = make_bistable_cubic(0.3)
        for s in (-0.5, 0.2, 0.7, 1.4):
            h = 1e-6
            fd = (potential(nl, s + h) - potential(nl, s - h)) / (2.0 * h)
            assert fd == pytest.approx(-float(nl.f(s)), abs=1e-9)

    def test_sign_structure(self):
        for nl in (make_bistable_cubic(0.25), make_combustion(0.3, 1.0)):
            g1 = potential(nl, 1.0)
            assert g1 < 0.0
            s_neg = np.linspace(-5.0, 0.0, 100)
            assert np.all(np.asarray(nl.G(s_neg)) >= -1e-15)
            s_hi = np.linspace(1.0, 6.0, 100)
            assert np.all(np.asarray(nl.G(s_hi)) >= g1 - 1e-15)
            s_b = np.linspace(0.0, nl.beta, 200)
            assert np.all(np.asarray(nl.G(s_b)) >= -1e-15)

    def test_quadratic_bound(self):
        for nl in (make_bistable_cubic(0.25), make_combustion(0.3, 1.0)):
            s = np.linspace(-10.0, 10.0, 4001)
            g = np.asarray(nl.G(s))
            c_fit = float(np.max(np.abs(g) / np.maximum(s * s, 1e-12))) * (1.0 + 1e-12)
            assert np.all(g <= c_fit * s * s + 1e-12)
            assert np.all(g >= -c_fit * s * s - 1e-12)


class TestValidator:
    def test_constant_law_fails_endpoint_condition(self):
        flat = make_custom(
            lambda s: 0.1 * np.ones_like(np.asarray(s, dtype=float)),
            lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            delta=0.1,
            beta=0.5,
        )
        rep = validate(flat, 1000)
        assert not rep.passed
        assert any(cond == "f(0)=f(1)=0" for cond, _ in rep.violated_conditions)

    def test_reflected_cubic_fails_integral_condition(self):
        rep = validate(reflect(make_bistable_cubic(0.25)), 1000)
        assert not rep.passed
        assert any(cond == "integral_f_positive" for cond, _ in rep.violated_conditions)

    def test_samples_precondition(self):
        with pytest.raises(ValueError):
            validate(make_bistable_cubic(0.25), 50)

    def test_report_consistency(self):
        rep = validate(make_combustion(0.4, 0.7), 500)
        assert rep.passed == (not rep.violated_conditions)


class TestReflect:
    def test_involution_pointwise(self):
        nl = make_bistable_cubic(0.25)
        back = reflect(reflect(nl))
        s = np.linspace(-1.0, 2.0, 301)
        assert np.allclose(np.asarray(back.f(s)), np.asarray(nl.f(s)), atol=1e-14)
        assert np.allclose(np.asarray(back.G(s)), np.asarray(nl.G(s)), atol=1e-14)

    def test_root_mapping(self):
        refl = reflect(make_bistable_cubic(0.25))
        assert float(refl.f(0.75)) == pytest.approx(0.0, abs=1e-15)

    def test_integral_negation(self):
        nl = make_bistable_cubic(0.3)
        assert antiderivative(reflect(nl), 1.0) == pytest.approx(
            -antiderivative(nl, 1.0), rel=1e-9
        )


class TestIgnitionPoint:
    def test_combustion_returns_stored(self):
        assert ignition_point(make_combustion(0.3, 1.0)) == 0.3

    def test_cubic_bisection_matches_closed_form(self):
        assert ignition_point(make_bistable_cubic(0.25)) == pytest.approx(
            CUBIC_BETA_CLOSED, abs=1e-9
        )

    @pytest.mark.parametrize("alpha", [1e-4, 1e-6])
    def test_small_beta_to_relative_tolerance(self, alpha):
        # beta is about 1.5 alpha here; the bisection stops relative to it
        nl = make_bistable_cubic(alpha)
        assert abs(ignition_point(nl) - nl.beta) <= 1e-9 * nl.beta

    def test_balanced_limit_pushes_beta_up(self):
        betas = [ignition_point(make_bistable_cubic(al)) for al in (0.25, 0.4, 0.49)]
        assert betas[0] < betas[1] < betas[2]
        assert betas[2] > 0.9

    def test_bracket_failure_raises(self):
        bad = make_custom(
            lambda s: -np.asarray(s, dtype=float) * (1.0 - np.asarray(s, dtype=float)),
            lambda s: -(1.0 - 2.0 * np.asarray(s, dtype=float)),
            delta=0.1,
            beta=0.5,
            alpha=0.5,
        )
        with pytest.raises(NonlinearityError):
            ignition_point(bad)


def sine_law():
    return make_custom(
        lambda s: np.sin(np.pi * np.asarray(s, dtype=float)) * 0.1,
        lambda s: 0.1 * np.pi * np.cos(np.pi * np.asarray(s, dtype=float)),
        delta=0.2,
        beta=0.5,
    )


@pytest.mark.parametrize("law", ["cubic_nl", "combustion", "custom", "oracle_nl", "oracle_table"])
def test_every_law_continues_by_one_rule(law, request):
    d0, d1 = 0.0, 1.0  # the ends of the law's core
    if law == "combustion":
        nl = make_combustion(0.3, 1.0)
    elif law == "custom":
        nl = sine_law()
    elif law == "oracle_table":
        # the table ends inside (0, 1), and the rule starts at its ends
        params = ExplicitFrontParams(2.5, 0.7)
        nl = front_nonlinearity(params)
        s_tab = _law_table(params.t)[0]
        d0, d1 = float(s_tab[0]), float(s_tab[-1])
        assert 0.0 < d0 < 1e-30 and 0.99 < d1 < 1.0
    else:
        nl = request.getfixturevalue(law)
    lo, hi = nl.extension_slopes
    # [-2, d0) and (d1, 3], with [0, d0) and (d1, 1] sampled on their own
    below = np.unique(np.concatenate([np.linspace(-2.0, 0.0, 401), np.linspace(0.0, d0, 101)]))[:-1]
    above = np.unique(np.concatenate([np.linspace(d1, 1.0, 101), np.linspace(1.0, 3.0, 401)]))[1:]
    np.testing.assert_array_equal(nl.f(below), lo * below)
    np.testing.assert_array_equal(nl.f(above), hi * (above - 1.0))
    np.testing.assert_array_equal(nl.f_prime(below), np.full_like(below, lo))
    np.testing.assert_array_equal(nl.f_prime(above), np.full_like(above, hi))
    # G is continuous at 0 and 1, and G' = -f there and on both extensions
    for end in (0.0, 1.0):
        assert np.ptp(nl.G(np.array([end - 1e-9, end, end + 1e-9]))) <= 1e-12
    s = np.concatenate([below, [0.0, 1.0], above])
    h = 1e-6
    np.testing.assert_allclose((nl.G(s + h) - nl.G(s - h)) / (2.0 * h), -nl.f(s), rtol=0.0, atol=1e-6)


def test_custom_potential_is_the_antiderivative():
    # G is minus the exact integral of the Hermite interpolant of f on the
    # 4096 cells; for the cubic that interpolant is f itself
    cubic = make_bistable_cubic(0.25)
    custom = make_custom(cubic.f, cubic.f_prime, cubic.delta, cubic.beta, cubic.alpha)
    s = np.linspace(0.0, 1.0, 200001)
    assert np.max(np.abs(custom.G(s) - cubic.G(s))) <= 1e-14
    sine = sine_law()
    for v in np.linspace(0.0, 1.0, 41):
        assert potential(sine, v) == pytest.approx(-antiderivative(sine, v), abs=1e-14)


def test_adaptive_simpson_tolerance():
    val = nlmod._adaptive_simpson(lambda x: np.exp(-x) * np.sin(8 * x), 0.0, 2.0, tol=1e-12)
    exact = (8 - math.exp(-2) * (math.sin(16) * 1 + 8 * math.cos(16))) / 65.0
    assert val == pytest.approx(exact, abs=5e-12)


@pytest.mark.parametrize("law", ["cubic_nl", "combustion", "oracle_nl"])
def test_breadth_first_simpson_equals_recursive(law, request, monkeypatch):
    nl = make_combustion(0.3, 1.0) if law == "combustion" else request.getfixturevalue(law)
    beta = ignition_point(nl)
    for s in (0.1, 0.39, 1.0, beta):
        assert antiderivative(nl, s) == adaptive_simpson_recursive(nl.f, 0.0, s, tol=1e-12)
    monkeypatch.setattr(nlmod, "_adaptive_simpson", adaptive_simpson_recursive)
    assert ignition_point(nl) == beta


@pytest.mark.parametrize("law", ["cubic_nl", "combustion", "oracle_nl"])
def test_batched_simpson_equals_per_interval_loop(law, request):
    nl = make_combustion(0.3, 1.0) if law == "combustion" else request.getfixturevalue(law)
    grid = np.linspace(0.0, nl.beta, 1001)
    batched = nlmod._adaptive_simpson(nl.f, grid[:-1], grid[1:], tol=1e-13)
    loop = [adaptive_simpson_recursive(nl.f, lo, hi, tol=1e-13) for lo, hi in zip(grid[:-1], grid[1:])]
    np.testing.assert_array_equal(batched, loop)


def test_antiderivative_violation_point_matches_running_sum():
    # beta claimed past the true root: int_0^s f turns positive below it
    nl = dataclasses.replace(make_bistable_cubic(0.25), beta=0.6)
    grid = np.linspace(0.0, 0.6, 1001)
    acc, worst, worst_s = 0.0, -np.inf, 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        acc += adaptive_simpson_recursive(nl.f, lo, hi, tol=1e-13)
        if acc > worst:
            worst, worst_s = acc, float(hi)
    assert ("antiderivative_nonpositive_below_beta", worst_s) in validate(nl).violated_conditions


@pytest.mark.parametrize("law", ["cubic_nl", "combustion", "oracle_nl", "reflected"])
def test_scalar_evaluation_gives_the_array_bits(law, request):
    if law == "combustion":
        nl = make_combustion(0.3, 1.0)
    elif law == "reflected":
        nl = reflect(request.getfixturevalue("oracle_nl"))
    else:
        nl = request.getfixturevalue(law)
    s = np.linspace(-0.5, 1.5, 20001)
    for fun in (nl.f, nl.f_prime, nl.G):
        np.testing.assert_array_equal([float(fun(float(v))) for v in s], fun(s))


def test_bisect_stops_at_relative_bracket_width():
    root = nlmod._bisect(lambda x: 2.0 - x * x, 0.0, 2.0, 1e-12)
    assert abs(root - math.sqrt(2.0)) <= 1e-12
    # above 1 the width is relative to the bracket's magnitude: halving
    # 4e8 down to 1e-10 * 1e8 takes 36 steps
    calls = []
    root = nlmod._bisect(lambda x: calls.append(x) or 1.0e8 - x, 0.0, 4.0e8, 1e-10)
    assert abs(root - 1.0e8) <= 1e-10 * 1.0e8
    assert len(calls) == 36
