import math

import numpy as np
import pytest

from frontforge.grid import (
    Field,
    GridSpec,
    NumericalError,
    TraceProfile,
    _stiffness_cell,
    apply_stiffness,
    boundary_integral,
    dirichlet,
    energy,
    project_constraint,
    rearrange_monotone,
    seed_function,
    trace,
    trace_crossing,
    translate,
    translate_onto_unit,
)
from frontforge.nonlinearity import make_bistable_cubic
from frontforge.solver import SolverOptions, choose_weight, default_grid, seed_energy_value
from oracles import cell_forms_gathered, dirichlet_expression, sparse_stiffness, translate_expression


def small_spec(a=0.25, ny=256):
    return GridSpec(x_max=24.0, y_min=-60.0, y_max=20.0, nx=32, ny=ny, a=a)


def bump_field(spec, cx=6.0, cy=-10.0, sx=4.0, sy=6.0, amp=0.8):
    r2 = ((spec.xs[:, None] - cx) / sx) ** 2 + ((spec.ys[None, :] - cy) / sy) ** 2
    vals = np.where(r2 < 1.0, amp * np.exp(1.0 - 1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)
    return Field(vals, spec)


def wide_bump_field(spec):
    """A bump over the whole window: it varies in x and in y at both ends."""
    height = spec.y_max - spec.y_min
    return bump_field(spec, cx=0.0, cy=spec.y_min + 0.5 * height, sx=2.0 * spec.x_max, sy=0.6 * height)


def end_spec(size):
    """16x64 with the seed's y-tail still above round-off at y_max, or the
    solver's default 96x448 grid for the cubic law."""
    if size == 16:
        return GridSpec(x_max=24.0, y_min=-30.0, y_max=4.0, nx=16, ny=64, a=0.25)
    return default_grid(choose_weight(make_bistable_cubic(0.25)), SolverOptions())


class TestGridSpec:
    def test_guards(self):
        with pytest.raises(ValueError):
            GridSpec(x_max=-1.0, y_min=-10.0, y_max=5.0, nx=32, ny=128, a=0.1)
        with pytest.raises(ValueError):
            GridSpec(x_max=1.0, y_min=-10.0, y_max=5.0, nx=8, ny=128, a=0.1)
        with pytest.raises(ValueError):
            GridSpec(x_max=1.0, y_min=-10.0, y_max=5.0, nx=32, ny=32, a=0.1)
        with pytest.raises(ValueError):
            GridSpec(x_max=1.0, y_min=-10.0, y_max=600.0, nx=32, ny=128, a=0.1)

    def test_field_shape_guard(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            Field(np.zeros((3, 3)), spec)
        with pytest.raises(ValueError):
            Field(np.full((spec.nx + 1, spec.ny + 1), np.nan), spec)


class TestEnergy:
    def test_zero_field(self):
        spec = small_spec()
        nl = make_bistable_cubic(0.25)
        zero = Field(np.zeros((spec.nx + 1, spec.ny + 1)), spec)
        assert energy(zero, nl) == 0.0
        assert dirichlet(zero) == 0.0

    def test_constant_field_has_no_dirichlet_energy(self):
        spec = small_spec()
        const = Field(np.full((spec.nx + 1, spec.ny + 1), 0.7), spec)
        assert dirichlet(const) == 0.0

    def test_seed_energy_against_closed_form(self):
        nl = make_bistable_cubic(0.25)
        spec = GridSpec(x_max=400.0, y_min=-1500.0, y_max=800.0, nx=256, ny=2048, a=0.01)
        disc = energy(seed_function(spec, d=0.02, m=4.0), nl)
        closed = seed_energy_value(nl, 0.01, 0.02, 4.0)
        assert closed == pytest.approx(-3.645, abs=5e-4)
        assert disc == pytest.approx(closed, rel=2e-2)

    def test_seed_dirichlet_against_closed_form(self):
        spec = GridSpec(x_max=80.0, y_min=-400.0, y_max=120.0, nx=512, ny=4096, a=0.1)
        disc = dirichlet(seed_function(spec, d=0.05, m=4.0))
        closed = 0.05 / 0.2 * (1 + 1 / 7) + 0.1 * 16 / (0.1 * 7)
        assert closed == pytest.approx(2.571429, abs=1e-6)
        assert disc == pytest.approx(closed, rel=2e-2)

    def test_energy_refinement_consistency(self):
        nl = make_bistable_cubic(0.25)
        vals = []
        for ny in (256, 512, 1024):
            spec = small_spec(ny=ny)
            vals.append(energy(bump_field(spec), nl))
        # errors shrink under refinement toward the finest value
        assert abs(vals[0] - vals[2]) > abs(vals[1] - vals[2])


class TestStiffness:
    @pytest.fixture(params=[(16, 64), (96, 448)], ids=["16x64", "96x448"])
    def case(self, request):
        nx, ny = request.param
        spec = default_grid(choose_weight(make_bistable_cubic(0.25)), SolverOptions(nx=nx, ny=ny))
        noise = np.random.default_rng(1).standard_normal((nx + 1, ny + 1))
        return spec, seed_function(spec).values, noise

    def test_matches_sparse_matrix(self, case):
        spec, seed, noise = case
        S = sparse_stiffness(spec)
        for v in (seed, noise):
            ref = (S @ v.ravel()).reshape(v.shape)
            assert np.max(np.abs(apply_stiffness(spec, v) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_quadratic_form_is_dirichlet(self, case):
        spec, seed, noise = case
        for v in (seed, noise):
            gamma = dirichlet(Field(v, spec))
            assert np.vdot(v, apply_stiffness(spec, v)) == pytest.approx(gamma, rel=1e-13)

    def test_symmetric(self, case):
        spec, u, v = case
        scale = np.sqrt(dirichlet(Field(u, spec)) * dirichlet(Field(v, spec)))
        uv = np.vdot(u, apply_stiffness(spec, v))
        vu = np.vdot(v, apply_stiffness(spec, u))
        assert abs(uv - vu) <= 1e-13 * scale


def _fields_in_both_layouts(spec):
    rng = np.random.default_rng(4)
    for vals in (bump_field(spec).values, rng.uniform(0.0, 1.0, (spec.nx + 1, spec.ny + 1))):
        yield vals
        yield np.asfortranarray(vals)  # the layout translate's gathers produce


def test_in_place_evaluation_matches_expressions_bit_for_bit():
    spec = small_spec()
    for vals in _fields_in_both_layouts(spec):
        w = Field(vals, spec)
        assert dirichlet(w) == dirichlet_expression(spec, vals)
        for t in (3.7 * spec.hy, -11.2 * spec.hy, 0.5 * spec.hy):
            assert np.array_equal(translate(w, t).values, translate_expression(spec, vals, t))


class TestTranslate:
    def test_identity(self):
        spec = small_spec()
        w = bump_field(spec)
        assert np.array_equal(translate(w, 0.0).values, w.values)

    def test_inverse_shifts(self):
        spec = small_spec(ny=512)
        w = bump_field(spec)
        t = 3.7 * spec.hy  # deliberately off-grid
        back = translate(translate(w, t), -t)
        assert np.max(np.abs(back.values - w.values)) < 4.0 * spec.hy**2

    def test_shift_bound(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            translate(bump_field(spec), 0.3 * (spec.y_max - spec.y_min))

    def test_scaling_identity(self):
        nl = make_bistable_cubic(0.25)
        spec = small_spec(ny=1024)
        w = bump_field(spec)
        e0 = energy(w, nl)
        for t in (-4.0, 2.5):
            e1 = energy(translate(w, t), nl)
            assert e1 == pytest.approx(np.exp(-spec.a * t) * e0, rel=5e-3)

    def test_gamma_scaling(self):
        spec = small_spec(ny=1024)
        w = bump_field(spec)
        g0 = dirichlet(w)
        g1 = dirichlet(translate(w, 3.0))
        assert g1 == pytest.approx(np.exp(-spec.a * 3.0) * g0, rel=5e-3)


def _cell_translates(w, k):
    """The integer translates of w by k*hy and (k+1)*hy, column gathers with
    constant extension: the pair whose cell quadratic the projection solves."""
    cols = np.arange(w.spec.ny + 1)
    return w.values[:, np.clip(cols + k, 0, w.spec.ny)], w.values[:, np.clip(cols + k + 1, 0, w.spec.ny)]


class TestProjection:
    def test_unit_field_unchanged(self):
        spec = small_spec(ny=512)
        w = bump_field(spec)
        w = project_constraint(w)
        again = project_constraint(w)
        assert np.max(np.abs(again.values - w.values)) < 1e-10

    def test_residual_bound(self):
        spec = small_spec(ny=512)
        out = project_constraint(seed_function(spec))
        assert abs(dirichlet(out) - 1.0) <= 1e-8

    def test_known_shift(self):
        # Gamma = e^{a} should project by t very close to 1/a * a = 1
        spec = small_spec(ny=1024)
        w = project_constraint(bump_field(spec))
        boosted = translate(w, -1.0)  # Gamma ~ e^{a}
        back = project_constraint(boosted)
        assert abs(dirichlet(back) - 1.0) <= 1e-8

    def test_cell_quadratic_matches_translate(self):
        spec = small_spec(ny=512)
        w = bump_field(spec)
        edge = 0.25 * (spec.y_max - spec.y_min)
        shifts = (0.4 * spec.hy, 3.7 * spec.hy, 11.25, -0.6 * spec.hy, -7.3, edge - 0.3 * spec.hy, 0.2 * spec.hy - edge)
        for t in shifts:
            k = int(np.floor(t / spec.hy))
            theta = t / spec.hy - k
            p, q, r = _stiffness_cell(spec, *_cell_translates(w, k))
            quad = (1 - theta) ** 2 * p + 2 * theta * (1 - theta) * q + theta**2 * r
            assert quad == pytest.approx(dirichlet(translate(w, t)), rel=1e-12)

    @pytest.mark.parametrize("size", [16, 96])
    @pytest.mark.parametrize("make", [seed_function, wide_bump_field])
    def test_stiffness_cells_match_the_gathered_forms(self, size, make):
        # every cell the walk may visit, from one clipped end to the other
        spec = end_spec(size)
        w = make(spec)
        assert _stiffness_cell(spec, w.values, w.values)[0] == pytest.approx(dirichlet(w), rel=1e-13, abs=0.0)
        reach = 0.25 * (spec.y_max - spec.y_min) / spec.hy
        for k in range(math.ceil(-reach - 1.0), math.floor(reach) + 1):
            got, ref = _stiffness_cell(spec, *_cell_translates(w, k)), cell_forms_gathered(w, k)
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0), k

    @pytest.mark.parametrize("factor, shift", [(3.0, 0.0), (1.0, -6.0), (0.5, 4.5), (1.0, 13.0)])
    def test_meets_constraint_to_roundoff(self, factor, shift):
        spec = small_spec(ny=512)
        w = translate(bump_field(spec, amp=0.8 * factor), shift)
        assert abs(dirichlet(w) - 1.0) > 1e-3
        assert abs(dirichlet(project_constraint(w)) - 1.0) <= 1e-12
        # the Gamma that the shift returns is the output's
        vals, gamma = translate_onto_unit(spec, w.values, dirichlet(w), lambda a, b: _stiffness_cell(spec, a, b))
        assert abs(gamma - dirichlet(Field(vals, spec))) <= 1e-13

    def test_field_within_tolerance_is_kept(self):
        spec = small_spec(ny=512)
        w = project_constraint(bump_field(spec))
        out = project_constraint(w)
        assert out is not w and np.array_equal(out.values, w.values)

    def test_shift_past_quarter_window_rejected(self):
        spec = small_spec()
        w = bump_field(spec)
        gamma = dirichlet(w)
        edge = 0.25 * (spec.y_max - spec.y_min)
        # the walk leaves the window, or its last cell holds a root beyond it
        for t in (1.5 * edge, -1.5 * edge, edge + 0.5 * spec.hy, -edge - 0.5 * spec.hy):
            # scaled to Gamma = e^{a t}, so the continuum shift onto Gamma = 1 is t
            scaled = Field(w.values * np.exp(0.5 * spec.a * t) / np.sqrt(gamma), spec)
            with pytest.raises(NumericalError):
                project_constraint(scaled)

    def test_non_finite_energy_rejected(self):
        # Gamma_a overflows; refused before the walk takes log(Gamma)
        spec = end_spec(16)
        huge = Field(seed_function(spec).values * 1e160, spec)
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            project_constraint(huge)

    def test_zero_energy_rejected(self):
        spec = small_spec()
        flat = Field(np.full((spec.nx + 1, spec.ny + 1), 0.4), spec)
        with pytest.raises(NumericalError):
            project_constraint(flat)

    def test_numerical_error_is_a_value_error(self):
        # the solver's trial loops treat any ValueError as a rejected trial
        assert issubclass(NumericalError, ValueError)


class TestRearrangement:
    def test_monotone_input_is_exact_fixed_point(self):
        spec = small_spec()
        prof = 1.0 / (1.0 + np.exp(0.4 * (spec.ys + 10.0)))
        vals = np.tile(prof, (spec.nx + 1, 1))
        w = Field(vals.copy(), spec)
        assert np.array_equal(rearrange_monotone(w).values, vals)

    def test_output_monotone(self):
        rng = np.random.default_rng(3)
        spec = small_spec()
        w = Field(rng.uniform(0.0, 1.0, (spec.nx + 1, spec.ny + 1)), spec)
        out = rearrange_monotone(w)
        assert np.all(np.diff(out.values, axis=1) <= 0.0)

    def test_clamps_to_unit_interval(self):
        spec = small_spec()
        vals = np.full((spec.nx + 1, spec.ny + 1), 1.3)
        vals[:, spec.ny // 2 :] = -0.2
        assert np.array_equal(rearrange_monotone(Field(vals, spec)).values, np.clip(vals, 0.0, 1.0))
        half = np.full_like(vals, 0.5)
        assert np.array_equal(rearrange_monotone(Field(half, spec)).values, half)

    def test_boundary_potential_preserved(self):
        nl = make_bistable_cubic(0.25)
        rng = np.random.default_rng(11)
        spec = small_spec(ny=512)
        bad = 0
        for _ in range(20):
            w = bump_field(
                spec,
                cx=float(rng.uniform(2, 12)),
                cy=float(rng.uniform(-30, 5)),
                sx=float(rng.uniform(3, 8)),
                sy=float(rng.uniform(4, 10)),
                amp=float(rng.uniform(0.3, 1.0)),
            )
            p0 = boundary_integral(w, nl.G)
            p1 = boundary_integral(rearrange_monotone(w), nl.G)
            scale = float(np.sum(spec.ymeasure))
            if abs(p1 - p0) > 0.2 * spec.hy * scale:
                bad += 1
        assert bad == 0

    def test_dirichlet_never_increases_much(self):
        rng = np.random.default_rng(5)
        spec = small_spec(ny=512)
        for _ in range(20):
            w = bump_field(
                spec,
                cx=float(rng.uniform(2, 12)),
                cy=float(rng.uniform(-30, 5)),
                sx=float(rng.uniform(3, 8)),
                sy=float(rng.uniform(4, 10)),
                amp=float(rng.uniform(0.3, 1.0)),
            )
            g0 = dirichlet(w)
            g1 = dirichlet(rearrange_monotone(w))
            assert g1 <= g0 + 0.1 * (spec.hx + spec.hy) * g0


class TestSeedAndTrace:
    def test_seed_values(self):
        spec = small_spec(a=0.01)
        w = seed_function(spec, d=0.02, m=4.0)
        j5 = np.argmin(np.abs(spec.ys + 5.0))
        assert w.values[0, j5] == 1.0
        j0 = np.argmin(np.abs(spec.ys))
        np.testing.assert_allclose(w.values[:, j0], np.exp(-0.02 * spec.xs), rtol=1e-12)

    def test_seed_guards(self):
        spec = small_spec()
        with pytest.raises(ValueError):
            seed_function(spec, d=-1.0)
        with pytest.raises(ValueError):
            seed_function(spec, d=0.1, m=0.5)

    def test_trace_is_boundary_row(self):
        spec = small_spec()
        w = bump_field(spec, cx=0.0)
        tr = trace(w)
        np.testing.assert_array_equal(tr.values, w.values[0, :])
        np.testing.assert_array_equal(tr.y_nodes, spec.ys)

    def test_trace_crossing(self):
        ys = np.linspace(-5.0, 5.0, 101)
        vals = 1.0 / (1.0 + np.exp(2.0 * (ys - 0.7)))
        assert trace_crossing(TraceProfile(ys, vals)) == pytest.approx(0.7, abs=1e-2)
        with pytest.raises(NumericalError):
            trace_crossing(TraceProfile(ys, np.full_like(ys, 0.9)))
        with pytest.raises(NumericalError):
            trace_crossing(TraceProfile(ys, np.full_like(ys, 0.1)))
