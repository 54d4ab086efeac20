import math

import numpy as np
import pytest

from frontforge.grid import (
    Field,
    GridSpec,
    NumericalError,
    TraceProfile,
    apply_stiffness,
    dirichlet,
    energy,
    seed_function,
    shift_cells,
    trace,
    trace_crossing,
    translate_onto_unit,
)
from frontforge.nonlinearity import make_bistable_cubic
from frontforge.solver import SolverOptions, _Trace, choose_weight, default_grid, seed_energy_value
from oracles import dirichlet_expression, sparse_stiffness


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


def pinned(u):
    """A copy of the trace u with the pins 1 at y_min and 0 at y_max."""
    u = np.array(u, dtype=float)
    u[0], u[-1] = 1.0, 0.0
    return u


def front_trace(spec):
    """The seed's trace with its pins: 1 up to y = 0, e^{-a m y} above."""
    return pinned(seed_function(spec).values[0])


def bump_trace(spec, **bump):
    """The trace of a bump centred on the boundary: a bump in y alone."""
    return bump_field(spec, cx=0.0, **bump).values[0]


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
        yield np.asfortranarray(vals)


def test_in_place_evaluation_matches_expressions_bit_for_bit():
    spec = small_spec()
    for vals in _fields_in_both_layouts(spec):
        assert dirichlet(Field(vals, spec)) == dirichlet_expression(spec, vals)


class TestTranslate:
    """The trace's translates by whole cells (`shift_cells`), the ones the
    trial's walk visits, and the trace energy under them."""

    def test_identity(self):
        spec = small_spec()
        u = front_trace(spec)
        assert np.array_equal(shift_cells(spec, u, 0), u)

    def test_inverse_shifts(self):
        # only the cells vacated at either end, filled by constant
        # extension, may differ
        spec = small_spec(ny=512)
        u = pinned(bump_trace(spec))
        for k in (37, -37):
            back = shift_cells(spec, shift_cells(spec, u, k), -k)
            assert np.array_equal(back[37:-37], u[37:-37])

    def test_shift_bound(self):
        # a front at the bottom of the window has Gamma of order
        # e^{a (y_min + 5)}: Gamma = 1 lies beyond a quarter of the window
        nl = make_bistable_cubic(0.25)
        spec = small_spec()
        u = pinned(np.where(spec.ys < spec.y_min + 5.0, 1.0, 0.0))
        with pytest.raises(NumericalError):
            _Trace(spec).trial(u, nl)

    def test_scaling_identity(self):
        nl = make_bistable_cubic(0.25)
        spec = small_spec(ny=1024)
        problem = _Trace(spec)
        u = front_trace(spec)
        e0 = problem.energy(u, problem.scaled(u)[2], nl)
        for t in (-4.0, 2.5):
            k = round(t / spec.hy)
            moved = shift_cells(spec, u, k)
            e1 = problem.energy(moved, problem.scaled(moved)[2], nl)
            assert e1 == pytest.approx(np.exp(-spec.a * k * spec.hy) * e0, rel=5e-3)

    def test_gamma_scaling(self):
        spec = small_spec(ny=1024)
        problem = _Trace(spec)
        u = front_trace(spec)
        k = round(3.0 / spec.hy)
        g1 = problem.scaled(shift_cells(spec, u, k))[2]
        assert g1 == pytest.approx(np.exp(-spec.a * k * spec.hy) * problem.scaled(u)[2], rel=5e-3)


class TestProjection:
    """The trial's translation onto Gamma = 1: `grid.translate_onto_unit`
    with the trace's cell form `_Trace.cell`."""

    nl = make_bistable_cubic(0.25)

    def test_unit_field_unchanged(self):
        spec = small_spec(ny=512)
        problem = _Trace(spec)
        u, _ = problem.trial(pinned(bump_trace(spec)), self.nl)
        again, _ = problem.trial(u.copy(), self.nl)
        assert np.max(np.abs(again - u)) < 1e-10

    def test_residual_bound(self):
        spec = small_spec(ny=512)
        problem = _Trace(spec)
        u, _ = problem.trial(seed_function(spec).values[0].copy(), self.nl)
        assert abs(problem.scaled(u)[2] - 1.0) <= 1e-8

    def test_known_shift(self):
        # a trace on Gamma = 1 moved up by one unit has Gamma ~ e^{a}
        spec = small_spec(ny=1024)
        problem = _Trace(spec)
        u, _ = problem.trial(front_trace(spec), self.nl)
        boosted = shift_cells(spec, u, -round(1.0 / spec.hy))
        assert problem.scaled(boosted)[2] == pytest.approx(math.exp(spec.a), rel=1e-2)
        back, _ = problem.trial(boosted, self.nl)
        assert abs(problem.scaled(back)[2] - 1.0) <= 1e-8

    def test_cell_quadratic_matches_translate(self):
        spec = small_spec(ny=512)
        problem = _Trace(spec)
        u = pinned(bump_trace(spec))
        edge = 0.25 * (spec.y_max - spec.y_min)
        shifts = (0.4 * spec.hy, 3.7 * spec.hy, 11.25, -0.6 * spec.hy, -7.3, edge - 0.3 * spec.hy, 0.2 * spec.hy - edge)
        for t in shifts:
            k = int(np.floor(t / spec.hy))
            theta = t / spec.hy - k
            a, b = shift_cells(spec, u, k), shift_cells(spec, u, k + 1)
            p, q, r = problem.cell(a, b)
            quad = (1 - theta) ** 2 * p + 2 * theta * (1 - theta) * q + theta**2 * r
            assert quad == pytest.approx(problem.scaled((1 - theta) * a + theta * b)[2], rel=1e-12)

    @pytest.mark.parametrize("size", [16, 96])
    @pytest.mark.parametrize("make", [seed_function, wide_bump_field])
    def test_stiffness_cells_match_the_gathered_forms(self, size, make):
        # the trace's cell form is the stiffness form of the two translates'
        # extensions: Lambda is the Schur complement of the stiffness onto
        # row 0 and the pins' extension carries no flux into the free nodes.
        # Cells from one clipped end to the other (every cell at 16x64,
        # every 16th and both ends at 96x448)
        spec = end_spec(size)
        problem = _Trace(spec)
        u = pinned(make(spec).values[0])

        def forms(a, b):
            ea, eb = problem.extend(pinned(a)).values, problem.extend(pinned(b)).values
            sb = apply_stiffness(spec, eb)
            return np.vdot(ea, apply_stiffness(spec, ea)), np.vdot(ea, sb), np.vdot(eb, sb)

        assert problem.cell(u, u)[0] == pytest.approx(dirichlet(problem.extend(u)), rel=1e-13, abs=0.0)
        reach = 0.25 * (spec.y_max - spec.y_min) / spec.hy
        lo, hi = math.ceil(-reach - 1.0), math.floor(reach)
        for k in sorted({*range(lo, hi + 1, 1 if size == 16 else 16), hi}):
            a, b = shift_cells(spec, u, k), shift_cells(spec, u, k + 1)
            assert problem.cell(a, b) == pytest.approx(forms(a, b), rel=1e-13, abs=0.0), k

    @pytest.mark.parametrize("factor, shift", [(3.0, 0.0), (1.0, -6.0), (0.5, 4.5), (1.0, 13.0)])
    def test_meets_constraint_to_roundoff(self, factor, shift):
        # fronts of three heights at four places, each off Gamma = 1
        spec = small_spec(ny=512)
        problem = _Trace(spec)
        u = shift_cells(spec, pinned(np.clip(factor * front_trace(spec), 0.0, 1.0)), round(shift / spec.hy))
        gamma = problem.scaled(u)[2]
        assert abs(gamma - 1.0) > 1e-3
        vals, out = translate_onto_unit(spec, u, gamma, problem.cell)
        assert abs(problem.scaled(vals)[2] - 1.0) <= 1e-12
        # the Gamma that the shift returns is the output's
        assert abs(out - problem.scaled(vals)[2]) <= 1e-13

    def test_field_within_tolerance_is_kept(self):
        spec = small_spec(ny=512)
        problem = _Trace(spec)
        u, _ = problem.trial(front_trace(spec), self.nl)
        again = u.copy()
        out, _ = problem.trial(again, self.nl)
        assert out is again and np.array_equal(out, u)

    def test_shift_past_quarter_window_rejected(self):
        spec = small_spec()
        problem = _Trace(spec)
        edge = 0.25 * (spec.y_max - spec.y_min)
        # the front moved to the middle of the window, y = -20: a shift by
        # a quarter of the window either way keeps it inside
        u = shift_cells(spec, front_trace(spec), round(edge / spec.hy))
        gamma = problem.scaled(u)[2]
        # the walk leaves the window, or its last cell holds a root beyond it
        for t in (1.5 * edge, -1.5 * edge, edge + 0.5 * spec.hy, -edge - 0.5 * spec.hy):
            # the form scaled to Gamma = e^{a t}, so the continuum shift onto
            # Gamma = 1 is t
            scale = math.exp(spec.a * t) / gamma

            def cell(a, b):
                return tuple(scale * form for form in problem.cell(a, b))

            with pytest.raises(NumericalError):
                translate_onto_unit(spec, u, scale * gamma, cell)

    def test_non_finite_energy_rejected(self):
        # refused before the walk takes log(Gamma)
        spec = end_spec(16)
        problem = _Trace(spec)
        for gamma in (math.inf, math.nan):
            with pytest.raises(NumericalError):
                translate_onto_unit(spec, front_trace(spec), gamma, problem.cell)

    def test_zero_energy_rejected(self):
        spec = small_spec()
        problem = _Trace(spec)
        for gamma in (0.0, -1.0):
            with pytest.raises(NumericalError):
                translate_onto_unit(spec, front_trace(spec), gamma, problem.cell)

    def test_numerical_error_is_a_value_error(self):
        # the solver's trial loops treat any ValueError as a rejected trial
        assert issubclass(NumericalError, ValueError)


class TestRearrangement:
    """The trial's rearrangement of a trace, `_Trace.rearrange`."""

    def test_monotone_input_is_exact_fixed_point(self):
        spec = small_spec()
        u = pinned(1.0 / (1.0 + np.exp(0.4 * (spec.ys + 10.0))))
        assert np.array_equal(_Trace(spec).rearrange(u.copy()), u)

    def test_output_monotone(self):
        rng = np.random.default_rng(3)
        spec = small_spec()
        out = _Trace(spec).rearrange(rng.uniform(0.0, 1.0, spec.ny + 1))
        assert np.all(np.diff(out) <= 0.0)

    def test_clamps_to_unit_interval(self):
        spec = small_spec()
        problem = _Trace(spec)
        u = np.full(spec.ny + 1, 1.3)
        u[spec.ny // 2 :] = -0.2
        assert np.array_equal(problem.rearrange(u.copy()), pinned(np.clip(u, 0.0, 1.0)))
        half = pinned(np.full(spec.ny + 1, 0.5))
        assert np.array_equal(problem.rearrange(half.copy()), half)

    def test_boundary_potential_preserved(self):
        nl = make_bistable_cubic(0.25)
        rng = np.random.default_rng(11)
        spec = small_spec(ny=512)
        problem = _Trace(spec)
        bad = 0
        for _ in range(20):
            u = pinned(
                bump_trace(
                    spec,
                    cy=float(rng.uniform(-30, 5)),
                    sy=float(rng.uniform(4, 10)),
                    amp=float(rng.uniform(0.3, 1.0)),
                )
            )
            # E_a at Gamma = 0 is the boundary potential
            p0 = problem.energy(u, 0.0, nl)
            p1 = problem.energy(problem.rearrange(u.copy()), 0.0, nl)
            scale = float(np.sum(spec.ymeasure))
            if abs(p1 - p0) > 0.2 * spec.hy * scale:
                bad += 1
        assert bad == 0

    def test_dirichlet_never_increases_much(self):
        rng = np.random.default_rng(5)
        spec = small_spec(ny=512)
        problem = _Trace(spec)
        for _ in range(20):
            u = pinned(
                bump_trace(
                    spec,
                    cy=float(rng.uniform(-30, 5)),
                    sy=float(rng.uniform(4, 10)),
                    amp=float(rng.uniform(0.3, 1.0)),
                )
            )
            g0 = problem.scaled(u)[2]
            g1 = problem.scaled(problem.rearrange(u.copy()))[2]
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
