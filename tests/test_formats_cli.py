import dataclasses
import os

import numpy as np
import pytest

from frontforge import analysis, cli, evolution, formats, grid, solver
from frontforge.cli import main
from frontforge.formats import ConfigError, parse_config_text
from frontforge.nonlinearity import make_bistable_cubic
from frontforge.solver import SolverOptions


class TestConfig:
    def test_parse_full(self):
        cfg = parse_config_text(
            """
            # experiment
            nonlinearity.kind = combustion
            nonlinearity.beta = 0.3
            nonlinearity.amplitude = 1.5
            grid.nx = 48          # comment after value
            solver.tol = 1e-4
            evolve.T = 2.0
            output.dir = out
            """
        )
        assert cfg.nonlinearity["kind"] == "combustion"
        assert cfg.nonlinearity["amplitude"] == 1.5
        assert cfg.grid["nx"] == 48
        assert cfg.solver["tol"] == 1e-4
        assert cfg.evolve["T"] == 2.0
        assert cfg.output_dir == "out"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("nonlinearity.kind = combustion\nwhatever = 3\n")
        with pytest.raises(ConfigError):
            parse_config_text("nonlinearity.kind = combustion\nseed = 42\n")
        for line in ("solver.warm_iters = 0", "solver.rearrange_every = 10", "solver.max_iter = 300"):
            with pytest.raises(ConfigError):
                parse_config_text(f"nonlinearity.kind = combustion\n{line}\n")

    def test_every_grid_and_solver_key_sets_an_option(self):
        values = {
            "grid.nx": 32,
            "grid.ny": 128,
            "grid.x_span": 9.0,
            "grid.y_span_down": 30.0,
            "grid.y_span_up": 10.0,
            "solver.tol": 1e-3,
            "solver.a": 0.25,
            "solver.seed": "kernel",
            "solver.refine": 2,
        }
        assert set(values) == formats._GRID_KEYS | formats._SOLVER_KEYS
        defaults = SolverOptions()
        for key, value in values.items():
            name = key.partition(".")[2]
            opts = formats.build_solver_options(parse_config_text(f"{key} = {value}\n"))
            assert getattr(opts, name) == value != getattr(defaults, name)

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid.nx = many\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("nonlinearity.kind = bistable_cubic\nnonlinearity.alpha = 0.8\n")
        with pytest.raises(ConfigError):
            parse_config_text("grid.ny = 8\n")
        with pytest.raises(ConfigError):
            parse_config_text("nonlinearity.kind = sin\n")

    @pytest.mark.parametrize("t", ["0.12", "0"])
    def test_law_offset_below_table_limit_rejected(self, tmp_path, monkeypatch, t):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        monkeypatch.setattr(cli, "solve_front", lambda *a, **k: pytest.fail("solve_front ran"))
        text = f"nonlinearity.kind = explicit\nnonlinearity.t = {t}\n"
        with pytest.raises(ConfigError, match="at least 0.125"):
            parse_config_text(text)
        cfg = tmp_path / "explicit.cfg"
        cfg.write_text(text)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert main(["explicit-front", "--t", t, "--c", "2", "--out", str(tmp_path / "ef")]) == 2
        assert not (tmp_path / "ef").exists()
        assert parse_config_text("nonlinearity.t = 0.125\n").nonlinearity["t"] == 0.125

    def test_solver_range_limits_accepted(self):
        cfg = parse_config_text("grid.nx = 256\ngrid.ny = 1024\nsolver.refine = 3\n")
        assert (cfg.grid["nx"], cfg.grid["ny"], cfg.solver["refine"]) == (256, 1024, 3)
        assert parse_config_text("solver.refine = 0\nsolver.tol = 1e-12\n").solver["refine"] == 0

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just some words\n")


class TestFiles:
    def test_trace_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        y = np.linspace(-2.0, 1.0, 7)
        u = np.exp(-y)
        uy = -np.exp(-y)
        formats.write_trace_csv(path, y, u, uy)
        y2, u2, uy2 = formats.read_trace_csv(path)
        np.testing.assert_array_equal(y2, y)
        np.testing.assert_array_equal(u2, u)
        np.testing.assert_array_equal(uy2, uy)
        with open(path, "rb") as fh:
            head = fh.readline()
        assert head == b"y,u,uy\n"

    def test_speed_trace_roundtrip(self, tmp_path):
        path = str(tmp_path / "speed.csv")
        t = np.array([0.0, 0.5, 1.0])
        lv = np.array([0.1, -0.9, -1.9])
        formats.write_speed_trace_csv(path, t, lv)
        t2, lv2 = formats.read_speed_trace_csv(path)
        np.testing.assert_array_equal(t2, t)
        np.testing.assert_array_equal(lv2, lv)

    def test_header_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "x.csv")
        formats.write_columns(path, ["a", "b"], [np.array([1.0]), np.array([2.0])])
        with pytest.raises(ValueError):
            formats.read_columns(path, ["y", "u"])

    def test_kv_roundtrip(self, tmp_path):
        path = str(tmp_path / "meta.txt")
        formats.write_kv(path, {"c": 1.25, "nx": 48, "label": "front"})
        back = formats.read_kv(path)
        assert back["c"] == repr(1.25)
        assert back["nx"] == "48"
        assert back["label"] == "front"

    def test_meta_carries_every_solve_record_field(self, tmp_path):
        sol = solver.solve_front(make_bistable_cubic(0.25))
        path = str(tmp_path / "meta.txt")
        formats.write_kv(path, formats.front_meta(sol))
        meta = formats.read_kv(path)
        names = [f.name for f in dataclasses.fields(solver.SolveRecord)]
        # the run record closes the file, in the record's own order
        assert list(meta)[-len(names) :] == names
        assert meta["rho_history"] == " ".join(repr(r) for r in sol.record.rho_history)
        assert meta["stop"] == sol.record.stop and int(meta["trials"]) == sol.record.trials


class TestCli:
    def test_explicit_front_bundle(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        out = str(tmp_path / "bundle")
        code = main(
            [
                "explicit-front",
                "--t", "1", "--c", "2",
                "--y-min", "-20", "--y-max", "8",
                "--samples", "301", "--table", "40",
                "--out", out,
            ]
        )
        assert code == 0
        y, u, uy = formats.read_trace_csv(os.path.join(out, "trace.csv"))
        assert len(y) == 301
        assert np.all(np.diff(u) < 0.0)
        assert np.all(uy < 0.0)
        header, cols = formats.read_columns(os.path.join(out, "nonlinearity.csv"))
        assert header == ["s", "f", "fprime"]
        assert cols[1][0] == 0.0 and cols[1][-1] == 0.0

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        outs = []
        for name in ("one", "two"):
            out = str(tmp_path / name)
            assert main(["explicit-front", "--t", "1", "--c", "2", "--samples", "101", "--out", out]) == 0
            with open(os.path.join(out, "trace.csv"), "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_env_var_overrides_output(self, tmp_path, monkeypatch):
        override = str(tmp_path / "env_out")
        monkeypatch.setenv("FRONTFORGE_OUT", override)
        code = main(["explicit-front", "--t", "1", "--c", "2", "--samples", "51", "--out", str(tmp_path / "ignored")])
        assert code == 0
        assert os.path.exists(os.path.join(override, "trace.csv"))

    def test_asymptotics_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        out = str(tmp_path / "o")
        assert main(
            ["explicit-front", "--t", "1", "--c", "2", "--y-min", "-60", "--y-max", "30",
             "--samples", "1501", "--out", out]
        ) == 0
        code = main(["asymptotics", "--input", os.path.join(out, "trace.csv"), "--c", "2", "--out", out])
        assert code == 0
        rep = formats.read_kv(os.path.join(out, "decay_plus_minus_u_y.txt"))
        assert float(rep["fitted_constant"]) == pytest.approx(1 / np.sqrt(2 * np.pi), rel=0.08)

    def test_asymptotics_without_any_fit_window_fails(self, tmp_path, monkeypatch, capsys):
        # four samples in each side's standard window, eight are needed
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        y = np.linspace(-3.0, 3.0, 13)
        formats.write_trace_csv(str(tmp_path / "trace.csv"), y, 0.5 - 0.1 * y, np.full_like(y, -0.1))
        code = main(["asymptotics", "--input", str(tmp_path / "trace.csv"), "--c", "2", "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.count("skipped") == 4
        assert "no window admitted a fit" in captured.err

    @pytest.mark.parametrize("error,code", [(ValueError("bad law"), 2), (RuntimeError("broken"), 1)])
    def test_asymptotics_skips_only_window_failures(self, tmp_path, monkeypatch, error, code):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        y = np.linspace(-60.0, 30.0, 901)
        formats.write_trace_csv(str(tmp_path / "trace.csv"), y, 0.5 - 0.01 * y, np.full_like(y, -0.01))

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(analysis, "fit_decay", fail)
        assert main(["asymptotics", "--input", str(tmp_path / "trace.csv"), "--c", "2", "--out", str(tmp_path / "o")]) == code

    @pytest.mark.parametrize("c", ["-1", "0", "nan", "inf"])
    def test_asymptotics_rejects_bad_speed_before_reading(self, tmp_path, monkeypatch, c):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        monkeypatch.setattr(formats, "read_trace_csv", lambda *a, **k: pytest.fail("trace read"))
        out = tmp_path / "o"
        assert main(["asymptotics", "--input", str(tmp_path / "trace.csv"), "--c", c, "--out", str(out)]) == 2
        assert not out.exists()

    def test_invalid_config_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        assert main(["solve", "--config", str(bad)]) == 2
        # a solve is one pass, so the old iteration cap is an unknown key
        monkeypatch.setattr(cli, "solve_front", lambda *a, **k: pytest.fail("solve_front ran"))
        bad.write_text("nonlinearity.kind = combustion\nsolver.max_iter = 300\n")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2

    @pytest.mark.parametrize("key", ["evolve.nx", "evolve.ny"])
    def test_evolve_grid_keys_rejected_before_solving(self, tmp_path, monkeypatch, key):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        monkeypatch.setattr(cli, "solve_front", lambda *a, **k: pytest.fail("solve_front ran"))
        cfg = tmp_path / "evolve.cfg"
        cfg.write_text(f"nonlinearity.kind = combustion\nevolve.initial = step\n{key} = 64\n")
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", ["evolve.dt = 0", "evolve.out_every = -1", "evolve.T = inf"])
    def test_evolve_ranges_rejected_before_solving(self, tmp_path, monkeypatch, line):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        monkeypatch.setattr(cli, "solve_front", lambda *a, **k: pytest.fail("solve_front ran"))
        monkeypatch.setattr(evolution, "evolve", lambda *a, **k: pytest.fail("evolve ran"))
        cfg = tmp_path / "evolve.cfg"
        cfg.write_text(f"nonlinearity.kind = combustion\nevolve.initial = step\n{line}\n")
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("failure", ["zero-energy projection", "far projection", "no crossing"])
    def test_numerical_error_exits_1(self, tmp_path, monkeypatch, failure):
        spec = grid.GridSpec(x_max=24.0, y_min=-60.0, y_max=20.0, nx=16, ny=64, a=0.25)
        ys = spec.ys

        def failing_solve(nl, opts):
            problem = solver._Trace(spec)
            if failure == "zero-energy projection":
                u = np.full(65, 0.4)
                q, dq, _ = problem.scaled(u)
                problem.walk(u, (q, dq, 0.0))
            elif failure == "far projection":
                # a front at the bottom of the window: Gamma = 1 lies a
                # window's height above it
                problem.trial(np.where(ys < spec.y_min + 2.0, 1.0, 0.0), nl)
            else:
                grid.trace_crossing(grid.TraceProfile(ys, np.full_like(ys, 0.9)))
            pytest.fail("no NumericalError raised")

        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        monkeypatch.setattr(cli, "solve_front", failing_solve)
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("nonlinearity.kind = combustion\n")
        out = tmp_path / "bundle"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert not (out / "meta.txt").exists()

    def test_unconverged_solve_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(
            "nonlinearity.kind = bistable_cubic\n"
            "nonlinearity.alpha = 0.4\n"
            "grid.nx = 48\n"
            "grid.ny = 224\n"
        )
        out = tmp_path / "bundle"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert not (out / "meta.txt").exists()

    def test_disagreeing_speeds_exit_1(self, tmp_path, monkeypatch):
        # converged by the residual, but c and c_var are 9 % apart
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(
            "nonlinearity.kind = bistable_cubic\n"
            "nonlinearity.alpha = 0.4\n"
            "grid.nx = 64\n"
            "grid.ny = 288\n"
        )
        out = tmp_path / "bundle"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert not (out / "meta.txt").exists()

    @pytest.mark.parametrize(
        "lines",
        [
            "solver.tol = 0",
            "solver.tol = -1e-3",
            "solver.a = 0",
            "solver.a = nan",
            "grid.x_span = 0",
            "grid.y_span_down = -40",
            "grid.y_span_up = inf",
            "solver.refine = -1",
            "solver.refine = 4",
            "grid.nx = 4096",
            "grid.nx = 1024\nsolver.refine = 2",
            "grid.ny = 8448",
            "solver.refine = 3\ngrid.ny = 1088",
            # the old iteration cap: no longer a key, so rejected as unknown
            "solver.max_iter = 0",
        ],
    )
    def test_solver_ranges_rejected_before_solving(self, tmp_path, monkeypatch, lines):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        monkeypatch.setattr(cli, "solve_front", lambda *a, **k: pytest.fail("solve_front ran"))
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(f"nonlinearity.kind = combustion\n{lines}\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("amplitude", ["nan", "inf"])
    def test_non_finite_amplitude_rejected_before_solving(self, tmp_path, monkeypatch, amplitude):
        # refused at parse time: the law's checks would integrate nan
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        monkeypatch.setattr(cli, "solve_front", lambda *a, **k: pytest.fail("solve_front ran"))
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(f"nonlinearity.kind = combustion\nnonlinearity.amplitude = {amplitude}\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.slow
    def test_solve_bundle_and_reread(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        cfg = tmp_path / "solve.cfg"
        cfg.write_text(
            "nonlinearity.kind = combustion\n"
            "nonlinearity.beta = 0.3\n"
            "nonlinearity.amplitude = 1.0\n"
            "grid.nx = 48\n"
            "grid.ny = 224\n"
        )
        out = str(tmp_path / "bundle")
        assert main(["solve", "--config", str(cfg), "--out", out]) == 0
        meta = formats.read_kv(os.path.join(out, "meta.txt"))
        c = float(meta["c"])
        assert c > 0.0
        assert float(meta["mu"]) > 1.0
        # the run record: why the solve stopped and how it got there
        assert meta["stop"] == "residual"
        assert int(meta["burst_steps"]) >= 1 and int(meta["newton_steps"]) >= 1
        rho = [float(r) for r in meta["rho_history"].split()]
        assert rho[-1] <= 1e-10 < rho[0]
        # ... and where its time went
        assert int(meta["trials"]) >= int(meta["burst_steps"])
        assert int(meta["krylov_iterations"]) >= int(meta["newton_steps"])
        phases = ("law_s", "build_s", "burst_s", "newton_s", "extension_s")
        assert all(float(meta[phase]) > 0.0 for phase in phases)
        # emitted trace is consumable by asymptotics
        code = main(["asymptotics", "--input", os.path.join(out, "trace.csv"), "--c", repr(c), "--out", out])
        assert code == 0

    @pytest.mark.slow
    def test_evolve_bundle(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        cfg = tmp_path / "evolve.cfg"
        cfg.write_text(
            "nonlinearity.kind = explicit\n"
            "nonlinearity.t = 1.0\n"
            "nonlinearity.c = 2.0\n"
            "evolve.T = 1.5\n"
        )
        out = str(tmp_path / "ev")
        assert main(["evolve", "--config", str(cfg), "--out", out]) == 0
        t, lv = formats.read_speed_trace_csv(os.path.join(out, "speed_trace.csv"))
        assert len(t) > 10
        meta = formats.read_kv(os.path.join(out, "meta.txt"))
        assert float(meta["measured_speed"]) == pytest.approx(2.0, rel=0.1)

    @pytest.mark.slow
    def test_compare_commands(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRONTFORGE_OUT", raising=False)
        cfgs = []
        for amp in (1.5, 1.0):
            p = tmp_path / f"c{amp}.cfg"
            p.write_text(
                "nonlinearity.kind = combustion\n"
                "nonlinearity.beta = 0.3\n"
                f"nonlinearity.amplitude = {amp}\n"
            )
            cfgs.append(str(p))
        out = str(tmp_path / "cmp")
        code = main(["compare", "--config", cfgs[0], "--config", cfgs[1], "--out", out])
        assert code == 0
        rec = formats.read_kv(os.path.join(out, "compare.txt"))
        assert rec["ordered"] == "true"
        assert float(rec["c1"]) > float(rec["c2"])

    def test_verify_quick(self, capsys):
        code = main(["verify", "--seed", "7"])
        captured = capsys.readouterr()
        assert "checks passed" in captured.out
        assert code == 0
