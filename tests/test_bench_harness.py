"""The benchmark scripts name only what frontforge has.

`benchmarks/bench_kernels.py` imports private helpers, and
`benchmarks/sweep_solves.py` patches `solver.minimize` by name, so moving
one breaks a script without failing any other test.  They are parsed, not
run.  The frontbench tracer patches frontforge functions by name; it is
installed.
"""

import ast
import importlib
import pathlib
import subprocess
import sys
import types

BENCH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
SWEEP = BENCH.with_name("sweep_solves.py")


def _resolve(module: str, name: str):
    """What `from module import name` binds: the attribute, else the
    submodule."""
    mod = importlib.import_module(module)
    return getattr(mod, name) if hasattr(mod, name) else importlib.import_module(f"{module}.{name}")


def _names(script: pathlib.Path) -> tuple[dict, set]:
    """What the script imports from frontforge, and the (module, attribute)
    pairs it reads off the modules among them; asserts that each exists."""
    tree = ast.parse(script.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "frontforge":
            for alias in node.names:
                imported[alias.asname or alias.name] = _resolve(node.module, alias.name)
    modules = {k: v for k, v in imported.items() if isinstance(v, types.ModuleType)}
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    missing = sorted(f"{mod}.{attr}" for mod, attr in read if not hasattr(modules[mod], attr))
    assert not missing
    return imported, read


def test_bench_kernels_names_exist_in_frontforge():
    imported, read = _names(BENCH)
    assert "_hermite_table" in imported and "front_nonlinearity" in imported
    assert ("solver", "_Trace") in read


def test_sweep_solves_names_exist_in_frontforge():
    imported, read = _names(SWEEP)
    assert "front_nonlinearity" in imported and "make_combustion" in imported
    assert {("solver", "minimize"), ("solver", "solve_front"), ("solver", "SolverError")} <= read


def _run_traced(body: str) -> str:
    """Run `body` in its own process after installing frontbench's tracer
    as the harness does, as `tracer`; returns what it prints."""
    root = BENCH.parents[1]
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'frontbench')!r}, {str(root / 'src')!r}]\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
    ) + body
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_the_benchmark_tracer_installs():
    # frontbench's tracer wraps frontforge functions by name, among them
    # names that only `solver.__getattr__` and `grid.__getattr__` still
    # resolve
    _run_traced("")


def test_the_tracer_sees_every_rearrangement():
    # the solver reaches the rearrangement through the name the tracer
    # patches, one trace per trial
    out = _run_traced(
        "from frontforge import solver\n"
        "from frontforge.nonlinearity import make_bistable_cubic\n"
        "span = tracer.begin(0)\n"
        "sol = solver.solve_front(make_bistable_cubic(0.25))\n"
        "tracer.end(span)\n"
        "m = tracer.layer_metrics()\n"
        "print(m['kernels.rearrange_columns.calls'], m['kernels.rearrange_columns.points'],"
        " sol.record.trials, sol.front.spec.ny)\n"
    )
    calls, points, trials, ny = map(int, out.split())
    assert calls == trials > 0
    assert points == trials * (ny + 1)
