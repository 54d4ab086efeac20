"""The benchmark scripts name only what frontforge has.

`benchmarks/bench_kernels.py` imports private helpers, so moving one breaks
the script without failing any other test.  It is parsed, not run.  The
frontbench tracer patches frontforge functions by name; it is installed.
"""

import ast
import importlib
import pathlib
import subprocess
import sys
import types

BENCH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"


def _resolve(module: str, name: str):
    """What `from module import name` binds: the attribute, else the
    submodule."""
    mod = importlib.import_module(module)
    return getattr(mod, name) if hasattr(mod, name) else importlib.import_module(f"{module}.{name}")


def test_bench_kernels_names_exist_in_frontforge():
    tree = ast.parse(BENCH.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "frontforge":
            for alias in node.names:
                imported[alias.asname or alias.name] = _resolve(node.module, alias.name)
    assert "_hermite_table" in imported and "front_nonlinearity" in imported
    # attributes the script reads off the modules it imports
    modules = {k: v for k, v in imported.items() if isinstance(v, types.ModuleType)}
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert ("solver", "_Trace") in read
    missing = sorted(f"{mod}.{attr}" for mod, attr in read if not hasattr(modules[mod], attr))
    assert not missing


def test_the_benchmark_tracer_installs():
    # frontbench's tracer wraps frontforge functions by name, among them
    # names that only `solver.__getattr__` and `grid.__getattr__` still
    # resolve; it is run as the harness runs it, in its own process
    root = BENCH.parents[1]
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'frontbench')!r}, {str(root / 'src')!r}]\n"
        "from tracer import Tracer\n"
        "Tracer().install()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
