"""The kernel benchmark script names only what frontforge has.

`benchmarks/bench_kernels.py` imports private helpers, so moving one breaks
the script without failing any other test.  It is parsed, not run.
"""

import ast
import importlib
import pathlib
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
