"""The names the benchmark under perfbench/ reads from forward_yield.

perfbench/tracer.py wraps the TARGETS functions by name, and the benchmark's
modules import from the package; a change to src/ that drops or renames one
of them fails here, not only in the traced benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _targets() -> list[str]:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _imports() -> list[tuple[str, str, str, ast.Module]]:
    """(file, module, name, file's tree) of each name a perfbench module imports from forward_yield."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("forward_yield"):
                found += [(path.name, node.module, alias.name, tree) for alias in node.names]
            elif isinstance(node, ast.Import):
                # import forward_yield.cli as cli: each attribute read on cli
                for alias in node.names:
                    if alias.name.startswith("forward_yield.") and alias.asname:
                        found += [
                            (path.name, alias.name, use.attr, tree) for use in ast.walk(tree)
                            if isinstance(use, ast.Attribute) and getattr(use.value, "id", None) == alias.asname
                        ]
    return found


@pytest.mark.parametrize("target", _targets())
def test_every_traced_target_is_a_module_level_function(target):
    # the tracer wraps public functions defined in the layer module itself
    layer, name = target.split(".")
    module = importlib.import_module(f"forward_yield.{layer}")
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, target


def test_every_name_the_benchmark_imports_exists_and_takes_its_keywords():
    imports = _imports()
    names = {name for _, _, name, _ in imports}
    assert names >= {"load_config", "build_market", "build_forward_spec", "zc_price_gaussian", "main"}
    for file, module, name, tree in imports:
        obj = getattr(importlib.import_module(module), name, None)
        assert obj is not None, f"{file}: {module}.{name}"
        # each keyword the file passes in a call of the name is a parameter of it
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == name:
                params = inspect.signature(obj).parameters
                assert all(k.arg in params for k in call.keywords if k.arg), f"{file}: {name}({ast.unparse(call)})"
