"""Every public name resolves: module ``__all__`` lists, the package re-exports and the
functions the benchmark's tracer wraps."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import circledirac

MODULES = [info.name for info in pkgutil.iter_modules(circledirac.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"circledirac.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_package_reexports_are_listed():
    tree = ast.parse(Path(circledirac.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"circledirac.{node.module}")
            exported = getattr(module, "__all__", None)
            if exported is not None:
                unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert unlisted == []


def _traced_functions() -> list[str]:
    """``FUNCTIONS`` of ``perfbench/spans.py``, read from its source without importing it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTIONS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/spans.py defines no FUNCTIONS")


# Traced layers the library removed on purpose: the one-point Dirac wrappers, whose
# work ``planewave.residual`` does for a batch.  The tracer lists them under
# ``missing_layers`` until the benchmark's own FUNCTIONS list drops them.
RETIRED = ("reflector.dirac_lhs", "reflector.dirac_rhs")


@pytest.mark.parametrize("layer", [f for f in _traced_functions() if f not in RETIRED])
def test_traced_functions_resolve(layer):
    module, name = layer.split(".")
    assert callable(getattr(importlib.import_module(f"circledirac.{module}"), name, None))


@pytest.mark.parametrize("layer", RETIRED)
def test_retired_layers_stay_removed(layer):
    module, name = layer.split(".")
    assert not hasattr(importlib.import_module(f"circledirac.{module}"), name)
