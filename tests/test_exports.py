"""Every public name resolves: module ``__all__`` lists, the package re-exports and the
functions the benchmark's tracer wraps.  The package's names are exactly the ``__all__``
lists of the modules it star-imports, and every ``__all__`` name has a user in the
library, a demo or the benchmark."""

import ast
import importlib
import pkgutil
from pathlib import Path
from types import ModuleType

import pytest
from conftest import perfbench_literal

import circledirac

MODULES = [info.name for info in pkgutil.iter_modules(circledirac.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"circledirac.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_package_reexports_every_module_all():
    """The package's public names are exactly the ``__all__`` lists of the modules it
    star-imports, each bound to its module's object; nothing else, such as ``np``, leaks in."""
    tree = ast.parse(Path(circledirac.__file__).read_text())
    modules = [importlib.import_module(f"circledirac.{node.module}") for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert [m.__name__ for m in modules if not hasattr(m, "__all__")] == []
    exported = {name: module for module in modules for name in module.__all__}
    public = {name for name, value in vars(circledirac).items() if not name.startswith("_")
              and not (isinstance(value, ModuleType) and value.__name__.startswith("circledirac."))}
    assert public == set(exported)
    assert [n for n, m in exported.items() if getattr(circledirac, n) is not getattr(m, n)] == []


# Traced layers the library removed on purpose: the one-point Dirac wrappers, whose
# work ``planewave.residual`` does for a batch, the scalar reflector product, which
# ``reflector_mul_array`` does on coefficient arrays, the one-point rotated basis,
# which ``rotated_basis_array`` builds over arrays of angles, and the JSON row dicts,
# whose text ``floattext.rows_text`` writes from the table's columns.  The tracer lists them
# under ``missing_layers`` until the benchmark's own FUNCTIONS list drops them.
RETIRED = ("reflector.dirac_lhs", "reflector.dirac_rhs", "reflector.reflector_mul",
           "circle_spaces.rotated_basis", "spectrum.lines_to_json_rows")


@pytest.mark.parametrize("layer", [f for f in perfbench_literal("spans.py", "FUNCTIONS")
                                   if f not in RETIRED])
def test_traced_functions_resolve(layer):
    module, name = layer.split(".")
    assert callable(getattr(importlib.import_module(f"circledirac.{module}"), name, None))


@pytest.mark.parametrize("layer", RETIRED)
def test_retired_layers_stay_removed(layer):
    module, name = layer.split(".")
    assert not hasattr(importlib.import_module(f"circledirac.{module}"), name)




def test_every_public_name_has_a_user():
    """Each ``__all__`` name is read (as a variable or attribute; strings and imports are no reads)
    in ``src/``, ``demos/`` or ``perfbench/`` outside its own top-level def or class."""
    root = Path(__file__).resolve().parent.parent
    reads = set()
    for path in sorted(p for d in ("src", "demos", "perfbench") for p in (root / d).rglob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            where = (path.relative_to(root).as_posix(), getattr(stmt, "name", None))
            reads |= {(n.id if isinstance(n, ast.Name) else n.attr, where) for n in ast.walk(stmt)
                      if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    unused = [f"{name}.{entry}" for name in MODULES
              for entry in getattr(importlib.import_module(f"circledirac.{name}"), "__all__", ())
              if not {w for e, w in reads if e == entry} - {(f"src/circledirac/{name}.py", entry)}]
    assert unused == []
