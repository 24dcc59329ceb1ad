"""Every declared runtime and test dependency must import: none may be missing quietly.
Every package the library imports must be declared. The CLI must start without
the modules that only one subcommand needs, and no module may import a name it
never uses."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "esdlab"
PROJECT = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
DEPENDENCIES = PROJECT["dependencies"] + PROJECT["optional-dependencies"]["test"]


@pytest.mark.parametrize("requirement", DEPENDENCIES)
def test_declared_dependency_imports(requirement):
    name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
    importlib.import_module(name.replace("-", "_"))


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal takes about a second to import and only `psd` uses it
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, esdlab.cli; print('scipy.signal' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.stdout.strip() == "False"


def test_benchmark_trace_contract():
    # perfbench/ patches and reads these names; it is run from outside the
    # package, so a rename here breaks the benchmark and no other test
    root = Path(__file__).resolve().parents[1]
    code = """
import importlib, inspect
import spans
from esdlab.analysis import find_crossing_time
from esdlab.stochastic import HAVE_NUMBA, RtnPaths, evolve_trajectory

tracer = spans.Tracer()
tracer.install()  # raises unless each entry's sites share one function
tracer.close()
for key, sites in spans.SITES.items():
    found = {getattr(importlib.import_module(mod), attr) for mod, attr in sites}
    assert len(found) == 1, key
params = list(inspect.signature(evolve_trajectory).parameters)
assert params[:4] == ["rho0", "paths_a", "paths_b", "cfg"], params
assert list(inspect.signature(find_crossing_time).parameters)[2] == "level"
assert "switch_times" in RtnPaths.__dataclass_fields__
print(HAVE_NUMBA)
"""
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))  # re-exported names
    return sorted(imported - used)


def test_no_unused_imports():
    # __init__.py imports only to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: names for p in modules if (names := _unused_imports(p))}
    assert unused == {}


def test_imports_are_declared():
    # the converse of test_declared_dependency_imports: an undeclared import
    # passes that test wherever the package happens to be installed
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group(0).replace("-", "_")
                for r in PROJECT["dependencies"]}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - declared - set(sys.stdlib_module_names) - {"esdlab"} == set()
