"""Every declared runtime and test dependency must import: none may be missing quietly.
The CLI must start without the modules that only one subcommand needs."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
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
