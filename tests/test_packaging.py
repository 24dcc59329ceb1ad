"""Every declared runtime dependency must import: none may be missing quietly."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
DEPENDENCIES = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]


@pytest.mark.parametrize("requirement", DEPENDENCIES)
def test_declared_dependency_imports(requirement):
    name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
    importlib.import_module(name.replace("-", "_"))
