"""Every declared runtime and test dependency must import: none may be missing quietly.
Every package the library imports must be declared. The CLI must start without
the modules that only one subcommand needs, and no module may import a name it
never uses."""

import ast
import importlib
import json
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


# a CLI run must not load what only other runs use: scipy (about a second to
# import) serves `psd` alone, the process pool ESDLAB_THREADS > 1 alone, and
# numpy.ma nothing at all
UNUSED_PACKAGES = ("concurrent.futures", "multiprocessing", "numpy.ma")
TINY_FIG4B = {"sim": {"trajectories": 8, "samples": 21, "fluctuators": 20}}


@pytest.mark.parametrize("run", ["import", "fig4b"])
def test_cli_leaves_unused_modules_unloaded(tmp_path, run):
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys\nfrom esdlab.cli import main\n"
    if run == "fig4b":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY_FIG4B), encoding="utf-8")
        argv = ["figure", "fig4b", "--config", str(cfg), "--outdir", str(tmp_path)]
        code += f"assert main({argv!r}) == 0\n"
    code += "print(sorted(sys.modules))"
    env = {k: v for k, v in os.environ.items() if k != "ESDLAB_THREADS"}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**env, "PYTHONPATH": str(src)},
    )
    loaded = ast.literal_eval(done.stdout)
    assert "esdlab.stochastic" in loaded
    unused = [name for name in loaded if name.startswith("scipy") or any(
        name == pkg or name.startswith(pkg + ".") for pkg in UNUSED_PACKAGES)]
    assert unused == []


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
assert list(inspect.signature(find_crossing_time).parameters) == ["c", "t_max"]
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


# the benchmark's workloads in miniature: a traced run must call every
# function that run.EXPECTED_CALLS names for its workload, and its call and
# work counts must repeat from one process to the next, or perfbench/run.py
# stops the workload with an error. spans.py counts trajectories and
# segments from the arguments of each evolve_trajectory call, so the engine
# must call it once per trajectory, and its segments must be those the
# engine builds. The fig4b run spans omega t = 1e5, long enough that a path
# switches about once.
TRACED_FIG4B = {"sim": {**TINY_FIG4B["sim"], "t_max_omega": 1.0e5}}
TRACED_RUNS = {
    "mc_static": ["figure", "fig4b", "--config", "{cfg}", "--outdir", "{out}"],
    "psd_1f": ["psd", "--realizations", "100", "--t-max-s", "1e-4", "--sample-hz", "1e6",
               "--out", "{out}/psd.csv"],
}


@pytest.mark.parametrize("workload", sorted(TRACED_RUNS))
def test_benchmark_traced_run_calls_what_it_expects(tmp_path, workload):
    root = Path(__file__).resolve().parents[1]
    code = """
import json, sys
import run, spans
from esdlab import stochastic
from esdlab.cli import main

built = [0]  # segments of every trajectory the engine cut
evolve = stochastic.evolve_trajectory

def counting(*args, **kwargs):
    result = evolve(*args, **kwargs)
    built[0] += result.dts.size
    return result

stochastic.evolve_trajectory = counting
tracer = spans.Tracer()
tracer.install()
try:
    code = main(sys.argv[2:])
finally:
    tracer.close()
assert code == 0, code
report = tracer.report()
missing = [f for f in run.EXPECTED_CALLS[sys.argv[1]] if report["calls"][f] == 0]
assert missing == [], missing
print(json.dumps({"calls": report["calls"], "counts": report["counts"], "built": built[0]}))
"""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRACED_FIG4B), encoding="utf-8")
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    env = {k: v for k, v in os.environ.items() if k != "ESDLAB_THREADS"}
    runs = []
    for k in range(2):
        out = tmp_path / f"out{k}"
        argv = [a.format(cfg=cfg, out=out) for a in TRACED_RUNS[workload]]
        done = subprocess.run(
            [sys.executable, "-c", code, workload, *argv], capture_output=True, text=True,
            env={**env, "PYTHONPATH": path},
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    assert runs[0] == runs[1]
    if workload == "mc_static":
        counts = runs[0]["counts"]
        # fig4b draws three curves
        assert counts["stochastic.trajectories"] == 3 * TRACED_FIG4B["sim"]["trajectories"]
        assert counts["stochastic.segments"] == runs[0]["built"] > counts["stochastic.trajectories"]


def test_benchmark_counts_one_periodogram_call_per_block():
    # perfbench/ wraps scipy.signal.periodogram at the module attribute and
    # requires psd_1f to call it; psd_estimate must look it up there once per
    # block of realizations (psd_1f's shape: 5e4 samples, 100 realizations)
    root = Path(__file__).resolve().parents[1]
    code = """
import math
import spans
from esdlab import stochastic

ens = stochastic.sample_ensemble(5, 1.0, 1.0e3, 1.0, 1)
tracer = spans.Tracer()
tracer.install()
for t_max, n_realizations, sample_hz in [(0.025, 100, 2.0e6), (0.01, 101, 1.0e5)]:
    before = tracer.calls["scipy.signal.periodogram"]
    stochastic.psd_estimate(ens, t_max, n_realizations, 1, sample_hz=sample_hz)
    rows = max(1, stochastic.PSD_BLOCK_SAMPLES // round(t_max * sample_hz))
    calls = tracer.calls["scipy.signal.periodogram"] - before
    assert calls == math.ceil(n_realizations / rows), (t_max, calls, rows)
tracer.close()
"""
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr


def test_module_entry_point_prints_the_version():
    from esdlab import __version__

    done = subprocess.run(
        [sys.executable, "-m", "esdlab", "--version"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"esdlab {__version__}\n"


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")  # "still beta"
def test_version_has_one_source():
    # pyproject.toml reads the version from esdlab.__version__, statically
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    from esdlab import __version__

    assert "version" not in PROJECT and PROJECT["dynamic"] == ["version"]
    config = pyprojecttoml.read_configuration(PYPROJECT, expand=True)
    assert config["project"]["version"] == __version__


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_all_names_exist(path):
    # a name deleted from a module but left in its __all__ breaks `import *`
    module = importlib.import_module(f"esdlab.{path.stem}")
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


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
