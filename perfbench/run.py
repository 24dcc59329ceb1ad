"""End-to-end and per-layer benchmark of the esdlab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Each repetition starts a fresh ``esdlab`` CLI process with one worker
(ESDLAB_THREADS unset, one BLAS thread) and checks every file it writes. Repetitions are
started while the next one is expected to end within S seconds, at least
MIN_REPS of them, all with the same inputs; metrics are medians over them.

--trace 0 reports the end-to-end metrics, with tracing off. --trace 1 runs
traced and untraced repetitions alternately and reports the per-layer
metrics: calls, self time and time per call of each traced function (see
spans.py), work counters, health numbers and the tracing overhead. Metrics
of a layer that does not run on the workload read 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (output rows) and ``metrics``; the
lines before it list each metric with its sample count and spread, the
environment, and the first failed checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
CHILD_TIMEOUT_S = 120.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# --- workloads --------------------------------------------------------------
# Each returns (config, argv function, output check, work unit) for a seed.
# The seed reaches the CLI through sim.seed of a --config file, because
# `esdlab figure` has no --seed flag.


def mc_static(seed):
    """fig4b as shipped but for the trajectory count: three curves, the
    quasi-static regime (about one switch per fluctuator path), so the cost
    is per trajectory: path drawing, propagation, per-sample concurrence."""
    sim = {"seed": seed, "trajectories": 256, "samples": 201, "t_max_omega": 5.0e3}
    return (
        {"sim": sim},
        lambda out, cfg: ["figure", "fig4b", "--config", cfg, "--outdir", out],
        lambda out, stdout: checks.check_fig4b(out, stdout, sim),
        "trajectories",
    )


def esd_sweep(seed):
    """fig2 as shipped: three 60-point ESD sweeps by root finding on the
    interplay and static-path curves. Nothing stochastic runs; the seed is
    passed but changes no output.

    Every row fails its check while ``cli._fmt`` writes numpy scalars as
    ``np.float64(...)``, so the run reports ``correct: false``. It stays
    runnable to record that failure; a workload that fails cannot be gated.
    """
    sim = {"seed": seed}
    return (
        {"sim": sim},
        lambda out, cfg: ["figure", "fig2", "--config", cfg, "--outdir", out],
        lambda out, stdout: checks.check_fig2(out, stdout, sim),
        "ESD cells written",
    )


# The CLI's bath (250 fluctuators, so ~9 switch events per sample) over a
# quarter of a 0.1 s segment: synthesis, periodogram and CSV keep the shares
# of the full run (about 66/29/5 %). The 40 Hz resolution leaves the lowest
# 0.6 decade of the 1/f fit band, 10-40 Hz, empty.
PSD = {
    "qubit": {"sigma_rad_s": 2.0e9, "gamma_min_hz": 1.0, "gamma_max_hz": 1.0e6},
    "fluctuators": 250,
    "realizations": 100,
    "t_max_s": 0.025,
    "sample_hz": 2.0e6,
}


# The bath's rates are drawn from the seed. Their sum sets the number of
# switch events, and with it the synthesis time; it varies 15% between seeds,
# which alone spread wall_s over ten seeds by about 0.2. The CLI therefore
# gets the first seed, drawn from the benchmark's, whose bath has a rate sum
# within this share of the band's mean, so that every seed does the same work.
RATE_SUM_TOL = 0.02


def psd_cli_seed(seed):
    from esdlab.stochastic import sample_ensemble

    q, n = PSD["qubit"], PSD["fluctuators"]
    lo, hi = q["gamma_min_hz"], q["gamma_max_hz"]
    mean = n * (hi - lo) / math.log(hi / lo)
    draw = random.Random(seed)
    while True:
        cli_seed = draw.randrange(2**31)
        rates = sample_ensemble(n, lo, hi, q["sigma_rad_s"], cli_seed).rates
        if abs(rates.sum() / mean - 1.0) <= RATE_SUM_TOL:
            return cli_seed


def psd_1f(seed):
    """1/f spectrum of a telegraph-noise bath: signal synthesis, periodogram
    and CSV output, checked against the 1/f gates of the test suite."""
    sim = {"seed": psd_cli_seed(seed), "fluctuators": PSD["fluctuators"]}
    return (
        {"qubit_a": PSD["qubit"], "sim": sim},
        lambda out, cfg: ["psd", "--config", cfg, "--realizations", str(PSD["realizations"]),
                          "--t-max-s", repr(PSD["t_max_s"]), "--sample-hz", repr(PSD["sample_hz"]),
                          "--out", str(Path(out) / "psd.csv")],
        lambda out, stdout: checks.check_psd(Path(out) / "psd.csv", stdout, PSD),
        "realizations",
    )


WORKLOADS = {"mc_static": mc_static, "esd_sweep": esd_sweep, "psd_1f": psd_1f}

EXPECTED_CALLS = {
    "mc_static": ("cli.load_config", "cli.write_csv", "stochastic.monte_carlo_concurrence",
                  "stochastic.rtn_paths", "stochastic.evolve_trajectory",
                  "qmath.wootters_concurrence"),
    "esd_sweep": ("cli.load_config", "cli.write_csv", "analysis.sweep",
                  "analysis.find_crossing_time", "markov.interplay_concurrence",
                  "adiabatic.adiabatic_concurrence"),
    "psd_1f": ("cli.load_config", "cli.write_csv", "stochastic.psd_estimate",
               "scipy.signal.periodogram", "stochastic.fit_one_over_f"),
}

HEALTH = ("psd.fit_slope", "psd.amplitude_ratio",
          "mc.spa_max_abs_z.resonant", "mc.spa_max_abs_z.detuned")


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


# --- running one CLI process -----------------------------------------------


@dataclass
class Rep:
    wall_s: float
    setup_s: float | None
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    trace: dict | None = None
    outcome: checks.Outcome | None = None


@dataclass
class Context:
    work: Path  # scratch space of this run, inside the checkout
    env: dict   # environment of every CLI process


def spawn(ctx: Context, rep_dir: Path, args: list[str], trace: bool = False,
          python_flags: tuple = ()) -> Rep:
    """Run child.py with ``args``; time it from spawn to exit."""
    rep_dir.mkdir(parents=True)
    stamp, trace_file = rep_dir / "stamp", rep_dir / "trace.json"
    cmd = [sys.executable, *python_flags, str(HERE / "child.py"), str(stamp),
           str(trace_file) if trace else "-", *args]
    with open(rep_dir / "stdout", "wb") as out, open(rep_dir / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=ctx.env, cwd=rep_dir)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                    proc.kill()
            finally:
                os.close(pidfd)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        # rusage of this child alone; RUSAGE_CHILDREN would be a running
        # maximum over every earlier child
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    try:
        setup = float(stamp.read_text()) - start
    except (OSError, ValueError):
        setup = None
    rep = Rep(
        wall_s=end - start,
        setup_s=setup,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        code=code,
        stdout=(rep_dir / "stdout").read_text(errors="replace"),
        stderr=(rep_dir / "stderr").read_text(errors="replace"),
    )
    if trace and code == 0:
        rep.trace = json.loads(trace_file.read_text())
    return rep


def run_workload_rep(ctx, k, plan, trace) -> Rep:
    config, argv, check, _ = plan
    rep_dir = ctx.work / f"rep{k}"
    out = rep_dir / "out"
    rep = spawn(ctx, rep_dir, argv(str(out), str(ctx.work / "config.json")), trace)
    rep.outcome = check(out, rep.stdout)
    if rep.code != 0:
        rep.outcome.fail_all(f"exit code {rep.code}: {rep.stderr.strip()[-300:]}")
    elif rep.setup_s is None:
        rep.outcome.fail_all("no set-up stamp")
    shutil.rmtree(rep_dir)
    return rep


def repeat(ctx, plan, seconds, pattern) -> list[Rep]:
    """Cycle through ``pattern`` (trace flags) until the time is spent."""
    start = time.monotonic()
    reps: list[Rep] = []
    while len(reps) < max(MIN_REPS, len(pattern)) or (
        time.monotonic() - start + statistics.median(r.wall_s for r in reps) <= seconds
    ):
        reps.append(run_workload_rep(ctx, len(reps), plan, pattern[len(reps) % len(pattern)]))
    return reps


# --- import-time split (trace 1) -------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)\s*$")


def import_times(stderr: str) -> tuple[float, float]:
    """Seconds to import esdlab.cli, and the part of it spent in scipy.signal.

    -X importtime prints each module after its children, indented by depth;
    scipy.signal's own entry can be missing (it is loaded lazily), so its
    cost is the sum over its outermost scipy.signal.* entries.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(2)) - 1, m.group(3), int(m.group(1)) * 1e-6))
    total = sum(cum for depth, name, cum in entries if depth == 0 and name.startswith("esdlab"))
    signal = 0.0
    covered_depth = None  # depth of the scipy.signal entry that contains the current line
    for depth, name, cum in reversed(entries):  # parents before children
        if covered_depth is not None and depth > covered_depth:
            continue
        covered_depth = None
        if name == "scipy.signal" or name.startswith("scipy.signal."):
            signal += cum
            covered_depth = depth
    return total, signal


# --- metrics ----------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it
    (only once there are 21 samples), sample count and range."""
    vals = sorted(values)
    out = {"median": statistics.median(vals), "n": len(vals), "min": vals[0], "max": vals[-1]}
    if len(vals) >= 21:
        rank = len(vals) - 11
        out[f"p{100 * rank // (len(vals) - 1)}"] = vals[rank]
    return out


def end_to_end(reps: list[Rep]) -> dict:
    """Medians over the successful repetitions."""
    good = [r for r in reps if r.code == 0 and r.setup_s is not None]
    if not good:
        raise BenchError("no repetition of the CLI succeeded")
    series = {
        "wall_s": [r.wall_s for r in good],
        "setup_s": [r.setup_s for r in good],
        "cpu_s": [r.cpu_s for r in good],
        "peak_rss_mb": [r.rss_mb for r in good],
        # a workload's work is the same in every repetition, so this is that
        # constant over wall_s: a throughput view of wall_s, not a second
        # measurement. Over wall_s - setup_s it spread ~1.4x more between runs.
        "work_per_s": [r.outcome.work / r.wall_s for r in good],
    }
    return {name: summary(vals) for name, vals in series.items()}


def per_layer(name: str, traced: list[Rep], untraced: list[Rep], imports: tuple) -> dict:
    traces = [r.trace for r in traced if r.trace is not None]
    if len(traces) < 2:
        errors = [r.stderr.strip()[-500:] for r in traced if r.trace is None]
        raise BenchError(f"fewer than two traced repetitions finished: {errors[:1]}")
    first = traces[0]
    for other in traces[1:]:
        if other["calls"] != first["calls"] or other["counts"] != first["counts"]:
            raise BenchError("call counts differ between traced repetitions of one seed")
    missing = [f for f in EXPECTED_CALLS[name] if first["calls"][f] == 0]
    if missing:
        raise BenchError(f"traced functions never called on {name}: {missing}")

    def med(field, fn_key):
        return statistics.median(t[field][fn_key] for t in traces)

    m = {}
    for fn_key, calls in first["calls"].items():
        m[f"{fn_key}.calls"] = calls
        m[f"{fn_key}.self_s"] = med("self_s", fn_key)
        m[f"{fn_key}.us_per_call"] = med("total_s", fn_key) / calls * 1e6 if calls else 0.0
    counts = first["counts"]
    m.update(counts)
    searches = counts["analysis.esd_searches"] + counts["analysis.bell_searches"]
    m["analysis.curve_evals_per_search"] = counts["analysis.curve_evals"] / searches if searches else 0.0
    # ESD results reach the output; Bell-threshold results of fig2 do not
    m["analysis.search_useful_ratio"] = counts["analysis.esd_searches"] / searches if searches else 0.0
    busy = med("total_s", "markov.interplay_concurrence")
    m["markov.points_per_s"] = counts["markov.points"] / busy if busy else 0.0
    segments = counts["stochastic.segments"]
    m["stochastic.us_per_segment"] = (
        m["stochastic.evolve_trajectory.self_s"] / segments * 1e6 if segments else 0.0
    )
    m["setup.import_s"], m["setup.scipy_signal_import_s"] = imports
    m["trace.overhead_frac"] = (
        statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in untraced) - 1.0
    )
    return m


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for fn_key in spans.SITES:
        spec += [(f"{fn_key}.calls", "count", "lower"), (f"{fn_key}.self_s", "s", "lower"),
                 (f"{fn_key}.us_per_call", "us", "lower")]
    spec += [
        ("cli.csv_rows", "count", "higher"),
        ("cli.csv_bytes", "B", "lower"),
        ("analysis.esd_searches", "count", "lower"),
        ("analysis.bell_searches", "count", "lower"),
        ("analysis.curve_evals", "count", "lower"),
        ("analysis.curve_evals_per_search", "1", "lower"),
        ("analysis.search_useful_ratio", "1", "higher"),
        ("markov.points", "count", "lower"),
        ("markov.points_per_s", "1/s", "higher"),
        ("adiabatic.points", "count", "lower"),
        ("stochastic.trajectories", "count", "higher"),
        ("stochastic.switch_events", "count", "higher"),
        ("stochastic.segments", "count", "higher"),
        ("stochastic.us_per_segment", "us", "lower"),
        ("psd.samples", "count", "higher"),
        ("psd.events_computed", "count", "higher"),
        ("setup.import_s", "s", "lower"),
        ("setup.scipy_signal_import_s", "s", "lower"),
        # health: reported, never gated; the fit targets are -1 and 1
        ("psd.fit_slope", "1", "higher"),
        ("psd.amplitude_ratio", "1", "higher"),
        ("mc.spa_max_abs_z.resonant", "1", "lower"),
        ("mc.spa_max_abs_z.detuned", "1", "lower"),
        ("trace.overhead_frac", "1", "lower"),
        ("ops_failed_frac", "1", "lower"),
    ]
    return spec


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "work_per_s": "1/s"}


# --- main -------------------------------------------------------------------


def environment(ctx: Context) -> dict:
    import numpy
    import scipy

    import esdlab.stochastic

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workers": 1,
        "ESDLAB_THREADS": ctx.env.get("ESDLAB_THREADS"),
        **{var: ctx.env[var] for var in BLAS_THREAD_VARS},
        "have_numba": esdlab.stochastic.HAVE_NUMBA,
        "platform": platform.platform(),
    }


def prepare(root: Path) -> Context:
    src = root / "src"
    if not (src / "esdlab" / "cli.py").is_file():
        raise BenchError(f"no esdlab sources under {src}; run from the root of a checkout")
    # the checks import esdlab too; child.py verifies where it came from
    sys.path.insert(0, str(src))
    env = {k: v for k, v in os.environ.items() if k != "ESDLAB_THREADS"}
    # one thread in the BLAS too: its idle workers otherwise spin on a second
    # core, which adds to cpu_s and makes it track that core's other tenants
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    env["PERFBENCH_SRC"] = str(src)
    work = root / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return Context(work=work, env=env)


def measure(ctx: Context, name: str, seed: int, seconds: float, trace: bool):
    start = time.monotonic()
    plan = WORKLOADS[name](seed)
    (ctx.work / "config.json").write_text(json.dumps(plan[0]))
    if not trace:
        reps = repeat(ctx, plan, seconds, (False,))
        return plan, reps, end_to_end(reps)
    # a first process splits the import time by module
    imports = spawn(ctx, ctx.work / "imports", ["--version"], python_flags=("-X", "importtime"))
    if imports.code != 0:
        raise BenchError(f"the CLI does not start: {imports.stderr.strip()[-500:]}")
    reps = repeat(ctx, plan, seconds - (time.monotonic() - start), (True, False))
    metrics = per_layer(name, reps[0::2], reps[1::2], import_times(imports.stderr))
    for key in HEALTH:
        vals = [r.outcome.health[key] for r in reps if key in r.outcome.health]
        metrics[key] = statistics.median(vals) if vals else 0.0
    return plan, reps, metrics


def report(name, plan, reps, metrics, trace, ctx) -> dict:
    attempted = sum(r.outcome.expected for r in reps)
    failed = sum(r.outcome.failed for r in reps)
    print(json.dumps({"env": environment(ctx)}))
    print(f"workload {name}: {len(reps)} CLI runs, work_per_s counts {plan[3]} per second")
    print(f"  config {json.dumps(plan[0])}")
    health = {}
    for r in reps:
        for key, val in r.outcome.health.items():
            health.setdefault(key, []).append(val)
    for key, vals in health.items():
        print(f"  health {key} = {statistics.median(vals):.6g} (median of {len(vals)})")
    problems = [p for r in reps for p in r.outcome.problems]
    print(f"  checks: {failed} of {attempted} output rows failed"
          f" (ops_failed_frac {failed / attempted:.4g})")
    for p in problems[:5]:
        print(f"    {p}")
    out = {}
    if trace:
        metrics["ops_failed_frac"] = failed / attempted
        for n, unit, _ in per_layer_spec():
            out[n] = {"value": metrics[n], "unit": unit}
            print(f"  {n} = {metrics[n]:.6g} {unit}")
    else:
        for n, st in metrics.items():
            unit = END_TO_END_UNITS[n]
            tail = "".join(f", {k} {v:.6g}" for k, v in st.items() if k.startswith("p"))
            print(f"  {n} = {st['median']:.6g} {unit} (median of {st['n']}, "
                  f"range {st['min']:.6g}..{st['max']:.6g}{tail})")
            out[n] = {"value": st["median"], "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # on SIGTERM, unwind so that spawn() kills and reaps its CLI process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        ctx = prepare(Path.cwd())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        plan, reps, metrics = measure(ctx, args.workload, args.seed, args.seconds, bool(args.trace))
        result = report(args.workload, plan, reps, metrics, bool(args.trace), ctx)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
