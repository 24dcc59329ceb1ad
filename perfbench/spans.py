"""Outside-in call tracing for one esdlab CLI process.

Each traced function is replaced by a timing wrapper at every module
attribute its callers look up (``from .qmath import wootters_concurrence``
binds a second name in ``esdlab.stochastic``; patching only ``esdlab.qmath``
would record nothing). Spans nest on a stack, so a function's self time is
its duration minus the time of the traced calls made inside it. Counters
derived from arguments and results are taken after a span closes, and the
time spent on them is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

# layer.function -> (module, attribute) sites where callers look the name up
SITES = {
    "cli.load_config": [("esdlab.cli", "load_config")],
    "cli.write_csv": [("esdlab.cli", "write_csv")],
    "analysis.sweep": [("esdlab.cli", "sweep")],
    "analysis.find_crossing_time": [("esdlab.analysis", "find_crossing_time")],
    "markov.interplay_concurrence": [
        ("esdlab.cli", "interplay_concurrence"),
        ("esdlab.analysis", "interplay_concurrence"),
    ],
    "adiabatic.adiabatic_concurrence": [
        ("esdlab.cli", "adiabatic_concurrence"),
        ("esdlab.analysis", "adiabatic_concurrence"),
    ],
    # sweep(channel="monte_carlo") imports it from esdlab.stochastic at call time
    "stochastic.monte_carlo_concurrence": [
        ("esdlab.cli", "monte_carlo_concurrence"),
        ("esdlab.stochastic", "monte_carlo_concurrence"),
    ],
    "stochastic.rtn_paths": [("esdlab.stochastic", "rtn_paths")],
    "stochastic.evolve_trajectory": [("esdlab.stochastic", "evolve_trajectory")],
    "qmath.wootters_concurrence": [("esdlab.stochastic", "wootters_concurrence")],
    "stochastic.psd_estimate": [("esdlab.cli", "psd_estimate")],
    "stochastic.fit_one_over_f": [("esdlab.cli", "fit_one_over_f")],
    # esdlab.stochastic calls it as _signal.periodogram on the scipy module
    "scipy.signal.periodogram": [("scipy.signal", "periodogram")],
}

CURVES = ("markov.interplay_concurrence", "adiabatic.adiabatic_concurrence")

COUNTERS = (
    "cli.csv_rows",
    "cli.csv_bytes",
    "analysis.esd_searches",
    "analysis.bell_searches",
    "analysis.curve_evals",
    "markov.points",
    "adiabatic.points",
    "stochastic.trajectories",
    "stochastic.switch_events",
    "stochastic.segments",
    "psd.samples",
    "psd.events_computed",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count(key, args, kwargs, result, counts) -> None:
    if key == "cli.write_csv":
        path = _arg(args, kwargs, 0, "path")
        with open(path, "rb") as fh:
            data = fh.read()
        counts["cli.csv_rows"] += max(0, data.count(b"\n") - 1)
        counts["cli.csv_bytes"] += len(data)
    elif key == "analysis.find_crossing_time":
        level = _arg(args, kwargs, 2, "level", 0.0)
        counts["analysis.esd_searches" if level == 0.0 else "analysis.bell_searches"] += 1
    elif key == "markov.interplay_concurrence":
        counts["markov.points"] += int(np.size(_arg(args, kwargs, 0, "times")))
    elif key == "adiabatic.adiabatic_concurrence":
        counts["adiabatic.points"] += int(np.size(_arg(args, kwargs, 0, "t")))
    elif key == "stochastic.rtn_paths":
        counts["stochastic.switch_events"] += sum(t.size for t in result.switch_times)
    elif key == "stochastic.evolve_trajectory":
        paths_a = _arg(args, kwargs, 1, "paths_a")
        paths_b = _arg(args, kwargs, 2, "paths_b")
        t_max = _arg(args, kwargs, 3, "cfg").t_max
        # the engine propagates one segment between consecutive distinct
        # break points: 0, every switch time of either qubit, and t_max
        brk = np.unique(
            np.concatenate([*paths_a.switch_times, *paths_b.switch_times, [0.0, t_max]])
        )
        counts["stochastic.trajectories"] += 1
        counts["stochastic.segments"] += int(np.count_nonzero(brk <= t_max)) - 1
    elif key == "stochastic.psd_estimate":
        ens = _arg(args, kwargs, 0, "ens")
        n = int(round(result.t_max * result.sample_hz)) * result.n_realizations
        counts["psd.samples"] += n
        counts["psd.events_computed"] += float(
            np.sum(ens.rates) * result.t_max * result.n_realizations
        )


class Tracer:
    """Patch every site in SITES, record spans, restore on ``close``."""

    def __init__(self):
        self.calls = {key: 0 for key in SITES}
        self.total_s = {key: 0.0 for key in SITES}
        self.self_s = {key: 0.0 for key in SITES}
        self.counts = {key: 0 for key in COUNTERS}
        self._stack = []  # [key, child_seconds]
        self._saved = []

    def install(self) -> None:
        for key, sites in SITES.items():
            modules = [importlib.import_module(mod) for mod, _ in sites]
            originals = [getattr(m, attr) for m, (_, attr) in zip(modules, sites)]
            if any(f is not originals[0] for f in originals):
                raise RuntimeError(f"{key}: the patched names do not share one function")
            wrapper = self._wrap(key, originals[0])
            for module, (_, attr), original in zip(modules, sites, originals):
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)

    def close(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, key, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self.calls[key] += 1
                self.total_s[key] += elapsed
                self.self_s[key] += elapsed - frame[1]
            if parent is not None and parent[0] == "analysis.find_crossing_time" and key in CURVES:
                self.counts["analysis.curve_evals"] += 1
            _count(key, args, kwargs, result, self.counts)
            if parent is not None:
                # the bookkeeping above belongs to no layer
                parent[1] += clock() - start
            return result

        return wrapper

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }
