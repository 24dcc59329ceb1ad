"""Output checks for the benchmark workloads.

Each check reads what one CLI invocation wrote and returns an ``Outcome``:
how many output rows were expected, how many of them failed, how much work
the run did, and health numbers that are reported but never gated. A missing
or unreadable file fails every expected row. Cells must parse with plain
``float()``: the CLI promises shortest round-trip floats, so a cell such as
``np.float64(1981.29)`` is a failed row, not a spelling to accept.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Wootters' concurrence takes square roots of eigenvalues that are zero for
# a pure state, so rounding of 1e-16 in the averaged state shows as ~1e-8 in
# C. A value further than this outside [0, 1], or from 1 for the pure initial
# state at t = 0, is a wrong result.
CONCURRENCE_TOL = 1e-6
GRID_RTOL = 1e-12
# The 1/f gates of the package's own tests (tests/test_stochastic.py).
PSD_SLOPE_TOL = 0.1
PSD_AMPLITUDE_TOL = 0.2


@dataclass
class Outcome:
    expected: int
    failed: int = 0
    work: float = 0.0
    health: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail_all(self, why: str) -> "Outcome":
        self.failed = self.expected
        self.problems.append(why)
        return self

    def fail_rows(self, bad: dict) -> None:
        """``bad`` maps a row index to the first problem found in it."""
        self.failed += len(bad)
        self.problems.extend(f"row {i}: {why}" for i, why in sorted(bad.items())[:3])


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def parse_rows(rows, width: int, bad: dict) -> list[list[float] | None]:
    """Parse every cell with float(); rows that do not parse are marked bad."""
    parsed = []
    for i, row in enumerate(rows):
        if len(row) != width:
            bad.setdefault(i, f"{len(row)} cells, expected {width}")
            parsed.append(None)
            continue
        try:
            parsed.append([float(cell) for cell in row])
        except ValueError:
            bad.setdefault(i, f"unparseable cell in {row}")
            parsed.append(None)
    return parsed


def _load(path: Path, header: list[str], n_rows: int, outcome: Outcome):
    """Header and row-count gate; returns the raw rows or None."""
    try:
        got_header, rows = read_csv(path)
    except (OSError, ValueError, csv.Error) as exc:
        outcome.fail_all(f"cannot read {path.name}: {exc}")
        return None
    if got_header != header:
        outcome.fail_all(f"{path.name} header {got_header} != {header}")
        return None
    if len(rows) != n_rows:
        outcome.fail_all(f"{path.name} has {len(rows)} rows, expected {n_rows}")
        return None
    return rows


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Monte Carlo curves (mc_static)


def check_mc_rows(rows, header, t_max_omega: float, bad: dict):
    """Concurrence in [0, 1], = 1 at t = 0 (pure initial state), stderr >= 0."""
    n = len(rows)
    grid = np.linspace(0.0, t_max_omega, n)
    parsed = parse_rows(rows, len(header), bad)
    conc_cols = [j for j, h in enumerate(header) if h.startswith("mc_")]
    err_cols = [j for j, h in enumerate(header) if h.startswith("stderr")]
    for i, vals in enumerate(parsed):
        if vals is None:
            continue
        if not _close(vals[0], grid[i], GRID_RTOL):
            bad.setdefault(i, f"omega_t {vals[0]} off the grid value {grid[i]}")
        for j in conc_cols:
            c = vals[j]
            if not (math.isfinite(c) and -CONCURRENCE_TOL <= c <= 1.0 + CONCURRENCE_TOL):
                bad.setdefault(i, f"{header[j]} = {c} outside [0, 1]")
            elif i == 0 and abs(c - 1.0) > CONCURRENCE_TOL:
                bad.setdefault(i, f"{header[j]} = {c} at t = 0, expected 1")
        for j in err_cols:
            if not (math.isfinite(vals[j]) and vals[j] >= 0.0):
                bad.setdefault(i, f"{header[j]} = {vals[j]} is not a finite stderr >= 0")
    return parsed


FIG4B_HEADER = [
    "omega_t",
    "mc_coupled_detuned",
    "stderr_coupled_detuned",
    "mc_uncoupled_detuned",
    "stderr_uncoupled_detuned",
    "mc_uncoupled_resonant",
    "stderr_uncoupled_resonant",
]


def _manifest(outdir: Path, name: str, sim: dict, outcome: Outcome) -> dict | None:
    try:
        with open(outdir / f"{name}_manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        outcome.fail_all(f"cannot read the {name} manifest: {exc}")
        return None
    if manifest.get("outputs") != [f"{name}.csv"]:
        outcome.fail_all(f"manifest outputs {manifest.get('outputs')}")
        return None
    got = manifest.get("parameters", {}).get("sim", {})
    if any(got.get(k) != v for k, v in sim.items()):
        outcome.fail_all(f"manifest sim {got} does not carry the requested {sim}")
        return None
    return manifest["parameters"]


def _max_abs_z(mc, err, spa) -> float:
    keep = err > 0.0
    if not keep.any():
        return 0.0
    return float(np.max(np.abs(mc[keep] - spa[keep]) / err[keep]))


def check_fig4b(outdir: Path, stdout: str, sim: dict) -> Outcome:
    from esdlab import AdiabaticParams, EWLParams, adiabatic_concurrence

    n = sim["samples"]
    outcome = Outcome(expected=n, work=3 * sim["trajectories"])
    params = _manifest(outdir, "fig4b", sim, outcome)
    if params is None:
        return outcome
    rows = _load(outdir / "fig4b.csv", FIG4B_HEADER, n, outcome)
    if rows is None:
        return outcome
    bad: dict = {}
    parsed = check_mc_rows(rows, FIG4B_HEADER, sim["t_max_omega"], bad)
    outcome.fail_rows(bad)
    if bad:
        return outcome
    # health: the uncoupled curves against the static-path average; the
    # detuned qubit B sits 20% above qubit A with the same relative noise
    qa = params["qubit_a"]
    ad_a = AdiabaticParams(qa["omega_rad_s"], qa["theta_rad"], qa["sigma_rad_s"],
                           qa["gamma_min_hz"], qa["gamma_max_hz"])
    detuned = AdiabaticParams(1.2 * ad_a.omega, ad_a.theta, 1.2 * ad_a.sigma,
                              ad_a.gamma_min, ad_a.gamma_max)
    st = params["state"]
    state = EWLParams(r=st["r"], a=math.sqrt(st["a2"]), flavor=st["flavor"], b_phase=st["phase"])
    data = np.array(parsed)
    times = data[:, 0] / ad_a.omega
    for label, col, qubit_b in (("resonant", 5, ad_a), ("detuned", 3, detuned)):
        spa = np.asarray(adiabatic_concurrence(times, ad_a, qubit_b, state))
        outcome.health[f"mc.spa_max_abs_z.{label}"] = _max_abs_z(data[:, col], data[:, col + 1], spa)
    return outcome


# ---------------------------------------------------------------------------
# ESD sweep (esd_sweep)

FIG2_HEADER = [
    "r",
    "omega_t_esd_phi",
    "omega_t_esd_psi",
    "omega_t_esd_adiabatic",
    "omega_t_esd_quantum_phi",
    "omega_t_esd_quantum_psi",
]
FIG2_GRID = (0.4, 0.99, 60)


def _fig2_curves(params: dict):
    """Concurrence function of each ESD column, as the figure defines it."""
    from dataclasses import replace

    from esdlab import (
        AdiabaticParams,
        EWLParams,
        QuantumNoiseParams,
        adiabatic_concurrence,
        interplay_concurrence,
    )

    def qubit(q, quiet=False):
        return AdiabaticParams(q["omega_rad_s"], q["theta_rad"],
                               0.0 if quiet else q["sigma_rad_s"],
                               q["gamma_min_hz"], q["gamma_max_hz"])

    ad_a, ad_b = qubit(params["qubit_a"]), qubit(params["qubit_b"])
    quiet_a, quiet_b = qubit(params["qubit_a"], True), qubit(params["qubit_b"], True)
    qn = QuantumNoiseParams(params["quantum"]["s_white_per_s"], params["quantum"]["temperature_k"])
    st = params["state"]
    base = EWLParams(r=1.0, a=math.sqrt(st["a2"]), flavor=st["flavor"], b_phase=st["phase"])

    def interplay(flavor, a, b):
        return lambda t, r: interplay_concurrence(t, replace(base, r=r, flavor=flavor), a, b, qn)

    return ad_a.omega, [
        interplay("phi", ad_a, ad_b),
        interplay("psi", ad_a, ad_b),
        lambda t, r: adiabatic_concurrence(t, ad_a, ad_b, replace(base, r=r)),
        interplay("phi", quiet_a, quiet_b),
        interplay("psi", quiet_a, quiet_b),
    ]


def check_fig2(outdir: Path, stdout: str, sim: dict) -> Outcome:
    """Every finite ESD time is a sign change of its curve within the root
    tolerance; an infinite one means the curve is still positive at t_max."""
    from esdlab.constants import ESD_RELATIVE_TOL as tol

    n = FIG2_GRID[2]
    outcome = Outcome(expected=n)
    params = _manifest(outdir, "fig2", sim, outcome)
    if params is None:
        return outcome
    rows = _load(outdir / "fig2.csv", FIG2_HEADER, n, outcome)
    if rows is None:
        return outcome
    # throughput counts ESD cells written, whether or not they parse
    outcome.work = sum(1 for row in rows for cell in row[1:] if cell)
    bad: dict = {}
    parsed = parse_rows(rows, len(FIG2_HEADER), bad)
    omega, curves = _fig2_curves(params)
    t_max = params["sim"]["t_max_omega"] / omega
    grid = np.linspace(*FIG2_GRID)
    for i, vals in enumerate(parsed):
        if vals is None:
            continue
        r = vals[0]
        if r != grid[i]:
            bad.setdefault(i, f"r = {r}, expected {grid[i]}")
            continue
        for name, cell, curve in zip(FIG2_HEADER[1:], vals[1:], curves):
            if math.isinf(cell) and cell > 0:
                ok = float(curve(t_max, r)) > 0.0
            elif math.isfinite(cell) and cell > 0.0:
                t = cell / omega
                ok = float(curve(t * (1.0 - tol), r)) > 0.0 and float(curve(t * (1.0 + tol), r)) <= 0.0
            elif cell == 0.0:
                ok = float(curve(0.0, r)) <= 0.0
            else:
                ok = False
            if not ok:
                bad.setdefault(i, f"{name} = {cell} is not a zero of its curve")
    outcome.fail_rows(bad)
    return outcome


# ---------------------------------------------------------------------------
# 1/f spectrum (psd_1f)

_FIT_LINE = re.compile(r"1/f fit: slope (\S+), amplitude ratio (\S+) over")


def check_psd(out_csv: Path, stdout: str, spec: dict) -> Outcome:
    """Grid and target columns exact, spectrum finite, and the 1/f gates."""
    from esdlab import PsdEstimate, fit_one_over_f

    hz, t_max, q = spec["sample_hz"], spec["t_max_s"], spec["qubit"]
    nominal = int(round(t_max * hz))
    outcome = Outcome(expected=nominal // 2, work=spec["realizations"])
    try:
        header, rows = read_csv(out_csv)
    except (OSError, ValueError, csv.Error) as exc:
        return outcome.fail_all(f"cannot read {out_csv.name}: {exc}")
    if header != ["omega_rad_s", "s_estimated", "s_target"]:
        return outcome.fail_all(f"header {header}")
    bad: dict = {}
    parsed = parse_rows(rows, 3, bad)
    if bad or not parsed:
        return outcome.fail_all(f"unparseable spectrum: {sorted(bad.items())[:1]}")
    data = np.array(parsed)
    # the segment may be rounded up to an FFT-friendly length n; the
    # frequency step tells n, since omega_k = 2 pi k hz / n
    n = int(round(2.0 * math.pi * hz / data[0, 0]))
    outcome.expected = max(outcome.expected, n // 2)
    if n < nominal or len(data) != n // 2:
        return outcome.fail_all(f"{len(data)} rows for a segment of {n} samples")
    omega = 2.0 * math.pi * hz * np.arange(1, n // 2 + 1) / n
    target = math.pi * q["sigma_rad_s"] ** 2 / (
        math.log(q["gamma_max_hz"] / q["gamma_min_hz"]) * omega
    )
    for i, (w, s_est, s_tgt) in enumerate(data):
        if not _close(w, omega[i], GRID_RTOL):
            bad.setdefault(i, f"omega {w} != {omega[i]}")
        elif not (math.isfinite(s_est) and s_est >= 0.0):
            bad.setdefault(i, f"s_estimated {s_est}")
        elif not _close(s_tgt, target[i], GRID_RTOL):
            bad.setdefault(i, f"s_target {s_tgt} != {target[i]}")
    outcome.fail_rows(bad)
    if bad:
        return outcome
    est = PsdEstimate(
        omega=data[:, 0], s_estimated=data[:, 1], s_target=data[:, 2],
        gamma_min=q["gamma_min_hz"], gamma_max=q["gamma_max_hz"], sigma=q["sigma_rad_s"],
        n_realizations=spec["realizations"], sample_hz=hz, t_max=n / hz,
    )
    fit = fit_one_over_f(est)
    outcome.health["psd.fit_slope"] = fit.slope
    outcome.health["psd.amplitude_ratio"] = fit.amplitude_ratio
    if abs(fit.slope + 1.0) > PSD_SLOPE_TOL or abs(fit.amplitude_ratio - 1.0) > PSD_AMPLITUDE_TOL:
        return outcome.fail_all(f"1/f gate: slope {fit.slope}, ratio {fit.amplitude_ratio}")
    # the CLI prints the fit to 4 decimals; it must be the fit of this file
    printed = _FIT_LINE.search(stdout)
    if printed is None or max(
        abs(float(printed.group(1)) - fit.slope),
        abs(float(printed.group(2)) - fit.amplitude_ratio),
    ) > 5.1e-5:
        return outcome.fail_all("the printed 1/f fit does not match the written spectrum")
    return outcome
