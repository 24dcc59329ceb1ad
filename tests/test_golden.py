"""Pinned CLI outputs: every run below must write the bytes under golden/out,
and every pinned CSV must hold the values the library computes.

The runs cover each figure, ESD sweeps with their boundary cases (r = 1,
a2 = 0, no static noise on either qubit), the three concurrence channels and
the PSD. Reduced sizes come from the config files under golden/config. A
change that moves a byte regenerates the files in the same commit, with

    PYTHONPATH=src python tests/test_golden.py

and lists the changed cells and the reason in CHANGES.md. The script prints,
for each file it rewrites, how many cells moved and by how much at most, or
which manifest keys changed.
"""

import csv
import json
import math
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from esdlab.adiabatic import AdiabaticParams, adiabatic_concurrence
from esdlab.analysis import sweep
from esdlab.cli import load_config, main
from esdlab.markov import QuantumNoiseParams, interplay_concurrence
from esdlab.states import EWLParams, ewl_state
from esdlab.stochastic import SimConfig, monte_carlo_concurrence, psd_estimate, sample_ensemble

GOLDEN = Path(__file__).resolve().parent / "golden"

# each pinned figure run and its config file
FIGURE_RUNS = {"fig1a": "curves", "fig1b": "curves", "fig3": "curves",
               "fig4a": "monte_carlo", "fig4b": "monte_carlo"}

# each pinned esd run, at 5 points on the fig2 preset: its output file, then
# its config file (None for none), swept variable and range
ESD_RUNS = {
    "esd_r.csv": (None, "r", 0.6, 1.0),
    "esd_a2.csv": (None, "a2", 0.0, 1.0),
    "esd_no_static_noise.csv": ("no_static_noise", "r", 0.3, 0.9),
}

# the pinned psd run on golden/config/psd.json: realizations, segment (s), sampling rate (Hz)
PSD_RUN = (100, 0.002, 1.0e5)


def runs(out: Path) -> list[list[str]]:
    """The argv of every pinned run, writing into ``out``."""

    def cfg(name):
        return str(GOLDEN / "config" / f"{name}.json")

    def esd(name, config, over, lo, hi):
        return ["esd", "--preset", "fig2", *(["--config", cfg(config)] if config else []),
                "--sweep", over, "--from", repr(lo), "--to", repr(hi), "--points", "5",
                "--out", str(out / name)]

    def concurrence(channel):
        return ["concurrence", "--channel", channel, "--config", cfg("concurrence"),
                "--out", str(out / f"concurrence_{channel}.csv")]

    return [
        *(["figure", name, "--config", cfg(config), "--outdir", str(out)]
          for name, config in FIGURE_RUNS.items()),
        *(esd(name, *run) for name, run in ESD_RUNS.items()),
        *(concurrence(channel) for channel in ("adiabatic", "interplay", "montecarlo")),
        ["psd", "--config", cfg("psd"), "--realizations", str(PSD_RUN[0]),
         "--t-max-s", repr(PSD_RUN[1]), "--sample-hz", repr(PSD_RUN[2]),
         "--out", str(out / "psd.csv")],
    ]


def regenerate(out: Path) -> None:
    for argv in runs(out):
        assert main(argv) == 0, argv


def test_outputs_match_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("ESDLAB_THREADS", raising=False)
    regenerate(tmp_path)
    want = sorted(p.name for p in (GOLDEN / "out").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for name in want:
        got = (tmp_path / name).read_bytes()
        assert got == (GOLDEN / "out" / name).read_bytes(), name
        if name.endswith(".csv"):
            with open(tmp_path / name, encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows, name
            for row in rows:
                assert len(row) == len(header), name
                for cell in row:
                    # the CLI's promise: each cell is its value's shortest round trip
                    assert cell == repr(float(cell)), (name, cell)


def library_params(cfg: dict):
    """State, both qubits and the quantum noise of a merged config, built
    from the library's own types, not from the CLI's readers."""
    st, quantum = cfg["state"], cfg["quantum"]
    state = EWLParams(r=st["r"], a=math.sqrt(st["a2"]), flavor=st["flavor"], b_phase=st["phase"])
    ad_a, ad_b = (
        AdiabaticParams(omega=q["omega_rad_s"], theta=q["theta_rad"], sigma=q["sigma_rad_s"],
                        gamma_min=q["gamma_min_hz"], gamma_max=q["gamma_max_hz"])
        for q in (cfg["qubit_a"], cfg["qubit_b"])
    )
    qn = QuantumNoiseParams(s_white=quantum["s_white_per_s"], temperature=quantum["temperature_k"])
    return state, ad_a, ad_b, qn


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def read_golden(name: str) -> tuple[list[str], list[list[str]]]:
    return read_csv(GOLDEN / "out" / name)


def assert_columns(name: str, columns: dict) -> None:
    """The pinned CSV ``name`` has exactly these columns, cell for cell."""
    header, rows = read_golden(name)
    assert header == list(columns), name
    for i, (column, values) in enumerate(columns.items()):
        assert [float(row[i]) for row in rows] == np.asarray(values).tolist(), (name, column)


def time_grid(cfg: dict, ad_a: AdiabaticParams) -> tuple[np.ndarray, np.ndarray]:
    sim = cfg["sim"]
    omega_t = np.linspace(0.0, sim["t_max_omega"], sim["samples"])
    return omega_t, omega_t / ad_a.omega


def monte_carlo(cfg: dict, state, ad_a, ad_b, g: float = 0.0):
    sim = cfg["sim"]
    return monte_carlo_concurrence(ewl_state(state), SimConfig(
        qubit_a=ad_a, qubit_b=ad_b, n_trajectories=sim["trajectories"],
        t_max=sim["t_max_omega"] / ad_a.omega, n_samples=sim["samples"], seed=sim["seed"],
        coupling_g=g, n_fluctuators=sim["fluctuators"],
    ))


def test_concurrence_cells_hold_the_computed_values():
    cfg = load_config(None, str(GOLDEN / "config" / "concurrence.json"))
    state, ad_a, ad_b, qn = library_params(cfg)
    omega_t, times = time_grid(cfg, ad_a)
    mc = monte_carlo(cfg, state, ad_a, ad_b)
    want = {
        "adiabatic": {"concurrence": adiabatic_concurrence(times, ad_a, ad_b, state)},
        "interplay": {"concurrence": interplay_concurrence(times, state, ad_a, ad_b, qn)},
        "montecarlo": {"concurrence": mc.concurrence, "stderr": mc.stderr},
    }
    for channel, columns in want.items():
        assert_columns(f"concurrence_{channel}.csv", {"omega_t": omega_t, **columns})


def figure_columns(name: str, cfg: dict) -> dict:
    """Every column of figure ``name`` at the merged config ``cfg``."""
    state, ad_a, ad_b, qn = library_params(cfg)
    omega_t, times = time_grid(cfg, ad_a)
    if name in ("fig1a", "fig1b"):
        over, values = {
            "fig1a": ("a2", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
            "fig1b": ("r", [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0]),
        }[name]
        curves = [
            adiabatic_concurrence(times, ad_a, ad_b, replace(
                state, **({"a": math.sqrt(v)} if over == "a2" else {"r": v})
            ))
            for v in values
        ]
        return {over: np.repeat(values, omega_t.size), "omega_t": np.tile(omega_t, len(values)),
                "concurrence": np.concatenate(curves)}
    columns = {"omega_t": omega_t}
    if name == "fig3":
        quiet_a, quiet_b = replace(ad_a, sigma=0.0), replace(ad_b, sigma=0.0)
        for flavor in ("phi", "psi"):
            st = replace(state, flavor=flavor)
            columns[f"{flavor}_adiabatic"] = adiabatic_concurrence(times, ad_a, ad_b, st)
            columns[f"{flavor}_quantum"] = interplay_concurrence(times, st, quiet_a, quiet_b, qn)
            columns[f"{flavor}_interplay"] = interplay_concurrence(times, st, ad_a, ad_b, qn)
        return columns
    # fig. 4: the resonant curves take qubit A twice, the detuned ones qubit_b
    g = cfg["coupling"]["g_rad_s"]
    curves = {
        "fig4a": [("resonant", ad_a, 0.0), ("detuned", ad_b, 0.0)],
        "fig4b": [("coupled_detuned", ad_b, g), ("uncoupled_detuned", ad_b, 0.0),
                  ("uncoupled_resonant", ad_a, 0.0)],
    }[name]
    for label, qubit_b, coupling in curves:
        mc = monte_carlo(cfg, state, ad_a, qubit_b, coupling)
        columns[f"mc_{label}"], columns[f"stderr_{label}"] = mc.concurrence, mc.stderr
    if name == "fig4a":
        columns["spa_resonant"] = adiabatic_concurrence(times, ad_a, ad_a, state)
        columns["spa_detuned"] = adiabatic_concurrence(times, ad_a, ad_b, state)
    return columns


@pytest.mark.parametrize("name", FIGURE_RUNS)
def test_figure_cells_hold_the_computed_values(name):
    cfg = load_config(name, str(GOLDEN / "config" / f"{FIGURE_RUNS[name]}.json"))
    assert_columns(f"{name}.csv", figure_columns(name, cfg))


@pytest.mark.parametrize("name", ESD_RUNS)
def test_esd_cells_hold_the_computed_times(name):
    config, over, lo, hi = ESD_RUNS[name]
    cfg = load_config("fig2", config and str(GOLDEN / "config" / f"{config}.json"))
    state, ad_a, ad_b, qn = library_params(cfg)
    t_max = cfg["sim"]["t_max_omega"] / ad_a.omega
    grid = np.linspace(lo, hi, 5).tolist()
    quiet_a, quiet_b = replace(ad_a, sigma=0.0), replace(ad_b, sigma=0.0)
    both, static, quantum = (
        sweep(over, grid, state, a, b, noise, t_max)
        for a, b, noise in ((ad_a, ad_b, qn), (ad_a, ad_b, replace(qn, s_white=0.0)),
                            (quiet_a, quiet_b, qn))
    )
    # phi and psi with both noises, the static time, phi and psi with quantum noise only
    times = np.vstack([both, static[:1], quantum]) * ad_a.omega
    want = [[value, *cells] for value, cells in zip(grid, times.T.tolist())]
    header, rows = read_golden(name)
    assert header == ["sweep_value", "omega_t_esd_phi", "omega_t_esd_psi", "omega_t_esd_adiabatic",
                      "omega_t_esd_quantum_phi", "omega_t_esd_quantum_psi"]
    assert [[float(cell) for cell in row] for row in rows] == want


def test_psd_cells_hold_the_computed_spectrum():
    cfg = load_config(None, str(GOLDEN / "config" / "psd.json"))
    q, sim = cfg["qubit_a"], cfg["sim"]
    ens = sample_ensemble(sim["fluctuators"], q["gamma_min_hz"], q["gamma_max_hz"],
                          q["sigma_rad_s"], sim["seed"])
    n_realizations, t_max, sample_hz = PSD_RUN
    est = psd_estimate(ens, t_max, n_realizations, sim["seed"], sample_hz=sample_hz)
    assert_columns("psd.csv", {"omega_rad_s": est.omega, "s_estimated": est.s_estimated,
                               "s_target": est.s_target})


def _flat(tree: dict, prefix: str = "") -> dict:
    """A JSON object's leaves by their key path, "parameters/sim/seed"."""
    out = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        out.update(_flat(value, f"{path}/") if isinstance(value, dict) else {path: value})
    return out


def describe_change(old: Path, new: Path) -> str | None:
    """What file ``new`` changes in file ``old``, in one line, or None when
    their bytes agree: a manifest's changed keys, a CSV's changed cells and
    the largest absolute change among them (inf when a cell turns non-finite)."""
    if not old.exists():
        return f"{new.name}: new file"
    if old.read_bytes() == new.read_bytes():
        return None
    if new.suffix == ".json":
        was, now = (_flat(json.loads(p.read_text(encoding="utf-8"))) for p in (old, new))
        keys = sorted(k for k in was.keys() | now.keys() if was.get(k) != now.get(k))
        return f"{new.name}: changed keys {', '.join(keys) or '(none; layout only)'}"
    (was_header, was_rows), (now_header, now_rows) = read_csv(old), read_csv(new)
    if was_header != now_header or [len(r) for r in was_rows] != [len(r) for r in now_rows]:
        return f"{new.name}: header or shape changed"
    moved = [abs(float(b) - float(a)) for ra, rb in zip(was_rows, now_rows)
             for a, b in zip(ra, rb) if a != b]
    largest = max((d if d == d else math.inf for d in moved), default=0.0)
    return f"{new.name}: {len(moved)} cell(s) changed, largest absolute change {largest:.3g}"


def rewrite(golden_out: Path) -> list[str]:
    """Regenerate every pinned run, copy each changed file over its pinned
    one in ``golden_out`` and return one line per changed file."""
    report = []
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
        for new in sorted(Path(tmp).iterdir()):
            line = describe_change(golden_out / new.name, new)
            if line is not None:
                report.append(line)
                shutil.copyfile(new, golden_out / new.name)
    return report


def test_regeneration_reports_what_moved(tmp_path):
    pinned = GOLDEN / "out"
    old = tmp_path / "fig3.csv"
    header, rows = read_golden("fig3.csv")
    rows[3][2] = repr(float(rows[3][2]) - 0.25)
    with open(old, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    assert describe_change(old, pinned / "fig3.csv") == (
        "fig3.csv: 1 cell(s) changed, largest absolute change 0.25"
    )
    manifest = json.loads((pinned / "fig3_manifest.json").read_text(encoding="utf-8"))
    manifest["parameters"]["sim"]["seed"] += 1
    old = tmp_path / "fig3_manifest.json"
    old.write_text(json.dumps(manifest), encoding="utf-8")
    assert describe_change(old, pinned / "fig3_manifest.json") == (
        "fig3_manifest.json: changed keys parameters/sim/seed"
    )
    assert describe_change(pinned / "psd.csv", pinned / "psd.csv") is None


if __name__ == "__main__":
    print("\n".join(rewrite(GOLDEN / "out")) or "no pinned file changed")
