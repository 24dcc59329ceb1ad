"""Pinned CLI outputs: every run below must write the bytes under golden/out,
and the pinned concurrence and esd runs must hold the values the library
computes.

The runs cover each figure, ESD sweeps with their boundary cases (r = 1,
a2 = 0, no static noise on either qubit), the three concurrence channels and
the PSD. Reduced sizes come from the config files under golden/config. A
change that moves a byte regenerates the files in the same commit, with

    PYTHONPATH=src python tests/test_golden.py

and lists the changed cells and the reason in CHANGES.md.
"""

import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from esdlab.adiabatic import AdiabaticParams, adiabatic_concurrence
from esdlab.analysis import sweep
from esdlab.cli import load_config, main
from esdlab.markov import QuantumNoiseParams, interplay_concurrence
from esdlab.states import EWLParams, ewl_state
from esdlab.stochastic import SimConfig, monte_carlo_concurrence

GOLDEN = Path(__file__).resolve().parent / "golden"


# each pinned esd run, at 5 points on the fig2 preset: its output file, then
# its config file (None for none), swept variable and range
ESD_RUNS = {
    "esd_r.csv": (None, "r", 0.6, 1.0),
    "esd_a2.csv": (None, "a2", 0.0, 1.0),
    "esd_no_static_noise.csv": ("no_static_noise", "r", 0.3, 0.9),
}


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
        *(["figure", name, "--config", cfg("curves"), "--outdir", str(out)]
          for name in ("fig1a", "fig1b", "fig3")),
        *(["figure", name, "--config", cfg("monte_carlo"), "--outdir", str(out)]
          for name in ("fig4a", "fig4b")),
        *(esd(name, *run) for name, run in ESD_RUNS.items()),
        *(concurrence(channel) for channel in ("adiabatic", "interplay", "montecarlo")),
        ["psd", "--config", cfg("psd"), "--realizations", "100", "--t-max-s", "0.002",
         "--sample-hz", "1e5", "--out", str(out / "psd.csv")],
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


def read_golden(name: str) -> tuple[list[str], list[list[str]]]:
    with open(GOLDEN / "out" / name, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def test_concurrence_cells_hold_the_computed_values():
    cfg = load_config(None, str(GOLDEN / "config" / "concurrence.json"), {})
    state, ad_a, ad_b, qn = library_params(cfg)
    sim = cfg["sim"]
    omega_t = np.linspace(0.0, sim["t_max_omega"], sim["samples"])
    times = omega_t / ad_a.omega
    mc = monte_carlo_concurrence(ewl_state(state), SimConfig(
        qubit_a=ad_a, qubit_b=ad_b, n_trajectories=sim["trajectories"],
        t_max=sim["t_max_omega"] / ad_a.omega, n_samples=sim["samples"], seed=sim["seed"],
        n_fluctuators=sim["fluctuators"],
    ))
    want = {
        "adiabatic": {"concurrence": adiabatic_concurrence(times, ad_a, ad_b, state)},
        "interplay": {"concurrence": interplay_concurrence(times, state, ad_a, ad_b, qn)},
        "montecarlo": {"concurrence": mc.concurrence, "stderr": mc.stderr},
    }
    for channel, columns in want.items():
        header, rows = read_golden(f"concurrence_{channel}.csv")
        assert header == ["omega_t", *columns], channel
        for i, (name, values) in enumerate({"omega_t": omega_t, **columns}.items()):
            assert [float(row[i]) for row in rows] == values.tolist(), (channel, name)


@pytest.mark.parametrize("name", ESD_RUNS)
def test_esd_cells_hold_the_computed_times(name):
    config, over, lo, hi = ESD_RUNS[name]
    cfg = load_config("fig2", config and str(GOLDEN / "config" / f"{config}.json"), {})
    state, ad_a, ad_b, qn = library_params(cfg)
    t_max = cfg["sim"]["t_max_omega"] / ad_a.omega
    grid = np.linspace(lo, hi, 5).tolist()
    quiet_a, quiet_b = replace(ad_a, sigma=0.0), replace(ad_b, sigma=0.0)
    both, static, quantum = (
        sweep(over, grid, state, a, b, noise, t_max)
        for a, b, noise in ((ad_a, ad_b, qn), (ad_a, ad_b, None), (quiet_a, quiet_b, qn))
    )
    want = [
        [value, *(math.inf if e.time is None else e.time * ad_a.omega
                  for e in (b.esd_phi, b.esd_psi, s.esd_phi, q.esd_phi, q.esd_psi))]
        for value, b, s, q in zip(grid, both, static, quantum)
    ]
    header, rows = read_golden(name)
    assert header == ["sweep_value", "omega_t_esd_phi", "omega_t_esd_psi", "omega_t_esd_adiabatic",
                      "omega_t_esd_quantum_phi", "omega_t_esd_quantum_psi"]
    assert [[float(cell) for cell in row] for row in rows] == want


if __name__ == "__main__":
    regenerate(GOLDEN / "out")
