"""Pinned CLI outputs: every run below must write the bytes under golden/out,
and the pinned concurrence runs must hold the values the library computes.

The runs cover each figure, ESD sweeps with their boundary cases (r = 1,
a2 = 0, no static noise on either qubit), the three concurrence channels and
the PSD. Reduced sizes come from the config files under golden/config. A
change that moves a byte regenerates the files in the same commit, with

    PYTHONPATH=src python tests/test_golden.py

and lists the changed cells and the reason in CHANGES.md.
"""

import csv
import math
from pathlib import Path

import numpy as np

from esdlab.adiabatic import AdiabaticParams, adiabatic_concurrence
from esdlab.cli import load_config, main
from esdlab.markov import QuantumNoiseParams, interplay_concurrence
from esdlab.states import EWLParams, ewl_state
from esdlab.stochastic import SimConfig, monte_carlo_concurrence

GOLDEN = Path(__file__).resolve().parent / "golden"


def runs(out: Path) -> list[list[str]]:
    """The argv of every pinned run, writing into ``out``."""

    def cfg(name):
        return str(GOLDEN / "config" / f"{name}.json")

    def esd(name, *args):
        return ["esd", "--preset", "fig2", *args, "--points", "5", "--out", str(out / name)]

    def concurrence(channel):
        return ["concurrence", "--channel", channel, "--config", cfg("concurrence"),
                "--out", str(out / f"concurrence_{channel}.csv")]

    return [
        *(["figure", name, "--config", cfg("curves"), "--outdir", str(out)]
          for name in ("fig1a", "fig1b", "fig3")),
        *(["figure", name, "--config", cfg("monte_carlo"), "--outdir", str(out)]
          for name in ("fig4a", "fig4b")),
        esd("esd_r.csv", "--sweep", "r", "--from", "0.6", "--to", "1"),
        esd("esd_a2.csv", "--sweep", "a2", "--from", "0", "--to", "1"),
        esd("esd_no_static_noise.csv", "--config", cfg("no_static_noise"),
            "--sweep", "r", "--from", "0.3", "--to", "0.9"),
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


def test_concurrence_cells_hold_the_computed_values():
    # built from the library's own types, not from the CLI's readers
    cfg = load_config(None, str(GOLDEN / "config" / "concurrence.json"), {})
    st, sim, quantum = cfg["state"], cfg["sim"], cfg["quantum"]
    state = EWLParams(r=st["r"], a=math.sqrt(st["a2"]), flavor=st["flavor"], b_phase=st["phase"])
    ad_a, ad_b = (
        AdiabaticParams(omega=q["omega_rad_s"], theta=q["theta_rad"], sigma=q["sigma_rad_s"],
                        gamma_min=q["gamma_min_hz"], gamma_max=q["gamma_max_hz"])
        for q in (cfg["qubit_a"], cfg["qubit_b"])
    )
    omega_t = np.linspace(0.0, sim["t_max_omega"], sim["samples"])
    times = omega_t / ad_a.omega
    mc = monte_carlo_concurrence(ewl_state(state), SimConfig(
        qubit_a=ad_a, qubit_b=ad_b, n_trajectories=sim["trajectories"],
        t_max=sim["t_max_omega"] / ad_a.omega, n_samples=sim["samples"], seed=sim["seed"],
        n_fluctuators=sim["fluctuators"],
    ))
    qn = QuantumNoiseParams(s_white=quantum["s_white_per_s"], temperature=quantum["temperature_k"])
    want = {
        "adiabatic": {"concurrence": adiabatic_concurrence(times, ad_a, ad_b, state)},
        "interplay": {"concurrence": interplay_concurrence(times, state, ad_a, ad_b, qn)},
        "montecarlo": {"concurrence": mc.concurrence, "stderr": mc.stderr},
    }
    for channel, columns in want.items():
        path = GOLDEN / "out" / f"concurrence_{channel}.csv"
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["omega_t", *columns], channel
        for i, (name, values) in enumerate({"omega_t": omega_t, **columns}.items()):
            assert [float(row[i]) for row in rows] == values.tolist(), (channel, name)


if __name__ == "__main__":
    regenerate(GOLDEN / "out")
