"""Round trips through the command-line front end, run in-process at tiny sizes."""

import argparse
import csv
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esdlab import cli
from esdlab.cli import _BOUNDS, DEFAULT_CONFIG, build_parser, main
from esdlab.constants import ESD_RELATIVE_TOL

from _oracles import ppt_min_eigenvalue

SMALL_MC = {"sim": {"trajectories": 8, "samples": 5, "fluctuators": 5}}


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def assert_cells_round_trip(rows):
    # the module docstring promises shortest-round-trip floats
    for row in rows:
        for cell in row:
            assert cell == "inf" or repr(float(cell)) == cell, cell


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestConcurrence:
    @pytest.mark.parametrize("channel", ["adiabatic", "interplay"])
    def test_analytic_channels(self, tmp_path, channel):
        out = tmp_path / "c.csv"
        cfg = write_config(tmp_path, {"sim": {"samples": 7, "t_max_omega": 2e4}})
        argv = ["concurrence", "--channel", channel, "--config", cfg, "--out", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert header == ["omega_t", "concurrence"]
        assert len(rows) == 7
        assert_cells_round_trip(rows)

    def test_montecarlo_with_gnuplot(self, tmp_path):
        out = tmp_path / "mc.csv"
        argv = ["concurrence", "--channel", "montecarlo", "--preset", "fig4a",
                "--config", write_config(tmp_path, SMALL_MC), "--gnuplot",
                "--out", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert header == ["omega_t", "concurrence", "stderr"]
        assert len(rows) == 5
        assert_cells_round_trip(rows)
        # the gnuplot sidecar beside the CSV plots every column after omega_t
        script = tmp_path / "mc.gp"
        assert script.is_file()
        lines = script.read_text(encoding="utf-8").splitlines()
        assert "set datafile separator ','" in lines
        assert lines[-1] == "plot 'mc.csv' using 1:2 with lines, 'mc.csv' using 1:3 with lines"

    def test_gnuplot_script_over_the_csv_exits_2(self, tmp_path, capsys):
        # the script goes to --out with a .gp suffix, which here is the CSV itself
        out = tmp_path / "x.gp"
        argv = ["concurrence", "--channel", "adiabatic", "--gnuplot", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--out {out} is the path of the --gnuplot script" in err
        assert not out.exists()

    def test_montecarlo_time_column_is_the_shared_grid(self, tmp_path):
        # 11 samples over omega_t = 5e3: seconds times omega gave 1500.0000000000002
        cfg = write_config(tmp_path, {"sim": {"trajectories": 2, "samples": 11,
                                              "fluctuators": 5}})
        columns = {}
        for channel in ("montecarlo", "adiabatic"):
            out = tmp_path / f"{channel}.csv"
            argv = ["concurrence", "--channel", channel, "--config", cfg, "--out", str(out)]
            assert main(argv) == 0
            columns[channel] = [row[0] for row in read_csv(out)[1]]
        assert columns["montecarlo"] == columns["adiabatic"]
        assert "1500.0" in columns["montecarlo"]


class TestEsd:
    @pytest.mark.parametrize("sweep, lo, hi", [("r", "0.5", "0.99"), ("a2", "0.2", "0.8")])
    def test_table(self, tmp_path, sweep, lo, hi):
        out = tmp_path / "esd.csv"
        argv = ["esd", "--preset", "fig2", "--sweep", sweep, "--from", lo,
                "--to", hi, "--points", "3", "--out", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert header == [
            "sweep_value",
            "omega_t_esd_phi",
            "omega_t_esd_psi",
            "omega_t_esd_adiabatic",
            "omega_t_esd_quantum_phi",
            "omega_t_esd_quantum_psi",
        ]
        assert len(rows) == 3
        assert [float(row[0]) for row in rows] == np.linspace(float(lo), float(hi), 3).tolist()
        assert_cells_round_trip(rows)
        assert any(cell != "inf" for row in rows for cell in row[1:])

    @pytest.mark.parametrize("cfg, sweep, lo, hi, points, static", [
        # one ulp above r* = 1 / (1 + 4|ab|) at a2 = 0.889, yet K(0) < 0: separable
        ({"state": {"a2": 0.889}}, "r", "0.4431585851040168", "0.4431585851040168", "1",
         ["0.0"]),
        # pure states: a product state at a2 = 0 and 1, a Bell-like one at 0.5
        ({"state": {"r": 1.0}}, "a2", "0", "1", "3", ["0.0", "inf", "0.0"]),
    ], ids=["r_above_r_star", "pure_states"])
    def test_static_column_zero_exactly_when_separable(self, tmp_path, cfg, sweep, lo, hi,
                                                          points, static):
        out = tmp_path / "esd.csv"
        argv = ["esd", "--config", write_config(tmp_path, cfg), "--sweep", sweep,
                "--from", lo, "--to", hi, "--points", points, "--out", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert [row[header.index("omega_t_esd_adiabatic")] for row in rows] == static

    @pytest.mark.parametrize("theta", [math.pi / 2, 0.0], ids=["optimal", "dephasing"])
    def test_no_static_noise(self, tmp_path, theta):
        # sigma = 0 is in the config's range; the static concurrence stays at
        # its initial value, zero below r* = 1/3 and positive above it
        qubit = {"sigma_rad_s": 0.0, "theta_rad": theta}
        cfg = {"state": {"a2": 0.5}, "qubit_a": qubit, "qubit_b": qubit}
        out = tmp_path / "esd.csv"
        argv = ["esd", "--config", write_config(tmp_path, cfg), "--sweep", "r",
                "--from", "0.3", "--to", "0.9", "--points", "2", "--out", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        cols = dict(zip(header, zip(*rows)))
        assert cols["sweep_value"] == ("0.3", "0.9")
        assert cols["omega_t_esd_adiabatic"] == ("0.0", "inf")
        # without static noise the interplay channel is the quantum-only one
        assert cols["omega_t_esd_phi"] == cols["omega_t_esd_quantum_phi"]
        assert cols["omega_t_esd_psi"] == cols["omega_t_esd_quantum_psi"]

    @pytest.mark.parametrize("qubit", [
        # cos(fl(pi/2)) = 6.1e-17 ends the curve near omega t = 1.4e327
        {"sigma_rad_s": 1e-300},
        # cos(fl(pi/2)) sigma underflows to 0, and the curve never moves
        {"sigma_rad_s": 5e-324},
        {"sigma_rad_s": 1e-300, "theta_rad": 0.0},  # sigma t stays below 1e-3
    ], ids=["optimal-overflow", "optimal-underflow", "dephasing-omega-t"])
    def test_static_time_past_float_range_is_nan(self, tmp_path, qubit):
        # a curve still positive at the largest omega t in float range is no proven never
        cfg = {"qubit_a": qubit, "qubit_b": qubit}
        out = tmp_path / "esd.csv"
        argv = ["esd", "--config", write_config(tmp_path, cfg), "--sweep", "r",
                "--from", "0.5", "--to", "0.9", "--points", "2", "--out", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        assert [row[header.index("omega_t_esd_adiabatic")] for row in rows] == ["nan", "nan"]

    @pytest.mark.parametrize("theta, t_max_omega, never", [
        (0.0, 5.0e3, ["omega_t_esd_phi", "omega_t_esd_psi", "omega_t_esd_adiabatic",
                      "omega_t_esd_quantum_phi", "omega_t_esd_quantum_psi"]),
        (0.0, 1.0e9, ["omega_t_esd_phi", "omega_t_esd_psi", "omega_t_esd_adiabatic",
                      "omega_t_esd_quantum_phi", "omega_t_esd_quantum_psi"]),
        (0.7, 5.0e3, ["omega_t_esd_adiabatic"]),
    ], ids=["dephasing", "dephasing-long", "theta-0.7"])
    def test_pure_state_that_nothing_ends_is_never(self, tmp_path, theta, t_max_omega, never):
        # a search read the underflow of the coherence as a zero and wrote
        # omega t = 1363.7 (theta = 0) or 1867.1 (theta = 0.7); at theta = 0.7
        # the relaxation fills the facing populations, and the interplay ends.
        # esd reads no sim.t_max_omega: a short and a long one give the same cells
        qubit = {"theta_rad": theta}
        cfg = {"qubit_a": qubit, "qubit_b": qubit, "sim": {"t_max_omega": t_max_omega}}
        out = tmp_path / "esd.csv"
        argv = ["esd", "--config", write_config(tmp_path, cfg), "--sweep", "r",
                "--from", "0.99", "--to", "1.0", "--points", "2", "--out", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        near, pure = (dict(zip(header, row)) for row in rows)
        assert [pure[name] for name in never] == ["inf"] * len(never)
        assert "inf" not in near.values()
        if theta == 0.0:
            assert float(near["omega_t_esd_phi"]) == pytest.approx(114.956, rel=1e-5)
        else:
            assert float(pure["omega_t_esd_phi"]) == pytest.approx(259.150, rel=1e-5)
            assert float(pure["omega_t_esd_psi"]) == pytest.approx(175.747, rel=1e-5)

    def test_default_sweep_writes_no_nan(self, tmp_path):
        # quantum noise alone ends every state of this sweep, past the
        # omega t = 5e3 of the default config that the search once stopped at
        out = tmp_path / "esd.csv"
        argv = ["esd", "--sweep", "r", "--from", "0.5", "--to", "0.99", "--points", "4",
                "--out", str(out)]
        assert main(argv) == 0
        header, rows = read_csv(out)
        cells = np.array(rows, dtype=float)[:, 1:]
        assert np.all(np.isfinite(cells)) and np.all(cells > 0.0)
        quantum = cells[:, [header.index("omega_t_esd_quantum_phi") - 1,
                            header.index("omega_t_esd_quantum_psi") - 1]]
        assert np.all(quantum > DEFAULT_CONFIG["sim"]["t_max_omega"])

    def test_fig2_cells_pass_the_peres_horodecki_test(self, tmp_path):
        # each finite cell of fig2's 60 rows: the composed channel's state is
        # entangled at t(1 - tol) and separable at t(1 + tol)
        assert main(["figure", "fig2", "--outdir", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "fig2.csv")
        cfg = cli.load_config("fig2", None)
        ad_a, ad_b = cli._closed_form_qubits(cfg)
        qn = cli._quantum_from(cfg)
        quiet = (replace(ad_a, sigma=0.0), replace(ad_b, sigma=0.0))
        channels = {
            "omega_t_esd_phi": ("phi", (ad_a, ad_b), qn),
            "omega_t_esd_psi": ("psi", (ad_a, ad_b), qn),
            "omega_t_esd_adiabatic": ("phi", (ad_a, ad_b), replace(qn, s_white=0.0)),
            "omega_t_esd_quantum_phi": ("phi", quiet, qn),
            "omega_t_esd_quantum_psi": ("psi", quiet, qn),
        }
        checked = 0
        for row in rows:
            for name, (flavor, qubits, noise) in channels.items():
                cell = float(row[header.index(name)])
                assert cell > 0.0 and not math.isnan(cell), (row[0], name)
                if math.isinf(cell):
                    continue
                s = cli._state_from(cfg, r=float(row[0]), flavor=flavor)
                t = cell / ad_a.omega
                assert ppt_min_eigenvalue(t * (1.0 - ESD_RELATIVE_TOL), s, *qubits, noise) < 0.0
                assert ppt_min_eigenvalue(t * (1.0 + ESD_RELATIVE_TOL), s, *qubits, noise) >= 0.0
                checked += 1
        assert checked == 60 * 5


@pytest.mark.filterwarnings("error::UserWarning")
def test_no_concurrence_returns_from_underflowing_populations(tmp_path):
    # at this temperature p1 = 1 - tanh(x) / 2 rounded to 0.0, and the
    # populations product rho_11 rho_22 underflowed to 0 near omega t = 5000
    # while the coherence (~1e-162) did not: the curve came back after its
    # zero, and the ESD search warned
    cfg = write_config(tmp_path, {
        "state": {"flavor": "psi", "r": 0.99},
        "quantum": {"s_white_per_s": 14874938495.0, "temperature_k": 0.015625},
    })
    out = tmp_path / "c.csv"
    assert main(["concurrence", "--channel", "interplay", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[-1] == ["5000.0", "0.0"]
    assert main(["esd", "--config", cfg, "--sweep", "r", "--from", "0.3", "--to", "0.99",
                 "--points", "2", "--out", str(tmp_path / "esd.csv")]) == 0


class TestQuantumNoiseOff:
    """``quantum.s_white_per_s = 0`` is how a config switches quantum noise off."""

    CFG = {"quantum": {"s_white_per_s": 0.0}, "sim": {"samples": 5}}

    def test_fig3(self, tmp_path):
        outdir = tmp_path / "out"
        argv = ["figure", "fig3", "--config", write_config(tmp_path, self.CFG),
                "--outdir", str(outdir)]
        assert main(argv) == 0
        header, rows = read_csv(outdir / "fig3.csv")
        cols = dict(zip(header, np.array(rows, dtype=float).T))
        for flavor in ("phi", "psi"):
            # the quiet qubits then see no noise at all
            quantum = cols[f"{flavor}_quantum"]
            assert quantum == pytest.approx(np.full(5, quantum[0]), rel=1e-12)
            assert cols[f"{flavor}_interplay"] == pytest.approx(
                cols[f"{flavor}_adiabatic"], rel=1e-12
            )

    def test_esd(self, tmp_path):
        out = tmp_path / "esd.csv"
        argv = ["esd", "--preset", "fig2", "--config", write_config(tmp_path, self.CFG),
                "--sweep", "r", "--from", "0.5", "--to", "0.99", "--points", "3",
                "--out", str(out)]
        assert main(argv) == 0
        _, rows = read_csv(out)
        for _, phi, psi, static, quantum_phi, quantum_psi in np.array(rows, dtype=float):
            assert psi == pytest.approx(phi, rel=ESD_RELATIVE_TOL)
            assert static == pytest.approx(phi, rel=ESD_RELATIVE_TOL)
            assert quantum_phi == quantum_psi == math.inf


def test_psd(tmp_path, capsys):
    out = tmp_path / "psd.csv"
    argv = ["psd", "--config", write_config(tmp_path, {"sim": {"fluctuators": 20}}),
            "--realizations", "100", "--t-max-s", "0.002", "--sample-hz", "1e5",
            "--out", str(out)]
    assert main(argv) == 0
    header, rows = read_csv(out)
    assert header == ["omega_rad_s", "s_estimated", "s_target"]
    assert len(rows) == 100  # 200 samples -> 100 positive frequencies
    assert_cells_round_trip(rows)
    assert capsys.readouterr().out.startswith("1/f fit: slope ")


@pytest.mark.filterwarnings("error::UserWarning")
def test_psd_does_not_warn_about_the_static_path(tmp_path):
    # sigma/omega = 0.5 degrades the static-path average, which the PSD does not use
    out = tmp_path / "psd.csv"
    argv = ["psd", "--config", write_config(tmp_path, {"qubit_a": {"sigma_rad_s": 5e10}}),
            "--realizations", "100", "--t-max-s", "0.002", "--sample-hz", "1e5",
            "--out", str(out)]
    assert main(argv) == 0
    assert len(read_csv(out)[1]) == 100


STRONG_NOISE = {"qubit_a": {"sigma_rad_s": 3e10}, "qubit_b": {"sigma_rad_s": 3e10}}


@pytest.mark.filterwarnings("error::UserWarning")
@pytest.mark.parametrize("argv", [
    ["figure", "fig4b", "--outdir", "{out}"],
    ["concurrence", "--channel", "montecarlo", "--out", "{out}/mc.csv"],
], ids=["fig4b", "montecarlo"])
def test_monte_carlo_does_not_warn_about_the_static_path(tmp_path, argv):
    # sigma/omega = 0.3 degrades the static-path average, which neither run computes
    cfg = write_config(tmp_path, {**STRONG_NOISE, **SMALL_MC})
    assert main([arg.format(out=tmp_path) for arg in argv] + ["--config", cfg]) == 0


def test_the_static_path_warns_about_strong_noise(tmp_path):
    cfg = write_config(tmp_path, {**STRONG_NOISE, "sim": {"samples": 5}})
    with pytest.warns(UserWarning, match="static-path treatment degrades"):
        assert main(["concurrence", "--channel", "adiabatic", "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == 0


def test_psd_without_low_frequency_noise(tmp_path, capsys):
    # a flat zero spectrum has no log-log slope: the fit is skipped, the run is not
    out = tmp_path / "psd.csv"
    argv = ["psd", "--config", write_config(tmp_path, {"qubit_a": {"sigma_rad_s": 0.0}}),
            "--realizations", "100", "--t-max-s", "1e-3", "--sample-hz", "1e5",
            "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == "1/f fit skipped: no power in the fit band\n"
    _, rows = read_csv(out)
    assert {cell for row in rows for cell in row[1:]} == {"0.0"}


# every option sets what no config field holds; scenario values come from the config
OPTIONS = {
    "esdlab": ["--version"],
    "concurrence": ["--preset", "--config", "--channel", "--out", "--gnuplot"],
    "esd": ["--preset", "--config", "--sweep", "--from", "--to", "--points", "--out"],
    "psd": ["--config", "--realizations", "--t-max-s", "--sample-hz", "--out"],
    "figure": ["--config", "--outdir"],
}


def test_options_are_not_config_fields():
    parser = build_parser()
    commands = {"esdlab": parser}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            commands.update(action.choices)
    options = {
        name: [opt for action in command._actions if not isinstance(action, argparse._HelpAction)
               for opt in action.option_strings]
        for name, command in commands.items()
    }
    assert options == OPTIONS
    assert sum(map(len, options.values())) == 20


@pytest.mark.parametrize("argv", [
    ["concurrence", "--r", "0.8"],
    ["esd", "--sweep", "r", "--from", "0.5", "--to", "0.9", "--seed", "1"],
    ["psd", "--preset", "fig2"],
    ["psd", "--fluctuators", "5"],
], ids=["concurrence-r", "esd-seed", "psd-preset", "psd-fluctuators"])
def test_removed_options_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["figure", "fig4a", "--config", "{cfg}", "--outdir", "{out}"],
    ["concurrence", "--channel", "montecarlo", "--config", "{cfg}", "--out", "{out}/c.csv"],
], ids=["fig4a", "montecarlo"])
def test_one_trajectory_is_refused(tmp_path, capsys, argv):
    # one trajectory leaves the standard error undefined: nan in every stderr cell
    cfg = write_config(tmp_path, {"sim": {"trajectories": 1, "samples": 5, "fluctuators": 5}})
    out = tmp_path / "out"
    assert main([arg.format(cfg=cfg, out=out) for arg in argv]) == 2
    assert "invalid config at sim/trajectories" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # 2^53 samples ask for 64 PiB, 2e15 PSD samples for 14 PiB: refused at once
    ["concurrence", "--channel", "adiabatic", "--config", "{big}", "--out", "{out}"],
    ["psd", "--t-max-s", "1e9", "--out", "{out}"],
], ids=["samples", "psd-segment"])
def test_out_of_memory_exits_3(tmp_path, capsys, argv):
    big = write_config(tmp_path, {"sim": {"samples": 2**53}})
    out = tmp_path / "out.csv"
    assert main([arg.format(big=big, out=out) for arg in argv]) == 3
    assert capsys.readouterr().err.startswith("esdlab: error: not enough memory: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # about 1e21 and 1e25 expected switches of the fastest fluctuator
    ["psd", "--realizations", "100", "--t-max-s", "1e15", "--sample-hz", "1e-12",
     "--out", "{out}"],
    ["concurrence", "--channel", "montecarlo", "--config", "{big}", "--out", "{out}"],
], ids=["psd", "montecarlo"])
def test_huge_horizon_exits_2(tmp_path, capsys, argv):
    big = write_config(tmp_path, {"sim": {"t_max_omega": 1e30, "trajectories": 2,
                                          "samples": 2, "fluctuators": 2}})
    out = tmp_path / "out.csv"
    assert main([arg.format(big=big, out=out) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("esdlab: config error: rate x t_max = ")
    assert "too many for any array" in err
    assert not out.exists()


def test_psd_segment_past_any_array_exits_2(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["psd", "--realizations", "100", "--t-max-s", "1e-3", "--sample-hz", "1e300",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "esdlab: config error: segment of 1e+297 samples is too long for an array\n"
    )
    assert not out.exists()


FLOAT64 = st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True)
EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.225073858507201e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(columns=st.integers(0, 12).flatmap(
           lambda n: st.lists(st.lists(FLOAT64, min_size=n, max_size=n), min_size=1, max_size=4)),
       block_rows=st.integers(1, 5))
@example(columns=[EDGE_FLOATS, EDGE_FLOATS[::-1]], block_rows=3)
def test_write_csv_round_trips_every_float(tmp_path_factory, columns, block_rows):
    # the cli docstring's promise: float(cell) reads back every value
    cols = {f"c{k}": np.array(col) for k, col in enumerate(columns)}
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    with patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):  # rows span several blocks
        cli.write_csv(path, cols)
    header, *lines = path.read_bytes().decode("utf-8").split("\n")
    assert header.split(",") == list(cols)
    assert lines.pop() == ""  # every line ends in LF
    back = np.array([[float(cell) for cell in line.split(",")] for line in lines])
    back = back.reshape(len(lines), len(cols))
    for got, col in zip(back.T, cols.values()):
        nan = np.isnan(col)
        assert np.array_equal(np.isnan(got), nan)
        # bit for bit, so -0.0 stays -0.0
        assert np.array_equal(got[~nan].view(np.uint64), col[~nan].view(np.uint64))


@pytest.mark.parametrize("columns", [
    {"a": np.zeros(2), "b": np.zeros(3)},
    {"a": np.zeros((2, 2))},
], ids=["ragged", "2-d"])
def test_write_csv_refuses_columns_that_are_not_a_table(tmp_path, columns):
    with pytest.raises(ValueError, match="not 1-d of one length"):
        cli.write_csv(tmp_path / "t.csv", columns)
    assert not (tmp_path / "t.csv").exists()


class TestFigure:
    @pytest.mark.parametrize(
        "name, cfg, header, n_rows",
        [
            ("fig1a", {"sim": {"samples": 5}}, ["a2", "omega_t", "concurrence"], 9 * 5),
            (
                "fig4a",
                SMALL_MC,
                ["omega_t", "mc_resonant", "stderr_resonant", "mc_detuned",
                 "stderr_detuned", "spa_resonant", "spa_detuned"],
                5,
            ),
            ("fig1b", {"sim": {"samples": 5}}, ["r", "omega_t", "concurrence"], 8 * 5),
            (
                "fig3",
                {"sim": {"samples": 5}},
                ["omega_t", "phi_adiabatic", "phi_quantum", "phi_interplay",
                 "psi_adiabatic", "psi_quantum", "psi_interplay"],
                5,
            ),
            (
                "fig4b",
                SMALL_MC,
                ["omega_t", "mc_coupled_detuned", "stderr_coupled_detuned",
                 "mc_uncoupled_detuned", "stderr_uncoupled_detuned",
                 "mc_uncoupled_resonant", "stderr_uncoupled_resonant"],
                5,
            ),
        ],
    )
    def test_csv_and_manifest(self, tmp_path, name, cfg, header, n_rows):
        outdir = tmp_path / "out"
        argv = ["figure", name, "--config", write_config(tmp_path, cfg),
                "--outdir", str(outdir)]
        assert main(argv) == 0
        got_header, rows = read_csv(outdir / f"{name}.csv")
        assert got_header == header
        assert len(rows) == n_rows
        assert_cells_round_trip(rows)
        manifest = json.loads((outdir / f"{name}_manifest.json").read_text(encoding="utf-8"))
        assert manifest["figure"] == name
        assert manifest["outputs"] == [f"{name}.csv"]
        assert manifest["parameters"]["sim"]["samples"] == 5
        if name.startswith("fig4"):
            assert manifest["monte_carlo"] == {
                "seed": manifest["parameters"]["sim"]["seed"],
                "stream_version": 2,
            }
        else:
            assert "monte_carlo" not in manifest

    def test_two_threads_write_the_same_bytes(self, tmp_path, monkeypatch):
        # ESDLAB_THREADS=2 is the only run that starts the process pool
        cfg = write_config(tmp_path, {"sim": {"trajectories": 8, "samples": 21,
                                              "fluctuators": 20}})
        monkeypatch.delenv("ESDLAB_THREADS", raising=False)
        assert main(["figure", "fig4b", "--config", cfg, "--outdir", str(tmp_path / "one")]) == 0
        monkeypatch.setenv("ESDLAB_THREADS", "2")
        assert main(["figure", "fig4b", "--config", cfg, "--outdir", str(tmp_path / "two")]) == 0
        for name in ("fig4b.csv", "fig4b_manifest.json"):
            assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


class TestConfigErrors:
    def run(self, tmp_path, config_path):
        return main(["concurrence", "--config", config_path, "--out", str(tmp_path / "c.csv")])

    def test_missing_file(self, tmp_path, capsys):
        assert self.run(tmp_path, str(tmp_path / "absent.json")) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert self.run(tmp_path, str(path)) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_schema_violation(self, tmp_path, capsys):
        assert self.run(tmp_path, write_config(tmp_path, {"sim": {"samples": 1}})) == 2
        assert "invalid config at sim/samples" in capsys.readouterr().err

    def test_removed_quantum_enabled_knob(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"quantum": {"enabled": False}, "sim": {"samples": 5}})
        argv = ["figure", "fig3", "--config", cfg, "--outdir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "invalid config at quantum" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, path",
        [
            ('{"qubit_a": {"sigma_rad_s": NaN}}', "qubit_a/sigma_rad_s"),
            ('{"sim": {"t_max_omega": Infinity}}', "sim/t_max_omega"),
            ('{"sim": {"t_max_omega": 1e999}}', "sim/t_max_omega"),  # json reads inf
        ],
    )
    def test_non_finite_config_value(self, tmp_path, capsys, text, path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        argv = ["concurrence", "--channel", "interplay", "--config", str(cfg),
                "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 2
        assert f"invalid config at {path}" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_flag(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["psd", "--t-max-s", value, "--out", str(tmp_path / "psd.csv")])
        assert exc.value.code == 2
        assert "is not a finite number" in capsys.readouterr().err

    def test_non_integer_threads(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ESDLAB_THREADS", "two")
        argv = ["concurrence", "--channel", "montecarlo", "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 2
        assert "ESDLAB_THREADS must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, tmp_path, monkeypatch, capsys, threads):
        monkeypatch.setenv("ESDLAB_THREADS", threads)
        argv = ["concurrence", "--channel", "montecarlo", "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 2
        assert "ESDLAB_THREADS must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize(
        "cfg, path",
        [
            ({"sim": {"samples": 5.0}}, "sim/samples"),  # integral floats are no integers
            ({"sim": {"trajectories": 32.0}}, "sim/trajectories"),
            ({"sim": {"seed": True}}, "sim/seed"),
            ({"qubit_a": {"gamma_min_hz": "1"}}, "qubit_a/gamma_min_hz"),
            ({"sim": {"seed": -1}}, "sim/seed"),
            ({"sim": 5}, "sim"),
            ({"noise": {}}, "<root>"),
            ({"qubit_b": {"theta_rad": 7.0}}, "qubit_b/theta_rad"),
            ({"qubit_a": {"theta_rad": -0.1}}, "qubit_a/theta_rad"),
            ({"qubit_b": {"gamma_min_hz": 10.0, "gamma_max_hz": 5.0}}, "qubit_b"),
            ({"qubit_a": {"gamma_min_hz": 5.0, "gamma_max_hz": 5.0}}, "qubit_a"),
        ],
    )
    def test_invalid_field(self, tmp_path, capsys, cfg, path):
        argv = ["concurrence", "--channel", "montecarlo", "--config",
                write_config(tmp_path, cfg), "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 2
        assert f"invalid config at {path}:" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("sweep, lo, hi, path, value", [
        ("a2", "-0.5", "0.5", "state/a2", "-0.5"),
        ("r", "0.5", "1.5", "state/r", "1.5"),
    ], ids=["a2", "r"])
    def test_swept_value_out_of_range(self, tmp_path, capsys, sweep, lo, hi, path, value):
        # a swept value replaces a state field and is checked as one
        out = tmp_path / "esd.csv"
        argv = ["esd", "--sweep", sweep, "--from", lo, "--to", hi, "--points", "3",
                "--out", str(out)]
        assert main(argv) == 2
        assert f"invalid config at {path}: {value} is not in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("qubit_b, path", [
        ({"theta_rad": 7.0}, "qubit_b/theta_rad"),
        ({"gamma_min_hz": 10.0, "gamma_max_hz": 5.0}, "qubit_b"),
    ], ids=["theta", "gamma-band"])
    def test_psd_checks_the_qubit_it_does_not_read(self, tmp_path, capsys, qubit_b, path):
        # psd builds only qubit A, but the config contract is the same for every command
        argv = ["psd", "--realizations", "2", "--t-max-s", "1e-3", "--config",
                write_config(tmp_path, {"qubit_b": qubit_b}), "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 2
        assert f"invalid config at {path}:" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["concurrence", "--preset", "fig4b", "--channel", "interplay", "--out"],
        ["concurrence", "--preset", "fig4b", "--channel", "adiabatic", "--out"],
        ["esd", "--preset", "fig4b", "--sweep", "r", "--from", "0.5", "--to", "0.9", "--out"],
        ["figure", "fig3", "--config", "coupled", "--outdir"],
    ], ids=["interplay", "adiabatic", "esd", "fig3"])
    def test_closed_forms_refuse_a_coupling(self, tmp_path, capsys, argv):
        # they describe uncoupled qubits and would drop the coupling unread
        coupled = write_config(tmp_path, {"coupling": {"g_rad_s": 1.0e9}})
        argv = [coupled if arg == "coupled" else arg for arg in argv]
        assert main([*argv, str(tmp_path / "out")]) == 2
        assert "coupling/g_rad_s must be 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, cfg, path", [
        ("fig4a", {"coupling": {"g_rad_s": 1.0e9}}, "coupling/g_rad_s"),
        ("fig4b", {"coupling": {"g_rad_s": 0.0}}, "coupling/g_rad_s"),
        *((name, {"quantum": {"s_white_per_s": 5.0e6}}, "quantum/s_white_per_s")
          for name in ("fig1a", "fig1b", "fig4a", "fig4b")),
    ], ids=["fig4a-coupling", "fig4b-no-coupling", "fig1a-quantum", "fig1b-quantum",
            "fig4a-quantum", "fig4b-quantum"])
    def test_monte_carlo_figures_refuse_unread_config(self, tmp_path, monkeypatch, capsys,
                                                      name, cfg, path):
        # fig4 couples only its coupled curves, and at g = 0 fig4b's coupled
        # curve would be its uncoupled one; fig1 and fig4 have static noise only
        def no_trajectories(*args, **kwargs):
            raise AssertionError("a trajectory ran")

        monkeypatch.setattr("esdlab.cli.monte_carlo_concurrence", no_trajectories)
        cfg = write_config(tmp_path, {**cfg, "sim": {"trajectories": 8, "samples": 11,
                                                     "fluctuators": 10}})
        assert main(["figure", name, "--config", cfg, "--outdir", str(tmp_path / "out")]) == 2
        assert f"{path} must" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_qubit_b_moves_only_the_detuned_curves(self, tmp_path):
        # fig4's resonant curves take qubit A twice; the detuned ones read qubit_b
        sim = {"sim": {"trajectories": 4, "samples": 11, "fluctuators": 10}}
        override = {**sim, "qubit_b": {"sigma_rad_s": 3e9}}
        columns = {}
        for label, cfg in (("preset", sim), ("override", override)):
            outdir = tmp_path / label
            argv = ["figure", "fig4b", "--config", write_config(tmp_path, cfg, f"{label}.json"),
                    "--outdir", str(outdir)]
            assert main(argv) == 0
            header, rows = read_csv(outdir / "fig4b.csv")
            columns[label] = dict(zip(header, zip(*rows)))
        moved = {name for name, col in columns["preset"].items()
                 if col != columns["override"][name]}
        assert moved == {f"{kind}_{curve}_detuned" for kind in ("mc", "stderr")
                         for curve in ("coupled", "uncoupled")}

    @pytest.mark.parametrize("text", ["[]", "5", "null"])
    def test_top_level_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="utf-8")
        assert self.run(tmp_path, str(path)) == 2
        assert "invalid config at <root>:" in capsys.readouterr().err

    def test_number_field_takes_an_integer(self, tmp_path):
        cfg = {"qubit_a": {"gamma_min_hz": 1}, "sim": {"samples": 5}}
        assert self.run(tmp_path, write_config(tmp_path, cfg)) == 0


def test_bounds_name_config_fields():
    fields = {(section, key) for section, keys in DEFAULT_CONFIG.items() for key in keys}
    assert set(_BOUNDS) <= {key for _, key in fields}
    # an int default makes an integer field, so 1 written for 1.0 would narrow a field
    integer = {f"{section}/{key}" for section, key in fields
               if isinstance(DEFAULT_CONFIG[section][key], int)}
    assert integer == {"sim/trajectories", "sim/samples", "sim/seed", "sim/fluctuators"}


# ---------------------------------------------------------------------------
# config contract: any override config exits 0 with clean cells, or exits 2


def _leaf(key, default):
    if isinstance(default, str):
        return st.sampled_from(["phi", "psi"])
    if isinstance(default, int):
        # integral floats too: JSON's 5.0 is no integer
        return st.one_of(st.integers(), st.integers(-2**53, 2**53).map(float))
    low, _, high = _BOUNDS.get(key, (-math.inf, False, math.inf))
    bounds = [b for b in (low, high) if math.isfinite(b)]
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, *bounds]
    return st.one_of(st.sampled_from(specials), st.floats())


OVERRIDE_CONFIGS = st.fixed_dictionaries({}, optional={
    section: st.fixed_dictionaries(
        {}, optional={key: _leaf(key, default) for key, default in fields.items()}
    )
    for section, fields in DEFAULT_CONFIG.items()
})


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cfg=OVERRIDE_CONFIGS, channel=st.sampled_from(["adiabatic", "interplay"]))
# finite values whose arithmetic overflows: exit 1 and nan cells before
@example(cfg={"qubit_a": {"omega_rad_s": 1.3407807929942597e154}}, channel="interplay")
@example(cfg={"qubit_a": {"omega_rad_s": 5.649018429865733e-226}}, channel="adiabatic")
@example(cfg={"sim": {"t_max_omega": 4.877273908913626e262}}, channel="adiabatic")
# omega^2 underflows to 0 and the interplay channel divides by it
@example(cfg={"qubit_a": {"omega_rad_s": 1.1069474536591207e-178}}, channel="interplay")
# a warning is a defect the run let through, so it fails the example
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_config_contract(cfg, channel):
    # three samples keep each run small; a drawn config may ask for 2^53
    cfg = {**cfg, "sim": {**cfg.get("sim", {}), "samples": 3}}
    _assert_contract(["concurrence", "--channel", channel], cfg, 3)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(cfg=OVERRIDE_CONFIGS)
# no static noise on either qubit: both closed forms take sigma = 0
@example(cfg={"qubit_a": {"sigma_rad_s": 0.0}, "qubit_b": {"sigma_rad_s": 0.0}})
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_esd_config_contract(cfg):
    # an ESD cell is nan where no zero was found; the swept value never is
    _assert_contract(["esd", "--sweep", "r", "--from", "0.3", "--to", "0.99",
                      "--points", "2"], cfg, 2, clean_columns=1)


def _assert_contract(argv, cfg, n_rows, clean_columns=None):
    """Exit 0 with ``n_rows`` round-tripping rows, none nan in the first
    ``clean_columns`` columns (all by default), or exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "c.csv"
        code = main([*argv, "--config", write_config(Path(tmp), cfg), "--out", str(out)])
        assert code in (0, 2)
        if code == 0:
            _, rows = read_csv(out)
            assert len(rows) == n_rows
            assert_cells_round_trip(rows)
            assert not any(math.isnan(float(cell)) for row in rows for cell in row[:clean_columns])
