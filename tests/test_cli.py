"""Round trips through the command-line front end, run in-process at tiny sizes."""

import csv
import json

import numpy as np
import pytest

from esdlab.cli import main

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
        argv = ["concurrence", "--channel", channel, "--samples", "7",
                "--t-max-omega", "2e4", "--out", str(out)]
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
        script = (tmp_path / "mc.gp").read_text(encoding="utf-8")
        assert "'mc.csv' using 1:2 with lines, 'mc.csv' using 1:3 with lines" in script


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
            "omega_t_esd_quantum",
        ]
        assert len(rows) == 3
        assert [float(row[0]) for row in rows] == np.linspace(float(lo), float(hi), 3).tolist()
        assert_cells_round_trip(rows)
        assert any(cell != "inf" for row in rows for cell in row[1:])


def test_psd(tmp_path, capsys):
    out = tmp_path / "psd.csv"
    argv = ["psd", "--realizations", "100", "--t-max-s", "0.002",
            "--sample-hz", "1e5", "--fluctuators", "20", "--out", str(out)]
    assert main(argv) == 0
    header, rows = read_csv(out)
    assert header == ["omega_rad_s", "s_estimated", "s_target"]
    assert len(rows) == 100  # 200 samples -> 100 positive frequencies
    assert_cells_round_trip(rows)
    assert capsys.readouterr().out.startswith("1/f fit: slope ")


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

    def test_non_integer_threads(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ESDLAB_THREADS", "two")
        argv = ["concurrence", "--channel", "montecarlo", "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 2
        assert "ESDLAB_THREADS must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()
