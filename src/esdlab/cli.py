"""Command-line front end: scenario configs, figure presets, CSV output.

All externally visible times are dimensionless (omega_t = splitting of
qubit A times seconds); seconds appear only inside the library. CSV files
are RFC-4180, LF, UTF-8, with shortest-round-trip floats, so re-parsing
reproduces the exact values written.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .adiabatic import AdiabaticParams, adiabatic_concurrence
from .analysis import sweep
from .errors import EsdlabError, ParameterError
from .markov import QuantumNoiseParams, interplay_concurrence
from .states import EWLParams, ewl_state
from .stochastic import (
    STREAM_VERSION,
    SimConfig,
    fit_one_over_f,
    monte_carlo_concurrence,
    psd_estimate,
    sample_ensemble,
)

_QUBIT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "omega_rad_s": {"type": "number", "exclusiveMinimum": 0},
        "theta_rad": {"type": "number"},
        "sigma_rad_s": {"type": "number", "minimum": 0},
        "gamma_min_hz": {"type": "number", "exclusiveMinimum": 0},
        "gamma_max_hz": {"type": "number", "exclusiveMinimum": 0},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "state": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "flavor": {"enum": ["phi", "psi"]},
                "r": {"type": "number", "minimum": 0, "maximum": 1},
                "a2": {"type": "number", "minimum": 0, "maximum": 1},
                "phase": {"type": "number"},
            },
        },
        "qubit_a": _QUBIT_SCHEMA,
        "qubit_b": _QUBIT_SCHEMA,
        "quantum": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "s_white_per_s": {"type": "number", "minimum": 0},
                "temperature_k": {"type": "number", "exclusiveMinimum": 0},
                "enabled": {"type": "boolean"},
            },
        },
        "coupling": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"g_rad_s": {"type": "number"}},
        },
        "sim": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trajectories": {"type": "integer", "minimum": 1},
                "t_max_omega": {"type": "number", "exclusiveMinimum": 0},
                "samples": {"type": "integer", "minimum": 2},
                "seed": {"type": "integer"},
                "fluctuators": {"type": "integer", "minimum": 1},
            },
        },
    },
}

_OMEGA = 1.0e11
DEFAULT_CONFIG = {
    "state": {"flavor": "phi", "r": 0.91, "a2": 0.5, "phase": 0.0},
    "qubit_a": {
        "omega_rad_s": _OMEGA,
        "theta_rad": math.pi / 2,
        "sigma_rad_s": 0.02 * _OMEGA,
        "gamma_min_hz": 1.0,
        "gamma_max_hz": 1.0e6,
    },
    "qubit_b": {
        "omega_rad_s": _OMEGA,
        "theta_rad": math.pi / 2,
        "sigma_rad_s": 0.02 * _OMEGA,
        "gamma_min_hz": 1.0,
        "gamma_max_hz": 1.0e6,
    },
    "quantum": {"s_white_per_s": 2.0e6, "temperature_k": 0.04, "enabled": True},
    "coupling": {"g_rad_s": 0.0},
    "sim": {
        "trajectories": 2000,
        "t_max_omega": 5.0e3,
        "samples": 201,
        "seed": 20110,
        "fluctuators": 250,
    },
}

PRESETS: dict[str, dict] = {
    "fig1a": {
        "state": {"r": 0.9},
        "quantum": {"enabled": False},
        "sim": {"t_max_omega": 6.0e4, "samples": 601},
    },
    "fig1b": {
        "state": {"a2": 0.5},
        "quantum": {"enabled": False},
        "sim": {"t_max_omega": 1.0e5, "samples": 601},
    },
    "fig2": {
        "state": {"a2": 0.5},
        "sim": {"t_max_omega": 2.0e7},
    },
    "fig3": {
        "state": {"r": 0.95},
        "sim": {"t_max_omega": 2.5e4, "samples": 501},
    },
    "fig4a": {
        "state": {"flavor": "psi", "r": 1.0},
        "quantum": {"enabled": False},
        "sim": {"t_max_omega": 5.0e3, "samples": 201},
    },
    "fig4b": {
        "state": {"flavor": "psi", "r": 1.0},
        "quantum": {"enabled": False},
        "coupling": {"g_rad_s": 1.0e9},
        "sim": {"t_max_omega": 5.0e3, "samples": 201},
    },
}

# Caption geometry for the detuned panels: qubit B 20% above qubit A with
# the same relative noise amplitude.
_DETUNE_FACTOR = 1.2


class ConfigError(Exception):
    pass


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(preset: str | None, config_path: str | None, overrides: dict) -> dict:
    """defaults < preset < --config file < flags; validated against the schema."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
            )
        cfg = _deep_merge(cfg, PRESETS[preset])
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        cfg = _deep_merge(cfg, user)
    cfg = _deep_merge(cfg, overrides)
    import jsonschema

    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"invalid config at {path}: {exc.message}") from exc
    return cfg


def _state_from(cfg: dict, flavor: str | None = None) -> EWLParams:
    st = cfg["state"]
    return EWLParams(
        r=st["r"],
        a=math.sqrt(st["a2"]),
        flavor=flavor or st["flavor"],
        b_phase=st["phase"],
    )


def _qubit_from(cfg: dict, which: str) -> AdiabaticParams:
    q = cfg[f"qubit_{which}"]
    return AdiabaticParams(
        omega=q["omega_rad_s"],
        theta=q["theta_rad"],
        sigma=q["sigma_rad_s"],
        gamma_min=q["gamma_min_hz"],
        gamma_max=q["gamma_max_hz"],
    )


def _quantum_from(cfg: dict) -> QuantumNoiseParams | None:
    q = cfg["quantum"]
    if not q["enabled"]:
        return None
    return QuantumNoiseParams(s_white=q["s_white_per_s"], temperature=q["temperature_k"])


def _sim_from(cfg: dict) -> SimConfig:
    sim = cfg["sim"]
    omega_a = cfg["qubit_a"]["omega_rad_s"]
    return SimConfig(
        qubit_a=_qubit_from(cfg, "a"),
        qubit_b=_qubit_from(cfg, "b"),
        n_trajectories=sim["trajectories"],
        t_max=sim["t_max_omega"] / omega_a,
        n_samples=sim["samples"],
        seed=sim["seed"],
        coupling_g=cfg["coupling"]["g_rad_s"],
        n_fluctuators=sim["fluctuators"],
    )


def _n_workers() -> int:
    env = os.environ.get("ESDLAB_THREADS", "")
    try:
        cap = int(env) if env else 1
    except ValueError:
        raise ConfigError(f"ESDLAB_THREADS must be an integer, got {env!r}")
    return max(1, cap)


def write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(value) -> str:
    if isinstance(value, float):
        # float() keeps numpy's type name out; repr is the shortest round trip
        return repr(float(value))
    return str(value)


def _esd_value(result) -> float:
    if result.is_infinite:
        return math.inf
    return result.time


def _write_gnuplot(out: Path, columns: list[str]) -> Path:
    script = out.with_suffix(".gp")
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'omega_t'",
        "set ylabel 'concurrence'",
        "plot "
        + ", ".join(
            f"'{out.name}' using 1:{i + 2} with lines" for i in range(len(columns) - 1)
        ),
    ]
    script.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return script


# ---------------------------------------------------------------------------
# subcommands


def cmd_concurrence(args) -> int:
    overrides: dict = {"state": {}, "sim": {}}
    if args.flavor:
        overrides["state"]["flavor"] = args.flavor
    if args.r is not None:
        overrides["state"]["r"] = args.r
    if args.a2 is not None:
        overrides["state"]["a2"] = args.a2
    if args.t_max_omega is not None:
        overrides["sim"]["t_max_omega"] = args.t_max_omega
    if args.samples is not None:
        overrides["sim"]["samples"] = args.samples
    if args.seed is not None:
        overrides["sim"]["seed"] = args.seed
    cfg = load_config(args.preset, args.config, overrides)

    state = _state_from(cfg)
    ad_a, ad_b = _qubit_from(cfg, "a"), _qubit_from(cfg, "b")
    omega = ad_a.omega
    omega_t = np.linspace(0.0, cfg["sim"]["t_max_omega"], cfg["sim"]["samples"])
    times = omega_t / omega

    if args.channel == "adiabatic":
        values = adiabatic_concurrence(times, ad_a, ad_b, state)
        header = ["omega_t", "concurrence"]
        rows = zip(omega_t.tolist(), np.atleast_1d(values).tolist())
    elif args.channel == "interplay":
        qn = _quantum_from(cfg)
        if qn is None:
            raise ConfigError("interplay channel requires quantum.enabled = true")
        values = interplay_concurrence(times, state, ad_a, ad_b, qn)
        header = ["omega_t", "concurrence"]
        rows = zip(omega_t.tolist(), np.atleast_1d(values).tolist())
    else:  # montecarlo
        sim = _sim_from(cfg)
        mc = monte_carlo_concurrence(ewl_state(state), sim, n_workers=_n_workers())
        header = ["omega_t", "concurrence", "stderr"]
        rows = zip(
            (mc.times * omega).tolist(),
            mc.concurrence.tolist(),
            mc.stderr.tolist(),
        )

    out = Path(args.out)
    write_csv(out, header, rows)
    if args.gnuplot:
        _write_gnuplot(out, header)
    return 0


def cmd_esd(args) -> int:
    overrides: dict = {"sim": {}}
    if args.seed is not None:
        overrides["sim"]["seed"] = args.seed
    cfg = load_config(args.preset, args.config, overrides)
    if args.points < 1:
        raise ConfigError("--points must be at least 1")
    grid = np.linspace(args.sweep_from, args.sweep_to, args.points).tolist()

    state = _state_from(cfg)
    ad_a, ad_b = _qubit_from(cfg, "a"), _qubit_from(cfg, "b")
    qn = _quantum_from(cfg)
    if qn is None:
        raise ConfigError("the esd table needs quantum.enabled = true")
    omega = ad_a.omega
    t_max = cfg["sim"]["t_max_omega"] / omega
    combined = sweep(args.sweep, grid, state, ad_a, ad_b, qn, "interplay", t_max)
    adiabatic_rows = sweep(args.sweep, grid, state, ad_a, ad_b, None, "adiabatic", t_max)
    # quantum-only: same channel with the low-frequency noise switched off;
    # flavor psi is the one relaxation drives
    quantum_rows = sweep(
        args.sweep, grid, state, replace(ad_a, sigma=0.0), replace(ad_b, sigma=0.0),
        qn, "interplay", t_max,
    )

    header = [
        "sweep_value",
        "omega_t_esd_phi",
        "omega_t_esd_psi",
        "omega_t_esd_adiabatic",
        "omega_t_esd_quantum",
    ]
    rows = []
    for comb, adia, quant in zip(combined, adiabatic_rows, quantum_rows):
        rows.append(
            [
                comb.value,
                _esd_value(comb.esd_phi) * omega,
                _esd_value(comb.esd_psi) * omega,
                _esd_value(adia.esd_phi) * omega,
                _esd_value(quant.esd_psi) * omega,
            ]
        )
    write_csv(Path(args.out), header, rows)
    return 0


def cmd_psd(args) -> int:
    overrides: dict = {"sim": {}}
    if args.seed is not None:
        overrides["sim"]["seed"] = args.seed
    if args.fluctuators is not None:
        overrides["sim"]["fluctuators"] = args.fluctuators
    cfg = load_config(args.preset, args.config, overrides)
    qa = _qubit_from(cfg, "a")
    ens = sample_ensemble(
        cfg["sim"]["fluctuators"],
        qa.gamma_min,
        qa.gamma_max,
        qa.sigma,
        cfg["sim"]["seed"],
    )
    est = psd_estimate(
        ens,
        t_max=args.t_max_s,
        n_realizations=args.realizations,
        rng_seed=cfg["sim"]["seed"],
        sample_hz=args.sample_hz,
    )
    write_csv(
        Path(args.out),
        ["omega_rad_s", "s_estimated", "s_target"],
        zip(est.omega.tolist(), est.s_estimated.tolist(), est.s_target.tolist()),
    )
    try:
        fit = fit_one_over_f(est)
        print(
            f"1/f fit: slope {fit.slope:.4f}, amplitude ratio "
            f"{fit.amplitude_ratio:.4f} over omega in "
            f"[{fit.band_omega[0]:.4g}, {fit.band_omega[1]:.4g}] rad/s"
        )
    except ParameterError as exc:
        print(f"1/f fit skipped: {exc}", file=sys.stderr)
    return 0


def cmd_figure(args) -> int:
    name = args.name
    cfg = load_config(name, args.config, {})
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ad_a, ad_b = _qubit_from(cfg, "a"), _qubit_from(cfg, "b")
    omega = ad_a.omega
    omega_t = np.linspace(0.0, cfg["sim"]["t_max_omega"], cfg["sim"]["samples"])
    times = omega_t / omega
    outputs: list[str] = []
    manifest = {
        "figure": name,
        "version": f"esdlab {__version__}",
        "parameters": cfg,
        "outputs": outputs,
    }

    def emit(fname: str, header, rows):
        write_csv(outdir / fname, header, rows)
        outputs.append(fname)

    if name == "fig1a":
        a2_grid = [round(0.1 * k, 1) for k in range(1, 10)]
        rows = []
        for a2 in a2_grid:
            st = EWLParams(r=cfg["state"]["r"], a=math.sqrt(a2))
            c = adiabatic_concurrence(times, ad_a, ad_b, st)
            rows.extend([a2, wt, cv] for wt, cv in zip(omega_t.tolist(), c.tolist()))
        emit("fig1a.csv", ["a2", "omega_t", "concurrence"], rows)
    elif name == "fig1b":
        r_grid = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0]
        rows = []
        for r in r_grid:
            st = EWLParams(r=r, a=math.sqrt(cfg["state"]["a2"]))
            c = adiabatic_concurrence(times, ad_a, ad_b, st)
            rows.extend([r, wt, cv] for wt, cv in zip(omega_t.tolist(), c.tolist()))
        emit("fig1b.csv", ["r", "omega_t", "concurrence"], rows)
    elif name == "fig2":
        qn = _quantum_from(cfg)
        t_max = cfg["sim"]["t_max_omega"] / omega
        grid = np.linspace(0.4, 0.99, 60).tolist()
        st = _state_from(cfg)
        quiet_a, quiet_b = replace(ad_a, sigma=0.0), replace(ad_b, sigma=0.0)
        combined = sweep("r", grid, st, ad_a, ad_b, qn, "interplay", t_max)
        adia = sweep("r", grid, st, ad_a, ad_b, None, "adiabatic", t_max)
        quant = sweep("r", grid, st, quiet_a, quiet_b, qn, "interplay", t_max)
        rows = [
            [
                c.value,
                _esd_value(c.esd_phi) * omega,
                _esd_value(c.esd_psi) * omega,
                _esd_value(a.esd_phi) * omega,
                _esd_value(q.esd_phi) * omega,
                _esd_value(q.esd_psi) * omega,
            ]
            for c, a, q in zip(combined, adia, quant)
        ]
        emit(
            "fig2.csv",
            [
                "r",
                "omega_t_esd_phi",
                "omega_t_esd_psi",
                "omega_t_esd_adiabatic",
                "omega_t_esd_quantum_phi",
                "omega_t_esd_quantum_psi",
            ],
            rows,
        )
    elif name == "fig3":
        qn = _quantum_from(cfg)
        quiet_a, quiet_b = replace(ad_a, sigma=0.0), replace(ad_b, sigma=0.0)
        cols = {"omega_t": omega_t.tolist()}
        for flavor in ("phi", "psi"):
            st = _state_from(cfg, flavor)
            cols[f"{flavor}_adiabatic"] = np.atleast_1d(
                adiabatic_concurrence(times, ad_a, ad_b, st)
            ).tolist()
            cols[f"{flavor}_quantum"] = np.atleast_1d(
                interplay_concurrence(times, st, quiet_a, quiet_b, qn)
            ).tolist()
            cols[f"{flavor}_interplay"] = np.atleast_1d(
                interplay_concurrence(times, st, ad_a, ad_b, qn)
            ).tolist()
        emit("fig3.csv", list(cols), zip(*cols.values()))
    else:  # fig4a, fig4b
        st = _state_from(cfg)
        rho0 = ewl_state(st)
        detuned_b = replace(
            ad_a, omega=_DETUNE_FACTOR * ad_a.omega, sigma=_DETUNE_FACTOR * ad_a.sigma
        )
        workers = _n_workers()
        sim = _sim_from(cfg)
        # what it takes to regenerate the curves bit for bit
        manifest["monte_carlo"] = {"seed": sim.seed, "stream_version": STREAM_VERSION}

        def run(qubit_b, g):
            return monte_carlo_concurrence(
                rho0, replace(sim, qubit_b=qubit_b, coupling_g=g), n_workers=workers
            )

        if name == "fig4a":
            res = run(ad_a, 0.0)
            det = run(detuned_b, 0.0)
            spa_res = adiabatic_concurrence(times, ad_a, ad_a, st)
            spa_det = adiabatic_concurrence(times, ad_a, detuned_b, st)
            emit(
                "fig4a.csv",
                [
                    "omega_t",
                    "mc_resonant",
                    "stderr_resonant",
                    "mc_detuned",
                    "stderr_detuned",
                    "spa_resonant",
                    "spa_detuned",
                ],
                zip(
                    omega_t.tolist(),
                    res.concurrence.tolist(),
                    res.stderr.tolist(),
                    det.concurrence.tolist(),
                    det.stderr.tolist(),
                    np.atleast_1d(spa_res).tolist(),
                    np.atleast_1d(spa_det).tolist(),
                ),
            )
        else:
            g = cfg["coupling"]["g_rad_s"]
            coupled = run(detuned_b, g)
            uncoupled = run(detuned_b, 0.0)
            resonant = run(ad_a, 0.0)
            emit(
                "fig4b.csv",
                [
                    "omega_t",
                    "mc_coupled_detuned",
                    "stderr_coupled_detuned",
                    "mc_uncoupled_detuned",
                    "stderr_uncoupled_detuned",
                    "mc_uncoupled_resonant",
                    "stderr_uncoupled_resonant",
                ],
                zip(
                    omega_t.tolist(),
                    coupled.concurrence.tolist(),
                    coupled.stderr.tolist(),
                    uncoupled.concurrence.tolist(),
                    uncoupled.stderr.tolist(),
                    resonant.concurrence.tolist(),
                    resonant.stderr.tolist(),
                ),
            )

    with open(outdir / f"{name}_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esdlab",
        description="Two-qubit entanglement degradation under broadband noise",
    )
    parser.add_argument("--version", action="version", version=f"esdlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--preset", choices=sorted(PRESETS), help="figure preset")
        p.add_argument("--config", help="JSON scenario file (flags win)")
        p.add_argument("--seed", type=int, help="override sim.seed")

    p = sub.add_parser("concurrence", help="concurrence curve as CSV")
    common(p)
    p.add_argument(
        "--channel",
        choices=["adiabatic", "interplay", "montecarlo"],
        default="interplay",
    )
    p.add_argument("--flavor", choices=["phi", "psi"])
    p.add_argument("--r", type=float, help="purity override")
    p.add_argument("--a2", type=float, help="|a|^2 override")
    p.add_argument("--t-max-omega", type=float, dest="t_max_omega")
    p.add_argument("--samples", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--gnuplot", action="store_true", help="emit a gnuplot sidecar")
    p.set_defaults(func=cmd_concurrence)

    p = sub.add_parser("esd", help="disentanglement-time table as CSV")
    common(p)
    p.add_argument("--sweep", choices=["r", "a2"], required=True)
    p.add_argument("--from", type=float, dest="sweep_from", required=True)
    p.add_argument("--to", type=float, dest="sweep_to", required=True)
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_esd)

    p = sub.add_parser("psd", help="ensemble spectrum vs the 1/f law as CSV")
    common(p)
    p.add_argument("--realizations", type=int, default=200)
    p.add_argument("--t-max-s", type=float, default=0.2, dest="t_max_s")
    p.add_argument("--sample-hz", type=float, default=2.0e6, dest="sample_hz")
    p.add_argument("--fluctuators", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("figure", help="reproduce a preset figure as CSV + manifest")
    p.add_argument("name", choices=sorted(PRESETS))
    p.add_argument("--config", help="JSON scenario file overriding the preset")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"esdlab: config error: {exc}", file=sys.stderr)
        return 2
    except EsdlabError as exc:
        print(f"esdlab: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"esdlab: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
