"""Command-line front end: scenario configs, figure presets, CSV output.

All externally visible times are dimensionless (omega_t = splitting of
qubit A times seconds); seconds appear only inside the library. Builders
return named columns, and ``write_csv`` alone formats them: LF, UTF-8, and
each cell the ``repr`` of a Python float, which reads back bit for bit.

The presets are the ``FIGURES`` table: each paper figure is a set of config
overrides plus the builder of its CSV table; ``figure NAME`` applies them,
and so does ``--preset NAME`` on ``concurrence`` and ``esd``. Every scenario
value comes from the config, merged as defaults < preset < ``--config``
file; the options set only what no config field holds (channel, sweep, PSD
segment, output). ``quantum.s_white_per_s: 0`` switches the quantum noise
off (infinite T1); the static-noise figures (fig1, fig4) set it so and
refuse any other value. An ESD cell (``esd``, fig2), in any column, is
``inf`` for a proven never (``esdlab.markov.proven_esd_time``) and ``nan``
where its curve is still positive at the largest omega_t in float range; each
curve sets its own search horizon, so ``esd`` and fig2 read no t_max_omega.

Config contract: a scenario has exactly the sections and fields of
``DEFAULT_CONFIG``. Each field takes its default's type (an ``int`` default
makes an integer field; ``state.flavor`` is "phi" or "psi"), a finite value
and the range ``_BOUNDS`` gives it, and each qubit's gamma_min_hz lies below
its gamma_max_hz; every command checks both qubits. Any violation in the
config file exits 2 with ``invalid config at <path>: ...``, and so does a
swept value (``esd --from``/``--to``), checked as the state field it
replaces. The closed-form channels (all but ``--channel montecarlo`` and
fig4) also exit 2 unless g_rad_s is 0. Fig. 4's resonant curves take qubit
A twice and its detuned ones read qubit_b, which its presets set 20% above
qubit A; it exits 2 unless g_rad_s is nonzero exactly when one of its
curves is coupled.

Exit codes: 0 success, 2 configuration error, 3 runtime error (running out
of memory included).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

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

_OMEGA = 1.0e11
_QUBIT = {  # both qubits default to the same one
    "omega_rad_s": _OMEGA,
    "theta_rad": math.pi / 2,
    "sigma_rad_s": 0.02 * _OMEGA,
    "gamma_min_hz": 1.0,
    "gamma_max_hz": 1.0e6,
}
DEFAULT_CONFIG = {
    "state": {"flavor": "phi", "r": 0.91, "a2": 0.5, "phase": 0.0},
    "qubit_a": _QUBIT,
    "qubit_b": dict(_QUBIT),
    "quantum": {"s_white_per_s": 2.0e6, "temperature_k": 0.04},
    "coupling": {"g_rad_s": 0.0},
    "sim": {
        "trajectories": 2000,
        "t_max_omega": 5.0e3,
        "samples": 201,
        "seed": 20110,
        "fluctuators": 250,
    },
}

# (lower bound, lower bound excluded?, upper bound) of each bounded field
_BOUNDS = {
    "r": (0, False, 1),
    "a2": (0, False, 1),
    "omega_rad_s": (0, True, math.inf),
    "theta_rad": (0, False, math.pi),
    "sigma_rad_s": (0, False, math.inf),
    "gamma_min_hz": (0, True, math.inf),
    "gamma_max_hz": (0, True, math.inf),
    "s_white_per_s": (0, False, math.inf),
    "temperature_k": (0, True, math.inf),
    "trajectories": (2, False, math.inf),  # one trajectory has no stderr
    "t_max_omega": (0, True, math.inf),
    "samples": (2, False, math.inf),
    "seed": (0, False, math.inf),  # numpy's SeedSequence takes no negative seed
    "fluctuators": (1, False, math.inf),
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _check_field(path: str, value, default) -> None:
    """Raise ParameterError unless ``value`` can stand where DEFAULT_CONFIG holds
    ``default``: structure, then type, finiteness and the field's _BOUNDS."""
    where = f"invalid config at {path or '<root>'}"
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ParameterError(f"{where}: {value!r} is not an object")
        unknown = [key for key in value if key not in default]
        if unknown:
            raise ParameterError(f"{where}: unknown field {unknown[0]!r}")
        for key, item in value.items():
            _check_field(f"{path}/{key}" if path else key, item, default[key])
        return
    if isinstance(default, str):  # state/flavor, the one text field
        if value not in ("phi", "psi"):
            raise ParameterError(f"{where}: {value!r} is not 'phi' or 'psi'")
        return
    # an int default makes an integer field; JSON's true/false and 5.0 are not integers
    integer = isinstance(default, int)
    if type(value) not in ((int,) if integer else (int, float)):
        raise ParameterError(f"{where}: {value!r} is not {'an integer' if integer else 'a number'}")
    # JSON admits NaN and Infinity (and reads 1e999 as inf); no field means them
    if isinstance(value, float) and not math.isfinite(value):
        raise ParameterError(f"{where}: {value!r} is not a finite number")
    low, low_excluded, high = _BOUNDS.get(path.rsplit("/", 1)[-1], (-math.inf, False, math.inf))
    if value < low or (low_excluded and value == low) or value > high:
        raise ParameterError(
            f"{where}: {value!r} is not in {'(' if low_excluded else '['}{low}, {high}]"
        )


def load_config(preset: str | None, config_path: str | None) -> dict:
    """defaults < preset < --config file; every field checked by _check_field."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if preset is not None:  # argparse has checked it against FIGURES
        cfg = _deep_merge(cfg, FIGURES[preset].preset)
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):  # _deep_merge merges objects only
            raise ParameterError(f"invalid config at <root>: {user!r} is not an object")
        cfg = _deep_merge(cfg, user)
    _check_field("", cfg, DEFAULT_CONFIG)
    for qubit in ("qubit_a", "qubit_b"):
        low, high = cfg[qubit]["gamma_min_hz"], cfg[qubit]["gamma_max_hz"]
        if low >= high:
            raise ParameterError(f"invalid config at {qubit}: gamma_min_hz {low!r} is not "
                                 f"below gamma_max_hz {high!r}")
    return cfg


def _state_from(cfg: dict, **override) -> EWLParams:
    """The config's state with ``override``'s fields (r, a2 or flavor) in
    place, each checked as the config field it replaces."""
    for key, value in override.items():
        _check_field(f"state/{key}", value, DEFAULT_CONFIG["state"][key])
    st = {**cfg["state"], **override}
    return EWLParams(r=st["r"], a=math.sqrt(st["a2"]), flavor=st["flavor"], b_phase=st["phase"])


def _qubit_from(cfg: dict, which: str) -> AdiabaticParams:
    q = cfg[f"qubit_{which}"]
    return AdiabaticParams(
        omega=q["omega_rad_s"],
        theta=q["theta_rad"],
        sigma=q["sigma_rad_s"],
        gamma_min=q["gamma_min_hz"],
        gamma_max=q["gamma_max_hz"],
    )


def _closed_form_qubits(cfg: dict) -> tuple[AdiabaticParams, AdiabaticParams]:
    """Both qubits for a closed-form channel, which holds for uncoupled qubits only."""
    if cfg["coupling"]["g_rad_s"] != 0.0:
        raise ParameterError("coupling/g_rad_s must be 0 for the closed-form channels, which "
                             "describe uncoupled qubits; only the Monte Carlo engine couples them")
    return _qubit_from(cfg, "a"), _qubit_from(cfg, "b")


def _quantum_from(cfg: dict) -> QuantumNoiseParams:
    q = cfg["quantum"]
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
    env = os.environ.get("ESDLAB_THREADS") or "1"
    if not env.isdecimal() or int(env) < 1:
        raise ParameterError(f"ESDLAB_THREADS must be an integer of at least 1, got {env!r}")
    return int(env)


_CSV_BLOCK_ROWS = 1024  # write_csv makes Python floats of this many rows at a time


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length 1-d ``columns`` under a header of their names,
    never making a whole column a Python list."""
    cols = [np.asarray(col, dtype=float) for col in columns.values()]
    if len({col.shape for col in cols}) != 1 or cols[0].ndim != 1:
        raise ValueError(f"columns are not 1-d of one length: {[c.shape for c in cols]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, cols[0].size, _CSV_BLOCK_ROWS):
            block = np.column_stack([col[lo:lo + _CSV_BLOCK_ROWS] for col in cols]).tolist()
            fh.writelines(",".join(map(repr, row)) + "\n" for row in block)


def _write_gnuplot(out: Path, columns: dict[str, np.ndarray]) -> None:
    """A gnuplot script beside ``out`` that plots every column against the first."""
    plots = ", ".join(f"'{out.name}' using 1:{i} with lines" for i in range(2, len(columns) + 1))
    out.with_suffix(".gp").write_text(
        "set datafile separator ','\nset key autotitle columnhead\n"
        f"set xlabel 'omega_t'\nset ylabel 'concurrence'\nplot {plots}\n", encoding="utf-8")


def _time_grid(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Sample grid in omega_t and the same instants in seconds."""
    omega_t = np.linspace(0.0, cfg["sim"]["t_max_omega"], cfg["sim"]["samples"])
    return omega_t, omega_t / cfg["qubit_a"]["omega_rad_s"]


# ---------------------------------------------------------------------------
# figure builders: each takes the merged config and returns named columns


def _static_family(over: str, values: list[float]):
    """Fig. 1: static-path concurrence, one curve per value of ``over``."""

    def build(cfg: dict):
        ad_a, ad_b = _closed_form_qubits(cfg)
        omega_t, times = _time_grid(cfg)
        curves = [adiabatic_concurrence(times, ad_a, ad_b, _state_from(cfg, **{over: v}))
                  for v in values]
        # long format: one block of rows per value
        return {over: np.repeat(values, omega_t.size), "omega_t": np.tile(omega_t, len(values)),
                "concurrence": np.concatenate(curves)}

    return build


# the ESD columns of `esd` and fig2, after the swept value
_ESD_COLUMNS = ["omega_t_esd_phi", "omega_t_esd_psi", "omega_t_esd_adiabatic",
                "omega_t_esd_quantum_phi", "omega_t_esd_quantum_psi"]


def _esd_columns(label: str, over: str, grid: np.ndarray, cfg: dict) -> dict[str, np.ndarray]:
    """ESD times in omega_t over ``grid``: the swept value, named ``label``,
    then _ESD_COLUMNS: interplay (phi, psi), static noise only, and quantum
    noise only (phi, psi)."""
    states = [_state_from(cfg, **{over: value}) for value in grid.tolist()]
    ad_a, ad_b = _closed_form_qubits(cfg)
    qn = _quantum_from(cfg)
    combined = sweep(states, ad_a, ad_b, qn)
    static = sweep(states, ad_a, ad_b, replace(qn, s_white=0.0))
    # quantum noise only: the same channel with the low-frequency noise off
    quantum = sweep(states, replace(ad_a, sigma=0.0), replace(ad_b, sigma=0.0), qn)
    # sweep keeps every finite time's omega_a t in float range
    cells = np.vstack([combined, static[:1], quantum]) * ad_a.omega
    return {label: grid, **dict(zip(_ESD_COLUMNS, cells))}


def _fig2(cfg: dict):
    return _esd_columns("r", "r", np.linspace(0.4, 0.99, 60), cfg)


def _fig3(cfg: dict):
    """Concurrence of both flavors under static, quantum and both noises."""
    ad_a, ad_b = _closed_form_qubits(cfg)
    quiet_a, quiet_b = replace(ad_a, sigma=0.0), replace(ad_b, sigma=0.0)
    qn = _quantum_from(cfg)
    omega_t, times = _time_grid(cfg)
    cols = {"omega_t": omega_t}
    for flavor in ("phi", "psi"):
        st = _state_from(cfg, flavor=flavor)
        cols[f"{flavor}_adiabatic"] = adiabatic_concurrence(times, ad_a, ad_b, st)
        cols[f"{flavor}_quantum"] = interplay_concurrence(times, st, quiet_a, quiet_b, qn)
        cols[f"{flavor}_interplay"] = interplay_concurrence(times, st, ad_a, ad_b, qn)
    return cols


def _monte_carlo_family(curves, spa_curves):
    """Fig. 4: a Monte Carlo curve and its stderr per ``(label, detuned,
    coupled)`` in ``curves``, then the static-path average per ``(label,
    detuned)`` in ``spa_curves``. Detuned curves take qubit B from qubit_b,
    resonant ones take qubit A twice. Coupled curves use coupling.g_rad_s,
    nonzero exactly when a curve is coupled; the others no coupling. Config
    that no curve reads is refused before any trajectory runs."""
    coupled_curves = any(coupled for *_, coupled in curves)

    def build(cfg: dict):
        if (cfg["coupling"]["g_rad_s"] != 0.0) != coupled_curves:
            need, which = ("nonzero", "one") if coupled_curves else ("0", "none")
            raise ParameterError(f"coupling/g_rad_s must be {need} for this figure: {which} of "
                                 "its curves is coupled")
        st = _state_from(cfg)
        rho0 = ewl_state(st)
        workers = _n_workers()
        sim = _sim_from(cfg)
        # qubit B by "detuned?": resonant with qubit A, or qubit_b
        qubit_b = {False: sim.qubit_a, True: sim.qubit_b}
        omega_t, times = _time_grid(cfg)
        cols = {"omega_t": omega_t}
        for label, detuned, coupled in curves:
            g = cfg["coupling"]["g_rad_s"] if coupled else 0.0
            run = replace(sim, qubit_b=qubit_b[detuned], coupling_g=g)
            mc = monte_carlo_concurrence(rho0, run, n_workers=workers)
            cols[f"mc_{label}"], cols[f"stderr_{label}"] = mc.concurrence, mc.stderr
        for label, detuned in spa_curves:
            cols[f"spa_{label}"] = adiabatic_concurrence(times, sim.qubit_a, qubit_b[detuned], st)
        return cols

    return build


class Figure(NamedTuple):
    preset: dict  # config overrides, also applied by --preset
    build: Callable[[dict], dict[str, np.ndarray]]  # merged config -> named columns
    monte_carlo: bool = False  # the manifest records the seed and stream


# the static-noise figures read no quantum noise; the manifest says so, and
# `figure` refuses any other value
_NO_QUANTUM = {"s_white_per_s": 0.0}
# fig. 4's detuned qubit B: 20% above qubit A with the same relative noise
_DETUNED_QUBIT = {"omega_rad_s": 1.2e11, "sigma_rad_s": 2.4e9}

FIGURES: dict[str, Figure] = {
    "fig1a": Figure(
        {"state": {"r": 0.9}, "quantum": _NO_QUANTUM,
         "sim": {"t_max_omega": 6.0e4, "samples": 601}},
        _static_family("a2", [round(0.1 * k, 1) for k in range(1, 10)]),
    ),
    "fig1b": Figure(
        {"state": {"a2": 0.5}, "quantum": _NO_QUANTUM,
         "sim": {"t_max_omega": 1.0e5, "samples": 601}},
        _static_family("r", [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0]),
    ),
    "fig2": Figure({"state": {"a2": 0.5}}, _fig2),
    "fig3": Figure({"state": {"r": 0.95}, "sim": {"t_max_omega": 2.5e4, "samples": 501}}, _fig3),
    "fig4a": Figure(
        {"state": {"flavor": "psi", "r": 1.0}, "qubit_b": _DETUNED_QUBIT, "quantum": _NO_QUANTUM,
         "sim": {"t_max_omega": 5.0e3, "samples": 201}},
        _monte_carlo_family(
            [("resonant", False, False), ("detuned", True, False)],
            [("resonant", False), ("detuned", True)],
        ),
        monte_carlo=True,
    ),
    "fig4b": Figure(
        {"state": {"flavor": "psi", "r": 1.0}, "qubit_b": _DETUNED_QUBIT, "quantum": _NO_QUANTUM,
         "coupling": {"g_rad_s": 1.0e9}, "sim": {"t_max_omega": 5.0e3, "samples": 201}},
        _monte_carlo_family(
            [("coupled_detuned", True, True), ("uncoupled_detuned", True, False),
             ("uncoupled_resonant", False, False)],
            [],
        ),
        monte_carlo=True,
    ),
}


# ---------------------------------------------------------------------------
# subcommands


def cmd_concurrence(args) -> int:
    out = Path(args.out)
    if args.gnuplot and out.with_suffix(".gp") == out:
        raise ParameterError(f"--out {out} is the path of the --gnuplot script, which would "
                             "overwrite the CSV; give the CSV another suffix")
    cfg = load_config(args.preset, args.config)
    state = _state_from(cfg)
    omega_t, times = _time_grid(cfg)

    if args.channel == "montecarlo":
        mc = monte_carlo_concurrence(ewl_state(state), _sim_from(cfg), n_workers=_n_workers())
        cols = {"omega_t": omega_t, "concurrence": mc.concurrence, "stderr": mc.stderr}
    else:
        ad_a, ad_b = _closed_form_qubits(cfg)
        if args.channel == "adiabatic":
            values = adiabatic_concurrence(times, ad_a, ad_b, state)
        else:
            values = interplay_concurrence(times, state, ad_a, ad_b, _quantum_from(cfg))
        cols = {"omega_t": omega_t, "concurrence": values}

    write_csv(out, cols)
    if args.gnuplot:
        _write_gnuplot(out, cols)
    return 0


def cmd_esd(args) -> int:
    cfg = load_config(args.preset, args.config)
    if args.points < 1:
        raise ParameterError("--points must be at least 1")
    grid = np.linspace(args.sweep_from, args.sweep_to, args.points)
    write_csv(Path(args.out), _esd_columns("sweep_value", args.sweep, grid, cfg))
    return 0


def cmd_psd(args) -> int:
    cfg = load_config(None, args.config)
    q = _qubit_from(cfg, "a")
    ens = sample_ensemble(cfg["sim"]["fluctuators"], q.gamma_min, q.gamma_max, q.sigma,
                          cfg["sim"]["seed"])
    est = psd_estimate(
        ens,
        t_max=args.t_max_s,
        n_realizations=args.realizations,
        rng_seed=cfg["sim"]["seed"],
        sample_hz=args.sample_hz,
    )
    write_csv(Path(args.out),
              {"omega_rad_s": est.omega, "s_estimated": est.s_estimated, "s_target": est.s_target})
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
    figure = FIGURES[name]
    cfg = load_config(name, args.config)
    if figure.preset.get("quantum") == _NO_QUANTUM and cfg["quantum"]["s_white_per_s"] != 0.0:
        raise ParameterError("quantum/s_white_per_s must be 0 for this figure: its curves "
                             "have static noise only")
    outdir = Path(args.outdir)
    write_csv(outdir / f"{name}.csv", figure.build(cfg))
    manifest = {
        "figure": name,
        "version": f"esdlab {__version__}",
        "parameters": cfg,
        "outputs": [f"{name}.csv"],
    }
    if figure.monte_carlo:
        # what it takes to regenerate the curves bit for bit
        manifest["monte_carlo"] = {"seed": cfg["sim"]["seed"], "stream_version": STREAM_VERSION}
    with open(outdir / f"{name}_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esdlab",
        description="Two-qubit entanglement degradation under broadband noise",
    )
    parser.add_argument("--version", action="version", version=f"esdlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("concurrence", help="concurrence curve as CSV")
    p.add_argument("--preset", choices=sorted(FIGURES), help="figure preset")
    p.add_argument("--config", help="JSON scenario file overriding the preset")
    p.add_argument(
        "--channel",
        choices=["adiabatic", "interplay", "montecarlo"],
        default="interplay",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--gnuplot", action="store_true", help="emit a gnuplot sidecar")
    p.set_defaults(func=cmd_concurrence)

    p = sub.add_parser("esd", help="disentanglement-time table as CSV")
    p.add_argument("--preset", choices=sorted(FIGURES), help="figure preset")
    p.add_argument("--config", help="JSON scenario file overriding the preset")
    p.add_argument("--sweep", choices=["r", "a2"], required=True)
    p.add_argument("--from", type=_finite_float, dest="sweep_from", required=True)
    p.add_argument("--to", type=_finite_float, dest="sweep_to", required=True)
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_esd)

    p = sub.add_parser("psd", help="ensemble spectrum vs the 1/f law as CSV")
    # no preset sets a field the PSD reads
    p.add_argument("--config", help="JSON scenario file overriding the defaults")
    p.add_argument("--realizations", type=int, default=200)
    p.add_argument("--t-max-s", type=_finite_float, default=0.2, dest="t_max_s")
    p.add_argument("--sample-hz", type=_finite_float, default=2.0e6, dest="sample_hz")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("figure", help="reproduce a preset figure as CSV + manifest")
    p.add_argument("name", choices=sorted(FIGURES))
    p.add_argument("--config", help="JSON scenario file overriding the preset")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # finite inputs far outside the physical range can still overflow or
        # divide by zero; that must stop the run, not leave inf or nan in the
        # output. The only inf and nan written are ESD cells that say so.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ParameterError as exc:
        print(f"esdlab: config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"esdlab: config error: the parameters overflow float arithmetic ({exc})",
              file=sys.stderr)
        return 2
    except (EsdlabError, OSError) as exc:
        print(f"esdlab: error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"esdlab: error: not enough memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
