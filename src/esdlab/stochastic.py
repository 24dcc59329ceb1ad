"""Telegraph-noise Monte Carlo engine.

Low-frequency noise is synthesized as a sum of symmetric random telegraph
processes. Each fluctuator holds a switching rate gamma (per direction, so
its autocorrelation decays as exp(-2 gamma |tau|)) and a coupling amplitude;
rates drawn log-uniformly over a wide band give the familiar 1/f spectrum

    S(omega) = pi sigma^2 / (ln(gamma_max/gamma_min) omega)

(two-sided, angular-frequency convention) inside the band. Trajectories are
propagated exactly: between switch events the Hamiltonian is constant and
the step propagator is an exact matrix exponential, so the only errors are
statistical.

Determinism: every random quantity derives from a root seed through
``numpy.random.SeedSequence`` spawn keys indexed by trajectory (or
realization) number, and reductions run over chunks fixed by the
configuration, in index order, so results are bit-identical regardless of
worker count. ``STREAM_VERSION`` names the layout of those streams. The
rates of an ensemble are drawn once (a device); every path drawn by
:func:`rtn_paths` owns fresh stationary signs. PSD realization k uses spawn
key (k,) and draws like one Monte Carlo path.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adiabatic import AdiabaticParams
from .constants import ENSEMBLE_VARIANCE_RTOL
from .errors import ParameterError
from .qmath import SIGMA_X, SIGMA_Z, wootters_concurrence

# no compiled PSD engine exists; perfbench/run.py:408 records this flag
HAVE_NUMBA = False

__all__ = [
    "FluctuatorEnsemble",
    "RtnPaths",
    "SimConfig",
    "TrajectoryResult",
    "MonteCarloResult",
    "PsdEstimate",
    "OneOverFFit",
    "sample_ensemble",
    "rtn_paths",
    "noise_segments",
    "sampled_noise",
    "evolve_trajectory",
    "monte_carlo_concurrence",
    "psd_estimate",
    "fit_one_over_f",
]

# Trajectories are reduced in chunks of at most this size; the chunk grid is
# a property of the configuration, not of the execution, which is what makes
# the averages independent of the worker count.
CHUNK_SIZE = 32

# Layout of the random stream behind a Monte Carlo run. Version 2 draws a
# path's signs, every Poisson switch count in one call, then all switch times.
STREAM_VERSION = 2

_EYE2 = np.eye(2, dtype=complex)
# the one-qubit Pauli operators embedded in the two-qubit space
_ZI, _XI = np.kron(SIGMA_Z, _EYE2), np.kron(SIGMA_X, _EYE2)
_IZ, _IX = np.kron(_EYE2, SIGMA_Z), np.kron(_EYE2, SIGMA_X)
# shared by every fluctuator that does not switch; read-only
_NO_SWITCHES = np.empty(0)
_NO_SWITCHES.flags.writeable = False


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


@dataclass(frozen=True)
class FluctuatorEnsemble:
    """A bath realization: switching rates and couplings."""

    rates: np.ndarray
    couplings: np.ndarray
    gamma_min: float
    gamma_max: float
    sigma: float

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=float)
        couplings = np.asarray(self.couplings, dtype=float)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "couplings", couplings)
        if rates.shape != couplings.shape:
            raise ParameterError("rates and couplings must align")
        if rates.size and (rates.min() < self.gamma_min - 1e-12 * self.gamma_min
                           or rates.max() > self.gamma_max * (1 + 1e-12)):
            raise ParameterError("switching rates leave the [gamma_min, gamma_max] band")
        var = float(np.sum(couplings**2))
        target = self.sigma**2
        if target == 0.0:
            ok = var == 0.0
        else:
            ok = abs(var - target) <= ENSEMBLE_VARIANCE_RTOL * target
        if not ok:
            raise ParameterError(
                f"coupling variance {var:.6e} does not realize sigma^2 = {target:.6e}"
            )

    @property
    def n(self) -> int:
        return int(self.rates.size)


def sample_ensemble(
    n: int, gamma_min: float, gamma_max: float, sigma: float, rng_seed
) -> FluctuatorEnsemble:
    """Draw an ensemble: log-uniform rates, equal couplings sigma/sqrt(n).
    Deterministic for a given seed."""
    if n < 1:
        raise ParameterError(f"need at least one fluctuator, got {n}")
    if not 0.0 < gamma_min < gamma_max:
        raise ParameterError(
            f"need 0 < gamma_min < gamma_max, got [{gamma_min}, {gamma_max}]"
        )
    rng = _rng(rng_seed)
    rates = gamma_min * (gamma_max / gamma_min) ** rng.random(n)
    couplings = np.full(n, sigma / math.sqrt(n))
    return FluctuatorEnsemble(
        rates=rates,
        couplings=couplings,
        gamma_min=gamma_min,
        gamma_max=gamma_max,
        sigma=sigma,
    )


@dataclass(frozen=True)
class RtnPaths:
    """Initial signs and switch times of every fluctuator of one ensemble
    over [0, t_max]."""

    ensemble: FluctuatorEnsemble
    t_max: float
    initial_states: np.ndarray  # +1 or -1 per fluctuator at t = 0
    switch_times: tuple


def rtn_paths(ens: FluctuatorEnsemble, t_max: float, rng_seed) -> RtnPaths:
    """Draw one path: equiprobable initial signs (the stationary state of a
    symmetric telegraph process), then every fluctuator's Poisson switch
    count (rate = its gamma), then all switch times."""
    if t_max <= 0.0:
        raise ParameterError(f"t_max must be positive, got {t_max}")
    rng = _rng(rng_seed)
    signs = rng.integers(0, 2, ens.n) * 2.0 - 1.0
    counts = rng.poisson(ens.rates * t_max)
    # all switch times of the path in one draw, fluctuator by fluctuator
    flat = rng.random(int(counts.sum())) * t_max
    times = [_NO_SWITCHES] * ens.n
    start = 0
    for i in np.flatnonzero(counts).tolist():
        stop = start + int(counts[i])
        times[i] = flat[start:stop]
        times[i].sort()
        start = stop
    return RtnPaths(ensemble=ens, t_max=t_max, initial_states=signs, switch_times=tuple(times))


def _switch_jumps(paths: RtnPaths):
    """(switch times, jumps) of each fluctuator that switches: starting at
    v*s0, its k-th switch (k = 1, 2, ...) jumps by 2*v*s0*(-1)^k."""
    couplings = paths.ensemble.couplings
    for i, times in enumerate(paths.switch_times):
        if times.size:
            jump = 2.0 * couplings[i] * paths.initial_states[i]
            jumps = np.full(times.size, jump)
            jumps[::2] = -jump
            yield times, jumps


def noise_segments(paths: RtnPaths) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant X(t) as (edges, values).

    ``X(t) = values[i]`` for ``edges[i] <= t < edges[i+1]``; the first edge
    is 0 and the last segment extends to t_max.
    """
    x0 = float(np.sum(paths.ensemble.couplings * paths.initial_states))
    switches = list(_switch_jumps(paths))
    if not switches:
        return np.array([0.0]), np.array([x0])
    t_all, jump_all = zip(*switches)
    t_merged = np.concatenate(t_all)
    order = np.argsort(t_merged, kind="stable")
    edges = np.concatenate([[0.0], t_merged[order]])
    values = x0 + np.concatenate([[0.0], np.cumsum(np.concatenate(jump_all)[order])])
    return edges, values


def sampled_noise(paths: RtnPaths, n_samples: int) -> np.ndarray:
    """X(t) on ``np.linspace(0, paths.t_max, n_samples)``, the grid of
    :func:`evolve_trajectory`. Jumps are binned fluctuator by fluctuator
    (no array holds every switch of the path) at the first sample at or
    after their switch time."""
    # a spare bin takes a switch that rounding puts past the last sample
    delta = np.zeros(n_samples + 1)
    delta[0] = np.sum(paths.ensemble.couplings * paths.initial_states)
    scale = (n_samples - 1) / paths.t_max
    for times, jumps in _switch_jumps(paths):
        np.add.at(delta, np.ceil(times * scale).astype(np.intp), jumps)
    return np.cumsum(delta[:n_samples])


# ---------------------------------------------------------------------------
# trajectory propagation


@dataclass(frozen=True)
class SimConfig:
    """Everything a Monte Carlo run needs besides the initial state."""

    qubit_a: AdiabaticParams
    qubit_b: AdiabaticParams
    n_trajectories: int
    t_max: float
    n_samples: int
    seed: int
    coupling_g: float = 0.0
    n_fluctuators: int = 250

    def __post_init__(self) -> None:
        if self.n_trajectories < 1:
            raise ParameterError("n_trajectories must be at least 1")
        if self.t_max <= 0.0:
            raise ParameterError("t_max must be positive")
        if self.n_samples < 2:
            raise ParameterError("n_samples must be at least 2")
        if self.n_fluctuators < 1:
            raise ParameterError("n_fluctuators must be at least 1")


@dataclass(frozen=True)
class TrajectoryResult:
    """One noise realization: sampled conditional unitaries and states."""

    times: np.ndarray
    unitaries: np.ndarray  # (n_samples, 4, 4)
    states: np.ndarray     # (n_samples, 4, 4), U rho0 U^dagger

    def unitarity_defect(self) -> float:
        uu = np.einsum("kij,kil->kjl", self.unitaries.conj(), self.unitaries)
        return float(np.abs(uu - np.eye(4)).max())


def _pauli_axes(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation rates d = |(w, v)| and unit axes (w sz + v sx) / d, per entry.

    A zero rate gets a zero axis, so its steps are the identity.
    """
    d = np.hypot(w, v)
    scale = np.where(d > 0.0, d, 1.0)[:, None, None]
    return d, (w[:, None, None] * SIGMA_Z + v[:, None, None] * SIGMA_X) / scale


def _pauli_step(d: np.ndarray, axis: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Batched exp(-i d tau axis / 2), exactly unitary; the inputs align."""
    half = 0.5 * d * taus
    return (
        np.cos(half)[:, None, None] * _EYE2
        - 1j * np.sin(half)[:, None, None] * axis
    )


def _segment_starts(steps: np.ndarray) -> np.ndarray:
    """Propagator at the start of each segment, from the per-segment steps."""
    acc = np.empty_like(steps)
    acc[0] = np.eye(steps.shape[-1])
    for i in range(1, len(steps)):
        acc[i] = steps[i - 1] @ acc[i - 1]
    return acc


def evolve_trajectory(
    rho0: np.ndarray, paths_a: RtnPaths, paths_b: RtnPaths, cfg: SimConfig
) -> TrajectoryResult:
    """Propagate one noise realization exactly and sample it on a grid.

    The noise is piecewise constant, so between switch events the propagator
    is an exact matrix exponential: a tensor product of 2x2 rotations when
    the qubits are uncoupled, a diagonalized 4x4 exponential otherwise.
    Every segment's step is built in one batch; only the running product
    over segments is sequential. Uncoupled qubits are propagated as their
    2x2 factors, whose tensor product is formed once for all samples.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    times = np.linspace(0.0, cfg.t_max, cfg.n_samples)
    edges_a, vals_a = noise_segments(paths_a)
    edges_b, vals_b = noise_segments(paths_b)
    # segment i is [brk[i], brk[i+1]); the last one also holds t_max
    brk = np.unique(np.concatenate([edges_a, edges_b, [0.0, cfg.t_max]]))
    brk = brk[brk <= cfg.t_max]
    mids = 0.5 * (brk[:-1] + brk[1:])
    xa = vals_a[np.searchsorted(edges_a, mids, side="right") - 1]
    xb = vals_b[np.searchsorted(edges_b, mids, side="right") - 1]
    first = np.searchsorted(times, brk, side="left")
    first[0], first[-1] = 0, cfg.n_samples
    seg = np.repeat(np.arange(brk.size - 1), np.diff(first))
    taus = times - brk[seg]
    dts = np.diff(brk)

    qa, qb = cfg.qubit_a, cfg.qubit_b
    ca, sa = math.cos(qa.theta), math.sin(qa.theta)
    cb, sb = math.cos(qb.theta), math.sin(qb.theta)
    wa, va = qa.omega + ca * xa, sa * xa
    wb, vb = qb.omega + cb * xb, sb * xb

    if cfg.coupling_g != 0.0:
        # the bath couples along the laboratory z axis; in each qubit's
        # eigenbasis that axis reads sin(theta) sx + cos(theta) sz
        axis_a = sa * SIGMA_X + ca * SIGMA_Z
        axis_b = sb * SIGMA_X + cb * SIGMA_Z
        h_int = -0.5 * cfg.coupling_g * np.kron(axis_a, axis_b)
        h = (
            0.5 * (wa[:, None, None] * _ZI + va[:, None, None] * _XI)
            + 0.5 * (wb[:, None, None] * _IZ + vb[:, None, None] * _IX)
            + h_int
        )
        lam, vec = np.linalg.eigh(h)
        vec_h = vec.conj().transpose(0, 2, 1)
        steps = (vec * np.exp(-1j * lam * dts[:, None])[:, None, :]) @ vec_h
        starts = _segment_starts(steps)
        phases = np.exp(-1j * lam[seg] * taus[:, None])
        out = (vec[seg] * phases[:, None, :]) @ vec_h[seg] @ starts[seg]
    else:
        factors = []
        for w, v in ((wa, va), (wb, vb)):
            d, axis = _pauli_axes(w, v)
            starts = _segment_starts(_pauli_step(d, axis, dts))
            factors.append(_pauli_step(d[seg], axis[seg], taus) @ starts[seg])
        out = np.einsum("kab,kcd->kacbd", *factors).reshape(-1, 4, 4)

    # one (n*4, 4) product applies rho0 to every sample at once
    states = (out.reshape(-1, 4) @ rho0).reshape(out.shape) @ out.conj().transpose(0, 2, 1)
    return TrajectoryResult(times=times, unitaries=out, states=states)


# ---------------------------------------------------------------------------
# ensemble averaging


@dataclass(frozen=True)
class MonteCarloResult:
    """Averaged concurrence curve with batch-means error bars."""

    times: np.ndarray
    concurrence: np.ndarray
    stderr: np.ndarray
    rho_mean: np.ndarray


def _trajectory_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, index)))


def _run_chunk(payload):
    rho0, cfg, ens_a, ens_b, start, stop = payload
    rho_sum = np.zeros((cfg.n_samples, 4, 4), dtype=complex)
    for i in range(start, stop):
        rng = _trajectory_rng(cfg.seed, i)
        a = rtn_paths(ens_a, cfg.t_max, rng)
        b = rtn_paths(ens_b, cfg.t_max, rng)
        rho_sum += evolve_trajectory(rho0, a, b, cfg).states
    return rho_sum, wootters_concurrence(rho_sum / (stop - start), validate=False)


def _chunk_bounds(n_trajectories: int) -> list[int]:
    """Reduction chunks: at most CHUNK_SIZE trajectories, sizes differing by
    at most one, and at least two chunks once there are two trajectories, so
    that batch means always give an error bar."""
    n_chunks = max(min(2, n_trajectories), -(-n_trajectories // CHUNK_SIZE))
    return [k * n_trajectories // n_chunks for k in range(n_chunks + 1)]


def monte_carlo_concurrence(
    rho0: np.ndarray, cfg: SimConfig, n_workers: int = 1
) -> MonteCarloResult:
    """Average the conditional states over noise realizations.

    The ensemble average targets the density matrix (concurrence is not
    linear in rho); the reported curve is the concurrence of the averaged
    state, computed with the exact Wootters formula because finite averages
    retain small off-X residuals. ``stderr`` comes from batch means over the
    reduction chunks; it is nan for a single trajectory.

    Fluctuator rates are drawn once from the configuration seed (a device
    realization); switch times and initial signs are redrawn per trajectory.
    Identical (seed, config) give bit-identical results for any
    ``n_workers``.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    ens_a = sample_ensemble(
        cfg.n_fluctuators,
        cfg.qubit_a.gamma_min,
        cfg.qubit_a.gamma_max,
        cfg.qubit_a.sigma,
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)),
    )
    ens_b = sample_ensemble(
        cfg.n_fluctuators,
        cfg.qubit_b.gamma_min,
        cfg.qubit_b.gamma_max,
        cfg.qubit_b.sigma,
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(1,)),
    )
    bounds = _chunk_bounds(cfg.n_trajectories)
    payloads = [
        (rho0, cfg, ens_a, ens_b, bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
    ]
    if n_workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(_run_chunk, payloads))
    else:
        parts = [_run_chunk(p) for p in payloads]

    rho_total = np.zeros((cfg.n_samples, 4, 4), dtype=complex)
    for rho_sum, _ in parts:  # fixed chunk order
        rho_total += rho_sum
    rho_mean = rho_total / cfg.n_trajectories
    conc = wootters_concurrence(rho_mean, validate=False)
    chunk_conc = np.stack([c for _, c in parts])
    if chunk_conc.shape[0] > 1:
        stderr = chunk_conc.std(axis=0, ddof=1) / math.sqrt(chunk_conc.shape[0])
    else:  # a single trajectory has no spread to estimate
        stderr = np.full(cfg.n_samples, math.nan)
    times = np.linspace(0.0, cfg.t_max, cfg.n_samples)
    return MonteCarloResult(times=times, concurrence=conc, stderr=stderr, rho_mean=rho_mean)


# ---------------------------------------------------------------------------
# spectral estimation


@dataclass(frozen=True)
class PsdEstimate:
    """Averaged periodogram of the summed telegraph signal.

    ``s_estimated`` and ``s_target`` are two-sided spectra in the
    angular-frequency convention (integrating over omega/2pi recovers the
    variance); ``s_target`` is the idealized 1/f law.
    """

    omega: np.ndarray
    s_estimated: np.ndarray
    s_target: np.ndarray
    gamma_min: float
    gamma_max: float
    sigma: float
    n_realizations: int
    sample_hz: float
    t_max: float


def psd_estimate(
    ens: FluctuatorEnsemble,
    t_max: float,
    n_realizations: int,
    rng_seed,
    sample_hz: float = 2.0e6,
) -> PsdEstimate:
    """Estimate the ensemble power spectrum by periodogram averaging.

    Each realization draws fresh initial signs and switch times (quenched
    rates, stationary initial conditions) with :func:`rtn_paths`, exactly as
    one Monte Carlo path does, samples the summed signal at ``sample_hz``
    with :func:`sampled_noise` and accumulates a Hann-windowed, mean-removed
    periodogram.

    Parameters
    ----------
    ens : FluctuatorEnsemble
        The bath whose spectrum is wanted.
    t_max : float
        Segment duration in seconds; sets the frequency resolution.
    n_realizations : int
        Number of averaged periodograms; at least 100.
    rng_seed : int or SeedSequence
        Root seed; realization k draws its signs, then all Poisson switch
        counts, then all switch times from spawn key (k,).
    sample_hz : float
        Sampling rate. Choose at least ~2x the fastest switching rate so
        aliased tail power stays negligible in the band of interest.
    """
    if n_realizations < 100:
        raise ParameterError("need at least 100 realizations for a stable average")
    if not (0.0 < t_max < math.inf and 0.0 < sample_hz < math.inf):
        raise ParameterError("t_max and sample_hz must be positive and finite")
    dt = 1.0 / sample_hz
    # round the segment up to an FFT-friendly length; awkward sizes cost
    # more in the transform than in the signal generation
    from scipy import signal as _signal  # slow to import; only this needs it
    from scipy.fft import next_fast_len

    n_samples = next_fast_len(max(4, int(round(t_max * sample_hz))))
    horizon = (n_samples - 1) * dt  # the last sample's time
    t_max = n_samples * dt
    acc = 0.0
    for child in np.random.SeedSequence(rng_seed).spawn(n_realizations):
        rng = np.random.default_rng(child)
        x = sampled_noise(rtn_paths(ens, horizon, rng), n_samples)
        freqs, pxx = _signal.periodogram(
            x, fs=sample_hz, window="hann", detrend="constant", scaling="density"
        )
        acc += pxx
    acc /= n_realizations
    keep = freqs > 0.0
    omega = 2.0 * math.pi * freqs[keep]
    # one-sided Hz density -> two-sided angular density
    s_est = acc[keep] / 2.0
    log_ratio = math.log(ens.gamma_max / ens.gamma_min) if ens.gamma_max > ens.gamma_min else math.nan
    s_target = math.pi * ens.sigma**2 / (log_ratio * omega)
    return PsdEstimate(
        omega=omega,
        s_estimated=s_est,
        s_target=s_target,
        gamma_min=ens.gamma_min,
        gamma_max=ens.gamma_max,
        sigma=ens.sigma,
        n_realizations=n_realizations,
        sample_hz=sample_hz,
        t_max=t_max,
    )


@dataclass(frozen=True)
class OneOverFFit:
    """Log-log fit of an estimated spectrum inside the 1/f band."""

    slope: float
    amplitude_ratio: float
    band_omega: tuple[float, float]


def fit_one_over_f(est: PsdEstimate) -> OneOverFFit:
    """Fit slope and amplitude over the trustworthy band [10 gm, gM/10] (Hz).

    The band must span at least one decade, i.e. gamma_max/gamma_min >= 1000.
    The amplitude is compared against the 1/f law at the geometric band
    center, where band-edge roll-off is negligible.
    """
    if est.gamma_max / est.gamma_min < 1000.0:
        raise ParameterError(
            "rate band too narrow for a decade of 1/f fit: need "
            "gamma_max/gamma_min >= 1000"
        )
    f_lo, f_hi = 10.0 * est.gamma_min, est.gamma_max / 10.0
    w_lo, w_hi = 2.0 * math.pi * f_lo, 2.0 * math.pi * f_hi
    sel = (est.omega >= w_lo) & (est.omega <= w_hi)
    if sel.sum() < 8:
        raise ParameterError("too few spectral points inside the fit band")
    w = est.omega[sel]
    s = est.s_estimated[sel]
    # average into 24 log-spaced bins per decade so each decade carries equal weight
    n_bins = max(8, int(24 * math.log10(w_hi / w_lo)))
    bin_edges = np.geomspace(w_lo, w_hi, n_bins + 1)
    idx = np.clip(np.digitize(w, bin_edges) - 1, 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    ok = counts > 0
    w_binned = np.bincount(idx, weights=w, minlength=n_bins)[ok] / counts[ok]
    s_binned = np.bincount(idx, weights=s, minlength=n_bins)[ok] / counts[ok]
    slope, intercept = np.polyfit(np.log(w_binned), np.log(s_binned), 1)
    w_center = math.sqrt(w_lo * w_hi)
    fitted_center = math.exp(intercept + slope * math.log(w_center))
    target_center = math.pi * est.sigma**2 / (
        math.log(est.gamma_max / est.gamma_min) * w_center
    )
    return OneOverFFit(
        slope=float(slope),
        amplitude_ratio=float(fitted_center / target_center),
        band_omega=(w_lo, w_hi),
    )
