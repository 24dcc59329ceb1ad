"""Telegraph-noise Monte Carlo engine.

Low-frequency noise is synthesized as a sum of symmetric random telegraph
processes. Each fluctuator holds a switching rate gamma (per direction, so
its autocorrelation decays as exp(-2 gamma |tau|)) and a coupling amplitude;
rates drawn log-uniformly over a wide band give the familiar 1/f spectrum

    S(omega) = pi sigma^2 / (ln(gamma_max/gamma_min) omega)

(two-sided, angular-frequency convention) inside the band. Trajectories are
propagated exactly: between switch events the Hamiltonian is constant and
the step propagator is an exact matrix exponential, so the only errors are
statistical. The engine runs in three stages. Per trajectory,
:func:`evolve_trajectory` merges the switch events of both qubits' paths
into segments of constant noise and finds each sample's segment. Per chunk
of trajectories, the chunk stage builds the steps of all their segments in
one batch and carries a factor C of the initial state (rho0 = C C^dagger +
f I, where no unitary moves f I) to every segment's start. Per block of a
chunk's trajectories, the sample stage evaluates them on the time grid with
elementwise arithmetic and sums their states with one Gram product per
sample.

Determinism: every random quantity derives from a root seed through
``numpy.random.SeedSequence`` spawn keys indexed by trajectory (or
realization) number, and reductions run over chunks fixed by the
configuration, and blocks within them, in index order, so results are
bit-identical regardless of worker count. ``STREAM_VERSION`` names the
layout of those streams. The rates of an ensemble are drawn once (a
device); every path owns fresh stationary signs. One routine draws a path,
one switching fluctuator at a time: :func:`rtn_paths` keeps its switch
times for the Monte Carlo engine, while PSD realization k, drawn from spawn
key (k,), bins each fluctuator's jumps onto its sample grid as it is drawn
and then drops them. Realizations are transformed in blocks and their
periodograms summed in realization order, so the PSD estimate is
bit-identical for any block size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .adiabatic import AdiabaticParams
from .constants import ENSEMBLE_VARIANCE_RTOL
from .errors import InvalidStateError, ParameterError
from .qmath import SIGMA_X, SIGMA_Z, validate_density_matrix, wootters_concurrence

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
    "evolve_trajectory",
    "monte_carlo_concurrence",
    "psd_estimate",
    "fit_one_over_f",
]

# Trajectories are reduced in chunks of at most this size; the chunk grid is
# a property of the configuration, not of the execution, which is what makes
# the averages independent of the worker count.
CHUNK_SIZE = 32

# A chunk's trajectories are sampled in blocks that hold this many columns of
# the initial state's factor: four trajectories of a pure state, or of one
# mixed with white noise, and one of a generic full-rank state. A block's
# temporaries grow with its columns, and its one Gram product per sample
# costs about the same at any width. With the chunk stage in front of it, on
# fig4b's 3 x 256 trajectories (2-vCPU VM) the CLI's peak RSS is 38.9 MB
# for 1-2 trajectories a block, 39.2 for 4, 39.6 for 8, 40.3 for 16 and 41.7
# for 32, with no time gained that the VM's noise does not swamp. The block
# sets the Gram product's summation order, so a new value moves the bits of
# every Monte Carlo output.
BLOCK_COLUMNS = 4

# The periodogram transforms realizations in blocks of about this many
# samples. Each scipy call carries a fixed cost that does not grow with its
# row count (scipy 1.17.1 sums the window's squares in a Python loop, 3.8 ms
# at 5e4 samples), but a larger block holds more rows, and scipy's work
# arrays for them, in memory at once. With 5e4-sample realizations (2-vCPU
# VM, one BLAS thread, best of 5 x 20 calls in each of three runs), a call
# takes 6.8-7.2 ms for one row, 8.1-9.0 for two, 10.8-15.4 for three and
# 12.1-16.8 for four: two rows a block save about 0.27 s per 100
# realizations over one. The CLI's peak RSS is 110.0 MiB at one row a
# block, 113.7 at two, 116.4 at three and 119.0 at four.
PSD_BLOCK_SAMPLES = 100_000

# Layout of the random stream behind a Monte Carlo run. Version 2 draws a
# path's signs, every Poisson switch count in one call, then all switch
# times, fluctuator by fluctuator in index order.
STREAM_VERSION = 2

# Half the float64 values one array can hold: a switch count or PSD segment
# below it still fits after its Poisson draw or its round up to an FFT length
_MAX_COUNT = sys.maxsize // 16

_EYE2 = np.eye(2, dtype=complex)
_EYE4 = np.eye(4)
# the one-qubit Pauli operators embedded in the two-qubit space
_ZI, _XI = np.kron(SIGMA_Z, _EYE2), np.kron(SIGMA_X, _EYE2)
_IZ, _IX = np.kron(_EYE2, SIGMA_Z), np.kron(_EYE2, SIGMA_X)
# shared by every fluctuator that does not switch; read-only
_NO_SWITCHES = np.empty(0)
_NO_SWITCHES.flags.writeable = False


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
        if not 0.0 < self.gamma_min < self.gamma_max < math.inf:
            raise ParameterError(
                f"need 0 < gamma_min < gamma_max < inf, got [{self.gamma_min}, {self.gamma_max}]"
            )
        if not 0.0 <= self.sigma < math.inf:
            raise ParameterError(f"sigma must be non-negative and finite, got {self.sigma}")
        if rates.size and (rates.min() < self.gamma_min - 1e-12 * self.gamma_min
                           or rates.max() > self.gamma_max * (1 + 1e-12)):
            raise ParameterError("switching rates leave the [gamma_min, gamma_max] band")
        var = float(np.sum(couplings**2))
        target = self.sigma**2
        # at sigma = 0 the relative rule asks for var == 0 exactly; a nan fails it
        if not abs(var - target) <= ENSEMBLE_VARIANCE_RTOL * target:
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
    rng = np.random.default_rng(rng_seed)  # a Generator comes back as it is
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
    switch_times: tuple  # one sorted array per fluctuator
    switching: tuple  # ascending indices of the fluctuators that switch


def _draw_path(ens: FluctuatorEnsemble, t_max: float, rng: np.random.Generator):
    """Draw one path in the ``STREAM_VERSION`` 2 order: equiprobable initial
    signs (the stationary state of a symmetric telegraph process), every
    fluctuator's Poisson switch count (rate = its gamma), then the switch
    times of each fluctuator that switches, in index order. Returns the
    signs and an iterator of (index, sorted switch times) that draws each
    fluctuator's times when it reaches them; use it up before ``rng`` draws
    again. PCG64 hands out doubles in order, so these draws give the bits of
    one draw of all the path's switch times. Raises :class:`ParameterError`,
    before any draw, when a fluctuator's switch times could not fit an array."""
    expected = float(ens.rates.max(initial=0.0)) * t_max
    if expected > _MAX_COUNT:
        raise ParameterError(f"rate x t_max = {expected:.3g} switches are too many for any array")
    signs = rng.integers(0, 2, ens.n) * 2.0 - 1.0
    counts = rng.poisson(ens.rates * t_max)

    def switches():
        for i in np.flatnonzero(counts).tolist():
            times = rng.random(counts[i])
            times *= t_max
            times.sort()
            yield i, times

    return signs, switches()


def rtn_paths(ens: FluctuatorEnsemble, t_max: float, rng_seed) -> RtnPaths:
    """Draw one path with :func:`_draw_path` and keep every fluctuator's
    sorted switch times, an empty array for one that does not switch."""
    if not 0.0 < t_max < math.inf:
        raise ParameterError(f"t_max must be positive and finite, got {t_max}")
    signs, switches = _draw_path(ens, t_max, np.random.default_rng(rng_seed))
    times, switching = [_NO_SWITCHES] * ens.n, []
    for i, t in switches:
        times[i] = t
        switching.append(i)
    return RtnPaths(ensemble=ens, t_max=t_max, initial_states=signs,
                    switch_times=tuple(times), switching=tuple(switching))


def _binned_noise(couplings, signs, switches, t_max: float, n_samples: int, out=None):
    """X(t) on ``np.linspace(0, t_max, n_samples)`` from the initial signs and
    the (index, sorted switch times) of each fluctuator that switches.
    Starting at v*s0, a fluctuator's k-th switch (k = 1, 2, ...) jumps by
    2*v*s0*(-1)^k, binned at the first sample at or after its time."""
    # a spare bin takes a switch that rounding puts past the last sample
    delta = np.zeros(n_samples + 1)
    delta[0] = np.sum(couplings * signs)
    scale = (n_samples - 1) / t_max
    for i, times in switches:
        jump = 2.0 * couplings[i] * signs[i]
        jumps = np.full(times.size, jump)
        jumps[::2] = -jump
        np.add.at(delta, np.ceil(times * scale).astype(np.intp), jumps)
    return np.cumsum(delta[:n_samples], out=out)


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
        if not self.n_trajectories >= 1:
            raise ParameterError("n_trajectories must be at least 1")
        if not 0.0 < self.t_max < math.inf:
            raise ParameterError(f"t_max must be positive and finite, got {self.t_max}")
        if not self.n_samples >= 2:
            raise ParameterError("n_samples must be at least 2")
        if not self.n_fluctuators >= 1:
            raise ParameterError("n_fluctuators must be at least 1")
        if not math.isfinite(self.coupling_g):
            raise ParameterError(f"coupling_g must be finite, got {self.coupling_g}")

    @cached_property
    def times(self) -> np.ndarray:
        """The read-only sample grid ``np.linspace(0, t_max, n_samples)``,
        shared by every trajectory of the configuration."""
        times = np.linspace(0.0, self.t_max, self.n_samples)
        times.flags.writeable = False
        return times

    @cached_property
    def coupling_term(self) -> np.ndarray:
        """The fixed qubit-qubit term of the Hamiltonian, -g/2 n_a.sigma (x)
        n_b.sigma, built once per configuration: the bath couples along the
        laboratory z axis, which in each qubit's eigenbasis reads
        sin(theta) sx + cos(theta) sz."""
        qa, qb = self.qubit_a, self.qubit_b
        axis_a = math.sin(qa.theta) * SIGMA_X + math.cos(qa.theta) * SIGMA_Z
        axis_b = math.sin(qb.theta) * SIGMA_X + math.cos(qb.theta) * SIGMA_Z
        return -0.5 * self.coupling_g * np.kron(axis_a, axis_b)


@dataclass(frozen=True)
class TrajectoryResult:
    """One noise realization cut into segments of constant noise, the output
    of the per-trajectory stage: segment s begins at ``starts[s]`` and lasts
    ``dts[s]`` with the qubits' noise values ``noise[s]``, and sample k of
    ``cfg.times`` lies in segment ``segment[k]``."""

    segment: np.ndarray  # (n_samples,) the segment holding each sample
    starts: np.ndarray   # (n_segments,) the time each segment begins
    dts: np.ndarray      # (n_segments,) segment durations
    noise: np.ndarray    # (n_segments, 2) the noise X of qubits a and b
    factor: np.ndarray   # (4, r) with rho0 = factor factor^dagger + floor I
    floor: float
    cfg: SimConfig


def _state_factor(rho0) -> tuple[np.ndarray, float]:
    """A read-only (4, r) factor C and a floor f with rho0 = C C^dagger + f I.

    No unitary moves f I, so only C needs propagating. f is the smallest
    eigenvalue of rho0 once it is above rounding, which leaves C of rank 1
    for a pure state mixed with white noise. C comes from the
    eigen-decomposition and keeps the eigenvalues that stand above f by
    more than rounding. A matrix that fails
    :func:`~esdlab.qmath.validate_density_matrix`, or that has an
    eigenvalue below minus that level, is not a state and raises
    :class:`ParameterError`; nothing beyond rounding is dropped. Results
    are cached by value, so a run factors its initial state once, not per
    trajectory.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    return _factor_of(rho0.tobytes(), rho0.shape)


@lru_cache(maxsize=16)
def _factor_of(data: bytes, shape: tuple) -> tuple[np.ndarray, float]:
    rho0 = np.frombuffer(data, dtype=complex).reshape(shape)
    try:
        validate_density_matrix(rho0, name="rho0")
    except InvalidStateError as exc:  # this engine's bad input is a ParameterError
        raise ParameterError(str(exc)) from None
    lam, vec = np.linalg.eigh(rho0)
    # eigh resolves an eigenvalue only to a few eps times the largest one:
    # zero ones of 1e5 random pure states came out within 2.4 eps
    tol = 16.0 * np.finfo(float).eps * np.abs(lam).max()
    if lam[0] < -tol:
        raise ParameterError(f"rho0 is not a state: eigenvalue {lam[0]:.3e}")
    floor = float(lam[0]) if lam[0] > tol else 0.0
    keep = lam - floor > tol
    factor = vec[:, keep] * np.sqrt(lam[keep] - floor)
    factor.flags.writeable = False
    return factor, floor


def evolve_trajectory(
    rho0: np.ndarray, paths_a: RtnPaths, paths_b: RtnPaths, cfg: SimConfig
) -> TrajectoryResult:
    """Cut one noise realization into segments of constant noise.

    This is the engine's per-trajectory stage. The break points are 0, every
    switch time of either qubit's fluctuators, and ``cfg.t_max``; between
    two of them the noise is constant, so the later stages propagate each
    segment with an exact matrix exponential. The switches of both paths are
    merged in one sort, and each qubit's noise in every segment is its
    initial value plus the running sum of its jumps in time order; a
    trajectory without a switch takes the same code and comes out as one
    segment. Every sample of the grid ``cfg.times`` is given its segment.
    ``rho0`` is checked and factored here; a matrix that is not a density
    matrix raises :class:`ParameterError`.
    """
    factor, floor = _state_factor(rho0)
    times = cfg.times
    # each fluctuator's initial value v*s0; a switch jumps by -2 times the value before it
    vs_a = paths_a.ensemble.couplings * paths_a.initial_states
    vs_b = paths_b.ensemble.couplings * paths_b.initial_states
    x0 = np.array([np.add.reduce(vs_a), np.add.reduce(vs_b)])
    sw_a, sw_b = list(paths_a.switching), list(paths_b.switching)
    switch_times = [paths_a.switch_times[i] for i in sw_a] + [paths_b.switch_times[i] for i in sw_b]
    # integer even when empty: the parities below need an integer cumsum
    counts = np.array([t.size for t in switch_times], dtype=np.intp)
    t = np.concatenate([_NO_SWITCHES, *switch_times])
    # a fluctuator's k-th jump (k = 0, 1, ...) has the sign (-1)^k
    steps = (np.concatenate([vs_a.take(sw_a), vs_b.take(sw_b)]) * -2.0).repeat(counts)
    k = np.arange(t.size) - np.repeat(np.cumsum(counts) - counts, counts)
    steps[k & 1 == 1] *= -1.0
    # one column per qubit; qubit a's switches come first
    n_a = int(counts[:len(sw_a)].sum())
    jumps = np.zeros((t.size, 2))
    jumps[:n_a, 0] = steps[:n_a]
    jumps[n_a:, 1] = steps[n_a:]
    # stable: a qubit's simultaneous switches keep their order
    order = t.argsort(kind="stable")
    noise = np.zeros((t.size + 1, 2))
    np.add.accumulate(jumps.take(order, axis=0), axis=0, out=noise[1:])
    noise += x0
    # times[:1] is [0.0] and times[-1:] is [t_max]
    brk = np.concatenate([times[:1], t.take(order), times[-1:]])
    dts = brk[1:] - brk[:-1]
    if np.count_nonzero(dts) < dts.size:  # simultaneous switches, or one at 0 or t_max
        keep = dts > 0.0
        noise, dts = noise[keep], dts[keep]
        brk = np.concatenate([brk[:-1][keep], times[-1:]])
    return TrajectoryResult(segment=brk[1:-1].searchsorted(times, side="right"), starts=brk[:-1],
                            dts=dts, noise=noise, factor=factor, floor=floor, cfg=cfg)


@dataclass(frozen=True)
class _ChunkTerms:
    """The segments of a chunk of trajectories, propagated: row j of
    ``segment`` and ``taus`` is trajectory j, indexing the chunk's segments.
    At a time tau into segment s the propagated factor of the initial state
    is U C = sum_u coef_u(tau) terms[s, u]. Uncoupled qubits rotate by
    c_q - i s_q (n_q . sigma), with (c_q, s_q) the cosine and sine of
    ``rates[s, q] * tau``, so coef is (c_a c_b, c_a s_b, s_a c_b, s_a s_b).
    Coupled qubits have coef_u = exp(-i rates[s, u] tau), with ``rates``
    the segment's eigen-energies."""

    segment: np.ndarray  # (n_trajectories, n_samples)
    taus: np.ndarray     # (n_trajectories, n_samples)
    rates: np.ndarray    # (n_segments, 2) uncoupled, (n_segments, 4) coupled
    terms: np.ndarray    # (n_segments, 4, 4, r) complex
    floor: float
    coupled: bool


def _chunk_terms(trajectories) -> _ChunkTerms:
    """The engine's chunk stage on trajectories from :func:`evolve_trajectory`.

    Every step is built at once: a tensor product of 2x2 rotations when the
    qubits are uncoupled, a diagonalized 4x4 exponential from one stacked
    ``eigh`` otherwise. The running product restarts with C at each
    trajectory's first segment; uncoupled qubits carry the two qubits' start
    propagators, coupled qubits C in each segment's eigenbasis.
    """
    first = trajectories[0]
    cfg, factor = first.cfg, first.factor
    sizes = np.array([t.dts.size for t in trajectories])
    first_segment = np.cumsum(sizes) - sizes  # of each trajectory
    # segment p of every trajectory that has more than p of them, p = 1, 2, ...
    positions = [first_segment[sizes > pos] + pos for pos in range(1, sizes.max())]
    dts = np.concatenate([t.dts for t in trajectories])
    xa, xb = np.concatenate([t.noise for t in trajectories]).T
    segment = np.concatenate([t.segment for t in trajectories]).reshape(sizes.size, -1)
    segment += first_segment[:, None]
    taus = cfg.times - np.concatenate([t.starts for t in trajectories])[segment]

    qa, qb = cfg.qubit_a, cfg.qubit_b
    ca, sa = math.cos(qa.theta), math.sin(qa.theta)
    cb, sb = math.cos(qb.theta), math.sin(qb.theta)
    wa, va = qa.omega + ca * xa, sa * xa
    wb, vb = qb.omega + cb * xb, sb * xb

    if cfg.coupling_g != 0.0:
        h = (
            0.5 * (wa[:, None, None] * _ZI + va[:, None, None] * _XI)
            + 0.5 * (wb[:, None, None] * _IZ + vb[:, None, None] * _IX)
            + cfg.coupling_term
        )
        rates, vec = np.linalg.eigh(h)
        vec_h = vec.conj().transpose(0, 2, 1)
        # the factor at each segment's start, in that segment's eigenbasis:
        # z[s] = V_s^dagger C at a trajectory's first segment, else
        # z[s] = V_s^dagger V_{s-1} exp(-i lam_{s-1} dt_{s-1}) z[s-1]
        turns = (vec_h[1:] @ vec[:-1]) * np.exp(-1j * rates[:-1] * dts[:-1, None])[:, None, :]
        z = np.empty((dts.size, 4, factor.shape[1]), dtype=complex)
        z[first_segment] = vec_h[first_segment] @ factor
        for cur in positions:
            z[cur] = turns[cur - 1] @ z[cur - 1]
        # term u: eigenvector u times row u of z
        terms = vec.transpose(0, 2, 1)[..., None] * z[:, :, None, :]
    else:
        # a qubit's steps and start propagators are SU(2) matrices
        # [[alpha, -conj(beta)], [beta, conj(alpha)]]; axis 1 is the qubit
        w, v = np.stack([wa, wb], axis=1), np.stack([va, vb], axis=1)
        d = np.hypot(w, v)
        # a zero rate gets a zero axis, so its steps are the identity
        scale = np.where(d > 0.0, d, 1.0)
        nz, nx = w / scale, v / scale
        rates = 0.5 * d
        half = rates * dts[:, None]
        sin = np.sin(half)
        alpha, beta = np.cos(half) - 1j * (sin * nz), -1j * (sin * nx)
        steps = np.stack([alpha, -beta.conj(), beta, alpha.conj()], -1).reshape(-1, 2, 2, 2)
        # a start propagator is carried as its first column [alpha; beta]
        start = np.empty_like(steps[..., :1])
        start[first_segment] = [[1.0], [0.0]]
        for cur in positions:
            start[cur] = steps[cur - 1] @ start[cur - 1]
        alpha, beta = start[..., 0, 0], start[..., 1, 0]
        # at tau into a segment a qubit's propagator is c S + s (-i n.sigma) S;
        # stack S and (-i n.sigma) S on axis 2, then each pair's 2x2 matrix
        al = np.stack([alpha, -1j * (nz * alpha + nx * beta)], axis=-1)
        be = np.stack([beta, -1j * (nx * alpha - nz * beta)], axis=-1)
        p = np.stack([al, -be.conj(), be, al.conj()], axis=-1).reshape(*al.shape, 2, 2)
        pa, pb = p[:, 0], p[:, 1]
        # terms[s, 2u + v] = (pa[s, u] (x) pb[s, v]) C, elementwise, one qubit
        # at a time. As one (16 n_segments, 4) matrix product it took 8 ms a
        # call inside the engine under OpenBLAS's default threads (2-vCPU VM,
        # 141 segments), though 16 us in a tight loop.
        c = factor.reshape(2, 2, -1)  # (b1, b2, column)
        # qubit b on the second index: (s, v, a2, b1, column)
        yb = pb[..., 0, None, None] * c[:, 0] + pb[..., 1, None, None] * c[:, 1]
        # qubit a on the first index: (s, u, v, a1, a2, column)
        terms = (pa[:, :, None, :, None, 0, None] * yb[:, None, :, None, :, 0]
                 + pa[:, :, None, :, None, 1, None] * yb[:, None, :, None, :, 1])
        terms = terms.reshape(dts.size, 4, 4, -1)
    return _ChunkTerms(segment=segment, taus=taus, rates=rates, terms=terms,
                       floor=first.floor, coupled=cfg.coupling_g != 0.0)


def _sampled_sum(chunk: _ChunkTerms, lo: int, hi: int) -> np.ndarray:
    """The engine's sample stage: sum_j U_j rho0 U_j^dagger on the grid over
    the block of a chunk's trajectories lo, ..., hi - 1.

    Each (trajectory, sample) factor U C is a weighted sum of its segment's
    four terms, formed with elementwise arithmetic, so no matrix product
    runs per trajectory. The block's factor columns are then stacked and
    reduced with one Gram product W W^dagger per sample.
    """
    seg = chunk.segment[lo:hi]  # (J, K)
    taus = chunk.taus[lo:hi, :, None]
    rates = chunk.rates.take(seg, axis=0)
    terms = chunk.terms.take(seg, axis=0)  # (J, K, 4, 4, r)
    # w[k] has the block's factor columns (trajectory, column) side by side
    if chunk.coupled:
        coef = np.exp(-1j * rates * taus)
        w = np.einsum("jku,jkuac->kajc", coef, terms)
    else:
        half = rates * taus
        cs = np.stack([np.cos(half), np.sin(half)], axis=-1)  # (J, K, qubit, cos|sin)
        coef = (cs[..., 0, :, None] * cs[..., 1, None, :]).reshape(*seg.shape, 4)
        # real weights: contract over the float view of the complex terms
        flat = terms.view(float)
        w = np.einsum("jku,jkuac->kajc", coef, flat).view(complex)
    w = w.reshape(seg.shape[1], 4, -1)
    return w @ w.conj().transpose(0, 2, 1) + (hi - lo) * chunk.floor * _EYE4


def _chunk_sum(trajectories) -> np.ndarray:
    """sum_j U_j rho0 U_j^dagger on the grid over a chunk of trajectories
    from :func:`evolve_trajectory`: the chunk stage once, then the sample
    stage block by block, in trajectory order."""
    chunk = _chunk_terms(trajectories)
    size = BLOCK_COLUMNS // max(1, trajectories[0].factor.shape[1])
    rho_sum = np.zeros((trajectories[0].cfg.n_samples, 4, 4), dtype=complex)
    for lo in range(0, len(trajectories), size):
        rho_sum += _sampled_sum(chunk, lo, min(lo + size, len(trajectories)))
    return rho_sum


# ---------------------------------------------------------------------------
# ensemble averaging


@dataclass(frozen=True)
class MonteCarloResult:
    """Averaged concurrence curve with batch-means error bars."""

    concurrence: np.ndarray
    stderr: np.ndarray
    rho_mean: np.ndarray


def _trajectory_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, index)))


def _run_chunk(payload):
    rho0, cfg, ens_a, ens_b, start, stop = payload
    trajectories = []
    for i in range(start, stop):
        rng = _trajectory_rng(cfg.seed, i)
        a = rtn_paths(ens_a, cfg.t_max, rng)
        b = rtn_paths(ens_b, cfg.t_max, rng)
        trajectories.append(evolve_trajectory(rho0, a, b, cfg))
    rho_sum = _chunk_sum(trajectories)
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
    ``n_workers``. A ``rho0`` that is not a density matrix raises
    :class:`ParameterError`.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    _state_factor(rho0)  # reject a non-state before any work starts
    ens_a, ens_b = (
        sample_ensemble(
            cfg.n_fluctuators, q.gamma_min, q.gamma_max, q.sigma,
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(key,)),
        )
        for key, q in enumerate((cfg.qubit_a, cfg.qubit_b))
    )
    bounds = _chunk_bounds(cfg.n_trajectories)
    payloads = [
        (rho0, cfg, ens_a, ens_b, bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
    ]
    if n_workers > 1 and len(payloads) > 1:
        # importing the pool loads multiprocessing; one worker needs neither
        from concurrent.futures import ProcessPoolExecutor

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
    return MonteCarloResult(concurrence=conc, stderr=stderr, rho_mean=rho_mean)


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
    rates, stationary initial conditions) as one Monte Carlo path does and
    bins each fluctuator's jumps onto the grid at ``sample_hz`` with
    :func:`_binned_noise` as it draws them, so a row samples the path that
    :func:`rtn_paths` draws from the same seed. Realizations are
    transformed in blocks of ``max(1, PSD_BLOCK_SAMPLES // n_samples)``
    rows, their means removed in place, one Hann-windowed periodogram call
    per block, and the rows are summed in realization order, so the
    estimate is bit-identical for any block size.

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
    if t_max * sample_hz > _MAX_COUNT:
        raise ParameterError(f"segment of {t_max * sample_hz:.3g} samples is too long for an array")
    dt = 1.0 / sample_hz
    # round the segment up to an FFT-friendly length; awkward sizes cost
    # more in the transform than in the signal generation
    from scipy import signal as _signal  # slow to import; only this needs it
    from scipy.fft import next_fast_len

    n_samples = next_fast_len(max(4, int(round(t_max * sample_hz))))
    horizon = (n_samples - 1) * dt  # the last sample's time
    t_max = n_samples * dt
    window = _signal.get_window("hann", n_samples)
    children = np.random.SeedSequence(rng_seed).spawn(n_realizations)
    rows = max(1, PSD_BLOCK_SAMPLES // n_samples)
    block = np.empty((min(rows, n_realizations), n_samples))
    acc = 0.0
    for start in range(0, n_realizations, rows):
        part = children[start:start + rows]
        for x, child in zip(block, part):
            signs, switches = _draw_path(ens, horizon, np.random.default_rng(child))
            _binned_noise(ens.couplings, signs, switches, horizon, n_samples, out=x)
        # scipy's detrend="constant" would subtract the same means from a copy
        signals = block[:len(part)]
        signals -= signals.mean(axis=-1, keepdims=True)
        freqs, pxx = _signal.periodogram(
            signals, fs=sample_hz, window=window, detrend=False, scaling="density", axis=-1,
        )
        for row in pxx:  # realization order, as one periodogram at a time
            acc += row
    acc /= n_realizations
    keep = freqs > 0.0
    omega = 2.0 * math.pi * freqs[keep]
    # one-sided Hz density -> two-sided angular density
    s_est = acc[keep] / 2.0
    s_target = _one_over_f(ens.sigma, ens.gamma_min, ens.gamma_max, omega)
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


def _one_over_f(sigma: float, gamma_min: float, gamma_max: float, omega):
    """The 1/f law of the module docstring at angular frequency omega."""
    return math.pi * sigma**2 / (math.log(gamma_max / gamma_min) * omega)


@dataclass(frozen=True)
class OneOverFFit:
    """Log-log fit of an estimated spectrum inside the 1/f band."""

    slope: float
    amplitude_ratio: float
    band_omega: tuple[float, float]


def fit_one_over_f(est: PsdEstimate) -> OneOverFFit:
    """Fit slope and amplitude over the trustworthy band [10 gm, gM/10] (Hz).

    The band must span at least one decade, i.e. gamma_max/gamma_min >= 1000,
    and hold power in each of its log-spaced bins. The amplitude is compared
    against the 1/f law at the geometric band center, where band-edge
    roll-off is negligible.
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
    if (s_binned <= 0.0).any():  # no low-frequency noise: a log-log fit has nothing to fit
        raise ParameterError("no power in the fit band")
    slope, intercept = np.polyfit(np.log(w_binned), np.log(s_binned), 1)
    w_center = math.sqrt(w_lo * w_hi)
    fitted_center = math.exp(intercept + slope * math.log(w_center))
    target_center = _one_over_f(est.sigma, est.gamma_min, est.gamma_max, w_center)
    return OneOverFFit(
        slope=float(slope),
        amplitude_ratio=float(fitted_center / target_center),
        band_omega=(w_lo, w_hi),
    )
