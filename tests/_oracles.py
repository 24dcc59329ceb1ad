"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they check:

- ``interplay_concurrence_bell`` is the paper's closed form for an initial
  Bell state, with its own relaxation weight and Gibbs populations; it gates
  the library's composed-channel curve;
- ``xstate_k`` is the K1/K2 rule of an X-state density matrix, read off the
  matrix elements; it gates the package's one X-state evaluator,
  ``esdlab.states.ewl_concurrence``, which never builds that matrix, and
  ``is_x_state`` checks that a state has X form;
- ``critical_purity`` is the separability threshold r* of the extended
  Werner-like states;
- ``bisect_first_zero`` is the scalar ESD search: the log-grid scan's first
  sign-change bracket halved with one scalar curve call per step, instead of
  the library's array search that splits it in 64 parts per call;
- the coherence oracle integrates the Gaussian phase average by composite
  quadrature instead of using the closed form;
- the periodogram oracle is a numpy FFT instead of scipy.signal;
- ``trajectory_states`` propagates one noise realization and expands it onto
  every sample with stacked matrix products, one trajectory at a time; it
  gates the engine's three stages. Its piecewise-constant noise comes from
  ``noise_segments``, which sorts each qubit's switches on their own,
  instead of the engine's merge of both qubits' switches.
"""

from __future__ import annotations

import math

import numpy as np

from esdlab.constants import ESD_RELATIVE_TOL, HBAR, K_B
from esdlab.qmath import SIGMA_X, SIGMA_Z
from esdlab.stochastic import _switch_jumps

# Indices of the eight off-X elements (everything outside diagonal and
# anti-diagonal).
_OFF_X = ((0, 0, 1, 1, 2, 3, 3, 2), (1, 2, 0, 3, 0, 1, 2, 0))


def is_x_state(rho, tol: float) -> bool:
    """True when all eight off-X elements have modulus at most ``tol``."""
    return bool(np.abs(np.asarray(rho)[_OFF_X]).max() <= tol)


def xstate_k(rho) -> tuple[float, float]:
    """Unclamped pair (K1, K2) of an X state; its concurrence is 2 max(0, K1, K2).

    K1 = |rho_12| - sqrt(rho_00 rho_33) compares the one-excitation coherence
    with its population penalty; K2 = |rho_03| - sqrt(rho_11 rho_22) is the
    two-excitation counterpart.
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.diagonal().real
    k1 = abs(rho[1, 2]) - math.sqrt(max(d[0] * d[3], 0.0))
    k2 = abs(rho[0, 3]) - math.sqrt(max(d[1] * d[2], 0.0))
    return float(k1), float(k2)


def xstate_concurrence(rho) -> float:
    return 2.0 * max(0.0, *xstate_k(rho))


def critical_purity(a: complex) -> float:
    """Purity threshold r* = 1 / (1 + 4|ab|) below which the state is separable."""
    mod_a = abs(a)
    ab = mod_a * math.sqrt(max(0.0, 1.0 - mod_a**2))
    return 1.0 / (1.0 + 4.0 * ab)


def bisect_first_zero(c, t_max: float) -> tuple[float, float, float]:
    """(root, lo, hi) of the first zero of ``c`` on [0, t_max], with the
    invariant c(lo) > 0 >= c(hi) and relative width ``ESD_RELATIVE_TOL``.

    The bracket comes from the same log grid as the library's scan; bisection
    then calls ``c`` on one scalar time per step. The curve clamps at zero
    past the root, so bisection homes in on the first touch point.
    """
    grid = np.concatenate([[0.0], np.geomspace(t_max * 1e-12, t_max, 10_000)])
    i = int(np.nonzero(np.asarray(c(grid)) <= 0.0)[0][0])
    lo, hi = grid[i - 1], grid[i]
    while hi - lo > ESD_RELATIVE_TOL * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if float(c(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), lo, hi


def interplay_concurrence_bell(t, flavor: str, ad, qn):
    """Closed-form concurrence of an initial Bell state (r=1, a=1/sqrt2).

    Valid for identical qubits ``ad`` at the optimal point (theta = pi/2)
    under quantum noise ``qn``. The one-excitation flavor ("phi") pays a
    population penalty proportional to sqrt(p0_inf p1_inf), the
    two-excitation flavor ("psi") one driven by relaxation into the singly
    excited levels; both share the coherence term
    ``exp(-t/T1) / (2 |1 + (i omega + 1/T1) sigma^2 t / omega^2|)``, with
    1/T1 = S(omega)/2.
    """
    t = np.asarray(t, dtype=float)
    inv_t1 = 0.5 * qn.s_white
    e = np.exp(-inv_t1 * t)
    x = math.tanh(HBAR * ad.omega / (2.0 * K_B * qn.temperature))
    p0, p1 = 0.5 * (1.0 + x), 0.5 * (1.0 - x)
    bracket = 1.0 + (1j * ad.omega + inv_t1) * ad.sigma**2 * t / ad.omega**2
    coh = 0.5 * e / np.abs(bracket)
    sq = p0**2 + p1**2
    cross = p0 * p1
    if flavor == "phi":
        k = coh - math.sqrt(cross) * (1.0 - e) * np.sqrt(sq * e + cross * (1.0 + e * e))
    else:
        k = coh - 0.5 * (1.0 - e) * (sq * e + 2.0 * cross)
    c = 2.0 * np.maximum(0.0, k)
    return c if c.ndim else float(c)


def gaussian_average_coherence(
    t: float, omega: float, theta: float, sigma: float, half_width: float = 8.0
) -> complex:
    """Numerical Gaussian average of exp(-i (c X + s^2 X^2 / 2 omega) t).

    Composite 10-point Gauss-Legendre over [-half_width*sigma,
    half_width*sigma], with the panel count scaled to the fastest phase
    oscillation so every panel sees at most ~1.5 rad.
    """
    if sigma == 0.0 or t == 0.0:
        return 1.0 + 0.0j
    c = math.cos(theta)
    s = math.sin(theta)
    xmax = half_width * sigma
    rate = (abs(c) + s * s * xmax / omega) * t
    n_panels = max(200, int(rate * xmax / 1.5) + 1)
    nodes, weights = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(-xmax, xmax, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    pdf = np.exp(-(x**2) / (2.0 * sigma**2)) / (math.sqrt(2.0 * math.pi) * sigma)
    phase = (c * x + s * s * x * x / (2.0 * omega)) * t
    return complex(np.sum(w * pdf * np.exp(-1j * phase)))


def combined_coherence_modulus(t: float, omega: float, sigma: float, t1: float) -> float:
    """|coherence factor| at the optimal point from the exponent's real part.

    The exponent is ``-i omega t - ln(B)/2 - t/(2 T1)`` with
    ``B = 1 + (i omega + 1/T1) sigma^2 t / omega^2``; its real part is
    assembled here term by term, independent of the library's complex-valued
    implementation.
    """
    mod_b_sq = (1.0 + sigma**2 * t / (omega**2 * t1)) ** 2 + (sigma**2 * t / omega) ** 2
    return math.exp(-0.5 * t / t1) * mod_b_sq**-0.25


def hann_periodogram(x, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, one-sided power spectral density) of each row of x.

    Mean removed, periodic Hann window, density scaling: |FFT|^2 over
    fs * sum(window^2), with every bin but DC and an even length's Nyquist
    doubled to fold in the negative frequencies.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    spectrum = np.fft.rfft((x - x.mean(axis=-1, keepdims=True)) * window, axis=-1)
    pxx = np.abs(spectrum) ** 2 / (fs * np.sum(window**2))
    pxx[..., 1:(n + 1) // 2] *= 2.0
    return np.fft.rfftfreq(n, 1.0 / fs), pxx


_EYE2 = np.eye(2, dtype=complex)
_ZI, _XI = np.kron(SIGMA_Z, _EYE2), np.kron(SIGMA_X, _EYE2)
_IZ, _IX = np.kron(_EYE2, SIGMA_Z), np.kron(_EYE2, SIGMA_X)


def _rotations(w, v, taus):
    """exp(-i (w sz + v sx) tau / 2) per entry, as 2x2 matrices."""
    d = np.hypot(w, v)
    scale = np.where(d > 0.0, d, 1.0)[..., None, None]
    axis = (w[..., None, None] * SIGMA_Z + v[..., None, None] * SIGMA_X) / scale
    half = 0.5 * d * taus
    return np.cos(half)[..., None, None] * _EYE2 - 1j * np.sin(half)[..., None, None] * axis


def _running_product(steps):
    """Propagator at the start of each segment (third-to-last axis)."""
    acc = np.empty_like(steps)
    acc[..., 0, :, :] = np.eye(steps.shape[-1])
    for i in range(1, steps.shape[-3]):
        acc[..., i, :, :] = steps[..., i - 1, :, :] @ acc[..., i - 1, :, :]
    return acc


def noise_segments(paths) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant X(t) of one path as (edges, values).

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


def trajectory_states(rho0, paths_a, paths_b, cfg) -> np.ndarray:
    """(n_samples, 4, 4) conditional states U rho0 U^dagger of one noise
    realization on ``np.linspace(0, cfg.t_max, cfg.n_samples)``.

    Each segment's step is an exact exponential: a tensor product of 2x2
    rotations for uncoupled qubits, a diagonalized 4x4 exponential
    otherwise. The propagator at every sample is the step from its
    segment's start times the running product of the earlier steps, and
    rho0 is applied to each sample's 4x4 propagator.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    times = np.linspace(0.0, cfg.t_max, cfg.n_samples)
    edges_a, vals_a = noise_segments(paths_a)
    edges_b, vals_b = noise_segments(paths_b)
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
        axis_a = sa * SIGMA_X + ca * SIGMA_Z
        axis_b = sb * SIGMA_X + cb * SIGMA_Z
        h = (
            0.5 * (wa[:, None, None] * _ZI + va[:, None, None] * _XI)
            + 0.5 * (wb[:, None, None] * _IZ + vb[:, None, None] * _IX)
            - 0.5 * cfg.coupling_g * np.kron(axis_a, axis_b)
        )
        lam, vec = np.linalg.eigh(h)
        vec_h = vec.conj().transpose(0, 2, 1)
        starts = _running_product((vec * np.exp(-1j * lam * dts[:, None])[:, None, :]) @ vec_h)
        phases = np.exp(-1j * lam[seg] * taus[:, None])
        out = (vec[seg] * phases[:, None, :]) @ vec_h[seg] @ starts[seg]
    else:
        w, v = np.stack([wa, wb]), np.stack([va, vb])
        starts = _running_product(_rotations(w, v, dts))
        factors = _rotations(w[:, seg], v[:, seg], taus) @ starts[:, seg]
        out = np.einsum("kab,kcd->kacbd", *factors).reshape(-1, 4, 4)
    return out @ rho0 @ out.conj().transpose(0, 2, 1)
