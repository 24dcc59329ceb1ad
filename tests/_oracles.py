"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they check:

- ``interplay_concurrence_bell`` is the paper's closed form for an initial
  Bell state, with its own relaxation weight and Gibbs populations; it gates
  the library's composed-channel curve;
- ``xstate_k`` is the K1/K2 rule of an X-state density matrix, read off the
  matrix elements, and ``is_x_state`` checks that a state has X form;
- ``critical_purity`` is the separability threshold r* of the extended
  Werner-like states;
- the coherence oracle integrates the Gaussian phase average by composite
  quadrature instead of using the closed form;
- the periodogram oracle is a numpy FFT instead of scipy.signal.
"""

from __future__ import annotations

import math

import numpy as np

from esdlab.constants import HBAR, K_B

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
