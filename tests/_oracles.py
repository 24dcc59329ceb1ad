"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they check: the eigenvalue oracle is
a plain Jacobi rotation sweep, the coherence oracle integrates the Gaussian
phase average by composite quadrature instead of using the closed form, and
the periodogram oracle is a numpy FFT instead of scipy.signal.
"""

from __future__ import annotations

import math

import numpy as np


def jacobi_hermitian_eigenvalues(h, max_sweeps: int = 200, tol: float = 1e-15):
    """Eigenvalues of a complex Hermitian matrix via explicit 2x2 rotations."""
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    scale = max(1.0, float(np.abs(a).max()))
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                hpq = a[p, q]
                if abs(hpq) <= tol * scale:
                    continue
                phase = hpq / abs(hpq)
                app = a[p, p].real
                aqq = a[q, q].real
                # zeroing (J^H A J)[p,q] with J[p,q] = -s*phase requires
                # cot(2 theta) = (app - aqq) / (2 |hpq|)
                tau = (app - aqq) / (2.0 * abs(hpq))
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                j = np.eye(n, dtype=complex)
                j[p, p] = c
                j[p, q] = -s * phase
                j[q, p] = s * np.conj(phase)
                j[q, q] = c
                a = j.conj().T @ a @ j
    return np.sort(a.diagonal().real)[::-1]


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
