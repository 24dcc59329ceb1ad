"""Static-path channel for low-frequency noise and its closed-form results.

Slow environmental fluctuations are frozen to a random offset X drawn from a
zero-mean Gaussian of width sigma. To second order the offset shifts the
qubit splitting by ``cos(theta) X + sin(theta)^2 X^2 / (2 omega)``, and
averaging the accumulated phase over X gives the complex
coherence-suppression factor :func:`spa_kernel`; the concurrence scales
with its modulus. Populations do not move in this channel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import OPTIMAL_POINT_TOL, SPA_SIGMA_RATIO_WARN
from .errors import ParameterError
from .states import EWLParams, ewl_concurrence

__all__ = [
    "AdiabaticParams",
    "spa_kernel",
    "adiabatic_concurrence",
]


@dataclass(frozen=True)
class AdiabaticParams:
    """Per-qubit splitting, operating angle and low-frequency noise figures.

    ``omega`` is the level splitting (rad/s), ``theta`` the angle between
    the noise axis (z) and the splitting direction, ``sigma`` the standard
    deviation of the quasi-static offset (rad/s), and ``gamma_min`` /
    ``gamma_max`` the switching-rate band (1/s) of the fluctuators that
    realize the low-frequency spectrum.
    """

    omega: float
    theta: float
    sigma: float
    gamma_min: float = 1.0
    gamma_max: float = 1.0e6

    def __post_init__(self) -> None:
        if not 0.0 < self.omega < math.inf:
            raise ParameterError(f"omega must be positive and finite, got {self.omega}")
        if not 0.0 <= self.sigma < math.inf:
            raise ParameterError(f"sigma must be non-negative and finite, got {self.sigma}")
        if not 0.0 <= self.theta <= math.pi:
            raise ParameterError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 < self.gamma_min < self.gamma_max < math.inf:
            raise ParameterError(
                f"need 0 < gamma_min < gamma_max < inf, got [{self.gamma_min}, {self.gamma_max}]"
            )

    @property
    def at_optimal_point(self) -> bool:
        """True at theta = pi/2, to within ``OPTIMAL_POINT_TOL``."""
        return abs(self.theta - math.pi / 2.0) <= OPTIMAL_POINT_TOL


def _warn_if_strong(p: AdiabaticParams) -> None:
    """Warn the caller of a static-path computation on p that its noise is too strong."""
    if p.sigma / p.omega > SPA_SIGMA_RATIO_WARN:
        warnings.warn(f"sigma/omega = {p.sigma / p.omega:.3g} exceeds {SPA_SIGMA_RATIO_WARN}; the "
                      "static-path treatment degrades for strong noise", stacklevel=3)


def _check_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t < math.inf)):  # a nan fails both
        raise ParameterError("time must be non-negative and finite")
    return t


def spa_kernel(t, p: AdiabaticParams) -> np.ndarray | complex:
    """Complex coherence-suppression factor of the static-path average.

    Gaussian average of ``exp(-i (c X + s^2 X^2 / 2 omega) t)`` evaluated in
    closed form: ``exp(-(c sigma t)^2 / (2 A)) / sqrt(A)`` with
    ``A = 1 + i s^2 sigma^2 t / omega``. Excludes the deterministic
    ``exp(-i omega t)`` rotation.
    """
    t = _check_times(t)
    _warn_if_strong(p)
    c = math.cos(p.theta)
    s = math.sin(p.theta)
    a = 1.0 + 1j * (s * s * p.sigma * p.sigma / p.omega) * t
    out = np.exp(-((c * p.sigma * t) ** 2) / (2.0 * a)) / np.sqrt(a)
    return out if out.ndim else complex(out)


def adiabatic_concurrence(
    t, p_a: AdiabaticParams, p_b: AdiabaticParams, state: EWLParams
):
    """Concurrence of an extended Werner-like state under static noise.

    Both coherences scale by m = |z_A z_B|, so the curve is the same for
    both flavors: ``max(0, 2 r |ab| m - (1-r)/2)``.
    """
    m = np.abs(spa_kernel(t, p_a) * spa_kernel(t, p_b))
    return ewl_concurrence(state, m, m)
