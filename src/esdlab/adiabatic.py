"""Static-path channel for low-frequency noise and its closed-form results.

Slow environmental fluctuations are frozen to a random offset X drawn from a
zero-mean Gaussian of width sigma. To second order the offset shifts the
qubit splitting by ``cos(theta) X + sin(theta)^2 X^2 / (2 omega)``, and
averaging the accumulated phase over X gives the coherence-suppression
factor implemented here. Populations do not move in this channel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .constants import SPA_SIGMA_RATIO_WARN
from .errors import ParameterError
from .states import EWLParams, critical_purity

__all__ = [
    "AdiabaticParams",
    "ESDResult",
    "spa_kernel",
    "spa_coherence_modulus",
    "adiabatic_k",
    "adiabatic_concurrence",
    "esd_time_optimal",
    "esd_time_dephasing",
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
        if self.omega <= 0.0:
            raise ParameterError(f"omega must be positive, got {self.omega}")
        if self.sigma < 0.0:
            raise ParameterError(f"sigma must be non-negative, got {self.sigma}")
        if not 0.0 <= self.theta <= math.pi:
            raise ParameterError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 < self.gamma_min < self.gamma_max:
            raise ParameterError(
                f"need 0 < gamma_min < gamma_max, got [{self.gamma_min}, {self.gamma_max}]"
            )
        if self.sigma / self.omega > SPA_SIGMA_RATIO_WARN:
            warnings.warn(
                f"sigma/omega = {self.sigma / self.omega:.3g} exceeds "
                f"{SPA_SIGMA_RATIO_WARN}; the static-path treatment degrades "
                "for strong noise",
                stacklevel=2,
            )


def _check_times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ParameterError("time must be non-negative")
    return t


def spa_kernel(t, p: AdiabaticParams) -> np.ndarray | complex:
    """Complex coherence-suppression factor of the static-path average.

    Gaussian average of ``exp(-i (c X + s^2 X^2 / 2 omega) t)`` evaluated in
    closed form: ``exp(-(c sigma t)^2 / (2 A)) / sqrt(A)`` with
    ``A = 1 + i s^2 sigma^2 t / omega``. Excludes the deterministic
    ``exp(-i omega t)`` rotation.
    """
    t = _check_times(t)
    c = math.cos(p.theta)
    s = math.sin(p.theta)
    a = 1.0 + 1j * (s * s * p.sigma * p.sigma / p.omega) * t
    out = np.exp(-((c * p.sigma * t) ** 2) / (2.0 * a)) / np.sqrt(a)
    return out if out.ndim else complex(out)


def spa_coherence_modulus(t, p: AdiabaticParams) -> np.ndarray | float:
    """|spa_kernel|: 1 at t=0, non-increasing, dimensionless.

    Computed from the real closed form
    ``exp(-(c sigma t)^2 / (2 (1 + u^2))) / (1 + u^2)^(1/4)`` with
    ``u = (s sigma)^2 t / omega``.
    """
    t = _check_times(t)
    c = math.cos(p.theta)
    s = math.sin(p.theta)
    u = (s * p.sigma) ** 2 * t / p.omega
    one_plus = 1.0 + u * u
    out = np.exp(-0.5 * (c * p.sigma * t) ** 2 / one_plus) / one_plus**0.25
    return out if out.ndim else float(out)


def adiabatic_k(t, p_a: AdiabaticParams, p_b: AdiabaticParams, state: EWLParams):
    """Pre-clamp K(t) = r|ab| |z_A||z_B| - (1-r)/4 under static noise only."""
    m = spa_coherence_modulus(t, p_a) * spa_coherence_modulus(t, p_b)
    return state.r * state.ab_mod * m - (1.0 - state.r) / 4.0


def adiabatic_concurrence(
    t, p_a: AdiabaticParams, p_b: AdiabaticParams, state: EWLParams
):
    """Concurrence of an extended Werner-like state under static noise.

    Identical for both flavors: ``max(0, 2 r |ab| |z_A z_B| - (1-r)/2)``.
    """
    return np.maximum(0.0, 2.0 * adiabatic_k(t, p_a, p_b, state))


@dataclass(frozen=True)
class ESDResult:
    """Disentanglement (or level-crossing) time of a concurrence curve.

    ``time is None`` means the concurrence never reaches the target: by
    t_max for a search, at any finite time for a closed form.
    ``never_entangled`` marks an initial state that is already separable
    (time 0). ``method`` is "closed_form", "bisection" or "grid";
    ``bracket`` encloses a searched root and is None for closed forms.
    """

    time: float | None
    bracket: tuple[float, float] | None
    method: str
    never_entangled: bool = False

    @property
    def is_infinite(self) -> bool:
        return self.time is None


_closed_form = partial(ESDResult, bracket=None, method="closed_form")


def esd_time_optimal(state: EWLParams, sigma: float, omega: float) -> ESDResult:
    """Closed-form disentanglement time for two identical qubits at theta=pi/2.

    ``t = (omega / sigma^2) sqrt(16 |ab|^2 r^2 / (1-r)^2 - 1)``. Pure states
    (r=1) never disentangle under this channel; states at or below the
    critical purity start separable.
    """
    if sigma <= 0.0 or omega <= 0.0:
        raise ParameterError("sigma and omega must be positive")
    return _esd_closed_form(state, lambda ratio: omega / sigma**2 * math.sqrt(16.0 * ratio**2 - 1.0),
                            lambda ratio: 16.0 * ratio**2 - 1.0)


def esd_time_dephasing(state: EWLParams, sigma: float) -> ESDResult:
    """Closed-form disentanglement time for two identical qubits at theta=0.

    ``t = sqrt(ln(4 |ab| r / (1-r))) / sigma``, finite when the log argument
    exceeds 1.
    """
    if sigma <= 0.0:
        raise ParameterError("sigma must be positive")
    return _esd_closed_form(state, lambda ratio: math.sqrt(math.log(4.0 * ratio)) / sigma,
                            lambda ratio: 4.0 * ratio - 1.0)


def _esd_closed_form(state: EWLParams, formula, radicand) -> ESDResult:
    # Both closed forms share the same regime logic; `ratio` is
    # |ab| r / (1 - r), and `radicand` must be positive for a finite root.
    r = state.r
    if r >= 1.0:  # a pure state's concurrence stays positive
        return _closed_form(time=None)
    r_star = critical_purity(state.a)
    ratio = state.ab_mod * r / (1.0 - r)
    if r <= r_star or state.ab_mod == 0.0:
        return _closed_form(time=0.0, never_entangled=True)
    if radicand(ratio) < 0.0:
        # unreachable for r > r*; kept as a guard against rounding at the
        # separability boundary
        return _closed_form(time=None)
    return _closed_form(time=formula(ratio))
