"""Static-path channel for low-frequency noise and its closed-form results.

Slow environmental fluctuations are frozen to a random offset X drawn from a
zero-mean Gaussian of width sigma. To second order the offset shifts the
qubit splitting by ``cos(theta) X + sin(theta)^2 X^2 / (2 omega)``, and
averaging the accumulated phase over X gives the coherence-suppression
factor implemented here. Populations do not move in this channel; the
closed-form disentanglement times solve :func:`esdlab.states.ewl_concurrence`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .constants import SPA_SIGMA_RATIO_WARN
from .errors import ParameterError
from .states import EWLParams, ewl_concurrence

__all__ = [
    "AdiabaticParams",
    "ESDResult",
    "spa_kernel",
    "spa_coherence_modulus",
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
                stacklevel=3,  # past the dataclass __init__ to its caller
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


def adiabatic_concurrence(
    t, p_a: AdiabaticParams, p_b: AdiabaticParams, state: EWLParams
):
    """Concurrence of an extended Werner-like state under static noise.

    Both coherences scale by m = |z_A z_B|, so the curve is the same for
    both flavors: ``max(0, 2 r |ab| m - (1-r)/2)``.
    """
    m = spa_coherence_modulus(t, p_a) * spa_coherence_modulus(t, p_b)
    return ewl_concurrence(state, m, m)


@dataclass(frozen=True)
class ESDResult:
    """Disentanglement time of a concurrence curve.

    ``time is None`` means the concurrence never reaches zero: by t_max for
    a search; for a closed form, at any finite time, which happens for an
    entangled pure state (r = 1, |ab| > 0) and for any entangled state
    without static noise (sigma = 0), whose concurrence stays constant.
    ``never_entangled`` marks an initial state that is already separable
    (time 0). ``method`` is "closed_form", "bisection" (the array search of
    :func:`esdlab.analysis.find_crossing_time`, which splits its bracket in
    64 parts per curve call) or "grid" (a sampled curve); ``bracket``
    encloses a searched root and is None for closed forms.
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

    ``t = (omega / sigma^2) sqrt(16 |ab|^2 r^2 / (1-r)^2 - 1)``. Entangled
    pure states (r=1) never disentangle under this channel, nor does any
    entangled state at sigma = 0; states with zero concurrence at t=0 start
    separable.
    """
    if sigma < 0.0 or omega <= 0.0:
        raise ParameterError("sigma must be non-negative and omega positive")
    return _esd_closed_form(
        state, sigma, lambda ratio: omega / sigma**2 * math.sqrt(16.0 * ratio**2 - 1.0)
    )


def esd_time_dephasing(state: EWLParams, sigma: float) -> ESDResult:
    """Closed-form disentanglement time for two identical qubits at theta=0.

    ``t = sqrt(ln(4 |ab| r / (1-r))) / sigma``, finite when the log argument
    exceeds 1 and sigma > 0.
    """
    if sigma < 0.0:
        raise ParameterError("sigma must be non-negative")
    return _esd_closed_form(
        state, sigma, lambda ratio: math.sqrt(math.log(4.0 * ratio)) / sigma
    )


def _esd_closed_form(state: EWLParams, sigma: float, formula) -> ESDResult:
    # Both closed forms share the same regime logic; `ratio` is |ab| r / (1 - r).
    r = state.r
    if ewl_concurrence(state, 1.0, 1.0) <= 0.0:  # the curve's own C(0): separable at t=0
        return _closed_form(time=0.0, never_entangled=True)
    # an entangled pure state's concurrence stays positive, and without
    # static noise every concurrence stays at its initial value
    if r >= 1.0 or sigma == 0.0:
        return _closed_form(time=None)
    # C(0) > 0 means K(0) = fl(r |ab|) - sqrt(fl(1 - r)^2 / 16) > 0, and in
    # binary floating point sqrt(x*x) is x, so fl(r |ab|) > fl(1 - r) / 4.
    # Rounding the quotient is monotone, so ratio >= 1/4: both radicands,
    # 16 ratio^2 - 1 and ln(4 ratio), are non-negative
    ratio = state.ab_mod * r / (1.0 - r)
    return _closed_form(time=formula(ratio))
