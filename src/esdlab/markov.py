"""Weak-coupling quantum-noise channel and two-qubit channel composition.

High-frequency noise at the qubit splitting, coupled along sin(theta)
sigma_x + cos(theta) sigma_z as the telegraph engine couples its bath, acts
at the Bloch-Redfield rates of a white spectrum S = s_white: populations
relax toward the thermal values at Gamma_1 = sin^2(theta) / T1, and the
coherence decays at Gamma_2 = (sin^2(theta) / 2 + cos^2(theta)) / T1, with
T1 = 2 / s_white (so the pure dephasing rate is cos^2(theta) s_white / 2).
Low-frequency defocusing multiplies the coherence by the static-path factor
from :mod:`esdlab.adiabatic`. At the optimal point the two mechanisms entangle
inside one logarithm and the coherence is

    rho_01(t) = rho_01(0) exp(-i omega t - t/(2 T1))
                / sqrt(1 + (i omega + 1/T1) sigma^2 t / omega^2),

which is what this module implements there; away from the optimal point the
decay factorizes into the static-path kernel times exp(-i omega t - Gamma_2 t).

Populations relax by one map, ``_population_map``, and the
concurrence is :func:`esdlab.states.ewl_concurrence` of what the channel leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adiabatic import AdiabaticParams, _check_times, _warn_if_strong, spa_kernel
from .constants import HBAR, K_B
from .errors import ParameterError
from .qmath import validate_density_matrix, validate_single_qubit_map
from .states import EWLParams, ewl_concurrence, ewl_populations

__all__ = [
    "QuantumNoiseParams",
    "gibbs_populations",
    "proven_esd_time",
    "coherence_factor",
    "single_qubit_map",
    "compose_two_qubit",
    "interplay_concurrence",
]


@dataclass(frozen=True)
class QuantumNoiseParams:
    """White-noise level at the splitting, S(omega), and bath temperature.

    ``s_white = 0`` switches the quantum channel off (infinite T1).
    """

    s_white: float
    temperature: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.s_white < math.inf:
            raise ParameterError(f"s_white must be non-negative and finite, got {self.s_white}")
        if not 0.0 < self.temperature < math.inf:
            raise ParameterError(f"temperature must be positive and finite, got {self.temperature}")

    @property
    def t1(self) -> float:
        """Relaxation time 2 / S(omega) at theta = pi/2."""
        return math.inf if self.s_white == 0.0 else 2.0 / self.s_white


def gibbs_populations(omega: float, temperature: float) -> tuple[float, float]:
    """Thermal populations (p0, p1), with p1 - p0 = -tanh(hbar omega / 2 kB T).
    p1 = q / (1 + q) underflows below about 1 mK at omega = 1e11 rad/s."""
    if omega <= 0.0 or temperature <= 0.0:
        raise ParameterError("omega and temperature must be positive")
    q = math.exp(-HBAR * omega / (K_B * temperature))
    p1 = q / (1.0 + q)
    return 1.0 - p1, p1


def _kept_share(t, ad: AdiabaticParams, qn: QuantumNoiseParams):
    """e = exp(-Gamma_1 t): the share of a qubit's populations not relaxed at times t."""
    return np.exp(-_check_times(t) * math.sin(ad.theta) ** 2 / qn.t1)


def _population_map(e, ad: AdiabaticParams, qn: QuantumNoiseParams) -> np.ndarray:
    """(..., 2, 2) map e I + (1 - e) G of one qubit's populations (p0, p1):
    the share e stays, and G sends the rest to the Gibbs populations."""
    e = np.asarray(e)[..., None, None]
    p0, p1 = gibbs_populations(ad.omega, qn.temperature)
    return e * np.eye(2) + (1.0 - e) * np.array([[p0, p0], [p1, p1]])


def _joint_populations(state: EWLParams, map_a: np.ndarray, map_b: np.ndarray) -> np.ndarray:
    """rho_00 .. rho_33 (last axis) once each qubit's population map acts on its index."""
    joint = map_a @ ewl_populations(state).reshape(2, 2) @ np.swapaxes(map_b, -1, -2)
    return joint.reshape(*joint.shape[:-2], 4)


def proven_esd_time(state: EWLParams, ad_a: AdiabaticParams, ad_b: AdiabaticParams,
                    qn: QuantumNoiseParams) -> float | None:
    """The disentanglement time where the parameters settle it, else None:
    0.0 for a state separable at t = 0, ``math.inf`` for one that stays
    entangled because nothing decays or because a population facing its pure
    part's coherence (rho_00 or rho_33 for "phi", rho_11 or rho_22 for "psi")
    stays zero while no coherence factor vanishes at finite t. A joint
    population sums non-negative terms, so it is zero at every t > 0 or at
    none, and one map shows it: e = 1/2 on a qubit that relaxes, else e = 1."""
    if ewl_concurrence(state, 1.0, 1.0) <= 0.0:
        return 0.0
    if qn.s_white == 0.0 and ad_a.sigma == ad_b.sigma == 0.0:
        return math.inf
    maps = (_population_map(0.5 if math.sin(ad.theta) ** 2 / qn.t1 > 0.0 else 1.0, ad, qn)
            for ad in (ad_a, ad_b))
    diag = _joint_populations(state, *maps)
    return math.inf if diag[[0, 3] if state.flavor == "phi" else [1, 2]].min() == 0.0 else None


def coherence_factor(t, ad: AdiabaticParams, qn: QuantumNoiseParams):
    """Full complex single-qubit coherence multiplier at time t.

    At theta = pi/2 the exact combined form is used for every T1 (the
    relaxation rate enters the defocusing bracket, where 1/T1 = 0 leaves the
    static-path bracket); elsewhere the static-path kernel and the Markovian
    factor exp(-Gamma_2 t) multiply. With ``s_white = 0`` both reduce to the
    pure static-path result. A negative time raises :class:`ParameterError`.
    """
    t = _check_times(t)
    s2, c2 = math.sin(ad.theta) ** 2, math.cos(ad.theta) ** 2
    base = np.exp(-1j * ad.omega * t - (0.5 * s2 + c2) * t / qn.t1)
    if ad.at_optimal_point:
        _warn_if_strong(ad)
        bracket = 1.0 + (1j * ad.omega + s2 / qn.t1) * ad.sigma**2 * t / ad.omega**2
        out = base / np.sqrt(bracket)
    else:
        out = base * spa_kernel(t, ad)
    return out if out.ndim else complex(out)


def single_qubit_map(
    t: float, ad: AdiabaticParams, qn: QuantumNoiseParams
) -> np.ndarray:
    """Transfer tensor T[i,i',l,l'] of the combined channel at time t.

    Populations relax toward the thermal values with weight
    exp(-sin(theta)^2 t/T1) (the static noise is longitudinal and leaves
    them alone); coherences are multiplied by :func:`coherence_factor`. The
    map is trace and hermiticity preserving, and the identity at t=0.
    """
    populations = _population_map(_kept_share(t, ad, qn), ad, qn)
    z = coherence_factor(t, ad, qn)
    m = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):  # T[i, i, l, l] = populations[i, l]
        m[i, i, (0, 1), (0, 1)] = populations[i]
    m[0, 1, 0, 1] = z
    m[1, 0, 1, 0] = np.conj(z)
    return m


def compose_two_qubit(rho0: np.ndarray, map_a: np.ndarray, map_b: np.ndarray) -> np.ndarray:
    """Evolve a two-qubit state with independent single-qubit channels.

    ``rho(t)[ij,i'j'] = sum A[i,i',l,l'] B[j,j',m,m'] rho0[lm,l'm']``. The X
    structure of the input is preserved because neither map couples
    populations to coherences. Inputs and output are validated.
    """
    rho0 = validate_density_matrix(rho0, name="rho0")
    map_a = validate_single_qubit_map(map_a, name="map_a")
    map_b = validate_single_qubit_map(map_b, name="map_b")
    out = np.einsum("iplr,jqms,lmrs->ijpq", map_a, map_b, rho0.reshape(2, 2, 2, 2))
    return validate_density_matrix(out.reshape(4, 4), name="composed state")


def interplay_concurrence(
    times,
    state: EWLParams,
    ad_a: AdiabaticParams,
    ad_b: AdiabaticParams,
    qn: QuantumNoiseParams,
):
    """Concurrence curve of an extended Werner-like state under both noises.

    Vectorized over ``times``; algebraically identical to building the two
    single-qubit maps and composing them at each instant, exploiting that the
    evolved state stays in X form.
    """
    za = coherence_factor(times, ad_a, qn)
    zb = coherence_factor(times, ad_b, qn)
    diag = _joint_populations(state, *(_population_map(_kept_share(times, ad, qn), ad, qn)
                                       for ad in (ad_a, ad_b)))
    return ewl_concurrence(state, np.abs(za * np.conj(zb)), np.abs(za * zb), diag)

