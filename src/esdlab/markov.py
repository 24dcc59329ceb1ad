"""Weak-coupling quantum-noise channel and two-qubit channel composition.

High-frequency noise at the qubit splitting relaxes populations toward the
thermal values with rate 1/T1 = s_white/2 and adds secular dephasing at half
that rate (T2 = 2 T1). Low-frequency defocusing multiplies the coherence by
the static-path factor from :mod:`esdlab.adiabatic`. At the optimal point
(theta = pi/2) the two mechanisms entangle inside one logarithm and the
coherence is

    rho_01(t) = rho_01(0) exp(-i omega t - t/(2 T1))
                / sqrt(1 + (i omega + 1/T1) sigma^2 t / omega^2),

which is what this module implements there; away from the optimal point the
decay factorizes into the static-path kernel times exp(-i omega t - t/2T1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adiabatic import AdiabaticParams, spa_kernel
from .constants import HBAR, K_B
from .errors import ParameterError
from .qmath import validate_density_matrix, validate_single_qubit_map
from .states import EWLParams, ewl_state

__all__ = [
    "QuantumNoiseParams",
    "GibbsPopulations",
    "gibbs_populations",
    "relaxation_weight",
    "coherence_factor",
    "single_qubit_map",
    "compose_two_qubit",
    "evolve_ewl",
    "interplay_concurrence",
    "interplay_concurrence_bell",
]

_THETA_TOL = 1e-12


@dataclass(frozen=True)
class QuantumNoiseParams:
    """White-noise level at the splitting, S(omega), and bath temperature.

    ``s_white = 0`` switches the quantum channel off (infinite T1).
    """

    s_white: float
    temperature: float

    def __post_init__(self) -> None:
        if self.s_white < 0.0:
            raise ParameterError(f"s_white must be non-negative, got {self.s_white}")
        if self.temperature <= 0.0:
            raise ParameterError(
                f"temperature must be positive, got {self.temperature}"
            )

    @property
    def t1(self) -> float:
        """Relaxation time, 2 / S(omega)."""
        return math.inf if self.s_white == 0.0 else 2.0 / self.s_white

    @property
    def t2(self) -> float:
        """Secular dephasing time, 2 T1."""
        return 2.0 * self.t1


@dataclass(frozen=True)
class GibbsPopulations:
    """Asymptotic thermal populations of a single qubit."""

    p0_inf: float
    p1_inf: float


def gibbs_populations(omega: float, temperature: float) -> GibbsPopulations:
    """Thermal populations with difference p1 - p0 = -tanh(hbar omega / 2 kB T)."""
    if omega <= 0.0 or temperature <= 0.0:
        raise ParameterError("omega and temperature must be positive")
    x = math.tanh(HBAR * omega / (2.0 * K_B * temperature))
    return GibbsPopulations(p0_inf=0.5 * (1.0 + x), p1_inf=0.5 * (1.0 - x))


def relaxation_weight(t, qn: QuantumNoiseParams):
    """exp(-t/T1); the fraction of the initial populations still present."""
    return np.exp(-np.asarray(t, dtype=float) / qn.t1)


def coherence_factor(t, ad: AdiabaticParams, qn: QuantumNoiseParams):
    """Full complex single-qubit coherence multiplier at time t.

    At theta = pi/2 the exact combined form is used (the relaxation rate
    enters the defocusing bracket); elsewhere the static-path kernel and the
    Markovian factor multiply. With ``s_white = 0`` both reduce to the pure
    static-path result.
    """
    t = np.asarray(t, dtype=float)
    base = np.exp(-1j * ad.omega * t - 0.5 * t / qn.t1)
    if abs(ad.theta - math.pi / 2.0) <= _THETA_TOL and math.isfinite(qn.t1):
        bracket = 1.0 + (1j * ad.omega + 1.0 / qn.t1) * ad.sigma**2 * t / ad.omega**2
        out = base / np.sqrt(bracket)
    else:
        out = base * spa_kernel(t, ad)
    return out if out.ndim else complex(out)


def single_qubit_map(
    t: float, ad: AdiabaticParams, qn: QuantumNoiseParams
) -> np.ndarray:
    """Transfer tensor T[i,i',l,l'] of the combined channel at time t.

    Populations relax toward the thermal values with weight exp(-t/T1) (the
    static noise is longitudinal and leaves them alone); coherences are
    multiplied by :func:`coherence_factor`. The map is trace and hermiticity
    preserving, and the identity at t=0.
    """
    if t < 0.0:
        raise ParameterError("time must be non-negative")
    e = float(relaxation_weight(t, qn))
    p = gibbs_populations(ad.omega, qn.temperature)
    z = coherence_factor(t, ad, qn)
    m = np.zeros((2, 2, 2, 2), dtype=complex)
    m[0, 0, 0, 0] = e + (1.0 - e) * p.p0_inf
    m[0, 0, 1, 1] = (1.0 - e) * p.p0_inf
    m[1, 1, 0, 0] = (1.0 - e) * p.p1_inf
    m[1, 1, 1, 1] = e + (1.0 - e) * p.p1_inf
    m[0, 1, 0, 1] = z
    m[1, 0, 1, 0] = np.conj(z)
    return m


def compose_two_qubit(
    rho0: np.ndarray, map_a: np.ndarray, map_b: np.ndarray, validate: bool = True
) -> np.ndarray:
    """Evolve a two-qubit state with independent single-qubit channels.

    ``rho(t)[ij,i'j'] = sum A[i,i',l,l'] B[j,j',m,m'] rho0[lm,l'm']``. The X
    structure of the input is preserved because neither map couples
    populations to coherences.
    """
    if validate:
        rho0 = validate_density_matrix(rho0, name="rho0")
        map_a = validate_single_qubit_map(map_a, name="map_a")
        map_b = validate_single_qubit_map(map_b, name="map_b")
    r4 = np.asarray(rho0, dtype=complex).reshape(2, 2, 2, 2)
    out = np.einsum("iplr,jqms,lmrs->ijpq", map_a, map_b, r4).reshape(4, 4)
    if validate:
        out = validate_density_matrix(out, name="composed state")
    return out


def _relaxed_diagonal(diag0: np.ndarray, e: np.ndarray,
                      pa: GibbsPopulations, pb: GibbsPopulations) -> np.ndarray:
    """Joint populations after independent single-qubit relaxation.

    ``e`` is a vector of exp(-t/T1) weights; returns shape (len(e), 4).
    """
    eye = np.eye(2)
    gibbs_a = np.array([[pa.p0_inf, pa.p0_inf], [pa.p1_inf, pa.p1_inf]])
    gibbs_b = np.array([[pb.p0_inf, pb.p0_inf], [pb.p1_inf, pb.p1_inf]])
    e = e[:, None, None]
    ka = e * eye + (1.0 - e) * gibbs_a
    kb = e * eye + (1.0 - e) * gibbs_b
    joint = np.einsum("kil,kjm,lm->kij", ka, kb, diag0.reshape(2, 2))
    return joint.reshape(-1, 4)


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
    scalar = np.ndim(times) == 0
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0.0):
        raise ParameterError("times must be non-negative")
    rho0 = ewl_state(state)
    diag0 = rho0.diagonal().real
    za = coherence_factor(times, ad_a, qn)
    zb = coherence_factor(times, ad_b, qn)
    e = relaxation_weight(times, qn)
    pa = gibbs_populations(ad_a.omega, qn.temperature)
    pb = gibbs_populations(ad_b.omega, qn.temperature)

    coh12 = np.abs(rho0[1, 2]) * np.abs(za * np.conj(zb))
    coh03 = np.abs(rho0[0, 3]) * np.abs(za * zb)
    diag = _relaxed_diagonal(diag0, np.atleast_1d(e), pa, pb)
    k1 = coh12 - np.sqrt(np.maximum(diag[:, 0] * diag[:, 3], 0.0))
    k2 = coh03 - np.sqrt(np.maximum(diag[:, 1] * diag[:, 2], 0.0))
    c = 2.0 * np.maximum(0.0, np.maximum(k1, k2))
    return float(c[0]) if scalar else c


def evolve_ewl(
    t: float,
    state: EWLParams,
    ad_a: AdiabaticParams,
    ad_b: AdiabaticParams,
    qn: QuantumNoiseParams,
) -> np.ndarray:
    """Density matrix at time t via the explicit map-composition pipeline."""
    return compose_two_qubit(
        ewl_state(state),
        single_qubit_map(t, ad_a, qn),
        single_qubit_map(t, ad_b, qn),
    )


def interplay_concurrence_bell(
    t, flavor: str, ad: AdiabaticParams, qn: QuantumNoiseParams
):
    """Closed-form concurrence of an initial Bell state (r=1, a=1/sqrt2).

    Valid for resonant identical qubits at the optimal point. The
    one-excitation flavor pays a population penalty proportional to
    sqrt(p0_inf p1_inf), the two-excitation flavor one driven by relaxation
    into the singly excited levels; both share the coherence term
    ``exp(-t/T1) / (2 |1 + (i omega + 1/T1) sigma^2 t / omega^2|)``.
    """
    if flavor not in ("phi", "psi"):
        raise ParameterError(f"flavor must be 'phi' or 'psi', got {flavor!r}")
    if abs(ad.theta - math.pi / 2.0) > _THETA_TOL:
        raise ParameterError(
            "closed form holds at the optimal point only (theta = pi/2); "
            "use interplay_concurrence for general angles"
        )
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ParameterError("time must be non-negative")
    p = gibbs_populations(ad.omega, qn.temperature)
    e = relaxation_weight(t, qn)
    inv_t1 = 0.0 if not math.isfinite(qn.t1) else 1.0 / qn.t1
    bracket = 1.0 + (1j * ad.omega + inv_t1) * ad.sigma**2 * t / ad.omega**2
    coh = 0.5 * e / np.abs(bracket)
    sq = p.p0_inf**2 + p.p1_inf**2
    cross = p.p0_inf * p.p1_inf
    if flavor == "phi":
        k = coh - math.sqrt(cross) * (1.0 - e) * np.sqrt(sq * e + cross * (1.0 + e * e))
    else:
        k = coh - 0.5 * (1.0 - e) * (sq * e + 2.0 * cross)
    c = 2.0 * np.maximum(0.0, k)
    return c if c.ndim else float(c)
