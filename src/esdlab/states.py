"""Extended Werner-like (EWL) initial states, and :func:`ewl_concurrence`,
the one rule for their concurrence under the package's X channels."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .qmath import validate_density_matrix

__all__ = ["EWLParams", "ewl_state", "ewl_populations", "ewl_concurrence"]

# the two basis levels of each flavor's pure part a|i> + b|j>
_LEVELS = {"phi": (1, 2), "psi": (0, 3)}


@dataclass(frozen=True)
class EWLParams:
    """Mixture of a Bell-like pure state (weight ``r``) with white noise.

    ``flavor="phi"`` uses the one-excitation pure part a|01> + b|10>,
    ``flavor="psi"`` the two-excitation part a|00> + b|11>. The second
    amplitude is implicit, |b| = sqrt(1 - |a|^2), with a stored relative
    phase. Concurrence depends on |a b| only; the phase matters when the
    state is fed through a propagator.
    """

    r: float
    a: complex
    flavor: str = "phi"
    b_phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.r <= 1.0:
            raise ParameterError(f"purity r must lie in [0, 1], got {self.r}")
        if not abs(self.a) <= 1.0 + 1e-12:
            raise ParameterError(f"|a| must be finite and not exceed 1, got {abs(self.a)}")
        if not math.isfinite(self.b_phase):
            raise ParameterError(f"b_phase must be finite, got {self.b_phase}")
        if self.flavor not in _LEVELS:
            raise ParameterError(f"flavor must be 'phi' or 'psi', got {self.flavor!r}")

    @property
    def b(self) -> complex:
        mod = math.sqrt(max(0.0, 1.0 - abs(self.a) ** 2))
        return mod * cmath.exp(1j * self.b_phase)

    @property
    def ab_mod(self) -> float:
        """|a b|, the quantity every closed form depends on."""
        return abs(self.a) * abs(self.b)


def ewl_state(p: EWLParams) -> np.ndarray:
    """Build the 4x4 density matrix for the given mixture parameters."""
    pure = np.zeros(4, dtype=complex)
    pure[list(_LEVELS[p.flavor])] = p.a, p.b
    rho = p.r * np.outer(pure, pure.conj()) + (1.0 - p.r) / 4.0 * np.eye(4)
    return validate_density_matrix(rho, name="ewl_state")


def ewl_populations(p: EWLParams) -> np.ndarray:
    """The diagonal of :func:`ewl_state`, without the matrix."""
    diag = np.full(4, (1.0 - p.r) / 4.0)
    i, j = _LEVELS[p.flavor]
    diag[i] += p.r * (abs(p.a) * abs(p.a))
    diag[j] += p.r * (abs(p.b) * abs(p.b))
    return diag


def ewl_concurrence(state: EWLParams, f12, f03, diag=None):
    """Concurrence 2 max(0, K1, K2) of an EWL state after an X channel.

    The channel scales the moduli of the coherences rho_12 and rho_03 by
    ``f12`` and ``f03`` and leaves the populations ``diag`` (rho_00 .. rho_33
    on the last axis; None keeps the state's). The pure part's coherence
    r |ab| sits on rho_12 for "phi" and on rho_03 for "psi", so
    K1 = |rho_12| - sqrt(rho_00 rho_33) and K2 = |rho_03| - sqrt(rho_11 rho_22).
    Vectorized over the factors and the leading axes of ``diag``.
    """
    coherence = state.r * state.ab_mod
    if diag is None:
        diag = ewl_populations(state)
    phi = state.flavor == "phi"
    # scaling by 2^500 is exact (sqrt(x*x) = x still holds) and keeps the
    # product of two populations near 1e-162 from underflowing to 0
    d = diag * 2.0**500
    roots = np.sqrt(np.maximum(d[..., (0, 1)] * d[..., (3, 2)], 0.0)) / 2.0**500
    k1 = (coherence if phi else 0.0) * f12 - roots[..., 0]
    k2 = (0.0 if phi else coherence) * f03 - roots[..., 1]
    return 2.0 * np.maximum(0.0, np.maximum(k1, k2))
