"""Extended Werner-like initial states."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .qmath import validate_density_matrix

__all__ = ["EWLParams", "ewl_state"]


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
        if abs(self.a) > 1.0 + 1e-12:
            raise ParameterError(f"|a| must not exceed 1, got {abs(self.a)}")
        if self.flavor not in ("phi", "psi"):
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
    if p.flavor == "phi":
        pure[1], pure[2] = p.a, p.b
    else:
        pure[0], pure[3] = p.a, p.b
    rho = p.r * np.outer(pure, pure.conj()) + (1.0 - p.r) / 4.0 * np.eye(4)
    return validate_density_matrix(rho, name="ewl_state")

