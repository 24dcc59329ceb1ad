"""Dense two-qubit linear algebra and the exact concurrence oracle.

All operations act on plain complex numpy arrays in the computational basis
``{|00>, |01>, |10>, |11>}`` (indices 0..3). Single-qubit channels are
represented by 4-index transfer tensors ``T[i, i', l, l']`` mapping the
initial 2x2 density-matrix elements ``rho[l, l']`` to ``rho[i, i']`` at time
t. Every function is pure.
"""

from __future__ import annotations

import numpy as np

from .constants import EIGENVALUE_FLOOR, HERMITICITY_TOL, MAP_TOL, TRACE_TOL
from .errors import InvalidStateError

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "wootters_concurrence",
    "validate_density_matrix",
    "validate_single_qubit_map",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# sigma_y (x) sigma_y is real: the anti-diagonal (-1, 1, 1, -1).
_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y).real


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check the two-qubit density-matrix invariants and return ``rho``.

    Raises :class:`InvalidStateError` when ``rho`` is not 4x4, Hermitian
    within 1e-12, unit trace within 1e-12, or has an eigenvalue below
    -1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError(f"{name} must be 4x4, got shape {rho.shape}")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > HERMITICITY_TOL:
        raise InvalidStateError(
            f"{name} is not Hermitian: max |rho_ij - conj(rho_ji)| = {herm:.3e}"
        )
    trace_err = abs(rho.trace() - 1.0)
    if trace_err > TRACE_TOL:
        raise InvalidStateError(f"{name} trace deviates from 1 by {trace_err:.3e}")
    lam_min = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()
    if lam_min < EIGENVALUE_FLOOR:
        raise InvalidStateError(
            f"{name} is not positive semidefinite: min eigenvalue {lam_min:.3e}"
        )
    return rho


def validate_single_qubit_map(transfer: np.ndarray, name: str = "map") -> np.ndarray:
    """Check trace and hermiticity preservation of a transfer tensor."""
    t = np.asarray(transfer, dtype=complex)
    if t.shape != (2, 2, 2, 2):
        raise InvalidStateError(f"{name} must have shape (2,2,2,2), got {t.shape}")
    # trace preservation: sum_i T[i,i,l,l'] = delta_{l,l'}
    tr_err = np.abs(t[0, 0] + t[1, 1] - np.eye(2)).max()
    if tr_err > MAP_TOL:
        raise InvalidStateError(f"{name} is not trace preserving (residual {tr_err:.3e})")
    herm_err = np.abs(t - t.transpose(1, 0, 3, 2).conj()).max()
    if herm_err > MAP_TOL:
        raise InvalidStateError(
            f"{name} is not hermiticity preserving (residual {herm_err:.3e})"
        )
    return t


def wootters_concurrence(rho: np.ndarray, validate: bool = True) -> float | np.ndarray:
    """Two-qubit concurrence C(rho), the exact oracle for every fast path.

    Computes ``C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4))`` where
    the ``l_k`` are the descending eigenvalues of
    ``rho (sy x sy) rho* (sy x sy)``. The product is brought to explicitly
    Hermitian form ``sqrt(rho) rho_tilde sqrt(rho)`` before diagonalizing,
    which keeps the spectrum real near rank deficiency.

    Parameters
    ----------
    rho : array_like
        4x4 density matrix in the computational basis, or a stack of them
        with shape ``(n, 4, 4)``. Each matrix of a stack gets exactly the
        value it gets on its own.
    validate : bool
        Check the density-matrix invariants first (default True).

    Returns
    -------
    float or ndarray
        Concurrence clamped to [0, 1]; an array of ``n`` values for a stack.
    """
    rho = np.asarray(rho, dtype=complex)
    stacked = rho.ndim == 3
    if validate:
        for r in rho if stacked else (rho,):
            validate_density_matrix(r)
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    vals, vecs = np.linalg.eigh(0.5 * (rho + np.swapaxes(rho.conj(), -1, -2)))
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ np.swapaxes(
        vecs.conj(), -1, -2
    )
    lam = np.linalg.eigvalsh(sqrt_rho @ rho_tilde @ sqrt_rho)[..., ::-1]
    # floating-point noise makes tiny eigenvalues dip below zero
    lam = np.sqrt(np.clip(lam, 0.0, None))
    c = np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)
    return c if stacked else float(c)

