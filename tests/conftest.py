import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_x_state(rng: np.random.Generator) -> np.ndarray:
    """Random valid X-form density matrix (coherences inside the positivity
    bound of their 2x2 blocks)."""
    d = rng.dirichlet(np.ones(4))
    m12 = rng.random() * np.sqrt(d[1] * d[2])
    m03 = rng.random() * np.sqrt(d[0] * d[3])
    ph12, ph03 = rng.uniform(0.0, 2.0 * np.pi, 2)
    rho = np.diag(d).astype(complex)
    rho[1, 2] = m12 * np.exp(1j * ph12)
    rho[2, 1] = np.conj(rho[1, 2])
    rho[0, 3] = m03 * np.exp(1j * ph03)
    rho[3, 0] = np.conj(rho[0, 3])
    return rho


def random_density_matrix(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))

