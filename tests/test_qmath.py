import math

import numpy as np
import pytest

from esdlab.errors import InvalidStateError
from esdlab.qmath import (
    validate_density_matrix,
    validate_single_qubit_map,
    wootters_concurrence,
)

from _oracles import is_x_state
from conftest import random_density_matrix, random_unitary


def bell_state(i: int, j: int) -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[i] = v[j] = 1.0 / math.sqrt(2.0)
    return np.outer(v, v.conj())


class TestWoottersConcurrence:
    def test_bell_state(self):
        assert wootters_concurrence(bell_state(1, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert wootters_concurrence(np.eye(4) / 4.0) == pytest.approx(0.0, abs=1e-12)

    def test_werner_mixture_value(self):
        # r |Phi><Phi| + (1-r)/4 I at r=0.9, a=b=1/sqrt2 has concurrence
        # 2 max(0, (|ab| + 1/4) r - 1/4) = 0.85
        rho = 0.9 * bell_state(1, 2) + 0.1 / 4.0 * np.eye(4)
        expected = 2.0 * max(0.0, (0.5 + 0.25) * 0.9 - 0.25)
        assert expected == pytest.approx(0.85, abs=1e-15)
        assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-12)

    def test_local_unitary_invariance(self, rng):
        for _ in range(100):
            rho = random_density_matrix(rng)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            before = wootters_concurrence(rho)
            after = wootters_concurrence(u @ rho @ u.conj().T)
            assert abs(before - after) <= 1e-9

    def test_product_states_are_separable(self, rng):
        for _ in range(50):
            rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
            assert wootters_concurrence(rho) <= 1e-10

    def test_rejects_invalid_state(self):
        with pytest.raises(InvalidStateError):
            wootters_concurrence(np.eye(4))  # trace 4
        with pytest.raises(InvalidStateError, match="non-finite"):
            wootters_concurrence(np.full((4, 4), math.nan))  # eigh would fail on it

    def test_stack_matches_per_matrix_bit_for_bit(self, rng):
        states = []
        for _ in range(500):
            # mix a random pure state into a random mixed one, so that both
            # entangled and separable states occur
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            p = rng.random()
            states.append(p * np.outer(psi, psi.conj()) + (1.0 - p) * random_density_matrix(rng))
        stack = np.stack(states)
        got = wootters_concurrence(stack)
        want = np.array([wootters_concurrence(rho) for rho in states])
        assert got.shape == (500,)
        assert np.array_equal(got, want)
        assert (got > 0.0).sum() > 50 and (got == 0.0).sum() > 50

    def test_stack_validates_every_matrix(self):
        stack = np.stack([bell_state(1, 2), np.eye(4)])  # the second has trace 4
        with pytest.raises(InvalidStateError):
            wootters_concurrence(stack)
        assert wootters_concurrence(stack, validate=False).shape == (2,)


class TestIsXState:
    # the off-X check the X-form tests of states and markov rely on
    def test_diagonal_is_x(self):
        assert is_x_state(np.eye(4) / 4.0, 1e-14)

    def test_bell_is_x(self):
        assert is_x_state(bell_state(0, 3), 1e-14)

    def test_off_x_coherence_detected(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[1, 1] = 0.5
        rho[0, 1] = rho[1, 0] = 0.5
        assert not is_x_state(rho, 1e-10)


class TestValidators:
    def test_accepts_valid(self, rng):
        validate_density_matrix(random_density_matrix(rng))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            validate_density_matrix(np.eye(4, dtype=complex) / 2.0)

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 1e-3
        with pytest.raises(InvalidStateError, match="Hermitian"):
            validate_density_matrix(rho)

    @pytest.mark.parametrize("rho", [
        np.diag([0.5, 0.5, math.nan, 0.0]),  # passed every check before
        np.full((4, 4), math.nan),
        np.diag([math.inf, 0.0, 0.0, 0.0]),
    ], ids=["nan_on_diagonal", "all_nan", "inf"])
    def test_rejects_non_finite(self, rho):
        with pytest.raises(InvalidStateError, match="non-finite"):
            validate_density_matrix(rho)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(InvalidStateError, match="positive"):
            validate_density_matrix(rho)

    def test_map_identity_ok(self):
        ident = np.zeros((2, 2, 2, 2), dtype=complex)
        for i in range(2):
            for l in range(2):
                ident[i, i, l, l] = 0.0
        ident[0, 0, 0, 0] = ident[1, 1, 1, 1] = 1.0
        ident[0, 1, 0, 1] = ident[1, 0, 1, 0] = 1.0
        validate_single_qubit_map(ident)

    def test_map_trace_violation(self):
        bad = np.zeros((2, 2, 2, 2), dtype=complex)
        bad[0, 0, 0, 0] = 0.5
        with pytest.raises(InvalidStateError, match="trace"):
            validate_single_qubit_map(bad)
