import math

import numpy as np
import pytest

from esdlab.errors import ParameterError
from esdlab.qmath import wootters_concurrence
from esdlab.states import EWLParams, ewl_state

from _oracles import critical_purity, is_x_state, xstate_concurrence, xstate_k
from conftest import random_x_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestEWLState:
    def test_pure_bell_limit(self):
        rho = ewl_state(EWLParams(r=1.0, a=INV_SQRT2, flavor="phi"))
        want = np.zeros((4, 4), dtype=complex)
        want[1, 1] = want[2, 2] = want[1, 2] = want[2, 1] = 0.5
        assert np.abs(rho - want).max() < 1e-15

    def test_fully_mixed_limit(self):
        rho = ewl_state(EWLParams(r=0.0, a=0.3 + 0.1j))
        assert np.abs(rho - np.eye(4) / 4.0).max() < 1e-15

    def test_is_x_form(self):
        for flavor in ("phi", "psi"):
            rho = ewl_state(EWLParams(r=0.7, a=0.6, flavor=flavor, b_phase=0.4))
            assert is_x_state(rho, 1e-14)

    def test_experimental_purity_concurrence(self):
        # (|ab| + 1/4) r - 1/4 doubled, at r = 0.91, a = 1/sqrt2
        rho = ewl_state(EWLParams(r=0.91, a=INV_SQRT2))
        want = 2.0 * ((0.5 + 0.25) * 0.91 - 0.25)
        assert want == pytest.approx(0.865, abs=1e-12)
        assert wootters_concurrence(rho) == pytest.approx(want, abs=1e-12)

    def test_formula_for_any_r(self):
        for r in (0.1, 0.3333333, 0.5, 0.9, 0.97):
            rho = ewl_state(EWLParams(r=r, a=INV_SQRT2, flavor="psi"))
            want = 2.0 * max(0.0, (0.5 + 0.25) * r - 0.25)
            assert wootters_concurrence(rho) == pytest.approx(want, abs=1e-12)

    def test_flavors_share_initial_concurrence(self, rng):
        for _ in range(25):
            r = rng.random()
            a = rng.random() * np.exp(2j * np.pi * rng.random())
            c_phi = xstate_concurrence(ewl_state(EWLParams(r, a, "phi")))
            c_psi = xstate_concurrence(ewl_state(EWLParams(r, a, "psi")))
            assert abs(c_phi - c_psi) <= 1e-12

    def test_symmetric_in_excitation_weight(self, rng):
        # C(|a|^2) = C(1 - |a|^2)
        for a2 in (0.1, 0.25, 0.4):
            c_lo = xstate_concurrence(ewl_state(EWLParams(0.9, math.sqrt(a2))))
            c_hi = xstate_concurrence(ewl_state(EWLParams(0.9, math.sqrt(1 - a2))))
            assert c_lo == pytest.approx(c_hi, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            EWLParams(r=1.2, a=INV_SQRT2)
        with pytest.raises(ParameterError):
            EWLParams(r=0.5, a=1.5)
        with pytest.raises(ParameterError):
            EWLParams(r=0.5, a=0.5, flavor="chi")


class TestXStateConcurrence:
    # the K1/K2 oracle against the exact concurrence
    def test_bell_value(self):
        assert xstate_concurrence(
            ewl_state(EWLParams(r=1.0, a=INV_SQRT2, flavor="psi"))
        ) == pytest.approx(1.0, abs=1e-12)

    def test_no_coherence_no_entanglement(self):
        assert xstate_concurrence(np.eye(4, dtype=complex) / 4.0) == 0.0

    def test_matches_wootters_on_random_x_states(self, rng):
        for _ in range(1000):
            rho = random_x_state(rng)
            fast = xstate_concurrence(rho)
            exact = wootters_concurrence(rho)
            assert abs(fast - exact) <= 1e-9

    def test_k_components_unclamped(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        k1, k2 = xstate_k(rho)
        assert k1 == pytest.approx(-math.sqrt(0.04))
        assert k2 == pytest.approx(-math.sqrt(0.06))


class TestCriticalPurity:
    # the r* oracle that the separability-boundary tests read
    def test_balanced_amplitudes(self):
        assert critical_purity(INV_SQRT2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_product_pure_part(self):
        assert critical_purity(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_asymmetric_value(self):
        assert critical_purity(0.6) == pytest.approx(1.0 / (1.0 + 4.0 * 0.6 * 0.8), abs=1e-15)

    def test_sign_change_of_concurrence(self):
        for a in (0.6, INV_SQRT2, 0.9):
            r_star = critical_purity(a)
            below = wootters_concurrence(ewl_state(EWLParams(r_star * 0.999, a)))
            above = wootters_concurrence(ewl_state(EWLParams(min(1.0, r_star * 1.001), a)))
            assert below == 0.0
            assert above > 0.0
