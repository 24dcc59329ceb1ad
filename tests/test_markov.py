import math

import numpy as np
import pytest

from esdlab.adiabatic import AdiabaticParams
from esdlab.errors import InvalidStateError, ParameterError
from esdlab.markov import (
    QuantumNoiseParams,
    coherence_factor,
    compose_two_qubit,
    gibbs_populations,
    interplay_concurrence,
    single_qubit_map,
)
from esdlab.qmath import validate_density_matrix
from esdlab.states import EWLParams, ewl_state

from _oracles import (
    combined_coherence_modulus,
    interplay_concurrence_bell,
    is_x_state,
    xstate_concurrence,
)
from conftest import random_x_state

OMEGA = 1.0e11
INV_SQRT2 = 1.0 / math.sqrt(2.0)
QN = QuantumNoiseParams(s_white=2.0e6, temperature=0.04)
AD_OPT = AdiabaticParams(omega=OMEGA, theta=math.pi / 2, sigma=0.02 * OMEGA)
AD_QUIET = AdiabaticParams(omega=OMEGA, theta=math.pi / 2, sigma=0.0)


def identity_map():
    m = np.zeros((2, 2, 2, 2), dtype=complex)
    m[0, 0, 0, 0] = m[1, 1, 1, 1] = 1.0
    m[0, 1, 0, 1] = m[1, 0, 1, 0] = 1.0
    return m


class TestQuantumNoiseParams:
    def test_derived_times(self):
        assert QN.t1 == pytest.approx(1.0e-6, rel=1e-15)

    def test_noise_off_means_infinite_t1(self):
        off = QuantumNoiseParams(s_white=0.0, temperature=0.04)
        assert math.isinf(off.t1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            QuantumNoiseParams(s_white=-1.0, temperature=1.0)
        with pytest.raises(ParameterError):
            QuantumNoiseParams(s_white=1.0, temperature=0.0)


class TestGibbsPopulations:
    def test_high_temperature_limit(self):
        p0, p1 = gibbs_populations(OMEGA, 1.0e6)
        assert p0 == pytest.approx(0.5, abs=1e-6)
        assert p1 == pytest.approx(0.5, abs=1e-6)

    def test_low_temperature_ground_state(self):
        p0, p1 = gibbs_populations(OMEGA, 0.04)
        assert p1 < 1e-8
        assert p0 == pytest.approx(1.0, abs=1e-8)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-15)

    def test_population_difference_identity(self):
        from esdlab.constants import HBAR, K_B

        for omega, temp in ((1.0e10, 0.1), (5.0e10, 0.3), (2.0e11, 0.02)):
            p0, p1 = gibbs_populations(omega, temp)
            want = -math.tanh(HBAR * omega / (2.0 * K_B * temp))
            assert p1 - p0 == pytest.approx(want, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            gibbs_populations(-1.0, 1.0)
        with pytest.raises(ParameterError):
            gibbs_populations(1.0, -1.0)


class TestSingleQubitMap:
    def test_identity_at_t0(self):
        m = single_qubit_map(0.0, AD_OPT, QN)
        assert np.abs(m - identity_map()).max() < 1e-15

    def test_trace_and_hermiticity_preserving(self):
        from esdlab.qmath import validate_single_qubit_map

        for t in (0.0, 1.0e-8, 1.0e-6, 1.0e-5):
            validate_single_qubit_map(single_qubit_map(t, AD_OPT, QN))

    def test_phase_only_when_noiseless(self):
        off = QuantumNoiseParams(s_white=0.0, temperature=0.04)
        t = 123.0 / OMEGA
        m = single_qubit_map(t, AD_QUIET, off)
        want = identity_map()
        want[0, 1, 0, 1] = np.exp(-1j * OMEGA * t)
        want[1, 0, 1, 0] = np.exp(1j * OMEGA * t)
        assert np.abs(m - want).max() < 1e-12

    def test_static_noise_off_coherence_is_t2_decay(self):
        for t in (1.0e-7, 1.0e-6):
            z = coherence_factor(t, AD_QUIET, QN)
            assert abs(z) == pytest.approx(math.exp(-t / (2.0 * QN.t1)), rel=1e-12)

    def test_longitudinal_noise_only_dephases(self):
        # at theta = 0 the noise couples along sigma_z: no population moves,
        # and the coherence decays at the pure dephasing rate s_white / 2
        longitudinal = AdiabaticParams(omega=OMEGA, theta=0.0, sigma=0.0)
        for t in (1.0e-7, 1.0e-6):
            m = single_qubit_map(t, longitudinal, QN)
            assert m[0, 0, 0, 0] == m[1, 1, 1, 1] == 1.0
            assert m[0, 0, 1, 1] == m[1, 1, 0, 0] == 0.0
            z = coherence_factor(t, longitudinal, QN)
            assert abs(z) == pytest.approx(math.exp(-QN.s_white * t / 2.0), rel=1e-12)

    def test_combined_decay_against_term_by_term_exponent(self):
        # omega*t = 1e3 with both noises on
        t = 1.0e3 / OMEGA
        z = coherence_factor(t, AD_OPT, QN)
        want = combined_coherence_modulus(t, OMEGA, AD_OPT.sigma, QN.t1)
        assert abs(z) == pytest.approx(want, rel=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ParameterError):
            single_qubit_map(-1.0, AD_OPT, QN)
        # the optimal point's combined form checks its time too
        with pytest.raises(ParameterError):
            coherence_factor(-1.0e-6, AD_OPT, QN)


class TestComposeTwoQubit:
    def test_identity_maps_return_input(self, rng):
        rho = random_x_state(rng)
        out = compose_two_qubit(rho, identity_map(), identity_map())
        assert np.abs(out - rho).max() < 1e-14

    def test_x_form_preserved(self):
        rho = ewl_state(EWLParams(0.91, INV_SQRT2, "psi"))
        m = single_qubit_map(5.0e-7, AD_OPT, QN)
        out = compose_two_qubit(rho, m, m)
        assert is_x_state(out, 1e-12)

    def test_long_time_relaxes_to_ground(self):
        rho = ewl_state(EWLParams(0.91, INV_SQRT2, "psi"))
        m = single_qubit_map(40.0e-6, AD_QUIET, QN)  # t >> T1
        out = compose_two_qubit(rho, m, m)
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = 1.0
        assert np.abs(out - want).max() < 1e-6

    def test_positivity_on_random_x_states(self, rng):
        for _ in range(200):
            rho = random_x_state(rng)
            t = float(rng.random()) * 3.0e-6
            out = compose_two_qubit(
                rho, single_qubit_map(t, AD_OPT, QN), single_qubit_map(t, AD_OPT, QN)
            )
            validate_density_matrix(out)

    def test_rejects_invalid_input(self):
        with pytest.raises(InvalidStateError):
            compose_two_qubit(np.eye(4), identity_map(), identity_map())


class TestInterplayBellClosedForms:
    def test_initial_value_is_one(self):
        assert interplay_concurrence_bell(0.0, "phi", AD_OPT, QN) == 1.0
        assert interplay_concurrence_bell(0.0, "psi", AD_OPT, QN) == 1.0

    def test_low_temperature_one_excitation_form(self):
        # at 0.04 K the population penalty of the one-excitation state is
        # suppressed by sqrt(p0 p1) ~ 7e-5; the curve is essentially
        # exp(-t/T1)/sqrt(1 + sigma^4 (t/omega)^2)
        t = np.linspace(0.0, 3.0e4, 40) / OMEGA
        got = interplay_concurrence_bell(t, "phi", AD_OPT, QN)
        u = AD_OPT.sigma**2 * t / OMEGA
        approx = np.exp(-t / QN.t1) / np.sqrt(1.0 + u**2)
        assert np.abs(got - approx).max() < 1e-3

    def test_matches_composed_pipeline(self):
        times = np.linspace(0.0, 5.0e4, 200) / OMEGA
        for flavor in ("phi", "psi"):
            state = EWLParams(r=1.0, a=INV_SQRT2, flavor=flavor)
            closed = interplay_concurrence_bell(times, flavor, AD_OPT, QN)
            piped = np.array(
                [
                    xstate_concurrence(compose_two_qubit(
                        ewl_state(state),
                        single_qubit_map(t, AD_OPT, QN),
                        single_qubit_map(t, AD_OPT, QN),
                    ))
                    for t in times
                ]
            )
            assert np.abs(closed - piped).max() <= 1e-9

    def test_one_excitation_outlives_two_excitation(self):
        t = np.linspace(0.0, 1.0e5, 300) / OMEGA
        c_phi = interplay_concurrence_bell(t, "phi", AD_OPT, QN)
        c_psi = interplay_concurrence_bell(t, "psi", AD_OPT, QN)
        assert np.all(c_phi - c_psi >= -1e-12)

    @pytest.mark.parametrize("s_white", [2.0e6, 0.0])
    @pytest.mark.parametrize("temperature", [0.04, 0.5])
    @pytest.mark.parametrize("flavor", ["phi", "psi"])
    def test_gates_live_curve(self, flavor, temperature, s_white):
        # the paper's Bell closed form against the curve the CLI writes
        qn = QuantumNoiseParams(s_white=s_white, temperature=temperature)
        times = np.linspace(0.0, 5.0e4, 500) / OMEGA
        state = EWLParams(r=1.0, a=INV_SQRT2, flavor=flavor)
        live = interplay_concurrence(times, state, AD_OPT, AD_OPT, qn)
        closed = interplay_concurrence_bell(times, flavor, AD_OPT, qn)
        assert np.abs(live - closed).max() <= 1e-12


class TestInterplayConcurrence:
    def test_matches_pipeline_general_r(self):
        times = np.linspace(0.0, 3.0e4, 60) / OMEGA
        for flavor in ("phi", "psi"):
            state = EWLParams(r=0.91, a=INV_SQRT2, flavor=flavor)
            fast = interplay_concurrence(times, state, AD_OPT, AD_OPT, QN)
            piped = np.array(
                [
                    xstate_concurrence(compose_two_qubit(
                        ewl_state(state),
                        single_qubit_map(t, AD_OPT, QN),
                        single_qubit_map(t, AD_OPT, QN),
                    ))
                    for t in times
                ]
            )
            assert np.abs(fast - piped).max() <= 1e-12

    def test_pipeline_agrees_where_populations_underflow(self):
        # at 0.015625 K the excited Gibbs population is 0.0, and by omega t =
        # 5000 rho_11 rho_22 underflows while the coherence is still ~1e-162:
        # the oracle must not read a concurrence the live curve does not
        ad = AdiabaticParams(omega=OMEGA, theta=math.pi / 2, sigma=0.02 * OMEGA)
        qn = QuantumNoiseParams(s_white=14874938495.0, temperature=0.015625)
        state = EWLParams(r=0.99, a=INV_SQRT2, flavor="psi")
        times = np.linspace(0.0, 5.0e3, 201) / OMEGA
        live = interplay_concurrence(times, state, ad, ad, qn)
        piped = np.array([
            xstate_concurrence(compose_two_qubit(
                ewl_state(state), single_qubit_map(t, ad, qn), single_qubit_map(t, ad, qn),
            ))
            for t in times
        ])
        assert live[-1] == 0.0
        assert np.abs(live - piped).max() <= 1e-12
        assert np.array_equal(piped > 0.0, live > 0.0)

    def test_quantum_noise_off_reduces_to_static_path(self):
        from esdlab.adiabatic import adiabatic_concurrence

        off = QuantumNoiseParams(s_white=0.0, temperature=0.04)
        times = np.linspace(0.0, 5.0e4, 100) / OMEGA
        for theta in (0.0, 0.7, math.pi / 2):
            ad = AdiabaticParams(omega=OMEGA, theta=theta, sigma=0.02 * OMEGA)
            state = EWLParams(r=0.9, a=INV_SQRT2, flavor="phi")
            with_channel = interplay_concurrence(times, state, ad, ad, off)
            analytic = adiabatic_concurrence(times, ad, ad, state)
            assert np.abs(with_channel - analytic).max() <= 1e-9

    def test_quantum_noise_alone_kills_pure_bell(self):
        # static noise off, r=1: the two-excitation state still disentangles
        # at finite time, unlike under static noise alone
        from esdlab.adiabatic import adiabatic_concurrence
        from esdlab.analysis import find_crossing_time

        state = EWLParams(r=1.0, a=INV_SQRT2, flavor="psi")
        fn = lambda t: interplay_concurrence(t, state, AD_QUIET, AD_QUIET, QN)
        res = find_crossing_time(fn, 1.0e7 / OMEGA)
        assert math.isfinite(res)
        static_only = adiabatic_concurrence(res, AD_QUIET, AD_QUIET, state)
        assert static_only > 0.5  # the static channel alone would not kill it

    def test_scalar_matches_vector(self):
        state = EWLParams(r=0.95, a=INV_SQRT2, flavor="psi")
        t = 2.0e3 / OMEGA
        scalar = interplay_concurrence(t, state, AD_OPT, AD_OPT, QN)
        vector = interplay_concurrence(np.array([t]), state, AD_OPT, AD_OPT, QN)
        assert scalar == vector[0]
