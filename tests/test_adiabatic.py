import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from esdlab.adiabatic import (
    AdiabaticParams,
    adiabatic_concurrence,
    closed_form_esd_time,
    spa_kernel,
)
from esdlab.analysis import sweep
from esdlab.errors import ParameterError
from esdlab.markov import QuantumNoiseParams, proven_esd_time
from esdlab.qmath import wootters_concurrence
from esdlab.states import EWLParams, ewl_state

from _oracles import critical_purity, gaussian_average_coherence

OMEGA = 1.0e11
INV_SQRT2 = 1.0 / math.sqrt(2.0)
OFF = QuantumNoiseParams(s_white=0.0, temperature=0.04)  # static noise alone


def params(theta, sigma_ratio=0.02):
    return AdiabaticParams(omega=OMEGA, theta=theta, sigma=sigma_ratio * OMEGA)


def pair(theta, sigma):
    """Two identical qubits, the pairs that have a closed-form ESD time."""
    p = AdiabaticParams(omega=OMEGA, theta=theta, sigma=sigma)
    return p, p


def modulus(t, p):
    return np.abs(spa_kernel(t, p))


def static_esd_time(s, a, b):
    """The time `sweep` writes under static noise alone: 0.0 or inf where
    the state proves it, else the closed form."""
    return sweep([s], a, b, OFF, t_max=1.0)[0, 0]


class TestCoherenceModulus:
    def test_unity_at_t0(self):
        for theta in (0.0, 0.3, math.pi / 2):
            assert modulus(0.0, params(theta)) == 1.0

    def test_pure_dephasing_is_gaussian(self):
        p = params(0.0)
        for omega_t in (1.0, 10.0, 50.0):
            t = omega_t / OMEGA
            assert modulus(t, p) == pytest.approx(
                math.exp(-((p.sigma * t) ** 2) / 2.0), rel=1e-14
            )

    def test_optimal_point_value(self):
        # (s sigma)^4 (t/omega)^2 = 16 at omega*t = 1e4, sigma = 0.02 omega
        p = params(math.pi / 2)
        got = modulus(1.0e4 / OMEGA, p)
        assert got == pytest.approx(17.0**-0.25, rel=1e-12)

    def test_monotone_nonincreasing(self):
        p = params(1.1, sigma_ratio=0.05)
        t = np.linspace(0.0, 2.0e4 / OMEGA, 400)
        vals = modulus(t, p)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(ParameterError):
            modulus(-1.0, params(0.0))

    @pytest.mark.parametrize("sigma_ratio", [0.01, 0.02, 0.05])
    @pytest.mark.parametrize(
        "theta", [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]
    )
    def test_against_quadrature_oracle(self, theta, sigma_ratio):
        p = params(theta, sigma_ratio)
        for omega_t in (1.0e2, 1.0e3, 1.0e4, 1.0e5):
            t = omega_t / OMEGA
            oracle = gaussian_average_coherence(t, OMEGA, theta, p.sigma)
            assert abs(modulus(t, p) - abs(oracle)) <= 1e-6
            # the full complex kernel shares the oracle's phase as well
            assert abs(spa_kernel(t, p) - oracle) <= 1e-6


class TestAdiabaticConcurrence:
    def test_initial_value(self):
        s = EWLParams(r=0.9, a=INV_SQRT2)
        got = adiabatic_concurrence(0.0, params(math.pi / 2), params(math.pi / 2), s)
        assert got == pytest.approx(0.85, abs=1e-12)

    def test_flavor_independent(self):
        p = params(math.pi / 2)
        t = np.linspace(0.0, 3.0e4 / OMEGA, 64)
        c_phi = adiabatic_concurrence(t, p, p, EWLParams(0.9, INV_SQRT2, "phi"))
        c_psi = adiabatic_concurrence(t, p, p, EWLParams(0.9, INV_SQRT2, "psi"))
        assert np.abs(c_phi - c_psi).max() == 0.0

    def test_pure_state_never_dies(self):
        p = params(math.pi / 2)
        s = EWLParams(r=1.0, a=0.4)
        t = np.geomspace(1.0 / OMEGA, 1.0e7 / OMEGA, 200)
        assert np.all(adiabatic_concurrence(t, p, p, s) > 0.0)

    def test_matches_scaled_coherence_oracle(self):
        # freeze populations, scale the coherence by |z_A z_B|, then ask the
        # exact concurrence
        pa = params(math.pi / 2)
        pb = params(math.pi / 2, sigma_ratio=0.03)
        for flavor in ("phi", "psi"):
            s = EWLParams(r=0.9, a=INV_SQRT2, flavor=flavor)
            rho0 = ewl_state(s)
            for omega_t in (0.0, 1.0e3, 1.0e4, 4.0e4):
                t = omega_t / OMEGA
                m = modulus(t, pa) * modulus(t, pb)
                rho = rho0.copy()
                if flavor == "phi":
                    rho[1, 2] *= m
                    rho[2, 1] *= m
                else:
                    rho[0, 3] *= m
                    rho[3, 0] *= m
                want = wootters_concurrence(rho)
                got = adiabatic_concurrence(t, pa, pb, s)
                assert got == pytest.approx(want, abs=1e-12)

    def test_nonincreasing_in_time(self):
        pa, pb = params(0.4), params(1.0, 0.04)
        t = np.linspace(0.0, 5.0e4 / OMEGA, 500)
        c = adiabatic_concurrence(t, pa, pb, EWLParams(0.8, 0.6))
        assert np.all(np.diff(c) <= 1e-15)


class TestClosedFormEsdTimes:
    def test_pure_state_infinite(self):
        for theta in (math.pi / 2, 0.0):
            assert static_esd_time(EWLParams(1.0, INV_SQRT2), *pair(theta, 2.0e9)) == math.inf

    def test_critical_purity_boundary(self):
        a = INV_SQRT2
        r_star = critical_purity(a)
        for theta in (math.pi / 2, 0.0):
            assert static_esd_time(EWLParams(r_star, a), *pair(theta, 2.0e9)) == 0.0

    def test_optimal_point_value(self):
        # radicand 16 |ab|^2 r^2/(1-r)^2 - 1 = 323 at r=0.9, a=1/sqrt2
        res = closed_form_esd_time(EWLParams(0.9, INV_SQRT2), *pair(math.pi / 2, 0.02 * OMEGA))
        assert res * OMEGA == pytest.approx(2500.0 * math.sqrt(323.0), rel=1e-14)

    def test_dephasing_value(self):
        sigma = 0.02 * OMEGA
        res = closed_form_esd_time(EWLParams(0.9, INV_SQRT2), *pair(0.0, sigma))
        assert res * sigma == pytest.approx(math.sqrt(math.log(18.0)), rel=1e-14)

    def test_concurrence_vanishes_at_root(self):
        s = EWLParams(0.9, INV_SQRT2)
        for theta in (math.pi / 2, 0.0):
            qubits = pair(theta, 0.02 * OMEGA)
            t = closed_form_esd_time(s, *qubits)
            assert adiabatic_concurrence(t, *qubits, s) <= 1e-9 * 0.85

    def test_optimal_point_outlives_dephasing(self):
        # dimensionless comparison at sigma/omega = 0.02
        s = EWLParams(0.9, INV_SQRT2)
        t_opt = closed_form_esd_time(s, *pair(math.pi / 2, 0.02 * OMEGA)) * OMEGA
        t_deph = closed_form_esd_time(s, *pair(0.0, 0.02 * OMEGA)) * OMEGA
        assert t_opt > t_deph

    def test_no_static_noise_never_disentangles(self):
        # sigma = 0 leaves the concurrence at its initial value forever
        for r, separable in ((0.3, True), (0.9, False), (1.0, False)):
            s = EWLParams(r, INV_SQRT2)
            want = 0.0 if separable else math.inf
            for theta in (math.pi / 2, 0.0):
                assert static_esd_time(s, *pair(theta, 0.0)) == want

    def test_time_past_float_range_is_not_found(self):
        # omega / sigma^2 overflows at sigma = 1e-150, and sigma^2 underflows
        # to 0 at 1e-170: no zero was found, which is no proven never
        s = EWLParams(0.9, INV_SQRT2)
        for theta, sigma in ((math.pi / 2, 1e-150), (math.pi / 2, 1e-170), (0.0, 5e-324)):
            assert math.isnan(closed_form_esd_time(s, *pair(theta, sigma)))

    def test_never_entangled_below_threshold(self):
        assert static_esd_time(EWLParams(0.2, INV_SQRT2), *pair(math.pi / 2, 2.0e9)) == 0.0

    def test_separability_boundary(self):
        # r* = 1/(1 + 4|ab|) and 1-3 ulp either side, where rounding decides
        # the sign of K(0), plus the product pure states
        rng = np.random.default_rng(7)
        cases = [(1.0, 0.0), (1.0, 1.0)]
        for a2 in rng.random(20_000).tolist():
            below = above = [critical_purity(math.sqrt(a2))]
            for _ in range(3):
                below = below + [math.nextafter(below[-1], 0.0)]
                above = above + [math.nextafter(above[-1], 2.0)]
            cases += [(r, a2) for r in below + above[1:] if r <= 1.0]
        p = params(0.0)
        optimal, dephasing = pair(math.pi / 2, 2.0e9), pair(0.0, 2.0e9)
        for r, a2 in cases:
            s = EWLParams(r, math.sqrt(a2))
            separable = adiabatic_concurrence(0.0, p, p, s) == 0.0
            # neither pair relaxes, so the rule reads them alike
            proven = proven_esd_time(s, *optimal, OFF)
            assert (proven == math.inf) == (r == 1.0 and s.ab_mod > 0.0), (r, a2)
            assert (proven == 0.0) == separable, (r, a2)
            if proven is None:  # both radicands are non-negative where the rule leaves off
                assert closed_form_esd_time(s, *optimal) >= 0.0, (r, a2)
                assert closed_form_esd_time(s, *dephasing) >= 0.0, (r, a2)

    def test_no_closed_form_outside_its_domain(self):
        # unequal qubits, or a common angle other than 0 and pi/2
        s = EWLParams(0.9, INV_SQRT2)
        a, _ = pair(math.pi / 2, 2.0e9)
        assert closed_form_esd_time(s, a, replace(a, sigma=2.5e9)) is None
        for theta in (0.3, math.pi):
            assert closed_form_esd_time(s, *pair(theta, 2.0e9)) is None

    def test_optimal_point_holds_within_its_tolerance(self):
        s = EWLParams(0.9, INV_SQRT2)
        near = closed_form_esd_time(s, *pair(math.pi / 2 + 1e-13, 2.0e9))
        assert near is not None and near == closed_form_esd_time(s, *pair(math.pi / 2, 2.0e9))


class TestParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            AdiabaticParams(omega=-1.0, theta=0.0, sigma=1.0)
        with pytest.raises(ParameterError):
            AdiabaticParams(omega=1.0, theta=4.0, sigma=1.0)
        with pytest.raises(ParameterError):
            AdiabaticParams(omega=1.0, theta=0.0, sigma=-1.0)
        with pytest.raises(ParameterError):
            AdiabaticParams(omega=1.0, theta=0.0, sigma=0.1, gamma_min=5.0, gamma_max=2.0)

    def test_strong_noise_warns_but_works(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # strong noise is no error in the parameters
            p = AdiabaticParams(omega=1.0e11, theta=0.0, sigma=0.5e11)
        with pytest.warns(UserWarning, match="sigma/omega") as record:
            z = spa_kernel(0.0, p)
        # the warning names the line that asked for the static-path result
        assert [w.filename for w in record] == [__file__]
        assert z == 1.0

    def test_the_closed_form_warns_about_strong_noise(self):
        qubits = pair(math.pi / 2, 0.5 * OMEGA)
        with pytest.warns(UserWarning, match="static-path treatment degrades") as record:
            t = closed_form_esd_time(EWLParams(0.9, INV_SQRT2), *qubits)
        assert [w.filename for w in record] == [__file__]
        assert t > 0.0
