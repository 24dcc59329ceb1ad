import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esdlab import analysis
from esdlab.adiabatic import AdiabaticParams, adiabatic_concurrence
from esdlab.analysis import find_crossing_time, sweep
from esdlab.constants import ESD_RELATIVE_TOL
from esdlab.errors import ParameterError
from esdlab.markov import QuantumNoiseParams, interplay_concurrence, proven_esd_time
from esdlab.states import EWLParams

from _oracles import bisect_first_zero, esd_time_dephasing, esd_time_optimal, ppt_min_eigenvalue

OMEGA = 1.0e11
INV_SQRT2 = 1.0 / math.sqrt(2.0)
QN = QuantumNoiseParams(s_white=2.0e6, temperature=0.04)
OFF = replace(QN, s_white=0.0)  # the quantum channel switched off


def qubit(theta, ratio=0.02):
    return AdiabaticParams(omega=OMEGA, theta=theta, sigma=ratio * OMEGA)


def _searched_curves():
    """(curve, t_max) of both closed-form cases, and of fig2's interplay and
    quantum-noise-only columns at a few r, each flavor, on fig2's qubits,
    quantum noise and |a|^2 = 0.5, with horizon omega t = 2e7."""
    opt, deph = qubit(math.pi / 2), qubit(0.0)
    curves = {
        "optimal": (lambda t: adiabatic_concurrence(t, opt, opt, EWLParams(0.9, INV_SQRT2)),
                    1.0e6 / OMEGA),
        "dephasing": (lambda t: adiabatic_concurrence(t, deph, deph, EWLParams(0.7, 0.6)),
                      10.0 / deph.sigma),
    }
    for column, p in (("interplay", opt), ("quantum", replace(opt, sigma=0.0))):
        for flavor in ("phi", "psi"):
            for r in (0.5, 0.8, 0.99):
                s = EWLParams(r, INV_SQRT2, flavor)
                curves[f"{column}_{flavor}_r{r}"] = (
                    lambda t, s=s, p=p: interplay_concurrence(t, s, p, p, QN), 2.0e7 / OMEGA
                )
    return curves


SEARCHED = _searched_curves()


def assert_brackets_root(curve, t):
    """The curve is positive at t(1 - tol) and not above zero at t(1 + tol).

    A search returns the midpoint of a bracket c(lo) > 0 >= c(hi) with
    hi - lo <= tol * hi, so on a decaying curve both points lie outside it.
    """
    below, above = curve(np.array([t * (1.0 - ESD_RELATIVE_TOL), t * (1.0 + ESD_RELATIVE_TOL)]))
    assert below > 0.0 >= above


class TestFindEsdTime:
    def test_matches_optimal_closed_form(self):
        p = qubit(math.pi / 2)
        s = EWLParams(0.9, INV_SQRT2)
        fn = lambda t: adiabatic_concurrence(t, p, p, s)
        res = find_crossing_time(fn, 1.0e6 / OMEGA)
        want = esd_time_optimal(s, p)
        assert type(res) is float and type(want) is float
        assert res != want  # a search, not the closed form
        assert abs(res - want) <= 1e-9 * want

    def test_matches_dephasing_closed_form(self):
        p = qubit(0.0)
        s = EWLParams(0.7, 0.6)
        fn = lambda t: adiabatic_concurrence(t, p, p, s)
        res = find_crossing_time(fn, 10.0 / p.sigma)
        want = esd_time_dephasing(s, p)
        assert abs(res - want) <= 1e-9 * want

    def test_constant_curve_never_crosses(self):
        # a search that reaches t_max found no zero; that proves no never
        res = find_crossing_time(lambda t: 0.5 * np.ones_like(np.asarray(t, dtype=float)), 1.0)
        assert math.isnan(res)

    def test_initially_separable_flagged(self):
        res = find_crossing_time(lambda t: np.zeros_like(np.asarray(t, dtype=float)), 1.0)
        assert res == 0.0

    def test_bracket_contains_root(self):
        p = qubit(math.pi / 2)
        s = EWLParams(0.85, INV_SQRT2)
        fn = lambda t: adiabatic_concurrence(t, p, p, s)
        assert_brackets_root(fn, find_crossing_time(fn, 1.0e6 / OMEGA))

    @pytest.mark.parametrize("name", SEARCHED)
    def test_matches_scalar_bisection(self, name):
        curve, t_max = SEARCHED[name]
        shapes = []

        def c(t):
            shapes.append(np.shape(t))
            return curve(t)

        res = find_crossing_time(c, t_max)
        want, _, _ = bisect_first_zero(curve, t_max)
        assert abs(res - want) <= ESD_RELATIVE_TOL * want
        assert_brackets_root(curve, res)
        # the scan and at most four narrowing calls, each on a 1-d array
        assert len(shapes) <= 5 and all(len(shape) == 1 for shape in shapes)

    def test_curve_is_never_called_on_a_scalar(self):
        def c(t):
            if np.ndim(t) != 1:
                raise TypeError("this curve takes a 1-d array of times")
            return np.clip(1.0 - t, 0.0, 1.0)

        assert find_crossing_time(c, 2.0) == pytest.approx(1.0, rel=ESD_RELATIVE_TOL)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(log_t_max=st.floats(-12.0, 6.0), u=st.floats(-14.0, 0.0))
    def test_finds_the_root_of_a_ramp_at_any_depth(self, log_t_max, u):
        # roots down to 1e-14 t_max, below the scan's first nonzero time t_max 1e-12
        t_max = 10.0**log_t_max
        t0 = t_max * 10.0**u
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = find_crossing_time(lambda t: np.clip(1.0 - t / t0, 0.0, 1.0), t_max)
        assert abs(res - t0) <= ESD_RELATIVE_TOL * t0

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(log_t_max=st.floats(-12.0, 6.0), u=st.floats(1e-6, 6.0))
    def test_a_ramp_past_t_max_is_not_found(self, log_t_max, u):
        t_max = 10.0**log_t_max
        t0 = t_max * 10.0**u
        assert math.isnan(find_crossing_time(lambda t: np.clip(1.0 - t / t0, 0.0, 1.0), t_max))

    def test_revival_after_the_first_zero_warns(self):
        # zero on [0.3, 0.6], positive again after it
        c = lambda t: np.clip(np.abs(t - 0.45) - 0.15, 0.0, None)
        with pytest.warns(UserWarning, match="recovers"):
            res = find_crossing_time(c, 1.0)
        assert res == pytest.approx(0.3, rel=1e-8)

    def test_monotone_decay_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = find_crossing_time(lambda t: np.clip(1.0 - t, 0.0, 1.0), 2.0)
        assert res == pytest.approx(1.0, rel=ESD_RELATIVE_TOL)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_curve_that_is_not_finite_raises(self, value):
        # neither "> 0" nor "<= 0" reads a nan, and an inf is no concurrence:
        # neither may pass for a curve that stays positive to t_max
        with pytest.raises(ParameterError, match="non-finite"):
            find_crossing_time(lambda t: np.full_like(t, value), 1.0)

    def test_a_nan_while_narrowing_raises(self):
        # the scan sees a ramp with its root at 0.5; every later call sees nan,
        # which must not pass for the sign of a point inside the bracket
        calls = []

        def c(t):
            calls.append(t)
            ramp = np.clip(1.0 - 2.0 * t, 0.0, 1.0)
            return ramp if len(calls) == 1 else np.full_like(t, math.nan)

        with pytest.raises(ParameterError, match="non-finite"):
            find_crossing_time(c, 1.0)
        assert len(calls) == 2

    def test_rejects_bad_horizon(self):
        with pytest.raises(ParameterError):
            find_crossing_time(lambda t: 1.0, 0.0)

    def test_rejects_scalar_only_function(self):
        # a function must take the whole grid at once; one value is no curve
        with pytest.raises(ParameterError, match="array"):
            find_crossing_time(lambda t: 0.5, 1.0)


class TestSweep:
    def test_r_sweep_adiabatic_monotone(self):
        p = qubit(math.pi / 2)
        grid = [0.5, 0.6, 0.7, 0.8, 0.9]
        states = [EWLParams(r, INV_SQRT2) for r in grid]
        times = sweep(states, p, p, OFF)
        assert times.shape == (2, len(grid)) and times.dtype == float
        assert np.all(np.diff(times[0]) > 0.0)
        # the paper's closed form, to the search's tolerance, in grid order
        for s, t in zip(states, times[0]):
            want = esd_time_optimal(s, p)
            assert abs(t - want) <= ESD_RELATIVE_TOL * want

    def test_pure_state_row_infinite(self):
        p = qubit(math.pi / 2)
        times = sweep([EWLParams(1.0, INV_SQRT2)], p, p, OFF)
        assert times.tolist() == [[math.inf], [math.inf]]

    def test_zero_amplitude_row_never_entangled(self):
        p = qubit(math.pi / 2)
        times = sweep([EWLParams(0.9, 0.0)], p, p, OFF)
        assert times.tolist() == [[0.0], [0.0]]

    def test_interplay_flavor_ordering(self):
        p = qubit(math.pi / 2)
        states = [EWLParams(r, INV_SQRT2) for r in (0.91, 0.95, 1.0)]
        phi, psi = sweep(states, p, p, QN)
        assert np.all(np.isfinite(phi)) and np.all(np.isfinite(psi))
        assert np.all(phi >= psi)

    def test_static_search_without_closed_form(self):
        # no closed form for a detuned pair (qubit B 20% above A, as in fig4)
        # or for a symmetric pair away from theta = 0 and pi/2
        p = qubit(0.3)
        detuned = replace(p, omega=1.2 * OMEGA, sigma=1.2 * p.sigma)
        states = [EWLParams(r, INV_SQRT2) for r in (0.6, 0.8, 0.95)]
        for ad_b in (detuned, p):
            times = sweep(states, p, ad_b, OFF)
            for s, (phi, psi) in zip(states, times.T):
                curve = lambda t: adiabatic_concurrence(t, p, ad_b, s)
                assert phi == psi and math.isfinite(phi)
                assert_brackets_root(curve, phi)
                want = find_crossing_time(curve, 1.0e6 / OMEGA)
                assert abs(phi - want) <= ESD_RELATIVE_TOL * want

    def test_quantum_noise_off_takes_the_static_path(self):
        # s_white = 0 leaves the static noise alone, one curve for both
        # flavors, and a switched-off channel on quiet qubits is a proven never
        p = qubit(math.pi / 2)
        states = [EWLParams(0.6, INV_SQRT2), EWLParams(0.9, INV_SQRT2)]
        for s, (phi, psi) in zip(states, sweep(states, p, p, OFF).T):
            want = esd_time_optimal(s, p)
            assert phi == psi and abs(phi - want) <= ESD_RELATIVE_TOL * want
            assert_brackets_root(lambda t: adiabatic_concurrence(t, p, p, s), phi)
        quiet = replace(p, sigma=0.0)
        assert np.all(sweep(states, quiet, quiet, OFF) == math.inf)
        # and so is a detuned pair
        detuned = replace(quiet, omega=1.2 * OMEGA)
        assert np.all(sweep(states, quiet, detuned, OFF) == math.inf)

    def test_rejects_an_empty_state_list(self):
        p = qubit(math.pi / 2)
        with pytest.raises(ParameterError, match="at least one state"):
            sweep([], p, p, OFF)

    def test_quantum_only_phi_disentangles_at_20_mK(self):
        # p1 = 2.6e-17 at 20 mK; a p1 rounded to 0 left rho_33 empty, and phi
        # stayed entangled past omega t = 2e7
        quiet = replace(qubit(math.pi / 2), sigma=0.0)
        cold = QuantumNoiseParams(s_white=2.0e6, temperature=0.02)
        s = EWLParams(0.9, INV_SQRT2)
        phi, _ = sweep([s], quiet, quiet, cold)[:, 0]
        assert phi * OMEGA == pytest.approx(3.63e6, rel=1e-2)
        assert_brackets_root(lambda t: interplay_concurrence(t, s, quiet, quiet, cold), phi)


def spy(monkeypatch, name):
    """Record each array of times that ``sweep`` passes to the curve ``name``."""
    seen, curve = [], getattr(analysis, name)

    def recording(*args):
        seen.append(np.array(args[0]))
        return curve(*args)

    monkeypatch.setattr(analysis, name, recording)
    return seen


def float_cap(omega):
    """The largest t whose omega t is finite."""
    t = sys.float_info.max / max(omega, 1.0)
    return math.nextafter(t, 0.0) if math.isinf(omega * t) else t


class TestHorizon:
    """Each curve sets its own search horizon: t = 1/omega_a, then 10^3 times
    the last, up to the first t where the curve is at or below zero."""

    @pytest.mark.parametrize("name, qn", [("adiabatic_concurrence", OFF),
                                          ("interplay_concurrence", QN)])
    @pytest.mark.parametrize("r", [0.34, 0.6, 0.99])
    def test_each_curve_sets_its_own_horizon(self, monkeypatch, name, qn, r):
        p = qubit(math.pi / 2)
        s = EWLParams(r, INV_SQRT2)
        seen = spy(monkeypatch, name)
        got = sweep([s], p, p, qn)[0, 0]
        # one time per step, then the search's scan
        n = next(k for k, t in enumerate(seen) if t.size > 1)
        horizon = [1.0 / OMEGA]
        while len(horizon) < n:
            horizon.append(horizon[-1] * 1.0e3)
        assert [t.tolist() for t in seen[:n]] == [[t] for t in horizon]
        assert seen[n].size == 10_001 and seen[n][-1] == horizon[-1]
        # the curve is positive at every step but the last, where the search runs
        if qn is OFF:
            curve = lambda t: adiabatic_concurrence(t, p, p, s)
        else:
            curve = lambda t: interplay_concurrence(t, s, p, p, qn)
        values = curve(np.array(horizon))
        assert np.all(values[:-1] > 0.0) and values[-1] <= 0.0
        assert got == find_crossing_time(curve, horizon[-1])

    @pytest.mark.parametrize("omega", [OMEGA, 0.5])
    def test_a_curve_positive_at_the_float_cap_is_nan(self, monkeypatch, omega):
        # sigma t stays below 1e-15 up to the cap, so the gaussian has not moved
        p = AdiabaticParams(omega=omega, theta=0.0, sigma=5e-324)
        seen = spy(monkeypatch, "adiabatic_concurrence")
        got = sweep([EWLParams(0.9, INV_SQRT2)], p, p, OFF)
        assert np.isnan(got).all()
        last = seen[-1][0]
        assert last == float_cap(omega)
        assert math.isfinite(omega * last) and math.isinf(omega * math.nextafter(last, math.inf))


# fig4's pair: qubit B 20% above qubit A, with the same relative noise
ANGLES = st.one_of(st.sampled_from([0.0, 0.7, math.pi / 2, math.pi]), st.floats(0.0, math.pi))


def qubits(theta_a, theta_b, detuned, ratio):
    a = AdiabaticParams(omega=OMEGA, theta=theta_a, sigma=ratio * OMEGA)
    scale = 1.2 if detuned else 1.0
    return a, replace(a, omega=scale * OMEGA, theta=theta_b, sigma=scale * a.sigma)


class TestProvenNever:
    """A pure state whose facing populations nothing fills stays entangled:
    ``sweep`` writes inf, where a search read the coherence's underflow as
    a zero."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(theta_a=ANGLES, theta_b=ANGLES, same_angle=st.booleans(), detuned=st.booleans(),
           ratio=st.floats(0.0, 0.1), a2=st.floats(0.01, 0.99))
    @example(theta_a=0.0, theta_b=0.0, same_angle=True, detuned=True, ratio=0.02, a2=0.5)
    @example(theta_a=0.7, theta_b=0.7, same_angle=True, detuned=True, ratio=0.02, a2=0.5)
    @example(theta_a=math.pi / 2, theta_b=0.0, same_angle=True, detuned=True, ratio=0.02, a2=0.5)
    def test_static_noise_never_ends_a_pure_state(self, theta_a, theta_b, same_angle, detuned,
                                                  ratio, a2):
        ad_a, ad_b = qubits(theta_a, theta_a if same_angle else theta_b, detuned, ratio)
        times = sweep([EWLParams(1.0, math.sqrt(a2))], ad_a, ad_b, OFF)
        assert times.tolist() == [[math.inf], [math.inf]]

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(detuned=st.booleans(), ratio=st.floats(0.0, 0.1), a2=st.floats(0.01, 0.99),
           s_white=st.floats(1.0e3, 1.0e9), temperature=st.floats(0.01, 10.0))
    @example(detuned=False, ratio=0.02, a2=0.5, s_white=2.0e6, temperature=0.04)
    def test_pure_dephasing_never_ends_a_pure_state(self, detuned, ratio, a2, s_white,
                                                    temperature):
        # at theta = 0 the quantum noise only dephases: no population moves
        ad_a, ad_b = qubits(0.0, 0.0, detuned, ratio)
        qn = QuantumNoiseParams(s_white=s_white, temperature=temperature)
        s = EWLParams(1.0, math.sqrt(a2))
        interplay = sweep([s], ad_a, ad_b, qn)
        quantum = sweep([s], replace(ad_a, sigma=0.0), replace(ad_b, sigma=0.0), qn)
        assert interplay.tolist() == quantum.tolist() == [[math.inf], [math.inf]]

    def test_relaxation_fills_the_populations(self):
        # theta = 0.7: the quantum noise moves populations into rho_00 and
        # rho_33 (phi) and rho_11 and rho_22 (psi), and both flavors end
        p = qubit(0.7)
        s = EWLParams(1.0, INV_SQRT2)
        assert proven_esd_time(s, p, p, QN) is None
        phi, psi = sweep([s], p, p, QN)[:, 0]
        assert phi * OMEGA == pytest.approx(259.1, rel=1e-3)
        assert psi * OMEGA == pytest.approx(175.7, rel=1e-3)
        for flavor, t in (("phi", phi), ("psi", psi)):
            sf = replace(s, flavor=flavor)
            assert_brackets_root(lambda t: interplay_concurrence(t, sf, p, p, QN), t)

    def test_populations_below_float_range_stay_empty(self):
        # at 0.5 mK p1 underflows to 0: nothing reaches rho_33, so phi stays
        # entangled; psi's relaxation still fills rho_11 and rho_22
        p = qubit(math.pi / 2)
        frozen = QuantumNoiseParams(s_white=2.0e6, temperature=5.0e-4)
        s = EWLParams(1.0, INV_SQRT2)
        assert proven_esd_time(s, p, p, frozen) == math.inf
        assert proven_esd_time(replace(s, flavor="psi"), p, p, frozen) is None


class TestEveryCell:
    """Every cell of ``sweep`` is the proven 0.0 or inf, or a sign change of
    its curve at t(1 -/+ ESD_RELATIVE_TOL) that the Peres-Horodecki test of
    the composed channel confirms, or nan where its curve is still positive
    at the largest t whose omega_a t is finite."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(theta_a=ANGLES, theta_b=ANGLES, same_angle=st.booleans(), detuned=st.booleans(),
           ratio=st.floats(0.0, 0.1), r=st.floats(0.0, 1.0), a2=st.floats(0.0, 1.0),
           s_white=st.one_of(st.just(0.0), st.floats(1.0e3, 1.0e9)),
           temperature=st.floats(0.01, 10.0))
    # the default `esd` sweep's ends: quantum noise alone wrote nan at horizon omega t = 5e3
    @example(theta_a=math.pi / 2, theta_b=0.0, same_angle=True, detuned=False, ratio=0.0,
             r=0.5, a2=0.5, s_white=2.0e6, temperature=0.04)
    @example(theta_a=math.pi / 2, theta_b=0.0, same_angle=True, detuned=False, ratio=0.0,
             r=0.99, a2=0.5, s_white=2.0e6, temperature=0.04)
    # fig4's detuned static pair, which had no closed form
    @example(theta_a=math.pi / 2, theta_b=0.0, same_angle=True, detuned=True, ratio=0.02,
             r=0.99, a2=0.5, s_white=0.0, temperature=0.04)
    def test_every_cell_is_proven_or_a_sign_change(self, theta_a, theta_b, same_angle, detuned,
                                                   ratio, r, a2, s_white, temperature):
        ad_a, ad_b = qubits(theta_a, theta_a if same_angle else theta_b, detuned, ratio)
        qn = QuantumNoiseParams(s_white=s_white, temperature=temperature)
        s = EWLParams(r, math.sqrt(a2))
        for flavor, t in zip(("phi", "psi"), sweep([s], ad_a, ad_b, qn)[:, 0]):
            sf = replace(s, flavor=flavor)
            proven = proven_esd_time(sf, ad_a, ad_b, qn)
            if proven is not None:
                assert t == proven
                continue
            if s_white == 0.0:
                curve = lambda t: adiabatic_concurrence(t, ad_a, ad_b, sf)
            else:
                curve = lambda t: interplay_concurrence(t, sf, ad_a, ad_b, qn)
            if math.isnan(t):
                assert curve(np.array([float_cap(OMEGA)]))[0] > 0.0
                continue
            assert 0.0 < t <= float_cap(OMEGA)
            assert_brackets_root(curve, t)
            assert ppt_min_eigenvalue(t * (1.0 - ESD_RELATIVE_TOL), sf, ad_a, ad_b, qn) < 0.0
            assert ppt_min_eigenvalue(t * (1.0 + ESD_RELATIVE_TOL), sf, ad_a, ad_b, qn) >= 0.0
