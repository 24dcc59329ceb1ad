import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from esdlab.adiabatic import (
    AdiabaticParams,
    adiabatic_concurrence,
    esd_time_dephasing,
    esd_time_optimal,
)
from esdlab.analysis import find_crossing_time, sweep
from esdlab.constants import ESD_RELATIVE_TOL
from esdlab.errors import ParameterError
from esdlab.markov import QuantumNoiseParams, interplay_concurrence
from esdlab.states import EWLParams

from _oracles import bisect_first_zero

OMEGA = 1.0e11
INV_SQRT2 = 1.0 / math.sqrt(2.0)
QN = QuantumNoiseParams(s_white=2.0e6, temperature=0.04)
OFF = replace(QN, s_white=0.0)  # the quantum channel switched off


def qubit(theta, ratio=0.02):
    return AdiabaticParams(omega=OMEGA, theta=theta, sigma=ratio * OMEGA)


def _searched_curves():
    """(curve, t_max) of both closed-form cases, and of fig2's four searched
    columns at a few r: interplay and quantum noise only, each flavor, on
    fig2's qubits, quantum noise, |a|^2 = 0.5 and horizon omega t = 2e7."""
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


class TestFindEsdTime:
    def test_matches_optimal_closed_form(self):
        p = qubit(math.pi / 2)
        s = EWLParams(0.9, INV_SQRT2)
        fn = lambda t: adiabatic_concurrence(t, p, p, s)
        res = find_crossing_time(fn, 1.0e6 / OMEGA)
        want = esd_time_optimal(s, p.sigma, OMEGA).time
        assert res.method == "bisection"
        assert abs(res.time - want) <= 1e-9 * want

    def test_matches_dephasing_closed_form(self):
        p = qubit(0.0)
        s = EWLParams(0.7, 0.6)
        fn = lambda t: adiabatic_concurrence(t, p, p, s)
        res = find_crossing_time(fn, 10.0 / p.sigma)
        want = esd_time_dephasing(s, p.sigma).time
        assert abs(res.time - want) <= 1e-9 * want

    def test_constant_curve_never_crosses(self):
        # a search that reaches t_max found no zero; that proves no never
        res = find_crossing_time(lambda t: 0.5 * np.ones_like(np.asarray(t, dtype=float)), 1.0)
        assert math.isnan(res.time) and res.bracket is None

    def test_initially_separable_flagged(self):
        res = find_crossing_time(lambda t: np.zeros_like(np.asarray(t, dtype=float)), 1.0)
        assert res.time == 0.0 and res.never_entangled

    def test_bracket_contains_root(self):
        p = qubit(math.pi / 2)
        s = EWLParams(0.85, INV_SQRT2)
        fn = lambda t: adiabatic_concurrence(t, p, p, s)
        res = find_crossing_time(fn, 1.0e6 / OMEGA)
        lo, hi = res.bracket
        assert lo <= res.time <= hi
        assert fn(lo) > 0.0 >= fn(hi)

    @pytest.mark.parametrize("name", SEARCHED)
    def test_matches_scalar_bisection(self, name):
        curve, t_max = SEARCHED[name]
        shapes = []

        def c(t):
            shapes.append(np.shape(t))
            return curve(t)

        res = find_crossing_time(c, t_max)
        want, _, _ = bisect_first_zero(curve, t_max)
        assert abs(res.time - want) <= ESD_RELATIVE_TOL * want
        lo, hi = res.bracket
        assert lo <= res.time <= hi and hi - lo <= ESD_RELATIVE_TOL * hi
        assert curve(np.array([lo]))[0] > 0.0 >= curve(np.array([hi]))[0]
        # the scan and at most four narrowing calls, each on a 1-d array
        assert len(shapes) <= 5 and all(len(shape) == 1 for shape in shapes)

    def test_curve_is_never_called_on_a_scalar(self):
        def c(t):
            if np.ndim(t) != 1:
                raise TypeError("this curve takes a 1-d array of times")
            return np.clip(1.0 - t, 0.0, 1.0)

        assert find_crossing_time(c, 2.0).time == pytest.approx(1.0, rel=ESD_RELATIVE_TOL)

    def test_revival_after_the_first_zero_warns(self):
        # zero on [0.3, 0.6], positive again after it
        c = lambda t: np.clip(np.abs(t - 0.45) - 0.15, 0.0, None)
        with pytest.warns(UserWarning, match="recovers"):
            res = find_crossing_time(c, 1.0)
        assert res.time == pytest.approx(0.3, rel=1e-8)

    def test_monotone_decay_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = find_crossing_time(lambda t: np.clip(1.0 - t, 0.0, 1.0), 2.0)
        assert res.time == pytest.approx(1.0, rel=ESD_RELATIVE_TOL)

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
        rows = sweep(
            "r",
            [0.5, 0.6, 0.7, 0.8, 0.9],
            EWLParams(0.9, INV_SQRT2),
            p,
            p,
            OFF,
            t_max=1.0e7 / OMEGA,
        )
        times = [row.esd_phi.time for row in rows]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(row.esd_phi.method == "closed_form" for row in rows)
        assert [row.value for row in rows] == [0.5, 0.6, 0.7, 0.8, 0.9]

    def test_pure_state_row_infinite(self):
        p = qubit(math.pi / 2)
        rows = sweep(
            "r", [1.0], EWLParams(0.9, INV_SQRT2), p, p, OFF,
            t_max=1.0e7 / OMEGA,
        )
        assert rows[0].esd_phi.time == math.inf

    def test_zero_amplitude_row_never_entangled(self):
        p = qubit(math.pi / 2)
        rows = sweep(
            "a2", [0.0], EWLParams(0.9, INV_SQRT2), p, p, OFF,
            t_max=1.0e6 / OMEGA,
        )
        assert rows[0].esd_phi.never_entangled
        assert rows[0].esd_phi.time == 0.0

    def test_interplay_flavor_ordering(self):
        p = qubit(math.pi / 2)
        rows = sweep(
            "r",
            [0.91, 0.95, 1.0],
            EWLParams(0.9, INV_SQRT2),
            p,
            p,
            QN,
            t_max=1.0e7 / OMEGA,
        )
        for row in rows:
            assert math.isfinite(row.esd_phi.time)
            assert math.isfinite(row.esd_psi.time)
            assert row.esd_phi.time >= row.esd_psi.time

    def test_static_search_without_closed_form(self):
        # no closed form for a detuned pair (qubit B 20% above A, as in fig4)
        # or for a symmetric pair away from theta = 0 and pi/2
        p = qubit(0.3)
        detuned = replace(p, omega=1.2 * OMEGA, sigma=1.2 * p.sigma)
        t_max = 1.0e6 / OMEGA
        state = EWLParams(0.9, INV_SQRT2)
        grid = [0.6, 0.8, 0.95]
        for ad_b in (detuned, p):
            rows = sweep("r", grid, state, p, ad_b, OFF, t_max=t_max)
            for row in rows:
                s = EWLParams(row.value, INV_SQRT2)
                want = find_crossing_time(
                    lambda t: adiabatic_concurrence(t, p, ad_b, s), t_max
                )
                assert row.esd_phi == want and row.esd_psi == want
                assert want.method == "bisection" and math.isfinite(want.time)

    def test_quantum_noise_off_takes_the_static_path(self):
        # s_white = 0 leaves the static noise alone, which has a closed form,
        # so a switched-off channel on quiet qubits is a proven never
        p = qubit(math.pi / 2)
        state, grid, t_max = EWLParams(0.9, INV_SQRT2), [0.6, 0.9], 1.0e6 / OMEGA
        for row in sweep("r", grid, state, p, p, OFF, t_max):
            want = esd_time_optimal(EWLParams(row.value, INV_SQRT2), p.sigma, OMEGA)
            assert row.esd_phi == row.esd_psi == want
            assert want.method == "closed_form"
        quiet = replace(p, sigma=0.0)
        for row in sweep("r", grid, state, quiet, quiet, OFF, t_max):
            assert row.esd_phi.time == row.esd_psi.time == math.inf

    def test_rejects_unknown_variable_and_empty_grid(self):
        p = qubit(math.pi / 2)
        with pytest.raises(ParameterError):
            sweep("bogus", [0.5], EWLParams(0.9, 0.5), p, p, OFF, t_max=1.0)
        with pytest.raises(ParameterError):
            sweep("r", [], EWLParams(0.9, 0.5), p, p, OFF, t_max=1.0)
