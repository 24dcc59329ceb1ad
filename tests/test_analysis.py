import math

import numpy as np
import pytest

from esdlab.adiabatic import (
    AdiabaticParams,
    adiabatic_concurrence,
    esd_time_dephasing,
    esd_time_optimal,
)
from esdlab.analysis import (
    ConcurrenceCurve,
    find_crossing_time,
    find_esd_time,
    sweep,
)
from esdlab.constants import BELL_VIOLATION_THRESHOLD
from esdlab.errors import ParameterError
from esdlab.markov import QuantumNoiseParams, interplay_concurrence
from esdlab.states import EWLParams, ewl_state
from esdlab.stochastic import SimConfig, monte_carlo_concurrence

OMEGA = 1.0e11
INV_SQRT2 = 1.0 / math.sqrt(2.0)
QN = QuantumNoiseParams(s_white=2.0e6, temperature=0.04)


def qubit(theta, ratio=0.02):
    return AdiabaticParams(omega=OMEGA, theta=theta, sigma=ratio * OMEGA)


class TestFindEsdTime:
    def test_matches_optimal_closed_form(self):
        p = qubit(math.pi / 2)
        s = EWLParams(0.9, INV_SQRT2)
        fn = lambda t: adiabatic_concurrence(t, p, p, s)
        res = find_esd_time(fn, 1.0e6 / OMEGA)
        want = esd_time_optimal(s, p.sigma, OMEGA).time
        assert res.method == "bisection"
        assert abs(res.time - want) <= 1e-9 * want

    def test_matches_dephasing_closed_form(self):
        p = qubit(0.0)
        s = EWLParams(0.7, 0.6)
        fn = lambda t: adiabatic_concurrence(t, p, p, s)
        res = find_esd_time(fn, 10.0 / p.sigma)
        want = esd_time_dephasing(s, p.sigma).time
        assert abs(res.time - want) <= 1e-9 * want

    def test_constant_curve_never_crosses(self):
        res = find_esd_time(lambda t: 0.5 * np.ones_like(np.asarray(t, dtype=float)), 1.0)
        assert res.is_infinite

    def test_initially_separable_flagged(self):
        res = find_esd_time(lambda t: np.zeros_like(np.asarray(t, dtype=float)), 1.0)
        assert res.time == 0.0 and res.never_entangled

    def test_bracket_contains_root(self):
        p = qubit(math.pi / 2)
        s = EWLParams(0.85, INV_SQRT2)
        fn = lambda t: adiabatic_concurrence(t, p, p, s)
        res = find_esd_time(fn, 1.0e6 / OMEGA)
        lo, hi = res.bracket
        assert lo <= res.time <= hi
        assert fn(lo) > 0.0 >= fn(hi)

    def test_curve_input_interpolates(self):
        times = np.linspace(0.0, 2.0, 51)
        values = np.clip(1.0 - times, 0.0, 1.0)
        res = find_esd_time(ConcurrenceCurve(times, values), t_max=2.0)
        assert res.method == "grid"
        assert res.time == pytest.approx(1.0, abs=1e-12)

    def test_curve_with_stderr_brackets(self):
        times = np.linspace(0.0, 2.0, 201)
        values = np.clip(1.0 - times, 0.0, 1.0)
        err = np.full_like(times, 0.05)
        res = find_esd_time(ConcurrenceCurve(times, values, err), t_max=2.0)
        lo, hi = res.bracket
        # mean - 2 stderr crosses at 0.9; the clamped mean + 2 stderr never
        # reaches zero, so the upper bound is the end of the record
        assert lo == pytest.approx(0.9, abs=1e-9)
        assert hi == times[-1]
        assert lo < res.time < hi

    def test_curve_without_finite_stderr_uses_grid_bracket(self):
        # a single Monte Carlo trajectory reports nan error bars
        times = np.linspace(0.0, 2.0, 201)
        values = np.clip(1.0 - times, 0.0, 1.0)
        err = np.full_like(times, np.nan)
        res = find_esd_time(ConcurrenceCurve(times, values, err), t_max=2.0)
        assert res.bracket == (times[99], times[100])
        assert res.bracket[0] <= res.time <= res.bracket[1]

    def test_threshold_crossing(self):
        p = qubit(math.pi / 2)
        s = EWLParams(1.0, INV_SQRT2)
        fn = lambda t: adiabatic_concurrence(t, p, p, s)
        res = find_crossing_time(fn, 1.0e5 / OMEGA, level=BELL_VIOLATION_THRESHOLD)
        # 1/sqrt(1+u^2) = 1/sqrt2 at u = sigma^2 t / omega = 1
        assert res.time * OMEGA == pytest.approx(2500.0, rel=1e-9)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ParameterError):
            find_esd_time(lambda t: 1.0, 0.0)

    def test_rejects_scalar_only_function(self):
        # a function must take the whole grid at once; one value is no curve
        with pytest.raises(ParameterError, match="array"):
            find_crossing_time(lambda t: 0.5, 1.0)


class TestCurveValidation:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ParameterError):
            ConcurrenceCurve(np.array([0.0, 1.0, 0.5]), np.array([1.0, 0.5, 0.2]))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ParameterError):
            ConcurrenceCurve(np.array([0.0, 1.0]), np.array([0.5, 1.5]))


class TestSweep:
    def test_r_sweep_adiabatic_monotone(self):
        p = qubit(math.pi / 2)
        rows = sweep(
            "r",
            [0.5, 0.6, 0.7, 0.8, 0.9],
            EWLParams(0.9, INV_SQRT2),
            p,
            p,
            None,
            "adiabatic",
            t_max=1.0e7 / OMEGA,
        )
        times = [row.esd_phi.time for row in rows]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(row.esd_phi.method == "closed_form" for row in rows)
        assert [row.value for row in rows] == [0.5, 0.6, 0.7, 0.8, 0.9]

    def test_pure_state_row_infinite(self):
        p = qubit(math.pi / 2)
        rows = sweep(
            "r", [1.0], EWLParams(0.9, INV_SQRT2), p, p, None, "adiabatic",
            t_max=1.0e7 / OMEGA,
        )
        assert rows[0].esd_phi.is_infinite

    def test_zero_amplitude_row_never_entangled(self):
        p = qubit(math.pi / 2)
        rows = sweep(
            "a2", [0.0], EWLParams(0.9, INV_SQRT2), p, p, None, "adiabatic",
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
            "interplay",
            t_max=1.0e7 / OMEGA,
        )
        for row in rows:
            assert not row.esd_phi.is_infinite
            assert not row.esd_psi.is_infinite
            assert row.esd_phi.time >= row.esd_psi.time

    def test_bell_threshold_marker_present(self):
        p = qubit(math.pi / 2)
        t_max = 1.0e6 / OMEGA
        rows = sweep(
            "r", [0.95], EWLParams(0.9, INV_SQRT2), p, p, QN, "interplay", t_max=t_max,
        )
        state = EWLParams(0.95, INV_SQRT2, "phi")
        curve = lambda t: interplay_concurrence(t, state, p, p, QN)
        bell = find_crossing_time(curve, t_max, BELL_VIOLATION_THRESHOLD)
        assert bell.time < rows[0].esd_phi.time

    def test_monte_carlo_rows_match_direct_runs(self):
        p = qubit(math.pi / 2)
        sim = SimConfig(
            qubit_a=p, qubit_b=p, n_trajectories=32, t_max=2.0e4 / OMEGA,
            n_samples=41, seed=3, n_fluctuators=20,
        )
        rows = sweep(
            "r", [0.6], EWLParams(0.9, INV_SQRT2), p, p, None, "monte_carlo",
            t_max=sim.t_max, sim=sim,
        )
        assert [row.value for row in rows] == [0.6]
        row = rows[0]
        for flavor, esd in (("phi", row.esd_phi), ("psi", row.esd_psi)):
            mc = monte_carlo_concurrence(ewl_state(EWLParams(0.6, INV_SQRT2, flavor)), sim)
            curve = ConcurrenceCurve(mc.times, mc.concurrence, mc.stderr)
            assert esd == find_esd_time(curve, sim.t_max)
            assert esd.method == "grid" and not esd.is_infinite
            # 32 trajectories make two batches, so the error bar has a width
            assert esd.bracket[0] < esd.time < esd.bracket[1]

    def test_monte_carlo_needs_sim(self):
        p = qubit(math.pi / 2)
        with pytest.raises(ParameterError, match="SimConfig"):
            sweep(
                "r", [0.9], EWLParams(0.9, INV_SQRT2), p, p, None, "monte_carlo",
                t_max=1.0,
            )

    def test_rejects_unknown_channel_and_empty_grid(self):
        p = qubit(math.pi / 2)
        with pytest.raises(ParameterError):
            sweep("r", [0.5], EWLParams(0.9, 0.5), p, p, None, "bogus", t_max=1.0)
        with pytest.raises(ParameterError):
            sweep("r", [], EWLParams(0.9, 0.5), p, p, None, "adiabatic", t_max=1.0)
