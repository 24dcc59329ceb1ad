import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from esdlab.adiabatic import AdiabaticParams, adiabatic_concurrence
from esdlab.constants import UNITARITY_TOL
from esdlab.errors import ParameterError
from esdlab.states import EWLParams, ewl_state
from esdlab.stochastic import (
    CHUNK_SIZE,
    FluctuatorEnsemble,
    SimConfig,
    evolve_trajectory,
    fit_one_over_f,
    monte_carlo_concurrence,
    noise_segments,
    psd_estimate,
    rtn_paths,
    sample_ensemble,
    sampled_noise,
)

OMEGA = 1.0e11
INV_SQRT2 = 1.0 / math.sqrt(2.0)


def quiet_qubit(theta=math.pi / 2):
    return AdiabaticParams(omega=OMEGA, theta=theta, sigma=0.0)


def noisy_qubit(theta=math.pi / 2, ratio=0.02):
    return AdiabaticParams(omega=OMEGA, theta=theta, sigma=ratio * OMEGA)


def single_fluctuator(gamma: float, v: float = 1.0) -> FluctuatorEnsemble:
    return FluctuatorEnsemble(
        rates=np.array([gamma]),
        couplings=np.array([v]),
        gamma_min=gamma / 2.0,
        gamma_max=gamma * 2.0,
        sigma=v,
    )


class TestSampleEnsemble:
    def test_single_fluctuator(self):
        ens = sample_ensemble(1, 10.0, 100.0, 3.0, 0)
        assert 10.0 <= ens.rates[0] <= 100.0
        assert ens.couplings[0] == 3.0

    def test_deterministic(self):
        a = sample_ensemble(100, 1.0, 1e6, 2e9, 1234)
        b = sample_ensemble(100, 1.0, 1e6, 2e9, 1234)
        assert np.array_equal(a.rates, b.rates)

    def test_log_uniform_rates(self):
        ens = sample_ensemble(100_000, 1.0, 1e6, 1.0, 99)
        u = np.log(ens.rates / 1.0) / np.log(1e6)
        ks = stats.kstest(u, "uniform").statistic
        assert ks <= 0.01

    def test_variance_matches_sigma(self):
        sigma = 2.0e9
        ens = sample_ensemble(250, 1.0, 1e6, sigma, 7)
        assert np.sum(ens.couplings**2) == pytest.approx(sigma**2, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ParameterError):
            sample_ensemble(0, 1.0, 1e6, 1.0, 0)
        with pytest.raises(ParameterError):
            sample_ensemble(10, 100.0, 1.0, 1.0, 0)

    def test_ensemble_invariants_enforced(self):
        with pytest.raises(ParameterError, match="variance"):
            FluctuatorEnsemble(
                rates=np.array([10.0]),
                couplings=np.array([1.0]),
                gamma_min=1.0,
                gamma_max=100.0,
                sigma=5.0,
            )
        with pytest.raises(ParameterError, match="band"):
            FluctuatorEnsemble(
                rates=np.array([1000.0]),
                couplings=np.array([1.0]),
                gamma_min=1.0,
                gamma_max=100.0,
                sigma=1.0,
            )


class TestRtnPaths:
    def test_deterministic(self):
        ens = sample_ensemble(20, 1.0, 1e4, 1.0, 3)
        p1 = rtn_paths(ens, 0.1, 11)
        p2 = rtn_paths(ens, 0.1, 11)
        assert np.array_equal(p1.initial_states, p2.initial_states)
        assert all(np.array_equal(a, b) for a, b in zip(p1.switch_times, p2.switch_times))

    def test_balanced_signs(self):
        paths = rtn_paths(sample_ensemble(100_000, 1.0, 1e6, 1.0, 5), 1.0e-9, 6)
        assert set(np.unique(paths.initial_states)) == {-1.0, 1.0}
        assert abs(paths.initial_states.mean()) < 0.02

    def test_stream_layout(self):
        # STREAM_VERSION 2: a path draws its signs, then every Poisson switch
        # count in one call, then all switch times, from one generator
        ens = sample_ensemble(40, 1.0e3, 1.0e5, 1.0, 8)
        t_max = 1.0e-3
        paths = rtn_paths(ens, t_max, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        signs = rng.integers(0, 2, ens.n) * 2.0 - 1.0
        counts = rng.poisson(ens.rates * t_max)
        flat = rng.random(int(counts.sum())) * t_max
        assert np.array_equal(paths.initial_states, signs)
        assert [t.size for t in paths.switch_times] == counts.tolist()
        starts = np.concatenate([[0], np.cumsum(counts)])
        for i, times in enumerate(paths.switch_times):
            assert np.array_equal(times, np.sort(flat[starts[i]:starts[i + 1]]))

    def test_switch_counts_poissonian(self):
        gamma, t_max, n_real = 1000.0, 0.1, 300
        ens = single_fluctuator(gamma)
        total = sum(
            rtn_paths(ens, t_max, seed).switch_times[0].size for seed in range(n_real)
        )
        mean = gamma * t_max * n_real
        assert abs(total - mean) <= 3.0 * math.sqrt(mean)

    def test_autocorrelation_decay_rate(self):
        # single telegraph: <x(t) x(t+tau)> = v^2 exp(-2 gamma tau)
        gamma, t_max, dt = 200.0, 0.02, 1.0e-4
        ens = single_fluctuator(gamma)
        grid = np.arange(0.0, t_max, dt)
        n_lags, n_real = 20, 1000
        acc = np.zeros(n_lags)
        for seed in range(n_real):
            paths = rtn_paths(ens, grid[-1], 10_000 + seed)
            x = sampled_noise(paths, grid.size)
            for k in range(n_lags):
                acc[k] += np.mean(x[: x.size - k] * x[k:])
        corr = acc / n_real
        lags = np.arange(n_lags) * dt
        slope = np.polyfit(lags, np.log(corr), 1)[0]
        assert abs(-slope - 2.0 * gamma) <= 0.1 * (2.0 * gamma)

    def test_no_fluctuators_means_no_noise(self):
        empty = FluctuatorEnsemble(
            rates=np.empty(0),
            couplings=np.empty(0),
            gamma_min=1.0,
            gamma_max=10.0,
            sigma=0.0,
        )
        paths = rtn_paths(empty, 1.0, 0)
        edges, values = noise_segments(paths)
        assert np.array_equal(values, [0.0])
        assert np.array_equal(sampled_noise(paths, 5), np.zeros(5))

    def test_switch_times_sorted_inside_the_window(self):
        ens = sample_ensemble(250, 1.0, 1e6, 1.0, 12)
        paths = rtn_paths(ens, 1.0e-4, 13)
        assert len(paths.switch_times) == ens.n
        assert sum(t.size for t in paths.switch_times) > 100
        for times in paths.switch_times:
            assert np.all(np.diff(times) >= 0.0)
            assert np.all((times >= 0.0) & (times < 1.0e-4))

    def test_segments_alternate_fluctuator_value(self):
        ens = single_fluctuator(50.0, v=2.0)
        paths = rtn_paths(ens, 0.5, 8)
        edges, values = noise_segments(paths)
        n_switch = paths.switch_times[0].size
        assert values.size == n_switch + 1
        sign = paths.initial_states[0]
        assert np.allclose(values, 2.0 * sign * (-1.0) ** np.arange(n_switch + 1))


class TestSampledNoise:
    @pytest.mark.parametrize(
        "n, gamma_max, t_max, n_samples, switches",
        [
            (5, 10.0, 1.0e-6, 7, (0, 0)),
            (10, 1.0e3, 1.0e-2, 101, (5, 50)),
            # the bath of the psd_1f benchmark: 250 fluctuators, 1 Hz-1 MHz, 25 ms
            (250, 1.0e6, 2.5e-2, 50_000, (200_000, 1_000_000)),
        ],
    )
    def test_matches_segment_lookup(self, n, gamma_max, t_max, n_samples, switches):
        sigma = 2.0
        paths = rtn_paths(sample_ensemble(n, 1.0, gamma_max, sigma, 31), t_max, 32)
        assert switches[0] <= sum(t.size for t in paths.switch_times) <= switches[1]
        edges, values = noise_segments(paths)
        grid = np.linspace(0.0, t_max, n_samples)
        want = values[np.searchsorted(edges, grid, "right") - 1]
        assert np.abs(sampled_noise(paths, n_samples) - want).max() <= 1e-12 * sigma


class TestEvolveTrajectory:
    def cfg(self, **kw):
        base = dict(
            qubit_a=quiet_qubit(),
            qubit_b=quiet_qubit(),
            n_trajectories=1,
            t_max=200.0 / OMEGA,
            n_samples=81,
            seed=0,
            n_fluctuators=4,
        )
        base.update(kw)
        return SimConfig(**base)

    def quiet_paths(self, cfg, which="a"):
        q = cfg.qubit_a if which == "a" else cfg.qubit_b
        ens = sample_ensemble(cfg.n_fluctuators, q.gamma_min, q.gamma_max, q.sigma, 1)
        return rtn_paths(ens, cfg.t_max, 2)

    def test_free_evolution_phases(self):
        cfg = self.cfg()
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        ground = np.array([1.0, 0.0])
        psi = np.kron(plus, ground)
        rho0 = np.outer(psi, psi.conj())
        res = evolve_trajectory(rho0, self.quiet_paths(cfg, "a"), self.quiet_paths(cfg, "b"), cfg)
        want = 0.5 * np.exp(-1j * OMEGA * res.times)
        assert np.abs(res.states[:, 0, 2] - want).max() < 1e-10
        diag = np.einsum("kii->ki", res.states).real
        assert np.abs(diag - np.diag(rho0).real).max() < 1e-12

    def test_longitudinal_noise_keeps_populations(self):
        cfg = self.cfg(
            qubit_a=noisy_qubit(theta=0.0, ratio=0.05),
            qubit_b=noisy_qubit(theta=0.0, ratio=0.05),
            t_max=5.0e4 / OMEGA,
        )
        rho0 = ewl_state(EWLParams(0.8, 0.6, "psi"))
        for seed in range(5):
            ens_a = sample_ensemble(30, 1.0, 1e6, cfg.qubit_a.sigma, seed)
            ens_b = sample_ensemble(30, 1.0, 1e6, cfg.qubit_b.sigma, seed + 50)
            res = evolve_trajectory(
                rho0,
                rtn_paths(ens_a, cfg.t_max, 100 + seed),
                rtn_paths(ens_b, cfg.t_max, 200 + seed),
                cfg,
            )
            diag = np.einsum("kii->ki", res.states).real
            assert np.abs(diag - np.diag(rho0).real).max() < 1e-12

    def test_unitarity_uncoupled(self):
        cfg = self.cfg(
            qubit_a=noisy_qubit(ratio=0.05), qubit_b=noisy_qubit(ratio=0.03),
            t_max=1.0e4 / OMEGA,
        )
        rho0 = ewl_state(EWLParams(1.0, INV_SQRT2, "psi"))
        ens = sample_ensemble(50, 1.0, 1e6, cfg.qubit_a.sigma, 4)
        ens_b = sample_ensemble(50, 1.0, 1e6, cfg.qubit_b.sigma, 5)
        res = evolve_trajectory(
            rho0, rtn_paths(ens, cfg.t_max, 6), rtn_paths(ens_b, cfg.t_max, 7), cfg
        )
        assert res.unitarity_defect() <= UNITARITY_TOL

    def test_unitarity_coupled_detuned(self):
        cfg = self.cfg(
            qubit_a=noisy_qubit(),
            qubit_b=AdiabaticParams(omega=1.2 * OMEGA, theta=math.pi / 2, sigma=0.024 * OMEGA),
            coupling_g=1.0e9,
            t_max=1.0e4 / OMEGA,
        )
        rho0 = ewl_state(EWLParams(1.0, INV_SQRT2, "psi"))
        ens_a = sample_ensemble(50, 1.0, 1e6, cfg.qubit_a.sigma, 14)
        ens_b = sample_ensemble(50, 1.0, 1e6, cfg.qubit_b.sigma, 15)
        res = evolve_trajectory(
            rho0, rtn_paths(ens_a, cfg.t_max, 16), rtn_paths(ens_b, cfg.t_max, 17), cfg
        )
        assert res.unitarity_defect() <= UNITARITY_TOL


class TestMonteCarlo:
    def test_single_noiseless_trajectory_is_constant(self):
        cfg = SimConfig(
            qubit_a=quiet_qubit(),
            qubit_b=quiet_qubit(),
            n_trajectories=1,
            t_max=1.0e3 / OMEGA,
            n_samples=33,
            seed=5,
            n_fluctuators=2,
        )
        rho0 = ewl_state(EWLParams(1.0, INV_SQRT2, "psi"))
        mc = monte_carlo_concurrence(rho0, cfg)
        # sqrt of the three zero eigenvalues amplifies 1e-16 rounding to 1e-8
        assert np.abs(mc.concurrence - 1.0).max() < 1e-7

    def test_seed_reproducibility(self):
        cfg = SimConfig(
            qubit_a=noisy_qubit(),
            qubit_b=noisy_qubit(),
            n_trajectories=40,
            t_max=2.0e3 / OMEGA,
            n_samples=17,
            seed=77,
            n_fluctuators=25,
        )
        rho0 = ewl_state(EWLParams(0.9, INV_SQRT2, "psi"))
        a = monte_carlo_concurrence(rho0, cfg)
        b = monte_carlo_concurrence(rho0, cfg)
        assert np.array_equal(a.concurrence, b.concurrence)
        assert np.array_equal(a.rho_mean, b.rho_mean)

    def test_worker_count_does_not_change_results(self):
        cfg = SimConfig(
            qubit_a=noisy_qubit(),
            qubit_b=noisy_qubit(),
            n_trajectories=96,
            t_max=2.0e3 / OMEGA,
            n_samples=9,
            seed=31,
            n_fluctuators=25,
        )
        rho0 = ewl_state(EWLParams(0.9, INV_SQRT2, "phi"))
        serial = monte_carlo_concurrence(rho0, cfg, n_workers=1)
        parallel = monte_carlo_concurrence(rho0, cfg, n_workers=3)
        assert np.array_equal(serial.concurrence, parallel.concurrence)
        assert np.array_equal(serial.rho_mean, parallel.rho_mean)
        assert np.array_equal(serial.stderr, parallel.stderr)

    def test_two_trajectories_get_an_error_bar(self):
        # fewer trajectories than CHUNK_SIZE still split into two batches
        cfg = SimConfig(
            qubit_a=noisy_qubit(),
            qubit_b=noisy_qubit(),
            n_trajectories=CHUNK_SIZE,
            t_max=3.0e3 / OMEGA,
            n_samples=9,
            seed=4,
            n_fluctuators=25,
        )
        rho0 = ewl_state(EWLParams(1.0, INV_SQRT2, "psi"))
        mc = monte_carlo_concurrence(rho0, cfg)
        assert np.all(mc.stderr[1:] > 0.0)
        single = monte_carlo_concurrence(rho0, replace(cfg, n_trajectories=1))
        assert np.all(np.isnan(single.stderr))

    def test_average_state_invariants(self):
        cfg = SimConfig(
            qubit_a=noisy_qubit(),
            qubit_b=noisy_qubit(),
            n_trajectories=64,
            t_max=3.0e3 / OMEGA,
            n_samples=21,
            seed=13,
            n_fluctuators=25,
        )
        rho0 = ewl_state(EWLParams(0.91, INV_SQRT2, "psi"))
        mc = monte_carlo_concurrence(rho0, cfg)
        trace = np.einsum("kii->k", mc.rho_mean)
        assert np.abs(trace - 1.0).max() <= 1e-12
        herm = np.abs(mc.rho_mean - mc.rho_mean.conj().transpose(0, 2, 1)).max()
        assert herm <= 1e-12
        assert np.all((mc.concurrence >= 0.0) & (mc.concurrence <= 1.0))

    def test_matches_static_path_average(self):
        # fig4a's resonant curve: the telegraph bath is quasi-static over
        # the record (gamma t <= 0.04), so the ensemble average must agree
        # with the closed-form static-path average within its error bar
        qubit = AdiabaticParams(omega=OMEGA, theta=math.pi / 2, sigma=0.02 * OMEGA)
        cfg = SimConfig(
            qubit_a=qubit,
            qubit_b=qubit,
            n_trajectories=2000,
            t_max=4.0e3 / OMEGA,
            n_samples=5,
            seed=20110,
        )
        state = EWLParams(1.0, INV_SQRT2, "psi")
        mc = monte_carlo_concurrence(ewl_state(state), cfg)
        spa = adiabatic_concurrence(mc.times, qubit, qubit, state)
        z = (mc.concurrence[1:] - spa[1:]) / mc.stderr[1:]
        assert np.all(np.abs(z) <= 3.0), z


class TestPsdEstimate:
    def test_single_fluctuator_lorentzian(self):
        gamma = 500.0
        ens = single_fluctuator(gamma)
        est = psd_estimate(ens, 0.5, 150, 42, sample_hz=2.0e4)
        lorentz = 4.0 * gamma / (4.0 * gamma**2 + est.omega**2)
        # plateau: band-average well below the knee at 2*gamma
        plateau = est.omega < 0.2 * 2.0 * gamma
        ratio = est.s_estimated[plateau].mean() / lorentz[plateau].mean()
        assert abs(ratio - 1.0) < 0.25
        # tail: log-log slope approaches -2 above the knee
        tail = (est.omega > 8.0 * gamma) & (est.omega < 2.0 * math.pi * 5.0e3)
        slope = np.polyfit(
            np.log(est.omega[tail]), np.log(est.s_estimated[tail]), 1
        )[0]
        assert abs(slope + 2.0) < 0.25

    def test_doubling_couplings_quadruples_spectrum(self):
        ens = sample_ensemble(20, 10.0, 1.0e5, 1.0, 5)
        loud = replace(ens, couplings=2.0 * ens.couplings, sigma=2.0 * ens.sigma)
        a = psd_estimate(ens, 0.05, 100, 9, sample_hz=4.0e5)
        b = psd_estimate(loud, 0.05, 100, 9, sample_hz=4.0e5)
        assert np.allclose(b.s_estimated, 4.0 * a.s_estimated, rtol=1e-12, atol=0.0)

    def test_seed_pinned_regression(self):
        # values recorded when the PSD began to draw its signal through
        # rtn_paths and sampled_noise; any change to its random stream or
        # arithmetic shows here
        ens = sample_ensemble(30, 10.0, 1.0e5, 1.0, 21)
        est = psd_estimate(ens, 0.01, 100, 3, sample_hz=1.0e5)
        assert est.s_estimated.size == 500
        pinned = {  # index: (omega, s_estimated)
            0: (628.3185307179587, 0.0004353239714612944),
            9: (6283.185307179586, 7.279566116209713e-05),
            99: (62831.853071795864, 4.245575437117806e-06),
            499: (314159.2653589793, 3.499157863238435e-07),
        }
        for i, (omega, s_est) in pinned.items():
            assert est.omega[i] == omega
            assert est.s_estimated[i] == s_est

    def test_small_ensemble_one_over_f_shape(self):
        sigma = 1.0
        ens = sample_ensemble(120, 1.0, 1.0e5, sigma, 11)
        est = psd_estimate(ens, 0.4, 120, 17, sample_hz=4.0e5)
        fit = fit_one_over_f(est)
        assert abs(fit.slope + 1.0) <= 0.1
        assert abs(fit.amplitude_ratio - 1.0) <= 0.2

    def test_narrow_band_fit_rejected(self):
        ens = single_fluctuator(100.0)
        est = psd_estimate(ens, 0.1, 100, 1, sample_hz=1.0e4)
        with pytest.raises(ParameterError, match="band"):
            fit_one_over_f(est)

    def test_realization_floor(self):
        ens = single_fluctuator(100.0)
        with pytest.raises(ParameterError, match="realizations"):
            psd_estimate(ens, 0.1, 10, 1)

    @pytest.mark.parametrize(
        "t_max, sample_hz",
        [(math.inf, 1.0e4), (math.nan, 1.0e4), (0.1, math.inf), (0.1, math.nan), (0.0, 1.0e4)],
    )
    def test_segment_must_be_positive_and_finite(self, t_max, sample_hz):
        ens = single_fluctuator(100.0)
        with pytest.raises(ParameterError, match="positive and finite"):
            psd_estimate(ens, t_max, 100, 1, sample_hz=sample_hz)
