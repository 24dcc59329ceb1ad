import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import signal, stats

from esdlab import stochastic
from esdlab.adiabatic import AdiabaticParams, adiabatic_concurrence
from esdlab.errors import ParameterError
from esdlab.markov import QuantumNoiseParams, interplay_concurrence
from esdlab.states import EWLParams, ewl_state
from esdlab.stochastic import (
    CHUNK_SIZE,
    FluctuatorEnsemble,
    SimConfig,
    evolve_trajectory,
    fit_one_over_f,
    monte_carlo_concurrence,
    psd_estimate,
    rtn_paths,
    sample_ensemble,
)

from _oracles import (
    binned_noise,
    hann_periodogram,
    noise_segments,
    stream_v2_paths,
    trajectory_states,
)
from conftest import random_density_matrix

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
        signs, times = stream_v2_paths(ens, t_max, np.random.default_rng(9))
        assert np.array_equal(paths.initial_states, signs)
        assert [t.size for t in paths.switch_times] == [t.size for t in times]
        for got, want in zip(paths.switch_times, times):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "baths, switches, idle",
        [
            # the bath of the psd_1f benchmark at the PSD's horizon, 5e4 samples at 2 MHz
            ([(250, 1.0, 1.0e6, 19, 49_999 / 2.0e6)], (400_000, 500_000), 1),
            # two many-switch paths drawn a then b from one generator, as a
            # Monte Carlo trajectory draws its qubits' paths
            ([(50, 1.0e6, 1.0e8, 4, 1.0e-6), (60, 1.0e6, 1.0e8, 5, 1.0e-6)], (1_000, 2_000), 0),
            # most fluctuators never switch
            ([(100, 1.0, 1.0e4, 6, 1.0e-3)], (50, 500), 50),
        ],
        ids=["psd_1f", "pair", "quiet"],
    )
    def test_matches_the_stream_reference(self, baths, switches, idle):
        # one fluctuator's switch times at a time give the bits of one draw
        # of all of them: PCG64 hands out its doubles one after another
        got_rng, want_rng = np.random.default_rng(77), np.random.default_rng(77)
        for n, gamma_min, gamma_max, seed, t_max in baths:
            ens = sample_ensemble(n, gamma_min, gamma_max, 1.0, seed)
            paths = rtn_paths(ens, t_max, got_rng)
            signs, times = stream_v2_paths(ens, t_max, want_rng)
            assert np.array_equal(paths.initial_states, signs)
            assert len(paths.switch_times) == n
            for got, want in zip(paths.switch_times, times):
                assert np.array_equal(got, want)
            assert paths.switching == tuple(i for i, t in enumerate(times) if t.size)
            assert switches[0] <= sum(t.size for t in times) <= switches[1]
            assert idle <= n - len(paths.switching) < n
        assert got_rng.random() == want_rng.random()  # both streams stop at the same draw

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
            x = library_noise(paths, grid.size)
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
        assert np.array_equal(library_noise(paths, 5), np.zeros(5))

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


def library_noise(paths, n_samples):
    """X(t) of a kept path on its sample grid, by the library's one binning
    rule, which the PSD applies to each realization as it is drawn."""
    switches = ((i, paths.switch_times[i]) for i in paths.switching)
    return stochastic._binned_noise(paths.ensemble.couplings, paths.initial_states, switches,
                                    paths.t_max, n_samples)


def every_fluctuator_segments(paths):
    """noise_segments built by visiting every fluctuator and keeping those
    whose switch_times entry is not empty."""
    x0 = np.sum(paths.ensemble.couplings * paths.initial_states)
    t_all, jump_all = [np.empty(0)], [np.empty(0)]
    for v, s0, times in zip(paths.ensemble.couplings, paths.initial_states, paths.switch_times):
        if times.size:
            t_all.append(times)
            jump_all.append(2.0 * v * s0 * (-1.0) ** np.arange(1, times.size + 1))
    order = np.argsort(np.concatenate(t_all), kind="stable")
    edges = np.concatenate([[0.0], np.concatenate(t_all)[order]])
    values = x0 + np.concatenate([[0.0], np.cumsum(np.concatenate(jump_all)[order])])
    return edges, values


class TestSwitchingIndices:
    def test_name_the_fluctuators_that_switch(self):
        # the bath of the psd_1f benchmark: 250 fluctuators, 1 Hz-1 MHz, 25 ms
        paths = rtn_paths(sample_ensemble(250, 1.0, 1.0e6, 2.0e9, 31), 2.5e-2, 32)
        assert 0 < len(paths.switching) < 250
        assert paths.switching == tuple(i for i, t in enumerate(paths.switch_times) if t.size)

    def test_only_the_last_fluctuator_switches(self):
        ens = sample_ensemble(5, 1.0, 1.0e3, 2.0, 7)
        times = np.array([0.011, 0.25, 0.5005, 0.73])
        paths = stochastic.RtnPaths(
            ensemble=ens, t_max=1.0, initial_states=np.array([1.0, -1.0, -1.0, 1.0, -1.0]),
            switch_times=(np.empty(0),) * 4 + (times,), switching=(4,),
        )
        edges, values = every_fluctuator_segments(paths)
        samples = binned_noise(paths, 101)
        assert np.count_nonzero(np.diff(samples)) == times.size  # every switch shows
        got_edges, got_values = noise_segments(paths)
        assert np.array_equal(got_edges, edges)
        assert np.array_equal(got_values, values)
        assert np.array_equal(library_noise(paths, 101), samples)


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
        assert np.abs(library_noise(paths, n_samples) - want).max() <= 1e-12 * sigma


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
        states = stochastic._chunk_sum((res,))
        want = 0.5 * np.exp(-1j * OMEGA * cfg.times)
        assert np.abs(states[:, 0, 2] - want).max() < 1e-10
        diag = np.einsum("kii->ki", states).real
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
            diag = np.einsum("kii->ki", stochastic._chunk_sum((res,))).real
            assert np.abs(diag - np.diag(rho0).real).max() < 1e-12

    @staticmethod
    def assert_unitary_image(states, rho0):
        # U rho0 U^dagger keeps trace, hermiticity and purity; a propagator
        # that is not unitary changes the last at first order
        trace = np.einsum("kii->k", states)
        assert np.abs(trace - 1.0).max() <= 1e-12
        assert np.abs(states - states.conj().transpose(0, 2, 1)).max() <= 1e-12
        purity = np.einsum("kij,kji->k", states, states).real
        assert np.abs(purity - np.trace(rho0 @ rho0).real).max() <= 1e-12

    @staticmethod
    def many_switch_paths(cfg, seed):
        # rates of 1-100 MHz over omega t = 1e4 (0.1 us): every path switches
        # often enough that the running product over segments shapes the states
        paths = tuple(
            rtn_paths(sample_ensemble(50, 1.0e6, 1.0e8, q.sigma, seed + k), cfg.t_max, seed + 2 + k)
            for k, q in enumerate((cfg.qubit_a, cfg.qubit_b))
        )
        assert all(sum(t.size for t in p.switch_times) >= 20 for p in paths)
        return paths

    def test_unitarity_uncoupled(self):
        cfg = self.cfg(
            qubit_a=noisy_qubit(ratio=0.05), qubit_b=noisy_qubit(ratio=0.03),
            t_max=1.0e4 / OMEGA,
        )
        paths = self.many_switch_paths(cfg, 4)
        for r in (1.0, 0.91):
            rho0 = ewl_state(EWLParams(r, INV_SQRT2, "psi"))
            res = evolve_trajectory(rho0, *paths, cfg)
            self.assert_unitary_image(stochastic._chunk_sum((res,)), rho0)

    def test_unitarity_coupled_detuned(self):
        cfg = self.cfg(
            qubit_a=noisy_qubit(),
            qubit_b=AdiabaticParams(omega=1.2 * OMEGA, theta=math.pi / 2, sigma=0.024 * OMEGA),
            coupling_g=1.0e9,
            t_max=1.0e4 / OMEGA,
        )
        paths = self.many_switch_paths(cfg, 14)
        for r in (1.0, 0.91):
            rho0 = ewl_state(EWLParams(r, INV_SQRT2, "psi"))
            res = evolve_trajectory(rho0, *paths, cfg)
            self.assert_unitary_image(stochastic._chunk_sum((res,)), rho0)

    @pytest.mark.parametrize("rho0, match", [
        (np.diag([1.0 + 1e-9, 0.0, 0.0, -1e-9]), "not a state"),
        (np.diag([0.6, 0.5, 0.0, -0.1]), "not a state"),
        (np.triu(np.full((4, 4), 0.25)), "not Hermitian"),
        (np.diag([0.5, 0.5, math.nan, 0.0]), "non-finite"),
        (np.ones((2, 2)) / 2.0, "shape"),
        (np.eye(4) / 2.0, "trace"),  # ran, with a mean state of trace 2
    ])
    def test_rejects_what_is_not_a_state(self, rho0, match):
        # a negative eigenvalue beyond rounding is never clipped away
        cfg = self.cfg()
        paths = self.quiet_paths(cfg, "a"), self.quiet_paths(cfg, "b")
        with pytest.raises(ParameterError, match=match):
            evolve_trajectory(rho0, *paths, cfg)
        with pytest.raises(ParameterError, match=match):
            monte_carlo_concurrence(rho0, cfg)


class TestBlockedSampler:
    """The chunk sum of the two-stage engine against the per-trajectory
    oracle, which expands every trajectory onto the grid with stacked matrix
    products."""

    @staticmethod
    def chunk_and_oracle(cfg, rho0, start, stop):
        ens_a, ens_b = (
            sample_ensemble(cfg.n_fluctuators, q.gamma_min, q.gamma_max, q.sigma,
                            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(key,)))
            for key, q in enumerate((cfg.qubit_a, cfg.qubit_b))
        )
        rho_sum, _ = stochastic._run_chunk((rho0, cfg, ens_a, ens_b, start, stop))
        want = np.zeros_like(rho_sum)
        switches = 0
        for i in range(start, stop):
            rng = stochastic._trajectory_rng(cfg.seed, i)
            a, b = rtn_paths(ens_a, cfg.t_max, rng), rtn_paths(ens_b, cfg.t_max, rng)
            switches += sum(t.size for t in (*a.switch_times, *b.switch_times))
            want += trajectory_states(rho0, a, b, cfg)
        return rho_sum, want, switches / (2 * (stop - start))

    @pytest.mark.parametrize("theta", [math.pi / 2, 0.3, 0.0])
    @pytest.mark.parametrize("coupling_g", [0.0, 1.0e9])
    @pytest.mark.parametrize("r", [1.0, 0.91])
    def test_chunk_sum_matches_per_trajectory_oracle(self, theta, coupling_g, r):
        cfg = SimConfig(
            qubit_a=noisy_qubit(theta=theta),
            qubit_b=AdiabaticParams(omega=1.2 * OMEGA, theta=theta, sigma=0.024 * OMEGA),
            n_trajectories=16, t_max=5.0e3 / OMEGA, n_samples=41, seed=19,
            coupling_g=coupling_g,
        )
        rho0 = ewl_state(EWLParams(r, INV_SQRT2, "psi"))
        # 7 trajectories: blocks of 4 trajectories leave one part-filled
        got, want, _ = self.chunk_and_oracle(cfg, rho0, 3, 10)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("coupling_g", [0.0, 1.0e9])
    def test_full_rank_state_matches_per_trajectory_oracle(self, coupling_g):
        # three factor columns above the floor: a block of one trajectory
        cfg = SimConfig(
            qubit_a=noisy_qubit(theta=0.3),
            qubit_b=AdiabaticParams(omega=1.2 * OMEGA, theta=0.3, sigma=0.024 * OMEGA),
            n_trajectories=8, t_max=5.0e3 / OMEGA, n_samples=41, seed=29,
            coupling_g=coupling_g,
        )
        rho0 = random_density_matrix(np.random.default_rng(30))
        assert stochastic._state_factor(rho0)[0].shape[1] == 3
        got, want, _ = self.chunk_and_oracle(cfg, rho0, 0, 3)
        assert np.abs(got - want).max() <= 1e-12

    def test_maximally_mixed_state_stays_put(self):
        # rho0 = I/4 is all floor: no column to propagate
        cfg = SimConfig(
            qubit_a=noisy_qubit(), qubit_b=noisy_qubit(), n_trajectories=5,
            t_max=5.0e3 / OMEGA, n_samples=9, seed=3, coupling_g=1.0e9,
        )
        mc = monte_carlo_concurrence(np.eye(4) / 4.0, cfg)
        assert np.abs(mc.rho_mean - np.eye(4) / 4.0).max() <= 1e-15
        assert np.all(mc.concurrence == 0.0)

    @pytest.mark.parametrize("coupling_g, detune", [(0.0, 1.0), (1.0e9, 1.2)])
    def test_many_switches_match_per_trajectory_oracle(self, coupling_g, detune):
        # omega t = 4e5: about 75 switches per path, so ~150 segments
        cfg = SimConfig(
            qubit_a=noisy_qubit(),
            qubit_b=AdiabaticParams(omega=detune * OMEGA, theta=math.pi / 2,
                                    sigma=0.02 * detune * OMEGA),
            n_trajectories=8, t_max=4.0e5 / OMEGA, n_samples=101, seed=23,
            coupling_g=coupling_g,
        )
        rho0 = ewl_state(EWLParams(1.0, INV_SQRT2, "psi"))
        got, want, per_path = self.chunk_and_oracle(cfg, rho0, 0, 5)
        assert 50 <= per_path <= 100
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("coupling_g, detune", [(0.0, 1.0), (1.0e9, 1.2)])
    @pytest.mark.parametrize("r", [1.0, 0.91])
    def test_chunk_boundaries_match_per_trajectory_oracle(self, coupling_g, detune, r):
        # the running product restarts at each trajectory's first segment:
        # a chunk whose first and last trajectories never switch, around
        # four with ~75 switches a path, and a chunk of one trajectory
        cfg = SimConfig(
            qubit_a=noisy_qubit(),
            qubit_b=AdiabaticParams(omega=detune * OMEGA, theta=math.pi / 2,
                                    sigma=0.02 * detune * OMEGA),
            n_trajectories=6, t_max=4.0e5 / OMEGA, n_samples=101, seed=37,
            coupling_g=coupling_g,
        )
        rho0 = ewl_state(EWLParams(r, INV_SQRT2, "psi"))
        ens_a, ens_b = (sample_ensemble(250, 1.0, 1.0e6, q.sigma, 38 + k)
                        for k, q in enumerate((cfg.qubit_a, cfg.qubit_b)))
        busy = [(rtn_paths(ens_a, cfg.t_max, 40 + i), rtn_paths(ens_b, cfg.t_max, 50 + i))
                for i in range(4)]
        assert all(50 <= sum(t.size for t in p.switch_times) <= 100 for pair in busy for p in pair)
        quiet = tuple(replace(p, switch_times=(np.empty(0),) * p.ensemble.n, switching=())
                      for p in busy[0])
        for paths in ([quiet, *busy, quiet], busy[:1]):
            trajectories = [evolve_trajectory(rho0, a, b, cfg) for a, b in paths]
            want = sum(trajectory_states(rho0, a, b, cfg) for a, b in paths)
            got = stochastic._chunk_sum(trajectories)
            assert np.abs(got - want).max() <= 1e-12


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

    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2])
    def test_markov_limit_matches_the_quantum_channel(self, theta):
        # four fluctuators switching at gamma = 5 omega: over omega t = 40
        # (gamma t = 200) the bath is white on the qubit's scale, so at any
        # operating angle the engine must reproduce the weak-coupling channel
        # at the telegraph spectrum S(omega) = sigma^2 4 gamma / (4 gamma^2 + omega^2),
        # with populations relaxing to 1/2 (T = 1e6 K) and no static noise.
        # The spectrum is flat to 1% between 0 and omega, so S(omega) also
        # sets the pure dephasing at theta != pi/2. At T = 1e6 K both flavors
        # have the same channel curve.
        omega, gamma, variance = 1.0, 5.0, 0.2
        with pytest.warns(UserWarning, match="static-path treatment degrades"):
            bath = AdiabaticParams(omega=omega, theta=theta, sigma=math.sqrt(variance),
                                   gamma_min=gamma, gamma_max=gamma * (1.0 + 1e-6))
        cfg = SimConfig(qubit_a=bath, qubit_b=bath, n_trajectories=1024, t_max=40.0 / omega,
                        n_samples=9, seed=20110, n_fluctuators=4)
        state = EWLParams(1.0, INV_SQRT2, "psi")
        mc = monte_carlo_concurrence(ewl_state(state), cfg)
        s_omega = variance * 4.0 * gamma / (4.0 * gamma**2 + omega**2)
        quiet = AdiabaticParams(omega=omega, theta=theta, sigma=0.0)
        channel = interplay_concurrence(
            mc.times, state, quiet, quiet, QuantumNoiseParams(s_white=s_omega, temperature=1.0e6)
        )
        # the channel has decayed most of the way; at theta = 0 no population
        # moves, and C = exp(-s_white t) ends at 0.21
        assert channel[-1] < (0.25 if theta == 0.0 else 0.1)
        z = (mc.concurrence[1:] - channel[1:]) / mc.stderr[1:]
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
        # values recorded when the PSD began to draw its signal like one
        # Monte Carlo path; they held when it came to draw and bin one
        # fluctuator at a time and to remove the row means itself. Any change
        # to its random stream or arithmetic shows here
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

    @pytest.mark.parametrize("rows", [1, 2, 101])
    def test_block_size_does_not_change_the_estimate(self, rows, monkeypatch):
        # 101 realizations leave the last block of two rows part-filled
        ens = sample_ensemble(30, 10.0, 1.0e5, 1.0, 21)
        whole = psd_estimate(ens, 0.01, 101, 3, sample_hz=1.0e5)
        assert whole.omega.size == 500  # 1000 samples a realization
        monkeypatch.setattr(stochastic, "PSD_BLOCK_SAMPLES", rows * 1000)
        est = psd_estimate(ens, 0.01, 101, 3, sample_hz=1.0e5)
        assert np.array_equal(est.omega, whole.omega)
        assert np.array_equal(est.s_estimated, whole.s_estimated)

    def test_matches_fft_periodogram_oracle(self):
        # realization k, rebuilt from spawn key (k,) and transformed by numpy
        ens = sample_ensemble(30, 10.0, 1.0e5, 1.0, 21)
        n_samples, sample_hz, seed = 1000, 1.0e5, 3
        est = psd_estimate(ens, n_samples / sample_hz, 101, seed, sample_hz=sample_hz)
        horizon = (n_samples - 1) * (1.0 / sample_hz)  # as psd_estimate rounds it
        signals = [
            binned_noise(rtn_paths(ens, horizon, np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(k,)))), n_samples)
            for k in range(101)
        ]
        freqs, pxx = hann_periodogram(signals, sample_hz)
        np.testing.assert_allclose(est.omega, 2.0 * math.pi * freqs[1:], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(est.s_estimated, pxx.mean(axis=0)[1:] / 2.0, rtol=1e-12, atol=0.0)

    def test_rows_are_the_sampled_noise_of_rtn_paths(self, monkeypatch):
        # realization k is drawn and binned one fluctuator at a time, never
        # kept as an RtnPaths, and reaches the periodogram with its mean removed
        ens = sample_ensemble(30, 10.0, 1.0e5, 1.0, 21)
        n_samples, sample_hz, seed = 1000, 1.0e5, 3
        horizon = (n_samples - 1) * (1.0 / sample_hz)  # as psd_estimate rounds it
        want = np.array([
            binned_noise(rtn_paths(ens, horizon, np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(k,)))), n_samples)
            for k in range(101)
        ])
        rows, transformed = [], []
        library_binned, periodogram = stochastic._binned_noise, signal.periodogram

        def spy_binned(*args, **kwargs):
            row = library_binned(*args, **kwargs)
            rows.append(row.copy())
            return row

        def spy_periodogram(x, **kwargs):
            assert kwargs["detrend"] is False
            transformed.append(x.copy())
            return periodogram(x, **kwargs)

        def no_paths(*args, **kwargs):
            raise AssertionError("psd_estimate kept a realization as an RtnPaths")

        monkeypatch.setattr(stochastic, "_binned_noise", spy_binned)
        monkeypatch.setattr(stochastic, "rtn_paths", no_paths)
        monkeypatch.setattr(signal, "periodogram", spy_periodogram)
        psd_estimate(ens, n_samples / sample_hz, 101, seed, sample_hz=sample_hz)
        assert np.array_equal(np.array(rows), want)
        # what scipy's detrend="constant" would hand on
        assert np.array_equal(np.concatenate(transformed), want - want.mean(axis=-1, keepdims=True))

    def test_synthesis_holds_one_fluctuator_at_a_time(self):
        # psd_estimate's step per realization on the bath of the psd_1f
        # benchmark: 250 fluctuators, 1 Hz-1 MHz, 5e4 samples at 2 MHz. Its
        # ~4.5e5 switch times take 3.6 MB; drawing them all at once and
        # binning them from RtnPaths peaked at 4.6 MB traced.
        ens = sample_ensemble(250, 1.0, 1.0e6, 2.0e9, 19)
        n_samples = 50_000
        horizon = (n_samples - 1) / 2.0e6
        seed = np.random.SeedSequence(3, spawn_key=(0,))
        want = binned_noise(rtn_paths(ens, horizon, np.random.default_rng(seed)), n_samples)
        row, rng = np.empty(n_samples), np.random.default_rng(seed)
        tracemalloc.start()
        try:
            signs, switches = stochastic._draw_path(ens, horizon, rng)
            stochastic._binned_noise(ens.couplings, signs, switches, horizon, n_samples, out=row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(row, want)
        assert peak < 2.0e6, peak

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
