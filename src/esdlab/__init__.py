"""Entanglement degradation of two qubits under broadband solid-state noise.

Closed-form concurrence for low-frequency (quasi-static) noise, a
weak-coupling quantum-noise channel with general two-qubit channel
composition, disentanglement times searched on those analytic curves, and a
random-telegraph Monte Carlo engine that cross-validates the analytics.
"""

from .adiabatic import (
    AdiabaticParams,
    adiabatic_concurrence,
    spa_kernel,
)
from .analysis import find_crossing_time, sweep
from .markov import (
    QuantumNoiseParams,
    coherence_factor,
    compose_two_qubit,
    gibbs_populations,
    interplay_concurrence,
    single_qubit_map,
)
from .qmath import (
    validate_density_matrix,
    validate_single_qubit_map,
    wootters_concurrence,
)
from .states import EWLParams, ewl_state
from .stochastic import (
    FluctuatorEnsemble,
    MonteCarloResult,
    PsdEstimate,
    RtnPaths,
    SimConfig,
    TrajectoryResult,
    evolve_trajectory,
    fit_one_over_f,
    monte_carlo_concurrence,
    psd_estimate,
    rtn_paths,
    sample_ensemble,
)

__version__ = "0.1.0"
