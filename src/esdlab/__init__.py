"""Entanglement degradation of two qubits under broadband solid-state noise.

Closed-form concurrence and disentanglement times for low-frequency
(quasi-static) noise, a weak-coupling quantum-noise channel with general
two-qubit channel composition, and a random-telegraph Monte Carlo engine
that cross-validates the analytics.
"""

from .adiabatic import (
    AdiabaticParams,
    adiabatic_concurrence,
    esd_time_dephasing,
    esd_time_optimal,
    spa_coherence_modulus,
    spa_kernel,
)
from .analysis import (
    ConcurrenceCurve,
    ESDResult,
    SweepRow,
    find_crossing_time,
    sweep,
)
from .markov import (
    GibbsPopulations,
    QuantumNoiseParams,
    coherence_factor,
    compose_two_qubit,
    evolve_ewl,
    gibbs_populations,
    interplay_concurrence,
    interplay_concurrence_bell,
    single_qubit_map,
)
from .qmath import (
    hermitian_eigenvalues,
    is_x_state,
    validate_density_matrix,
    validate_single_qubit_map,
    wootters_concurrence,
)
from .states import (
    EWLParams,
    critical_purity,
    ewl_state,
    xstate_concurrence,
    xstate_k,
)
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
