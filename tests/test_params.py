"""Every parameter type rejects a number that is not finite. A nan compares
false with everything, so ``if x < 0: raise`` lets it through; each range
test is written as ``if not <valid range>: raise``, which a nan fails."""

import math

import pytest

from esdlab.adiabatic import AdiabaticParams
from esdlab.errors import ParameterError
from esdlab.markov import QuantumNoiseParams
from esdlab.states import EWLParams
from esdlab.stochastic import FluctuatorEnsemble, SimConfig

NAN, INF = math.nan, math.inf
QUBIT = AdiabaticParams(omega=1.0e11, theta=math.pi / 2, sigma=2.0e9)
VALID = {
    AdiabaticParams: dict(omega=1.0e11, theta=math.pi / 2, sigma=2.0e9),
    QuantumNoiseParams: dict(s_white=2.0e6, temperature=0.04),
    SimConfig: dict(qubit_a=QUBIT, qubit_b=QUBIT, n_trajectories=4, t_max=1.0e-8,
                    n_samples=5, seed=1),
    EWLParams: dict(r=0.9, a=1.0 / math.sqrt(2.0)),
    FluctuatorEnsemble: dict(rates=[10.0], couplings=[2.0], gamma_min=1.0, gamma_max=100.0,
                             sigma=2.0),
}
CASES = [
    (AdiabaticParams, "omega", NAN),
    (AdiabaticParams, "omega", INF),
    (AdiabaticParams, "theta", NAN),
    (AdiabaticParams, "sigma", NAN),
    (AdiabaticParams, "sigma", INF),
    (AdiabaticParams, "gamma_min", NAN),
    (AdiabaticParams, "gamma_max", NAN),
    (AdiabaticParams, "gamma_max", INF),
    (QuantumNoiseParams, "s_white", NAN),
    (QuantumNoiseParams, "s_white", INF),
    (QuantumNoiseParams, "temperature", NAN),
    (QuantumNoiseParams, "temperature", INF),
    (SimConfig, "t_max", NAN),
    (SimConfig, "t_max", INF),
    (SimConfig, "coupling_g", NAN),
    (SimConfig, "coupling_g", -INF),
    (SimConfig, "n_trajectories", NAN),
    (SimConfig, "n_samples", NAN),
    (SimConfig, "n_fluctuators", NAN),
    (EWLParams, "r", NAN),
    (EWLParams, "a", NAN),
    (EWLParams, "a", complex(INF, 0.0)),
    (EWLParams, "b_phase", NAN),
    (EWLParams, "b_phase", INF),
    (FluctuatorEnsemble, "gamma_min", NAN),
    (FluctuatorEnsemble, "gamma_max", INF),
    (FluctuatorEnsemble, "sigma", INF),
]


@pytest.mark.parametrize(
    "kind, field, value", CASES, ids=[f"{k.__name__}-{f}-{v}" for k, f, v in CASES]
)
def test_rejects_a_number_that_is_not_finite(kind, field, value):
    kind(**VALID[kind])  # the base is valid, so the error is the field's own
    with pytest.raises(ParameterError, match=field):
        kind(**{**VALID[kind], field: value})
