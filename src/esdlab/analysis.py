"""Disentanglement-time extraction and parameter sweeps.

The disentanglement time is the first instant where the concurrence reaches
zero with the pre-clamp K function negative immediately after. The search
runs only on analytic curves: the static-path average and the composed
channel of static and quantum noise. These decay without revivals, so
"first zero" and "stays zero" coincide (a check on the search's scan warns
otherwise). Monte Carlo curves are not searched: the equal couplings of a
sampled bath put its static offsets on a lattice, which can revive the
concurrence, and a sampled concurrence has a noise floor near zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

from .adiabatic import AdiabaticParams, adiabatic_concurrence, closed_form_esd_time
from .constants import ESD_RELATIVE_TOL
from .errors import ParameterError
from .markov import QuantumNoiseParams, interplay_concurrence, proven_esd_time

__all__ = [
    "find_crossing_time",
    "sweep",
]


def find_crossing_time(c, t_max: float) -> float:
    """First time a concurrence function drops to zero.

    ``c`` must map a 1-d array of times to an array of values. It is
    scanned on a logarithmic grid of 10^4 points (plus t=0), and the first
    sign-change bracket, c(lo) > 0 >= c(hi), is narrowed to relative width
    ``ESD_RELATIVE_TOL`` by evaluating its interior in 64 parts per call;
    the midpoint of the last bracket is returned. A scan value positive
    after the first zero warns. The time is 0.0 when c(0) <= 0 (separable
    from the start) and ``nan`` when no zero was found by t_max: not found,
    not never. It never returns ``inf``, and it reads a curve that underflows
    to 0 as a zero: :func:`sweep` settles the proven nevers before it searches.
    """
    if not 0.0 < t_max < math.inf:
        raise ParameterError("t_max must be positive and finite")
    grid = np.concatenate([[0.0], np.geomspace(t_max * 1e-12, t_max, 10_000)])
    vals = _evaluate(c, grid)
    if vals[0] < -1e-12:
        raise ParameterError("concurrence must start non-negative")
    if vals[0] <= 0.0:
        return 0.0
    i = _first_zero(vals)
    if i == grid.size:
        return math.nan
    if np.any(vals[i + 1:] > 0.0):
        warnings.warn("concurrence recovers after its first zero; reported time is "
                      "the first touch, not a permanent loss", stacklevel=2)
    lo, hi = grid[i - 1], grid[i]
    while hi - lo > ESD_RELATIVE_TOL * hi:
        # the ends are never evaluated again: c(lo) > 0 >= c(hi) rests on seen values
        inner = np.linspace(lo, hi, 65)[1:-1]
        inner = inner[(inner > lo) & (inner < hi)]
        if inner.size == 0:  # no float left strictly inside
            break
        edges = np.concatenate([[lo], inner, [hi]])
        j = _first_zero(_evaluate(c, inner)) + 1
        lo, hi = edges[j - 1], edges[j]
    return float(0.5 * (lo + hi))


def _evaluate(c, t: np.ndarray) -> np.ndarray:
    """``c(t)`` as floats of ``t``'s shape, all finite, else :class:`ParameterError`."""
    vals = np.asarray(c(t), dtype=float)
    if vals.shape != t.shape:
        raise ParameterError("a concurrence function must map an array of times to an array")
    if not np.isfinite(vals).all():  # a nan is neither > 0 nor <= 0
        raise ParameterError("a concurrence function returned a non-finite value")
    return vals


def _first_zero(vals: np.ndarray) -> int:
    """Index of the first value <= 0, or ``vals.size`` when there is none."""
    below = np.nonzero(vals <= 0.0)[0]
    return int(below[0]) if below.size else vals.size


# ---------------------------------------------------------------------------
# sweeps


def sweep(
    states,
    ad_a: AdiabaticParams,
    ad_b: AdiabaticParams,
    qn: QuantumNoiseParams,
    t_max: float,
) -> np.ndarray:
    """Disentanglement times of each of ``states``, as a ``(2, len(states))``
    array: row 0 the phi flavor, row 1 psi, columns in the given order. A
    state's own flavor is not read.

    A time is 0.0 or ``inf`` where :func:`proven_esd_time` says so. Else,
    with ``qn.s_white == 0`` (static noise alone, flavor independent), it is
    :func:`closed_form_esd_time` where that holds, or a search on
    :func:`adiabatic_concurrence`; any other ``qn`` searches each flavor on
    :func:`interplay_concurrence`. ``nan`` means that no zero was found.
    """
    if not 0.0 < t_max < math.inf:
        raise ParameterError("t_max must be positive and finite")
    if not states:
        raise ParameterError("sweep needs at least one state")

    times = np.empty((2, len(states)))
    for k, s in enumerate(states):
        if qn.s_white == 0.0:  # static noise alone gives both flavors one curve
            times[:, k] = _esd_time(s, ad_a, ad_b, qn, t_max)
        else:
            times[:, k] = [_esd_time(replace(s, flavor=flavor), ad_a, ad_b, qn, t_max)
                           for flavor in ("phi", "psi")]
    return times


def _esd_time(state, ad_a, ad_b, qn, t_max) -> float:
    """One cell of :func:`sweep`: proven, else a closed form, else a search."""
    esd = proven_esd_time(state, ad_a, ad_b, qn)
    if esd is not None:
        return esd
    if qn.s_white != 0.0:
        return find_crossing_time(lambda t: interplay_concurrence(t, state, ad_a, ad_b, qn), t_max)
    esd = closed_form_esd_time(state, ad_a, ad_b)
    if esd is None:
        esd = find_crossing_time(lambda t: adiabatic_concurrence(t, ad_a, ad_b, state), t_max)
    return esd
