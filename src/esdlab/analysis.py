"""Disentanglement-time extraction and parameter sweeps.

The disentanglement time is the first instant where the concurrence reaches
zero with the pre-clamp K function negative immediately after; every channel
in this package decays without revivals, so "first zero" and "stays zero"
coincide (a check on the search's scan warns otherwise).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .adiabatic import (
    AdiabaticParams,
    ESDResult,
    adiabatic_concurrence,
    esd_time_dephasing,
    esd_time_optimal,
)
from .constants import ESD_RELATIVE_TOL, OPTIMAL_POINT_TOL
from .errors import ParameterError
from .markov import QuantumNoiseParams, interplay_concurrence
from .states import EWLParams

__all__ = [
    "ConcurrenceCurve",
    "ESDResult",
    "SweepRow",
    "find_crossing_time",
    "sweep",
]


@dataclass(frozen=True)
class ConcurrenceCurve:
    """Sampled concurrence with optional per-point standard errors."""

    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if self.stderr is not None:
            object.__setattr__(self, "stderr", np.asarray(self.stderr, dtype=float))
        if times.ndim != 1 or times.shape != values.shape:
            raise ParameterError("times and values must be matching 1-d arrays")
        if times.size < 2 or np.any(np.diff(times) <= 0.0):
            raise ParameterError("times must be strictly increasing")
        if values.min() < -1e-9 or values.max() > 1.0 + 1e-9:
            raise ParameterError("concurrence samples must lie in [0, 1]")


def find_crossing_time(c, t_max: float) -> ESDResult:
    """First time a concurrence function or curve drops to zero.

    Callables must map a 1-d array of times to an array of values. They are
    scanned on a logarithmic grid of 10^4 points (plus t=0), and the first
    sign-change bracket, c(lo) > 0 >= c(hi), is narrowed ("bisection") to
    relative width ``ESD_RELATIVE_TOL`` by evaluating its interior in 64
    parts per call; a scan value positive after the first zero warns.
    Sampled curves are interpolated linearly, with the mean +/- 2 stderr
    crossings reported as the bracket when finite errors are available, and
    the enclosing grid interval otherwise.
    """
    if isinstance(c, ConcurrenceCurve):
        return _crossing_from_curve(c)
    if t_max <= 0.0:
        raise ParameterError("t_max must be positive")
    grid = np.concatenate([[0.0], np.geomspace(t_max * 1e-12, t_max, 10_000)])
    vals = np.asarray(c(grid), dtype=float)
    if vals.shape != grid.shape:
        raise ParameterError("a concurrence function must map an array of times to an array")
    if vals[0] < -1e-12:
        raise ParameterError("concurrence must start non-negative")
    if vals[0] <= 0.0:
        return ESDResult(time=0.0, bracket=(0.0, 0.0), method="bisection", never_entangled=True)
    i = _first_zero(vals)
    if i == grid.size:
        return ESDResult(time=None, bracket=None, method="bisection")
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
        j = _first_zero(np.asarray(c(inner), dtype=float)) + 1
        lo, hi = edges[j - 1], edges[j]
    return ESDResult(time=0.5 * (lo + hi), bracket=(lo, hi), method="bisection")


def _first_zero(vals: np.ndarray) -> int:
    """Index of the first value <= 0, or ``vals.size`` when there is none."""
    below = np.nonzero(vals <= 0.0)[0]
    return int(below[0]) if below.size else vals.size


def _interp_crossing(times, vals) -> float | None:
    i = _first_zero(vals)
    if i == vals.size:
        return None
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    v0, v1 = vals[i - 1], vals[i]
    if v0 == v1:
        return float(t1)
    return float(t0 + v0 * (t1 - t0) / (v0 - v1))


def _crossing_from_curve(curve: ConcurrenceCurve) -> ESDResult:
    t = _interp_crossing(curve.times, curve.values)
    if t is None:
        return ESDResult(time=None, bracket=None, method="grid")
    if t == curve.times[0] and curve.values[0] <= 0.0:
        return ESDResult(time=t, bracket=(t, t), method="grid", never_entangled=True)
    # a single Monte Carlo trajectory has no error bar (nan): use the grid
    if curve.stderr is not None and np.all(np.isfinite(curve.stderr)):
        lo = _interp_crossing(curve.times, curve.values - 2.0 * curve.stderr)
        hi = _interp_crossing(curve.times, curve.values + 2.0 * curve.stderr)
        bracket = (
            lo if lo is not None else float(curve.times[0]),
            hi if hi is not None else float(curve.times[-1]),
        )
    else:
        i = _first_zero(curve.values)
        bracket = (float(curve.times[i - 1]), float(curve.times[i]))
    return ESDResult(time=t, bracket=bracket, method="grid")


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepRow:
    """Disentanglement times of both flavors for one grid value."""

    value: float
    esd_phi: ESDResult
    esd_psi: ESDResult


def _with_value(state: EWLParams, over: str, value: float) -> EWLParams:
    if over == "r":
        return replace(state, r=float(value))
    if value < 0.0 or value > 1.0:
        raise ParameterError("a2 grid values must lie in [0, 1]")
    return replace(state, a=math.sqrt(value))


def _adiabatic_closed_form(state, ad_a, ad_b) -> ESDResult | None:
    symmetric = (
        ad_a.theta == ad_b.theta
        and ad_a.sigma == ad_b.sigma
        and ad_a.omega == ad_b.omega
    )
    if not symmetric:
        return None
    if abs(ad_a.theta - math.pi / 2.0) <= OPTIMAL_POINT_TOL:
        return esd_time_optimal(state, ad_a.sigma, ad_a.omega)
    if ad_a.theta == 0.0:
        return esd_time_dephasing(state, ad_a.sigma)
    return None


def sweep(
    over: str,
    grid,
    state: EWLParams,
    ad_a: AdiabaticParams,
    ad_b: AdiabaticParams,
    qn: QuantumNoiseParams | None,
    t_max: float,
) -> list[SweepRow]:
    """Disentanglement times over a parameter grid.

    ``over`` selects the swept quantity ("r" or "a2"); all other parameters
    stay fixed. With ``qn is None`` only the low-frequency noise acts: the
    result is flavor independent and comes from a closed form where one
    exists, else from a search on :func:`adiabatic_concurrence`. Any other
    ``qn`` searches each flavor on the composed channel,
    :func:`interplay_concurrence`. Rows come back in grid order.
    """
    if over not in ("r", "a2"):
        raise ParameterError(f"sweep variable must be 'r' or 'a2', got {over!r}")
    if t_max <= 0.0:
        raise ParameterError("t_max must be positive")
    grid = [float(v) for v in grid]
    if not grid:
        raise ParameterError("sweep grid must not be empty")

    rows = []
    for value in grid:
        s = _with_value(state, over, value)
        if qn is None:
            esd = _adiabatic_closed_form(s, ad_a, ad_b) or find_crossing_time(
                lambda t, s=s: adiabatic_concurrence(t, ad_a, ad_b, s), t_max
            )
            rows.append(SweepRow(value, esd, esd))
            continue
        phi, psi = (
            find_crossing_time(
                lambda t, sf=replace(s, flavor=f): interplay_concurrence(t, sf, ad_a, ad_b, qn),
                t_max,
            )
            for f in ("phi", "psi")
        )
        rows.append(SweepRow(value, phi, psi))
    return rows
