"""Geometric timing jitter of a transmission-line nanowire.

Photons absorb at uniform random positions along a wire of length ``l``; the
counter-propagating readout pulses sense the two outermost absorption sites,
so the event time estimate is the midrange (min+max)/(2 v) of the absorption
positions (a plain mean estimator is kept for comparison).  Monte Carlo over
absorption positions gives the per-photon-number timing spread and the
empirical scaling exponent of that spread with photon number.

Units: micrometers, micrometers/ps, ps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .histogram import ArrivalHistogram

_MC_CHUNK = 200_000


class Estimator(str, enum.Enum):
    MIDRANGE = "midrange"
    MEAN = "mean"


@dataclass(frozen=True)
class WireGeometry:
    """Nanowire length (um), signal velocity (um/ps), optional ground-return velocity."""

    length: float
    signal_velocity: float
    ground_velocity: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError("length must be positive")
        if not (math.isfinite(self.signal_velocity) and self.signal_velocity > 0.0):
            raise ValueError("signal_velocity must be positive")
        if self.ground_velocity is not None:
            if not (math.isfinite(self.ground_velocity) and self.ground_velocity > self.signal_velocity):
                raise ValueError("ground_velocity must exceed signal_velocity")


@dataclass(frozen=True)
class GeomMcResult:
    """Per-photon-number timing spread and the fitted scaling exponent.

    ``per_n_std`` rows are (n, sigma_ps, bootstrap_se_ps).  ``fitted_exponent``
    is the negative slope of the OLS fit of ln sigma vs ln n (None with fewer
    than two distinct n); ``fit_residual`` is the RMS log-space residual.
    """

    per_n_std: tuple[tuple[int, float, float], ...]
    fitted_exponent: float | None
    fit_residual: float | None

    def __post_init__(self) -> None:
        for n, sigma, se in self.per_n_std:
            if n < 1 or not sigma > 0.0 or not se > 0.0:
                raise ValueError("per_n_std rows must be (n >= 1, sigma > 0, se > 0)")


def geom_sigma_analytic(g: WireGeometry, n: int) -> float:
    """Closed-form midrange timing spread for n = 1 or n = 2 photons, ps.

    One absorption site is uniform on the wire (std l/sqrt(12)); for two
    sites the midrange of two uniforms has std l/sqrt(24).
    """
    if n == 1:
        return g.length / (2.0 * math.sqrt(3.0) * g.signal_velocity)
    if n == 2:
        return g.length / (2.0 * math.sqrt(6.0) * g.signal_velocity)
    raise ValueError("closed form available for n = 1 and n = 2 only")


def conventional_readout_delay(g: WireGeometry) -> float:
    """Mean single-ended readout delay (l/v + l/v_ground)/2, ps."""
    if g.ground_velocity is None:
        raise ValueError("ground_velocity required for the conventional readout delay")
    return (g.length / g.signal_velocity + g.length / g.ground_velocity) / 2.0


def _check_samples(samples: int) -> int:
    samples = int(samples)
    if samples < 10_000:
        raise ValueError("samples must be >= 10000")
    return samples


def _trial_times(
    g: WireGeometry, n: int, samples: int, rng: np.random.Generator, estimator: Estimator
) -> np.ndarray:
    out = np.empty(samples)
    done = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        x = rng.uniform(0.0, g.length, size=(m, n))
        if estimator is Estimator.MIDRANGE:
            t = (x.min(axis=1) + x.max(axis=1)) / (2.0 * g.signal_velocity)
        else:
            t = x.mean(axis=1) / g.signal_velocity
        out[done : done + m] = t
        done += m
    return out


def _bootstrap_std_se(values: np.ndarray, resamples: int, rng: np.random.Generator) -> float:
    stds = np.empty(resamples)
    n = values.size
    for i in range(resamples):
        idx = rng.integers(0, n, size=n)
        stds[i] = values[idx].std(ddof=1)
    return float(stds.std(ddof=1))


def geom_mc(
    g: WireGeometry,
    n_values,
    samples: int,
    rng: np.random.Generator,
    estimator: Estimator | str = Estimator.MIDRANGE,
    bootstrap_resamples: int = 200,
) -> GeomMcResult:
    """Monte Carlo timing spread per photon number with bootstrap errors.

    Positions are drawn uniformly per trial; per-n spreads use the sample
    standard deviation (ddof=1) with a bootstrap standard error over
    ``bootstrap_resamples`` (at least 2) resamples.  Consumes ``rng``
    sequentially, so a fixed seed reproduces results exactly.
    """
    samples = _check_samples(samples)
    if bootstrap_resamples < 2:
        raise ValueError(f"bootstrap_resamples must be >= 2, got {bootstrap_resamples}")
    estimator = Estimator(estimator)
    ns = [int(n) for n in n_values]
    if not ns or any(n < 1 for n in ns):
        raise ValueError("n_values must contain integers >= 1")
    rows = []
    for n in ns:
        times = _trial_times(g, n, samples, rng, estimator)
        sigma = float(times.std(ddof=1))
        se = _bootstrap_std_se(times, bootstrap_resamples, rng)
        rows.append((n, sigma, se))
    distinct = sorted({n for n, _, _ in rows})
    if len(distinct) < 2:
        return GeomMcResult(tuple(rows), None, None)
    ln_n = np.log([n for n, _, _ in rows])
    ln_s = np.log([s for _, s, _ in rows])
    slope, intercept = np.polyfit(ln_n, ln_s, 1)
    resid = ln_s - (slope * ln_n + intercept)
    return GeomMcResult(tuple(rows), float(-slope), float(np.sqrt(np.mean(resid**2))))


def geom_histogram(
    g: WireGeometry,
    n: int,
    samples: int,
    bins: int,
    rng: np.random.Generator,
    estimator: Estimator | str = Estimator.MIDRANGE,
) -> ArrivalHistogram:
    """Histogram of Monte Carlo event-time estimates over the full wire span."""
    samples = _check_samples(samples)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    estimator = Estimator(estimator)
    times = _trial_times(g, int(n), samples, rng, estimator)
    span = g.length / g.signal_velocity
    edges = np.linspace(0.0, span, bins + 1)
    counts, _ = np.histogram(times, bins=edges)
    return ArrivalHistogram(edges, counts, int(counts.sum()))
