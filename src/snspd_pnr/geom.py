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
from dataclasses import dataclass, field

import numpy as np

from .histogram import ArrivalHistogram

_MC_CHUNK = 1 << 15  # rows per uniform block: 2.6 MB at n = 10
_BOOTSTRAP_BLOCK = 1 << 16  # values per column block of the bootstrap sums: 512 kB
_BOOTSTRAP_BATCH = 8  # resamples whose sums share one pass over the trials
_COUNT_BLOCK = 1 << 16  # cells per block of a resample's counts: uint16 indices, a 512 kB bincount


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
        for name in ("length", "signal_velocity"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name}: must be positive and finite, got {v}")
        v = self.ground_velocity
        if v is not None and not (math.isfinite(v) and v > self.signal_velocity):
            raise ValueError(f"ground_velocity: must be finite and exceed signal_velocity {self.signal_velocity}, "
                             f"got {v}")


@dataclass(frozen=True)
class GeomMcResult:
    """Per-photon-number timing spread and the fitted scaling exponent.

    ``per_n_std`` rows are (n, sigma_ps, bootstrap_se_ps); every n's error
    comes from the same resamples of trial indices, drawn after all trials.
    ``fitted_exponent`` is the negative slope of the OLS fit of ln sigma vs
    ln n (None with fewer than two distinct n); ``fit_residual`` is the RMS
    log-space residual.  ``histograms`` holds one histogram of each row's
    trials over the wire span, in the order of ``per_n_std``, or is empty;
    being arrays, they take no part in equality.
    """

    per_n_std: tuple[tuple[int, float, float], ...]
    fitted_exponent: float | None
    fit_residual: float | None
    histograms: tuple[ArrivalHistogram, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        for n, sigma, se in self.per_n_std:
            if n < 1 or not sigma > 0.0 or not se > 0.0:
                raise ValueError("per_n_std rows must be (n >= 1, sigma > 0, se > 0)")
        if self.histograms and len(self.histograms) != len(self.per_n_std):
            raise ValueError("histograms must be empty or one per per_n_std row")


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


def _min_plus_max(x: np.ndarray) -> np.ndarray:
    """``x.min(axis=1) + x.max(axis=1)``, bit for bit, by running minima and maxima over the columns.

    numpy reduces slowly over a short inner axis; elementwise ``minimum`` and
    ``maximum`` are exact, so taking them column by column changes no bit.
    """
    lo = x[:, 0].copy()
    hi = lo.copy()
    for j in range(1, x.shape[1]):
        np.minimum(lo, x[:, j], out=lo)
        np.maximum(hi, x[:, j], out=hi)
    lo += hi
    return lo


def _trial_times(
    g: WireGeometry, n: int, out: np.ndarray, rng: np.random.Generator, estimator: Estimator
) -> None:
    """Fill ``out`` with one event-time estimate per trial.

    Draws ``(m, n)`` uniform blocks of at most ``_MC_CHUNK`` rows; ``uniform``
    takes one double per value, so the chunk size does not change the draws.
    """
    done = 0
    while done < out.size:
        m = min(_MC_CHUNK, out.size - done)
        x = rng.uniform(0.0, g.length, size=(m, n))
        if estimator is Estimator.MIDRANGE:
            out[done : done + m] = _min_plus_max(x) / (2.0 * g.signal_velocity)
        else:
            out[done : done + m] = x.mean(axis=1) / g.signal_velocity
        done += m


def _resample_counts(n: int, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` with how often each of ``n`` trials is drawn in ``n`` draws with replacement.

    A two-stage multinomial over blocks of ``_COUNT_BLOCK`` cells: first the
    number of draws that land in each block, ``multinomial(n, sizes / n)``,
    then each block's draws as uniform indices within it, counted into that
    block's slice of ``out``.  By the aggregation property this is the
    Multinomial(n, 1/n) law of ``n`` uniform indices; the only departure is
    the rounding of each ``size / n`` to a double and numpy giving the last
    block the rest of the unit mass, a few parts in 1e16 of a probability.
    A full block's bound 2**16 takes numpy's ``uint16`` path that needs no
    rejection, two indices per 32 random bits, and each count scatters into
    a 512 kB ``bincount`` that stays in cache.  ``out`` takes the counts in
    its own dtype; the caller checks them.
    """
    starts = range(0, n, _COUNT_BLOCK)
    sizes = np.array([min(_COUNT_BLOCK, n - start) for start in starts])
    totals = rng.multinomial(n, sizes / n)
    for start, size, total in zip(starts, sizes, totals):
        idx = rng.integers(0, size, size=total, dtype=np.uint16)
        out[start : start + size] = np.bincount(idx, minlength=size)


def _bootstrap_std_se(centred: np.ndarray, resamples: int, rng: np.random.Generator) -> np.ndarray:
    """Bootstrap standard error of each row's sample std (ddof=1), rows centred on their means.

    Each replicate resamples the ``N`` trials with replacement once, shared by
    all rows (a paired bootstrap over trials), and takes every row's resampled
    moments from the resample's counts ``c`` (``_resample_counts``):
    ``s1 = x @ c`` and ``s2 = (x * x) @ c``, so the replicate std is
    ``sqrt((s2 - s1**2 / N) / (N - 1))``.  The counts of ``_BOOTSTRAP_BATCH``
    replicates are kept as ``uint8`` rows of one matrix ``C``, so both sums
    are matrix-matrix products ``x @ C.T`` and the trials are read once per
    batch.  The sums run over column blocks of about
    ``_BOOTSTRAP_BLOCK`` values, so each block is read from cache for both and
    ``x * x`` never exists whole.  A count above 255 would wrap, which a row
    sum other than ``N`` shows; it raises ``RuntimeError``.  Each row's
    replicates are those of a resample of that row alone; only the dependence
    between rows differs from drawing indices per row.
    """
    k, n = centred.shape
    width = max(1, _BOOTSTRAP_BLOCK // max(k, _BOOTSTRAP_BATCH))
    counts = np.empty((_BOOTSTRAP_BATCH, n), dtype=np.uint8)
    square = np.empty((k, width))
    block = np.empty(_BOOTSTRAP_BATCH * width)
    stds = np.empty((resamples, k))
    for start in range(0, resamples, _BOOTSTRAP_BATCH):
        b = min(_BOOTSTRAP_BATCH, resamples - start)
        for row in counts[:b]:
            _resample_counts(n, rng, row)
            if row.sum(dtype=np.int64) != n:
                raise RuntimeError("a bootstrap index count exceeds 255")
        s1 = np.zeros((k, b))
        s2 = np.zeros((k, b))
        for j in range(0, n, width):
            x = centred[:, j : j + width]
            w = x.shape[1]
            c = block[: b * w].reshape(b, w)
            c[:] = counts[:b, j : j + w]
            s1 += x @ c.T
            s2 += np.square(x, out=square[:, :w]) @ c.T
        stds[start : start + b] = np.sqrt((s2 - s1 * s1 / n) / (n - 1)).T
    return stds.std(axis=0, ddof=1)


def geom_mc(
    g: WireGeometry,
    n_values,
    samples: int,
    rng: np.random.Generator,
    estimator: Estimator | str = Estimator.MIDRANGE,
    bootstrap_resamples: int = 200,
    histogram_bins: int = 0,
) -> GeomMcResult:
    """Monte Carlo timing spread per photon number with bootstrap errors.

    Positions are drawn uniformly per trial; per-n spreads use the sample
    standard deviation (ddof=1) with a bootstrap standard error over
    ``bootstrap_resamples`` (at least 2) resamples with replacement.  ``rng``
    is consumed as every n's trial draws in the order of ``n_values``, then
    one two-stage count draw per resample (``_resample_counts``), shared by
    all n, so a fixed seed reproduces results exactly.  With
    ``histogram_bins`` > 0 each n's trials are also binned by
    ``geom_histogram`` into ``histogram_bins`` bins over the wire span, which
    draws nothing: the histograms come from the same trials as the spreads,
    and an n's histogram depends on every n drawn before it.  Every trial is
    held at once: ``K * N * 8`` bytes for K values of n and N samples, plus
    the larger of the trial draws' uniform blocks (5.2 MB at n = 10) and the
    bootstrap's ``uint8`` counts, ``N * 8`` bytes, with about 2 MB of
    blocks: 21 MB at n = 1..10 and 200 000 samples, about 880 MB at 10**7.
    """
    samples = _check_samples(samples)
    if bootstrap_resamples < 2:
        raise ValueError(f"bootstrap_resamples must be >= 2, got {bootstrap_resamples}")
    if histogram_bins < 0:
        raise ValueError(f"histogram_bins must be >= 0, got {histogram_bins}")
    estimator = Estimator(estimator)
    ns = [int(n) for n in n_values]
    if not ns or any(n < 1 for n in ns):
        raise ValueError("n_values must contain integers >= 1")
    times = np.empty((len(ns), samples))
    sigmas, hists = [], []
    for n, row in zip(ns, times):
        _trial_times(g, n, row, rng, estimator)
        sigmas.append(float(row.std(ddof=1)))
        if histogram_bins:
            hists.append(geom_histogram(g, n, samples, histogram_bins, None, estimator, times=row))
        row -= row.mean()
    ses = _bootstrap_std_se(times, bootstrap_resamples, rng)
    rows = tuple((n, sigma, float(se)) for n, sigma, se in zip(ns, sigmas, ses))
    hists = tuple(hists)
    if len(set(ns)) < 2:
        return GeomMcResult(rows, None, None, hists)
    ln_n = np.log(ns)
    ln_s = np.log(sigmas)
    slope, intercept = np.polyfit(ln_n, ln_s, 1)
    resid = ln_s - (slope * ln_n + intercept)
    return GeomMcResult(rows, float(-slope), float(np.sqrt(np.mean(resid**2))), hists)


def geom_histogram(
    g: WireGeometry,
    n: int,
    samples: int,
    bins: int,
    rng: np.random.Generator | None,
    estimator: Estimator | str = Estimator.MIDRANGE,
    *,
    times: np.ndarray | None = None,
) -> ArrivalHistogram:
    """Histogram of ``samples`` Monte Carlo event-time estimates over the full wire span.

    The estimates are drawn from ``rng`` unless ``times`` already holds them
    (``geom_mc`` passes each n's own trials, and no ``rng``).  numpy's
    uniform-bin path (``range=(0, span)``) gives the same counts and edges as
    binning against ``np.linspace(0, span, bins + 1)``: it computes a bin
    index per value, then corrects it against those very edges.
    """
    samples = _check_samples(samples)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if times is None:
        times = np.empty(samples)
        _trial_times(g, int(n), times, rng, Estimator(estimator))
    elif times.shape != (samples,):
        raise ValueError(f"times must hold {samples} trials, got shape {times.shape}")
    counts, edges = np.histogram(times, bins, range=(0.0, g.length / g.signal_velocity))
    return ArrivalHistogram(edges, counts, int(counts.sum()))
