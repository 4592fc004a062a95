"""Exponentially-modified Gaussian components and photon-number mixtures.

The single-event arrival-time density of a nanowire detector is modeled as an
EMG: a Gaussian timing core of width ``sigma`` convolved with an exponential
delay tail of scale ``tau``, offset by ``mu``.  Pulsed illumination with
Poissonian photon statistics produces a weighted sum of EMG components indexed
by photon number, conditioned on at least one photon because only events that
produce a click enter an arrival-time histogram; a source is its mean photon
number n_bar.  A mixture is held as four arrays over photon number (weights,
mu, sigma, tau), and every mixture quantity is
evaluated on a (component, time) grid by one broadcast kernel, which gives bin
masses and their Jacobian in one pass; R mixtures of the same weights, held as
(R, n_max) rows, share one pass over a (row, component, time) grid.  The
Poisson weights need only numpy and ``math``; ``scipy.special`` is imported by
the EMG kernel on its first call, so importing this module (and the CLI), or
simulating a source, loads no scipy.

All times are picoseconds; densities are per picosecond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAIL_MASS = 1e-9  # click-conditioned Poisson mass the weights leave beyond n_max
# Largest source mean the weights accept.  Up to it (checked from 1e-6 against scipy.special.pdtrc) the Poisson
# mass beyond their cutoff n_bar + 12 sqrt(n_bar) + 40 is at most 2.5e-34 of the click mass; 1e9 would need 8 GB.
MAX_N_BAR = 1e4
_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)  # phi(u) = sqrt(2/pi) g/2


@dataclass(frozen=True)
class EmgParams:
    """One EMG component: location ``mu``, Gaussian width ``sigma``, tail ``tau`` (ps)."""

    mu: float
    sigma: float
    tau: float

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")

    @property
    def mean(self) -> float:
        """First moment, mu + tau."""
        return self.mu + self.tau

    @property
    def std(self) -> float:
        """Square root of the second central moment, sqrt(sigma^2 + tau^2)."""
        return math.hypot(self.sigma, self.tau)


def _as_times(t) -> tuple[np.ndarray, bool]:
    scalar = np.ndim(t) == 0
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValueError("t must be finite")
    return arr, scalar


def _emg_grid(mu, sigma, tau, t):
    """Broadcastable EMG parts (Phi(-|u|), T, u < 0, g/2), stable in both tails.

    With u = (t - mu)/sigma, r = sigma/tau and g = exp(-u^2/2), the EMG has
    CDF F = Phi(u) - T, survival function 1 - F = Phi(-u) + T and density
    T / tau, where T = exp(r^2/2 - u r) Phi(u - r), and

        Phi(-|u|) = g/2 erfcx(|u|/sqrt 2)
        T         = g/2 erfcx((r - u)/sqrt 2)                    where r > u
        T         = exp(r^2/2 - u r) - g/2 erfcx((u - r)/sqrt 2) where r <= u

    Two erfcx calls per cell and no factor that can overflow: erfcx <= 1 on
    non-negative arguments and r^2/2 - u r <= 0 where r <= u.
    """
    from scipy.special import erfcx  # on first use: the import is slow, and only the fit evaluates this kernel

    v = (t - mu) / (sigma * _SQRT2)  # u / sqrt 2
    q = sigma / (tau * _SQRT2)  # r / sqrt 2, so r^2/2 - u r = q^2 - 2 q v
    half_g = 0.5 * np.exp(-v * v)
    d = q - v
    h = half_g * erfcx(np.abs(d))
    tail = np.where(d > 0.0, h, np.exp(np.minimum(q * q - (2.0 * q) * v, 0.0)) - h)
    return half_g * erfcx(np.abs(v)), tail, v < 0.0, half_g


def _cdf_sf_grid(mu, sigma, tau, t):
    """Broadcastable EMG CDF and survival function, from Phi(-|u|) and T by the sign of u,
    followed by the kernel's T and g/2.

    Rounding can leave [0, 1] by an ulp; callers that return probabilities clip.
    """
    lo, tail, left, half_g = _emg_grid(mu, sigma, tau, t)
    hi = 1.0 - lo
    return np.where(left, lo, hi) - tail, np.where(left, hi, lo) + tail, tail, half_g


def emg_pdf(p: EmgParams, t):
    """Arrival-time density at ``t`` (scalar or array-like), in 1/ps.

    Evaluates

        (1 / tau) * exp(sigma^2 / (2 tau^2) - (t - mu) / tau)
                  * Phi((t - mu) / sigma - sigma / tau)

    as T / tau with the tail-stable T of the CDF kernel.
    """
    arr, scalar = _as_times(t)
    out = _emg_grid(p.mu, p.sigma, p.tau, arr)[1] / p.tau
    return float(out[0]) if scalar else out


def emg_cdf(p: EmgParams, t):
    """Cumulative probability of arrival before ``t``."""
    arr, scalar = _as_times(t)
    cdf = np.clip(_cdf_sf_grid(p.mu, p.sigma, p.tau, arr)[0], 0.0, 1.0)
    return float(cdf[0]) if scalar else cdf


def emg_sample(p: EmgParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` arrival times as Gaussian(mu, sigma) + Exponential(tau)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    # the operations of rng.normal(mu, sigma) + rng.exponential(tau), in place
    t = rng.standard_normal(count)
    t *= p.sigma
    t += p.mu
    tail = rng.standard_exponential(count)
    tail *= p.tau
    t += tail
    return t


class _GuideTable:
    """Inverse-CDF sampler of R discrete laws, the rows of ``p`` (R, W), through a guide table.

    Each row's CDF is formed as ``rng.choice(p=row)`` forms it, ``cdf =
    row.cumsum(); cdf /= cdf[-1]``, and ``search(u, rows)`` returns exactly
    ``np.searchsorted(cdf[row], u, side="right")`` per event (Chen & Asau
    1974).  [0, 1) is cut into G equal buckets, G = 16 * 2**ceil(log2 W) so
    that ``u * G`` is exact.  A bucket that no CDF entry falls strictly inside
    has one answer for all its u, the count of entries at or below its lower
    edge; ``guide`` holds it, or the marker W for a bucket that must be
    searched (no answer reaches W, because u < 1 = cdf[-1], while 0 is one).
    At most W - 1 of a row's G buckets are searched.  ``guide`` is R x G
    entries of the narrowest unsigned dtype that holds W, one byte each up to
    W = 255.  Both tables are read-only, so a cached table can be shared.
    """

    def __init__(self, p: np.ndarray) -> None:
        self.cdf = np.cumsum(p, axis=1)
        self.cdf /= self.cdf[:, -1:]
        width = self.cdf.shape[1]
        size = 16 << (width - 1).bit_length()
        edges = np.arange(size + 1) / size
        self.guide = np.empty((len(self.cdf), size), dtype=np.min_scalar_type(width))
        for guide, cdf in zip(self.guide, self.cdf):
            lo = cdf.searchsorted(edges[:-1], side="right")
            guide[:] = np.where(cdf.searchsorted(edges[1:], side="left") > lo, width, lo)
        self.cdf.flags.writeable = self.guide.flags.writeable = False

    def search(self, u: np.ndarray, rows=0) -> np.ndarray:
        """``searchsorted(cdf[rows], u, side="right")`` as int64 for uniforms ``u`` in [0, 1) and
        row indices ``rows`` (one per event, or one for all)."""
        width, size = self.cdf.shape[1], self.guide.shape[1]
        index = (u * size).astype(np.intp)
        index += rows * size
        k = self.guide.take(index).astype(np.int64)
        todo = np.flatnonzero(k == width)
        todo_rows = np.broadcast_to(rows, u.shape)[todo]
        for row in np.unique(todo_rows):
            at = todo[todo_rows == row]
            k[at] = self.cdf[row].searchsorted(u[at], side="right")
        return k


def conditioned_poisson_weights(n_bar: float) -> tuple[int, np.ndarray]:
    """Photon-number weights of a Poissonian source of mean ``n_bar``, given at least one photon.

    Returns ``(n_max, weights)`` where ``weights[i]`` is P(N = n | N >= 1) for ``n = i + 1``,
    exp(n ln n_bar - lgamma(n + 1) - n_bar) / (1 - exp(-n_bar)).  ``n_max`` is the smallest n
    whose tail P(N > n), summed from the far end, falls below ``TAIL_MASS``; the retained
    weights are renormalized to sum to exactly 1.  ``n_bar`` may be at most ``MAX_N_BAR``.
    """
    if not math.isfinite(n_bar):
        raise ValueError(f"n_bar must be finite, got {n_bar}")
    if not n_bar > 0.0:
        raise ValueError(f"no detectable events: n_bar must be > 0, got {n_bar}")
    if n_bar > MAX_N_BAR:
        raise ValueError(f"n_bar must be at most {MAX_N_BAR:g}, got {n_bar}")
    hi = int(math.ceil(n_bar + 12.0 * math.sqrt(n_bar) + 40.0))
    log_factorials = np.fromiter(map(math.lgamma, range(2, hi + 2)), np.float64, hi)
    p = np.exp(np.arange(1, hi + 1) * math.log(n_bar) - log_factorials - n_bar) / -math.expm1(-n_bar)
    tail = np.cumsum(p[:0:-1])[::-1]  # P(N > n) for n = 1..hi - 1
    n_max = int(np.argmax(tail < TAIL_MASS)) + 1
    w = p[:n_max]
    return n_max, w / w.sum()


@dataclass(frozen=True)
class MixtureModel:
    """Poisson-weighted EMG mixture over photon numbers 1..n_max, as arrays over n.

    ``weights[i]``, ``mu[..., i]``, ``sigma[..., i]`` and ``tau[..., i]`` describe
    the component of photon number n = i + 1 (ps).  ``mu``, ``sigma`` and ``tau``
    are (n_max,), or (R, n_max) for R mixtures of the same weights, one per row,
    which ``mixture_bin_masses`` evaluates in one kernel pass.  A single peak is
    one component of unit weight.
    """

    weights: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    tau: np.ndarray

    def __post_init__(self) -> None:
        for name in ("weights", "mu", "sigma", "tau"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        w, mu, sigma, tau = self.weights, self.mu, self.sigma, self.tau
        if w.ndim != 1 or w.size == 0:
            raise ValueError("mixture needs at least one component")
        if not (mu.shape == sigma.shape == tau.shape and mu.shape[-1:] == w.shape and mu.ndim <= 2):
            raise ValueError("one weight per component required")
        # min/max reductions propagate NaN, which fails every comparison below
        if not (-math.inf < mu.min() and mu.max() < math.inf):
            raise ValueError("mu must be finite")
        if not (0.0 < sigma.min() and sigma.max() < math.inf):
            raise ValueError("sigma must be finite and positive")
        if not (0.0 < tau.min() and tau.max() < math.inf):
            raise ValueError("tau must be finite and positive")
        if not w.min() >= 0.0:
            raise ValueError("weights must be non-negative")
        if not abs(float(w.sum()) - 1.0) <= 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")

    @property
    def n_max(self) -> int:
        return self.weights.size


def mixture_bin_masses(m: MixtureModel, edges, dz=None):
    """Probability mass per bin on ``edges``: the weighted sum of component masses,
    of shape (bins,), or (R, bins) for a mixture of R rows.

    Each component's mass is a CDF difference left of its median and a
    survival-function difference right of it, so neither deep-tail bins nor
    the valleys between components lose precision to cancellation.

    With ``dz``, of shape (p, 3, n_max) (or (R, p, 3, n_max) for R rows), the
    derivatives of every component's (mu, sigma, tau) with respect to p
    coordinates z, it returns ``(masses, J)`` from one kernel pass, where
    ``J[..., j, k]``, of shape (bins, p) per row, is the derivative of bin j's
    mass with respect to z_k.  Both branches of a bin's mass change
    with the CDF, whose partials, with the kernel's T and g/2 and
    phi(u) = exp(-u^2/2) / sqrt(2 pi) = sqrt(2/pi) g/2, are

        dF/dmu    = -T / tau
        dF/dsigma = phi(u) / tau - sigma T / tau^2
        dF/dtau   = -(T (t - mu - sigma^2 / tau) + sigma phi(u)) / tau^2

    So dF/dz_k, summed over components with their weights, is a sum over n of
    coefficients times three grids, T, g/2 and (t - mu) T; it is contracted
    over components at the edges first and differenced over bins last.  A
    one-hot ``dz`` (p = 3 n_max) gives each component's weighted partials.
    """
    arr = np.asarray(edges, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("edges must be a 1-d array with at least two entries")
    mu, sigma, tau = m.mu[..., None], m.sigma[..., None], m.tau[..., None]
    cdf, sf, tail, half_g = _cdf_sf_grid(mu, sigma, tau, arr)
    mass = cdf[..., 1:] - cdf[..., :-1]
    np.copyto(mass, sf[..., :-1] - sf[..., 1:], where=cdf[..., :-1] >= 0.5)
    masses = np.maximum(m.weights @ mass, 0.0)
    if dz is None:
        return masses
    d_mu, d_sigma, d_tau = dz[..., 0, :], dz[..., 1, :], dz[..., 2, :]  # each (..., p, n_max)
    w_tau, r = (m.weights / m.tau)[..., None, :], (m.sigma / m.tau)[..., None, :]
    # w dF = (w / tau) ((d_sigma - r d_tau) (phi - r T) - d_mu T - d_tau (t - mu) T / tau)
    shared = w_tau * (d_sigma - r * d_tau)
    on_tail = -r * shared - w_tau * d_mu
    on_cross = (-w_tau / m.tau[..., None, :]) * d_tau
    at_edges = on_tail @ tail + (_SQRT_2_OVER_PI * shared) @ half_g + on_cross @ ((arr - mu) * tail)
    return masses, np.swapaxes(at_edges[..., 1:] - at_edges[..., :-1], -1, -2)


def mixture_moments(m: MixtureModel) -> tuple[float, float]:
    """Mean and standard deviation of a one-row mixture by the law of total variance.

    mean = sum w_n (mu_n + tau_n)
    var  = sum w_n (sigma_n^2 + tau_n^2) + sum w_n (mu_n + tau_n - mean)^2
    """
    comp_mean = m.mu + m.tau
    mean = float(m.weights @ comp_mean)
    within = float(m.weights @ (m.sigma**2 + m.tau**2))
    between = float(m.weights @ (comp_mean - mean) ** 2)
    return mean, math.sqrt(within + between)
