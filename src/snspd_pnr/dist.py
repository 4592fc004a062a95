"""Exponentially-modified Gaussian components and photon-number mixtures.

The single-event arrival-time density of a nanowire detector is modeled as an
EMG: a Gaussian timing core of width ``sigma`` convolved with an exponential
delay tail of scale ``tau``, offset by ``mu``.  Pulsed illumination with
Poissonian photon statistics produces a weighted sum of EMG components indexed
by photon number, conditioned on at least one photon because only events that
produce a click enter an arrival-time histogram.  A mixture is held as arrays
over photon number (weights, mu, sigma, tau), and every mixture quantity is
evaluated on a (component, time) grid by one broadcast kernel.

All times are picoseconds; densities are per picosecond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx, gammaln, pdtrc, xlogy

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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
    """Broadcastable EMG parts (Phi(-|u|), T, u < 0), stable in both tails.

    With u = (t - mu)/sigma, r = sigma/tau and g = exp(-u^2/2), the EMG has
    CDF F = Phi(u) - T, survival function 1 - F = Phi(-u) + T and density
    T / tau, where T = exp(r^2/2 - u r) Phi(u - r), and

        Phi(-|u|) = g/2 erfcx(|u|/sqrt 2)
        T         = g/2 erfcx((r - u)/sqrt 2)                    where r > u
        T         = exp(r^2/2 - u r) - g/2 erfcx((u - r)/sqrt 2) where r <= u

    Two erfcx calls per cell and no factor that can overflow: erfcx <= 1 on
    non-negative arguments and r^2/2 - u r <= 0 where r <= u.
    """
    v = (t - mu) / (sigma * _SQRT2)  # u / sqrt 2
    q = sigma / (tau * _SQRT2)  # r / sqrt 2, so r^2/2 - u r = q^2 - 2 q v
    half_g = 0.5 * np.exp(-v * v)
    d = q - v
    h = half_g * erfcx(np.abs(d))
    tail = np.where(d > 0.0, h, np.exp(np.minimum(q * q - (2.0 * q) * v, 0.0)) - h)
    return half_g * erfcx(np.abs(v)), tail, v < 0.0


def _cdf_sf_grid(mu, sigma, tau, t):
    """Broadcastable EMG CDF and survival function, from Phi(-|u|) and T by the sign of u.

    Rounding can leave [0, 1] by an ulp; callers that return probabilities clip.
    """
    lo, tail, left = _emg_grid(mu, sigma, tau, t)
    hi = 1.0 - lo
    return np.where(left, lo, hi) - tail, np.where(left, hi, lo) + tail


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


@dataclass(frozen=True)
class PhotonSource:
    """Poissonian source: mean photon number and mixture truncation tail mass."""

    mean_photon_number: float
    truncation_tail_mass: float = 1e-9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean_photon_number) and self.mean_photon_number >= 0.0):
            raise ValueError("mean_photon_number must be finite and >= 0")
        if not (0.0 < self.truncation_tail_mass <= 1e-6):
            raise ValueError("truncation_tail_mass must be in (0, 1e-6]")


def conditioned_poisson_weights(source: PhotonSource) -> tuple[int, np.ndarray]:
    """Photon-number weights conditioned on detecting at least one photon.

    Returns ``(n_max, weights)`` where ``weights[i]`` is the probability of
    ``n = i + 1`` photons given ``n >= 1``.  ``n_max`` is the smallest cutoff
    whose conditioned tail mass falls below the source's truncation setting;
    the retained weights are renormalized to sum to exactly 1.
    """
    nbar = source.mean_photon_number
    if nbar <= 0.0:
        raise ValueError("no detectable events: mean photon number is zero")
    click_mass = -math.expm1(-nbar)
    hi = int(math.ceil(nbar + 12.0 * math.sqrt(nbar) + 40.0))
    while True:
        ns = np.arange(1, hi + 1)
        tail = pdtrc(ns, nbar) / click_mass  # P(N > n)
        below = tail < source.truncation_tail_mass
        if below.any():
            n_max = int(ns[np.argmax(below)])
            break
        hi *= 2
    ns = np.arange(1, n_max + 1)
    w = np.exp(xlogy(ns, nbar) - gammaln(ns + 1) - nbar) / click_mass  # P(N = n)
    return n_max, w / w.sum()


@dataclass(frozen=True)
class MixtureModel:
    """Poisson-weighted EMG mixture over photon numbers 1..n_max, as arrays over n.

    ``weights[i]``, ``mu[i]``, ``sigma[i]`` and ``tau[i]`` describe the
    component of photon number n = i + 1 (ps).  ``source`` is the source the
    weights were drawn from, None for a single peak (one unit weight).
    """

    source: PhotonSource | None
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
        if not (mu.shape == sigma.shape == tau.shape == w.shape):
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


def mixture_bin_masses(m: MixtureModel, edges) -> np.ndarray:
    """Probability mass per bin on ``edges``: the weighted sum of component masses.

    Each component's mass is a CDF difference left of its median and a
    survival-function difference right of it, so neither deep-tail bins nor
    the valleys between components lose precision to cancellation.
    """
    arr = np.asarray(edges, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("edges must be a 1-d array with at least two entries")
    cdf, sf = _cdf_sf_grid(m.mu[:, None], m.sigma[:, None], m.tau[:, None], arr)
    mass = cdf[:, 1:] - cdf[:, :-1]
    np.copyto(mass, sf[:, :-1] - sf[:, 1:], where=cdf[:, :-1] >= 0.5)
    return np.maximum(m.weights @ mass, 0.0)


def _cdf_partials_grid(mu, sigma, tau, t) -> np.ndarray:
    """Broadcastable partials of the EMG CDF with respect to (mu, sigma, tau), stacked on axis 0.

    From the kernel's T and phi(u) = exp(-u^2/2) / sqrt(2 pi), with no further erfcx call:

        dF/dmu    = -T / tau
        dF/dsigma = phi(u) / tau - sigma T / tau^2
        dF/dtau   = -(T (t - mu - sigma^2 / tau) + sigma phi(u)) / tau^2

    The survival function's partials are these negated.
    """
    d_mu = -_emg_grid(mu, sigma, tau, t)[1] / tau
    phi = np.exp(-0.5 * ((t - mu) / sigma) ** 2) * _INV_SQRT_2PI
    d_sigma = (phi + sigma * d_mu) / tau
    d_tau = ((t - mu - sigma * sigma / tau) * d_mu - sigma * phi / tau) / tau
    return np.stack((d_mu, d_sigma, d_tau))


def mixture_bin_mass_partials(m: MixtureModel, edges) -> np.ndarray:
    """Partials of ``mixture_bin_masses(m, edges)`` with respect to each component's mu, sigma, tau.

    Returns shape (3, n_max, bins): entry [k, i, j] is the derivative of bin j's
    mass with respect to parameter k (mu, sigma, tau) of component i, the
    difference of the CDF's partials across the bin times the component weight
    (both branches of ``mixture_bin_masses`` have these partials).
    """
    arr = np.asarray(edges, dtype=np.float64)
    grid = _cdf_partials_grid(m.mu[:, None], m.sigma[:, None], m.tau[:, None], arr)
    return m.weights[:, None] * (grid[:, :, 1:] - grid[:, :, :-1])


def mixture_moments(m: MixtureModel) -> tuple[float, float]:
    """Mixture mean and standard deviation by the law of total variance.

    mean = sum w_n (mu_n + tau_n)
    var  = sum w_n (sigma_n^2 + tau_n^2) + sum w_n (mu_n + tau_n - mean)^2
    """
    comp_mean = m.mu + m.tau
    mean = float(m.weights @ comp_mean)
    within = float(m.weights @ (m.sigma**2 + m.tau**2))
    between = float(m.weights @ (comp_mean - mean) ** 2)
    return mean, math.sqrt(within + between)
