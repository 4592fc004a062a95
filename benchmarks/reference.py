"""Reference model for checking the CLI's outputs, built apart from the package.

Uses only numpy and scipy and imports nothing from ``snspd_pnr``, so a fault
in the package's kernels, weights or scaling laws cannot hide in both the
output and the check.  The formulas are the ones the README and the paper
state:

* a component for n detected photons is an EMG (Gaussian plus exponential
  tail) with ``mu_n = mu_inf + delta_mu / sqrt(n)``, a tail scale ``tau``
  independent of n, and
  ``sigma_n^2 = (sigma_elec / (slew_1 sqrt n))^2 + inst^2 + opt^2
  + (geom_1 / n^0.75)^2 + sigma_int^2``;
* photon numbers are Poisson, conditioned on n >= 1 (only clicks are seen);
* with element merging, n photons on M elements occupy K elements with
  ``P(K=k | n, M) = C(M,k) S(n,k) k! / M^n`` (Stirling numbers of the
  second kind, in exact integers), and the event follows component K;
* n uniform absorption sites on a wire of length l read out by their
  midrange have the spread ``(l/v) sqrt(1 / (2 (n+1) (n+2)))``.

The Poisson weights are summed until the remaining tail is far below 1e-15
and are not truncated at the package's 1e-9 tail mass, so outputs differ from
this model by at most (events) x 1e-9 counts.  All times are ps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

TRIGGER_PERIOD_PS = 1e12 / 9500.0


@dataclass(frozen=True)
class Model:
    """Detector and jitter budget of the README configuration."""

    delta_mu: float = 289.0
    mu_infinity: float = 144.0
    sigma_int: float = 6.0
    tau: float = 6.0
    sigma_elec: float = 4.9
    slew_rate_1: float = 1.08
    sigma_geom_1: float = 9.0
    sigma_inst: float = 3.0
    sigma_opt: float = 1.0

    def with_theta(self, theta) -> "Model":
        d, s, t = (float(v) for v in theta)
        return Model(d, self.mu_infinity, s, t, self.sigma_elec, self.slew_rate_1,
                     self.sigma_geom_1, self.sigma_inst, self.sigma_opt)

    def mu(self, n):
        return self.mu_infinity + self.delta_mu / np.sqrt(n)

    def sigma(self, n):
        n = np.asarray(n, dtype=np.float64)
        return np.sqrt(
            (self.sigma_elec / (self.slew_rate_1 * np.sqrt(n))) ** 2
            + self.sigma_inst**2
            + self.sigma_opt**2
            + (self.sigma_geom_1 / n**0.75) ** 2
            + self.sigma_int**2
        )


def photon_weights(n_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Photon numbers 1..n_hi and their Poisson weights conditioned on n >= 1."""
    n_hi = int(math.ceil(n_bar + 10.0 * math.sqrt(n_bar) + 30.0))
    n = np.arange(1, n_hi + 1)
    return n, stats.poisson.pmf(n, n_bar) / -math.expm1(-n_bar)


def bin_masses(model: Model, n_bar: float, edges) -> np.ndarray:
    """Probability per bin, from scipy's exponnorm, CDF differences left of each
    component's median and survival differences right of it."""
    edges = np.asarray(edges, dtype=np.float64)
    n, w = photon_weights(n_bar)
    mass = np.zeros(edges.size - 1)
    for n_i, w_i in zip(n, w):
        sigma = float(model.sigma(n_i))
        comp = stats.exponnorm(model.tau / sigma, loc=float(model.mu(n_i)), scale=sigma)
        cdf, sf = comp.cdf(edges), comp.sf(edges)
        mass += w_i * np.where(cdf[:-1] < 0.5, cdf[1:] - cdf[:-1], sf[:-1] - sf[1:])
    return mass


def expected_counts(model: Model, n_bar: float, edges, events: int) -> np.ndarray:
    return events * bin_masses(model, n_bar, edges)


def poisson_deviance(counts, expected) -> float:
    """2 sum (c ln(c/m) - (c - m)), the likelihood-ratio statistic against the saturated model."""
    c = np.asarray(counts, dtype=np.float64)
    m = np.asarray(expected, dtype=np.float64)
    pos = c > 0.0
    return float(2.0 * (np.sum(c[pos] * np.log(c[pos] / m[pos])) - np.sum(c - m)))


def cramer_rao_errors(model: Model, n_bar: float, edges, events: int) -> np.ndarray:
    """Cramér–Rao errors of (delta_mu, sigma_int, tau) for multinomial bin counts.

    Fisher information ``I = N sum_i (dp_i/dθ)(dp_i/dθ)^T / p_i`` with the
    derivatives taken by central differences of the reference bin masses.
    """
    theta = np.array([model.delta_mu, model.sigma_int, model.tau])
    p = bin_masses(model, n_bar, edges)
    grads = []
    for a in range(3):
        h = 1e-4 * max(abs(theta[a]), 1.0)
        up, down = theta.copy(), theta.copy()
        up[a] += h
        down[a] -= h
        grads.append((bin_masses(model.with_theta(up), n_bar, edges)
                      - bin_masses(model.with_theta(down), n_bar, edges)) / (2.0 * h))
    g = np.array(grads)
    keep = p > 0.0
    fisher = events * (g[:, keep] / p[keep]) @ g[:, keep].T
    return np.sqrt(np.diag(np.linalg.inv(fisher)))


def _stirling2_rows(n_hi: int, m: int) -> list[list[int]]:
    """S(n, k) for n = 0..n_hi and k = 0..m as exact integers."""
    rows = [[1] + [0] * m]
    for n in range(1, n_hi + 1):
        prev = rows[-1]
        rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, m + 1)])
    return rows


def occupied_law(n_hi: int, elements: int) -> np.ndarray:
    """``P[n-1, k-1] = P(K = k | n photons, M elements)`` for n = 1..n_hi."""
    s = _stirling2_rows(n_hi, elements)
    out = np.zeros((n_hi, elements))
    for n in range(1, n_hi + 1):
        denom = elements**n
        for k in range(1, min(n, elements) + 1):
            out[n - 1, k - 1] = math.comb(elements, k) * s[n][k] * math.factorial(k) / denom
    return out


def _mixture_width(model: Model, ks: np.ndarray, w: np.ndarray) -> float:
    w = w / w.sum()
    comp_mean = model.mu(ks) + model.tau
    mean = float(w @ comp_mean)
    within = float(w @ (model.sigma(ks) ** 2 + model.tau**2))
    between = float(w @ (comp_mean - mean) ** 2)
    return math.sqrt(within + between)


def width_unmerged(model: Model, n_bar: float) -> float:
    """Standard deviation of the mixture without merging (law of total variance)."""
    n, w = photon_weights(n_bar)
    return _mixture_width(model, n, w)


def width_merged(model: Model, n_bar: float, elements: int) -> float:
    """Standard deviation of the mixture when each event follows its occupied-element count."""
    n, w = photon_weights(n_bar)
    w_k = w @ occupied_law(int(n[-1]), elements)
    return _mixture_width(model, np.arange(1, elements + 1), w_k)


def binned_width(width: float, bin_width: float) -> float:
    """Spread of bin centres for a smooth density: Sheppard's correction, w^2/12."""
    return math.sqrt(width**2 + bin_width**2 / 12.0)


def midrange_spread(length: float, velocity: float, n: int) -> float:
    """Exact spread of the midrange of n uniform absorption sites, in ps."""
    return (length / velocity) * math.sqrt(1.0 / (2.0 * (n + 1) * (n + 2)))


def sample_tags(model: Model, n_bar: float, events: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Trigger and edge times (ps) of a simulated source, drawn with numpy alone."""
    rng = np.random.default_rng(seed)
    n, w = photon_weights(n_bar)
    ns = rng.choice(n, size=events, p=w / w.sum())
    arrival = rng.normal(model.mu(ns), model.sigma(ns)) + rng.exponential(model.tau, size=events)
    trigger = np.arange(events, dtype=np.float64) * TRIGGER_PERIOD_PS
    return trigger, trigger + arrival


def aligned_histogram(delta: np.ndarray, bin_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Edges on multiples of ``bin_width`` spanning the data, and counts per bin."""
    lo = math.floor(float(delta.min()) / bin_width) * bin_width
    hi = math.ceil(float(delta.max()) / bin_width) * bin_width
    n_bins = max(1, int(round((hi - lo) / bin_width)))
    edges = lo + bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(delta, bins=edges)
    return edges, counts
