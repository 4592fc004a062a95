"""Gaussian jitter budget and its photon-number scaling laws.

The Gaussian width of a photon-number component is the root sum of squares of
electrical-noise, instrumentation, optical, geometric, and intrinsic terms:

    sigma(n)^2 = sigma_noise(n)^2 + sigma_inst^2 + sigma_opt^2
               + sigma_geom(n)^2 + sigma_int(n)^2

Noise scales as 1/n**rise_scaling_exponent through the slew rate of the
rising edge, the geometric term empirically as 1/n**geom_exponent;
instrumentation, optical and intrinsic terms and the exponential tail are
n-independent.  The same exponent sets the peak locations,
mu_infinity + delta_mu / n**rise_scaling_exponent, so it has its one home
here.  Units: ps, mV, mV/ps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_n(n) -> int:
    if isinstance(n, bool) or not math.isfinite(n) or int(n) != n:
        raise ValueError("photon number n must be an integer")
    n = int(n)
    if n < 1:
        raise ValueError("photon number n must be >= 1")
    return n


@dataclass(frozen=True)
class JitterBudget:
    sigma_inst: float        # instrumentation (trigger/tagger) jitter, ps
    sigma_opt: float         # optical pulse width contribution, ps
    sigma_int: float         # intrinsic detector jitter, ps
    tau: float               # exponential tail scale, ps
    sigma_elec: float        # electrical noise amplitude, mV
    slew_rate_1: float       # rising-edge slew rate at n=1, mV/ps
    sigma_geom_1: float      # geometric jitter at n=1, ps
    geom_exponent: float = 0.75
    rise_scaling_exponent: float = 0.5

    def __post_init__(self) -> None:
        for name in ("sigma_inst", "sigma_opt", "sigma_int", "sigma_elec", "sigma_geom_1"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name}: must be finite and >= 0, got {v}")
        for name in ("tau", "slew_rate_1"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name}: must be positive and finite, got {v}")
        if not (0.0 < self.geom_exponent <= 1.5):
            raise ValueError(f"geom_exponent: must be in (0, 1.5], got {self.geom_exponent}")
        if not (0.3 <= self.rise_scaling_exponent <= 0.5):
            raise ValueError(f"rise_scaling_exponent: must be in [0.3, 0.5], got {self.rise_scaling_exponent}")


def sigma_noise(b: JitterBudget, n) -> float:
    """Electrical-noise jitter sigma_elec / (slew_rate_1 * n**alpha), ps."""
    n = _check_n(n)
    return b.sigma_elec / (b.slew_rate_1 * n**b.rise_scaling_exponent)


def sigma_geom(b: JitterBudget, n) -> float:
    """Geometric jitter sigma_geom_1 / n**geom_exponent, ps."""
    n = _check_n(n)
    return b.sigma_geom_1 / n**b.geom_exponent


def tau_at(b: JitterBudget, n) -> float:
    """Exponential tail scale at photon number n, ps (the same at every n)."""
    _check_n(n)
    return b.tau


def sigma_total(b: JitterBudget, n) -> float:
    """Root-sum-square Gaussian width of the photon-number-n component, ps."""
    n = _check_n(n)
    return math.sqrt(
        sigma_noise(b, n) ** 2
        + b.sigma_inst**2
        + b.sigma_opt**2
        + sigma_geom(b, n) ** 2
        + b.sigma_int**2
    )


def mu_scaling(mu_infinity: float, delta_mu: float, n, exponent: float = 0.5) -> float:
    """Component location mu_infinity + delta_mu / n**exponent, ps."""
    n = _check_n(n)
    return mu_infinity + delta_mu / n**exponent
