"""Rising-edge, fall-time, and reset dynamics of the readout pulse.

The rising edge with n photons detected follows V(t) = A (1 - exp(-t^2 n u))
with a single lumped domain-growth parameter u (1/ps^2).  Threshold-crossing
times therefore scale exactly as 1/sqrt(n), which underpins both the
mean-arrival scaling and the slew-rate noise scaling of the jitter budget.
Fall and reset times come from the kinetic inductance discharging through the
load.  Units: nH, Ohm, mV, ps, GHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .budget import _check_n
from .geom import WireGeometry
from .overlap import ElementGrid


@dataclass(frozen=True)
class DetectorConfig:
    kinetic_inductance: float             # L_k, nH
    amplitude: float                      # pulse amplitude A, mV
    noise_floor: float                    # noise floor N, mV
    delta_mu: float                       # one-photon mean-delay excess, ps
    mu_infinity: float                    # many-photon mean-delay asymptote, ps
    rise_time_1: float                    # one-photon rise time, ps
    load_resistance: float = 50.0         # Ohm
    domain_growth_rate: float | None = None  # u, 1/ps^2; derived from rise_time_1 when omitted
    wire: WireGeometry | None = None
    grid: ElementGrid | None = None

    def __post_init__(self) -> None:
        for name in ("kinetic_inductance", "amplitude", "rise_time_1", "load_resistance"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive")
        if not (math.isfinite(self.noise_floor) and self.noise_floor > 0.0):
            raise ValueError("noise_floor must be positive")
        if self.noise_floor >= self.amplitude:
            raise ValueError("noise_floor must be below amplitude: the pulse never exceeds noise")
        for name in ("delta_mu", "mu_infinity"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.domain_growth_rate is not None and not (
            math.isfinite(self.domain_growth_rate) and self.domain_growth_rate > 0.0
        ):
            raise ValueError("domain_growth_rate must be positive")


def growth_rate(d: DetectorConfig) -> float:
    """Lumped domain-growth parameter u (1/ps^2).

    When not set explicitly it is calibrated from the one-photon rise time:
    V reaches (1 - 1/e) A at t = 1/sqrt(u) for n = 1, so u = 1/rise_time_1^2.
    """
    if d.domain_growth_rate is not None:
        return d.domain_growth_rate
    return 1.0 / (d.rise_time_1 * d.rise_time_1)


def threshold_crossing(d: DetectorConfig, n, fraction: float = 0.5) -> float:
    """Time at which the rising edge reaches ``fraction`` of the amplitude, ps.

    t = sqrt(-ln(1 - fraction) / (n u)); exactly proportional to 1/sqrt(n).
    """
    n = _check_n(n)
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must be in (0, 1)")
    return math.sqrt(-math.log1p(-fraction) / (n * growth_rate(d)))


def fall_and_reset(d: DetectorConfig) -> tuple[float, float]:
    """Fall time L_k/R and reset time t_fall * ln(A/N), both in ps."""
    t_fall = d.kinetic_inductance / d.load_resistance * 1e3  # nH/Ohm = ns
    t_reset = t_fall * math.log(d.amplitude / d.noise_floor)
    return t_fall, t_reset


def bandwidth(d: DetectorConfig) -> float:
    """Analog bandwidth 0.35 / rise time, GHz."""
    return 350.0 / d.rise_time_1


def rise_time(d: DetectorConfig, n) -> float:
    """Rise time at photon number n, rise_time_1 / sqrt(n) like the crossing times (ps)."""
    n = _check_n(n)
    return d.rise_time_1 / n**0.5


def slew_noise_jitter(d: DetectorConfig, sigma_elec: float, n) -> float:
    """Timing jitter from converting voltage noise through the edge slew rate, ps.

    sigma_elec * rise_time(n) / A == sigma_elec / (slew_rate_1 * sqrt(n)), the jitter
    budget's noise term at its default exponent of 0.5.
    """
    if not (math.isfinite(sigma_elec) and sigma_elec >= 0.0):
        raise ValueError("sigma_elec must be finite and >= 0")
    return sigma_elec * rise_time(d, n) / d.amplitude
