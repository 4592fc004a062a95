import math

import numpy as np
import pytest

from snspd_pnr import (
    DetectorConfig,
    bandwidth,
    fall_and_reset,
    growth_rate,
    rise_time,
    sigma_noise,
    slew_noise_jitter,
    threshold_crossing,
)


def edge_voltage(d, n, t):
    """The rising edge A (1 - exp(-t^2 n u)) in closed form, mV."""
    return d.amplitude * -np.expm1(-np.square(t) * n * growth_rate(d))


def test_threshold_crossing_inverse_sqrt_scaling(ref_detector):
    t1 = threshold_crossing(ref_detector, 1)
    for n in range(2, 30):
        tn = threshold_crossing(ref_detector, n)
        assert tn * math.sqrt(n) == pytest.approx(t1, rel=1e-12)


def test_threshold_crossing_closed_form(ref_detector):
    u = growth_rate(ref_detector)
    assert u == pytest.approx(1.0 / 300.0**2, rel=1e-15)
    t = threshold_crossing(ref_detector, 1, fraction=0.5)
    assert t == pytest.approx(math.sqrt(math.log(2.0)) * 300.0, rel=1e-12)
    v = edge_voltage(ref_detector, 1, t)
    assert v == pytest.approx(50.0, rel=1e-12)


def test_rising_edge_limits(ref_detector):
    # the crossing times invert the closed-form edge, which starts at 0 and saturates at A
    assert edge_voltage(ref_detector, 1, 0.0) == 0.0
    assert edge_voltage(ref_detector, 1, 1e5) == pytest.approx(100.0, rel=1e-12)
    fractions = np.linspace(0.05, 0.95, 19)
    for n in (1, 2, 7):
        ts = np.array([threshold_crossing(ref_detector, n, f) for f in fractions])
        assert np.all(np.diff(ts) > 0.0)
        np.testing.assert_allclose(edge_voltage(ref_detector, n, ts), 100.0 * fractions, rtol=1e-12)


def test_fall_and_reset_reference(ref_detector):
    t_fall, t_reset = fall_and_reset(ref_detector)
    # 500 nH into 50 Ohm: L/R = 10 ns; reset stretches by ln(A/N) = ln 10
    assert t_fall == pytest.approx(10_000.0, rel=1e-15)
    assert t_reset == pytest.approx(10_000.0 * math.log(10.0), rel=1e-15)
    assert t_reset == pytest.approx(23025.850929940458, rel=1e-12)


def test_bandwidth(ref_detector):
    assert bandwidth(ref_detector) == pytest.approx(350.0 / 300.0, rel=1e-15)


def test_slew_noise_jitter_matches_budget(ref_detector, ref_budget):
    # the pulse-level derivation sigma_elec * t_rise(n) / A must agree with the
    # budget-level sigma_elec / (slew_rate_1 n^alpha) when slew_rate_1 = A / t_rise_1
    det = DetectorConfig(
        kinetic_inductance=500.0,
        amplitude=100.0,
        noise_floor=10.0,
        delta_mu=289.0,
        mu_infinity=144.0,
        rise_time_1=100.0 / 1.08,
    )
    for n in (1, 2, 7):
        assert slew_noise_jitter(det, 4.9, n) == pytest.approx(
            sigma_noise(ref_budget, n), rel=1e-12
        )


def test_rise_time_scaling(ref_detector):
    assert rise_time(ref_detector, 1) == 300.0
    assert rise_time(ref_detector, 4) == pytest.approx(150.0, rel=1e-14)


def test_validation(ref_detector):
    with pytest.raises(ValueError, match="noise_floor must be below amplitude"):
        DetectorConfig(
            kinetic_inductance=500.0,
            amplitude=100.0,
            noise_floor=100.0,
            delta_mu=289.0,
            mu_infinity=144.0,
            rise_time_1=300.0,
        )
    with pytest.raises(ValueError):
        threshold_crossing(ref_detector, 1, fraction=1.0)
    with pytest.raises(ValueError):
        threshold_crossing(ref_detector, 0)
    with pytest.raises(ValueError):
        slew_noise_jitter(ref_detector, -1.0, 1)
