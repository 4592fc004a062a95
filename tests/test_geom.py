import math

import numpy as np
import pytest

from snspd_pnr import (
    Estimator,
    GeomMcResult,
    WireGeometry,
    conventional_readout_delay,
    geom_histogram,
    geom_mc,
    geom_sigma_analytic,
)


def test_analytic_spreads(ref_wire):
    assert geom_sigma_analytic(ref_wire, 1) == pytest.approx(
        200.0 / (2.0 * math.sqrt(3.0) * 6.0), rel=1e-14
    )
    assert geom_sigma_analytic(ref_wire, 1) == pytest.approx(9.622504486493763, rel=1e-12)
    assert geom_sigma_analytic(ref_wire, 2) == pytest.approx(6.804138174397717, rel=1e-12)
    with pytest.raises(ValueError):
        geom_sigma_analytic(ref_wire, 3)


def test_midrange_mc_matches_analytic(ref_wire):
    rng = np.random.default_rng(5)
    res = geom_mc(ref_wire, [1, 2], samples=150_000, rng=rng)
    for (n, sigma, se), want in zip(res.per_n_std, (9.622504486493763, 6.804138174397717)):
        assert abs(sigma - want) < 3.0 * se


def test_midrange_three_photon_order_statistics(ref_wire):
    # var of the midrange of n uniforms on (0, l) is l^2 / (2 (n+1) (n+2))
    want = 200.0 / (math.sqrt(2.0 * 4.0 * 5.0) * 6.0)
    rng = np.random.default_rng(11)
    res = geom_mc(ref_wire, [3], samples=200_000, rng=rng)
    n, sigma, se = res.per_n_std[0]
    assert abs(sigma - want) < 4.0 * se
    assert res.fitted_exponent is None and res.fit_residual is None


def test_mean_estimator_scaling(ref_wire):
    # the mean of n uniforms has std l / sqrt(12 n)
    rng = np.random.default_rng(13)
    res = geom_mc(ref_wire, [1, 4], samples=150_000, rng=rng, estimator="mean")
    for (n, sigma, se) in res.per_n_std:
        want = 200.0 / (math.sqrt(12.0 * n) * 6.0)
        assert abs(sigma - want) < 3.5 * se


def test_fitted_exponent_midrange(ref_wire):
    rng = np.random.default_rng(17)
    res = geom_mc(ref_wire, list(range(1, 11)), samples=120_000, rng=rng)
    # the midrange spread is not a pure power law in n; over n = 1..10 the
    # best-fit slope sits near 0.685 rather than at the scaling-law exponent
    assert res.fitted_exponent == pytest.approx(0.6853, abs=0.02)
    assert 0.5 <= res.fitted_exponent <= 0.9
    assert res.fit_residual < 0.05


def test_conventional_readout_delay(ref_wire):
    want = (200.0 / 6.0 + 200.0 / 140.0) / 2.0
    assert conventional_readout_delay(ref_wire) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(17.380952380952383, rel=1e-14)
    with pytest.raises(ValueError, match="ground_velocity"):
        conventional_readout_delay(WireGeometry(200.0, 6.0))


def test_histogram_shapes(ref_wire):
    span = 200.0 / 6.0
    h1 = geom_histogram(ref_wire, 1, 120_000, 20, np.random.default_rng(2))
    assert h1.bin_edges[0] == 0.0 and h1.bin_edges[-1] == pytest.approx(span)
    counts = h1.counts.astype(float)
    # single-site times are uniform over the wire transit
    assert counts.max() / counts.min() < 1.15

    h2 = geom_histogram(ref_wire, 2, 120_000, 21, np.random.default_rng(3))
    c2 = h2.counts.astype(float)
    mid = c2[len(c2) // 2]
    assert mid > 1.5 * c2[0] and mid > 1.5 * c2[-1]

    h5 = geom_histogram(ref_wire, 5, 120_000, 21, np.random.default_rng(4))
    peak = int(np.argmax(h5.counts))
    assert 7 <= peak <= 13


def test_determinism(ref_wire):
    a = geom_mc(ref_wire, [1, 3], 20_000, np.random.default_rng(42))
    b = geom_mc(ref_wire, [1, 3], 20_000, np.random.default_rng(42))
    c = geom_mc(ref_wire, [1, 3], 20_000, np.random.default_rng(43))
    assert a == b
    assert a != c


def test_validation(ref_wire):
    with pytest.raises(ValueError):
        geom_mc(ref_wire, [1], samples=5000, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        geom_mc(ref_wire, [], samples=20_000, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        geom_mc(ref_wire, [0], samples=20_000, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        geom_mc(ref_wire, [1], samples=20_000, rng=np.random.default_rng(0), estimator="median")
    with pytest.raises(ValueError):
        WireGeometry(0.0, 6.0)
    with pytest.raises(ValueError):
        WireGeometry(200.0, 6.0, ground_velocity=5.0)
    with pytest.raises(ValueError):
        geom_histogram(ref_wire, 1, 20_000, 0, np.random.default_rng(0))
    assert Estimator("midrange") is Estimator.MIDRANGE


@pytest.mark.parametrize("resamples", [0, 1])
def test_fewer_than_two_bootstrap_resamples_rejected(ref_wire, resamples):
    with pytest.raises(ValueError, match="bootstrap_resamples must be >= 2"):
        geom_mc(ref_wire, [1, 2], 10_000, np.random.default_rng(0), bootstrap_resamples=resamples)


def test_result_rejects_nan_spread_or_error():
    GeomMcResult(((1, 9.6, 0.02),), None, None)
    for row in ((1, math.nan, 0.02), (1, 9.6, math.nan), (1, 9.6, 0.0)):
        with pytest.raises(ValueError):
            GeomMcResult((row,), None, None)
