import math

import pytest

from snspd_pnr import (
    ElementGrid,
    JitterBudget,
    mu_scaling,
    overlap_exact,
    sigma_geom,
    sigma_noise,
    sigma_total,
    threshold_crossing,
)


def test_one_photon_width_reference(ref_budget):
    want = math.sqrt((4.9 / 1.08) ** 2 + 3.0**2 + 1.0**2 + 9.0**2 + 6.0**2)
    assert sigma_total(ref_budget, 1) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(12.148444553746204, rel=1e-12)


def test_noise_term_scaling(ref_budget):
    assert sigma_noise(ref_budget, 1) == pytest.approx(4.9 / 1.08, rel=1e-15)
    assert sigma_noise(ref_budget, 4) == pytest.approx(4.9 / 1.08 / 2.0, rel=1e-14)
    assert sigma_noise(ref_budget, 9) == pytest.approx(4.9 / 1.08 / 3.0, rel=1e-14)


def test_geom_term_scaling(ref_budget):
    for n in (1, 2, 5, 16):
        assert sigma_geom(ref_budget, n) == pytest.approx(9.0 / n**0.75, rel=1e-14)


def test_rss_composition(ref_budget):
    for n in range(1, 8):
        want = math.sqrt(
            sigma_noise(ref_budget, n) ** 2
            + ref_budget.sigma_inst**2
            + ref_budget.sigma_opt**2
            + sigma_geom(ref_budget, n) ** 2
            + ref_budget.sigma_int**2
        )
        assert sigma_total(ref_budget, n) == pytest.approx(want, rel=1e-14)


def test_large_n_width_floor(ref_budget):
    # photon-number-dependent terms vanish; floor is the RSS of the fixed ones
    floor = math.sqrt(3.0**2 + 1.0**2 + 6.0**2)
    assert sigma_total(ref_budget, 10**8) == pytest.approx(floor, abs=1e-6)
    assert sigma_total(ref_budget, 10**8) > floor


def test_width_strictly_decreasing(ref_budget):
    widths = [sigma_total(ref_budget, n) for n in range(1, 31)]
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_mean_location_reference(ref_detector):
    def mu_n(n):
        return mu_scaling(ref_detector.mu_infinity, ref_detector.delta_mu, n)

    assert mu_n(1) == pytest.approx(433.0, rel=1e-14)
    assert mu_n(2) == pytest.approx(144.0 + 289.0 / math.sqrt(2.0), rel=1e-14)
    assert mu_n(2) == pytest.approx(348.3538597629122, rel=1e-12)
    assert mu_n(3) == pytest.approx(310.8542277958019, rel=1e-12)


def test_mean_location_exponent():
    assert mu_scaling(144.0, 289.0, 2, exponent=0.3) == pytest.approx(
        144.0 + 289.0 / 2.0**0.3, rel=1e-14
    )
    assert mu_scaling(100.0, 0.0, 5) == pytest.approx(100.0)


def test_validation():
    good = dict(
        sigma_inst=3.0,
        sigma_opt=1.0,
        sigma_int=6.0,
        tau=6.0,
        sigma_elec=4.9,
        slew_rate_1=1.08,
        sigma_geom_1=9.0,
    )
    JitterBudget(**good)
    for key, bad in [
        ("sigma_inst", -1.0),
        ("tau", 0.0),
        ("slew_rate_1", 0.0),
        ("geom_exponent", 0.0),
        ("geom_exponent", 2.0),
        ("rise_scaling_exponent", 0.2),
        ("rise_scaling_exponent", 0.6),
    ]:
        with pytest.raises(ValueError):
            JitterBudget(**{**good, key: bad})
    b = JitterBudget(**good)
    for bad_n in (0, -1, 1.5, True):
        with pytest.raises(ValueError):
            sigma_total(b, bad_n)


@pytest.mark.parametrize("n", [math.inf, math.nan, 2.5, 0])
@pytest.mark.parametrize("which", ["sigma_total", "overlap_exact", "threshold_crossing"])
def test_photon_number_is_checked_in_one_place(ref_budget, ref_detector, which, n):
    call = {
        "sigma_total": lambda: sigma_total(ref_budget, n),
        "overlap_exact": lambda: overlap_exact(ElementGrid(24), n),
        "threshold_crossing": lambda: threshold_crossing(ref_detector, n),
    }[which]
    with pytest.raises(ValueError, match="photon number n must be"):
        call()
