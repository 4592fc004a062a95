import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snspd_pnr import (
    ElementGrid,
    occupied_element_counts,
    overlap_approx,
    overlap_exact,
)


def test_reference_values():
    g = ElementGrid(10)
    assert overlap_exact(g, 2) == 0.1  # integer arithmetic, correctly rounded
    assert overlap_approx(g, 2) == pytest.approx(-math.expm1(-0.1), rel=1e-15)
    assert overlap_approx(g, 2) == pytest.approx(0.09516258196404048, rel=1e-12)
    assert overlap_exact(g, 1) == 0.0
    assert overlap_approx(g, 1) == 0.0
    assert math.copysign(1.0, overlap_approx(g, 1)) == 1.0


def test_pigeonhole_saturation():
    g = ElementGrid(6)
    for n in (7, 8, 20):
        assert overlap_exact(g, n) == 1.0
    assert overlap_exact(g, 6) < 1.0


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 10**6), n=st.integers(1, 100))
def test_exact_bounds_and_dominates_approx(m, n):
    g = ElementGrid(m)
    exact = overlap_exact(g, n)
    approx = overlap_approx(g, n)
    assert 0.0 <= exact <= 1.0
    assert 0.0 <= approx <= 1.0
    # exp(-x) >= 1 - x termwise, so the approximation never exceeds the exact value
    assert exact >= approx - 1e-12
    if n < 100:
        assert overlap_exact(g, n + 1) >= exact


def test_monte_carlo_agreement():
    g = ElementGrid(24)
    n = 3
    p_true = overlap_exact(g, n)
    rng = np.random.default_rng(8)
    trials = 200_000
    hits = np.count_nonzero(occupied_element_counts(g, np.full(trials, n), rng) < n)
    frac = hits / trials
    se = math.sqrt(p_true * (1.0 - p_true) / trials)
    assert abs(frac - p_true) < 3.5 * se


def test_occupied_counts_vectorized_matches_scalar_distribution():
    g = ElementGrid(12)
    ns = np.array([1, 2, 3, 5, 3, 2, 1] * 3000)
    counts = occupied_element_counts(g, ns, np.random.default_rng(21))
    assert counts.shape == ns.shape
    assert np.all(counts >= 1)
    assert np.all(counts <= ns)
    # expected number of distinct elements hit by n uniform throws into M cells
    for n in (2, 3, 5):
        sel = counts[ns == n]
        want = 12.0 * -math.expm1(n * math.log1p(-1.0 / 12.0))
        se = sel.std(ddof=1) / math.sqrt(sel.size)
        assert abs(sel.mean() - want) < 4.0 * se


def test_occupied_counts_deterministic():
    g = ElementGrid(8)
    ns = np.array([4, 1, 6, 2, 2, 4])
    a = occupied_element_counts(g, ns, np.random.default_rng(33))
    b = occupied_element_counts(g, ns, np.random.default_rng(33))
    assert np.array_equal(a, b)


def test_zero_photons():
    g = ElementGrid(5)
    counts = occupied_element_counts(g, np.array([0, 3, 0]), np.random.default_rng(0))
    assert counts[0] == 0 and counts[2] == 0 and 1 <= counts[1] <= 3


def test_validation():
    with pytest.raises(ValueError):
        ElementGrid(0)
    with pytest.raises(ValueError):
        ElementGrid(4, element_length=0.0)
    g = ElementGrid(4)
    with pytest.raises(ValueError):
        overlap_exact(g, 0)
    with pytest.raises(ValueError):
        overlap_approx(g, 1.5)
    with pytest.raises(ValueError):
        occupied_element_counts(g, np.array([-1]), np.random.default_rng(0))
