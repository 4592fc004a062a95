import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from snspd_pnr import (
    ElementGrid,
    occupied_element_counts,
    overlap_approx,
    overlap_exact,
)
from snspd_pnr.overlap import occupied_law


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
    ns = np.array([0, 4, 0, 0, 9, 1, 0, 2] * 500)
    counts = occupied_element_counts(g, ns, np.random.default_rng(1))
    assert np.all(counts[ns == 0] == 0)
    assert np.all(counts[ns == 1] == 1)
    assert np.all((counts[ns > 0] >= 1) & (counts[ns > 0] <= np.minimum(ns[ns > 0], 5)))


def test_empty_photon_counts():
    out = occupied_element_counts(ElementGrid(5), np.array([], dtype=np.int64), np.random.default_rng(0))
    assert out.shape == (0,) and out.dtype == np.int64


def test_single_element_is_always_occupied_once():
    ns = np.array([0, 1, 2, 7, 40, 3])
    counts = occupied_element_counts(ElementGrid(1), ns, np.random.default_rng(2))
    assert np.array_equal(counts, np.minimum(ns, 1))


def test_more_photons_than_elements():
    g = ElementGrid(24)
    counts = occupied_element_counts(g, np.full(50_000, 60), np.random.default_rng(3))
    assert counts.min() >= 1 and counts.max() <= 24
    want = 24.0 * -math.expm1(60 * math.log1p(-1.0 / 24.0))
    assert abs(counts.mean() - want) < 4.0 * counts.std(ddof=1) / math.sqrt(counts.size)


def test_draw_depends_only_on_the_event():
    # one uniform per event, and guide rows that do not depend on the largest n in the array
    g = ElementGrid(24)
    ns = np.array([5, 17, 3, 60, 200, 1, 24])
    alone = [occupied_element_counts(g, ns[: i + 1], np.random.default_rng(4))[i] for i in range(ns.size)]
    assert np.array_equal(alone, occupied_element_counts(g, ns, np.random.default_rng(4)))


def test_validation():
    with pytest.raises(ValueError):
        ElementGrid(0)
    g = ElementGrid(4)
    with pytest.raises(ValueError):
        overlap_exact(g, 0)
    with pytest.raises(ValueError):
        overlap_approx(g, 1.5)
    with pytest.raises(ValueError):
        occupied_element_counts(g, np.array([-1]), np.random.default_rng(0))
    for bad in ([2.5], [3.0, np.nan], [np.inf]):
        with pytest.raises(ValueError, match="integers"):
            occupied_element_counts(g, np.array(bad), np.random.default_rng(0))
    with pytest.raises(ValueError):
        occupied_element_counts(g, np.ones((2, 2), dtype=int), np.random.default_rng(0))
    whole = occupied_element_counts(g, np.array([3.0, 0.0]), np.random.default_rng(0))
    assert np.array_equal(whole, occupied_element_counts(g, np.array([3, 0]), np.random.default_rng(0)))
    for dtype in (np.uint8, np.uint64, np.int32):
        typed = occupied_element_counts(g, np.array([3, 0], dtype=dtype), np.random.default_rng(0))
        assert typed.dtype == np.int64 and np.array_equal(typed, whole)
    for n_hi, m in ((-1, 4), (3, 0), (2.5, 4), (3, 1.5)):
        with pytest.raises(ValueError):
            occupied_law(n_hi, m)


@pytest.mark.parametrize("m", [1, 2, 10, 24, 1000])
def test_occupied_law_rows_overlap_and_mean(m):
    n_hi = 60
    law = occupied_law(n_hi, m)
    assert law.shape == (n_hi + 1, min(n_hi, m) + 1)
    assert np.all(law >= 0.0)
    assert np.all(np.abs(law.sum(axis=1) - 1.0) <= 1e-15)
    k = np.arange(law.shape[1])
    grid = ElementGrid(m)
    for n in range(1, n_hi + 1):
        if n <= m:
            assert law[n, n] == pytest.approx(1.0 - overlap_exact(grid, n), rel=1e-15, abs=1e-15)
        assert np.all(law[n, min(n, m) + 1 :] == 0.0)
        want = m * -math.expm1(n * math.log1p(-1.0 / m)) if m > 1 else 1.0
        assert float(law[n] @ k) == pytest.approx(want, rel=1e-13)


def test_occupied_law_matches_enumeration():
    for m in range(1, 5):
        law = occupied_law(6, m)
        for n in range(0, 7):
            hits = np.bincount([len(set(c)) for c in itertools.product(range(m), repeat=n)],
                               minlength=law.shape[1])
            assert np.array_equal(law[n], hits / m**n)


def _pooled_chisquare(observed, expected):
    """Pearson chi-square p-value after pooling cells expected below 5 into one."""
    small = expected < 5.0
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] == 0.0:
        obs, exp = obs[:-1], exp[:-1]
    stat = float(((obs - exp) ** 2 / exp).sum())
    return stat, exp.size - 1


def test_occupied_counts_follow_the_law():
    m, per_n = 24, 100_000
    ns = np.repeat(np.arange(1, 46), per_n)
    np.random.default_rng(5).shuffle(ns)
    counts = occupied_element_counts(ElementGrid(m), ns, np.random.default_rng(6))
    law = occupied_law(45, m)
    joint = np.bincount(ns * law.shape[1] + counts, minlength=law.size).reshape(law.shape)
    total_stat, total_dof = 0.0, 0
    for n in range(1, 46):
        observed = joint[n].astype(float)
        stat, dof = _pooled_chisquare(observed, per_n * law[n])
        if dof == 0:  # a single possible k
            assert observed[1] == per_n and n == 1
            continue
        assert stats.chi2.sf(stat, dof) > 1e-4, f"n={n}: chi2={stat:.1f} on {dof} dof"
        total_stat, total_dof = total_stat + stat, total_dof + dof
    assert stats.chi2.sf(total_stat, total_dof) > 1e-3


def test_occupied_counts_agree_with_sorting_sampler():
    def sort_and_count(m, n, size, rng):
        draws = np.sort(rng.integers(0, m, size=(size, n)), axis=1)
        return 1 + np.count_nonzero(np.diff(draws, axis=1), axis=1)

    g, size = ElementGrid(24), 40_000
    for i, n in enumerate((2, 5, 12, 24, 45)):
        new = occupied_element_counts(g, np.full(size, n), np.random.default_rng(100 + i))
        old = sort_and_count(24, n, size, np.random.default_rng(200 + i))
        table = np.array([np.bincount(new, minlength=25), np.bincount(old, minlength=25)])
        table = table[:, table.sum(axis=0) > 0]
        assert stats.chi2_contingency(table)[1] > 1e-4, f"n={n}"


def _search_law_rows(grid, counts, u):
    """``np.searchsorted`` of each event's uniform in row n of the normalized ``occupied_law`` CDF,
    formed as ``rng.choice`` forms it: the reference for the guide table."""
    law = occupied_law(int(counts.max()), grid.element_count)
    k = np.empty(counts.size, dtype=np.int64)
    for n in np.unique(counts):
        cdf = law[n].cumsum()
        cdf /= cdf[-1]
        at = counts == n
        k[at] = np.searchsorted(cdf, u[at], side="right")
    return k


@pytest.mark.parametrize("m", [1, 2, 24, 50])
def test_occupied_counts_are_the_search_in_the_law_cdf_bit_for_bit(m):
    rng = np.random.default_rng(9)
    ns = np.concatenate([np.zeros(50, dtype=np.int64), np.arange(0, 3 * m + 40), rng.integers(0, 70, 200_000)])
    rng.shuffle(ns)
    for counts in (ns, np.zeros(10, dtype=np.int64), np.full(1000, m + 1), np.ones(3, dtype=np.int64)):
        old_rng, new_rng = np.random.default_rng(31), np.random.default_rng(31)
        old = _search_law_rows(ElementGrid(m), counts, old_rng.random(counts.size))
        new = occupied_element_counts(ElementGrid(m), counts, new_rng)
        assert new.dtype == old.dtype == np.int64
        assert np.array_equal(new, old)
        assert new_rng.random() == old_rng.random()


class _Uniforms:
    """Stands in for a generator whose one ``random`` call returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size, out=None):
        assert size == self.u.size and out is None
        return self.u


@pytest.mark.parametrize("m", [1, 2, 24, 50])
def test_occupied_count_draw_on_and_below_every_cdf_entry(m):
    # at m = 2 the entries 2^(1-n) sit on bucket edges up to n = 7; most others fall inside searched buckets
    grid, rows = ElementGrid(m), np.arange(0, m + 40)
    law = occupied_law(int(rows[-1]), m)
    counts, u = [], []
    for n in rows:
        cdf = law[n].cumsum()
        cdf /= cdf[-1]
        edge = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cdf[:-1], np.nextafter(cdf[:-1], 0.0)])
        edge = edge[edge < 1.0]  # past k = min(n, M) the entries are 1, which no uniform reaches
        counts.append(np.full(edge.size, n))
        u.append(edge)
    counts, u = np.concatenate(counts), np.concatenate(u)
    assert np.array_equal(occupied_element_counts(grid, counts, _Uniforms(u)), _search_law_rows(grid, counts, u))
