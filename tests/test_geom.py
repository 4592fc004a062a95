import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from snspd_pnr import (
    Estimator,
    GeomMcResult,
    WireGeometry,
    conventional_readout_delay,
    geom,
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


def _delta_method_std_se(x):
    """Closed-form (delta-method) standard error of the sample std of ``x``."""
    d = x - x.mean()
    m2, m4, n = np.mean(d * d), np.mean(d**4), x.size
    return x.std(ddof=1) / 2.0 * math.sqrt((m4 / m2**2 - (n - 3) / (n - 1)) / n)


def _per_n_loop_std_se(x, resamples, rng):
    """The bootstrap that draws its own indices for each n: one gather and one std per resample."""
    stds = [x[rng.integers(0, x.size, size=x.size)].std(ddof=1) for _ in range(resamples)]
    return float(np.std(stds, ddof=1))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_bootstrap_errors_match_closed_form_and_per_n_loop(ref_wire, seed):
    # 200 resamples estimate a standard error to about 1/sqrt(2 * 199) = 5%
    samples, ns = 20_000, range(1, 11)
    res = geom_mc(ref_wire, ns, samples, np.random.default_rng(seed), bootstrap_resamples=200)
    # the trial draws come first, so a fresh generator of the same seed gives the same trials
    trials = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(100 + seed)
    closed, loop = [], []
    for n, sigma, se in res.per_n_std:
        x = np.empty(samples)
        geom._trial_times(ref_wire, n, x, trials, Estimator.MIDRANGE)
        assert x.std(ddof=1) == sigma
        closed.append(se / _delta_method_std_se(x))
        loop.append(se / _per_n_loop_std_se(x, 200, loop_rng))
    for ratios in (closed, loop):
        assert all(0.75 <= r <= 1.33 for r in ratios), ratios
        assert 0.95 <= np.mean(ratios) <= 1.05, ratios


@pytest.mark.parametrize("block", [geom._BOOTSTRAP_BLOCK, 7])
@pytest.mark.parametrize("rows", [1, 3, 12])
@pytest.mark.parametrize("resamples", [2, 8, 9, 30])
def test_bootstrap_counts_give_each_resample_std(monkeypatch, block, rows, resamples):
    # the count-weighted moments equal the std of each row gathered at the shared indices,
    # for a partial batch of resamples and for more rows than resamples in a batch
    x = np.random.default_rng(4).gamma(2.0, size=(rows, 1001))
    x -= x.mean(axis=1, keepdims=True)
    monkeypatch.setattr(geom, "_BOOTSTRAP_BLOCK", block)
    got = geom._bootstrap_std_se(x, resamples, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    counts = np.empty(x.shape[1], dtype=np.uint8)
    stds = []
    for _ in range(resamples):
        geom._resample_counts(x.shape[1], rng, counts)
        idx = np.repeat(np.arange(x.shape[1]), counts)
        stds.append(x[:, idx].std(axis=1, ddof=1))
    np.testing.assert_allclose(got, np.std(stds, axis=0, ddof=1), rtol=1e-9)


def _matrix_vector_std_se(centred, resamples, rng):
    """The bootstrap as one pair of matrix-vector sums per resample, over the same index draws."""
    k, n = centred.shape
    width = max(1, geom._BOOTSTRAP_BLOCK // k)
    stds = np.empty((resamples, k))
    counts = np.empty(n, dtype=np.uint8)
    for i in range(resamples):
        geom._resample_counts(n, rng, counts)
        c = counts.astype(float)
        s1 = np.zeros(k)
        s2 = np.zeros(k)
        for j in range(0, n, width):
            x, cj = centred[:, j : j + width], c[j : j + width]
            s1 += x @ cj
            s2 += (x * x) @ cj
        stds[i] = np.sqrt((s2 - s1 * s1 / n) / (n - 1))
    return stds.std(axis=0, ddof=1)


def test_batched_bootstrap_errors_equal_the_matrix_vector_loop(ref_wire, monkeypatch):
    # the same draws give the same errors; only the summation order differs
    ns, samples = range(1, 11), 20_000
    got = geom_mc(ref_wire, ns, samples, np.random.default_rng(6), bootstrap_resamples=200)
    monkeypatch.setattr(geom, "_bootstrap_std_se", _matrix_vector_std_se)
    want = geom_mc(ref_wire, ns, samples, np.random.default_rng(6), bootstrap_resamples=200)
    assert [row[:2] for row in got.per_n_std] == [row[:2] for row in want.per_n_std]
    np.testing.assert_allclose([se for *_, se in got.per_n_std], [se for *_, se in want.per_n_std], rtol=1e-12)


def _chi2_p(observed, probs, draws):
    """Pearson chi-square p-value of category counts; the categories expected fewer than 5 times are pooled."""
    cells = [(observed.get(c, 0), draws * p) for c, p in probs.items() if draws * p >= 5.0]
    if len(cells) < len(probs):
        cells.append((draws - sum(o for o, _ in cells), draws - sum(e for _, e in cells)))
    stat = sum((o - e) ** 2 / e for o, e in cells)
    return float(stats.chi2.sf(stat, len(cells) - 1))


def _count_vectors(n):
    """Every vector of n non-negative counts that sums to n (stars and bars)."""
    for bars in itertools.combinations(range(2 * n - 1), n - 1):
        ends = (-1, *bars, 2 * n - 1)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


@pytest.mark.parametrize("n", [7, 6, 2])
def test_resample_counts_follow_the_multinomial_law(monkeypatch, n):
    # blocks of 3 cells: n = 7 spans blocks of 3, 3 and 1, n = 6 two full blocks, n = 2 one partial block
    monkeypatch.setattr(geom, "_COUNT_BLOCK", 3)
    rng, draws = np.random.default_rng(21), 10_000
    row = np.empty(n, dtype=np.uint8)
    seen = collections.Counter()
    for _ in range(draws):
        geom._resample_counts(n, rng, row)
        assert row.sum() == n
        seen[tuple(row.tolist())] += 1
    pmf = {c: math.factorial(n) / math.prod(map(math.factorial, c)) / n**n for c in _count_vectors(n)}
    assert sum(pmf.values()) == pytest.approx(1.0, rel=1e-12)
    assert set(seen) <= set(pmf)
    assert _chi2_p(seen, pmf, draws) > 1e-3


@pytest.mark.parametrize("n", [10_000, 2 * geom._COUNT_BLOCK, 3 * geom._COUNT_BLOCK + 3392])
def test_resample_counts_at_full_block_size(n):
    # below one block, an exact multiple of the block, and three full blocks plus a partial one
    rng, draws = np.random.default_rng(22), 4
    row = np.empty(n, dtype=np.uint8)
    values = collections.Counter()
    for _ in range(draws):
        geom._resample_counts(n, rng, row)
        assert row.sum(dtype=np.int64) == n
        for start in range(0, n, geom._COUNT_BLOCK):
            # each block's total is Binomial(n, size / n)
            size = min(geom._COUNT_BLOCK, n - start)
            total = int(row[start : start + size].sum(dtype=np.int64))
            assert abs(total - size) < 4.0 * math.sqrt(size * (1.0 - size / n)) + 1e-9
        values.update(dict(enumerate(np.bincount(row).tolist())))
    # every cell's count is Binomial(n, 1/n)
    pmf = {k: float(stats.binom.pmf(k, n, 1.0 / n)) for k in range(12)}
    assert _chi2_p(values, pmf, draws * n) > 1e-3


class _ZeroIndices:
    """A generator stub whose draws all land in the first block at index 0, so index 0 is counted N times."""

    def multinomial(self, n, pvals):
        return np.array([n] + [0] * (len(pvals) - 1))

    def integers(self, low, high, size, dtype=np.int64):
        return np.zeros(size, dtype=dtype)


def test_bootstrap_count_above_255_raises():
    # 1000 draws of one index would store 1000 mod 256 = 232 in a uint8 count
    x = np.random.default_rng(2).normal(size=(2, 1000))
    x -= x.mean(axis=1, keepdims=True)
    with pytest.raises(RuntimeError, match="exceeds 255"):
        geom._bootstrap_std_se(x, 2, _ZeroIndices())


def test_geom_mc_memory_peak(ref_wire):
    # the (K, N) trial array plus four length-N vectors; a (K, N) temporary fails
    ns, samples = range(1, 11), 200_000
    tracemalloc.start()
    try:
        geom_mc(ref_wire, ns, samples, np.random.default_rng(1), bootstrap_resamples=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= len(ns) * samples * 8 + 4 * samples * 8


@pytest.mark.parametrize("estimator", list(Estimator))
def test_trial_times_do_not_depend_on_chunk_size(ref_wire, monkeypatch, estimator):
    samples = 100_000
    want = np.empty(samples)
    geom._trial_times(ref_wire, 4, want, np.random.default_rng(9), estimator)
    monkeypatch.setattr(geom, "_MC_CHUNK", 30_007)
    got = np.empty(samples)
    geom._trial_times(ref_wire, 4, got, np.random.default_rng(9), estimator)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_columnwise_midrange_is_bit_identical(n):
    x = np.random.default_rng(n).uniform(-3.0, 250.0, size=(4099, n))
    got = geom._min_plus_max(x)
    assert got.tobytes() == (x.min(axis=1) + x.max(axis=1)).tobytes()


@pytest.mark.parametrize("bins", [5, 40])
@pytest.mark.parametrize("estimator", list(Estimator))
def test_geom_mc_histograms_bin_its_own_trials_and_draw_nothing(ref_wire, estimator, bins):
    ns, samples, span = (1, 3, 10), 10_000, 200.0 / 6.0
    res = geom_mc(ref_wire, ns, samples, np.random.default_rng(7), estimator, 2, histogram_bins=bins)
    assert len(res.histograms) == len(ns)
    # the trial draws come first, so a fresh generator of the same seed gives the same trials
    trials = np.random.default_rng(7)
    for n, hist in zip(ns, res.histograms):
        x = np.empty(samples)
        geom._trial_times(ref_wire, n, x, trials, estimator)
        counts, edges = np.histogram(x, bins=np.linspace(0.0, span, bins + 1))
        assert np.array_equal(hist.counts, counts) and np.array_equal(hist.bin_edges, edges)
        assert hist.total_events == samples
    with pytest.raises(ValueError, match="one per per_n_std row"):
        GeomMcResult(res.per_n_std, res.fitted_exponent, res.fit_residual, res.histograms[:1])
    with pytest.raises(ValueError, match="times must hold 10000 trials"):
        geom_histogram(ref_wire, 1, samples, bins, None, times=np.zeros(samples + 1))


def test_geom_mc_spreads_do_not_depend_on_histogram_bins(ref_wire):
    ns, samples = range(1, 11), 20_000
    plain = geom_mc(ref_wire, ns, samples, np.random.default_rng(3), bootstrap_resamples=20)
    binned = geom_mc(ref_wire, ns, samples, np.random.default_rng(3), bootstrap_resamples=20, histogram_bins=40)
    assert plain.per_n_std == binned.per_n_std
    assert (plain.fitted_exponent, plain.fit_residual) == (binned.fitted_exponent, binned.fit_residual)
    assert plain.histograms == () and [h.counts.size for h in binned.histograms] == [40] * 10
    with pytest.raises(ValueError, match="histogram_bins must be >= 0"):
        geom_mc(ref_wire, ns, samples, np.random.default_rng(3), histogram_bins=-1)
