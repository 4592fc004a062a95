import copy
import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

import snspd_pnr.sim
from snspd_pnr import (
    ArrivalHistogram,
    EmgParams,
    FixedParams,
    MergeModel,
    MixtureModel,
    SimPlan,
    TimeTagTable,
    conditioned_poisson_weights,
    emg_cdf,
    mixture_from_params,
    mixture_moments,
    mu_scaling,
    read_time_tags,
    sigma_total,
    simulate_tags,
    sweep_total_width,
    tau_at,
    total_width,
    write_time_tags,
)
from snspd_pnr.overlap import occupied_element_counts, occupied_law
from snspd_pnr.sim import _CHUNK_EVENTS, TRIGGER_PERIOD_PS, _draw_photon_numbers


@pytest.fixture
def make_plan(ref_detector, ref_budget):
    def make(n_bar_values, events, merge="off", seed=0):
        return SimPlan(
            detector=ref_detector,
            budget=ref_budget,
            n_bar_values=n_bar_values,
            events_per_source=events,
            merge_model=merge,
            seed=seed,
        )

    return make


@pytest.fixture
def simulate_with_draws(monkeypatch):
    """``simulate_tags`` that also returns each source's photon numbers n and effective numbers K,
    seen at the draw: (tags, n, K) per source."""
    ns, ks = [], []

    # the simulator draws every chunk into one workspace, so each draw is copied before the next overwrites it
    def draw_n(weights, u, out=None):
        n = _draw_photon_numbers(weights, u, out)
        ns.append(n.copy())
        return n

    def draw_k(grid, n, rng, out=None, u=None):
        k = occupied_element_counts(grid, n, rng, out, u)
        ks.append(k.copy())
        return k

    monkeypatch.setattr(snspd_pnr.sim, "_draw_photon_numbers", draw_n)
    monkeypatch.setattr(snspd_pnr.sim, "occupied_element_counts", draw_k)

    def run(plan):
        ns.clear()
        ks.clear()
        tags = simulate_tags(plan)
        merged = plan.merge_model is MergeModel.OCCUPIED_ELEMENTS
        assert len(ks) == (len(ns) if merged else 0)  # without merging K is the drawn n
        chunks = len(ns) // len(tags)
        per_source = [(np.concatenate(ns[i : i + chunks]), np.concatenate((ks if merged else ns)[i : i + chunks]))
                      for i in range(0, len(ns), chunks)]
        return [(st, n, k) for st, (n, k) in zip(tags, per_source, strict=True)]

    return run


def test_stratum_proportions(make_plan, simulate_with_draws):
    plan = make_plan([1.0], 120_000, seed=10)
    ((tags, ns, _),) = simulate_with_draws(plan)
    n_max, weights = conditioned_poisson_weights(1.0)
    counts = np.bincount(ns.astype(int), minlength=n_max + 1)[1:]
    sel = weights * ns.size >= 5
    chi2 = float(
        ((counts[sel] - weights[sel] * counts.sum()) ** 2 / (weights[sel] * counts.sum())).sum()
    )
    crit = stats.chi2.ppf(0.999, df=int(sel.sum()) - 1)
    assert chi2 < crit


def test_stratum_conditional_moments(make_plan, simulate_with_draws, ref_detector, ref_budget):
    plan = make_plan([1.0], 200_000, seed=11)
    ((tags, ns, _),) = simulate_with_draws(plan)
    delta = tags.delta_ps
    for n in (1, 2, 3):
        sel = ns == n
        m = int(sel.sum())
        x = delta[sel]
        want_mean = mu_scaling(ref_detector.mu_infinity, ref_detector.delta_mu, n) + tau_at(ref_budget, n)
        want_std = math.hypot(sigma_total(ref_budget, n), tau_at(ref_budget, n))
        assert x.mean() == pytest.approx(want_mean, abs=4.5 * want_std / math.sqrt(m))
        assert x.std(ddof=1) == pytest.approx(want_std, rel=0.03)


def test_low_rate_source_is_single_photon_emg(make_plan, simulate_with_draws, ref_detector, ref_budget):
    plan = make_plan([0.01], 60_000, seed=12)
    ((tags, ns, _),) = simulate_with_draws(plan)
    frac_single = float((ns == 1).mean())
    assert frac_single > 0.99
    p = EmgParams(
        mu_scaling(ref_detector.mu_infinity, ref_detector.delta_mu, 1), sigma_total(ref_budget, 1), tau_at(ref_budget, 1)
    )
    x = tags.delta_ps[ns == 1]
    stat = stats.kstest(x, lambda t: emg_cdf(p, t)).statistic
    assert stat < 1.9495 / math.sqrt(x.size)


def _check_photon_number_draw(weights, count, seed):
    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    old = old_rng.choice(np.arange(1, weights.size + 1), size=count, p=weights)
    new = _draw_photon_numbers(weights, new_rng.random(count))
    assert new.dtype == old.dtype and np.array_equal(new, old)
    assert new_rng.random() == old_rng.random()
    # rng.choice searches the CDF it forms so; check uniforms on and one ulp below every entry
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], cdf[:-1], np.nextafter(cdf[:-1], 0.0)])
    assert np.array_equal(_draw_photon_numbers(weights, u), cdf.searchsorted(u, side="right") + 1)


@pytest.mark.parametrize("n_bar", np.geomspace(1e-3, 500.0, 25))
def test_photon_number_draw_is_rng_choice_bit_for_bit(n_bar):
    _, weights = conditioned_poisson_weights(float(n_bar))
    _check_photon_number_draw(weights, 100_000, 61)


@pytest.mark.parametrize("weights", [(0.25, 0.25, 0.5), (0.5, 0.0, 0.5), (0.125,) * 8, (1.0,), (0.3, 0.3, 0.4)])
def test_photon_number_draw_on_and_below_every_cdf_entry(weights):
    # dyadic entries sit on bucket edges; 0.3 and 0.6 fall inside buckets that are searched
    _check_photon_number_draw(np.array(weights), 10_000, 62)


def _reference_simulation(plan):
    """``simulate_tags`` drawn through ``rng.choice``, ``normal + exponential`` per event and a search in each row
    of the ``occupied_law`` CDF, in that order: K comes from a copy of the generator advanced past the arrival
    draws.  Per source: (mixture, n, K, trigger, edge)."""
    out = []
    for n_bar in plan.n_bar_values:
        fp = FixedParams.from_budget(plan.budget, plan.detector.mu_infinity, n_bar)
        mix = mixture_from_params(fp, (plan.detector.delta_mu, plan.budget.sigma_int, plan.budget.tau))
        bits = int(np.float64(n_bar).view(np.uint64))
        pieces = []
        for index, start in enumerate(range(0, plan.events_per_source, _CHUNK_EVENTS)):
            count = min(_CHUNK_EVENTS, plan.events_per_source - start)
            rng = np.random.default_rng(np.random.SeedSequence((plan.seed, bits, index)))
            ns = rng.choice(np.arange(1, mix.n_max + 1), size=count, p=mix.weights)
            ks = ns.copy()
            if plan.merge_model is MergeModel.OCCUPIED_ELEMENTS:
                after = copy.deepcopy(rng)
                after.normal(size=count)
                after.exponential(size=count)
                law = occupied_law(int(ns.max()), plan.detector.grid.element_count)
                u = after.random(count)
                for n in np.unique(ns):
                    cdf = law[n].cumsum()
                    cdf /= cdf[-1]
                    at = ns == n
                    ks[at] = np.searchsorted(cdf, u[at], side="right")
            arrivals = rng.normal(mix.mu[ks - 1], mix.sigma[ks - 1]) + rng.exponential(mix.tau[ks - 1])
            trigger = (start + np.arange(count, dtype=np.float64)) * TRIGGER_PERIOD_PS
            pieces.append((ns, ks, trigger, trigger + arrivals))
        out.append((mix, *(np.concatenate(column) for column in zip(*pieces))))
    return out


@pytest.mark.parametrize(("merge", "alpha"), [pytest.param("off", 0.5, id="off"),
                                              pytest.param("occupied_elements", 0.5, id="occupied_elements"),
                                              pytest.param("off", 0.4, id="off-exponent_0.4")])
def test_simulation_matches_the_reference_draws_bit_for_bit(make_plan, simulate_with_draws, merge, alpha):
    # n_bar 0.5 fills one chunk and part of a second; 7.0 spans two chunks
    plan = make_plan([0.5, 7.0], _CHUNK_EVENTS + 50_000, merge=merge, seed=17)
    plan = dataclasses.replace(plan, budget=dataclasses.replace(plan.budget, rise_scaling_exponent=alpha))
    for (tags, n, k), (mix, ns, ks, trigger, edge) in zip(simulate_with_draws(plan), _reference_simulation(plan),
                                                          strict=True):
        # the simulator draws from the arrays that fit and sweep evaluate
        for got, ref in zip(dataclasses.astuple(tags.mixture), dataclasses.astuple(mix), strict=True):
            assert np.array_equal(got, ref)
        for got, ref in ((n, ns), (k, ks), (tags.trigger_ps, trigger), (tags.edge_ps, edge)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_merged_and_unmerged_twins_share_every_draw_but_k(make_plan, simulate_with_draws):
    # two chunks; at n_bar 6 on 24 elements about half the events have K < n
    events = _CHUNK_EVENTS + 50_000
    ((off, off_n, _),) = simulate_with_draws(make_plan([6.0], events, merge="off", seed=23))
    ((on, on_n, on_k),) = simulate_with_draws(make_plan([6.0], events, merge="occupied_elements", seed=23))
    assert np.array_equal(on_n, off_n)
    same = on_k == on_n
    assert 0.2 < same.mean() < 0.8
    assert np.array_equal(on.edge_ps == off.edge_ps, same)


def test_trigger_comb_is_exact(make_plan, tmp_path):
    plan = make_plan([1.0], 2500, seed=1)
    (tags,) = simulate_tags(plan)
    want = np.arange(2500, dtype=np.float64) * TRIGGER_PERIOD_PS
    assert np.array_equal(tags.trigger_ps, want)
    assert TRIGGER_PERIOD_PS == pytest.approx(1e12 / 9500.0, rel=1e-15)
    # sources of several chunks share one read-only comb, whose values the former per-chunk
    # comb (start + arange(count)) * P had, so the tag CSV is the one those triggers wrote
    events = _CHUNK_EVENTS + 50_000
    plan = make_plan([1.0, 7.0], events, seed=1)
    a, b = simulate_tags(plan)
    want = np.arange(events, dtype=np.float64) * TRIGGER_PERIOD_PS
    for st in (a, b):
        assert st.trigger_ps.dtype == want.dtype and np.array_equal(st.trigger_ps, want)
    assert a.trigger_ps is b.trigger_ps
    assert not a.trigger_ps.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        a.trigger_ps[0] = 1.0
    _, _, _, trigger, edge = _reference_simulation(dataclasses.replace(plan, n_bar_values=(1.0,)))[0]
    write_time_tags(tmp_path / "tags.csv", a)
    write_time_tags(tmp_path / "reference.csv", TimeTagTable(trigger, edge, 1.0))
    assert (tmp_path / "tags.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_duplicate_sources_get_identical_streams(make_plan):
    plan = make_plan([2.0, 2.0], 30_000, seed=5)
    a, b = simulate_tags(plan)
    assert np.array_equal(a.edge_ps, b.edge_ps)
    assert np.array_equal(a.trigger_ps, b.trigger_ps)


def test_seed_and_nbar_change_streams(make_plan):
    (a,) = simulate_tags(make_plan([2.0], 10_000, seed=5))
    (b,) = simulate_tags(make_plan([2.0], 10_000, seed=6))
    (c,) = simulate_tags(make_plan([3.0], 10_000, seed=5))
    assert not np.array_equal(a.edge_ps, b.edge_ps)
    assert not np.array_equal(a.edge_ps, c.edge_ps)


def test_merge_reduces_effective_number_and_delays_edges(make_plan, simulate_with_draws):
    n_bar = 10.0
    ((off, off_n, off_k),) = simulate_with_draws(make_plan([n_bar], 100_000, merge="off", seed=21))
    ((on, on_n, on_k),) = simulate_with_draws(make_plan([n_bar], 100_000, merge="occupied_elements", seed=21))
    assert np.array_equal(off_k, off_n)
    assert np.all(on_k <= on_n)
    assert np.all(on_k >= 1)
    assert (on_k < on_n).mean() > 0.5
    # fewer effective domains mean a larger mean delay
    assert on.delta_ps.mean() > off.delta_ps.mean() + 1.0


def test_write_and_read_round_trip_bit_exact(make_plan, tmp_path):
    plan = make_plan([1.0, 4.0], 5000, seed=9)
    for i, st in enumerate(simulate_tags(plan)):
        path = tmp_path / f"tags_{i:03d}.csv"
        write_time_tags(path, st)
        table = read_time_tags(path)
        assert table.n_bar == st.n_bar
        assert np.array_equal(table.trigger_ps, st.trigger_ps)
        assert np.array_equal(table.edge_ps, st.edge_ps)
        assert np.array_equal(table.delta_ps, st.delta_ps)


def test_sweep_width_matches_analytic_curve(make_plan):
    plan = make_plan([1.0, 2.0, 5.0], 150_000, seed=2)
    rows = sweep_total_width(plan, bin_width=2.0)
    for row in rows:
        assert row.sigma_error > 0.0
        assert abs(row.sigma_hist - row.sigma_model) < 4.0 * row.sigma_error
    # the analytic curve rises from n_bar=1 to 2 before falling toward the floor
    assert rows[1].sigma_model > rows[0].sigma_model
    assert rows[2].sigma_model < rows[1].sigma_model


def test_sweep_model_follows_the_budget_exponent(make_plan, ref_budget):
    # the exponent has one home, the budget: simulated and analytic widths both follow it
    budget = dataclasses.replace(ref_budget, rise_scaling_exponent=0.4)
    plan = dataclasses.replace(make_plan([1.0, 3.0, 10.0], 200_000, seed=42), budget=budget)
    for row in sweep_total_width(plan, bin_width=2.0):
        assert row.sigma_error > 0.0
        assert abs(row.sigma_hist - row.sigma_model) < 3.0 * row.sigma_error


def test_merged_sweep_width_matches_merged_mixture(make_plan, ref_detector, ref_budget):
    plan = make_plan([1.0, 5.0, 20.0], 200_000, merge="occupied_elements", seed=8)
    m = ref_detector.grid.element_count
    for row in sweep_total_width(plan, bin_width=2.0):
        fp = FixedParams.from_budget(ref_budget, ref_detector.mu_infinity, row.n_bar)
        mix = mixture_from_params(fp, (ref_detector.delta_mu, ref_budget.sigma_int, ref_budget.tau))
        merged_weights = mix.weights @ occupied_law(mix.n_max, m)[1:, 1:]  # w'_k = sum_n w_n P(k | n)
        k = merged_weights.size
        merged = MixtureModel(merged_weights, mix.mu[:k], mix.sigma[:k], mix.tau[:k])
        _, width = mixture_moments(merged)
        binned = math.sqrt(width**2 + 2.0**2 / 12.0)  # Sheppard's correction for 2 ps bins
        assert row.sigma_error > 0.0
        assert abs(row.sigma_hist - binned) < 3.0 * row.sigma_error, (row, binned)


def test_sweep_is_reproducible(make_plan):
    plan = make_plan([1.5], 40_000, seed=4)
    a = sweep_total_width(plan)
    b = sweep_total_width(plan)
    assert a == b


@pytest.mark.parametrize("merge", ["off", "occupied_elements"])
def test_sweep_rows_are_those_of_the_simulated_sources(make_plan, merge):
    # a full and a partial chunk per source and a repeated n_bar: the reused chunk buffers carry nothing
    # from one chunk or source to the next, whether a call simulates one source or all of them
    plan = make_plan([1.0, 6.0, 1.0], _CHUNK_EVENTS + 50_001, merge=merge, seed=9)
    rows = sweep_total_width(plan, bin_width=2.0)
    for row, st in zip(rows, simulate_tags(plan), strict=True):
        sigma_hist, sigma_error = total_width(ArrivalHistogram.from_events(st.delta_ps, 2.0))
        _, sigma_model = mixture_moments(st.mixture)
        assert dataclasses.astuple(row) == (st.n_bar, sigma_hist, sigma_error, sigma_model)
    assert rows[0] == rows[2]


@pytest.mark.parametrize("width", [0.0, -2.0, math.nan, math.inf])
def test_sweep_rejects_a_bin_width_before_drawing(make_plan, monkeypatch, width):
    def no_draws(plan):
        raise AssertionError("a source was simulated")

    monkeypatch.setattr(snspd_pnr.sim, "simulate_tags", no_draws)
    with pytest.raises(ValueError, match=f"^bin_width: must be positive and finite, got {width}$"):
        sweep_total_width(make_plan([1.0, 2.0], 1000), bin_width=width)


def test_plan_validation(ref_detector, ref_budget, make_plan):
    with pytest.raises(ValueError, match="grid"):
        SimPlan(
            detector=dataclasses.replace(ref_detector, grid=None),
            budget=ref_budget,
            n_bar_values=[1.0],
            events_per_source=100,
            merge_model="occupied_elements",
        )
    with pytest.raises(ValueError):
        make_plan([], 100)
    with pytest.raises(ValueError):
        make_plan([0.0], 100)
    with pytest.raises(ValueError):
        make_plan([1.0], 0)
    with pytest.raises(ValueError):
        make_plan([1.0], 100, merge="bogus")
    with pytest.raises(ValueError):
        make_plan([1.0], 100, seed=-1)


def test_plan_seed_rejection_starts_with_the_field_name(ref_detector, ref_budget):
    # the other fields' messages are checked against load_config in test_config
    with pytest.raises(ValueError, match=r"^seed: must be a 64-bit unsigned integer$"):
        SimPlan(ref_detector, ref_budget, [1.0], 100, seed=2**64)
