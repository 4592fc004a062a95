"""The benchmark's checks have teeth, and its reference model and names hold.

    python -m pytest -q benchmarks

Each check passes on an output made from the reference model and fails on
the same output with one thing wrong: θ moved by 1%, one expected count
perturbed, a width taken from the merge-off law, a spread from the wrong
estimator, errors off by a factor two, or a NaN.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import reference as ref
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EVENTS = 570_000
EDGES = 170.0 + 2.0 * np.arange(176)


@pytest.fixture(scope="module")
def fit_output():
    """Counts drawn from the reference at the true θ, and its expected column."""
    p = ref.bin_masses(ref.Model(), 3.0, EDGES)
    counts = np.random.default_rng(5).multinomial(EVENTS, p / p.sum()).astype(np.float64)
    return counts, counts.sum() * p


def test_expected_check_passes_on_reference(fit_output):
    counts, expected = fit_output
    assert checks.check_expected(checks.TRUE_THETA, 3.0, EDGES, counts, expected) == []


@pytest.mark.parametrize("which", range(3))
def test_expected_check_fails_with_theta_moved_one_percent(fit_output, which):
    counts, expected = fit_output
    theta = list(checks.TRUE_THETA)
    theta[which] *= 1.01
    assert checks.check_theta(theta) == []  # within the recovery tolerance, so only this check can see it
    assert checks.check_expected(theta, 3.0, EDGES, counts, expected)


def test_expected_check_fails_with_one_count_perturbed(fit_output):
    counts, expected = fit_output
    bad = expected.copy()
    bad[int(np.argmax(bad))] += 2.0 * EVENTS * checks.TRUNCATION_TAIL_MASS
    assert checks.check_expected(checks.TRUE_THETA, 3.0, EDGES, counts, bad)


def test_deviance_check(fit_output):
    counts, expected = fit_output
    assert checks.check_deviance(counts, expected) == []
    shifted = counts.sum() * ref.bin_masses(ref.Model().with_theta((289.0 * 1.01, 6.0, 6.0)), 3.0, EDGES)
    assert checks.check_deviance(counts, shifted)


def test_theta_check():
    assert checks.check_theta(checks.TRUE_THETA) == []
    assert checks.check_theta((289.0 * 1.03, 6.0, 6.0))
    assert checks.check_theta((289.0, 6.0 * 0.85, 6.0))
    assert checks.check_theta((289.0, 6.0, math.nan))


def test_bootstrap_check():
    cr = ref.cramer_rao_errors(ref.Model(), 3.0, EDGES, EVENTS)
    assert checks.check_bootstrap([float(v) for v in 1.1 * cr], cr) == []
    assert checks.check_bootstrap([float(v) for v in 2.0 * cr], cr)
    assert checks.check_bootstrap([float(v) for v in 0.5 * cr], cr)
    assert checks.check_bootstrap([math.nan, float(cr[1]), float(cr[2])], cr)
    assert checks.check_bootstrap(None, cr)


def _sweep_rows(width_of, err=0.08, z=1.0):
    model = ref.Model()
    return [{"n_bar": n, "sigma_hist_ps": width_of(model, n) + z * err, "sigma_err_ps": err,
             "sigma_model_ps": ref.width_unmerged(model, n)} for n in workloads.SWEEP_N_BAR]


@pytest.fixture(scope="module")
def sweep_refs():
    model = ref.Model()
    merged = {n: ref.binned_width(ref.width_merged(model, n, workloads.ELEMENTS), 2.0)
              for n in workloads.SWEEP_N_BAR}
    unmerged = {n: ref.width_unmerged(model, n) for n in workloads.SWEEP_N_BAR}
    return merged, unmerged


def test_sweep_check_passes_on_merged_widths(sweep_refs):
    rows = _sweep_rows(lambda m, n: ref.binned_width(ref.width_merged(m, n, workloads.ELEMENTS), 2.0))
    assert checks.check_sweep(rows, *sweep_refs) == []


def test_sweep_check_fails_on_merge_off_widths(sweep_refs):
    rows = _sweep_rows(lambda m, n: ref.binned_width(ref.width_unmerged(m, n), 2.0), z=0.0)
    assert checks.check_sweep(rows, *sweep_refs)


def test_sweep_check_fails_on_model_column_off(sweep_refs):
    rows = _sweep_rows(lambda m, n: ref.binned_width(ref.width_merged(m, n, workloads.ELEMENTS), 2.0))
    rows[7]["sigma_model_ps"] *= 1.0 + 1e-7
    assert checks.check_sweep(rows, *sweep_refs)


def _geom_rows(spread, se=0.02):
    return [{"n": n, "sigma_ps": spread(n) + 0.5 * se, "bootstrap_se_ps": se} for n in workloads.GEOM_N]


def test_geom_check():
    exact = lambda n: ref.midrange_spread(200.0, 6.0, n)  # noqa: E731
    assert checks.check_geom(_geom_rows(exact), 200.0, 6.0, workloads.GEOM_N) == []
    mean_estimator = lambda n: 200.0 / 6.0 / math.sqrt(12.0 * n)  # noqa: E731
    assert checks.check_geom(_geom_rows(mean_estimator), 200.0, 6.0, workloads.GEOM_N)
    assert checks.check_geom(_geom_rows(exact, se=math.nan), 200.0, 6.0, workloads.GEOM_N)


def test_strict_json_rejects_nan():
    assert checks.strict_json('{"a": 1.5}') == {"a": 1.5}
    with pytest.raises(ValueError):
        checks.strict_json('{"a": NaN}')


def test_occupied_law_matches_enumeration():
    law = ref.occupied_law(5, 3)
    for n in range(1, 6):
        seen = np.zeros(3)
        for ids in itertools.product(range(3), repeat=n):
            seen[len(set(ids)) - 1] += 1
        np.testing.assert_allclose(law[n - 1], seen / 3**n, rtol=1e-15)


def test_midrange_spread_closed_forms_and_monte_carlo():
    assert ref.midrange_spread(200.0, 6.0, 1) == pytest.approx(200.0 / 6.0 / math.sqrt(12.0), rel=1e-15)
    assert ref.midrange_spread(200.0, 6.0, 2) == pytest.approx(200.0 / 6.0 / math.sqrt(24.0), rel=1e-15)
    x = np.random.default_rng(3).uniform(0.0, 1.0, size=(400_000, 5))
    mc = ((x.min(axis=1) + x.max(axis=1)) / 2.0).std()
    assert mc == pytest.approx(ref.midrange_spread(1.0, 1.0, 5), rel=5e-3)


def test_reference_masses_and_width_agree_with_sampling():
    model = ref.Model()
    edges = 100.0 + 2.0 * np.arange(300)
    assert ref.bin_masses(model, 3.0, edges).sum() == pytest.approx(1.0, abs=1e-12)
    trigger, edge = ref.sample_tags(model, 3.0, 200_000, seed=11)
    assert (edge - trigger).std() == pytest.approx(ref.width_unmerged(model, 3.0), rel=1e-2)


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: v[0] for k, v in layers.METRICS.items()}
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "round_s", "peak_rss_mb"]
    sys.path.insert(0, str(HERE))
    import run

    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_every_traced_function_exists_in_the_package():
    sys.path.insert(0, str(ROOT / "src"))
    import snspd_pnr.cli  # noqa: F401
    import snspd_pnr.fit
    from spans import Tracer

    original = snspd_pnr.fit.mixture_bin_masses
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        from snspd_pnr.fit import FixedParams, predict_histogram
        from snspd_pnr.histogram import ArrivalHistogram

        fp = FixedParams(3.0, 1.0, 4.9, 1.08, 9.0, 144.0, 3.0)
        hist = ArrivalHistogram(EDGES, np.zeros(EDGES.size - 1, dtype=np.int64), 0)
        predict_histogram(fp, checks.TRUE_THETA, hist)
    finally:
        tracer.uninstall()
    assert snspd_pnr.fit.mixture_bin_masses is original
    assert [(s[2], s[1]) for s in tracer.spans] == [
        ("fit.mixture_from_params", -1), ("dist.conditioned_poisson_weights", 0), ("dist.mixture_bin_masses", -1)]
    n_max = 18  # components of the n_bar = 3 mixture at the 1e-9 tail mass
    assert {name: calls[0] for name, calls in tracer.counts.items()} == {
        "budget.mu_scaling": n_max, "budget.sigma_total": n_max, "budget.tau_at": n_max}
    own = tracer.self_time()
    assert 0.0 <= own[0] < tracer.spans[0][4] - tracer.spans[0][3]
