"""Acceptance scorecard: one test per release criterion, eight in total.

Each test prints a single CRITERION line carrying the measured numbers behind
its verdict; run ``pytest -s tests/test_acceptance.py`` to see all of them
(pytest shows the lines for failing tests either way).

Criterion 6 checks the shape of the width-vs-n_bar curve against the one the
mixture model predicts, not a monotone decrease.  The total width (law of
total variance of the conditioned Poisson mixture) first rises: at small
n_bar the two-photon peak, about 85 ps from the one-photon peak, gains
weight faster than the individual peaks narrow, so the analytic width goes
from 51.7 ps at n_bar = 1 to a single maximum of 58.1 ps near n_bar = 2.06
before it falls toward the n-independent floor.  The shape clause locates
the peak from the analytic column and demands that (1) the analytic widths
rise strictly up to that peak and fall strictly after it, (2) every step of
the simulated widths has the sign of the analytic step, and (3) the
simulated width decreases strictly from the analytic peak to n_bar = 20.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import integrate, stats

from snspd_pnr import (
    ArrivalHistogram,
    ElementGrid,
    EmgParams,
    SimPlan,
    emg_pdf,
    fit_histogram,
    fit_single_peak,
    geom_histogram,
    geom_mc,
    geom_sigma_analytic,
    mixture_from_params,
    mixture_moments,
    mu_scaling,
    occupied_element_counts,
    overlap_approx,
    overlap_exact,
    sigma_noise,
    simulate_tags,
    sweep_total_width,
    threshold_crossing,
)
from snspd_pnr.cli import main as cli_main


def _verdict(num: int, label: str, ok: bool, detail: str) -> bool:
    state = "PASS" if ok else "FAIL"
    print(f"CRITERION {num} ({label}): {state} :: {detail}")
    return ok


def test_criterion_1_emg_normalization_and_moments():
    mus = (-1000.0, -3.0, 0.0, 6.0, 433.0)
    sigmas = (0.25, 1.0, 3.0, 9.2, 27.0)
    taus = (0.4, 2.0, 6.0, 18.0, 54.0)
    grid = [(mus[(i + j) % 5], sigmas[i], taus[j]) for i in range(5) for j in range(5)]
    assert len(grid) == 25

    t0 = time.perf_counter()
    worst_mass = worst_mean = worst_var = 0.0
    for mu, sigma, tau in grid:
        p = EmgParams(mu=mu, sigma=sigma, tau=tau)
        # 14 sigma Gaussian left tail and 45 tau exponential right tail both
        # carry < 1e-19 mass, far below the 1e-8 normalization tolerance.
        lo, hi = mu - 14.0 * sigma, mu + 14.0 * sigma + 45.0 * tau
        kw = dict(limit=300, epsabs=1e-13, epsrel=1e-13)
        mass, _ = integrate.quad(lambda t: emg_pdf(p, t), lo, hi, **kw)
        mean, _ = integrate.quad(lambda t: t * emg_pdf(p, t), lo, hi, **kw)
        second, _ = integrate.quad(lambda t: t * t * emg_pdf(p, t), lo, hi, **kw)
        var = second - mean * mean
        worst_mass = max(worst_mass, abs(mass - 1.0))
        worst_mean = max(worst_mean, abs(mean - (mu + tau)) / abs(mu + tau))
        worst_var = max(worst_var, abs(var - (sigma**2 + tau**2)) / (sigma**2 + tau**2))
    elapsed = time.perf_counter() - t0

    ok = worst_mass < 1e-8 and worst_mean < 1e-6 and worst_var < 1e-6 and elapsed < 10.0
    assert _verdict(
        1,
        "emg normalization and moments",
        ok,
        f"25 points: max |mass-1|={worst_mass:.2e} (<1e-8), "
        f"max rel mean err={worst_mean:.2e}, max rel var err={worst_var:.2e} "
        f"(<1e-6), elapsed={elapsed:.1f}s (<10s)",
    )


def test_criterion_2_geometric_jitter(ref_wire):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    res = geom_mc(ref_wire, (1, 2), 1_000_000, rng)
    (_, s1, se1), (_, s2, se2) = res.per_n_std
    a1 = geom_sigma_analytic(ref_wire, 1)
    a2 = geom_sigma_analytic(ref_wire, 2)
    sigma_ok = (
        abs(s1 - a1) < 3.0 * se1
        and abs(s2 - a2) < 3.0 * se2
        and se1 / a1 < 0.01
        and se2 / a2 < 0.01
    )

    h1 = geom_histogram(ref_wire, 1, 1_000_000, 20, rng)
    h2 = geom_histogram(ref_wire, 2, 1_000_000, 20, rng)
    h3 = geom_histogram(ref_wire, 5, 1_000_000, 21, rng)
    flat_ok = h1.counts.max() / h1.counts.min() < 1.08
    mid = h2.counts[8:12].mean()
    edge = (h2.counts[:2].sum() + h2.counts[-2:].sum()) / 4.0
    tri_ok = mid > 1.5 * edge
    peak_ok = 7 <= int(np.argmax(h3.counts)) <= 13

    res10 = geom_mc(ref_wire, range(1, 11), 200_000, rng, bootstrap_resamples=50)
    expo = res10.fitted_exponent
    expo_ok = 0.5 <= expo <= 0.9
    elapsed = time.perf_counter() - t0

    ok = sigma_ok and flat_ok and tri_ok and peak_ok and expo_ok and elapsed < 60.0
    assert _verdict(
        2,
        "geometric jitter",
        ok,
        f"sigma1={s1:.4f} (target {a1:.4f}, se={se1:.4f}), "
        f"sigma2={s2:.4f} (target {a2:.4f}, se={se2:.4f}), "
        f"shapes flat/triangular/peaked={flat_ok}/{tri_ok}/{peak_ok}, "
        f"exponent={expo:.4f} in [0.5, 0.9] "
        f"(deviation from 0.75 = {expo - 0.75:+.4f}, informational), "
        f"elapsed={elapsed:.1f}s (<60s)",
    )


def test_criterion_3_overlap_probabilities():
    t0 = time.perf_counter()
    g10 = ElementGrid(10)
    exact_ok = overlap_exact(g10, 2) == 0.1
    approx = overlap_approx(g10, 2)
    approx_ok = abs(approx - 0.09516) < 1e-5

    dominance_ok = True
    for m in (2, 3, 4, 6, 8, 10, 16, 24, 48, 96):
        grid = ElementGrid(m)
        for n in range(1, 11):
            if overlap_exact(grid, n) < overlap_approx(grid, n):
                dominance_ok = False

    rng = np.random.default_rng(31)
    counts = occupied_element_counts(g10, np.full(1_000_000, 2), rng)
    frac = float(np.mean(counts < 2))
    se = math.sqrt(0.1 * 0.9 / 1_000_000)
    mc_ok = abs(frac - 0.1) < 3.0 * se
    elapsed = time.perf_counter() - t0

    ok = exact_ok and approx_ok and dominance_ok and mc_ok and elapsed < 30.0
    assert _verdict(
        3,
        "element overlap",
        ok,
        f"exact(10,2)==0.1: {exact_ok}, approx={approx:.7f} (|diff|"
        f"={abs(approx - 0.09516):.1e} < 1e-5), exact>=approx on 100-point "
        f"grid: {dominance_ok}, MC overlap frac={frac:.5f} "
        f"(|diff|={abs(frac - 0.1):.1e} < {3 * se:.1e}), "
        f"elapsed={elapsed:.1f}s (<30s)",
    )


def test_criterion_4_scaling_laws(ref_detector, ref_budget):
    mu_err = max(
        abs(mu_scaling(ref_detector.mu_infinity, ref_detector.delta_mu, 1) - 433.0),
        abs(mu_scaling(ref_detector.mu_infinity, ref_detector.delta_mu, 2) - 348.35),
        abs(mu_scaling(ref_detector.mu_infinity, ref_detector.delta_mu, 3) - 310.86),
    )
    mu_ok = mu_err < 0.01

    noise1 = sigma_noise(ref_budget, 1)
    noise_ok = abs(noise1 - 4.537) < 5e-4

    prods = np.array([threshold_crossing(ref_detector, n) * math.sqrt(n) for n in range(1, 31)])
    spread = float(np.ptp(prods) / prods[0])
    const_ok = spread < 1e-12

    ok = mu_ok and noise_ok and const_ok
    assert _verdict(
        4,
        "photon-number scaling laws",
        ok,
        f"mu_n max err={mu_err:.5f} ps (<0.01), sigma_noise(1)={noise1:.6f} "
        f"(target 4.537), threshold*sqrt(n) rel spread={spread:.1e} (<1e-12)",
    )


def test_criterion_5_round_trip_fit(ref_detector, ref_budget, make_fixed_params):
    fp = make_fixed_params(n_bar=3.0)
    successes = 0
    lines = []
    worst_fit_time = 0.0
    for seed in range(2026, 2036):
        plan = SimPlan(ref_detector, ref_budget, (3.0,), 570_000, seed=seed)
        st = simulate_tags(plan)[0]
        hist = ArrivalHistogram.from_events(st.delta_ps, 2.0, 3.0)
        t0 = time.perf_counter()
        fit = fit_histogram(hist, fp)
        dt = time.perf_counter() - t0
        worst_fit_time = max(worst_fit_time, dt)
        good = (
            fit.converged
            and abs(fit.delta_mu - 289.0) / 289.0 <= 0.02
            and abs(fit.sigma_int - 6.0) / 6.0 <= 0.10
            and abs(fit.tau - 6.0) / 6.0 <= 0.10
            and dt < 300.0
        )
        successes += good
        lines.append(
            f"seed {seed}: dmu={fit.delta_mu:.2f} sig={fit.sigma_int:.2f} "
            f"tau={fit.tau:.2f} conv={fit.converged} {dt:.1f}s {'ok' if good else 'BAD'}"
        )

    ok = successes >= 9
    assert _verdict(
        5,
        "round-trip fit",
        ok,
        f"{successes}/10 seeds recover (dmu within 2%, sigma/tau within 10%, "
        f"converged), slowest fit {worst_fit_time:.1f}s (<300s); " + "; ".join(lines),
    )


def test_criterion_6_width_vs_n_bar_sweep(ref_detector, ref_budget, make_fixed_params):
    plan = SimPlan(
        ref_detector,
        ref_budget,
        tuple(float(v) for v in range(1, 21)),
        200_000,
        seed=777,
    )
    rows = sweep_total_width(plan, bin_width=2.0)

    widths = np.array([r.sigma_hist for r in rows])
    model = np.array([r.sigma_model for r in rows])
    peak = int(np.argmax(model))
    model_rise, model_fall = np.diff(model[: peak + 1]), np.diff(model[peak:])
    unimodal_ok = bool(np.all(model_rise > 0.0) and np.all(model_fall < 0.0))
    signs_ok = bool(np.array_equal(np.sign(np.diff(widths)), np.sign(np.diff(model))))
    fall_ok = bool(np.all(np.diff(widths[peak:]) < 0.0))
    shape_ok = unimodal_ok and signs_ok and fall_ok
    agree_ok = all(abs(r.sigma_hist - r.sigma_model) < 3.0 * r.sigma_error for r in rows)

    fp = make_fixed_params(n_bar=500.0)
    _, limit_width = mixture_moments(mixture_from_params(fp, (289.0, 6.0, 6.0)))
    floor = math.sqrt(3.0**2 + 1.0**2 + 6.0**2 + 6.0**2)
    limit_ok = abs(limit_width - floor) / floor < 0.05

    for r in rows:
        print(
            f"  n_bar={r.n_bar:4.1f} sim={r.sigma_hist:7.3f} "
            f"model={r.sigma_model:7.3f} err={r.sigma_error:.3f}"
        )
    ok = shape_ok and agree_ok and limit_ok
    assert _verdict(
        6,
        "width vs n_bar sweep",
        ok,
        f"analytic peak at n_bar={rows[peak].n_bar:.1f} ({model[peak]:.2f} ps); "
        f"analytic rise-then-fall: {unimodal_ok}; simulated steps follow "
        f"analytic signs: {signs_ok}; simulated strict decrease from peak to "
        f"n_bar={rows[-1].n_bar:.1f}: {fall_ok}; "
        f"within 3 standard errors of analytic curve: {agree_ok}; "
        f"limit at n_bar=500 {limit_width:.3f} vs floor {floor:.3f} "
        f"within 5%: {limit_ok}",
    )


def test_criterion_7_one_photon_peak_drift(ref_detector, ref_budget):
    det = dataclasses.replace(ref_detector, grid=ElementGrid(20))
    plan = SimPlan(
        det,
        ref_budget,
        tuple(float(v) for v in range(1, 14)),
        4_000_000,
        merge_model="occupied_elements",
        seed=2026,
    )
    tags = simulate_tags(plan)
    mus = []
    for st in tags:
        hist = ArrivalHistogram.from_events(st.delta_ps, 2.0, st.n_bar)
        peak = fit_single_peak(hist, (376.0, 520.0))
        assert peak.converged
        mus.append(peak.params.mu)

    # one-sided Mann-Kendall trend test for a decreasing sequence
    tau, p_two = stats.kendalltau(np.arange(1, 14), mus)
    p_one = p_two / 2.0 if tau < 0.0 else 1.0 - p_two / 2.0
    drift = mus[0] - mus[-1]
    ok = tau < 0.0 and p_one < 0.01
    assert _verdict(
        7,
        "one-photon peak drift under merging",
        ok,
        f"fitted mu_1 for n_bar=1..13: "
        + " ".join(f"{m:.2f}" for m in mus)
        + f"; net drift {drift:+.2f} ps earlier, kendall tau={tau:.3f}, "
        f"one-sided p={p_one:.2e} (<0.01)",
    )


def test_criterion_8_byte_identical_reruns(tmp_path):
    runner = CliRunner()
    config = {
        "seed": 99,
        "detector": {
            "kinetic_inductance": 500.0,
            "amplitude": 100.0,
            "noise_floor": 10.0,
            "delta_mu": 289.0,
            "mu_infinity": 144.0,
            "rise_time_1": 300.0,
            "wire": {"length": 200.0, "signal_velocity": 6.0, "ground_velocity": 140.0},
            "grid": {"element_count": 24},
        },
        "budget": {
            "sigma_inst": 3.0,
            "sigma_opt": 1.0,
            "sigma_int": 6.0,
            "tau": 6.0,
            "sigma_elec": 4.9,
            "slew_rate_1": 1.08,
            "sigma_geom_1": 9.0,
        },
        "sim": {"n_bar_values": [1.0], "events_per_source": 450_000},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))

    def artifacts(directory):
        return {
            p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
        }

    def run(args):
        result = runner.invoke(cli_main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result.output

    # simulate: three chunks per source, each seeded from its own index
    sim1, sim2 = tmp_path / "s1", tmp_path / "s2"
    run(["simulate", "-c", str(cfg), "-o", str(sim1)])
    run(["simulate", "-c", str(cfg), "-o", str(sim2)])
    sim_ok = artifacts(sim1) == artifacts(sim2)

    fit1, fit2 = tmp_path / "f1", tmp_path / "f2"
    tag_file = str(sim1 / "tags_000.csv")
    for out in (fit1, fit2):
        run(
            ["fit", tag_file, "-c", str(cfg), "-o", str(out),
             "--bootstrap", "50", "--seed", "5", "--svg"]
        )
    fit_ok = artifacts(fit1) == artifacts(fit2)

    geo1, geo2 = tmp_path / "g1", tmp_path / "g2"
    for out in (geo1, geo2):
        run(
            ["geom", "--length", "200um", "--signal-velocity", "6",
             "--ground-velocity", "140", "--n-values", "1,2",
             "--samples", "20000", "--bootstrap", "50",
             "--seed", "3", "-o", str(out)]
        )
    geom_ok = artifacts(geo1) == artifacts(geo2)

    over_a = run(["overlap", "--elements", "10", "--max-photons", "6"])
    over_b = run(["overlap", "--elements", "10", "--max-photons", "6"])
    pulse_args = ["pulse", "--kinetic-inductance", "500nH", "--amplitude", "100mV",
                  "--noise-floor", "10mV", "--rise-time", "300ps"]
    pulse_a = run(pulse_args)
    pulse_b = run(pulse_args)
    stdout_ok = over_a == over_b and pulse_a == pulse_b

    sweep_cfg = tmp_path / "sweep.json"
    config["sim"] = {"n_bar_values": [1.0, 2.0, 3.0], "events_per_source": 50_000}
    sweep_cfg.write_text(json.dumps(config))
    sw1, sw2 = tmp_path / "w1", tmp_path / "w2"
    run(["sweep", "-c", str(sweep_cfg), "-o", str(sw1), "--svg"])
    run(["sweep", "-c", str(sweep_cfg), "-o", str(sw2), "--svg"])
    sweep_ok = artifacts(sw1) == artifacts(sw2)

    ok = sim_ok and fit_ok and geom_ok and stdout_ok and sweep_ok
    assert _verdict(
        8,
        "byte-identical reruns",
        ok,
        f"simulate reruns={sim_ok}, fit={fit_ok}, geom={geom_ok}, "
        f"overlap/pulse stdout={stdout_ok}, sweep reruns={sweep_ok}",
    )
