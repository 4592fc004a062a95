import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import integrate, stats
from scipy.optimize import minimize

import snspd_pnr.cli
import snspd_pnr.dist
import snspd_pnr.fit
from snspd_pnr import (
    ArrivalHistogram,
    EmgParams,
    FitResult,
    FixedParams,
    JitterBudget,
    MixtureModel,
    SimPlan,
    SweepRow,
    emg_pdf,
    emg_sample,
    fit_histogram,
    fit_single_peak,
    ingest_time_tags,
    mixture_bin_masses,
    mixture_from_params,
    mu_scaling,
    predict_histogram,
    read_histogram_csv,
    read_time_tags,
    sigma_total,
    simulate_tags,
    tau_at,
    total_width,
    write_histogram_csv,
    write_time_tags,
)
from snspd_pnr.fit import _poisson_nll, check_theta0
from snspd_pnr.io import TimeTagTable

TRUTH = (289.0, 6.0, 6.0)


def sample_mixture(fp: FixedParams, theta, rng: np.random.Generator, count: int) -> np.ndarray:
    mix = mixture_from_params(fp, theta)
    ks = rng.choice(mix.weights.size, size=count, p=mix.weights)
    parts = []
    for k in range(mix.weights.size):
        m = int((ks == k).sum())
        if m:
            parts.append(emg_sample(EmgParams(mix.mu[k], mix.sigma[k], mix.tau[k]), rng, m))
    return np.concatenate(parts)


@pytest.fixture(scope="module")
def fp1() -> FixedParams:
    return FixedParams(
        sigma_inst=3.0,
        sigma_opt=1.0,
        sigma_elec=4.9,
        slew_rate_1=1.08,
        sigma_geom_1=9.0,
        mu_infinity=144.0,
        n_bar=1.0,
    )


def moment_start(hist: ArrivalHistogram, fp: FixedParams):
    """The start that ``fit_histogram`` runs from, besides an explicit theta0."""
    return snspd_pnr.fit._moment_start(hist, snspd_pnr.fit._mixture_law(fp)[0], fp.mu_infinity)


@pytest.fixture(scope="module")
def rt_hist(fp1) -> ArrivalHistogram:
    rng = np.random.default_rng(2024)
    times = sample_mixture(fp1, TRUTH, rng, 150_000)
    return ArrivalHistogram.from_events(times, 2.0, fp1.n_bar)


@pytest.fixture(scope="module")
def rt_fit(rt_hist, fp1):
    return fit_histogram(rt_hist, fp1)


def benchmark_histogram(seed: int, n_bar: float = 3.0, events: int = 570_000) -> ArrivalHistogram:
    """The input of the benchmark's hist-bootstrap workload at ``seed``, bin for bin: the README
    detector and budget, Poisson weights summed far past the package's truncation, tag times
    trigger + arrival at 9.5 kHz binned as their difference in 2 ps bins."""
    n = np.arange(1, math.ceil(n_bar + 10.0 * math.sqrt(n_bar) + 30.0) + 1)
    w = stats.poisson.pmf(n, n_bar) / -math.expm1(-n_bar)
    rng = np.random.default_rng(seed)
    ns = rng.choice(n, size=events, p=w / w.sum())
    sigma = np.sqrt((4.9 / (1.08 * np.sqrt(ns))) ** 2 + 3.0**2 + 1.0**2 + (9.0 / ns**0.75) ** 2 + 6.0**2)
    arrival = rng.normal(144.0 + 289.0 / np.sqrt(ns), sigma) + rng.exponential(6.0, size=events)
    trigger = np.arange(events, dtype=np.float64) * (1e12 / 9500.0)
    delta = (trigger + arrival) - trigger
    lo, hi = math.floor(delta.min() / 2.0) * 2.0, math.ceil(delta.max() / 2.0) * 2.0
    edges = lo + 2.0 * np.arange(int(round((hi - lo) / 2.0)) + 1)
    return ArrivalHistogram(edges, np.histogram(delta, bins=edges)[0], events, n_bar)


@pytest.fixture(scope="module")
def default_fit(rt_hist, fp1):
    """(hist, fp, fit from the default start) per input and mode, each fitted once."""
    fp3 = dataclasses.replace(fp1, n_bar=3.0)
    inputs = {"rt": (rt_hist, fp1), "bench-seed-1": (benchmark_histogram(1), fp3),
              "bench-seed-2": (benchmark_histogram(2), fp3)}
    fits = {}

    def get(name: str, fit_mu_infinity: bool):
        if (name, fit_mu_infinity) not in fits:
            hist, fp = inputs[name]
            fits[name, fit_mu_infinity] = (hist, fp, fit_histogram(hist, fp, fit_mu_infinity=fit_mu_infinity))
        return fits[name, fit_mu_infinity]

    return get


def test_predicted_counts_match_quadrature(fp1):
    edges = np.arange(250.0, 551.0, 2.0)
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    counts[0] = 10_000
    hist = ArrivalHistogram(edges, counts, 10_000)
    expected = predict_histogram(fp1, TRUTH, hist)
    mix = mixture_from_params(fp1, TRUTH)
    comps = [EmgParams(*c) for c in zip(mix.mu, mix.sigma, mix.tau)]

    def pdf(t):
        return sum(w * emg_pdf(c, t) for w, c in zip(mix.weights, comps))

    for i in (0, 40, 75, 100, 149):
        q, _ = integrate.quad(pdf, edges[i], edges[i + 1])
        assert expected[i] == pytest.approx(10_000 * q, rel=1e-8)
    wide = np.linspace(0.0, 1200.0, 2)
    assert mixture_bin_masses(mix, wide)[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("alpha,geom_exponent", [(0.5, 0.75), (0.37, 1.1)])
def test_mixture_arrays_follow_the_budget_scaling_laws(make_fixed_params, alpha, geom_exponent):
    # the mixture's components are the budget's per-n laws at theta
    fp = make_fixed_params(3.0, rise_scaling_exponent=alpha, geom_exponent=geom_exponent)
    delta_mu, sigma_int, tau = 250.3, 3.7, 9.1
    mix = mixture_from_params(fp, (delta_mu, sigma_int, tau))
    b = JitterBudget(fp.sigma_inst, fp.sigma_opt, sigma_int, tau, fp.sigma_elec, fp.slew_rate_1,
                     fp.sigma_geom_1, geom_exponent, alpha)
    ns = range(1, mix.n_max + 1)
    np.testing.assert_allclose(mix.mu, [mu_scaling(fp.mu_infinity, delta_mu, n, alpha) for n in ns], rtol=1e-15)
    np.testing.assert_allclose(mix.sigma, [sigma_total(b, n) for n in ns], rtol=1e-15)
    assert np.array_equal(mix.tau, [tau_at(b, n) for n in ns])


def test_round_trip_recovers_truth(rt_fit):
    assert rt_fit.converged
    assert rt_fit.delta_mu == pytest.approx(TRUTH[0], abs=2.0)
    assert rt_fit.sigma_int == pytest.approx(TRUTH[1], abs=0.5)
    assert rt_fit.tau == pytest.approx(TRUTH[2], abs=0.5)
    assert rt_fit.bootstrap_errors is None
    assert rt_fit.covariance_proxy.shape == (3, 3)
    assert np.all(np.isfinite(rt_fit.covariance_proxy))
    assert np.all(np.diag(rt_fit.covariance_proxy) > 0.0)


def test_refit_from_optimum_is_a_fixed_point(rt_hist, fp1, rt_fit):
    theta_hat = (rt_fit.delta_mu, rt_fit.sigma_int, rt_fit.tau)
    again = fit_histogram(rt_hist, fp1, theta0=theta_hat)
    assert again.delta_mu == pytest.approx(rt_fit.delta_mu, rel=1e-8)
    assert again.sigma_int == pytest.approx(rt_fit.sigma_int, rel=1e-8)
    assert again.tau == pytest.approx(rt_fit.tau, rel=1e-8)
    assert again.negative_log_likelihood <= rt_fit.negative_log_likelihood + 1e-6


def test_translation_equivariance(rt_hist, fp1, rt_fit):
    # shifting the time axis and the fixed asymptote together must not move
    # the shape parameters; 64 ps is an exact multiple of the bin width
    shift = 64.0
    shifted = ArrivalHistogram(
        rt_hist.bin_edges + shift, rt_hist.counts, rt_hist.total_events, rt_hist.mean_photon_number
    )
    fp_shifted = FixedParams(
        sigma_inst=fp1.sigma_inst,
        sigma_opt=fp1.sigma_opt,
        sigma_elec=fp1.sigma_elec,
        slew_rate_1=fp1.slew_rate_1,
        sigma_geom_1=fp1.sigma_geom_1,
        mu_infinity=fp1.mu_infinity + shift,
        n_bar=fp1.n_bar,
    )
    res = fit_histogram(shifted, fp_shifted)
    assert res.delta_mu == pytest.approx(rt_fit.delta_mu, rel=1e-5)
    assert res.sigma_int == pytest.approx(rt_fit.sigma_int, rel=1e-5)
    assert res.tau == pytest.approx(rt_fit.tau, rel=1e-5)


@pytest.mark.parametrize("theta0", [(200.0, 4.0, 9.0), (400.0, 15.0, 2.0), (150.0, 2.0, 20.0)],
                         ids=["200-4-9", "400-15-2", "150-2-20"])
@pytest.mark.parametrize("fit_mu_infinity", [False, True], ids=["3-param", "4-param"])
@pytest.mark.parametrize("data", ["rt", "bench-seed-1"])
def test_explicit_start_reaches_same_optimum(default_fit, data, fit_mu_infinity, theta0):
    # scoring from theta0 alone ends at sigma_int -> 0 or tau -> 0 from (400, 15, 2) and
    # (150, 2, 20) on some of these inputs, and once at a local optimum near delta_mu = 51 ps
    # that meets the step tolerance; the second start, the moment start, reaches the optimum
    hist, fp, ref = default_fit(data, fit_mu_infinity)
    res = fit_histogram(hist, fp, theta0=theta0, fit_mu_infinity=fit_mu_infinity)
    assert ref.converged and res.converged
    assert res.negative_log_likelihood <= ref.negative_log_likelihood + 1e-6
    assert res.delta_mu == pytest.approx(ref.delta_mu, rel=1e-4)
    assert res.sigma_int == pytest.approx(ref.sigma_int, rel=1e-3)
    assert res.tau == pytest.approx(ref.tau, rel=1e-3)
    if fit_mu_infinity:
        assert res.mu_infinity == pytest.approx(ref.mu_infinity, rel=1e-4)


def test_tied_starts_prefer_the_converged_one(default_fit):
    # from this theta0 scoring reaches the moment start's optimum at the same NLL, bit for bit,
    # but stops there at the step cap: the converged row of the two wins the tie
    hist, fp, ref = default_fit("bench-seed-2", False)
    res = fit_histogram(hist, fp, theta0=(150.0, 2.340347, 1.0))
    assert ref.converged and res.converged
    assert res.negative_log_likelihood == ref.negative_log_likelihood
    assert (res.delta_mu, res.sigma_int, res.tau) == (ref.delta_mu, ref.sigma_int, ref.tau)


def test_four_parameter_mode_recovers_identifiable_combinations(rt_hist, fp1):
    res = fit_histogram(rt_hist, fp1, fit_mu_infinity=True)
    assert res.mu_infinity is not None
    assert res.covariance_proxy.shape == (4, 4)
    # mu_infinity and delta_mu trade off almost freely at a single n_bar; the
    # per-photon-number locations are what the data pin down
    assert res.mu_infinity + res.delta_mu == pytest.approx(433.0, abs=1.5)
    assert res.mu_infinity + res.delta_mu / math.sqrt(2.0) == pytest.approx(348.35, abs=1.5)


def central_hessian(fun, x):
    """The central-difference Hessian of ``fun`` at ``x``, with steps 1e-4 max(1, |x_k|)."""
    h = 1e-4 * np.maximum(np.abs(x), 1.0)
    e = np.diag(h)
    hess = np.empty((x.size, x.size))
    f0 = fun(x)
    for i in range(x.size):
        hess[i, i] = (fun(x + e[i]) - 2.0 * f0 + fun(x - e[i])) / h[i] ** 2
        for j in range(i + 1, x.size):
            hess[i, j] = hess[j, i] = (fun(x + e[i] + e[j]) - fun(x + e[i] - e[j])
                                       - fun(x - e[i] + e[j]) + fun(x - e[i] - e[j])) / (4.0 * h[i] * h[j])
    return hess


@pytest.mark.parametrize("fit_mu_infinity", [False, True])
def test_covariance_matches_the_curvature_of_the_objective(rt_hist, fp1, rt_fit, fit_mu_infinity):
    # standard errors of I(theta_hat)^-1 against the pseudo-inverse of a central-difference
    # Hessian of the public objective in theta
    res = fit_histogram(rt_hist, fp1, fit_mu_infinity=True) if fit_mu_infinity else rt_fit
    theta = np.array([res.delta_mu, res.sigma_int, res.tau] + ([res.mu_infinity] if fit_mu_infinity else []))

    def nll(t):
        fp = dataclasses.replace(fp1, mu_infinity=t[3]) if fit_mu_infinity else fp1
        return _poisson_nll(rt_hist.counts, predict_histogram(fp, t[:3], rt_hist))

    want = np.sqrt(np.diag(np.linalg.pinv(central_hessian(nll, theta))))
    np.testing.assert_allclose(np.sqrt(np.diag(res.covariance_proxy)), want, rtol=0.02)


def test_moment_start_is_in_the_basin(rt_hist, fp1):
    dmu0, s0, t0 = moment_start(rt_hist, fp1)
    assert dmu0 == pytest.approx(289.0, rel=0.4)
    assert 1.0 < s0 < 20.0
    assert 1.0 < t0 < 20.0


@pytest.mark.parametrize(("alpha", "delta_mu", "n_bar", "seed"), [(0.3, 289.0, 3.0, 3), (0.5, 120.0, 10.0, 1)],
                         ids=["alpha-0.3", "delta_mu-120"])
def test_fit_converges_where_peak_spacing_misleads(ref_detector, ref_budget, alpha, delta_mu, n_bar, seed):
    # sources whose two rightmost peaks are not n = 1 and n = 2 at alpha = 0.5, so no start
    # can be scaled from their spacing
    budget = dataclasses.replace(ref_budget, rise_scaling_exponent=alpha)
    plan = SimPlan(dataclasses.replace(ref_detector, delta_mu=delta_mu), budget, (n_bar,), 200_000, seed=seed)
    (st,) = simulate_tags(plan)
    hist = ArrivalHistogram.from_events(st.delta_ps, 2.0, n_bar)
    res = fit_histogram(hist, FixedParams.from_budget(budget, ref_detector.mu_infinity, n_bar))
    assert res.converged
    errors = np.sqrt(np.diag(res.covariance_proxy))
    gap = np.abs(np.array([res.delta_mu, res.sigma_int, res.tau]) - [delta_mu, budget.sigma_int, budget.tau])
    assert np.all(gap <= 3.0 * errors), (gap, errors)


def test_score_and_information_stay_finite_for_a_barely_normal_mass():
    # 1/m of a barely normal mass is 1e307, so with a Jacobian entry of 10 the
    # information term J^2/m and the score term c J/m overflow float64
    m = np.array([1e-307, 40.0, 900.0, 25.0])
    J = np.array([[10.0, -3.0, 2.0], [4.0, 1.0, -2.0], [-30.0, 8.0, 5.0], [2.0, -6.0, 1.0]])
    counts = np.array([2.0, 38.0, 910.0, 22.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        score, info = snspd_pnr.fit._score_and_information(counts, m, J)
    assert np.all(np.isfinite(score)) and np.all(np.isfinite(info))
    # the normal bins contribute what they always did; the barely normal one, like a mass
    # that underflows, only its share J of the derivative of the mass sum
    inv_m = np.array([0.0, *(1.0 / m[1:])])
    np.testing.assert_allclose(info, (J * inv_m[:, None]).T @ J, rtol=1e-15)
    np.testing.assert_allclose(score, J.T @ (1.0 - counts * inv_m), rtol=1e-15)


def test_poisson_nll_values():
    counts = np.array([0.0, 2.0, 5.0])
    expected = np.array([1.5, 2.0, 4.0])
    want = expected.sum() - (2.0 * math.log(2.0) + 5.0 * math.log(4.0))
    assert _poisson_nll(counts, expected) == pytest.approx(want, rel=1e-14)
    assert _poisson_nll(counts, np.array([1.0, 0.0, 1.0])) == math.inf
    assert math.isfinite(_poisson_nll(np.zeros(3), np.array([1.0, 0.0, 1.0])))


def test_bootstrap_errors_are_reproducible(rt_hist, fp1, rt_fit):
    theta_hat = (rt_fit.delta_mu, rt_fit.sigma_int, rt_fit.tau)
    a = fit_histogram(rt_hist, fp1, theta0=theta_hat, n_bootstrap=12, bootstrap_seed=5)
    b = fit_histogram(rt_hist, fp1, theta0=theta_hat, n_bootstrap=12, bootstrap_seed=5)
    assert a.bootstrap_errors == b.bootstrap_errors
    assert len(a.bootstrap_errors) == 3
    assert all(e > 0.0 for e in a.bootstrap_errors)
    # errors should be commensurate with the statistical scale of 150k events
    assert a.bootstrap_errors[0] < 5.0
    c = fit_histogram(rt_hist, fp1, theta0=theta_hat, n_bootstrap=12, bootstrap_seed=6)
    assert c.bootstrap_errors != a.bootstrap_errors


def test_bootstrap_reports_converged_refits(rt_hist, fp1, rt_fit):
    theta_hat = (rt_fit.delta_mu, rt_fit.sigma_int, rt_fit.tau)
    res = fit_histogram(rt_hist, fp1, theta0=theta_hat, n_bootstrap=12, bootstrap_seed=5)
    assert res.bootstrap_converged == 12
    assert rt_fit.bootstrap_converged is None


def _simplex_fit(nll, z0, counts):
    return minimize(nll, z0, args=(counts,), method="Nelder-Mead",
                    options={"xatol": 1e-10, "fatol": 1e-9, "maxiter": 20_000, "maxfev": 20_000})


@pytest.mark.parametrize("fit_mu_infinity", [False, True])
def test_fisher_refits_match_simplex_refits(rt_hist, fp1, rt_fit, fit_mu_infinity, monkeypatch):
    # the main fit is redone here by Nelder-Mead on the public objective from the default
    # start, and every bootstrap refit from the same optimum the scoring refit started from;
    # the spy copies each refit's rows, and the test takes each converged refit's last step
    # z - s itself, so it compares the points whose spread fit_histogram reports
    seen = []
    real = snspd_pnr.fit._fisher_refit

    def spy(model, counts, z, at_z, **kwargs):
        out = real(model, counts, z, at_z, **kwargs)
        if not np.all(counts == rt_hist.counts):  # the main fit's starts run on the data itself
            starts = np.broadcast_to(z, out[0].shape)
            seen.extend((counts[r].copy(), starts[r].copy(), tuple(np.copy(o[r]) for o in out))
                        for r in range(len(counts)))
        return out

    theta_hat = (rt_fit.delta_mu, rt_fit.sigma_int, rt_fit.tau)
    with monkeypatch.context() as mp:
        mp.setattr(snspd_pnr.fit, "_fisher_refit", spy)
        res = fit_histogram(rt_hist, fp1, theta0=theta_hat, fit_mu_infinity=fit_mu_infinity,
                            n_bootstrap=5, bootstrap_seed=3)
    assert len(seen) == 5 and res.bootstrap_converged == 5

    def theta_of(z):
        return np.array([z[0], math.exp(z[1]), math.exp(z[2]), *z[3:]])

    def nll(z, counts):
        fp = dataclasses.replace(fp1, mu_infinity=z[3]) if fit_mu_infinity else fp1
        return _poisson_nll(counts, predict_histogram(fp, theta_of(z)[:3], rt_hist))

    dmu0, s0, t0 = moment_start(rt_hist, fp1)
    z0 = [dmu0, math.log(s0), math.log(t0)] + ([fp1.mu_infinity] if fit_mu_infinity else [])
    main = _simplex_fit(nll, z0, rt_hist.counts)
    assert main.success and res.converged
    theta_res = [res.delta_mu, res.sigma_int, res.tau] + ([res.mu_infinity] if fit_mu_infinity else [])
    gap = np.abs(np.array(theta_res) - theta_of(main.x))
    assert np.all(gap <= 1e-3 * np.array(res.bootstrap_errors)), gap
    assert res.negative_log_likelihood <= main.fun + 1e-6

    assert all(converged for _, _, (_, converged, *_) in seen)
    refits = [z - last for _, _, (z, _, _, _, last) in seen]
    spread = np.std([theta_of(z) for z in refits], axis=0, ddof=1)
    assert np.allclose(spread, res.bootstrap_errors, rtol=1e-12, atol=0.0)

    for (counts, z_hat, _), z_fisher in zip(seen, refits, strict=True):
        simplex = _simplex_fit(nll, z_hat, counts)
        assert simplex.success
        gap = np.abs(theta_of(z_fisher) - theta_of(simplex.x))
        assert np.all(gap <= 1e-3 * np.array(res.bootstrap_errors)), gap
        assert nll(z_fisher, counts) <= simplex.fun + 1e-6


def _exp_model(box: float = math.inf):
    """One bin per parameter with m = exp(z) for each row of z, whose optimum is z = ln c;
    NaN rows where some |z_k| exceeds ``box``."""

    def model(z):
        m = np.exp(np.minimum(z, 700.0))
        J = m[:, :, None] * np.eye(z.shape[1])
        outside = np.abs(z).max(axis=1) > box
        m[outside], J[outside] = np.nan, np.nan
        return m, J

    return model


def test_refit_within_tolerance_under_carried_damping_is_converged():
    # m = exp(z): the first two trials are refused, so the one accepted step is damped
    # (lam = 1e-2) and lam = 1e-3 is carried into an iteration that starts within the step
    # tolerance of the optimum
    counts = np.array([[2.0, 5.0, 9.0]])
    refused = [2]

    def model(z):
        if refused[0]:
            refused[0] -= 1
            return np.full(z.shape, np.nan), np.full((*z.shape, z.shape[1]), np.nan)
        return _exp_model()(z)

    z0 = np.log(counts) + 1e-9
    z, converged, _, steps, _ = snspd_pnr.fit._fisher_refit(model, counts, z0, _exp_model()(z0))
    assert refused == [0] and steps.tolist() == [1] and converged.tolist() == [True]
    np.testing.assert_allclose(z, np.log(counts), rtol=0.0, atol=1e-10)


def test_rows_that_stop_leave_their_batch_mates_alone():
    # row 1 starts with a singular information matrix, row 2's optimum ln 40 lies outside the
    # box |z_k| <= 3.5: both stop unconverged, and rows 0 and 3 end where they end alone
    counts = np.array([[2.0, 5.0, 9.0], [3.0, 4.0, 8.0], [40.0, 7.0, 1.0], [6.0, 6.0, 6.0]])
    model = _exp_model(box=3.5)
    z0 = np.zeros((4, 3))
    m0, J0 = model(z0)
    J0[1, :, 2] = 0.0
    z, converged, nll, steps, _ = snspd_pnr.fit._fisher_refit(model, counts, z0, (m0, J0))
    assert converged.tolist() == [True, False, False, True]
    assert steps[1] == 0 and np.array_equal(z[1], z0[1])
    assert steps[2] > 0 and np.all(np.abs(z[2]) <= 3.5) and z[2, 0] > 3.0
    np.testing.assert_allclose(z[[0, 3]], np.log(counts[[0, 3]]), rtol=0.0, atol=1e-9)
    for r in (0, 2, 3):
        alone = snspd_pnr.fit._fisher_refit(model, counts[r : r + 1], z0[r], (m0[r], J0[r]))
        assert np.array_equal(alone[0][0], z[r]) and alone[1][0] == converged[r]
        assert alone[2][0] == nll[r] and alone[3][0] == steps[r]


def test_refit_held_to_one_iteration_is_not_converged(rt_hist, fp1, rt_fit, monkeypatch):
    theta_hat = (rt_fit.delta_mu, rt_fit.sigma_int, rt_fit.tau)
    real = snspd_pnr.fit._fisher_refit

    def capped(model, counts, z, at_z, **kwargs):
        if np.all(counts == rt_hist.counts):  # the main fit's starts run uncapped
            return real(model, counts, z, at_z, **kwargs)
        return real(model, counts, z, at_z, max_iter=1)

    with monkeypatch.context() as mp:
        mp.setattr(snspd_pnr.fit, "_fisher_refit", capped)
        res = fit_histogram(rt_hist, fp1, theta0=theta_hat, n_bootstrap=4, bootstrap_seed=5)
    assert res.bootstrap_converged == 0
    assert res.bootstrap_errors is None


def test_no_bootstrap_errors_when_no_refit_converged(ref_detector, ref_budget):
    # a merged source fitted with the unmerged law collapses to sigma_int -> 0; its refits
    # collapse too, and the spread of refits that did not converge is no error
    plan = SimPlan(ref_detector, ref_budget, (6.0,), 200_000, merge_model="occupied_elements", seed=11)
    (st,) = simulate_tags(plan)
    hist = ArrivalHistogram.from_events(st.delta_ps, 2.0, 6.0)
    res = fit_histogram(hist, FixedParams.from_budget(ref_budget, ref_detector.mu_infinity, 6.0), n_bootstrap=20)
    assert not res.converged and res.sigma_int < 1e-12
    assert res.bootstrap_converged == 0
    assert res.bootstrap_errors is None


def test_bootstrap_on_empty_far_bins_whose_mass_underflows(rt_hist, fp1, rt_fit):
    # 400 empty 2 ps bins padded on the left: the model's mass underflows to 0 or a
    # subnormal there, which the refits' 1/m must not turn into inf or NaN
    pad = 400
    edges = np.concatenate([rt_hist.bin_edges[0] - 2.0 * np.arange(pad, 0, -1), rt_hist.bin_edges])
    counts = np.concatenate([np.zeros(pad, dtype=np.int64), rt_hist.counts])
    padded = ArrivalHistogram(edges, counts, rt_hist.total_events, rt_hist.mean_photon_number)
    theta_hat = (rt_fit.delta_mu, rt_fit.sigma_int, rt_fit.tau)
    assert np.any(predict_histogram(fp1, theta_hat, padded)[:pad] < np.finfo(np.float64).tiny)
    res = fit_histogram(padded, fp1, theta0=theta_hat, n_bootstrap=4, bootstrap_seed=1)
    assert res.converged and res.bootstrap_converged == 4
    assert all(0.0 < e < 1.0 for e in res.bootstrap_errors)


def test_predicted_counts_are_what_the_objective_sees(rt_hist, fp1, rt_fit, monkeypatch):
    seen = []  # (mixture, row, masses of that row)

    def spy(mix, edges, **kwargs):
        out = mixture_bin_masses(mix, edges, **kwargs)
        masses = out[0] if kwargs.get("dz") is not None else out
        seen.extend((mix, r, row) for r, row in enumerate(np.atleast_2d(masses)))
        return out

    theta_hat = (rt_fit.delta_mu, rt_fit.sigma_int, rt_fit.tau)
    with monkeypatch.context() as mp:
        mp.setattr(snspd_pnr.fit, "mixture_bin_masses", spy)
        res = fit_histogram(rt_hist, fp1, theta0=theta_hat)
    theta_res = (res.delta_mu, res.sigma_int, res.tau)
    want = predict_histogram(fp1, theta_res, rt_hist)
    ref = mixture_from_params(fp1, theta_res)
    hits = [
        (mix, r) for mix, r, masses in seen if np.array_equal(rt_hist.total_events * masses, want)
    ]
    assert hits
    mix, r = hits[0]
    assert np.array_equal(mix.weights, ref.weights)
    for name in ("mu", "sigma", "tau"):
        assert np.array_equal(np.atleast_2d(getattr(mix, name))[r], getattr(ref, name))
    # the fit reports these counts and this mixture, so a caller need not rebuild them
    assert np.array_equal(res.expected_counts, want)
    for name in ("weights", "mu", "sigma", "tau"):
        assert np.array_equal(getattr(res.mixture, name), getattr(ref, name))


@pytest.mark.parametrize("fit_mu_infinity", [False, True])
@pytest.mark.parametrize("n_bootstrap", [0, 4])
def test_one_kernel_pass_per_model_evaluation(rt_hist, fp1, n_bootstrap, fit_mu_infinity, monkeypatch):
    # every model evaluation of the fit and of its bootstrap refits takes the bin masses
    # and their partials of all its rows from one _emg_grid call, and no kernel call happens
    # outside one
    kernel_calls, per_eval, rows = [0], [], [0]

    def kernel(*args):
        kernel_calls[0] += 1
        return emg_grid(*args)

    def evaluation(mix, *args, **kwargs):
        before = kernel_calls[0]
        out = mixture_bin_masses(mix, *args, **kwargs)
        per_eval.append(kernel_calls[0] - before)
        rows[0] += len(np.atleast_2d(mix.mu))
        return out

    emg_grid = snspd_pnr.dist._emg_grid
    with monkeypatch.context() as mp:
        mp.setattr(snspd_pnr.dist, "_emg_grid", kernel)
        mp.setattr(snspd_pnr.fit, "mixture_bin_masses", evaluation)
        res = fit_histogram(rt_hist, fp1, n_bootstrap=n_bootstrap, bootstrap_seed=3, fit_mu_infinity=fit_mu_infinity)
    assert res.converged and res.bootstrap_converged == (n_bootstrap or None)
    assert rows[0] > 3 * (n_bootstrap + 1)
    assert set(per_eval) == {1} and kernel_calls[0] == len(per_eval)
    if n_bootstrap:  # the resamples' rows share kernel calls
        assert len(per_eval) < rows[0]


def test_bootstrap_refits_stop_at_a_fraction_of_the_standard_error(default_fit, monkeypatch):
    # each refit stops at 1e-2 of the fit's standard errors and takes its last step: 181 row
    # evaluations on this input, 271 when the refits stopped at 1e-4 short of that step, and 457
    # when every refit ran to 1e-10 max(1, |z_k|)
    hist, fp, _ = default_fit("bench-seed-1", False)
    rows = [0]

    def spy(mix, *args, **kwargs):
        rows[0] += len(np.atleast_2d(mix.mu))
        return mixture_bin_masses(mix, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(snspd_pnr.fit, "mixture_bin_masses", spy)
        res = fit_histogram(hist, fp, n_bootstrap=100, bootstrap_seed=1)
    assert res.converged and res.bootstrap_converged == 100
    assert rows[0] <= 200, rows[0]


@pytest.mark.parametrize("fit_mu_infinity", [False, True])
@pytest.mark.parametrize("data", ["bench-seed-1", "bench-seed-2"])
def test_bootstrap_refits_lie_near_the_refits_run_to_the_main_rule(default_fit, data, fit_mu_infinity, monkeypatch):
    # the same resamples refitted to the main fit's 1e-10 max(1, |z_k|): each refit that stops at
    # 1e-2 standard errors and takes its last step lies within 5e-4 standard errors of that point,
    # and the spread of the refits within 2e-5 relative of theirs
    hist, fp, _ = default_fit(data, fit_mu_infinity)
    real = snspd_pnr.fit._fisher_refit
    runs = []

    def spy(model, counts, z, at_z, **kwargs):
        out = real(model, counts, z, at_z, **kwargs)
        runs.append((model, counts, z, at_z, tuple(np.copy(o) for o in out)))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(snspd_pnr.fit, "_fisher_refit", spy)
        res = fit_histogram(hist, fp, fit_mu_infinity=fit_mu_infinity, n_bootstrap=100, bootstrap_seed=1)
    assert res.bootstrap_converged == 100
    model, resamples, z_hat, at_hat, (z, converged, _, _, last) = runs[-1]
    assert len(resamples) == 100 and converged.all()
    returned = z - last

    def errors(z):
        return np.column_stack([z[:, 0], np.exp(z[:, 1:3]), z[:, 3:]]).std(axis=0, ddof=1)

    np.testing.assert_allclose(res.bootstrap_errors, errors(returned), rtol=1e-12)
    z_main, converged_main, *_ = real(model, resamples, z_hat, at_hat)
    assert converged_main.all()
    se = np.sqrt(np.diag(snspd_pnr.fit._inverse_information(hist.counts.astype(np.float64), *at_hat)[0]))
    gap = np.abs(returned - z_main) / se
    assert gap.max() <= 5e-4, gap.max()
    np.testing.assert_allclose(res.bootstrap_errors, errors(z_main), rtol=2e-5, atol=0.0)


@pytest.mark.parametrize("inverse", ["raises", "nan", "negative"])
def test_bootstrap_without_standard_errors_keeps_the_relative_step_rule(rt_hist, fp1, inverse, monkeypatch):
    # an I(z_hat) that cannot be inverted, or an inverse without positive finite variances,
    # leaves the resamples on the main fit's rule 1e-10 max(1, |z_k|): no NaN tolerance
    # holds a row to the step cap
    real_inv, real_refit = np.linalg.inv, snspd_pnr.fit._fisher_refit
    resample_runs = []

    def inv(a):
        if inverse == "raises":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full_like(a, np.nan) if inverse == "nan" else -real_inv(a)

    def spy(model, counts, z, at_z, **kwargs):
        out = real_refit(model, counts, z, at_z, **kwargs)
        if not np.all(counts == rt_hist.counts):
            resample_runs.append((kwargs.get("xtol"), out))
        return out

    with monkeypatch.context() as mp:
        mp.setattr(snspd_pnr.fit.np.linalg, "inv", inv)
        mp.setattr(snspd_pnr.fit, "_fisher_refit", spy)
        res = fit_histogram(rt_hist, fp1, n_bootstrap=24, bootstrap_seed=9)
    assert res.converged and res.bootstrap_converged == 24
    assert resample_runs and all(xtol is None for xtol, _ in resample_runs)
    assert max(int(out[3].max()) for _, out in resample_runs) < snspd_pnr.fit._REFIT_MAX_ITER
    serial = _serial_fit(rt_hist, fp1, False, 24, 9, relative=True)[1]
    assert [int(s) for _, out in resample_runs for s in out[3]] == [r[3] for r in serial]
    draws = np.array([[z[0], math.exp(z[1]), math.exp(z[2])] for z, *_ in serial])
    np.testing.assert_allclose(res.bootstrap_errors, draws.std(axis=0, ddof=1), rtol=1e-12)


def _serial_score_and_information(counts, m, J):
    """``snspd_pnr.fit._score_and_information`` of one row, as the serial fit took it."""
    s = np.abs(J) @ np.ones(J.shape[1])
    bounded = s * (np.maximum(s, counts) * (2.0 * m.size / np.finfo(np.float64).max)) < m
    inv_m = np.divide(1.0, m, out=np.zeros_like(m), where=(m > np.finfo(np.float64).tiny) & bounded)
    return J.T @ (1.0 - counts * inv_m), (J * inv_m[:, None]).T @ J


def _serial_fisher_refit(model, counts, z, at_z, max_iter=50, xtol=None):
    """One resample's damped Fisher scoring as the fit ran it one resample at a time: the
    reference for the lockstep rows of ``snspd_pnr.fit._fisher_refit``.  ``model(z)`` gives
    (m, J) at one z, or None outside the box; the step tolerance is ``xtol`` (p,) when given,
    else 1e-10 max(1, |z_k|).  A row that converges under ``xtol`` returns z - s, the undamped
    step s that met the tolerance taken, as ``fit_histogram`` returns its bootstrap refits."""
    pos = counts > 0.0

    def nll(m):
        return math.inf if np.any(m[pos] <= 0.0) else float(m.sum() - np.dot(counts[pos], np.log(m[pos])))

    m, J = at_z
    f = nll(m)
    lam = 0.0
    g, info = _serial_score_and_information(counts, m, J)
    for it in range(max_iter):
        tol = 1e-10 * np.maximum(1.0, np.abs(z)) if xtol is None else xtol
        try:
            step = np.linalg.solve(info, g)
        except np.linalg.LinAlgError:
            return z, False, f, it
        if np.all(np.abs(step) <= tol):
            return (z if xtol is None else z - step), True, f, it
        while True:
            if lam > 0.0:
                step = np.linalg.solve(info + lam * np.diag(np.diag(info)), g)
            if not np.all(np.isfinite(step)) or np.all(np.abs(step) <= tol):
                return z, False, f, it
            trial = model(z - step)
            if trial is not None and (f_trial := nll(trial[0])) <= f + 1e-14 * abs(f):
                break
            lam = max(10.0 * lam, 1e-3)
        z, (m, J), f = z - step, trial, f_trial
        g, info = _serial_score_and_information(counts, m, J)
        lam = lam / 10.0 if lam > 1e-3 else 0.0
    return z, False, f, max_iter


def _serial_fit(hist, fp, fit_mu_infinity, n_bootstrap, bootstrap_seed, relative=False):
    """``fit_histogram``'s main fit and bootstrap, one start and one resample at a time; the
    resamples stop at 1e-2 of the standard errors in z and take their last step, or stop at the
    main fit's relative rule."""
    counts, total, edges = hist.counts.astype(np.float64), hist.total_events, hist.bin_edges
    mixture, dz, _ = snspd_pnr.fit._mixture_law(fp)

    def model(z):
        if abs(z[1]) > 50.0 or abs(z[2]) > 50.0 or abs(z[0]) > 1e7:
            return None
        sigma_int = math.exp(z[1])
        mix = mixture(z[0], sigma_int, math.exp(z[2]), z[3] if fit_mu_infinity else fp.mu_infinity)
        masses, J = mixture_bin_masses(mix, edges, dz=dz(mix, sigma_int, fit_mu_infinity))
        return total * masses, total * J

    dmu, sigma_int, tau = moment_start(hist, fp)
    z0 = np.array([dmu, math.log(sigma_int), math.log(tau), fp.mu_infinity][: 4 if fit_mu_infinity else 3])
    main = _serial_fisher_refit(model, counts, z0, model(z0))
    at_hat = model(main[0])
    info_hat = _serial_score_and_information(counts, *at_hat)[1]
    xtol = None if relative else 1e-2 * np.sqrt(np.diag(np.linalg.inv(info_hat)))
    rng = np.random.default_rng(bootstrap_seed)
    p = counts / counts.sum()
    refits = []
    for _ in range(n_bootstrap):
        refits.append(_serial_fisher_refit(model, rng.multinomial(total, p).astype(np.float64), main[0], at_hat,
                                           xtol=xtol))
    return main, refits


@pytest.mark.parametrize("fit_mu_infinity", [False, True])
def test_lockstep_fit_matches_the_serial_refits(rt_hist, fp1, fit_mu_infinity):
    res = fit_histogram(rt_hist, fp1, fit_mu_infinity=fit_mu_infinity, n_bootstrap=24, bootstrap_seed=9)
    (z_hat, converged, nll, steps), refits = _serial_fit(rt_hist, fp1, fit_mu_infinity, 24, 9)
    assert len({r[3] for r in refits}) > 1  # the rows converge after different numbers of steps
    assert res.iterations == steps and res.converged == converged
    assert res.bootstrap_converged == sum(r[1] for r in refits)
    theta = [res.delta_mu, math.log(res.sigma_int), math.log(res.tau)] + ([res.mu_infinity] if fit_mu_infinity else [])
    np.testing.assert_allclose(theta, z_hat, rtol=1e-12)
    assert res.negative_log_likelihood == pytest.approx(nll, rel=1e-12)
    draws = np.array([[z[0], math.exp(z[1]), math.exp(z[2]), *z[3:]] for z, *_ in refits])
    np.testing.assert_allclose(res.bootstrap_errors, draws.std(axis=0, ddof=1), rtol=1e-12)


def test_fit_is_the_same_whatever_the_block_size(rt_hist, fp1, monkeypatch):
    # the model split into kernel calls of 1 row, of at most 7 rows, and of all rows at once:
    # bit for bit the same fit
    cells = snspd_pnr.fit._mixture_law(fp1)[2] * rt_hist.bin_edges.size
    results, calls = [], []

    def spy(mix, *args, **kwargs):
        calls[-1].append(len(np.atleast_2d(mix.mu)))
        return mixture_bin_masses(mix, *args, **kwargs)

    for rows in (1, 7, 10**6):
        calls.append([])
        with monkeypatch.context() as mp:
            mp.setattr(snspd_pnr.fit, "_CELLS_PER_CALL", rows * cells)
            mp.setattr(snspd_pnr.fit, "mixture_bin_masses", spy)
            results.append(fit_histogram(rt_hist, fp1, n_bootstrap=20, bootstrap_seed=4))
    assert [max(c) for c in calls] == [1, 7, 20]
    assert any(calls[1][i : i + 3] == [7, 7, 6] for i in range(len(calls[1])))  # the resamples' first pass
    assert results[0].bootstrap_converged == 20
    for res in results[1:]:
        for field in dataclasses.fields(FitResult):
            if field.name == "mixture":
                for name in ("weights", "mu", "sigma", "tau"):
                    assert np.array_equal(getattr(res.mixture, name), getattr(results[0].mixture, name)), name
            else:
                assert np.array_equal(getattr(res, field.name), getattr(results[0], field.name)), field.name


@pytest.mark.parametrize("n_bootstrap", [-1, 1])
def test_bootstrap_count_of_one_is_rejected(rt_hist, fp1, n_bootstrap):
    with pytest.raises(ValueError, match=f"^n_bootstrap: must be 0 or >= 2, got {n_bootstrap}$"):
        fit_histogram(rt_hist, fp1, n_bootstrap=n_bootstrap)


def test_fit_result_rejects_nan():
    good = dict(delta_mu=289.0, sigma_int=6.0, tau=6.0, negative_log_likelihood=0.0, converged=True,
                iterations=1, bootstrap_errors=(0.1, 0.1, 0.1), covariance_proxy=np.eye(3),
                expected_counts=np.ones(4), mixture=MixtureModel([1.0], [433.0], [12.0], [6.0]))
    FitResult(**good)
    for key, value in (("sigma_int", math.nan), ("tau", math.nan), ("bootstrap_errors", (0.1, math.nan, 0.1))):
        with pytest.raises(ValueError):
            FitResult(**{**good, key: value})


def test_fit_input_validation(fp1):
    edges = np.arange(0.0, 21.0, 2.0)
    empty = ArrivalHistogram(edges, np.zeros(10, dtype=np.int64), 0)
    with pytest.raises(ValueError, match="empty histogram"):
        fit_histogram(empty, fp1)
    few = ArrivalHistogram(edges, np.full(10, 5, dtype=np.int64), 50)
    with pytest.raises(ValueError, match="at least 1000 events"):
        fit_histogram(few, fp1)
    big = ArrivalHistogram(edges, np.full(10, 500, dtype=np.int64), 5000)
    with pytest.raises(ValueError, match="positive"):
        fit_histogram(big, fp1, theta0=(100.0, -1.0, 6.0))


def test_fixed_params_reject_a_mean_above_the_weights_bound(ref_budget):
    FixedParams.from_budget(ref_budget, 144.0, snspd_pnr.dist.MAX_N_BAR)
    for n_bar in (math.nextafter(snspd_pnr.dist.MAX_N_BAR, math.inf), 1e9):
        with pytest.raises(ValueError, match="^n_bar: must be positive and at most 10000, got "):
            FixedParams.from_budget(ref_budget, 144.0, n_bar)


@pytest.mark.parametrize("theta0", [(math.nan, 6.0, 6.0), (289.0, math.inf, 6.0), (289.0, 6.0, -math.inf)],
                         ids=["nan-delta_mu", "inf-sigma_int", "minus-inf-tau"])
def test_non_finite_theta0_is_rejected(fp1, theta0):
    # outside the search box such a start would be dropped, and only the moment start would run
    big = ArrivalHistogram(np.arange(0.0, 21.0, 2.0), np.full(10, 500, dtype=np.int64), 5000)
    with pytest.raises(ValueError, match="^theta0: must be three finite numbers"):
        fit_histogram(big, fp1, theta0=theta0)


@pytest.mark.parametrize("theta0", [(289.0, 1e-30, 6.0), (2e7, 6.0, 6.0)],
                         ids=["ln-sigma_int-below-minus-50", "delta_mu-beyond-1e7"])
def test_finite_theta0_outside_the_search_box_is_rejected(fp1, theta0):
    # such a start is finite, but the fit searches no point outside the box and would drop it
    big = ArrivalHistogram(np.arange(0.0, 21.0, 2.0), np.full(10, 500, dtype=np.int64), 5000)
    box = "inside the search box |delta_mu| <= 1e7, |ln sigma_int| <= 50 and |ln tau| <= 50"
    with pytest.raises(ValueError, match=re.escape(box)):
        fit_histogram(big, fp1, theta0=theta0)
    assert check_theta0((-1e7, 1e-21, 1e21)) == (-1e7, 1e-21, 1e21)  # the box's edges are inside


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["late", "early"])
def test_fit_without_a_start_in_the_search_box_names_the_start_and_the_box(fp1, sign):
    # a histogram 3e7 ps from the model puts the moment start at |delta_mu| > 1e7, outside the box,
    # and with no theta0 no start is left to run
    hist = ArrivalHistogram.from_events(np.random.default_rng(5).normal(sign * 3e7, 10.0, 50_000), 2.0, 3.0)
    message = ("no start lies in the search box |delta_mu| <= 1e7, |ln sigma_int| <= 50 and |ln tau| <= 50: "
               "the moment start (delta_mu, sigma_int, tau) = (")
    fp = dataclasses.replace(fp1, n_bar=3.0)
    with pytest.raises(ValueError, match="^" + re.escape(message)) as info:
        fit_histogram(hist, fp)
    delta_mu, sigma_int, tau = moment_start(hist, fp)
    assert abs(delta_mu) > 1e7 and str(info.value).endswith(f"= ({delta_mu:.6g}, {sigma_int:.6g}, {tau:.6g})")


def test_single_peak_fit_recovers_emg():
    p = EmgParams(433.0, 12.1, 6.0)
    rng = np.random.default_rng(99)
    times = emg_sample(p, rng, 60_000)
    hist = ArrivalHistogram.from_events(times, 2.0)
    res = fit_single_peak(hist, (370.0, 530.0))
    assert res.converged
    assert res.params.mu == pytest.approx(433.0, abs=0.8)
    assert res.params.sigma == pytest.approx(12.1, abs=0.5)
    assert res.params.tau == pytest.approx(6.0, abs=0.6)
    assert res.total_jitter == pytest.approx(p.std, rel=0.03)
    assert res.deviance / res.dof < 1.5
    assert all(0.0 < e < 1.0 for e in res.errors)


@pytest.mark.parametrize("seed", [99, 1, 2, 3])
@pytest.mark.parametrize("window", [(370.0, 530.0), (400.0, 450.0)], ids=["whole-peak", "core"])
def test_single_peak_errors_match_the_curvature_of_the_objective(window, seed):
    # standard errors of I(theta_hat)^-1, with the amplitude profiled out, against the pseudo-inverse
    # of a central-difference Hessian of the window's profiled NLL in (mu, sigma, tau); the core
    # window cuts both flanks, where errors that ignore the profiled amplitude are 0.2-0.5 times these
    hist = ArrivalHistogram.from_events(emg_sample(EmgParams(433.0, 12.1, 6.0), np.random.default_rng(seed), 60_000), 2.0)
    res = fit_single_peak(hist, window)
    assert res.converged
    inside = np.flatnonzero((hist.bin_centers >= window[0]) & (hist.bin_centers < window[1]))
    counts, edges = hist.counts[inside].astype(np.float64), hist.bin_edges[inside[0] : inside[-1] + 2]

    def nll(theta):
        mass = mixture_bin_masses(MixtureModel([1.0], [theta[0]], [theta[1]], [theta[2]]), edges)
        return _poisson_nll(counts, counts.sum() * mass / mass.sum())

    theta = np.array([res.params.mu, res.params.sigma, res.params.tau])
    want = np.sqrt(np.diag(np.linalg.pinv(central_hessian(nll, theta))))
    np.testing.assert_allclose(res.errors, want, rtol=0.03)


def test_single_peak_flags_contaminated_window():
    rng = np.random.default_rng(100)
    main = emg_sample(EmgParams(433.0, 12.1, 6.0), rng, 40_000)
    extra = emg_sample(EmgParams(348.0, 9.2, 6.0), rng, 18_000)
    hist = ArrivalHistogram.from_events(np.concatenate([main, extra]), 2.0)
    res = fit_single_peak(hist, (300.0, 530.0))
    assert res.deviance / res.dof > 3.0


def test_single_peak_sparse_window_rejected():
    p = EmgParams(100.0, 5.0, 5.0)
    times = emg_sample(p, np.random.default_rng(3), 5000)
    hist = ArrivalHistogram.from_events(times, 2.0)
    # the far tail holds a few dozen events, well under the fit minimum
    with pytest.raises(ValueError, match="window too sparse"):
        fit_single_peak(hist, (126.0, 1000.0))
    with pytest.raises(ValueError, match="lo < hi"):
        fit_single_peak(hist, (450.0, 400.0))
    with pytest.raises(ValueError, match="no bins"):
        fit_single_peak(hist, (5000.0, 6000.0))


def test_total_width_closed_form_and_bootstrap(ref_detector, ref_budget):
    def resampled_se(hist, resamples, seed):
        # multinomial resampling of event-to-bin assignments, the width recomputed on each resample
        rng = np.random.default_rng(seed)
        centers, n = hist.bin_centers, hist.total_events
        w = hist.counts / n
        stds = np.empty(resamples)
        for i in range(resamples):
            wb = rng.multinomial(n, w) / n
            stds[i] = math.sqrt(np.dot(wb, (centers - np.dot(wb, centers)) ** 2))
        return float(stds.std(ddof=1))

    edges = np.array([0.0, 1.0, 2.0, 3.0])
    hist = ArrivalHistogram(edges, np.array([100, 0, 100]), 200)
    std, se = total_width(hist)
    assert std == pytest.approx(1.0, rel=1e-14)  # two halves one bin apart
    # equal halves: the width's first-order error vanishes, and resampling sees only
    # its second-order spread, of order 1/N rather than 1/sqrt(N)
    assert se == 0.0
    assert resampled_se(hist, 2000, 4) < 1.0 / hist.total_events
    # the same halves 1.1 ps apart, where mu4 - mu2**2 rounds to -2.2e-16
    assert total_width(ArrivalHistogram(1.1 * np.arange(4.0), np.array([100, 0, 100]), 200))[1] == 0.0
    plan = SimPlan(ref_detector, ref_budget, (5.0,), 200_000, merge_model="occupied_elements", seed=11)
    (st,) = simulate_tags(plan)
    for hist in (ArrivalHistogram(edges, np.array([150, 0, 50]), 200),
                 ArrivalHistogram.from_events(st.delta_ps, 2.0, st.n_bar)):
        _, se = total_width(hist)
        assert se == pytest.approx(resampled_se(hist, 4000, 5), rel=0.05)
    one_bin = ArrivalHistogram(edges, np.array([0, 7, 0]), 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert total_width(one_bin) == (0.0, 0.0)


def test_ingest_time_tags_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    trig = np.arange(50) * 1000.0
    edge = trig + 400.0 + rng.normal(0.0, 5.0, size=50)
    path = tmp_path / "tags.csv"
    write_time_tags(path, TimeTagTable(trig, edge, n_bar=2.5))
    hist = ingest_time_tags(path)
    assert hist.total_events == 50
    assert hist.mean_photon_number == 2.5
    assert hist.bin_width == 2.0


def test_ingest_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# unit=ps\ntrigger_ps,edge_ps\n0,410\n1000,x\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 4"):
        ingest_time_tags(path)
    path.write_text("# unit=ns\ntrigger_ps,edge_ps\n0,410\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported unit"):
        ingest_time_tags(path)
    path.write_text("# unit=ps\ntrigger_ps,edge_ps\n1000,410\n0,420\n", encoding="utf-8")
    with pytest.warns(UserWarning, match="monotonically"):
        ingest_time_tags(path)


def test_malformed_row_in_the_middle_is_named_by_its_line(tmp_path):
    rows = [f"{1000.0 * i:.17g},{1000.0 * i + 410.0:.17g}" for i in range(2000)]
    header = ["# n_bar=2.5", "# unit=ps", "trigger_ps,edge_ps"]
    path = tmp_path / "tags.csv"
    for bad, message in [("1000,x", "malformed row"), ("1000,410,7", "expected two comma-separated values"),
                         ("1000", "expected two comma-separated values")]:
        path.write_text("\n".join(header + rows[:1200] + [bad] + rows[1200:]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 1204: {message}"):
            ingest_time_tags(path)
    hist = tmp_path / "hist.csv"
    hist.write_text("# unit=ps\nbin_center_ps,count\n1,5\n3,7\n5,2.0\n7,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 5: malformed row"):
        read_histogram_csv(hist)


@pytest.mark.parametrize("count", [2**63, -(2**63) - 1, 10**30])
def test_histogram_count_beyond_int64_is_rejected_with_its_line(tmp_path, count):
    hist = tmp_path / "hist.csv"
    hist.write_text(f"# unit=ps\nbin_center_ps,count\n1,5\n3,{count}\n5,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^line 4: integer outside the 64-bit range in '3,{count}'$"):
        read_histogram_csv(hist)
    hist.write_text(f"# unit=ps\nbin_center_ps,count\n1,0\n3,{2**63 - 1}\n", encoding="utf-8")
    assert read_histogram_csv(hist).counts[1] == 2**63 - 1


def test_histogram_total_beyond_int64_is_rejected_naming_the_file(tmp_path):
    # each count fits int64 but their sum does not: an int64 sum wraps it to -9223372036854775806
    hist = tmp_path / "hist.csv"
    hist.write_text(f"# unit=ps\nbin_center_ps,count\n1,{2**62}\n3,{2**62}\n5,2\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_histogram_csv(hist)
    assert str(err.value) == f"{hist}: total count {2**63 + 2} is beyond the 64-bit range"
    hist.write_text(f"# unit=ps\nbin_center_ps,count\n1,{2**62}\n3,{2**62 - 1}\n5,0\n", encoding="utf-8")
    assert read_histogram_csv(hist).total_events == 2**63 - 1


def test_histogram_total_is_checked_against_the_exact_sum():
    counts = np.array([2**62, 2**62, 2], dtype=np.int64)
    assert int(counts.sum()) == -9223372036854775806
    with pytest.raises(ValueError, match="total_events must equal the sum of counts"):
        ArrivalHistogram(np.arange(4.0), counts, int(counts.sum()))


def test_tag_rows_read_back_exactly_with_headers_and_blank_lines_among_them(tmp_path):
    rng = np.random.default_rng(3)
    trig = np.cumsum(rng.exponential(1e8, size=3000))
    edge = trig + rng.normal(400.0, 30.0, size=3000)
    path = tmp_path / "tags.csv"
    write_time_tags(path, TimeTagTable(trig, edge, n_bar=2.5))
    table = read_time_tags(path)
    np.testing.assert_array_equal(table.trigger_ps, trig)
    np.testing.assert_array_equal(table.edge_ps, edge)
    assert table.n_bar == 2.5
    # the format allows blank lines, headers and the column line anywhere; a later n_bar header wins
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(["", *lines[:10], "", "# n_bar=4", "trigger_ps,edge_ps", *lines[10:]]) + "\n",
                    encoding="utf-8")
    table = read_time_tags(path)
    np.testing.assert_array_equal(table.trigger_ps, trig)
    np.testing.assert_array_equal(table.edge_ps, edge)
    assert table.n_bar == 4.0


def _fmt_rows_file(header_n_bar, columns, rows) -> str:
    """A CSV in the per-row form the writers had: every value through ``format(float(x), ".17g")``."""
    lines = [] if header_n_bar is None else [f"# n_bar={format(float(header_n_bar), '.17g')}"]
    lines += ["# unit=ps", columns]
    lines += [",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_bar", [None, 2.5, 1e-310])
def test_csv_writers_match_the_per_row_format(tmp_path, n_bar):
    tiny = np.finfo(np.float64).smallest_subnormal
    trig = np.array([-0.0, 0.0, tiny, 3.0 * tiny, 1e300, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 433.0])
    edge = np.array([5e-324, -0.0, -tiny, 2.2e-308, 1.2345678901234567e300, 1e-300, -0.1, 400.5, 1e16 + 2.0])
    path = tmp_path / "tags.csv"
    write_time_tags(path, TimeTagTable(trig, edge, n_bar=n_bar))
    assert path.read_bytes() == _fmt_rows_file(n_bar, "trigger_ps,edge_ps", zip(trig, edge)).encode()
    for edges in (np.array([1e300, 2e300, 3e300]), tiny * np.arange(1.0, 5.0), np.array([-3.0, -1.0, 1.0, 3.0])):
        counts = np.arange(edges.size - 1, dtype=np.int64) * 2**40
        hist = ArrivalHistogram(edges, counts, int(counts.sum()), n_bar)
        write_histogram_csv(path, hist)
        rows = ((c, str(int(k))) for c, k in zip(hist.bin_centers, counts))
        want = _fmt_rows_file(n_bar, "bin_center_ps,count", rows)
        assert path.read_bytes() == want.encode()


def _per_row_table(columns, rows) -> str:
    """A headerless CSV in the per-row form the CLI wrote: strings as they are, every other value
    through ``format(float(x), ".17g")``."""
    lines = [",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row) for row in rows]
    return "\n".join([columns, *lines]) + "\n"


def test_fit_residuals_and_sweep_csvs_match_the_per_row_format(tmp_path, monkeypatch, ref_budget):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3,
        "detector": {"kinetic_inductance": 500.0, "amplitude": 100.0, "noise_floor": 10.0,
                     "delta_mu": 289.0, "mu_infinity": 144.0, "rise_time_1": 300.0},
        "budget": dataclasses.asdict(ref_budget),
        "sim": {"n_bar_values": [1.0, 20.0], "events_per_source": 1000},
    }), encoding="utf-8")
    counts = np.array([0, 2**62 + 1, 7, 3, 1], dtype=np.int64)  # %.17g would write 2**62 + 1 as 4.6e+18
    path = tmp_path / "hist.csv"
    write_histogram_csv(path, ArrivalHistogram(433.0 + 0.1 * np.arange(6.0), counts, int(counts.sum()), 3.0))
    # an expected count of 0 and one below 0 give pearson 0; 1e-300 gives 7e150
    expected = np.array([0.0, 1.0 / 3.0, 1e-300, -1.0, 2.5e10])
    result = FitResult(delta_mu=289.0, sigma_int=6.0, tau=6.0, negative_log_likelihood=0.0, converged=True,
                       iterations=1, bootstrap_errors=None, covariance_proxy=np.eye(3), expected_counts=expected,
                       mixture=MixtureModel([1.0], [433.0], [12.0], [6.0]))
    monkeypatch.setattr(snspd_pnr.cli, "fit_histogram", lambda hist, fp, **kwargs: result)
    run = CliRunner().invoke(snspd_pnr.cli.main, ["fit", str(path), "-c", str(config), "-o", str(tmp_path / "fit")])
    assert run.exit_code == 0, run.output
    hist = read_histogram_csv(path)
    rows = [(c, str(int(k)), m, (k - m) / math.sqrt(m) if m > 0 else 0.0)
            for c, k, m in zip(hist.bin_centers, hist.counts, expected)]
    assert rows[0][3] == 0.0 and rows[3][3] == 0.0 and rows[1][1] == str(2**62 + 1)
    want = _per_row_table("bin_center_ps,count,expected,pearson", rows)
    assert (tmp_path / "fit" / "fit_residuals.csv").read_bytes() == want.encode()

    sweep = [SweepRow(1.0, 1.0 / 3.0, 0.1, 1e-300), SweepRow(20.0, 5e-324, 1.7976931348623157e308, -0.0)]
    monkeypatch.setattr(snspd_pnr.cli, "sweep_total_width", lambda plan, bin_width: sweep)
    run = CliRunner().invoke(snspd_pnr.cli.main, ["sweep", "-c", str(config), "-o", str(tmp_path / "sweep")])
    assert run.exit_code == 0, run.output
    rows = [(r.n_bar, r.sigma_hist, r.sigma_error, r.sigma_model) for r in sweep]
    want = _per_row_table("n_bar,sigma_hist_ps,sigma_err_ps,sigma_model_ps", rows)
    assert (tmp_path / "sweep" / "sweep.csv").read_bytes() == want.encode()


def test_each_reader_rejects_the_other_formats_file_naming_the_line(tmp_path):
    tags, hist = tmp_path / "tags.csv", tmp_path / "hist.csv"
    write_time_tags(tags, TimeTagTable(np.array([0.0, 1000.0]), np.array([410.0, 1420.0]), n_bar=2.5))
    write_histogram_csv(hist, ArrivalHistogram(np.array([0.0, 2.0, 4.0]), np.array([3, 4]), 7, 2.5))
    with pytest.raises(ValueError, match="^line 3: malformed row 'bin_center_ps,count'$"):
        read_time_tags(hist)
    with pytest.raises(ValueError, match="^line 3: malformed row 'trigger_ps,edge_ps'$"):
        read_histogram_csv(tags)


def test_bad_nbar_header_reports_line(tmp_path):
    rows = "bin_center_ps,count\n1,5\n3,7\n"
    path = tmp_path / "hist.csv"
    path.write_text("# unit=ps\n# n_bar=abc\n" + rows, encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: n_bar is not a number"):
        read_histogram_csv(path)
    path.write_text("# n_bar=2.5\n" + rows, encoding="utf-8")
    assert read_histogram_csv(path).mean_photon_number == 2.5
    tags = tmp_path / "tags.csv"
    tags.write_text("# n_bar=abc\ntrigger_ps,edge_ps\n0,410\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: n_bar is not a number"):
        ingest_time_tags(tags)
