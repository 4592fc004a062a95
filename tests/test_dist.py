import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from snspd_pnr import (
    EmgParams,
    FixedParams,
    MixtureModel,
    conditioned_poisson_weights,
    emg_cdf,
    emg_pdf,
    emg_sample,
    mixture_bin_masses,
    mixture_from_params,
    mixture_moments,
)
from snspd_pnr.dist import _cdf_sf_grid, _emg_grid
from snspd_pnr.fit import _mixture_law

mpmath.mp.dps = 50


def pdf_mp(t, mu, sigma, tau):
    t, mu, sigma, tau = (mpmath.mpf(v) for v in (t, mu, sigma, tau))
    arg = (sigma**2 / tau - t + mu) / (sigma * mpmath.sqrt(2))
    return mpmath.erfc(arg) * mpmath.exp((sigma**2 / tau - 2 * t + 2 * mu) / (2 * tau)) / (2 * tau)


def cdf_mp(t, mu, sigma, tau):
    t, mu, sigma, tau = (mpmath.mpf(v) for v in (t, mu, sigma, tau))
    u = (t - mu) / sigma
    r = sigma / tau
    return mpmath.ncdf(u) - mpmath.exp(r * r / 2 - u * r) * mpmath.ncdf(u - r)


def sf_mp(t, mu, sigma, tau):
    t, mu, sigma, tau = (mpmath.mpf(v) for v in (t, mu, sigma, tau))
    u = (t - mu) / sigma
    r = sigma / tau
    return mpmath.ncdf(-u) + mpmath.exp(r * r / 2 - u * r) * mpmath.ncdf(u - r)


def mixture_of(comps, weights):
    """The mixture of the given EmgParams components, as arrays over n."""
    return MixtureModel(weights, [c.mu for c in comps], [c.sigma for c in comps], [c.tau for c in comps])


def weighted_pdf(m, t):
    """The mixture's density, its components' ``emg_pdf`` weighted by the mixture."""
    return sum(w * emg_pdf(EmgParams(*c), t) for w, *c in zip(m.weights, m.mu, m.sigma, m.tau))


def weighted_cdf(m, t):
    """The mixture's CDF, its components' ``emg_cdf`` weighted by the mixture."""
    return sum(w * emg_cdf(EmgParams(*c), t) for w, *c in zip(m.weights, m.mu, m.sigma, m.tau))


def kernel_sf(p, t):
    """The kernel's survival function of one component, unclipped."""
    return _cdf_sf_grid(p.mu, p.sigma, p.tau, np.asarray(t, dtype=np.float64))[1]


def component_partials(m, edges):
    """Each component's weighted bin-mass partials (mu, sigma, tau), shape (3, n_max, bins),
    read from ``mixture_bin_masses`` through a one-hot ``dz``."""
    n = m.n_max
    return mixture_bin_masses(m, edges, dz=np.eye(3 * n).reshape(3 * n, 3, n))[1].T.reshape(3, n, -1)


def cdf_partials(us, tau):
    """The CDF's partials (mu, sigma, tau) at each u for mu = 0, sigma = 1, read from
    ``mixture_bin_masses``: component j sits at mu = -u_j, so the edge 0 is its u_j
    exactly, and the edge -90 is at least 50 sigma left of every component, where each
    partial is exactly 0; bin 0's partial for component j is then its weight times
    the CDF's partial at u_j."""
    w = np.full(us.size, 1.0 / us.size)
    m = MixtureModel(w, -us, np.ones(us.size), np.full(us.size, tau))
    return component_partials(m, [-90.0, 0.0])[:, :, 0] / w


def two_pass_partials(m, edges):
    """The per-component bin-mass partials as a second kernel pass after the masses computed
    them, and the sizes of their terms (the sum of both edges' absolute terms), each
    weighted and of shape (3, n_max, bins)."""
    mu, sigma, tau, t = m.mu[:, None], m.sigma[:, None], m.tau[:, None], np.asarray(edges, dtype=np.float64)
    tail = _emg_grid(mu, sigma, tau, t)[1]
    d_mu = -tail / tau
    phi = np.exp(-0.5 * ((t - mu) / sigma) ** 2) * (1.0 / math.sqrt(2.0 * math.pi))
    d_sigma = (phi + sigma * d_mu) / tau
    d_tau = ((t - mu - sigma * sigma / tau) * d_mu - sigma * phi / tau) / tau
    grid = np.stack((d_mu, d_sigma, d_tau))
    size = np.stack(
        (-d_mu, (phi - sigma * d_mu) / tau, (np.abs(t - mu - sigma * sigma / tau) * -d_mu + sigma * phi / tau) / tau)
    )
    w = m.weights[:, None]
    return w * (grid[:, :, 1:] - grid[:, :, :-1]), w * (size[:, :, 1:] + size[:, :, :-1])


def test_pdf_reference_value():
    # independently computed with 50-digit arithmetic
    p = EmgParams(mu=0.0, sigma=1.0, tau=1.0)
    assert emg_pdf(p, 0.0) == pytest.approx(0.2615782918651233716818, rel=1e-14)


@pytest.mark.parametrize(
    "mu,sigma,tau",
    [(0.0, 1.0, 1.0), (433.0, 12.1, 6.0), (-5.0, 0.3, 14.0), (144.0, 9.0, 0.5), (0.0, 20.0, 0.1)],
)
def test_pdf_matches_high_precision(mu, sigma, tau):
    scale = math.hypot(sigma, tau)
    ts = np.linspace(mu - 8.0 * scale, mu + 12.0 * scale, 41)
    got = emg_pdf(EmgParams(mu, sigma, tau), ts)
    want = np.array([float(pdf_mp(t, mu, sigma, tau)) for t in ts])
    assert np.allclose(got, want, rtol=5e-13, atol=0.0)


def test_pdf_deep_left_tail_is_stable():
    # the erfc argument is large and positive here; the naive formula overflows
    p = EmgParams(mu=0.0, sigma=1.0, tau=1.0)
    ts = np.array([-10.0, -15.0, -30.0, -100.0])
    got = emg_pdf(p, ts)
    want = np.array([float(pdf_mp(t, 0.0, 1.0, 1.0)) for t in ts])
    assert np.all(np.isfinite(got))
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert emg_pdf(p, -1e6) >= 0.0


def test_pdf_matches_exponnorm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mu = rng.uniform(-100.0, 500.0)
        sigma = rng.uniform(0.1, 30.0)
        tau = rng.uniform(0.1, 30.0)
        ts = mu + rng.uniform(-6.0, 10.0, size=15) * math.hypot(sigma, tau)
        p = EmgParams(mu, sigma, tau)
        ref = stats.exponnorm.pdf(ts, tau / sigma, loc=mu, scale=sigma)
        assert np.allclose(emg_pdf(p, ts), ref, rtol=1e-11)


def test_pdf_normalization_and_moments():
    p = EmgParams(mu=144.0, sigma=12.0, tau=6.0)
    total, _ = integrate.quad(lambda t: emg_pdf(p, t), -np.inf, np.inf)
    mean, _ = integrate.quad(lambda t: t * emg_pdf(p, t), -np.inf, np.inf)
    second, _ = integrate.quad(lambda t: t * t * emg_pdf(p, t), -np.inf, np.inf)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx(p.mean, rel=1e-9)
    assert second - mean**2 == pytest.approx(p.std**2, rel=1e-7)
    assert p.mean == pytest.approx(144.0 + 6.0)
    assert p.std == pytest.approx(math.hypot(12.0, 6.0))


def test_cdf_sf_complement_and_reference():
    p = EmgParams(mu=10.0, sigma=3.0, tau=7.0)
    ts = np.linspace(-40.0, 150.0, 301)
    cdf = emg_cdf(p, ts)
    sf = kernel_sf(p, ts)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    assert np.all(np.diff(cdf) >= 0.0)
    assert np.allclose(cdf + sf, 1.0, atol=1e-12)
    want = np.array([float(cdf_mp(t, 10.0, 3.0, 7.0)) for t in ts[::20]])
    assert np.allclose(cdf[::20], want, rtol=1e-11, atol=1e-15)


def test_sf_far_tail_no_underflow_to_garbage():
    p = EmgParams(mu=0.0, sigma=2.0, tau=5.0)
    ts = np.array([100.0, 300.0, 700.0])
    sf = kernel_sf(p, ts)
    want = np.array([float(1 - cdf_mp(t, 0.0, 2.0, 5.0)) for t in ts])
    assert np.all(sf > 0.0)
    assert np.allclose(sf, want, rtol=1e-9)


def test_kernel_matches_high_precision_in_both_tail_branches():
    # sigma = 1 and mu = 0 make the kernel's u equal t exactly and r the
    # float 1 / tau, so the oracle evaluates the inputs the kernel sees
    us = np.linspace(-35.0, 40.0, 61)
    taus = 1.0 / np.geomspace(0.05, 30.0, 13)
    cdf, sf = _cdf_sf_grid(0.0, 1.0, taus[:, None], us[None, :])[:2]
    rs = 1.0 / taus
    assert np.all(np.isfinite(cdf)) and np.all(np.isfinite(sf))
    checked = {True: 0, False: 0}
    for i, r in enumerate(rs):
        for j, u in enumerate(us):
            um, rm = mpmath.mpf(float(u)), mpmath.mpf(float(r))
            cross = mpmath.exp(rm * rm / 2 - um * rm) * mpmath.ncdf(um - rm)
            for got, want in ((cdf[i, j], mpmath.ncdf(um) - cross), (sf[i, j], mpmath.ncdf(-um) + cross)):
                if want > 1e-300:
                    assert abs(got - want) <= 1e-12 * want, (u, r, got, float(want))
                    checked[bool(r > u)] += 1
    # both tail forms (r > u and r <= u) are exercised
    assert checked[True] > 100 and checked[False] > 100


def test_mixture_bin_masses_match_per_component_differences():
    fp = FixedParams(
        sigma_inst=3.0, sigma_opt=1.0, sigma_elec=4.9, slew_rate_1=1.08,
        sigma_geom_1=9.0, mu_infinity=144.0, n_bar=3.0,
    )
    m = mixture_from_params(fp, (289.0, 6.0, 6.0))
    assert m.n_max == 18
    edges = np.arange(100.0, 701.0, 2.0)
    want = np.zeros(edges.size - 1)
    for w, mu, sigma, tau in zip(m.weights, m.mu, m.sigma, m.tau):
        p = EmgParams(mu, sigma, tau)
        F, S = emg_cdf(p, edges), kernel_sf(p, edges)
        want += w * np.where(F[:-1] < 0.5, np.diff(F), -np.diff(S))
    got = mixture_bin_masses(m, edges)
    assert np.all(got > 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_cdf_partials_match_high_precision_in_both_tails():
    # mu = 0 and sigma = 1 as in the kernel oracle; the oracle differentiates the
    # CDF left of the median and minus the survival function right of it, where
    # a 50-digit CDF would round its change away
    us = np.linspace(-35.0, 40.0, 31)
    taus = 1.0 / np.geomspace(0.05, 30.0, 7)
    got = np.stack([cdf_partials(us, tau) for tau in taus], axis=1)
    assert got.shape == (3, taus.size, us.size) and np.all(np.isfinite(got))
    checked = {True: 0, False: 0}
    for i, tau in enumerate(taus):
        for j, u in enumerate(us):
            um, tm = mpmath.mpf(float(u)), mpmath.mpf(float(tau))
            f = cdf_mp if u <= 0.0 else (lambda *a: -sf_mp(*a))
            want = (
                mpmath.diff(lambda x: f(um, x, 1, tm), 0),
                mpmath.diff(lambda x: f(um, 0, x, tm), 1),
                mpmath.diff(lambda x: f(um, 0, 1, x), tm),
            )
            # each partial is a sum of two terms; its error is judged against their sizes
            cross = mpmath.exp(1 / (2 * tm * tm) - um / tm) * mpmath.ncdf(um - 1 / tm) / tm
            phi = mpmath.npdf(um) / tm
            scale = (cross, phi + cross / tm, (abs(cross * (um - 1 / tm)) + phi) / tm)
            for k in range(3):
                if scale[k] > 1e-300:
                    assert abs(got[k, i, j] - want[k]) <= 1e-12 * scale[k], (k, u, tau, got[k, i, j], float(want[k]))
                    checked[bool(1.0 / tau > u)] += 1
    assert checked[True] > 100 and checked[False] > 100


def test_bin_mass_partials_match_central_differences():
    m = mixture_of((EmgParams(0.0, 1.0, 2.0), EmgParams(10.0, 2.0, 1.0)), np.array([0.7, 0.3]))
    edges = np.linspace(-10.0, 30.0, 81)
    got = component_partials(m, edges)
    assert got.shape == (3, 2, 80)
    h = 1e-5
    for k, name in enumerate(("mu", "sigma", "tau")):
        for i in range(2):
            arrays = {a: getattr(m, a).copy() for a in ("mu", "sigma", "tau")}
            arrays[name][i] += h
            up = mixture_bin_masses(MixtureModel(m.weights, **arrays), edges)
            arrays[name][i] -= 2.0 * h
            down = mixture_bin_masses(MixtureModel(m.weights, **arrays), edges)
            fd = (up - down) / (2.0 * h)
            assert np.max(np.abs(got[k, i] - fd)) <= 1e-8 * np.max(np.abs(got[k, i])), (name, i)


@pytest.mark.parametrize(
    "n_bar,theta,edges",
    [
        (3.0, (289.0, 6.0, 6.0), np.arange(100.0, 701.0, 2.0)),
        (1.0, (300.0, 0.5, 2.0), np.arange(-400.0, 3001.0, 5.0)),  # tails deep enough to underflow
        (20.0, (250.3, 3.7, 9.1), np.array([-1e4, 0.0, 150.0, 151.0, 1e4])),
    ],
)
def test_fused_masses_and_partials_equal_the_two_pass_values(make_fixed_params, n_bar, theta, edges):
    # the masses are those of the mass-only call; J is the per-component partials of a
    # second kernel pass chained through the same dz, to rounding.  Both cancel terms of
    # the tau partial in a component's left tail (T (u - r) + phi -> phi / (r - u)^2), so
    # the difference is judged against the size of those terms, as in the mpmath test
    mixture, dz_of, _ = _mixture_law(make_fixed_params(n_bar))
    m = mixture(*theta, 144.0)
    dz = dz_of(m, theta[1], True)
    masses, got = mixture_bin_masses(m, edges, dz=dz)
    assert np.array_equal(masses, mixture_bin_masses(m, edges))
    partials, sizes = two_pass_partials(m, edges)
    want = np.einsum("kib,pki->bp", partials, dz)
    scale = np.einsum("kib,pki->bp", sizes, np.abs(dz))
    assert got.shape == want.shape == (edges.size - 1, 4)
    assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-13 * np.max(scale, axis=0))


def test_jacobian_where_the_tau_partial_cancels_matches_high_precision(make_fixed_params):
    # the edge at 150 ps sits 6 to 22 sigma left of the n_bar = 20 components, where the tau
    # partial T (u - r) + phi cancels to phi / (r - u)^2; the oracle takes the partials'
    # formulas at 50 digits on the same float inputs
    mixture, dz_of, _ = _mixture_law(make_fixed_params(20.0))
    m = mixture(250.3, 3.7, 9.1, 144.0)
    dz = dz_of(m, 3.7, True)
    edges = np.array([-1e4, 0.0, 150.0, 151.0, 1e4])
    got = mixture_bin_masses(m, edges, dz=dz)[1]
    at_edges = []
    for t in edges:
        d = mpmath.zeros(3, m.n_max)
        for i, (mu, sigma, tau) in enumerate(zip(m.mu, m.sigma, m.tau)):
            mu, sigma, tau = (mpmath.mpf(float(v)) for v in (mu, sigma, tau))
            x = mpmath.mpf(float(t)) - mu
            u, r = x / sigma, sigma / tau
            cross, phi = mpmath.exp(r * r / 2 - u * r) * mpmath.ncdf(u - r), mpmath.npdf(u)
            d[0, i], d[1, i] = -cross / tau, phi / tau - sigma * cross / tau**2
            d[2, i] = -(cross * (x - sigma * sigma / tau) + sigma * phi) / tau**2
        at_edges.append([
            mpmath.fsum(m.weights[i] * dz[k, j, i] * d[j, i] for j in range(3) for i in range(m.n_max))
            for k in range(dz.shape[0])
        ])
    want = np.array([[float(b - a) for a, b in zip(lo, hi)] for lo, hi in zip(at_edges[:-1], at_edges[1:])])
    assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-13 * np.max(np.abs(want), axis=0))


def assert_fit_jacobian_matches_central_differences(fp, theta, mu_infinity, edges):
    """The chain through the scaling laws, in the fit's z = (delta_mu, ln sigma_int, ln tau, mu_infinity)."""
    mixture, dz, _ = _mixture_law(fp)

    def masses(z):
        return mixture_bin_masses(mixture(z[0], math.exp(z[1]), math.exp(z[2]), z[3]), edges)

    z = np.array([theta[0], math.log(theta[1]), math.log(theta[2]), mu_infinity])
    mix = mixture(*theta, mu_infinity)
    got = mixture_bin_masses(mix, edges, dz=dz(mix, theta[1], True))[1]
    assert got.shape == (edges.size - 1, 4)
    assert np.array_equal(mixture_bin_masses(mix, edges, dz=dz(mix, theta[1], False))[1], got[:, :3])
    h = 1e-4
    fd = np.column_stack([(masses(z + h * e) - masses(z - h * e)) / (2.0 * h) for e in np.eye(4)])
    assert np.all(np.max(np.abs(got - fd), axis=0) <= 2e-8 * np.max(np.abs(got), axis=0))


@pytest.mark.parametrize(
    "n_bar,theta,mu_infinity",
    [(3.0, (289.0, 6.0, 6.0), 144.0), (3.0, (250.3, 3.7, 9.1), 140.0), (1.0, (300.0, 0.5, 2.0), 150.0)],
)
def test_fit_jacobian_matches_central_differences(make_fixed_params, n_bar, theta, mu_infinity):
    assert_fit_jacobian_matches_central_differences(
        make_fixed_params(n_bar), theta, mu_infinity, np.arange(100.0, 701.0, 2.0)
    )


def test_fit_jacobian_matches_central_differences_where_the_tails_underflow(make_fixed_params):
    # edges 850 ps left and 2550 ps right of the one-photon peak, where masses and partials are 0
    edges = np.arange(-400.0, 3001.0, 5.0)
    fp = make_fixed_params(1.0)
    m = mixture_from_params(fp, (300.0, 0.5, 2.0), mu_infinity=150.0)
    masses = mixture_bin_masses(m, edges)
    assert masses[0] == 0.0 and masses[-1] == 0.0
    assert_fit_jacobian_matches_central_differences(fp, (300.0, 0.5, 2.0), 150.0, edges)


def test_sampling_ks_and_moments():
    p = EmgParams(mu=433.0, sigma=12.1, tau=6.0)
    rng = np.random.default_rng(12345)
    n = 200_000
    x = emg_sample(p, rng, n)
    stat = stats.kstest(x, lambda t: emg_cdf(p, t)).statistic
    assert stat < 1.9495 / math.sqrt(n)  # alpha = 0.001
    assert x.mean() == pytest.approx(p.mean, abs=5.0 * p.std / math.sqrt(n))
    assert x.std(ddof=1) == pytest.approx(p.std, rel=0.01)


@pytest.mark.parametrize("mu, sigma, tau", [(433.0, 12.1, 6.0), (-1e3, 1e-3, 1e5), (0.1, 3.7, 0.2)])
@pytest.mark.parametrize("count", [1, 7, 100_000])
def test_sampling_is_normal_plus_exponential_bit_for_bit(mu, sigma, tau, count):
    old_rng, new_rng = np.random.default_rng(77), np.random.default_rng(77)
    old = old_rng.normal(mu, sigma, size=count) + old_rng.exponential(tau, size=count)
    new = emg_sample(EmgParams(mu, sigma, tau), new_rng, count)
    assert new.dtype == old.dtype and np.array_equal(new, old)
    assert new_rng.random() == old_rng.random()


def test_conditioned_weights_reference_values():
    n_max, w = conditioned_poisson_weights(1.0)
    # P(N = n | N >= 1) = 1 / (n! (e - 1)) for a unit-mean Poisson source;
    # renormalizing over the truncated support shifts weights by up to the
    # discarded tail mass, so the tolerance is the truncation epsilon
    for n in (1, 2, 3):
        assert w[n - 1] == pytest.approx(1.0 / (math.factorial(n) * (math.e - 1.0)), rel=2e-9)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w > 0.0)
    assert n_max == w.size


@pytest.mark.parametrize("n_bar", [0.05, 0.7, 1.0, 5.0, 50.0, 713.0])
def test_conditioned_weights_tail_property(n_bar):
    eps = 1e-9
    n_max, w = conditioned_poisson_weights(n_bar, eps)
    norm = -math.expm1(-n_bar)
    assert stats.poisson.sf(n_max, n_bar) / norm < eps
    if n_max > 1:
        assert stats.poisson.sf(n_max - 1, n_bar) / norm >= eps
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(w))


def _scipy_stats_weights(nbar: float, tail_mass: float) -> tuple[int, np.ndarray]:
    """``conditioned_poisson_weights`` written on ``scipy.stats.poisson``: the reference it must equal."""
    click_mass = -math.expm1(-nbar)
    hi = int(math.ceil(nbar + 12.0 * math.sqrt(nbar) + 40.0))
    while True:
        ns = np.arange(1, hi + 1)
        below = stats.poisson.sf(ns, nbar) / click_mass < tail_mass
        if below.any():
            n_max = int(ns[np.argmax(below)])
            break
        hi *= 2
    w = stats.poisson.pmf(np.arange(1, n_max + 1), nbar) / click_mass
    return n_max, w / w.sum()


@pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-14])
def test_conditioned_weights_equal_scipy_stats_bit_for_bit(eps):
    for n_bar in np.geomspace(1e-3, 500.0, 805):
        n_max, w = conditioned_poisson_weights(float(n_bar), eps)
        ref_n_max, ref_w = _scipy_stats_weights(float(n_bar), eps)
        assert n_max == ref_n_max
        np.testing.assert_array_equal(w, ref_w)


def test_zero_rate_source_rejected():
    with pytest.raises(ValueError, match="no detectable events"):
        conditioned_poisson_weights(0.0)
    with pytest.raises(ValueError):
        conditioned_poisson_weights(1.0, tail_mass=1e-3)
    with pytest.raises(ValueError):
        conditioned_poisson_weights(1.0, tail_mass=0.0)


@pytest.mark.parametrize("n_bar", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-300])
def test_weights_reject_a_mean_that_is_not_finite_and_positive(n_bar):
    with pytest.raises(ValueError, match=r"^(n_bar must be finite|no detectable events: n_bar must be > 0)"):
        conditioned_poisson_weights(n_bar)


@pytest.mark.parametrize("tail_mass", [0.0, -1e-9, 1.0000000000000002e-6, 1e-3, 1.0, math.nan, math.inf])
def test_weights_reject_a_tail_mass_outside_zero_to_one_in_a_million(tail_mass):
    with pytest.raises(ValueError, match=r"^tail_mass must be in \(0, 1e-6\]"):
        conditioned_poisson_weights(1.0, tail_mass)
    conditioned_poisson_weights(1.0, 1e-6)  # the upper end is allowed


def test_single_component_mixture_collapses_to_emg():
    p = EmgParams(mu=5.0, sigma=2.0, tau=3.0)
    m = mixture_of((p,), np.array([1.0]))
    ts = np.linspace(-10.0, 40.0, 101)
    assert np.allclose(mixture_bin_masses(m, ts), np.diff(emg_cdf(p, ts)), rtol=1e-14)
    mean, std = mixture_moments(m)
    assert mean == pytest.approx(p.mean, rel=1e-14)
    assert std == pytest.approx(p.std, rel=1e-14)


def test_two_component_moments_closed_form():
    a = EmgParams(mu=0.0, sigma=2.0, tau=1.0)
    b = EmgParams(mu=50.0, sigma=3.0, tau=4.0)
    w = np.array([0.4, 0.6])
    m = mixture_of((a, b), w)
    means = np.array([a.mean, b.mean])
    variances = np.array([a.std**2, b.std**2])
    want_mean = float(w @ means)
    want_var = float(w @ variances + w @ means**2 - (w @ means) ** 2)
    mean, std = mixture_moments(m)
    assert mean == pytest.approx(want_mean, rel=1e-14)
    assert std == pytest.approx(math.sqrt(want_var), rel=1e-14)


def test_mixture_moments_against_sampling():
    comps = (EmgParams(433.0, 12.1, 6.0), EmgParams(348.4, 9.2, 6.0), EmgParams(310.9, 8.3, 6.0))
    w = np.array([0.6, 0.3, 0.1])
    m = mixture_of(comps, w)
    mean, std = mixture_moments(m)
    rng = np.random.default_rng(7)
    n = 2_000_000
    ks = rng.choice(3, size=n, p=w)
    x = np.concatenate([emg_sample(comps[k], rng, int((ks == k).sum())) for k in range(3)])
    assert x.mean() == pytest.approx(mean, abs=5.0 * std / math.sqrt(n))
    assert x.std(ddof=1) == pytest.approx(std, rel=0.005)


def test_bin_masses_match_cdf_and_quadrature():
    comps = (EmgParams(0.0, 1.0, 2.0), EmgParams(10.0, 2.0, 1.0))
    m = mixture_of(comps, np.array([0.7, 0.3]))
    edges = np.linspace(-10.0, 30.0, 81)
    masses = mixture_bin_masses(m, edges)
    want = np.diff(weighted_cdf(m, edges))
    assert np.allclose(masses, want, rtol=1e-10, atol=1e-15)
    assert masses.sum() == pytest.approx(
        float(weighted_cdf(m, edges[-1]) - weighted_cdf(m, edges[0])), rel=1e-12
    )
    for lo, hi in ((-3.0, -2.5), (0.25, 0.75), (12.0, 12.5)):
        q, _ = integrate.quad(lambda t: weighted_pdf(m, t), lo, hi)
        got = mixture_bin_masses(m, np.array([lo, hi]))[0]
        assert got == pytest.approx(q, rel=1e-9)


def test_bin_masses_far_tail_positive():
    # survival-function differencing keeps tail bins from cancelling to zero
    p = EmgParams(0.0, 1.0, 3.0)
    m = mixture_of((p,), np.array([1.0]))
    edges = np.array([90.0, 93.0, 96.0, 99.0])
    masses = mixture_bin_masses(m, edges)
    assert np.all(masses > 0.0)
    want = [float(cdf_mp(b, 0, 1, 3) - cdf_mp(a, 0, 1, 3)) for a, b in zip(edges[:-1], edges[1:])]
    assert np.allclose(masses, want, rtol=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(-1e4, 1e4),
    sigma=st.floats(0.01, 500.0),
    tau=st.floats(0.01, 500.0),
    u=st.floats(-60.0, 60.0),
)
def test_pdf_cdf_well_behaved_everywhere(mu, sigma, tau, u):
    p = EmgParams(mu, sigma, tau)
    t = mu + u * sigma
    pdf = emg_pdf(p, t)
    cdf = emg_cdf(p, t)
    sf = kernel_sf(p, t)
    assert np.isfinite(pdf) and pdf >= 0.0
    assert 0.0 <= cdf <= 1.0
    assert abs(cdf + sf - 1.0) <= 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        EmgParams(0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        EmgParams(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        EmgParams(math.nan, 1.0, 1.0)
    p = EmgParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        emg_pdf(p, np.array([1.0, math.inf]))
    with pytest.raises(ValueError):
        emg_sample(p, np.random.default_rng(0), 0)
    with pytest.raises(ValueError):
        mixture_of((p,), np.array([0.5, 0.5]))
