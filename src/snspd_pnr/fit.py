"""Three-parameter mixture fits to arrival-time histograms.

The model histogram is a Poisson-weighted EMG mixture whose per-component
location and width follow the jitter-budget scaling laws.  Everything except
(delta_mu, sigma_int, tau) is held fixed at independently measured values;
those three are recovered by minimizing the per-bin Poisson negative
log-likelihood  sum_i (m_i - c_i ln m_i)  by Marquardt-damped Fisher scoring
on the analytic Jacobian of the bin masses, run from the closed-form start
whose mixture has the histogram's mean and variance, and from the caller's
start when one is given.  The covariance is the inverse expected information
at the optimum.  Bootstrap errors come from multinomial resamples, each
refitted by the same scoring from the optimum until its step is at most 1e-2
of the fit's standard errors, that last step taken.  The solver runs many fits
in lockstep, one row each (the main fit's starts, or all resamples): every row
keeps its own parameters, damping and step count, and each pass evaluates the
trial points of all rows still running, in bin-mass calls over a leading row
axis of at most ``_CELLS_PER_CALL`` cells each.
Bin masses come from analytic CDF differences, never midpoint sampling.

Also provides windowed single-EMG fits (a Nelder-Mead search, with errors
from the same inverse expected information, the amplitude profiled out),
event-weighted histogram width with its delta-method standard error, and
time-tag ingestion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .budget import JitterBudget, mu_scaling, sigma_total, tau_at
from .dist import (
    MAX_N_BAR,
    EmgParams,
    MixtureModel,
    conditioned_poisson_weights,
    mixture_bin_masses,
)
from .histogram import ArrivalHistogram

_REFIT_XTOL = 1e-10
# A bootstrap refit stops once its undamped step s is at most this many of the fit's standard errors
# sqrt(diag(I(z_hat)^-1)) in every coordinate, and returns z - s.  Scoring converges linearly, each step
# about sqrt(bins / events) ~ 1e-2 of the one before at 155 bins and 570k events, so z - s lies about 1e-4
# standard errors from the optimum: the refits must agree with simplex refits within 1e-3 bootstrap errors.
_BOOTSTRAP_XTOL_PER_SE = 1e-2
_REFIT_MAX_ITER = 50
_NLL_ROUNDING = 1e-14
_DAMPING_START = 1e-3
_SMALLEST_NORMAL = np.finfo(np.float64).tiny
_LARGEST = np.finfo(np.float64).max
# sigma_int / tau at the moment start.  From sigma_int = tau, one fit of a 288-source grid (alpha 0.5,
# n_bar 1, sigma_int 2, tau 15, 20k events) ran to sigma_int -> 0 instead of its optimum.  From 0.2, 0.3,
# 0.4, 0.6 and 0.7, every three-parameter fit of that grid with a known converged optimum reached it and
# converged; from 0.5, one reached it but stopped at the step cap.
_SIGMA_INT_PER_TAU = 0.3
_CELLS_PER_CALL = 2**16  # (row, component, edge) cells per kernel call of fit_histogram's model, about 5 MB
_BOX = "|delta_mu| <= 1e7, |ln sigma_int| <= 50 and |ln tau| <= 50"


def _in_box(z) -> np.ndarray:
    """Which rows of z = (delta_mu, ln sigma_int, ln tau[, mu_infinity]) lie in the box the fit searches, ``_BOX``."""
    return (np.abs(z[..., 1]) <= 50.0) & (np.abs(z[..., 2]) <= 50.0) & (np.abs(z[..., 0]) <= 1e7)


def check_theta0(theta0) -> tuple[float, float, float]:
    """``theta0`` = (delta_mu, sigma_int, tau) as floats if the fit can start there: three finite numbers,
    sigma_int and tau positive, inside ``_BOX``.  The ValueError starts with ``theta0: `` for ``load_config``."""
    theta0 = tuple(float(v) for v in theta0)
    if not (len(theta0) == 3 and theta0[1] > 0.0 and theta0[2] > 0.0
            and _in_box(np.array([theta0[0], math.log(theta0[1]), math.log(theta0[2])]))):
        raise ValueError(f"theta0: must be three finite numbers, sigma_int and tau positive, "
                         f"inside the search box {_BOX}; got {theta0}")
    return theta0


@dataclass(frozen=True)
class FixedParams:
    """Constants held fixed during the three-parameter fit.

    Widths in ps, noise amplitude in mV, slew rate in mV/ps; ``n_bar`` is the
    mean photon number of the source feeding the histogram, at most ``MAX_N_BAR``.
    """

    sigma_inst: float
    sigma_opt: float
    sigma_elec: float
    slew_rate_1: float
    sigma_geom_1: float
    mu_infinity: float
    n_bar: float
    geom_exponent: float = 0.75
    rise_scaling_exponent: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.n_bar) and self.n_bar > 0.0):
            raise ValueError("n_bar must be positive")
        if self.n_bar > MAX_N_BAR:
            raise ValueError(f"n_bar must be at most {MAX_N_BAR:g}, got {self.n_bar}")
        if not math.isfinite(self.mu_infinity):
            raise ValueError("mu_infinity must be finite")
        # remaining range checks are delegated to JitterBudget
        self.jitter_budget(1.0, 1.0)

    @classmethod
    def from_budget(cls, budget: JitterBudget, mu_infinity: float, n_bar: float) -> "FixedParams":
        """The fixed terms of ``budget`` (all but sigma_int and tau) for a source of mean ``n_bar``."""
        return cls(budget.sigma_inst, budget.sigma_opt, budget.sigma_elec, budget.slew_rate_1, budget.sigma_geom_1,
                   mu_infinity, n_bar, budget.geom_exponent, budget.rise_scaling_exponent)

    def jitter_budget(self, sigma_int: float, tau: float) -> JitterBudget:
        return JitterBudget(self.sigma_inst, self.sigma_opt, sigma_int, tau, self.sigma_elec, self.slew_rate_1,
                            self.sigma_geom_1, self.geom_exponent, self.rise_scaling_exponent)


@dataclass(frozen=True)
class FitResult:
    """Fitted (delta_mu, sigma_int, tau) with diagnostics.

    ``converged`` and ``negative_log_likelihood`` belong to the winning start;
    ``iterations`` counts the accepted scoring steps of all starts (one, or two
    with an explicit theta0).
    ``bootstrap_errors`` follows the parameter order (and includes a fourth
    entry when mu_infinity was fitted); ``bootstrap_converged`` counts the
    bootstrap refits whose scoring met its step tolerance (an undamped step of
    at most 1e-2 of the fit's standard error in each coordinate, which the refit
    takes, see ``fit_histogram``) within its iteration cap (both None without
    refits, and ``bootstrap_errors`` None when no refit converged);
    ``covariance_proxy`` is I(theta_hat)^-1, the inverse expected information
    J^T diag(1/m) J of the fitted bin counts m, carried from the fit's log
    coordinates to (delta_mu, sigma_int, tau[, mu_infinity]): the asymptotic
    covariance of the maximum-likelihood estimate.
    ``expected_counts`` are the fitted bin counts m at theta_hat, and ``mixture``
    the one-row mixture they come from.
    """

    delta_mu: float
    sigma_int: float
    tau: float
    negative_log_likelihood: float
    converged: bool
    iterations: int
    bootstrap_errors: tuple[float, ...] | None
    covariance_proxy: np.ndarray
    expected_counts: np.ndarray
    mixture: MixtureModel
    mu_infinity: float | None = None
    bootstrap_converged: int | None = None

    def __post_init__(self) -> None:
        if not self.sigma_int >= 0.0:
            raise ValueError("sigma_int must be >= 0")
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if self.bootstrap_errors is not None and any(not e >= 0.0 for e in self.bootstrap_errors):
            raise ValueError("bootstrap errors must be >= 0")


def _mixture_law(fp: FixedParams):
    """The map (delta_mu, sigma_int, tau, mu_infinity) -> MixtureModel under ``fp``'s budget,
    the derivatives of that mixture's components with respect to the fit's coordinates,
    and the number of components n_max.

    This is the one photon-number model of the package: the fit and the sweep evaluate
    it, and ``sim.simulate_tags`` draws its events from it.  The budget's laws are
    evaluated once per n = 1..n_max at delta_mu = 1, sigma_int = 0 and tau = 1 (the tail
    scale is the same at every n); an evaluation only scales them:
    mu_n = mu_infinity + delta_mu / n**alpha, sigma_n = sqrt(fixed_n^2 + sigma_int^2),
    tau_n = tau.  Scalar parameters give a one-row mixture; (R,) arrays give R rows.
    The second map gives the chain through these laws for
    z = (delta_mu, ln sigma_int, ln tau[, mu_infinity]), as the (p, 3, n_max) ``dz``
    (with the mixture's row axis in front) that ``mixture_bin_masses(mix, edges, dz=...)``
    contracts into the Jacobian of the bin masses: dmu_n/ddelta_mu = n**-alpha,
    dmu_n/dmu_infinity = 1, dsigma_n/dln sigma_int = sigma_int^2 / sigma_n and
    dtau_n/dln tau = tau_n.
    """
    n_max, weights = conditioned_poisson_weights(fp.n_bar)
    b, alpha = fp.jitter_budget(0.0, 1.0), fp.rise_scaling_exponent
    unit = np.array([(mu_scaling(0.0, 1.0, n, alpha), sigma_total(b, n), tau_at(b, n)) for n in range(1, n_max + 1)])
    inv_n_alpha, fixed_var, unit_tau = unit[:, 0], unit[:, 1] ** 2, unit[:, 2]

    def mixture(delta_mu, sigma_int, tau, mu_infinity) -> MixtureModel:
        delta_mu, sigma_int, tau, mu_infinity = (np.asarray(v)[..., None]
                                                 for v in (delta_mu, sigma_int, tau, mu_infinity))
        sigma = np.sqrt(fixed_var + sigma_int**2)
        return MixtureModel(weights, mu_infinity + delta_mu * inv_n_alpha, sigma, tau * unit_tau)

    def dz(mix: MixtureModel, sigma_int, with_mu_infinity: bool) -> np.ndarray:
        """d(mu_n, sigma_n, tau_n)/dz of ``mix`` (built at ``sigma_int``), shape (..., 3 or 4, 3, n_max)."""
        out = np.zeros((*mix.sigma.shape[:-1], 4 if with_mu_infinity else 3, 3, n_max))
        out[..., 0, 0, :] = inv_n_alpha
        out[..., 1, 1, :] = np.asarray(sigma_int)[..., None] ** 2 / mix.sigma
        out[..., 2, 2, :] = mix.tau
        if with_mu_infinity:
            out[..., 3, 0, :] = 1.0
        return out

    return mixture, dz, n_max


def mixture_from_params(fp: FixedParams, theta, mu_infinity: float | None = None) -> MixtureModel:
    """Build the photon-number mixture for theta = (delta_mu, sigma_int, tau)."""
    delta_mu, sigma_int, tau = (float(v) for v in theta)
    return _mixture_law(fp)[0](delta_mu, sigma_int, tau, fp.mu_infinity if mu_infinity is None else mu_infinity)


def predict_histogram(fp: FixedParams, theta, hist: ArrivalHistogram) -> np.ndarray:
    """Expected counts per bin of ``hist`` for the given parameters."""
    mix = mixture_from_params(fp, theta)
    return hist.total_events * mixture_bin_masses(mix, hist.bin_edges)


def _poisson_nll(counts, expected):
    """sum(m - c ln m) over the last axis of counts c and expected counts m, which broadcast
    against each other: inf where a bin with c > 0 has m <= 0, NaN where m is NaN."""
    pos = counts > 0.0
    log_m = np.log(expected, out=np.zeros(np.broadcast_shapes(pos.shape, np.shape(expected))),
                   where=pos & (expected > 0.0))
    nll = expected.sum(axis=-1) - (counts * log_m).sum(axis=-1)
    return np.where(np.any(pos & (expected <= 0.0), axis=-1), np.inf, nll)


def _moment_start(hist: ArrivalHistogram, mixture, mu_infinity: float) -> tuple[float, float, float]:
    """The start (delta_mu, sigma_int, tau) whose mixture has the histogram's mean and variance,
    at sigma_int = ``_SIGMA_INT_PER_TAU`` tau; ``mixture`` is the map of ``_mixture_law``.

    With A and V the weighted mean and variance of n**-alpha and F the weighted mean of the
    fixed variances, the mixture's mean is mu_infinity + delta_mu A + tau and its variance
    F + sigma_int^2 + tau^2 + delta_mu^2 V.  Matched to the histogram's mean and its variance
    less the binning's w^2/12, they give a quadratic in tau; its larger root, at least half a
    bin, is the start.
    """
    unit = mixture(1.0, 1.0, 1.0, 0.0)  # mu_n = n**-alpha, sigma_n^2 = fixed_n^2 + 1
    a = unit.weights @ unit.mu
    v = unit.weights @ (unit.mu - a) ** 2
    f = unit.weights @ unit.sigma**2 - 1.0
    p, x, w = hist.counts / hist.total_events, hist.bin_centers, hist.bin_width
    mean = p @ x
    var = p @ (x - mean) ** 2 - w**2 / 12.0
    # with delta_mu = (d - tau) / A:  q tau^2 - 2 k d tau + k d^2 + F - var = 0
    d, k = mean - mu_infinity, v / a**2
    q = 1.0 + _SIGMA_INT_PER_TAU**2 + k
    quarter_disc = (k * d) ** 2 - q * (k * d * d + f - var)
    tau = max((k * d + math.sqrt(max(quarter_disc, 0.0))) / q, w / 2.0)
    return float((d - tau) / a), float(_SIGMA_INT_PER_TAU * tau), float(tau)


def _check_bootstrap(n_bootstrap: int) -> None:
    """Reject resample counts whose standard deviation is undefined (1) or meaningless (< 0).
    The ValueError starts with ``n_bootstrap: `` for ``load_config``."""
    if n_bootstrap < 0 or n_bootstrap == 1:
        raise ValueError(f"n_bootstrap: must be 0 or >= 2, got {n_bootstrap}")


def _score_and_information(counts, m, J):
    """The score g = J^T (1 - c/m) and the expected information I = J^T diag(1/m) J, per row
    of counts c (..., bins), masses m (..., bins) and Jacobian J (..., bins, p), which broadcast.

    1/m is taken as 0, so the bin carries no information, where m is not a normal
    float or where the bin's terms, at most s_i max(s_i, c_i) / m_i with
    s_i = sum_k |J_ik|, could exceed the largest float over twice the number of bins:
    neither sum can then overflow.  Such a bin's mass has all but underflowed.
    """
    s = np.abs(J) @ np.ones(J.shape[-1])
    bounded = s * (np.maximum(s, counts) * (2.0 * m.shape[-1] / _LARGEST)) < m
    inv_m = np.divide(1.0, m, out=np.zeros(bounded.shape), where=(m > _SMALLEST_NORMAL) & bounded)
    J_t = np.swapaxes(J, -1, -2)
    return (J_t @ (1.0 - counts * inv_m)[..., None])[..., 0], np.swapaxes(J * inv_m[..., None], -1, -2) @ J


def _inverse_information(counts, m, J):
    """I^-1 for the expected information I of ``_score_and_information`` (one matrix per row), or
    NaN in every entry when some I is singular: the asymptotic covariance of the estimate in the
    coordinates of J."""
    info = _score_and_information(counts, m, J)[1]
    try:
        return np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return np.full(info.shape, np.nan)


def _solve_rows(a, b):
    """x[r] with a[r] x[r] = b[r] for each row r, and which rows were solved (a singular a[r]
    leaves NaN): one singular matrix fails a stacked solve, so then the rows are solved one by one."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x, solved = np.full(b.shape, np.nan), np.zeros(len(a), dtype=bool)
        for r in range(len(a)):
            try:
                x[r], solved[r] = np.linalg.solve(a[r], b[r]), True
            except np.linalg.LinAlgError:
                pass
        return x, solved


def _fisher_refit(model, counts, z, at_z, max_iter=_REFIT_MAX_ITER, xtol=None):
    """Minimize the Poisson NLL of each row of ``counts`` (R, bins) by damped Fisher scoring,
    all rows in lockstep.

    ``z`` holds the starts and ``at_z`` = (m, J) the expected counts and their Jacobian
    J = dm/dz there; both broadcast against the rows of ``counts``.  ``model(z)`` gives m
    (k, bins) and J (k, bins, p) for k rows z (k, p) in one call, with NaN rows outside the
    objective's domain.  Each row runs its own fit: each iteration steps z <- z - s with
    (I + lam diag(I)) s = g, from the score and the expected information of
    ``_score_and_information`` (Marquardt damping).  A trial step is rejected while the
    NLL rises by more than its summation rounding (1e-14 relative) or leaves the domain;
    each rejection multiplies the row's lam by 10 (from 0 to 1e-3) and each accepted step
    divides it by 10 (back to 0 below 1e-3).  A row has converged once the undamped step
    (lam = 0) has every |s_k| <= tol_k, within ``max_iter`` accepted steps: tol_k is
    ``xtol[k]`` when the absolute tolerances ``xtol`` (p,) are given, else
    1e-10 max(1, |z_k|).  A singular information matrix, a non-finite step, or a damped
    step that small while the undamped one is not stops it unconverged.  Each pass
    evaluates the trial points of all rows still running through one ``model`` call.  Returns, per row, (z, converged,
    NLL at z, accepted steps, last undamped step s): a converged row's s is the step that met its tolerance.
    """
    rows = len(counts)
    z = np.array(np.broadcast_to(z, (rows, np.shape(z)[-1])), dtype=np.float64, order="C")
    f = _poisson_nll(counts, at_z[0])
    g, info = _score_and_information(counts, *at_z)
    lam, steps, last = np.zeros(rows), np.zeros(rows, dtype=np.int64), np.zeros_like(z)
    converged, running = np.zeros(rows, dtype=bool), np.ones(rows, dtype=bool)
    fresh = np.ones(rows, dtype=bool)  # at the start of an iteration: the last trial was accepted
    diagonal = np.arange(z.shape[1])
    while True:
        running &= ~(fresh & (steps >= max_iter))
        tol = _REFIT_XTOL * np.maximum(1.0, np.abs(z)) if xtol is None else np.broadcast_to(xtol, z.shape)
        step = np.zeros_like(z)
        new = np.flatnonzero(running & fresh)
        step[new], solved = _solve_rows(info[new], g[new])
        last[new] = step[new]
        done = np.all(np.abs(step[new]) <= tol[new], axis=1)
        converged[new[done]] = True
        running[new[done | ~solved]] = False
        damped = np.flatnonzero(running & (lam > 0.0))  # I solved above, so I + lam diag(I) is not singular either
        a = info[damped]
        a[:, diagonal, diagonal] += lam[damped, None] * a[:, diagonal, diagonal]
        step[damped] = _solve_rows(a, g[damped])[0]
        go = np.flatnonzero(running)
        stop = ~np.all(np.isfinite(step[go]), axis=1) | np.all(np.abs(step[go]) <= tol[go], axis=1)
        running[go[stop]] = False
        go = go[~stop]
        if go.size == 0:
            return z, converged, f, steps, last
        trial = z[go] - step[go]
        m, J = model(trial)
        f_trial = _poisson_nll(counts[go], m)
        ok = f_trial <= f[go] + _NLL_ROUNDING * np.abs(f[go])
        acc, rej = go[ok], go[~ok]
        z[acc], f[acc], steps[acc] = trial[ok], f_trial[ok], steps[acc] + 1
        g[acc], info[acc] = _score_and_information(counts[acc], m[ok], J[ok])
        lam[acc] = np.where(lam[acc] > _DAMPING_START, lam[acc] / 10.0, 0.0)
        lam[rej] = np.maximum(10.0 * lam[rej], _DAMPING_START)
        fresh[:] = False
        fresh[acc] = True


def fit_histogram(
    hist: ArrivalHistogram,
    fp: FixedParams,
    theta0: tuple[float, float, float] | None = None,
    *,
    fit_mu_infinity: bool = False,
    n_bootstrap: int = 0,
    bootstrap_seed: int = 0,
) -> FitResult:
    """Maximum-likelihood fit of (delta_mu, sigma_int, tau) to a histogram.

    sigma_int and tau are optimized in log space to enforce positivity;
    delta_mu (and mu_infinity in the optional four-parameter mode) is
    unconstrained.  Damped Fisher scoring (``_fisher_refit``) runs from
    ``_moment_start``, the mixture of the histogram's mean and variance, and,
    when ``theta0`` is given, from ``theta0`` too (``check_theta0`` rejects one
    outside the search box); the start with the lowest NLL wins, a converged
    one among starts of equal NLL.  The main fit stops at a step of at most
    1e-10 max(1, |z_k|).  ``n_bootstrap`` is 0 (no errors) or at least 2
    multinomial resamples, each refitted by the same scoring from the optimum
    until its undamped step s is at most ``_BOOTSTRAP_XTOL_PER_SE`` standard
    errors sqrt(diag(I(z_hat)^-1)) in every coordinate, and returns z - s: about
    1e-4 standard errors from its optimum, far below the spread the resamples
    measure (the main fit's rule and z when I(z_hat) cannot be inverted or an
    error is not finite and positive).  The starts run as rows of one lockstep
    solve and the resamples as rows of another, evaluated in kernel calls of at
    most ``_CELLS_PER_CALL`` cells.  Deterministic for fixed inputs (whatever
    that row split); bootstrap resampling is seeded.  With no start in ``_BOX``
    the ValueError names each start.
    """
    _check_bootstrap(n_bootstrap)
    if hist.total_events == 0:
        raise ValueError("empty histogram")
    if hist.total_events < 1000:
        raise ValueError(f"need at least 1000 events to fit, histogram has {hist.total_events}")
    counts = hist.counts.astype(np.float64)
    edges = hist.bin_edges
    total = int(hist.total_events)

    mixture, dz, n_max = _mixture_law(fp)
    p = 4 if fit_mu_infinity else 3

    # from an explicit theta0 far from the data scoring can end where sigma_int or tau -> 0,
    # so the start from the histogram's mean and variance runs as well
    starts = {} if theta0 is None else {"theta0": check_theta0(theta0)}
    starts["the moment start"] = _moment_start(hist, mixture, fp.mu_infinity)
    chunk = max(1, _CELLS_PER_CALL // (n_max * edges.size))

    def model_z(z):
        """Expected counts (k, bins) and their Jacobian (k, bins, p) in z for k rows of z, from one
        kernel pass per ``chunk`` rows inside the box; NaN rows where z is outside it."""
        m, J = np.full((len(z), counts.size), np.nan), np.full((len(z), counts.size, p), np.nan)
        inside = np.flatnonzero(_in_box(z))
        for rows in (inside[i : i + chunk] for i in range(0, inside.size, chunk)):
            sigma_int = np.exp(z[rows, 1])
            mix = mixture(z[rows, 0], sigma_int, np.exp(z[rows, 2]), z[rows, 3] if fit_mu_infinity else fp.mu_infinity)
            masses, J_in = mixture_bin_masses(mix, edges, dz=dz(mix, sigma_int, fit_mu_infinity))
            m[rows], J[rows] = total * masses, total * J_in
        return m, J

    def theta_of(z) -> np.ndarray:
        theta = np.array(z, dtype=np.float64)
        theta[..., 1:3] = np.exp(theta[..., 1:3])
        return theta

    z0 = np.array([[dmu, math.log(sigma_int), math.log(tau), fp.mu_infinity][:p]
                   for dmu, sigma_int, tau in starts.values()])
    inside = _in_box(z0)
    if not inside.any():
        raise ValueError(f"no start lies in the search box {_BOX}: " + "; ".join(
            f"{name} (delta_mu, sigma_int, tau) = ({', '.join(f'{v:.6g}' for v in s)})" for name, s in starts.items()))
    z0 = z0[inside]
    z_runs, converged, nll, steps, _ = _fisher_refit(model_z, np.broadcast_to(counts, (len(z0), counts.size)), z0,
                                                     model_z(z0))
    if not np.isfinite(nll).any():
        raise ValueError("fit objective is not finite anywhere near theta0")
    best = int(np.lexsort((~converged, nll))[0])  # the lowest NLL, and a converged row among equals
    z_hat = z_runs[best]
    theta_hat = theta_of(z_hat)

    # I(z_hat)^-1 carried to theta by dtheta/dz = diag(1, sigma_int, tau[, 1])
    at_hat = model_z(z_hat[None])
    scale = np.ones(p)
    scale[1:3] = theta_hat[1:3]
    info_inv = _inverse_information(counts, *at_hat)[0]
    cov = scale[:, None] * info_inv * scale[None, :]

    boot_errors = boot_converged = None
    if n_bootstrap > 0:
        rng = np.random.default_rng(bootstrap_seed)
        resamples = rng.multinomial(total, counts / counts.sum(), size=n_bootstrap).astype(np.float64)
        var_z = np.diag(info_inv)
        xtol = _BOOTSTRAP_XTOL_PER_SE * np.sqrt(var_z) if np.all((var_z > 0.0) & (var_z < np.inf)) else None
        z_boot, done, _, _, last = _fisher_refit(model_z, resamples, z_hat, at_hat, xtol=xtol)
        if xtol is not None:  # take the step that met the tolerance, without evaluating its point
            z_boot[done] -= last[done]
        boot_converged = int(done.sum())
        if boot_converged:
            boot_errors = tuple(float(v) for v in theta_of(z_boot).std(axis=0, ddof=1))

    return FitResult(
        delta_mu=float(theta_hat[0]),
        sigma_int=float(theta_hat[1]),
        tau=float(theta_hat[2]),
        negative_log_likelihood=float(nll[best]),
        converged=bool(converged[best]),
        iterations=int(steps.sum()),
        bootstrap_errors=boot_errors,
        covariance_proxy=cov,
        expected_counts=at_hat[0][0],
        mixture=mixture(*theta_hat[:3], theta_hat[3] if fit_mu_infinity else fp.mu_infinity),
        mu_infinity=float(theta_hat[3]) if fit_mu_infinity else None,
        bootstrap_converged=boot_converged,
    )


@dataclass(frozen=True)
class SinglePeakFit:
    """Windowed single-EMG fit: parameters, per-parameter errors, and goodness of fit.

    ``errors`` are sqrt(diag(I(theta_hat)^-1)) in (mu, sigma, tau): the inverse expected
    information of the window's bin counts m = events mass / sum(mass), the amplitude
    profiled out, as ``FitResult.covariance_proxy`` is for the mixture.  Near tau -> 0
    the mass's derivatives in mu and tau become collinear, so I is nearly singular and
    the errors of mu and tau grow without bound: only mu + tau is then determined.
    """

    params: EmgParams
    errors: tuple[float, float, float]
    events: int
    deviance: float
    dof: int
    converged: bool

    @property
    def total_jitter(self) -> float:
        return self.params.std


def fit_single_peak(hist: ArrivalHistogram, window: tuple[float, float]) -> SinglePeakFit:
    """Maximum-likelihood EMG fit restricted to bins inside ``window``.

    The amplitude is profiled out analytically, leaving (mu, sigma, tau),
    searched by Nelder-Mead in (mu, ln sigma, ln tau) from two starts.
    ``deviance`` is the likelihood-ratio statistic against the saturated
    model; compare to chi-square with ``dof`` degrees of freedom to detect a
    window that does not contain a single clean peak.
    """
    lo, hi = float(window[0]), float(window[1])
    if hi <= lo:
        raise ValueError("window must satisfy lo < hi")
    centers = hist.bin_centers
    sel = (centers >= lo) & (centers < hi)
    if not sel.any():
        raise ValueError("window contains no bins")
    idx = np.nonzero(sel)[0]
    c = hist.counts[idx].astype(np.float64)
    events = int(c.sum())
    if events < 100:
        raise ValueError(f"window too sparse: need at least 100 events, found {events}")
    sub_edges = hist.bin_edges[idx[0] : idx[-1] + 2]
    sub_centers = centers[idx]

    mean0 = float(np.dot(c, sub_centers) / events)
    var0 = float(np.dot(c, (sub_centers - mean0) ** 2) / events)
    width0 = math.sqrt(max(var0, hist.bin_width**2))
    t0 = s0 = width0 / math.sqrt(2.0)
    mu0 = mean0 - t0

    pos = c > 0.0

    def nll_z(z):
        if abs(z[1]) > 50.0 or abs(z[2]) > 50.0:
            return math.inf
        mass = mixture_bin_masses(MixtureModel([1.0], [z[0]], [math.exp(z[1])], [math.exp(z[2])]), sub_edges)
        mass_sum = mass.sum()
        if mass_sum <= 0.0:
            return math.inf
        m = events * mass / mass_sum
        if np.any(m[pos] <= 0.0):
            return math.inf
        return float(events - np.dot(c[pos], np.log(m[pos])))

    from scipy.optimize import minimize  # only this fit needs it, and importing it is slow

    z0 = np.array([mu0, math.log(s0), math.log(t0)])
    z_alt = np.array([mu0 + width0 / 2.0, math.log(s0 * 1.3), math.log(t0 * 0.7)])
    f_ref = nll_z(z0)
    fatol = 1e-10 * max(1.0, abs(f_ref) if math.isfinite(f_ref) else 1.0)
    options = {"xatol": 1e-8, "fatol": fatol, "maxiter": 8000, "maxfev": 8000}
    runs = [minimize(nll_z, z, method="Nelder-Mead", options=options) for z in (z0, z_alt)]
    finite = [r for r in runs if math.isfinite(r.fun)]
    if not finite:
        raise ValueError("single-peak objective is not finite near the moment start")
    best = min(finite, key=lambda r: r.fun)
    mu, sigma, tau = float(best.x[0]), float(math.exp(best.x[1])), float(math.exp(best.x[2]))

    # the window's counts m = events mass / S, S = sum(mass), and their Jacobian in (mu, sigma, tau)
    mass, J = mixture_bin_masses(MixtureModel([1.0], [mu], [sigma], [tau]), sub_edges, dz=np.eye(3)[:, :, None])
    mass_sum = mass.sum()
    m = events * mass / mass_sum
    J_m = events * (J - np.outer(mass, J.sum(axis=0)) / mass_sum) / mass_sum
    errors = tuple(float(e) for e in np.sqrt(np.diag(_inverse_information(c, m, J_m))))
    deviance = float(2.0 * np.dot(c[pos], np.log(c[pos] / m[pos])))
    dof = max(int(c.size - 4), 1)
    return SinglePeakFit(
        params=EmgParams(mu, sigma, tau),
        errors=errors,
        events=events,
        deviance=deviance,
        dof=dof,
        converged=bool(best.success),
    )


def total_width(hist: ArrivalHistogram) -> tuple[float, float]:
    """Event-weighted standard deviation of bin centers with its standard error.

    The error is the delta-method error of a standard deviation over N events,
    ``sqrt((mu4 - mu2**2) / (4 mu2 N))``, with the central moments mu2 and mu4
    of the bin centers taken about the same weighted mean; it is the spread a
    multinomial resampling of event-to-bin assignments estimates.  A histogram
    whose events all sit in one bin returns (0.0, 0.0).
    """
    if hist.total_events < 1:
        raise ValueError("empty histogram")
    centers = hist.bin_centers
    w = hist.counts / hist.total_events
    d2 = (centers - np.dot(w, centers)) ** 2
    m2 = float(np.dot(w, d2))
    if m2 == 0.0:
        return 0.0, 0.0
    m4 = float(np.dot(w, d2 * d2))
    return math.sqrt(m2), math.sqrt(max(m4 - m2 * m2, 0.0) / (4.0 * m2 * hist.total_events))
