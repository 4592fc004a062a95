"""Synthetic time-tag generation for swept mean photon numbers.

Each chunk draws, per event and in this order: a photon number n from the
click-conditioned Poisson weights, a standard normal z, a standard exponential
e and, under the domain-merge model, the number K of distinct elements hit.
The arrival is z sigma[k] + mu[k] + e tau[k] for the event's effective photon
number k + 1 (K, or n), so a merged source shares every n, z and e with its
unmerged twin.  n and K each search one uniform through ``dist._GuideTable``:
n in the weights' CDF, as ``rng.choice(p=weights)`` draws it, and K in row n
of ``overlap.occupied_law``.  Weights and components are the arrays of
``fit.mixture_from_params`` at the budget's (sigma_int, tau) and the
detector's delta_mu, the model the fit and the sweep evaluate.  Triggers sit
on a fixed 9.5 kHz comb, built once per call and shared, read-only, by every
source; a source keeps only its edges, trigger + arrival.  The canonical event
time is (trigger + arrival) - trigger in float64, so CSV round-trips reproduce
in-memory results bit for bit.

Generation runs each source's chunks in order, and every chunk seeds its own
generator from (seed, bits(n_bar), chunk_index), so duplicated n_bar entries
yield identical tag streams.  A call allocates one workspace of chunk-sized
buffers (a uniform, an exponential, n and K) that every chunk of every source
draws into with the ``out=`` forms of the draws, which consume the generator
as the ``size=`` forms do; z goes straight into the source's edge array, and
the comb is added once its chunks are drawn.  The module only draws, and keeps
no per-event photon numbers: ``cli`` writes the tag files and the manifest.
The sweep's width errors are closed-form, so the tag streams are its only
random draws.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .budget import JitterBudget
from .dist import MixtureModel, _GuideTable, check_n_bar, mixture_moments
from .fit import FixedParams, mixture_from_params, total_width
from .histogram import ArrivalHistogram, check_bin_width
from .io import TimeTagTable
from .overlap import occupied_element_counts
from .pulse import DetectorConfig

TRIGGER_PERIOD_PS = 1e12 / 9500.0  # 9.5 kHz pulse comb
_CHUNK_EVENTS = 200_000


class MergeModel(str, enum.Enum):
    OFF = "off"
    OCCUPIED_ELEMENTS = "occupied_elements"


@dataclass(frozen=True)
class SimPlan:
    """Sources, events per source, merge model and seed of a simulation; the config's ``sim`` section.

    ``__post_init__`` is the one home of its checks.  Each ValueError message starts with
    the offending field's name, so ``load_config`` reports it as ``config.sim.<message>``.
    """

    detector: DetectorConfig
    budget: JitterBudget
    n_bar_values: tuple[float, ...]
    events_per_source: int
    merge_model: MergeModel = MergeModel.OFF
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_bar_values", tuple(check_n_bar(v, "n_bar_values") for v in self.n_bar_values))
        if not self.n_bar_values:
            raise ValueError("n_bar_values: must be non-empty, got []")
        if self.events_per_source < 1:
            raise ValueError(f"events_per_source: must be >= 1, got {self.events_per_source}")
        try:
            object.__setattr__(self, "merge_model", MergeModel(self.merge_model))
        except ValueError:
            expected = [m.value for m in MergeModel]
            raise ValueError(f"merge_model: expected one of {expected}, got {self.merge_model!r}") from None
        if self.merge_model is MergeModel.OCCUPIED_ELEMENTS and self.detector.grid is None:
            raise ValueError(f"merge_model: {self.merge_model.value!r} needs detector.grid")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed: must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class SourceTags(TimeTagTable):
    """One source's synthetic tags and the mixture they are drawn from.

    ``trigger_ps`` is the read-only comb ``arange(events) * TRIGGER_PERIOD_PS``
    that every source of one ``simulate_tags`` call shares.
    """

    mixture: MixtureModel = field(kw_only=True)  # the unmerged mixture n and the arrival times are drawn from


def _nbar_entropy(n_bar: float) -> int:
    return int(np.float64(n_bar).view(np.uint64))


def _draw_photon_numbers(weights: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Photon numbers ``searchsorted(cdf, u, side="right") + 1`` for uniforms ``u``, by the guide table,
    written into ``out`` (intp) if given.

    The ``cdf`` is formed exactly as ``rng.choice(np.arange(1, n_max + 1),
    p=weights)`` forms it, so with ``u = rng.random(count)`` the result is
    that call's draw bit for bit.
    """
    n = _GuideTable(weights[None]).search(u, out=out)
    n += 1
    return n


def _chunk_arrivals(plan: SimPlan, n_bar: float, mix: MixtureModel, chunk_index: int, arrivals: np.ndarray,
                    work: tuple[np.ndarray, ...]) -> None:
    """Draw one chunk's arrival times into ``arrivals``, through the first ``arrivals.size`` entries of the
    call's workspace ``work``: a uniform (once n and K are drawn, the gathers' scratch), an exponential, an n
    and a K array."""
    seed_seq = np.random.SeedSequence((plan.seed, _nbar_entropy(n_bar), chunk_index))
    rng = np.random.default_rng(seed_seq)
    u, tail, n_out, k_out = (a[: arrivals.size] for a in work)
    k = n = _draw_photon_numbers(mix.weights, rng.random(out=u), n_out)
    rng.standard_normal(out=arrivals)
    rng.standard_exponential(out=tail)
    if plan.merge_model is MergeModel.OCCUPIED_ELEMENTS:
        k = occupied_element_counts(plan.detector.grid, n, rng, k_out, u)
    # the operations of rng.normal(mu[k], sigma[k]) + rng.exponential(tau[k]), in place; every k is a
    # component, and take's default mode="raise" would allocate a copy of u for each gather
    k -= 1
    arrivals *= np.take(mix.sigma, k, out=u, mode="clip")
    arrivals += np.take(mix.mu, k, out=u, mode="clip")
    tail *= np.take(mix.tau, k, out=u, mode="clip")
    arrivals += tail


def simulate_tags(plan: SimPlan) -> list[SourceTags]:
    """Generate one tag table per n_bar value, deterministically from the plan seed."""
    events = plan.events_per_source
    starts = range(0, events, _CHUNK_EVENTS)
    size = min(events, _CHUNK_EVENTS)
    work = (np.empty(size), np.empty(size), np.empty(size, np.intp), np.empty(size, np.intp))
    trigger = np.arange(events, dtype=np.float64)
    trigger *= TRIGGER_PERIOD_PS
    trigger.flags.writeable = False
    out: list[SourceTags] = []
    for n_bar in plan.n_bar_values:
        fp = FixedParams.from_budget(plan.budget, plan.detector.mu_infinity, n_bar)
        mix = mixture_from_params(fp, (plan.detector.delta_mu, plan.budget.sigma_int, plan.budget.tau))
        edge = np.empty(events)
        for i, start in enumerate(starts):
            _chunk_arrivals(plan, n_bar, mix, i, edge[start : start + _CHUNK_EVENTS], work)
        edge += trigger
        out.append(SourceTags(trigger, edge, n_bar, mixture=mix))
    return out


@dataclass(frozen=True)
class SweepRow:
    """One source of a sweep: simulated width, its standard error, analytic width (ps)."""

    n_bar: float
    sigma_hist: float
    sigma_error: float
    sigma_model: float


def _source_row(plan: SimPlan, n_bar: float, bin_width: float) -> SweepRow:
    """One source's row of ``sweep_total_width``; its tags are freed when this returns."""
    st = simulate_tags(replace(plan, n_bar_values=(n_bar,)))[0]
    delay = st.edge_ps
    delay -= st.trigger_ps  # st.delta_ps, in place: the source is not used again
    hist = ArrivalHistogram.from_events(delay, bin_width, st.n_bar)
    sigma_hist, sigma_err = total_width(hist)
    _, sigma_model = mixture_moments(st.mixture)
    return SweepRow(st.n_bar, sigma_hist, sigma_err, sigma_model)


def sweep_total_width(plan: SimPlan, bin_width: float = 2.0) -> list[SweepRow]:
    """Simulated histogram width vs n_bar alongside the analytic mixture width.

    Each width and its error come from ``total_width`` (delta-method standard
    error, no resampling).  The analytic column evaluates the law of total
    variance for the mixture the simulator draws from, before merging, so it
    is the merge-off reference curve.  ``bin_width`` is checked before any
    draw.  Sources are simulated one at a time, each binned and dropped before
    the next is drawn, so only one source's tags are held at once; a source's
    draws depend only on (seed, n_bar, chunk), so they are those of one call
    for all sources.
    """
    check_bin_width(bin_width)
    return [_source_row(plan, n_bar, bin_width) for n_bar in plan.n_bar_values]
