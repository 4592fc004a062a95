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
yield identical tag streams.  The module only draws, and keeps no per-event
photon numbers: ``cli`` writes the tag files and the manifest.  The sweep's
width errors are closed-form, so the tag streams are its only random draws.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .budget import JitterBudget
from .dist import MAX_N_BAR, MixtureModel, _GuideTable, mixture_moments
from .fit import FixedParams, mixture_from_params, total_width
from .histogram import ArrivalHistogram
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
        object.__setattr__(self, "n_bar_values", tuple(float(v) for v in self.n_bar_values))
        if not (self.n_bar_values and all(0.0 < v <= MAX_N_BAR for v in self.n_bar_values)):
            raise ValueError(f"n_bar_values: must be non-empty, positive and at most {MAX_N_BAR:g}, "
                             f"got {list(self.n_bar_values)}")
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


def _draw_photon_numbers(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Photon numbers ``searchsorted(cdf, u, side="right") + 1`` for uniforms ``u``, by the guide table.

    The ``cdf`` is formed exactly as ``rng.choice(np.arange(1, n_max + 1),
    p=weights)`` forms it, so with ``u = rng.random(count)`` the result is
    that call's draw bit for bit.
    """
    return _GuideTable(weights[None]).search(u) + 1


def _chunk_arrivals(plan: SimPlan, n_bar: float, mix: MixtureModel, chunk_index: int, count: int) -> np.ndarray:
    seed_seq = np.random.SeedSequence((plan.seed, _nbar_entropy(n_bar), chunk_index))
    rng = np.random.default_rng(seed_seq)
    ks = ns = _draw_photon_numbers(mix.weights, rng.random(count))
    arrivals = rng.standard_normal(count)
    tail = rng.standard_exponential(count)
    if plan.merge_model is MergeModel.OCCUPIED_ELEMENTS:
        ks = occupied_element_counts(plan.detector.grid, ns, rng)
    # the operations of rng.normal(mu[k], sigma[k]) + rng.exponential(tau[k]), in place
    k = ks - 1
    arrivals *= mix.sigma[k]
    arrivals += mix.mu[k]
    tail *= mix.tau[k]
    arrivals += tail
    return arrivals


def simulate_tags(plan: SimPlan) -> list[SourceTags]:
    """Generate one tag table per n_bar value, deterministically from the plan seed."""
    events = plan.events_per_source
    counts = [min(_CHUNK_EVENTS, events - start) for start in range(0, events, _CHUNK_EVENTS)]
    trigger = np.arange(events, dtype=np.float64) * TRIGGER_PERIOD_PS
    trigger.flags.writeable = False
    out: list[SourceTags] = []
    for n_bar in plan.n_bar_values:
        fp = FixedParams.from_budget(plan.budget, plan.detector.mu_infinity, n_bar)
        mix = mixture_from_params(fp, (plan.detector.delta_mu, plan.budget.sigma_int, plan.budget.tau))
        pieces = [_chunk_arrivals(plan, n_bar, mix, i, count) for i, count in enumerate(counts)]
        edge = trigger + (pieces[0] if len(pieces) == 1 else np.concatenate(pieces))
        out.append(SourceTags(trigger, edge, n_bar, mixture=mix))
    return out


@dataclass(frozen=True)
class SweepRow:
    """One source of a sweep: simulated width, its standard error, analytic width (ps)."""

    n_bar: float
    sigma_hist: float
    sigma_error: float
    sigma_model: float


def sweep_total_width(plan: SimPlan, bin_width: float = 2.0) -> list[SweepRow]:
    """Simulated histogram width vs n_bar alongside the analytic mixture width.

    Each width and its error come from ``total_width`` (delta-method standard
    error, no resampling).  The analytic column evaluates the law of total
    variance for the mixture the simulator draws from, before merging, so it
    is the merge-off reference curve.  Sources are simulated one at a time,
    so only one source's tags are held at once; a source's draws depend only
    on (seed, n_bar, chunk), so they are those of one call for all sources.
    """
    rows = []
    for n_bar in plan.n_bar_values:
        st = simulate_tags(replace(plan, n_bar_values=(n_bar,)))[0]
        hist = ArrivalHistogram.from_events(st.delta_ps, bin_width, st.n_bar)
        sigma_hist, sigma_err = total_width(hist)
        _, sigma_model = mixture_moments(st.mixture)
        rows.append(SweepRow(st.n_bar, sigma_hist, sigma_err, sigma_model))
    return rows
