"""Synthetic time-tag generation for swept mean photon numbers.

Each event draws a photon number from the click-conditioned Poisson
distribution, optionally collapses it to the number of distinct detector
elements hit (domain-merge model), and draws an arrival time from the EMG
component of that effective photon number.  The photon number is a
guide-table search of one uniform in the weights' CDF, the same number that
``rng.choice(p=weights)`` draws from the same generator.  Weights and
components are the arrays of ``fit.mixture_from_params`` at the budget's
(sigma_int, tau) and the detector's delta_mu, the same model the fit and the
sweep evaluate.  Triggers sit on a fixed 9.5 kHz comb; the canonical event
time is (trigger + arrival) - trigger evaluated in float64, so CSV round-trips
reproduce in-memory results bit for bit.

Generation is chunked, and every chunk seeds its own generator from
(seed, bits(n_bar), chunk_index), so results are identical for any worker
count and duplicated n_bar entries yield identical tag streams.  The
SNSPD_PNR_THREADS environment variable caps the worker count.  The sweep's
width errors are closed-form, so the tag streams are its only random draws.
"""

from __future__ import annotations

import enum
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .budget import JitterBudget
from .dist import EmgParams, MixtureModel, emg_sample, mixture_moments
from .fit import FixedParams, mixture_from_params, total_width
from .histogram import ArrivalHistogram
from .io import TimeTagTable, write_time_tags
from .overlap import occupied_element_counts
from .pulse import DetectorConfig

TRIGGER_PERIOD_PS = 1e12 / 9500.0  # 9.5 kHz pulse comb
_CHUNK_EVENTS = 200_000


class MergeModel(str, enum.Enum):
    OFF = "off"
    OCCUPIED_ELEMENTS = "occupied_elements"


@dataclass(frozen=True)
class SimPlan:
    detector: DetectorConfig
    budget: JitterBudget
    n_bar_values: tuple[float, ...]
    events_per_source: int
    merge_model: MergeModel = MergeModel.OFF
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_bar_values", tuple(float(v) for v in self.n_bar_values))
        object.__setattr__(self, "merge_model", MergeModel(self.merge_model))
        if not self.n_bar_values:
            raise ValueError("n_bar_values must not be empty")
        if any(not (math.isfinite(v) and v > 0.0) for v in self.n_bar_values):
            raise ValueError("n_bar values must be positive")
        if self.events_per_source < 1:
            raise ValueError("events_per_source must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.merge_model is MergeModel.OCCUPIED_ELEMENTS and self.detector.grid is None:
            raise ValueError("merge model needs detector.grid")


@dataclass(frozen=True)
class SourceTags:
    """Per-source synthetic tags plus the generating photon numbers."""

    n_bar: float
    trigger_ps: np.ndarray
    edge_ps: np.ndarray
    photon_number: np.ndarray   # drawn photon number n per event
    component: np.ndarray       # effective photon number after merging
    mixture: MixtureModel       # the unmerged mixture n and the arrival times are drawn from

    @property
    def delta_ps(self) -> np.ndarray:
        return self.edge_ps - self.trigger_ps

    def to_table(self) -> TimeTagTable:
        return TimeTagTable(self.trigger_ps, self.edge_ps, self.n_bar)


def _nbar_entropy(n_bar: float) -> int:
    return int(np.float64(n_bar).view(np.uint64))


def _thread_count() -> int:
    raw = os.environ.get("SNSPD_PNR_THREADS", "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"SNSPD_PNR_THREADS must be an integer, got {raw!r}") from exc
    return max(1, n)


def _draw_photon_numbers(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Photon numbers ``searchsorted(cdf, u, side="right") + 1`` for uniforms ``u``.

    The ``cdf`` is formed exactly as ``rng.choice(np.arange(1, n_max + 1),
    p=weights)`` forms it, so with ``u = rng.random(count)`` the result is
    that call's draw bit for bit.  The search goes through a guide table
    (Chen & Asau 1974) of G equal buckets, G a power of two of at least
    16 n_max so that ``u * G`` is exact.  Every u in a bucket that no CDF
    entry falls strictly inside has the same answer, the count of entries at
    or below the bucket's lower edge; only the events in the other buckets (at
    most n_max of the G, a few percent of the events) are searched.
    """
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    size = 16 << (cdf.size - 1).bit_length()
    edges = np.arange(size + 1) / size
    lo = cdf.searchsorted(edges[:-1], side="right")
    ambiguous = cdf.searchsorted(edges[1:], side="left") > lo
    guide = np.where(ambiguous, 0, lo + 1)  # 0 marks a bucket that must be searched
    ns = guide.take((u * size).astype(np.intp))
    todo = np.flatnonzero(ns == 0)
    ns[todo] = cdf.searchsorted(u[todo], side="right") + 1
    return ns


def _generate_chunk(plan: SimPlan, n_bar: float, mix: MixtureModel, chunk_index: int, start: int, count: int):
    seed_seq = np.random.SeedSequence((plan.seed, _nbar_entropy(n_bar), chunk_index))
    rng = np.random.default_rng(seed_seq)
    ns = _draw_photon_numbers(mix.weights, rng.random(count))
    if plan.merge_model is MergeModel.OCCUPIED_ELEMENTS:
        ks = occupied_element_counts(plan.detector.grid, ns, rng)
    else:
        ks = ns.copy()
    arrivals = np.empty(count)
    # stable, so each k's events keep ascending index order; keys of at most
    # 16 bits take numpy's radix sort
    order = np.argsort(ks.astype(np.min_scalar_type(ks.max())), kind="stable")
    ends = np.cumsum(np.bincount(ks))
    for k in np.flatnonzero(np.diff(ends, prepend=0)):
        idx = order[ends[k - 1] : ends[k]]
        arrivals[idx] = emg_sample(EmgParams(mix.mu[k - 1], mix.sigma[k - 1], mix.tau[k - 1]), rng, idx.size)
    trigger = (start + np.arange(count, dtype=np.float64)) * TRIGGER_PERIOD_PS
    edge = trigger + arrivals
    return ns, ks, trigger, edge


def simulate_tags(plan: SimPlan) -> list[SourceTags]:
    """Generate one tag table per n_bar value, deterministically from the plan seed."""
    threads = _thread_count()
    out: list[SourceTags] = []
    for n_bar in plan.n_bar_values:
        fp = FixedParams.from_budget(plan.budget, plan.detector.mu_infinity, n_bar)
        mix = mixture_from_params(fp, (plan.detector.delta_mu, plan.budget.sigma_int, plan.budget.tau))
        total = plan.events_per_source
        chunks = []
        start = 0
        index = 0
        while start < total:
            count = min(_CHUNK_EVENTS, total - start)
            chunks.append((index, start, count))
            index += 1
            start += count

        def run(chunk, _n_bar=n_bar, _mix=mix):
            ci, st, m = chunk
            return _generate_chunk(plan, _n_bar, _mix, ci, st, m)

        if threads > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                pieces = list(pool.map(run, chunks))
        else:
            pieces = [run(c) for c in chunks]
        if len(pieces) == 1:
            ns, ks, trigger, edge = pieces[0]
        else:
            ns, ks, trigger, edge = (np.concatenate(column) for column in zip(*pieces))
        out.append(SourceTags(n_bar, trigger, edge, ns, ks, mix))
    return out


def write_source_files(tags: list[SourceTags], out_dir, plan: SimPlan) -> dict:
    """Write one tag CSV per source plus a manifest JSON; returns the manifest."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, st in enumerate(tags):
        name = f"tags_{i:03d}.csv"
        write_time_tags(out_path / name, st.to_table())
        entries.append({"file": name, "n_bar": st.n_bar, "events": int(st.trigger_ps.size)})
    manifest = {
        "version": __version__,
        "seed": plan.seed,
        "merge_model": plan.merge_model.value,
        "events_per_source": plan.events_per_source,
        "trigger_period_ps": TRIGGER_PERIOD_PS,
        "sources": entries,
    }
    with open(out_path / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


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
