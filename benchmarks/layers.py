"""Per-layer metrics computed from the spans of a traced run.

Each metric names the workloads it is read on (its homes, as in README.md).
A traced run computes a metric from the selected workload's spans when that
workload is one of its homes; for the other metrics it runs one round of the
first home after the measured rounds (a companion round), so every traced
run reports every metric and each metric always comes from a workload whose
path goes through its layer.
"""

from __future__ import annotations

import statistics

HIST, SWEEP, GEOM = "hist-bootstrap", "sweep-merge", "geom-mc"


class View:
    """Spans of one workload's measured rounds (or its preparation)."""

    def __init__(self, tracer, work, phase: str = "op") -> None:
        tag = f"{work.name}:{phase}"
        self.spans = [s for s in tracer.spans if s[6] == tag]
        self.tracer = tracer
        self.work = work

    def of(self, name: str) -> list:
        found = [s for s in self.spans if s[2] == name]
        if not found:
            raise LookupError(f"no {name} spans on {self.work.name}")
        return found

    def median_s(self, name: str) -> float:
        return statistics.median(s[4] - s[3] for s in self.of(name))

    def rate(self, name: str) -> float:
        """Work per second over all calls: total size over total span time."""
        spans = self.of(name)
        return sum(s[5] for s in spans) / sum(s[4] - s[3] for s in spans)

    def median_self_s(self, name: str) -> float:
        own = self.tracer.self_time()
        return statistics.median(own[s[0]] for s in self.of(name))

    def evals_per_fit(self) -> list[int]:
        """Model evaluations (bin-mass calls) made directly by each fit."""
        fits = {s[0]: 0 for s in self.of("fit.fit_histogram")}
        for s in self.spans:
            if s[2] == "dist.mixture_bin_masses" and s[1] in fits:
                fits[s[1]] += 1
        return list(fits.values())

    def budget_calls_in_fits(self) -> int:
        fits = {s[0] for s in self.of("fit.fit_histogram")}
        return sum(n for per_span in self.tracer.counts.values() for sid, n in per_span.items() if sid in fits)

    def obs(self, key: str) -> float:
        return statistics.median(self.work.obs[key])

    def prep(self) -> "View":
        """The same workload's preparation, e.g. the bootstrap-free fit of its tag CSV."""
        return View(self.tracer, self.work, "prep")


def _bootstrap_resample_ms(v: View) -> float:
    """Bootstrapped fit minus the bootstrap-free fit of the same histogram, per resample."""
    boot = [s for s in v.of("fit.fit_histogram") if s[5] > 0]
    plain = v.prep().median_s("fit.fit_histogram")
    return 1e3 * (statistics.median(s[4] - s[3] for s in boot) - plain) / boot[0][5]


def _fit_seconds(v: View) -> float:
    return sum(s[4] - s[3] for s in v.of("fit.fit_histogram"))


# name -> (unit, homes, value from the view of a home workload)
METRICS = {
    "io.read_time_tags.rows_per_s": ("rows/s", (HIST,), lambda v: v.prep().rate("io.read_time_tags")),
    "io.read_histogram_csv.ms": ("ms", (HIST,), lambda v: 1e3 * v.median_s("io.read_histogram_csv")),
    "histogram.from_events.events_per_s": ("events/s", (SWEEP,), lambda v: v.rate("histogram.from_events")),
    "sim.simulate_tags.merge_events_per_s": ("events/s", (SWEEP,), lambda v: v.rate("sim.simulate_tags")),
    "overlap.occupied_element_counts.events_per_s": ("events/s", (SWEEP,),
                                                     lambda v: v.rate("overlap.occupied_element_counts")),
    "fit.total_width.ms": ("ms/source", (SWEEP,), lambda v: 1e3 * v.median_s("fit.total_width")),
    "dist.conditioned_poisson_weights.us": ("us", (SWEEP,),
                                            lambda v: 1e6 * v.median_s("dist.conditioned_poisson_weights")),
    "fit.fit_histogram.s": ("s", (HIST,), lambda v: v.median_s("fit.fit_histogram")),
    "fit.iterations": ("count", (HIST,), lambda v: v.obs("iterations")),
    "fit.model_evals": ("count/fit", (HIST,), lambda v: statistics.median(v.evals_per_fit())),
    "fit.bootstrap_resample_ms": ("ms", (HIST,), _bootstrap_resample_ms),
    "fit.us_per_model_eval": ("us", (HIST,), lambda v: 1e6 * _fit_seconds(v) / sum(v.evals_per_fit())),
    "budget.calls_per_model_eval": ("count", (HIST,),
                                    lambda v: v.budget_calls_in_fits() / sum(v.evals_per_fit())),
    "dist.mixture_bin_masses.us": ("us", (HIST,), lambda v: 1e6 * v.median_s("dist.mixture_bin_masses")),
    "dist.mixture_bin_masses.ns_per_cell": ("ns", (HIST,), lambda v: 1e9 / v.rate("dist.mixture_bin_masses")),
    "geom.geom_mc.s": ("s", (GEOM,), lambda v: v.median_s("geom.geom_mc")),
    "geom.geom_histogram.samples_per_s": ("samples/s", (GEOM,), lambda v: v.rate("geom.geom_histogram")),
    "cli.fit.self_ms": ("ms", (HIST,), lambda v: 1e3 * v.median_self_s("cli.fit")),
    "cli.sweep.self_ms": ("ms", (SWEEP,), lambda v: 1e3 * v.median_self_s("cli.sweep")),
    "cli.geom.self_ms": ("ms", (GEOM,), lambda v: 1e3 * v.median_self_s("cli.geom")),
}


def source(metric: str, selected: str) -> str:
    homes = METRICS[metric][1]
    return selected if selected in homes else homes[0]


def companions(selected: str) -> list[str]:
    """Workloads that get one companion round in a traced run of ``selected``."""
    return sorted({source(m, selected) for m in METRICS} - {selected})


def per_layer(tracer, works: dict, selected: str) -> dict[str, tuple[float, str]]:
    out = {}
    for name, (unit, _, value) in METRICS.items():
        out[name] = (float(value(View(tracer, works[source(name, selected)]))), unit)
    return out
