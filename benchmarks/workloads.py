"""The three workloads: their inputs, their CLI operations and the checks on each output.

A workload writes its inputs in ``setup`` (timed as part of ``setup_s``),
builds what its checks compare against in ``prepare`` (not timed), and lists
the CLI invocations of one round in ``round_ops``.  ``prep_ops`` are
invocations made once, before the measured rounds, whose outputs later
checks need.  Every invocation is an operation: it fails when it exits
non-zero or when its check returns a message.
"""

from __future__ import annotations

import json
import shutil
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference as ref

N_BAR = 3.0
EVENTS = 570_000
BIN_WIDTH = 2.0
FIT_BOOTSTRAP = 100
SWEEP_N_BAR = tuple(float(n) for n in range(1, 21))
SWEEP_EVENTS = 200_000
ELEMENTS = 24
GEOM_N = tuple(range(1, 11))
GEOM_SAMPLES = 200_000
WIRE_LENGTH_UM = 200.0
SIGNAL_VELOCITY = 6.0

TAG_COLUMNS = "trigger_ps,edge_ps"
HIST_COLUMNS = "bin_center_ps,count"
RESIDUAL_COLUMNS = "bin_center_ps,count,expected,pearson"

# README detector and budget.
DETECTOR = {
    "kinetic_inductance": 500.0,
    "amplitude": 100.0,
    "noise_floor": 10.0,
    "delta_mu": 289.0,
    "mu_infinity": 144.0,
    "rise_time_1": 300.0,
    "wire": {"length": WIRE_LENGTH_UM, "signal_velocity": SIGNAL_VELOCITY, "ground_velocity": 140.0},
    "grid": {"element_count": ELEMENTS},
}
BUDGET = {
    "sigma_inst": 3.0,
    "sigma_opt": 1.0,
    "sigma_int": 6.0,
    "tau": 6.0,
    "sigma_elec": 4.9,
    "slew_rate_1": 1.08,
    "sigma_geom_1": 9.0,
}

# Fields of fit_result.json that describe the main fit, not the input or the bootstrap.
MAIN_FIT_FIELDS = ("delta_mu_ps", "sigma_int_ps", "tau_ps", "mu_infinity_ps", "negative_log_likelihood",
                   "converged", "iterations", "covariance_proxy", "components")


@dataclass(frozen=True)
class Op:
    args: list[str]
    check: Callable[[], list[str]]  # run after exit code 0; reads the outputs from disk


def write_config(path: Path, seed: int, **sections) -> None:
    cfg = {"seed": seed, "detector": DETECTOR, "budget": BUDGET, **sections}
    path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_tag_csv(path: Path, trigger, edge, n_bar: float) -> None:
    rows = "\n".join(f"{_fmt(t)},{_fmt(e)}" for t, e in zip(trigger.tolist(), edge.tolist()))
    path.write_text(f"# n_bar={_fmt(n_bar)}\n# unit=ps\n{TAG_COLUMNS}\n{rows}\n", encoding="utf-8")


def write_hist_csv(path: Path, edges, counts, n_bar: float) -> None:
    centers = (edges[:-1] + edges[1:]) / 2.0
    rows = "\n".join(f"{_fmt(c)},{int(k)}" for c, k in zip(centers, counts))
    path.write_text(f"# n_bar={_fmt(n_bar)}\n# unit=ps\n{HIST_COLUMNS}\n{rows}\n", encoding="utf-8")


def read_json(path: Path):
    return checks.strict_json(path.read_text(encoding="utf-8"))


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.obs: dict[str, list] = defaultdict(list)  # per-op observations for the traced metrics
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def prep_ops(self) -> list[Op]:
        return []

    def round_ops(self) -> list[Op]:
        raise NotImplementedError

    def _check_fit_outputs(self, out: Path) -> tuple[list[str], dict, np.ndarray, np.ndarray]:
        """θ̂ recovery, expected column against the reference at θ̂, deviance band."""
        result = read_json(out / "fit_result.json")
        _, table = checks.read_csv(out / "fit_residuals.csv", RESIDUAL_COLUMNS)
        centers, counts, expected = table[:, 0], table[:, 1], table[:, 2]
        edges = np.append(centers - BIN_WIDTH / 2.0, centers[-1] + BIN_WIDTH / 2.0)
        theta = (result["delta_mu_ps"], result["sigma_int_ps"], result["tau_ps"])
        failures = []
        if result["converged"] is not True:
            failures.append("fit_result.json reports converged = false")
        failures += checks.check_theta(theta)
        failures += checks.check_expected(theta, N_BAR, edges, counts, expected)
        failures += checks.check_deviance(counts, expected)
        return failures, result, edges, counts


class HistBootstrap(Workload):
    """Fit a 155-row histogram CSV with 100 bootstrap refits: model evaluations dominate, io is negligible."""

    name = "hist-bootstrap"

    def setup(self) -> None:
        self.config = self.work / "run.json"
        self.hist = self.work / "hist.csv"
        write_config(self.config, self.seed, fit={"n_bar": N_BAR, "bin_width": BIN_WIDTH})
        self.trigger, self.edge = ref.sample_tags(ref.Model(), N_BAR, EVENTS, self.seed)
        self.edges, counts = ref.aligned_histogram(self.edge - self.trigger, BIN_WIDTH)
        write_hist_csv(self.hist, self.edges, counts, N_BAR)

    def prepare(self) -> None:
        self.tags = self.work / "tags.csv"
        write_tag_csv(self.tags, self.trigger, self.edge, N_BAR)
        self.cramer_rao = ref.cramer_rao_errors(ref.Model(), N_BAR, self.edges, EVENTS)
        self.tag_fit = None

    def prep_ops(self) -> list[Op]:
        return [Op(["fit", str(self.tags), "-c", str(self.config), "-o", str(self.work / "tag_fit"),
                    "--bootstrap", "0"], self.check_tag_fit)]

    def round_ops(self) -> list[Op]:
        return [Op(["fit", str(self.hist), "-c", str(self.config), "-o", str(self.work / "hist_fit"),
                    "--bootstrap", str(FIT_BOOTSTRAP)], self.check_hist_fit)]

    def check_tag_fit(self) -> list[str]:
        out = self.work / "tag_fit"
        failures, result, _, _ = self._check_fit_outputs(out)
        if not failures:
            self.tag_fit = ({k: result[k] for k in MAIN_FIT_FIELDS},
                            (out / "fit_residuals.csv").read_bytes())
        return failures

    def check_hist_fit(self) -> list[str]:
        out = self.work / "hist_fit"
        failures, result, _, _ = self._check_fit_outputs(out)
        self.obs["iterations"].append(result["iterations"])
        if self.tag_fit is None:
            failures.append("no verified fit of the tags to compare with")
        else:
            fields, residuals = self.tag_fit
            differ = [k for k in MAIN_FIT_FIELDS if result[k] != fields[k]]
            if differ:
                failures.append(f"histogram fit differs from the fit of its tags in {differ}")
            if (out / "fit_residuals.csv").read_bytes() != residuals:
                failures.append("fit_residuals.csv differs from the one of the fit of the tags")
        failures += checks.check_bootstrap(result["bootstrap_errors_ps"], self.cramer_rao)
        return failures


class SweepMerge(Workload):
    """Sweep n_bar 1..20 with element merging: simulation and overlap dominate, no fitter or tag I/O."""

    name = "sweep-merge"

    def setup(self) -> None:
        self.config = self.work / "run.json"
        write_config(self.config, self.seed, sim={"n_bar_values": list(SWEEP_N_BAR),
                                                   "events_per_source": SWEEP_EVENTS,
                                                   "merge_model": "occupied_elements"})

    def prepare(self) -> None:
        model = ref.Model()
        self.merged = {n: ref.binned_width(ref.width_merged(model, n, ELEMENTS), BIN_WIDTH) for n in SWEEP_N_BAR}
        self.unmerged = {n: ref.width_unmerged(model, n) for n in SWEEP_N_BAR}

    def round_ops(self) -> list[Op]:
        return [Op(["sweep", "-c", str(self.config), "-o", str(self.work / "sweep")], self.check_sweep)]

    def check_sweep(self) -> list[str]:
        payload = read_json(self.work / "sweep" / "sweep.json")
        failures = []
        if payload["merge_model"] != "occupied_elements" or payload["events_per_source"] != SWEEP_EVENTS:
            failures.append("sweep.json does not describe the configured merged sweep")
        return failures + checks.check_sweep(payload["rows"], self.merged, self.unmerged)


class GeomMc(Workload):
    """Geometric-jitter Monte Carlo for n = 1..10, run by no other workload; resampling dominates."""

    name = "geom-mc"

    def round_ops(self) -> list[Op]:
        return [Op(["geom", "--length", f"{WIRE_LENGTH_UM:g}um", "--signal-velocity", f"{SIGNAL_VELOCITY:g}",
                    "--ground-velocity", "140", "--n-values", ",".join(map(str, GEOM_N)),
                    "--samples", str(GEOM_SAMPLES), "--bootstrap", "200", "--histogram-bins", "40",
                    "--seed", str(self.seed), "-o", str(self.work / "geom")], self.check_geom)]

    def check_geom(self) -> list[str]:
        out = self.work / "geom"
        try:
            payload = read_json(out / "geom.json")
        except ValueError as exc:
            return [f"geom.json is not strict JSON: {exc}"]
        failures = checks.check_geom(payload["per_n"], WIRE_LENGTH_UM, SIGNAL_VELOCITY, GEOM_N)
        for n in GEOM_N:
            _, table = checks.read_csv(out / f"geom_hist_n{n:02d}.csv", HIST_COLUMNS)
            total = float(table[:, 1].sum())
            if total != GEOM_SAMPLES:
                failures.append(f"geom_hist_n{n:02d}.csv counts sum to {total:g}, expected {GEOM_SAMPLES}")
        return failures


WORKLOADS = {w.name: w for w in (HistBootstrap, SweepMerge, GeomMc)}
