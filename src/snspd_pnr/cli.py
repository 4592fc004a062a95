"""Command-line interface.

Subcommands: simulate, fit, geom, overlap, pulse, sweep.  This module writes
every artifact, CSV through the ``io`` writers and JSON through one helper
that also prints to stdout.  All artifacts are deterministic for a fixed seed:
JSON is written with sorted keys, CSV floats with repr-exact precision, and
the optional SVG plots are composed by hand so reruns are byte-identical.

Exit codes: 0 success, 2 configuration or input error, 3 I/O error,
4 numerical non-convergence (the result file is still written).
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from ._version import __version__
from .config import ConfigError, RunConfig, load_config
from .fit import FixedParams, fit_histogram
from .geom import Estimator, WireGeometry, conventional_readout_delay, geom_mc, geom_sigma_analytic
from .io import read_fit_input, write_fit_residuals, write_histogram_csv, write_sweep_csv, write_time_tags
from .overlap import ElementGrid, overlap_approx, overlap_exact
from .pulse import (
    DetectorConfig,
    bandwidth,
    fall_and_reset,
    rise_time,
    slew_noise_jitter,
    threshold_crossing,
)
from .sim import TRIGGER_PERIOD_PS, SimPlan, simulate_tags, sweep_total_width

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
SEED = click.IntRange(0, 2**64 - 1)  # the range config.seed accepts


def _fail(code: int, message) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class Quantity(click.ParamType):
    """Float parameter accepting an optional unit suffix, e.g. 500nH or 100 mV."""

    def __init__(self, unit: str):
        self.unit = unit
        self.name = f"value[{unit}]"

    def convert(self, value, param, ctx):
        if isinstance(value, (int, float)):
            return float(value)
        s = str(value).strip()
        if s.endswith(self.unit):
            s = s[: -len(self.unit)].strip()
        try:
            return float(s)
        except ValueError:
            self.fail(f"expected a number with optional {self.unit!r} suffix, got {value!r}", param, ctx)


def _read_config(path) -> RunConfig:
    try:
        return load_config(path)
    except ConfigError as exc:
        _fail(EXIT_CONFIG, exc)
    except OSError as exc:
        _fail(EXIT_IO, exc)


def _resolve_out(flag_value, cfg: RunConfig | None) -> Path:
    out = flag_value if flag_value is not None else (cfg.output_dir if cfg else None)
    if out is None:
        _fail(EXIT_CONFIG, "output directory required (--out or config.output_dir)")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(EXIT_IO, exc)
    return path


def _write_file(path: Path, write, note: str = "") -> None:
    """Run ``write(path)`` and report the path; an OSError exits 3 naming it."""
    try:
        write(path)
    except OSError as exc:
        _fail(EXIT_IO, exc)
    click.echo(f"wrote {path}{note}")


def _write_text(path: Path, text: str) -> None:
    _write_file(path, lambda p: p.write_text(text, encoding="utf-8"))


def _json_text(payload: dict) -> str:
    return json.dumps({"version": __version__, **payload}, indent=2, sort_keys=True) + "\n"


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, _json_text(payload))


def _emit_json(out_dir, name: str, payload: dict) -> None:
    """Print the payload's JSON, or write it as ``name`` in ``out_dir`` when one is given."""
    if out_dir is None:
        click.echo(_json_text(payload), nl=False)
    else:
        _write_json(_resolve_out(out_dir, None) / name, payload)


def _svg_plot(series, x_label: str, y_label: str, title: str) -> str:
    """Compose a fixed-size line plot; output depends only on the data."""
    width, height = 640.0, 400.0
    ml, mr, mt, mb = 62.0, 18.0, 32.0, 46.0
    xs_all = [x for _, _, xs, _ in series for x in xs]
    ys_all = [y for _, _, _, ys in series for y in ys]
    xmin, xmax = min(xs_all), max(xs_all)
    ymin, ymax = min(ys_all), max(ys_all)
    if xmax == xmin:
        xmin, xmax = xmin - 1.0, xmax + 1.0
    if ymax == ymin:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    ypad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - ypad, ymax + ypad

    def sx(x: float) -> str:
        return f"{ml + (x - xmin) / (xmax - xmin) * (width - ml - mr):.2f}"

    def sy(y: float) -> str:
        return f"{height - mb - (y - ymin) / (ymax - ymin) * (height - mt - mb):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" font-family="monospace" font-size="11">',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" height="{height - mt - mb}" '
        'fill="none" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<text x="{width / 2:.0f}" y="{height - 8:.0f}" text-anchor="middle">{x_label}</text>',
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.0f})">{y_label}</text>',
    ]
    for i in range(5):
        fx = xmin + (xmax - xmin) * i / 4.0
        fy = ymin + (ymax - ymin) * i / 4.0
        px, py = sx(fx), sy(fy)
        parts.append(f'<line x1="{px}" y1="{height - mb:.2f}" x2="{px}" y2="{height - mb + 4:.2f}" stroke="black"/>')
        parts.append(f'<text x="{px}" y="{height - mb + 16:.2f}" text-anchor="middle">{fx:.6g}</text>')
        parts.append(f'<line x1="{ml - 4:.2f}" y1="{py}" x2="{ml:.2f}" y2="{py}" stroke="black"/>')
        parts.append(f'<text x="{ml - 7:.2f}" y="{py}" text-anchor="end" dominant-baseline="middle">{fy:.6g}</text>')
    for idx, (name, color, xs, ys) in enumerate(series):
        points = " ".join(f"{sx(float(x))},{sy(float(y))}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14.0 + 14.0 * idx
        parts.append(
            f'<line x1="{width - mr - 130:.2f}" y1="{ly:.2f}" x2="{width - mr - 110:.2f}" '
            f'y2="{ly:.2f}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{width - mr - 105:.2f}" y="{ly + 4:.2f}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _build_plan(cfg: RunConfig, seed: int | None) -> SimPlan:
    if cfg.sim is None:
        _fail(EXIT_CONFIG, "config.sim: required for this command")
    return cfg.sim if seed is None else replace(cfg.sim, seed=seed)


@click.group()
@click.version_option(__version__, prog_name="snspd-pnr")
def main() -> None:
    """Photon-number-resolved arrival-time statistics for nanowire detectors."""


@main.command()
@click.option("-c", "--config", "config_path", required=True, help="Run configuration JSON.")
@click.option("-o", "--out", "out_dir", default=None, help="Output directory (overrides config).")
@click.option("--seed", type=SEED, default=None, help="Override the configured seed.")
def simulate(config_path, out_dir, seed):
    """Generate time-tag CSV files, one per configured mean photon number."""
    cfg = _read_config(config_path)
    plan = _build_plan(cfg, seed)
    out = _resolve_out(out_dir, cfg)
    sources = []
    for i, st in enumerate(simulate_tags(plan)):
        path, events = out / f"tags_{i:03d}.csv", st.trigger_ps.size
        _write_file(path, lambda p: write_time_tags(p, st), f" (n_bar={st.n_bar:g}, events={events})")
        sources.append({"file": path.name, "n_bar": st.n_bar, "events": events})
    manifest = {
        "seed": plan.seed,
        "merge_model": plan.merge_model.value,
        "events_per_source": plan.events_per_source,
        "trigger_period_ps": TRIGGER_PERIOD_PS,
        "sources": sources,
    }
    _write_json(out / "manifest.json", manifest)


@main.command()
@click.argument("input_file")
@click.option("-c", "--config", "config_path", required=True, help="Run configuration JSON.")
@click.option("-o", "--out", "out_dir", default=None, help="Output directory (overrides config).")
@click.option("--n-bar", type=float, default=None, help="Mean photon number (overrides config and tag header).")
@click.option("--bootstrap", "n_bootstrap", type=int, default=None, help="Bootstrap resamples for errors (0 or >= 2).")
@click.option("--fit-mu-infinity", is_flag=True, help="Also fit the many-photon delay asymptote.")
@click.option("--seed", type=SEED, default=None, help="Override the configured seed (bootstrap stream).")
@click.option("--svg", "want_svg", is_flag=True, help="Write a data/model overlay plot.")
def fit(input_file, config_path, out_dir, n_bar, n_bootstrap, fit_mu_infinity, seed, want_svg):
    """Fit the three-parameter mixture model to a time-tag or histogram CSV."""
    cfg = _read_config(config_path)
    out = _resolve_out(out_dir, cfg)
    try:
        fmt, hist = read_fit_input(input_file, cfg.fit.bin_width)
    except ValueError as exc:
        _fail(EXIT_CONFIG, exc)
    except OSError as exc:
        _fail(EXIT_IO, exc)

    if n_bar is None:
        n_bar = cfg.fit.n_bar if cfg.fit.n_bar is not None else hist.mean_photon_number
        if hist.mean_photon_number not in (None, n_bar):
            _fail(EXIT_CONFIG, f"config.fit.n_bar = {n_bar!r} contradicts the n_bar = {hist.mean_photon_number!r} "
                               f"header of {input_file}; pass --n-bar to choose one")
    if n_bar is None:
        _fail(EXIT_CONFIG, "mean photon number required (--n-bar, config.fit.n_bar, or a '# n_bar=' header)")

    try:
        fp = FixedParams.from_budget(cfg.budget, cfg.detector.mu_infinity, float(n_bar))
        result = fit_histogram(
            hist,
            fp,
            theta0=cfg.fit.theta0,
            fit_mu_infinity=fit_mu_infinity or cfg.fit.fit_mu_infinity,
            n_bootstrap=cfg.fit.n_bootstrap if n_bootstrap is None else n_bootstrap,
            bootstrap_seed=cfg.seed if seed is None else seed,
        )
    except ValueError as exc:
        _fail(EXIT_CONFIG, exc)

    mix, expected = result.mixture, result.expected_counts
    components = [
        {
            "n": i + 1,
            "weight": float(w),
            "mu_ps": float(mu),
            "sigma_ps": float(sigma),
            "tau_ps": float(tau),
        }
        for i, (w, mu, sigma, tau) in enumerate(zip(mix.weights, mix.mu, mix.sigma, mix.tau))
    ]
    payload = {
        "input": {
            "path": str(input_file),
            "format": fmt,
            "events": int(hist.total_events),
            "bins": int(hist.counts.size),
            "bin_width_ps": hist.bin_width,
        },
        "n_bar": float(n_bar),
        "delta_mu_ps": result.delta_mu,
        "sigma_int_ps": result.sigma_int,
        "tau_ps": result.tau,
        "mu_infinity_ps": result.mu_infinity if result.mu_infinity is not None else fp.mu_infinity,
        "mu_infinity_fitted": result.mu_infinity is not None,
        "negative_log_likelihood": result.negative_log_likelihood,
        "converged": result.converged,
        "iterations": result.iterations,
        "bootstrap_errors_ps": (
            list(result.bootstrap_errors) if result.bootstrap_errors is not None else None
        ),
        "bootstrap_converged": result.bootstrap_converged,
        "covariance_proxy": [[float(v) for v in row] for row in result.covariance_proxy],
        "components": components,
    }
    _write_json(out / "fit_result.json", payload)

    _write_file(out / "fit_residuals.csv", lambda p: write_fit_residuals(p, hist, expected))

    if want_svg:
        svg = _svg_plot(
            [
                ("data", "#1f6fb2", hist.bin_centers, hist.counts.astype(float)),
                ("model", "#c44e52", hist.bin_centers, expected),
            ],
            "delay (ps)",
            "counts per bin",
            "arrival-time histogram and fitted mixture",
        )
        _write_text(out / "fit.svg", svg)

    if not result.converged:
        click.echo("fit did not converge within the iteration budget; results written", err=True)
        sys.exit(EXIT_NUMERIC)


@main.command()
@click.option("--length", type=Quantity("um"), required=True, help="Wire length, um.")
@click.option("--signal-velocity", type=Quantity("um/ps"), required=True, help="Pulse velocity, um/ps.")
@click.option("--ground-velocity", type=Quantity("um/ps"), default=None, help="Ground-return velocity, um/ps.")
@click.option("--n-values", default="1,2,3,4,5,6,7,8,9,10", show_default=True, help="Comma-separated photon numbers.")
@click.option("--samples", type=int, default=200_000, show_default=True,
              help="Trials per n (>= 10000); all are held at once: K x N x 8 bytes for K values of n, plus "
                   "N x 8 for the bootstrap counts and a few MB (21 MB at the defaults, 880 MB for 10 values at 10^7).")
@click.option("--estimator", type=click.Choice([e.value for e in Estimator]), default="midrange", show_default=True)
@click.option("--bootstrap", type=int, default=200, show_default=True,
              help="Bootstrap resamples (>= 2); each resamples the trials once, for all n, as one two-stage "
                   "multinomial draw of their counts.")
@click.option("--histogram-bins", type=click.IntRange(min=0), default=0,
              help="Also write a per-n timing histogram with this many bins (0: none).")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("-o", "--out", "out_dir", required=True, help="Output directory.")
def geom(length, signal_velocity, ground_velocity, n_values, samples, estimator, bootstrap, histogram_bins, seed, out_dir):
    """Monte Carlo geometric timing jitter versus photon number."""
    try:
        wire = WireGeometry(length, signal_velocity, ground_velocity)
        ns = [int(v) for v in n_values.split(",") if v.strip()]
        rng = np.random.default_rng(seed)
        result = geom_mc(wire, ns, samples, rng, estimator, bootstrap, histogram_bins)
    except ValueError as exc:
        _fail(EXIT_CONFIG, exc)
    out = _resolve_out(out_dir, None)
    payload = {
        "wire": {
            "length_um": wire.length,
            "signal_velocity_um_ps": wire.signal_velocity,
            "ground_velocity_um_ps": wire.ground_velocity,
        },
        "estimator": str(Estimator(estimator).value),
        "samples": samples,
        "seed": seed,
        "per_n": [
            {"n": n, "sigma_ps": s, "bootstrap_se_ps": se} for n, s, se in result.per_n_std
        ],
        "fitted_exponent": result.fitted_exponent,
        "fit_residual": result.fit_residual,
        "analytic_sigma_ps": {
            "n1": geom_sigma_analytic(wire, 1),
            "n2": geom_sigma_analytic(wire, 2),
        },
        "conventional_readout_delay_ps": (
            conventional_readout_delay(wire) if wire.ground_velocity is not None else None
        ),
    }
    _write_json(out / "geom.json", payload)
    for n, hist in zip(ns, result.histograms):
        _write_file(out / f"geom_hist_n{n:02d}.csv", lambda p: write_histogram_csv(p, hist))


@main.command()
@click.option("--elements", type=int, required=True, help="Number of independent detecting elements.")
@click.option("--max-photons", type=int, default=10, show_default=True)
@click.option("-o", "--out", "out_dir", default=None, help="Output directory (default: print to stdout).")
def overlap(elements, max_photons, out_dir):
    """Multi-photon same-element overlap probabilities, exact and approximate."""
    try:
        grid = ElementGrid(elements)
        if max_photons < 1:
            raise ValueError("--max-photons must be >= 1")
        rows = [
            {"n": n, "exact": overlap_exact(grid, n), "approx": overlap_approx(grid, n)}
            for n in range(1, max_photons + 1)
        ]
    except ValueError as exc:
        _fail(EXIT_CONFIG, exc)
    _emit_json(out_dir, "overlap.json", {"elements": elements, "rows": rows})


@main.command()
@click.option("--kinetic-inductance", type=Quantity("nH"), required=True, help="e.g. 500nH")
@click.option("--amplitude", type=Quantity("mV"), required=True, help="e.g. 100mV")
@click.option("--noise-floor", type=Quantity("mV"), required=True, help="e.g. 10mV")
@click.option("--rise-time", "rise_time_1", type=Quantity("ps"), required=True, help="One-photon rise time, e.g. 300ps")
@click.option("--load-resistance", type=Quantity("Ohm"), default=50.0, show_default=True)
@click.option("--sigma-elec", type=Quantity("mV"), default=None, help="Noise amplitude for slew-noise jitter.")
@click.option("--threshold-fraction", type=float, default=0.5, show_default=True)
@click.option("--max-n", type=int, default=10, show_default=True)
@click.option("-o", "--out", "out_dir", default=None, help="Output directory (default: print to stdout).")
def pulse(kinetic_inductance, amplitude, noise_floor, rise_time_1, load_resistance, sigma_elec, threshold_fraction, max_n, out_dir):
    """Pulse-edge timing: threshold crossings, fall/reset times, bandwidth."""
    try:
        det = DetectorConfig(
            kinetic_inductance=kinetic_inductance,
            amplitude=amplitude,
            noise_floor=noise_floor,
            delta_mu=0.0,
            mu_infinity=0.0,
            rise_time_1=rise_time_1,
            load_resistance=load_resistance,
        )
        if max_n < 1:
            raise ValueError("--max-n must be >= 1")
        t_fall, t_reset = fall_and_reset(det)
        rows = []
        for n in range(1, max_n + 1):
            row = {
                "n": n,
                "threshold_crossing_ps": threshold_crossing(det, n, threshold_fraction),
                "rise_time_ps": rise_time(det, n),
            }
            if sigma_elec is not None:
                row["slew_noise_jitter_ps"] = slew_noise_jitter(det, sigma_elec, n)
            rows.append(row)
    except ValueError as exc:
        _fail(EXIT_CONFIG, exc)
    payload = {
        "kinetic_inductance_nH": kinetic_inductance,
        "load_resistance_ohm": load_resistance,
        "amplitude_mV": amplitude,
        "noise_floor_mV": noise_floor,
        "rise_time_1_ps": rise_time_1,
        "threshold_fraction": threshold_fraction,
        "fall_time_ps": t_fall,
        "reset_time_ps": t_reset,
        "bandwidth_GHz": bandwidth(det),
        "per_n": rows,
    }
    _emit_json(out_dir, "pulse.json", payload)


@main.command()
@click.option("-c", "--config", "config_path", required=True, help="Run configuration JSON.")
@click.option("-o", "--out", "out_dir", default=None, help="Output directory (overrides config).")
@click.option("--seed", type=SEED, default=None, help="Override the configured seed.")
@click.option("--bin-width", type=float, default=2.0, show_default=True, help="Histogram bin width, ps.")
@click.option("--svg", "want_svg", is_flag=True, help="Write a width-versus-n_bar plot.")
def sweep(config_path, out_dir, seed, bin_width, want_svg):
    """Simulate the configured sources and report total width versus n_bar."""
    cfg = _read_config(config_path)
    plan = _build_plan(cfg, seed)
    out = _resolve_out(out_dir, cfg)
    try:
        rows = sweep_total_width(plan, bin_width=bin_width)
    except ValueError as exc:
        _fail(EXIT_CONFIG, exc)
    _write_file(out / "sweep.csv", lambda p: write_sweep_csv(p, rows))
    payload = {
        "seed": plan.seed,
        "merge_model": plan.merge_model.value,
        "events_per_source": plan.events_per_source,
        "bin_width_ps": bin_width,
        "rows": [
            {
                "n_bar": r.n_bar,
                "sigma_hist_ps": r.sigma_hist,
                "sigma_err_ps": r.sigma_error,
                "sigma_model_ps": r.sigma_model,
            }
            for r in rows
        ],
    }
    _write_json(out / "sweep.json", payload)
    if want_svg:
        xs = [r.n_bar for r in rows]
        svg = _svg_plot(
            [
                ("measured", "#1f6fb2", xs, [r.sigma_hist for r in rows]),
                ("model", "#c44e52", xs, [r.sigma_model for r in rows]),
            ],
            "mean photon number",
            "total width (ps)",
            "histogram width versus mean photon number",
        )
        _write_text(out / "sweep.svg", svg)


if __name__ == "__main__":
    main()
