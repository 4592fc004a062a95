"""Alternating parent/change benchmark pairs, written as one BENCH_*.json.

Runs the unmodified ``benchmarks/run.py`` of two checkouts (say, a
``git archive`` of the parent commit and the working tree) in pairs that
alternate which side goes first, summarises each end-to-end metric per side
(median and linear quartiles), and counts the pairs the change wins.  It also
times the criterion 2 and criterion 7 acceptance tests in each checkout,
records each side's criterion 7 verdict (the 13 fitted one-photon peaks, their
Kendall tau and one-sided p), and compares the bootstrapped fit of the
``hist-bootstrap`` workload, the merged sweep of the ``sweep-merge`` workload
and the ``geom`` run of the ``geom-mc`` workload between the two sides.  Its ``startup`` block times whole CLI
processes on both sides: ones that do little work beyond starting up, the
``hist-bootstrap`` workload's ``fit --bootstrap 100`` as a user runs it, and
the README pipeline (``simulate``, ``fit tags_002.csv --bootstrap 100`` and
``sweep``), whose output files it compares byte for byte across the sides, with
the z of each differing tag file's delay mean and std.  Every timed process's peak RSS is its ``ru_maxrss``
from ``os.wait4``, read by a small launcher that forks it; a startup process also reports its minor page
faults, ``ru_minflt`` from the same call.  ``src_lines`` counts each side's
package lines, the total of ``wc -l src/snspd_pnr/*.py``, and their difference.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_10.json
    python3 tools/bench_pairs.py --parent ../parent --change . --seed 11 --out BENCH_10_seed11.json

``--seed`` sets the seed of the workload runs and of the startup inputs, so a
held-out-seed series is one more run with its own output file.

Both checkouts need the same benchmark code; the script reads nothing else
from them but the change's README configuration.  Wall times depend on the
host: record it with ``--hardware``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

METRICS = ("setup_s", "round_s", "peak_rss_mb")
WORKLOADS = ("hist-bootstrap", "sweep-merge", "geom-mc")
CRITERIA = {  # acceptance tests timed in each checkout
    "criterion_2": "tests/test_acceptance.py::test_criterion_2_geometric_jitter",
    "criterion_7": "tests/test_acceptance.py::test_criterion_7_one_photon_peak_drift",
}
CLI = "from snspd_pnr.cli import main; main()"
PAIRS = 10  # alternating parent/change pairs per workload and per startup command
SEED = 3  # default workload seed
SECONDS = 20.0  # the benchmark's run_seconds
CRITERION_PAIRS = 5
FIT_RUNS = tuple((seed, four) for seed in (1, 2, 3, 7, 11) for four in (False, True))  # (seed, fit mu_infinity)
SWEEP_SEEDS = (1, 2, 3)  # seeds of the merged sweep comparison
GEOM_SEEDS = (1, 2, 3)  # seeds of the geom comparison


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--out", required=True, type=Path, help="JSON file to write")
    p.add_argument("--hardware", default="", help="host description stored in the output")
    p.add_argument("--parent-commit", default="", help="parent commit id stored in the output")
    p.add_argument("--seed", type=int, default=SEED, help="seed of the workload runs and the startup inputs")
    return p.parse_args(argv)


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root.resolve() / "src")
    return env


# Runs ARGV[2:] as its child and writes the child's ru_maxrss (KiB) and ru_minflt from os.wait4 to the file
# ARGV[1].  The kernel carries a process's RSS over into ru_maxrss at exec, so a command started from this script
# would count this script's RSS; one forked by the small launcher counts only the launcher's.
LAUNCHER = """import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
open(sys.argv[1], "w").write(f"{usage.ru_maxrss} {usage.ru_minflt}")
sys.exit(os.waitstatus_to_exitcode(status))
"""


def child_run(root: Path, cmd: list[str]) -> tuple[int, str, float, float, int]:
    """Run ``cmd`` in ``root`` under ``LAUNCHER``: its exit code, stdout, wall time (s), peak RSS (MiB) and
    minor page faults, ``ru_maxrss`` and ``ru_minflt`` of ``os.wait4``, which cover the child and the
    descendants it waited for."""
    with tempfile.TemporaryFile() as out, tempfile.NamedTemporaryFile("r") as rss:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-S", "-c", LAUNCHER, rss.name, *cmd], cwd=root, env=_env(root),
                              stdout=out, stderr=subprocess.DEVNULL)
        wall_s = time.perf_counter() - t0
        out.seek(0)
        maxrss, minflt = (int(v) for v in rss.read().split())
        return proc.returncode, out.read().decode(), wall_s, maxrss / 1024.0, minflt


def bench_run(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{SECONDS:g}", "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    run = {k: result[k] for k in ("correct", "attempted", "failed")}
    run.update({m: result["metrics"][m]["value"] for m in METRICS})
    return run


def criterion_run(root: Path, test: str) -> dict:
    code, stdout, wall_s, peak_rss_mb, _ = child_run(root, [sys.executable, "-m", "pytest", "-q", "-s", "-p",
                                                         "no:cacheprovider", test])
    verdicts = [line for line in stdout.splitlines() if line.startswith("CRITERION ")]
    return {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "passed": code == 0,
            "verdict": verdicts[-1] if verdicts else None}


def criterion_7_values(runs: list[dict]) -> dict:
    """Per side: criterion 7's 13 fitted mu_1 (ps), Kendall tau and one-sided p, as its CRITERION line prints them."""
    out = {}
    for side in ("parent", "change"):
        values = []
        for r in (r for r in runs if r["side"] == side):
            found = re.search(r"n_bar=1\.\.13: ([^;]+);.*kendall tau=(\S+), one-sided p=(\S+) ", r["verdict"] or "")
            values.append(found and {"mu_1_ps": [float(v) for v in found[1].split()],
                                     "kendall_tau": float(found[2]), "one_sided_p": float(found[3])})
        out[side] = {**(values[0] or {}), "same_in_every_run": all(v == values[0] for v in values)}
    return out


def process_run(root: Path, args: list[str]) -> dict:
    code, _, wall_s, peak_rss_mb, minor_faults = child_run(root, [sys.executable, "-c", CLI, *args])
    return {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "minor_faults": minor_faults, "exit_code": code}


def src_lines(root: Path) -> int:
    """The total that ``wc -l src/snspd_pnr/*.py`` prints in ``root``: the newlines of the package's modules."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "snspd_pnr").glob("*.py"))


def readme_config(root: Path) -> dict:
    """The run configuration of the README's command-line section."""
    section = (root / "README.md").read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def quartiles(values) -> dict:
    q1, median, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4), "n": len(values)}


def compare(runs: list[dict], key: str) -> dict:
    sides = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
    pairs = sorted({r["pair"] for r in runs})
    by_pair = {(r["side"], r["pair"]): r[key] for r in runs}
    lower = sum(by_pair[("change", p)] < by_pair[("parent", p)] for p in pairs)
    return {"parent": quartiles([r[key] for r in sides["parent"]]),
            "change": quartiles([r[key] for r in sides["change"]]),
            "change_lower_in_pairs": f"{lower}/{len(pairs)}"}


def alternate(pairs: int, sides: dict, run) -> list[dict]:
    """``run(root)`` for both sides ``pairs`` times, the parent first in even pairs."""
    runs = []
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            record = {"side": side, "pair": pair, **run(sides[side])}
            runs.append(record)
            print(json.dumps(record), file=sys.stderr, flush=True)
    return runs


def _benchmark_modules(sides: dict):
    """The change's ``benchmarks/workloads.py`` and ``reference.py`` (both sides share them)."""
    sys.path.insert(0, str(sides["change"].resolve() / "benchmarks"))
    import reference
    import workloads

    return workloads, reference


def _leaves(value, path=""):
    """(path, value) of every leaf of a JSON value; list positions are left out of the path."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for item in value:
            yield from _leaves(item, path)
    else:
        yield path, value


def _rel_diff(old: float, new: float) -> float:
    return 0.0 if old == new else abs(new - old) / abs(old) if old != 0.0 else math.inf


def _residual_columns(text: str) -> dict:
    header, *rows = text.splitlines()
    return dict(zip(header.split(","), np.array([row.split(",") for row in rows], dtype=np.float64).T))


def fit_runs(sides: dict, runs) -> dict:
    """Run the ``hist-bootstrap`` workload's CLI ``fit`` once per (seed, fit mu_infinity) on both sides
    and compare outputs.

    Both sides fit the same histogram CSV.  ``fit_result_identical`` compares
    every field of ``fit_result.json`` but ``input.path``; ``fit_residuals_identical``
    compares ``fit_residuals.csv`` byte for byte.  ``max_rel_diff`` is the largest
    relative difference of each float field of ``fit_result.json`` (over the entries
    of a list field), ``non_float_fields_equal`` says whether every integer, boolean,
    string and null field is equal, and ``expected_max_rel_diff`` and
    ``pearson_max_abs_diff`` compare those ``fit_residuals.csv`` columns.
    """
    workloads, _ = _benchmark_modules(sides)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed, fit_mu_infinity in runs:
            name = f"{seed}-fit_mu_infinity" if fit_mu_infinity else str(seed)
            workload = workloads.HistBootstrap(seed, Path(tmp) / f"fit-{name}")
            workload.setup()
            results, residuals = {}, {}
            for side, root in sides.items():
                fit = workload.work / f"fit-{side}"
                subprocess.run([sys.executable, "-c", CLI, "fit", str(workload.hist), "-c", str(workload.config),
                                "-o", str(fit), "--bootstrap", str(workloads.FIT_BOOTSTRAP),
                                *(["--fit-mu-infinity"] if fit_mu_infinity else [])],
                               cwd=root, env=_env(root), check=True, capture_output=True)
                results[side] = json.loads((fit / "fit_result.json").read_text())
                results[side]["input"].pop("path")
                residuals[side] = (fit / "fit_residuals.csv").read_bytes()
            old, new = results["parent"], results["change"]
            old_leaves, new_leaves = list(_leaves(old)), list(_leaves(new))
            if [k for k, _ in old_leaves] != [k for k, _ in new_leaves]:
                raise ValueError(f"fit {name}: fit_result.json fields differ in structure")
            max_rel, other_equal = {}, True
            for (key, a), (_, b) in zip(old_leaves, new_leaves):
                if type(a) is float and type(b) is float:
                    max_rel[key] = max(max_rel.get(key, 0.0), _rel_diff(a, b))
                else:
                    other_equal &= a == b
            columns = {side: _residual_columns(text.decode()) for side, text in residuals.items()}
            old_cols, new_cols = columns["parent"], columns["change"]
            expected_rel = [_rel_diff(a, b) for a, b in zip(old_cols["expected"], new_cols["expected"])]
            out[name] = {"fit_result_identical": old == new,
                         "fields_differing": sorted(k for k in old.keys() | new.keys()
                                                    if old.get(k) != new.get(k)),
                         "max_rel_diff": max_rel,
                         "max_rel_diff_any_float_field": max(max_rel.values()),
                         "non_float_fields_equal": other_equal,
                         "converged_iterations_bootstrap_converged_equal":
                             all(old[k] == new[k] for k in ("converged", "iterations", "bootstrap_converged")),
                         "fit_residuals_identical": residuals["parent"] == residuals["change"],
                         "expected_max_rel_diff": max(expected_rel),
                         "pearson_max_abs_diff": float(np.abs(new_cols["pearson"] - old_cols["pearson"]).max()),
                         "bootstrap_converged": [old["bootstrap_converged"], new["bootstrap_converged"]]}
    return out


def std_se(sigma: float, kurtosis: float, samples: int) -> float:
    """Delta-method standard error of a sample std over ``samples`` values of std ``sigma``:
    ``s/2 sqrt((kurtosis - (N-3)/(N-1)) / N)``."""
    return sigma / 2.0 * math.sqrt((kurtosis - (samples - 3) / (samples - 1)) / samples)


def delay_z(parent_csv: Path, change_csv: Path) -> dict:
    """z across the sides of the mean and the std of ``edge - trigger`` of one tag CSV, the two sides' standard
    errors combined in quadrature as if the samples were independent."""
    stats = {}
    for side, path in (("parent", parent_csv), ("change", change_csv)):
        with open(path, encoding="utf-8") as fh:
            trigger, edge = np.loadtxt((line for line in fh if line[:1].isdigit()), delimiter=",", unpack=True)
        delay = edge - trigger
        s = float(delay.std(ddof=1))
        kurtosis = float(np.mean((delay - delay.mean()) ** 4)) / float(delay.var()) ** 2
        stats[side] = (float(delay.mean()), s / math.sqrt(delay.size), s, std_se(s, kurtosis, delay.size))
    (m0, e0, s0, f0), (m1, e1, s1, f1) = stats["parent"], stats["change"]
    return {"parent_mean_ps": m0, "change_mean_ps": m1, "z_mean": (m1 - m0) / math.hypot(e0, e1),
            "parent_std_ps": s0, "change_std_ps": s1, "z_std": (s1 - s0) / math.hypot(f0, f1)}


def startup_runs(sides: dict, seed: int) -> tuple[dict, list[dict]]:
    """Time whole CLI processes of both sides in alternating pairs: start-up cost, a fit as a user pays it, and
    the README pipeline.

    ``--version`` and ``overlap --elements 24`` are nearly pure start-up; the
    ``geom-mc`` workload's ``geom`` command adds its Monte Carlo; ``fit
    --bootstrap 0`` of the ``hist-bootstrap`` histogram evaluates the mixture,
    so it loads ``scipy.special`` on either side; ``fit --bootstrap 100`` of the
    same histogram adds the workload's bootstrap refits.  ``simulate``, ``fit
    tags_002.csv --bootstrap 100`` and ``sweep`` are the README pipeline on its
    configuration (seed set to ``seed``).  One more untimed run of each of the
    three per side, into that side's own directory, gives the files that
    ``files_identical`` of each compares byte for byte; when a tag file differs,
    ``simulate.delay_z`` holds the z of its delay mean and std across the sides.
    Both sides fit the change's ``tags_002.csv``, so they time the same input
    and write the same ``input.path`` into ``fit_result.json``.
    """
    workloads, _ = _benchmark_modules(sides)
    summary, all_runs = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        hist = workloads.HistBootstrap(seed, Path(tmp) / "fit")
        hist.setup()
        (geom,) = workloads.GeomMc(seed, Path(tmp) / "geom").round_ops()
        config = Path(tmp) / "readme.json"
        config.write_text(json.dumps({**readme_config(sides["change"]), "seed": seed}))
        written = {side: Path(tmp) / f"simulate-{side}" for side in sides}
        readme = {
            "simulate": ["simulate", "-c", str(config)],
            "readme_fit_bootstrap_100": ["fit", str(written["change"] / "tags_002.csv"), "-c", str(config),
                                         "--bootstrap", "100"],
            "readme_sweep": ["sweep", "-c", str(config)],
        }
        for name, args in readme.items():  # simulate first: both sides fit the change's tags
            for side, root in sides.items():
                subprocess.run([sys.executable, "-c", CLI, *args, "-o", str(Path(tmp) / f"{name}-{side}")],
                               cwd=root, env=_env(root), check=True, capture_output=True)
        commands = {
            "version": ["--version"],
            "overlap": ["overlap", "--elements", "24"],
            "geom": geom.args,
            **{f"fit_bootstrap_{n}": ["fit", str(hist.hist), "-c", str(hist.config), "-o", str(Path(tmp) / "fit-out"),
                                      "--bootstrap", str(n)] for n in (0, workloads.FIT_BOOTSTRAP)},
            "simulate": ["simulate", "-c", str(config), "-o", str(Path(tmp) / "simulate-out")],
            "readme_fit_bootstrap_100": ["fit", str(written["change"] / "tags_002.csv"), "-c", str(config),
                                         "-o", str(Path(tmp) / "readme-fit-out"), "--bootstrap", "100"],
            "readme_sweep": ["sweep", "-c", str(config), "-o", str(Path(tmp) / "readme-sweep-out")],
        }
        for name, args in commands.items():
            runs = alternate(PAIRS, sides, lambda root: process_run(root, args))
            for r in runs:
                r["kind"] = f"startup_{name}"
            summary[name] = compare(runs, "wall_s")
            summary[name]["peak_rss_mb"] = compare(runs, "peak_rss_mb")
            summary[name]["minor_faults"] = compare(runs, "minor_faults")
            summary[name]["all_exit_0"] = all(r["exit_code"] == 0 for r in runs)
            summary[name]["args"] = [a.replace(tmp, "<tmp>") for a in args]
            all_runs += runs
        for name in readme:
            parent, change = Path(tmp) / f"{name}-parent", Path(tmp) / f"{name}-change"
            summary[name]["files_identical"] = {f: filecmp.cmp(parent / f, change / f, shallow=False)
                                                for f in sorted(p.name for p in parent.iterdir())}
        identical = summary["simulate"]["files_identical"]
        summary["simulate"]["delay_z"] = {name: delay_z(written["parent"] / name, written["change"] / name)
                                          for name in identical if name.endswith(".csv") and not identical[name]}
    return summary, all_runs


def merged_sweeps(sides: dict, seeds) -> dict:
    """Run the ``sweep-merge`` workload's CLI sweep once per seed on both sides and compare rows and bytes:
    the z of each ``sigma_hist_ps`` and the relative difference of each ``sigma_model_ps``."""
    workloads, _ = _benchmark_modules(sides)  # the workload writes its own configuration

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            rows, csv = {}, {}
            for side, root in sides.items():
                workload = workloads.SweepMerge(seed, Path(tmp) / f"{side}-{seed}")
                workload.setup()
                sweep = workload.work / "sweep"
                subprocess.run([sys.executable, "-c", CLI, "sweep", "-c", str(workload.config), "-o", str(sweep)],
                               cwd=root, env=_env(root), check=True, capture_output=True)
                rows[side] = json.loads((sweep / "sweep.json").read_text())["rows"]
                csv[side] = (sweep / "sweep.csv").read_bytes()
            per_n = []
            for old, new in zip(rows["parent"], rows["change"]):
                combined = math.hypot(old["sigma_err_ps"], new["sigma_err_ps"])
                per_n.append({"n_bar": old["n_bar"],
                              "parent_sigma_hist_ps": old["sigma_hist_ps"],
                              "change_sigma_hist_ps": new["sigma_hist_ps"],
                              "combined_error_ps": combined,
                              "z": (new["sigma_hist_ps"] - old["sigma_hist_ps"]) / combined,
                              "sigma_model_ps_identical": old["sigma_model_ps"] == new["sigma_model_ps"],
                              "sigma_model_ps_rel_diff": _rel_diff(old["sigma_model_ps"], new["sigma_model_ps"])})
            out[str(seed)] = {"sweep_csv_identical": csv["parent"] == csv["change"],
                              "max_abs_z": max(abs(r["z"]) for r in per_n),
                              "sigma_model_ps_max_rel_diff": max(r["sigma_model_ps_rel_diff"] for r in per_n),
                              "rows": per_n}
    return out


def midrange_std_se(sigma: float, n: int, samples: int) -> float:
    """Closed-form (delta-method) error of a sample std of ``samples`` midranges of n uniforms.

    ``std_se`` with the midrange's exact kurtosis ``6 (n+1)(n+2) / ((n+3)(n+4))``
    (1.8 at n = 1, the uniform's).
    """
    return std_se(sigma, 6.0 * (n + 1) * (n + 2) / ((n + 3) * (n + 4)), samples)


def geom_runs(sides: dict, seeds) -> dict:
    """Run the ``geom-mc`` workload's CLI ``geom`` once per seed on both sides and compare per n.

    Per n: the z of the change's ``sigma_ps`` against the parent's (the two
    bootstrap errors combined in quadrature), each side's z against the exact
    midrange spread, each side's bootstrap error over the closed form, and the
    relative difference of the two bootstrap errors.  Per seed: whether every
    ``sigma_ps``, the ``fitted_exponent`` and every histogram are byte-identical,
    and the largest relative difference of ``bootstrap_se_ps``.
    """
    workloads, reference = _benchmark_modules(sides)
    geometry = (workloads.WIRE_LENGTH_UM, workloads.SIGNAL_VELOCITY)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            per_side, hists = {}, {}
            for side, root in sides.items():
                workload = workloads.GeomMc(seed, Path(tmp) / f"{side}-{seed}")
                (op,) = workload.round_ops()
                subprocess.run([sys.executable, "-c", CLI, *op.args],
                               cwd=root, env=_env(root), check=True, capture_output=True)
                geom = workload.work / "geom"
                per_side[side] = json.loads((geom / "geom.json").read_text())
                hists[side] = {p.name: p.read_bytes() for p in sorted(geom.glob("geom_hist_n*.csv"))}
            per_n = []
            for old, new in zip(per_side["parent"]["per_n"], per_side["change"]["per_n"]):
                n = old["n"]
                exact = reference.midrange_spread(*geometry, n)
                closed = midrange_std_se(exact, n, workloads.GEOM_SAMPLES)
                combined = math.hypot(old["bootstrap_se_ps"], new["bootstrap_se_ps"])
                per_n.append({
                    "n": n,
                    "parent_sigma_ps": old["sigma_ps"],
                    "change_sigma_ps": new["sigma_ps"],
                    "sigma_ps_identical": old["sigma_ps"] == new["sigma_ps"],
                    "z_change_vs_parent": (new["sigma_ps"] - old["sigma_ps"]) / combined,
                    "parent_z_vs_exact": (old["sigma_ps"] - exact) / old["bootstrap_se_ps"],
                    "change_z_vs_exact": (new["sigma_ps"] - exact) / new["bootstrap_se_ps"],
                    "closed_form_se_ps": closed,
                    "parent_se_over_closed_form": old["bootstrap_se_ps"] / closed,
                    "change_se_over_closed_form": new["bootstrap_se_ps"] / closed,
                    "se_rel_diff": abs(new["bootstrap_se_ps"] / old["bootstrap_se_ps"] - 1.0),
                })
            out[str(seed)] = {
                "histograms_identical": hists["parent"] == hists["change"] and bool(hists["parent"]),
                "sigma_ps_identical": all(r["sigma_ps_identical"] for r in per_n),
                "fitted_exponent_identical":
                    per_side["parent"]["fitted_exponent"] == per_side["change"]["fitted_exponent"],
                "max_se_rel_diff": max(r["se_rel_diff"] for r in per_n),
                "max_abs_z_change_vs_parent": max(abs(r["z_change_vs_parent"]) for r in per_n),
                **{f"{side}_se_over_closed_form_range": [min(r[f"{side}_se_over_closed_form"] for r in per_n),
                                                         max(r[f"{side}_se_over_closed_form"] for r in per_n)]
                   for side in sides},
                "rows": per_n,
            }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    report = {
        "what": "End-to-end benchmark metrics of the parent commit and of this change (median, quartiles, IQR), "
                "the criterion 2 and 7 wall times and peak RSS, whole-process CLI times and peak RSS, and the "
                "bootstrapped fits, merged sweep widths and geom spreads of both sides.",
        "hardware": args.hardware,
        "parent_commit": args.parent_commit,
        "method": {
            "benchmark": f"python3 benchmarks/run.py --workload W --seed {args.seed} --seconds {SECONDS:g} "
                         f"--trace 0, unmodified, from a checkout of each commit; {PAIRS} pairs per workload, "
                         "alternating which side runs first; numpy linear percentiles over the runs of each side; "
                         "change_lower_in_pairs counts the pairs in which the change's value is lower",
            "criteria": f"python -m pytest -q -s TEST in each checkout, timed from outside (interpreter start "
                        f"and imports included); {CRITERION_PAIRS} alternating pairs per test; reported, not gated; "
                        "CRITERION_peak_rss_mb is the pytest process's ru_maxrss from os.wait4 in a launcher that forks "
                        "it, in MiB; "
                        "criterion_7 holds each side's fitted mu_1 for n_bar 1..13, Kendall tau and one-sided p "
                        "as the test's CRITERION line prints them (mu_1 to 0.01 ps, tau to 3 decimals, p to 3 "
                        "significant digits), and whether "
                        "every run of that side printed the same",
            "startup": f"wall time of one fresh `python -c '{CLI}' ARGS` "
                       f"process per run, timed from outside, in {PAIRS} alternating pairs per command; "
                       f"version: --version; overlap: overlap --elements 24; geom: the geom-mc workload's geom "
                       f"command at seed {args.seed}; fit_bootstrap_0 and fit_bootstrap_100: fit --bootstrap 0 "
                       f"and 100 of the hist-bootstrap histogram CSV and configuration at seed {args.seed}; "
                       f"simulate, readme_fit_bootstrap_100 and readme_sweep: simulate, fit tags_002.csv "
                       f"--bootstrap 100 and sweep of the README configuration with seed {args.seed}, both sides "
                       "fitting the change's tags_002.csv; files_identical compares each file that one more untimed "
                       "run of the command writes on each side (simulate: tag CSVs and manifest; "
                       "readme_fit_bootstrap_100: fit_result.json and fit_residuals.csv; readme_sweep: sweep.csv and "
                       "sweep.json) across the sides byte for byte, and delay_z gives, for each tag CSV that "
                       "differs, the change's mean and std of edge - trigger minus the parent's over the two "
                       "standard errors combined in quadrature (delta-method error for the std); peak_rss_mb is "
                       "each process's ru_maxrss from os.wait4 in a launcher that forks it, in MiB, and "
                       "minor_faults its ru_minflt from the same call",
            "fit": "the hist-bootstrap workload's histogram CSV and configuration at seeds "
                   f"{sorted({seed for seed, _ in FIT_RUNS})}, fitted once per seed through the CLI "
                   "`fit --bootstrap 100` of each side, and with --fit-mu-infinity too at seeds "
                   f"{[seed for seed, four in FIT_RUNS if four]} (keys SEED-fit_mu_infinity); fit_result_identical "
                   "compares every fit_result.json field but input.path, fit_residuals_identical compares "
                   "fit_residuals.csv byte for byte; max_rel_diff is |change - parent| / |parent| of each float "
                   "field, the largest over the entries of a list field (components, covariance_proxy, "
                   "bootstrap_errors_ps); non_float_fields_equal compares every other field exactly; "
                   "expected_max_rel_diff and pearson_max_abs_diff compare the fit_residuals.csv columns",
            "merged_sweep": "the sweep-merge workload's configuration, run once per seed through the CLI `sweep` "
                            "of each side; z is the change's sigma_hist_ps minus the parent's over the two "
                            "standard errors combined in quadrature; sigma_model_ps_rel_diff is |change - parent| / "
                            "|parent| of sigma_model_ps, and sigma_model_ps_max_rel_diff its largest over n_bar; "
                            "sweep_csv_identical compares the two sides' sweep.csv byte for byte",
            "geom": "the geom-mc workload's CLI `geom` flags, run once per seed on each side; z_change_vs_parent "
                    "is the change's sigma_ps minus the parent's over the two bootstrap errors combined in "
                    "quadrature; z_vs_exact is a side's sigma_ps minus the exact midrange spread over its "
                    "bootstrap error; se_over_closed_form divides a side's bootstrap_se_ps by the delta-method "
                    "error s/2 sqrt((kurtosis - (N-3)/(N-1))/N) at the exact spread and kurtosis; "
                    "histograms_identical compares every geom_hist_n*.csv byte for byte; sigma_ps_identical and "
                    "fitted_exponent_identical compare the geom.json values exactly; max_se_rel_diff is the largest "
                    "|change/parent - 1| of bootstrap_se_ps over n",
            "src_lines": "the total of `wc -l src/snspd_pnr/*.py` in each checkout, and change minus parent",
        },
        "src_lines": {side: src_lines(root) for side, root in sides.items()},
        "workloads": {},
        "runs": [],
    }
    report["src_lines"]["change_minus_parent"] = report["src_lines"]["change"] - report["src_lines"]["parent"]
    for workload in WORKLOADS:
        runs = alternate(PAIRS, sides, lambda root: bench_run(root, workload, args.seed))
        for r in runs:
            r.update(kind="bench", workload=workload, seed=args.seed)
        summary = {m: compare(runs, m) for m in METRICS}
        summary["all_runs_correct"] = all(r["correct"] for r in runs)
        summary["failed_operations"] = sum(r["failed"] for r in runs)
        summary["attempted_operations"] = {s: sum(r["attempted"] for r in runs if r["side"] == s) for s in sides}
        report["workloads"][workload] = summary
        report["runs"] += runs
    for name, test in CRITERIA.items():
        runs = alternate(CRITERION_PAIRS, sides, lambda root: criterion_run(root, test))
        for r in runs:
            r["kind"] = name
        report[f"{name}_s"] = compare(runs, "wall_s")
        report[f"{name}_s"]["all_passed"] = all(r["passed"] for r in runs)
        report[f"{name}_peak_rss_mb"] = compare(runs, "peak_rss_mb")
        if name == "criterion_7":
            report["criterion_7"] = criterion_7_values(runs)
        report["runs"] += runs
    report["startup"], runs = startup_runs(sides, args.seed)
    report["runs"] += runs
    report["fit"] = fit_runs(sides, FIT_RUNS)
    report["merged_sweep"] = merged_sweeps(sides, SWEEP_SEEDS)
    report["geom"] = geom_runs(sides, GEOM_SEEDS)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
