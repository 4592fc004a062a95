import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import snspd_pnr
from snspd_pnr import ingest_time_tags, write_histogram_csv
from snspd_pnr.cli import main

CONFIG = {
    "seed": 7,
    "detector": {
        "kinetic_inductance": 500.0,
        "amplitude": 100.0,
        "noise_floor": 10.0,
        "delta_mu": 289.0,
        "mu_infinity": 144.0,
        "rise_time_1": 300.0,
        "wire": {"length": 200.0, "signal_velocity": 6.0, "ground_velocity": 140.0},
        "grid": {"element_count": 24},
    },
    "budget": {
        "sigma_inst": 3.0,
        "sigma_opt": 1.0,
        "sigma_int": 6.0,
        "tau": 6.0,
        "sigma_elec": 4.9,
        "slew_rate_1": 1.08,
        "sigma_geom_1": 9.0,
    },
    "fit": {"bin_width": 2.0},
    "sim": {"n_bar_values": [1.0], "events_per_source": 40_000, "merge_model": "off"},
}
CLI = "from snspd_pnr.cli import main; main()"  # the console script, for fresh interpreters


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return str(path)


def out_text(result) -> str:
    text = result.output
    stderr = getattr(result, "stderr", None)
    if stderr:
        text += stderr
    return text


@pytest.fixture
def tag_file(runner, config_path, tmp_path):
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "-c", config_path, "-o", str(out)])
    assert result.exit_code == 0, out_text(result)
    return out / "tags_000.csv"


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_simulate_writes_manifest_and_is_deterministic(runner, config_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    r1 = runner.invoke(main, ["simulate", "-c", config_path, "-o", str(a)])
    r2 = runner.invoke(main, ["simulate", "-c", config_path, "-o", str(b)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (a / "tags_000.csv").read_bytes() == (b / "tags_000.csv").read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["version"]
    assert manifest["sources"][0]["events"] == 40_000


@pytest.mark.parametrize("blocked", ["tags_000.csv", "manifest.json"])
def test_simulate_unwritable_artifact_exit_3_naming_the_path(runner, config_path, tmp_path, blocked):
    out = tmp_path / "sim"
    (out / blocked).mkdir(parents=True)  # a directory where the file goes
    result = runner.invoke(main, ["simulate", "-c", config_path, "-o", str(out)])
    assert result.exit_code == 3, out_text(result)
    assert str(out / blocked) in out_text(result)


def test_simulate_seed_override_changes_bytes(runner, config_path, tmp_path):
    r1 = runner.invoke(main, ["simulate", "-c", config_path, "-o", str(tmp_path / "s7")])
    r2 = runner.invoke(
        main, ["simulate", "-c", config_path, "-o", str(tmp_path / "s8"), "--seed", "8"]
    )
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert (tmp_path / "s7" / "tags_000.csv").read_bytes() != (
        tmp_path / "s8" / "tags_000.csv"
    ).read_bytes()


def test_simulate_requires_sim_section(runner, tmp_path):
    cfg = {k: CONFIG[k] for k in ("seed", "detector", "budget")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    result = runner.invoke(main, ["simulate", "-c", str(path), "-o", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "config.sim" in out_text(result)


def test_fit_tag_file(runner, config_path, tag_file, tmp_path):
    out = tmp_path / "fit"
    result = runner.invoke(
        main, ["fit", str(tag_file), "-c", config_path, "-o", str(out), "--svg"]
    )
    assert result.exit_code == 0, out_text(result)
    payload = json.loads((out / "fit_result.json").read_text())
    assert payload["version"]
    assert payload["converged"] is True
    assert payload["input"]["format"] == "time_tags"
    assert payload["n_bar"] == 1.0  # from the tag header
    assert abs(payload["delta_mu_ps"] - 289.0) < 5.0
    assert abs(payload["sigma_int_ps"] - 6.0) < 1.0
    assert abs(payload["tau_ps"] - 6.0) < 1.0
    assert payload["components"][0]["n"] == 1
    assert len(payload["covariance_proxy"]) == 3
    lines = (out / "fit_residuals.csv").read_text().strip().splitlines()
    assert lines[0] == "bin_center_ps,count,expected,pearson"
    assert len(lines) == payload["input"]["bins"] + 1
    svg = (out / "fit.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_fit_rerun_is_byte_identical(runner, config_path, tag_file, tmp_path):
    r1 = runner.invoke(main, ["fit", str(tag_file), "-c", config_path, "-o", str(tmp_path / "f1"), "--svg"])
    r2 = runner.invoke(main, ["fit", str(tag_file), "-c", config_path, "-o", str(tmp_path / "f2"), "--svg"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    for name in ("fit_result.json", "fit_residuals.csv", "fit.svg"):
        assert (tmp_path / "f1" / name).read_bytes() == (tmp_path / "f2" / name).read_bytes()


def test_fit_histogram_schema_matches_tag_schema(runner, config_path, tag_file, tmp_path):
    hist = ingest_time_tags(tag_file)
    hist_path = tmp_path / "hist.csv"
    write_histogram_csv(hist_path, hist)
    r_tag = runner.invoke(main, ["fit", str(tag_file), "-c", config_path, "-o", str(tmp_path / "ft")])
    r_hist = runner.invoke(main, ["fit", str(hist_path), "-c", config_path, "-o", str(tmp_path / "fh")])
    assert r_tag.exit_code == 0 and r_hist.exit_code == 0
    a = json.loads((tmp_path / "ft" / "fit_result.json").read_text())
    b = json.loads((tmp_path / "fh" / "fit_result.json").read_text())
    assert b["input"]["format"] == "histogram"
    assert b["n_bar"] == 1.0  # carried by the histogram header
    for key in ("delta_mu_ps", "sigma_int_ps", "tau_ps", "negative_log_likelihood"):
        assert a[key] == b[key]


def test_fit_bootstrap_seed_override(runner, config_path, tag_file, tmp_path):
    args = ["fit", str(tag_file), "-c", config_path, "--bootstrap", "6"]
    r1 = runner.invoke(main, args + ["-o", str(tmp_path / "b1"), "--seed", "1"])
    r2 = runner.invoke(main, args + ["-o", str(tmp_path / "b2"), "--seed", "2"])
    r3 = runner.invoke(main, args + ["-o", str(tmp_path / "b3"), "--seed", "1"])
    assert r1.exit_code == 0 and r2.exit_code == 0 and r3.exit_code == 0
    e1 = json.loads((tmp_path / "b1" / "fit_result.json").read_text())["bootstrap_errors_ps"]
    e2 = json.loads((tmp_path / "b2" / "fit_result.json").read_text())["bootstrap_errors_ps"]
    e3 = json.loads((tmp_path / "b3" / "fit_result.json").read_text())["bootstrap_errors_ps"]
    assert e1 != e2
    assert e1 == e3


def test_fit_reports_bootstrap_convergence(runner, config_path, tag_file, tmp_path):
    base = ["fit", str(tag_file), "-c", config_path]
    r0 = runner.invoke(main, base + ["-o", str(tmp_path / "b0")])
    r3 = runner.invoke(main, base + ["-o", str(tmp_path / "b3"), "--bootstrap", "3"])
    assert r0.exit_code == 0 and r3.exit_code == 0, out_text(r3)
    assert json.loads((tmp_path / "b0" / "fit_result.json").read_text())["bootstrap_converged"] is None
    assert json.loads((tmp_path / "b3" / "fit_result.json").read_text())["bootstrap_converged"] == 3


def test_fit_one_bootstrap_resample_exit_2(runner, config_path, tag_file, tmp_path):
    out = tmp_path / "o"
    result = runner.invoke(main, ["fit", str(tag_file), "-c", config_path, "-o", str(out), "--bootstrap", "1"])
    assert result.exit_code == 2
    assert "n_bootstrap: must be 0 or >= 2, got 1" in out_text(result)
    assert not (out / "fit_result.json").exists()


def test_fit_config_n_bar_contradicting_the_header_exit_2(runner, tag_file, tmp_path):
    path = tmp_path / "n_bar_3.json"
    path.write_text(json.dumps({**CONFIG, "fit": {**CONFIG["fit"], "n_bar": 3.0}}), encoding="utf-8")
    out = tmp_path / "o"
    result = runner.invoke(main, ["fit", str(tag_file), "-c", str(path), "-o", str(out)])
    assert result.exit_code == 2, out_text(result)
    for part in ("config.fit.n_bar = 3.0", "n_bar = 1.0 header", str(tag_file)):
        assert part in out_text(result)
    assert not (out / "fit_result.json").exists()
    # --n-bar still overrides both
    result = runner.invoke(main, ["fit", str(tag_file), "-c", str(path), "-o", str(out), "--n-bar", "1"])
    assert result.exit_code == 0, out_text(result)
    assert json.loads((out / "fit_result.json").read_text())["n_bar"] == 1.0


def test_fit_n_bar_above_the_weights_bound_exit_2(runner, config_path, tmp_path):
    # from --n-bar or from the file's header, the mean reaches the weights' check, not an 8 GB array
    hist = tmp_path / "hist.csv"
    hist.write_text("# n_bar=1e9\nbin_center_ps,count\n1,500\n3,700\n5,400\n", encoding="utf-8")
    for extra in ([], ["--n-bar", "1e9"]):
        out = tmp_path / "o"
        result = runner.invoke(main, ["fit", str(hist), "-c", config_path, "-o", str(out), *extra])
        assert result.exit_code == 2, out_text(result)
        assert "error: n_bar: must be positive and at most 10000, got 1000000000.0" in out_text(result)
        assert not (out / "fit_result.json").exists()


def test_fit_histogram_without_nbar_fails(runner, config_path, tag_file, tmp_path):
    hist = ingest_time_tags(tag_file)
    hist = type(hist)(hist.bin_edges, hist.counts, hist.total_events, None)
    hist_path = tmp_path / "anon.csv"
    write_histogram_csv(hist_path, hist)
    result = runner.invoke(main, ["fit", str(hist_path), "-c", config_path, "-o", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "n_bar" in out_text(result)


def test_fit_corrupt_row_reports_line(runner, config_path, tag_file, tmp_path):
    lines = tag_file.read_text().splitlines()[:6]
    lines.append("99,not-a-time")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["fit", str(bad), "-c", config_path, "-o", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "line 7" in out_text(result)


def test_fit_histogram_bad_nbar_header_reports_line(runner, config_path, tmp_path):
    bad = tmp_path / "hist.csv"
    bad.write_text("# unit=ps\n# n_bar=abc\nbin_center_ps,count\n1,5\n3,7\n", encoding="utf-8")
    result = runner.invoke(main, ["fit", str(bad), "-c", config_path, "-o", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "line 2: n_bar is not a number" in out_text(result)


def test_fit_missing_file_exit_3(runner, config_path, tmp_path):
    result = runner.invoke(
        main, ["fit", str(tmp_path / "nope.csv"), "-c", config_path, "-o", str(tmp_path / "o")]
    )
    assert result.exit_code == 3


def test_fit_unrecognized_header(runner, config_path, tmp_path):
    weird = tmp_path / "weird.csv"
    weird.write_text("time,volts\n1,2\n", encoding="utf-8")
    result = runner.invoke(main, ["fit", str(weird), "-c", config_path, "-o", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "unrecognized header" in out_text(result)


@pytest.mark.parametrize("theta0", [[289.0, 1e-30, 6.0], [2e7, 6.0, 6.0]])
def test_fit_theta0_outside_the_search_box_exit_2_naming_it(runner, tmp_path, theta0):
    cfg = json.loads(json.dumps(CONFIG))
    cfg["fit"]["theta0"] = theta0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    result = runner.invoke(main, ["fit", str(tmp_path / "tags.csv"), "-c", str(path), "-o", str(tmp_path / "o")])
    assert result.exit_code == 2, out_text(result)
    assert "config.fit.theta0: " in out_text(result) and "search box" in out_text(result)


def test_fit_without_a_start_in_the_search_box_exit_2_naming_it(runner, config_path, tmp_path):
    times = np.random.default_rng(5).normal(3e7, 10.0, 50_000)
    hist_path = tmp_path / "far.csv"
    write_histogram_csv(hist_path, snspd_pnr.ArrivalHistogram.from_events(times, 2.0, 3.0))
    result = runner.invoke(main, ["fit", str(hist_path), "-c", config_path, "-o", str(tmp_path / "o")])
    assert result.exit_code == 2, out_text(result)
    assert "no start lies in the search box |delta_mu| <= 1e7" in out_text(result)
    assert "the moment start (delta_mu, sigma_int, tau) = (" in out_text(result)
    assert not (tmp_path / "o" / "fit_result.json").exists()


def test_bad_config_exit_2(runner, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CONFIG, "surprise": 1}), encoding="utf-8")
    result = runner.invoke(main, ["simulate", "-c", str(path), "-o", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "unknown keys" in out_text(result)


@pytest.mark.parametrize(
    "section,key,path",
    [("budget", "sigma_opt", "config.budget.sigma_opt"), ("fit", "bin_width", "config.fit.bin_width")],
)
def test_config_number_too_large_for_a_float_exit_2(runner, tmp_path, section, key, path):
    cfg = json.loads(json.dumps(CONFIG))
    cfg[section][key] = 10**400  # a JSON integer literal, a 1 and 400 zeros
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    result = runner.invoke(main, ["simulate", "-c", str(cfg_path), "-o", str(tmp_path / "o")])
    assert result.exit_code == 2, out_text(result)
    assert f"error: {path}: number too large for a float" in out_text(result)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_seed_out_of_range_exit_2(runner, tmp_path, seed):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**CONFIG, "seed": seed}), encoding="utf-8")
    result = runner.invoke(main, ["simulate", "-c", str(cfg_path), "-o", str(tmp_path / "o")])
    assert result.exit_code == 2, out_text(result)
    assert "error: config.seed: must be a 64-bit unsigned integer" in out_text(result)
    assert not (tmp_path / "o").exists()


def test_geom_cli(runner, tmp_path):
    out = tmp_path / "geom"
    result = runner.invoke(
        main,
        [
            "geom",
            "--length", "200um",
            "--signal-velocity", "6",
            "--ground-velocity", "140",
            "--n-values", "1,2",
            "--samples", "20000",
            "--histogram-bins", "10",
            "--seed", "3",
            "-o", str(out),
        ],
    )
    assert result.exit_code == 0, out_text(result)
    payload = json.loads((out / "geom.json").read_text())
    assert payload["wire"]["length_um"] == 200.0
    assert payload["conventional_readout_delay_ps"] == pytest.approx(17.380952380952383)
    assert abs(payload["per_n"][0]["sigma_ps"] - 9.62) < 0.2
    assert (out / "geom_hist_n01.csv").exists()
    assert (out / "geom_hist_n02.csv").exists()


@pytest.mark.parametrize("resamples", ["0", "1"])
def test_geom_too_few_bootstrap_resamples_exit_2(runner, tmp_path, resamples):
    out = tmp_path / "geom"
    result = runner.invoke(main, ["geom", "--length", "200um", "--signal-velocity", "6", "--n-values", "1,2",
                                  "--samples", "10000", "--bootstrap", resamples, "-o", str(out)])
    assert result.exit_code == 2
    assert "bootstrap_resamples must be >= 2" in out_text(result)
    assert not (out / "geom.json").exists()


def test_geom_output_does_not_depend_on_blas_threads(tmp_path):
    # the bootstrap sums are BLAS matrix products; reruns must be byte-identical at any thread count
    src = str(Path(snspd_pnr.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", CLI, "geom", "--length", "200um", "--signal-velocity", "6",
                        "--n-values", "1,2,3,4", "--samples", "20000", "--bootstrap", "20",
                        "--histogram-bins", "10", "--seed", "5", "-o", str(out)],
                       env=env, capture_output=True, text=True, timeout=120, check=True)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == ["geom.json"] + [f"geom_hist_n{n:02d}.csv" for n in range(1, 5)]
    assert outputs[0] == outputs[1]


def test_geom_empty_n_values_exit_2(runner, tmp_path):
    out = tmp_path / "geom"
    result = runner.invoke(main, ["geom", "--length", "200um", "--signal-velocity", "6", "--n-values", ",",
                                  "--samples", "10000", "-o", str(out)])
    assert result.exit_code == 2
    assert "n_values must contain integers >= 1" in out_text(result)
    assert not out.exists()


def test_geom_repeated_n_value_exit_2(runner, tmp_path):
    # two rows of n = 1 would both write geom_hist_n01.csv
    out = tmp_path / "geom"
    result = runner.invoke(main, ["geom", "--length", "200um", "--signal-velocity", "6", "--n-values", "1,2,01",
                                  "--samples", "10000", "--histogram-bins", "3", "-o", str(out)])
    assert result.exit_code == 2
    assert "--n-values: photon number 1 is repeated" in out_text(result)
    assert not out.exists()


def test_geom_negative_histogram_bins_exit_2(runner, tmp_path):
    out = tmp_path / "geom"
    result = runner.invoke(main, ["geom", "--length", "200um", "--signal-velocity", "6", "--n-values", "1,2",
                                  "--samples", "10000", "--histogram-bins", "-3", "-o", str(out)])
    assert result.exit_code == 2
    assert "--histogram-bins" in out_text(result)
    assert not out.exists()


def test_overlap_cli_stdout(runner):
    result = runner.invoke(main, ["overlap", "--elements", "10", "--max-photons", "3"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["rows"][1] == {"n": 2, "exact": 0.1, "approx": pytest.approx(0.0951625819640)}


def test_pulse_cli_units(runner):
    result = runner.invoke(
        main,
        [
            "pulse",
            "--kinetic-inductance", "500nH",
            "--amplitude", "100mV",
            "--noise-floor", "10mV",
            "--rise-time", "300ps",
            "--sigma-elec", "4.9mV",
            "--max-n", "2",
        ],
    )
    assert result.exit_code == 0, out_text(result)
    payload = json.loads(result.output)
    assert payload["fall_time_ps"] == 10000.0
    assert payload["reset_time_ps"] == pytest.approx(23025.850929940458)
    assert payload["per_n"][0]["slew_noise_jitter_ps"] == pytest.approx(14.7)
    bad = runner.invoke(main, ["pulse", "--kinetic-inductance", "500furlongs", "--amplitude",
                               "100mV", "--noise-floor", "10mV", "--rise-time", "300ps"])
    assert bad.exit_code == 2


def test_sweep_cli(runner, tmp_path):
    cfg = json.loads(json.dumps(CONFIG))
    cfg["sim"]["n_bar_values"] = [1.0, 2.0, 5.0]
    cfg["sim"]["events_per_source"] = 20_000
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    args = ["sweep", "-c", str(path), "--svg"]
    r1 = runner.invoke(main, args + ["-o", str(tmp_path / "w1")])
    r2 = runner.invoke(main, args + ["-o", str(tmp_path / "w2")])
    assert r1.exit_code == 0, out_text(r1)
    assert r2.exit_code == 0
    csv1 = (tmp_path / "w1" / "sweep.csv").read_bytes()
    assert csv1 == (tmp_path / "w2" / "sweep.csv").read_bytes()
    assert (tmp_path / "w1" / "sweep.svg").read_bytes() == (tmp_path / "w2" / "sweep.svg").read_bytes()
    lines = csv1.decode().strip().splitlines()
    assert lines[0] == "n_bar,sigma_hist_ps,sigma_err_ps,sigma_model_ps"
    assert len(lines) == 4
    payload = json.loads((tmp_path / "w1" / "sweep.json").read_text())
    assert len(payload["rows"]) == 3
    assert payload["version"]


@pytest.mark.parametrize("width", ["nan", "inf", "-1", "0"])
def test_sweep_bad_bin_width_exit_2(runner, config_path, tmp_path, width):
    out = tmp_path / "w"
    result = runner.invoke(main, ["sweep", "-c", config_path, "-o", str(out), "--bin-width", width])
    assert result.exit_code == 2
    assert f"error: bin_width: must be positive and finite, got {float(width)}" in out_text(result)
    assert not (out / "sweep.json").exists() and not (out / "sweep.csv").exists()


def _rejection_args(command, tmp_path, config_path) -> tuple[list[str], list[str]]:
    """Arguments of ``command`` that it rejects as bad input, and arguments that it accepts, both without ``-o``."""
    no_sim = tmp_path / "no_sim.json"
    no_sim.write_text(json.dumps({k: v for k, v in CONFIG.items() if k != "sim"}), encoding="utf-8")
    anon, hist = tmp_path / "anon.csv", tmp_path / "hist.csv"  # the configuration sets no fit.n_bar
    anon.write_text("bin_center_ps,count\n1,500\n3,700\n5,400\n", encoding="utf-8")
    hist.write_text("# n_bar=1\nbin_center_ps,count\n1,500\n3,700\n5,400\n", encoding="utf-8")
    geom = ["geom", "--signal-velocity", "6", "--samples", "10000", "--bootstrap", "2", "--length"]
    pulse = ["pulse", "--kinetic-inductance", "500nH", "--amplitude", "100mV", "--rise-time", "300ps", "--noise-floor"]
    return {
        "simulate": (["simulate", "-c", str(no_sim)], ["simulate", "-c", config_path]),
        "fit": (["fit", str(anon), "-c", config_path], ["fit", str(hist), "-c", config_path]),
        "geom": (geom + ["0"], geom + ["200"]),
        "overlap": (["overlap", "--elements", "0"], ["overlap", "--elements", "24"]),
        "pulse": (pulse + ["200mV"], pulse + ["10mV"]),
        "sweep": (["sweep", "-c", config_path, "--bin-width", "0"], ["sweep", "-c", config_path]),
    }[command]


@pytest.mark.parametrize("command", ["simulate", "fit", "geom", "overlap", "pulse", "sweep"])
def test_every_command_maps_rejections_to_one_error_line_and_its_exit_code(runner, config_path, tmp_path, command):
    # an input error exits 2, and an output directory that cannot be made exits 3, each with one error line
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    bad, good = _rejection_args(command, tmp_path, config_path)
    for args, code in ((bad + ["-o", str(tmp_path / "out")], 2), (good + ["-o", str(blocker / "out")], 3)):
        result = runner.invoke(main, args)
        assert result.exit_code == code, (args, out_text(result))
        assert isinstance(result.exception, SystemExit), result.exception
        errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1, result.output
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def _scipy_modules_loaded_by(code: str, *args: str) -> list[str]:
    """Run ``code`` with ``args`` in a fresh interpreter; return the scipy modules loaded when it exits."""
    report = ("import atexit, sys; atexit.register(lambda: print(' '.join(m for m in sys.modules "
              "if m == 'scipy' or m.startswith('scipy.'))))\n")
    src = str(Path(snspd_pnr.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", report + code, *args], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return done.stdout.splitlines()[-1].split()


def test_cli_import_leaves_unused_scipy_modules_out():
    # importing scipy.special takes about 0.3 s (numpy.f2py comes with it), and scipy.stats,
    # scipy.signal and scipy.optimize more; the import computes nothing, so none of them may load
    assert _scipy_modules_loaded_by("import snspd_pnr, snspd_pnr.cli") == []


@pytest.mark.parametrize(
    "args",
    [
        ["--version"],
        ["geom", "--length", "200um", "--signal-velocity", "6", "--ground-velocity", "140", "--n-values", "1,2",
         "--samples", "10000", "--bootstrap", "2", "--histogram-bins", "5", "--seed", "3", "-o", "{out}"],
        ["overlap", "--elements", "24"],
        ["pulse", "--kinetic-inductance", "500nH", "--amplitude", "100mV", "--noise-floor", "10mV",
         "--rise-time", "300ps"],
        ["simulate", "-c", "{config}", "-o", "{out}"],
        ["sweep", "-c", "{config}", "-o", "{out}"],
    ],
    ids=["version", "geom", "overlap", "pulse", "simulate", "sweep"],
)
def test_commands_without_the_emg_kernel_load_no_scipy(tmp_path, config_path, args):
    # these commands evaluate no EMG CDF, so scipy.special never loads: simulate and sweep build the
    # mixture, but its Poisson weights need only numpy and math
    args = [a.format(out=tmp_path / "out", config=config_path) for a in args]
    assert _scipy_modules_loaded_by(CLI, *args) == []


def test_fit_loads_scipy_special_and_no_other_scipy_subpackage(config_path, tag_file, tmp_path):
    hist_path = tmp_path / "hist.csv"
    write_histogram_csv(hist_path, ingest_time_tags(tag_file))
    loaded = _scipy_modules_loaded_by(CLI, "fit", str(hist_path), "-c", config_path, "-o", str(tmp_path / "fit"),
                                      "--bootstrap", "0")
    assert "scipy.special" in loaded
    assert not {"scipy.stats", "scipy.signal", "scipy.optimize"} & set(loaded)
    assert json.loads((tmp_path / "fit" / "fit_result.json").read_text())["converged"] is True


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["simulate", "fit", "sweep", "geom"])
def test_seed_flag_outside_64_bits_exit_2_naming_the_flag(runner, config_path, tmp_path, command, seed):
    hist = tmp_path / "hist.csv"
    hist.write_text("# n_bar=1\nbin_center_ps,count\n1,5\n3,7\n", encoding="utf-8")
    out = tmp_path / "o"
    args = {
        "simulate": ["simulate", "-c", config_path],
        "fit": ["fit", str(hist), "-c", config_path, "--bootstrap", "0"],
        "sweep": ["sweep", "-c", config_path],
        "geom": ["geom", "--length", "200um", "--signal-velocity", "6", "--samples", "10000"],
    }[command]
    result = runner.invoke(main, args + ["-o", str(out), "--seed", seed])
    assert result.exit_code == 2, out_text(result)
    assert "'--seed'" in out_text(result)
    assert not out.exists()


def test_fit_count_beyond_int64_exit_2_naming_the_line(runner, config_path, tmp_path):
    bad = tmp_path / "hist.csv"
    bad.write_text(f"# n_bar=1\nbin_center_ps,count\n1,5\n3,{2**63}\n5,2\n", encoding="utf-8")
    result = runner.invoke(main, ["fit", str(bad), "-c", config_path, "-o", str(tmp_path / "o")])
    assert result.exit_code == 2, out_text(result)
    assert "line 4: integer outside the 64-bit range" in out_text(result)


def test_fit_total_beyond_int64_exit_2_naming_the_file(runner, config_path, tmp_path):
    bad = tmp_path / "hist.csv"
    bad.write_text(f"# n_bar=1\nbin_center_ps,count\n1,{2**62}\n3,{2**62}\n5,2\n", encoding="utf-8")
    result = runner.invoke(main, ["fit", str(bad), "-c", config_path, "-o", str(tmp_path / "o")])
    assert result.exit_code == 2, out_text(result)
    assert f"{bad}: total count {2**63 + 2} is beyond the 64-bit range" in out_text(result)
