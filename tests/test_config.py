import dataclasses
import json
import math

import pytest

from snspd_pnr import (
    ConfigError,
    DetectorConfig,
    ElementGrid,
    FitSettings,
    JitterBudget,
    SimPlan,
    WireGeometry,
    load_config,
)
from snspd_pnr.dist import MAX_N_BAR

GOOD = {
    "seed": 7,
    "output_dir": "out",
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
    "fit": {"n_bar": 3.0, "theta0": [289, 6, 6], "n_bootstrap": 10, "fit_mu_infinity": True},
    "sim": {"n_bar_values": [1, 2, 3], "events_per_source": 1000, "merge_model": "off"},
}


def write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_full_config_round_trip(tmp_path):
    cfg = load_config(write(tmp_path, GOOD))
    assert cfg.seed == 7
    assert cfg.output_dir == "out"
    assert cfg.detector.amplitude == 100.0
    assert cfg.detector.wire.ground_velocity == 140.0
    assert cfg.detector.grid.element_count == 24
    assert cfg.budget.slew_rate_1 == 1.08
    assert cfg.budget.geom_exponent == 0.75  # default
    assert cfg.fit.theta0 == (289.0, 6.0, 6.0)
    assert cfg.fit.fit_mu_infinity is True
    assert cfg.fit.bin_width == 2.0  # default
    assert cfg.sim.n_bar_values == (1.0, 2.0, 3.0)
    assert cfg.sim.merge_model == "off"


def test_minimal_config_defaults(tmp_path):
    payload = {k: GOOD[k] for k in ("seed", "detector", "budget")}
    cfg = load_config(write(tmp_path, payload))
    assert cfg.sim is None
    assert cfg.output_dir is None
    assert cfg.fit.n_bar is None
    assert cfg.fit.theta0 is None
    assert cfg.fit.n_bootstrap == 0


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(extra=1), "config: unknown keys ['extra']"),
        (lambda d: d["detector"].update(bogus=2), "config.detector: unknown keys"),
        (lambda d: d["detector"].update(rise_scaling_exponent=0.5),
         "config.detector: unknown keys ['rise_scaling_exponent']"),
        (lambda d: d["budget"].update(tau_override=1), "config.budget: unknown keys"),
        (lambda d: d["fit"].update(nbar=1), "config.fit: unknown keys"),
        (lambda d: d["sim"].update(thread_count=4), "config.sim: unknown keys"),
        (lambda d: d["detector"]["wire"].update(len=3), "config.detector.wire: unknown keys"),
        (lambda d: d["detector"]["grid"].update(element_length=5.0),
         "config.detector.grid: unknown keys ['element_length']"),
    ],
)
def test_unknown_keys_are_rejected_with_path(tmp_path, mutate, needle):
    payload = json.loads(json.dumps(GOOD))
    mutate(payload)
    with pytest.raises(ConfigError, match=r"unknown keys"):
        load_config(write(tmp_path, payload))
    try:
        load_config(write(tmp_path, payload))
    except ConfigError as exc:
        assert needle in str(exc)


def test_the_removed_domain_growth_rate_is_an_unknown_key(tmp_path):
    payload = json.loads(json.dumps(GOOD))
    payload["detector"]["domain_growth_rate"] = 1e-5
    with pytest.raises(ConfigError, match=r"^config\.detector: unknown keys \['domain_growth_rate'\]"):
        load_config(write(tmp_path, payload))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("seed"),
        lambda d: d.pop("detector"),
        lambda d: d["detector"].pop("amplitude"),
        lambda d: d["budget"].update(tau="six"),
        lambda d: d.update(seed=1.5),
        lambda d: d.update(seed=True),
        lambda d: d["fit"].update(theta0=[1, 2]),
        lambda d: d["fit"].update(fit_mu_infinity="yes"),
        lambda d: d["sim"].update(n_bar_values=[]),
        lambda d: d["sim"].update(merge_model="merge-everything"),
        lambda d: d.update(output_dir=3),
        lambda d: d.update(detector=[1, 2]),
        lambda d: d["fit"].update(n_bootstrap=1),
        lambda d: d["fit"].update(n_bootstrap=-1),
    ],
)
def test_malformed_values_are_rejected(tmp_path, mutate):
    payload = json.loads(json.dumps(GOOD))
    mutate(payload)
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, payload))


def _merge_without_grid(d):
    del d["detector"]["grid"]
    d["sim"]["merge_model"] = "occupied_elements"


@pytest.mark.parametrize(
    "mutate,path",
    [
        (_merge_without_grid, "config.sim.merge_model"),
        (lambda d: d["fit"].update(bin_width=-2), "config.fit.bin_width"),
        (lambda d: d["fit"].update(bin_width=0), "config.fit.bin_width"),
        (lambda d: d["fit"].update(theta0=[289, 0, 6]), "config.fit.theta0"),
        (lambda d: d["fit"].update(theta0=[289, 6, -1]), "config.fit.theta0"),
        (lambda d: d["sim"].update(n_bar_values=[1, -1.0]), "config.sim.n_bar_values"),
        (lambda d: d["sim"].update(n_bar_values=[0]), "config.sim.n_bar_values"),
        (lambda d: d["sim"].update(n_bar_values=[2, math.inf]), "config.sim.n_bar_values"),
        (lambda d: d["sim"].update(events_per_source=0), "config.sim.events_per_source"),
        (lambda d: d["sim"].update(n_bar_values=[1, 1e9]), "config.sim.n_bar_values"),
        (lambda d: d["fit"].update(n_bar=1e9), "config.fit.n_bar"),
    ],
)
def test_settings_a_command_would_reject_fail_at_load_with_path(tmp_path, mutate, path):
    payload = json.loads(json.dumps(GOOD))
    mutate(payload)
    with pytest.raises(ConfigError) as info:
        load_config(write(tmp_path, payload))
    assert str(info.value).startswith(path + ":")


def test_the_largest_mean_the_weights_accept_loads(tmp_path):
    cfg = load_config(write(tmp_path, {**GOOD, "fit": {**GOOD["fit"], "n_bar": MAX_N_BAR},
                                       "sim": {**GOOD["sim"], "n_bar_values": [1, MAX_N_BAR]}}))
    assert cfg.fit.n_bar == MAX_N_BAR and cfg.sim.n_bar_values == (1.0, MAX_N_BAR)


def test_domain_validation_becomes_config_error(tmp_path):
    payload = json.loads(json.dumps(GOOD))
    payload["detector"]["noise_floor"] = 200.0  # above the amplitude
    with pytest.raises(ConfigError, match="noise_floor"):
        load_config(write(tmp_path, payload))


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda d: d["budget"].update(tau=-1), "config.budget.tau"),
        (lambda d: d["detector"].update(noise_floor=200), "config.detector.noise_floor"),
        (lambda d: d["detector"]["wire"].update(length=-3), "config.detector.wire.length"),
        (lambda d: d["detector"]["grid"].update(element_count=0), "config.detector.grid.element_count"),
    ],
)
def test_value_type_rejections_name_their_section(tmp_path, mutate, path):
    payload = json.loads(json.dumps(GOOD))
    mutate(payload)
    with pytest.raises(ConfigError) as info:
        load_config(write(tmp_path, payload))
    assert str(info.value).startswith(path + ": ")


_VALUE_TYPES = {"budget": JitterBudget, "detector": DetectorConfig, "detector.wire": WireGeometry,
                "detector.grid": ElementGrid}


@pytest.mark.parametrize(
    "section,field,value",
    [
        *[("budget", f, -1.0) for f in ("sigma_inst", "sigma_opt", "sigma_int", "sigma_elec", "sigma_geom_1")],
        ("budget", "sigma_elec", math.nan),
        ("budget", "tau", 0.0),
        ("budget", "tau", math.inf),
        ("budget", "slew_rate_1", -1.0),
        ("budget", "geom_exponent", 0.0),
        ("budget", "geom_exponent", 2.0),
        ("budget", "rise_scaling_exponent", 0.6),
        ("budget", "rise_scaling_exponent", 0.2),
        *[("detector", f, 0.0) for f in ("kinetic_inductance", "amplitude", "noise_floor", "rise_time_1",
                                         "load_resistance")],
        ("detector", "rise_time_1", math.inf),
        ("detector", "noise_floor", 200.0),  # above the amplitude
        ("detector", "delta_mu", math.nan),
        ("detector", "mu_infinity", -math.inf),
        ("detector.wire", "length", 0.0),
        ("detector.wire", "signal_velocity", -6.0),
        ("detector.wire", "ground_velocity", 5.0),  # below the signal velocity
        ("detector.wire", "ground_velocity", math.inf),
        ("detector.grid", "element_count", 0),
        ("detector.grid", "element_count", -3),
    ],
)
def test_each_value_type_check_loads_under_its_field_path(tmp_path, section, field, value):
    payload = json.loads(json.dumps(GOOD))
    data = payload
    for key in section.split("."):
        data = data[key]
    data[field] = value  # a non-finite number is written as JSON NaN or Infinity
    with pytest.raises(ValueError) as type_info:
        _VALUE_TYPES[section](**{k: v for k, v in data.items() if not isinstance(v, dict)})
    message = str(type_info.value)
    assert message.startswith(f"{field}: ") and message.endswith(f"got {value}")
    with pytest.raises(ConfigError) as config_info:
        load_config(write(tmp_path, payload))
    assert str(config_info.value) == f"config.{section}.{message}"


def test_invalid_json_is_reported(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda d: d["budget"].update(sigma_opt=10**400), "config.budget.sigma_opt"),
        (lambda d: d["detector"]["wire"].update(length=-(10**400)), "config.detector.wire.length"),
        (lambda d: d["fit"].update(theta0=[289, 10**400, 6]), "config.fit.theta0"),
        (lambda d: d["sim"].update(n_bar_values=[1, 10**400]), "config.sim.n_bar_values"),
    ],
)
def test_numbers_beyond_the_float_range_name_their_path(tmp_path, mutate, path):
    payload = json.loads(json.dumps(GOOD))
    mutate(payload)
    with pytest.raises(ConfigError) as info:
        load_config(write(tmp_path, payload))
    assert str(info.value) == f"{path}: number too large for a float"


@pytest.mark.parametrize("seed,ok", [(-1, False), (2**64, False), (0, True), (2**64 - 1, True)])
def test_seed_is_a_64_bit_unsigned_integer(tmp_path, seed, ok):
    path = write(tmp_path, {**GOOD, "seed": seed})
    if ok:
        assert load_config(path).seed == seed
    else:
        with pytest.raises(ConfigError, match=r"^config\.seed: must be a 64-bit unsigned integer$"):
            load_config(path)


@pytest.mark.parametrize(
    "raw",
    [b'{"seed": 1' + b"0" * 5000 + b"}", b'{"seed": 1, "output_dir": "\xff"}'],
    ids=["integer-over-4300-digits", "not-utf-8"],
)
def test_unreadable_json_is_reported(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


@pytest.mark.parametrize(
    "change,field",
    [
        ({"n_bar_values": []}, "n_bar_values"),
        ({"n_bar_values": [1, -1.0]}, "n_bar_values"),
        ({"n_bar_values": [0]}, "n_bar_values"),
        ({"n_bar_values": [2, math.inf]}, "n_bar_values"),
        ({"n_bar_values": [math.nan]}, "n_bar_values"),
        ({"events_per_source": 0}, "events_per_source"),
        ({"events_per_source": -3}, "events_per_source"),
        ({"merge_model": "merge-everything"}, "merge_model"),
        ({"merge_model": 1}, "merge_model"),
        ({"merge_model": "occupied_elements", "grid": None}, "merge_model"),
        ({"n_bar_values": [1, MAX_N_BAR * (1 + 2**-52)]}, "n_bar_values"),  # one ulp above the weights' bound
        ({"n_bar_values": [1e9]}, "n_bar_values"),
    ],
)
def test_each_sim_check_is_the_plans_and_loads_as_config_sim(tmp_path, change, field):
    good = load_config(write(tmp_path, GOOD))
    change, detector, payload = dict(change), good.detector, json.loads(json.dumps(GOOD))
    if "grid" in change:  # the grid leaves both the plan's detector and the config
        del change["grid"], payload["detector"]["grid"]
        detector = dataclasses.replace(detector, grid=None)
    sim = {**GOOD["sim"], **change}
    with pytest.raises(ValueError) as plan_info:
        SimPlan(detector, good.budget, seed=good.seed, **sim)
    message = str(plan_info.value)
    assert message.startswith(field + ": ")
    payload["sim"] = sim
    with pytest.raises(ConfigError) as config_info:
        load_config(write(tmp_path, payload))
    assert str(config_info.value) == f"config.sim.{message}"


@pytest.mark.parametrize(
    "change,field",
    [
        ({"n_bar": math.nan}, "n_bar"),
        ({"n_bar": math.inf}, "n_bar"),
        ({"n_bar": 0.0}, "n_bar"),
        ({"n_bar": -1.0}, "n_bar"),
        ({"theta0": [math.nan, 6, 6]}, "theta0"),
        ({"theta0": [289, 6, -math.inf]}, "theta0"),
        ({"theta0": [289, 6]}, "theta0"),
        ({"theta0": [289, 0, 6]}, "theta0"),
        ({"n_bootstrap": 1}, "n_bootstrap"),
        ({"n_bootstrap": -1}, "n_bootstrap"),
        ({"bin_width": 0.0}, "bin_width"),
        ({"bin_width": math.inf}, "bin_width"),
        ({"theta0": [289, 1e-30, 6]}, "theta0"),  # finite, but outside the fit's search box
        ({"theta0": [2e7, 6, 6]}, "theta0"),
        ({"n_bar": MAX_N_BAR * (1 + 2**-52)}, "n_bar"),
        ({"n_bar": 1e9}, "n_bar"),
    ],
)
def test_each_fit_check_is_the_settings_and_loads_as_config_fit(tmp_path, change, field):
    fit = {**GOOD["fit"], **change}
    with pytest.raises(ValueError) as settings_info:
        FitSettings(**fit)
    message = str(settings_info.value)
    assert message.startswith(field + ": ")
    path = write(tmp_path, {**GOOD, "fit": fit})  # a non-finite number is written as JSON NaN or Infinity
    with pytest.raises(ConfigError) as config_info:
        load_config(path)
    assert str(config_info.value) == f"config.fit.{message}"


def test_the_sim_section_is_the_plan(tmp_path):
    cfg = load_config(write(tmp_path, GOOD))
    assert cfg.sim == SimPlan(cfg.detector, cfg.budget, (1.0, 2.0, 3.0), 1000, "off", 7)
