import json
import math

import pytest

from snspd_pnr import ConfigError, load_config

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
    ],
)
def test_settings_a_command_would_reject_fail_at_load_with_path(tmp_path, mutate, path):
    payload = json.loads(json.dumps(GOOD))
    mutate(payload)
    with pytest.raises(ConfigError) as info:
        load_config(write(tmp_path, payload))
    assert str(info.value).startswith(path + ":")


def test_domain_validation_becomes_config_error(tmp_path):
    payload = json.loads(json.dumps(GOOD))
    payload["detector"]["noise_floor"] = 200.0  # above the amplitude
    with pytest.raises(ConfigError, match="noise_floor"):
        load_config(write(tmp_path, payload))


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda d: d["budget"].update(tau=-1), "config.budget"),
        (lambda d: d["detector"].update(noise_floor=200), "config.detector"),
        (lambda d: d["detector"]["wire"].update(length=-3), "config.detector.wire"),
        (lambda d: d["detector"]["grid"].update(element_count=0), "config.detector.grid"),
    ],
)
def test_value_type_rejections_name_their_section(tmp_path, mutate, path):
    payload = json.loads(json.dumps(GOOD))
    mutate(payload)
    with pytest.raises(ConfigError) as info:
        load_config(write(tmp_path, payload))
    assert str(info.value).startswith(path + ":")


def test_invalid_json_is_reported(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)
