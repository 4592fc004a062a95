"""Strict JSON run configuration mirroring the library value types.

Unknown keys are rejected with their dotted path; numeric fields accept JSON
numbers only.  Layout:

    {
      "seed": 1,
      "output_dir": "out",                # optional, CLI flag overrides
      "detector": { ... DetectorConfig fields, "wire": {...}, "grid": {...} },
      "budget":   { ... JitterBudget fields },
      "fit":      { "n_bar": 3.0, "theta0": [289, 6, 6], "n_bootstrap": 0,
                    "bin_width": 2.0, "fit_mu_infinity": false },
      "sim":      { "n_bar_values": [1, 2], "events_per_source": 100000,
                    "merge_model": "off" }
    }

Units follow the library conventions: ps, mV, mV/ps, nH, Ohm, um, um/ps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from .budget import JitterBudget
from .geom import WireGeometry
from .overlap import ElementGrid
from .pulse import DetectorConfig
from .sim import MergeModel


class ConfigError(Exception):
    """Invalid run configuration."""


@dataclass(frozen=True)
class FitSettings:
    n_bar: float | None = None
    theta0: tuple[float, float, float] | None = None
    n_bootstrap: int = 0
    bin_width: float = 2.0
    fit_mu_infinity: bool = False


@dataclass(frozen=True)
class SimSettings:
    n_bar_values: tuple[float, ...]
    events_per_source: int
    merge_model: str = "off"


@dataclass(frozen=True)
class RunConfig:
    seed: int
    detector: DetectorConfig
    budget: JitterBudget
    fit: FitSettings
    sim: SimSettings | None
    output_dir: str | None


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object")
    return value


def _check_keys(data: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


_sentinel = object()


def _number(data: dict, key: str, path: str, default=_sentinel):
    if key not in data:
        if default is _sentinel:
            raise ConfigError(f"{path}.{key}: required")
        return default
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    return float(v)


def _integer(data: dict, key: str, path: str, default=_sentinel):
    if key not in data:
        if default is _sentinel:
            raise ConfigError(f"{path}.{key}: required")
        return default
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    return int(v)


def _boolean(data: dict, key: str, path: str, default: bool) -> bool:
    if key not in data:
        return default
    v = data[key]
    if not isinstance(v, bool):
        raise ConfigError(f"{path}.{key}: expected true or false")
    return v


def _build_wire(data: Any, path: str) -> WireGeometry:
    d = _mapping(data, path)
    _check_keys(d, {"length", "signal_velocity", "ground_velocity"}, path)
    return WireGeometry(
        length=_number(d, "length", path),
        signal_velocity=_number(d, "signal_velocity", path),
        ground_velocity=_number(d, "ground_velocity", path, None),
    )


def _build_grid(data: Any, path: str) -> ElementGrid:
    d = _mapping(data, path)
    _check_keys(d, {"element_count", "element_length"}, path)
    return ElementGrid(
        element_count=_integer(d, "element_count", path),
        element_length=_number(d, "element_length", path, None),
    )


def _build_detector(data: Any, path: str) -> DetectorConfig:
    d = _mapping(data, path)
    allowed = {
        "kinetic_inductance",
        "amplitude",
        "noise_floor",
        "delta_mu",
        "mu_infinity",
        "rise_time_1",
        "load_resistance",
        "domain_growth_rate",
        "wire",
        "grid",
    }
    _check_keys(d, allowed, path)
    return DetectorConfig(
        kinetic_inductance=_number(d, "kinetic_inductance", path),
        amplitude=_number(d, "amplitude", path),
        noise_floor=_number(d, "noise_floor", path),
        delta_mu=_number(d, "delta_mu", path),
        mu_infinity=_number(d, "mu_infinity", path),
        rise_time_1=_number(d, "rise_time_1", path),
        load_resistance=_number(d, "load_resistance", path, 50.0),
        domain_growth_rate=_number(d, "domain_growth_rate", path, None),
        wire=_build_wire(d["wire"], f"{path}.wire") if "wire" in d else None,
        grid=_build_grid(d["grid"], f"{path}.grid") if "grid" in d else None,
    )


def _build_budget(data: Any, path: str) -> JitterBudget:
    d = _mapping(data, path)
    allowed = {
        "sigma_inst",
        "sigma_opt",
        "sigma_int",
        "tau",
        "sigma_elec",
        "slew_rate_1",
        "sigma_geom_1",
        "geom_exponent",
        "rise_scaling_exponent",
    }
    _check_keys(d, allowed, path)
    return JitterBudget(
        sigma_inst=_number(d, "sigma_inst", path),
        sigma_opt=_number(d, "sigma_opt", path),
        sigma_int=_number(d, "sigma_int", path),
        tau=_number(d, "tau", path),
        sigma_elec=_number(d, "sigma_elec", path),
        slew_rate_1=_number(d, "slew_rate_1", path),
        sigma_geom_1=_number(d, "sigma_geom_1", path),
        geom_exponent=_number(d, "geom_exponent", path, 0.75),
        rise_scaling_exponent=_number(d, "rise_scaling_exponent", path, 0.5),
    )


def _build_fit(data: Any, path: str) -> FitSettings:
    d = _mapping(data, path)
    _check_keys(d, {"n_bar", "theta0", "n_bootstrap", "bin_width", "fit_mu_infinity"}, path)
    theta0 = None
    if "theta0" in d:
        raw = d["theta0"]
        if (
            not isinstance(raw, list)
            or len(raw) != 3
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)
        ):
            raise ConfigError(f"{path}.theta0: expected a list of three numbers")
        theta0 = (float(raw[0]), float(raw[1]), float(raw[2]))
        if not (theta0[1] > 0.0 and theta0[2] > 0.0):
            raise ConfigError(f"{path}.theta0: sigma_int and tau must be positive, got {raw}")
    n_bootstrap = _integer(d, "n_bootstrap", path, 0)
    if n_bootstrap < 0 or n_bootstrap == 1:
        raise ConfigError(f"{path}.n_bootstrap: must be 0 or >= 2, got {n_bootstrap}")
    bin_width = _number(d, "bin_width", path, 2.0)
    if not (math.isfinite(bin_width) and bin_width > 0.0):
        raise ConfigError(f"{path}.bin_width: must be positive, got {bin_width}")
    return FitSettings(
        n_bar=_number(d, "n_bar", path, None),
        theta0=theta0,
        n_bootstrap=n_bootstrap,
        bin_width=bin_width,
        fit_mu_infinity=_boolean(d, "fit_mu_infinity", path, False),
    )


def _build_sim(data: Any, path: str) -> SimSettings:
    d = _mapping(data, path)
    _check_keys(d, {"n_bar_values", "events_per_source", "merge_model"}, path)
    raw = d.get("n_bar_values")
    if not isinstance(raw, list) or not raw or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw
    ):
        raise ConfigError(f"{path}.n_bar_values: expected a non-empty list of numbers")
    if not all(math.isfinite(v) and v > 0.0 for v in raw):
        raise ConfigError(f"{path}.n_bar_values: must be positive and finite, got {raw}")
    events_per_source = _integer(d, "events_per_source", path)
    if events_per_source < 1:
        raise ConfigError(f"{path}.events_per_source: must be >= 1, got {events_per_source}")
    merge = d.get("merge_model", "off")
    try:
        MergeModel(merge)
    except ValueError:
        raise ConfigError(
            f"{path}.merge_model: expected one of {[m.value for m in MergeModel]}, got {merge!r}"
        ) from None
    return SimSettings(
        n_bar_values=tuple(float(v) for v in raw),
        events_per_source=events_per_source,
        merge_model=str(merge),
    )


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    d = _mapping(data, "config")
    _check_keys(d, {"seed", "output_dir", "detector", "budget", "fit", "sim"}, "config")
    for key in ("seed", "detector", "budget"):
        if key not in d:
            raise ConfigError(f"config.{key}: required")
    output_dir = d.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("config.output_dir: expected a string")
    try:
        cfg = RunConfig(
            seed=_integer(d, "seed", "config"),
            detector=_build_detector(d["detector"], "config.detector"),
            budget=_build_budget(d["budget"], "config.budget"),
            fit=_build_fit(d["fit"], "config.fit") if "fit" in d else FitSettings(),
            sim=_build_sim(d["sim"], "config.sim") if "sim" in d else None,
            output_dir=output_dir,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.sim is not None and cfg.sim.merge_model == MergeModel.OCCUPIED_ELEMENTS and cfg.detector.grid is None:
        raise ConfigError(f"config.sim.merge_model: {cfg.sim.merge_model!r} needs config.detector.grid")
    return cfg
