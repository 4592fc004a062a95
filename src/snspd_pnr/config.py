"""Strict JSON run configuration mirroring the library value types.

Unknown keys are rejected with their dotted path; numeric fields accept JSON
numbers only.  The detector and budget sections are read from the fields of
their value types, so keys, defaults and value checks live only there, and a
value a type rejects is reported with its section path.  Layout:

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
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Any, get_args, get_type_hints

from .budget import JitterBudget
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


def _build(cls, data: Any, path: str):
    """Build the value type ``cls`` from its section: its fields are the allowed keys.

    A field without a default is required and an omitted one keeps its default.
    A field typed ``int`` takes an integer, a dataclass-typed field a nested
    section, and every other field a number.  A value the type rejects is
    reported with the section's path.
    """
    d = _mapping(data, path)
    _check_keys(d, {f.name for f in fields(cls)}, path)
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name not in d:
            if f.default is MISSING:
                raise ConfigError(f"{path}.{f.name}: required")
            continue
        kinds = get_args(hints[f.name]) or (hints[f.name],)
        nested = next((k for k in kinds if is_dataclass(k)), None)
        if nested is not None:
            kwargs[f.name] = _build(nested, d[f.name], f"{path}.{f.name}")
        elif int in kinds:
            kwargs[f.name] = _integer(d, f.name, path)
        else:
            kwargs[f.name] = _number(d, f.name, path)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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
    cfg = RunConfig(
        seed=_integer(d, "seed", "config"),
        detector=_build(DetectorConfig, d["detector"], "config.detector"),
        budget=_build(JitterBudget, d["budget"], "config.budget"),
        fit=_build_fit(d["fit"], "config.fit") if "fit" in d else FitSettings(),
        sim=_build_sim(d["sim"], "config.sim") if "sim" in d else None,
        output_dir=output_dir,
    )
    if cfg.sim is not None and cfg.sim.merge_model == MergeModel.OCCUPIED_ELEMENTS and cfg.detector.grid is None:
        raise ConfigError(f"config.sim.merge_model: {cfg.sim.merge_model!r} needs config.detector.grid")
    return cfg
