"""Strict JSON run configuration mirroring the library value types.

Unknown keys are rejected with their dotted path; numeric fields accept JSON
numbers only.  The detector and budget sections are read from the fields of
their value types, so keys, defaults and value checks live only there, and a
value a type rejects is reported with its section path.  The sim section, with
the detector, budget and seed, is the ``sim.SimPlan`` it describes: this module
checks its JSON types, the plan its values, and a value the plan rejects is
reported as ``config.sim.<field>: ...``.  Layout:

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
from .sim import MergeModel, SimPlan


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
class RunConfig:
    seed: int
    detector: DetectorConfig
    budget: JitterBudget
    fit: FitSettings
    sim: SimPlan | None
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


def _float(v, path: str, expected: str = "a number") -> float:
    """A JSON number as a float; any other value, or an integer beyond the float range, is reported at ``path``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected {expected}")
    try:
        return float(v)
    except OverflowError:
        raise ConfigError(f"{path}: number too large for a float") from None


def _number(data: dict, key: str, path: str, default=None):
    return _float(data[key], f"{path}.{key}") if key in data else default


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
        if not isinstance(raw, list) or len(raw) != 3:
            raise ConfigError(f"{path}.theta0: expected a list of three numbers")
        theta0 = tuple(_float(v, f"{path}.theta0", "a list of three numbers") for v in raw)
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


def _build_sim(data: Any, path: str, detector: DetectorConfig, budget: JitterBudget, seed: int) -> SimPlan:
    """The ``sim`` section as the ``SimPlan`` it describes: JSON types are checked here, values by the plan."""
    d = _mapping(data, path)
    _check_keys(d, {"n_bar_values", "events_per_source", "merge_model"}, path)
    raw = d.get("n_bar_values")
    if not isinstance(raw, list):
        raise ConfigError(f"{path}.n_bar_values: expected a list of numbers")
    values = tuple(_float(v, f"{path}.n_bar_values", "a list of numbers") for v in raw)
    events_per_source = _integer(d, "events_per_source", path)
    try:
        return SimPlan(detector, budget, values, events_per_source, d.get("merge_model", MergeModel.OFF), seed)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, undecodable UTF-8, an integer of over 4300 digits
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    d = _mapping(data, "config")
    _check_keys(d, {"seed", "output_dir", "detector", "budget", "fit", "sim"}, "config")
    for key in ("seed", "detector", "budget"):
        if key not in d:
            raise ConfigError(f"config.{key}: required")
    output_dir = d.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("config.output_dir: expected a string")
    seed = _integer(d, "seed", "config")
    if not 0 <= seed < 2**64:
        raise ConfigError("config.seed: must be a 64-bit unsigned integer")
    detector = _build(DetectorConfig, d["detector"], "config.detector")
    budget = _build(JitterBudget, d["budget"], "config.budget")
    return RunConfig(
        seed=seed,
        detector=detector,
        budget=budget,
        fit=_build_fit(d["fit"], "config.fit") if "fit" in d else FitSettings(),
        sim=_build_sim(d["sim"], "config.sim", detector, budget, seed) if "sim" in d else None,
        output_dir=output_dir,
    )
