"""Strict JSON run configuration mirroring the library value types.

Unknown keys are rejected with their dotted path; numeric fields accept JSON
numbers only.  Every section is read from the fields of its value type, so
keys, defaults and value checks live only there: ``detector`` is
``DetectorConfig`` (with ``WireGeometry`` and ``ElementGrid``), ``budget`` is
``JitterBudget``, ``fit`` is ``FitSettings`` and ``sim``, with the detector,
budget and seed, is the ``sim.SimPlan`` it describes.  This module checks JSON
types, the types check values: ``FitSettings`` requires ``n_bar``, when given,
positive and at most ``dist.MAX_N_BAR``, ``theta0`` a start that
``fit.check_theta0`` accepts (three finite numbers with positive sigma_int and
tau, inside the fit's search box), ``n_bootstrap`` 0 or >= 2 and ``bin_width``
positive and finite.  Every value type's ValueError starts with the offending
field's name, so each rejection is reported under that field's path,
``config.<section>[.<nested>].<field>: ...`` (``config.fit.n_bar: must be
positive and at most 10000, got -1.0``).  Layout:

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
from dataclasses import MISSING, dataclass, fields, is_dataclass
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

from .budget import JitterBudget
from .dist import check_n_bar
from .fit import _check_bootstrap, check_theta0
from .histogram import check_bin_width
from .pulse import DetectorConfig
from .sim import SimPlan


class ConfigError(Exception):
    """Invalid run configuration."""


@dataclass(frozen=True)
class FitSettings:
    """How ``fit`` runs; the config's ``fit`` section.

    ``__post_init__`` is the one home of its checks.  Each ValueError message starts with
    the offending field's name, so ``load_config`` reports it as ``config.fit.<message>``.
    """

    n_bar: float | None = None
    theta0: tuple[float, float, float] | None = None
    n_bootstrap: int = 0
    bin_width: float = 2.0
    fit_mu_infinity: bool = False

    def __post_init__(self) -> None:
        if self.n_bar is not None:
            check_n_bar(self.n_bar)
        if self.theta0 is not None:
            object.__setattr__(self, "theta0", check_theta0(self.theta0))
        _check_bootstrap(self.n_bootstrap)
        check_bin_width(self.bin_width)


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


def _float(v, path: str, expected: str = "a number") -> float:
    """A JSON number as a float; any other value, or an integer beyond the float range, is reported at ``path``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected {expected}")
    try:
        return float(v)
    except OverflowError:
        raise ConfigError(f"{path}: number too large for a float") from None


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer")
    return v


def _value(hint, v, path: str):
    """The JSON value ``v`` of a field typed ``hint`` (``X | None`` reads as ``X``)."""
    kind = get_args(hint)[0] if get_origin(hint) is UnionType else hint
    if is_dataclass(kind):
        return _build(kind, v, path)
    if get_origin(kind) is tuple:
        if not isinstance(v, list):
            raise ConfigError(f"{path}: expected a list of numbers")
        return tuple(_float(x, path, "a list of numbers") for x in v)
    if kind is bool and not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true or false")
    if kind is int:
        return _integer(v, path)
    return _float(v, path) if kind is float else v  # a bool as it is; an enum the type checks


def _build(cls, data: Any, path: str, **given):
    """Build the value type ``cls`` from its section: its fields, less those ``given``, are the allowed keys.

    A field without a default is required and an omitted one keeps its default.
    A dataclass-typed field takes a nested section, a tuple a list of numbers,
    a ``bool`` true or false, an ``int`` an integer, a ``float`` a number, and
    an enum any value, which the type checks.  The type's ValueError starts
    with ``<field>: `` and is reported as ``<path>.<message>``.
    """
    d = _mapping(data, path)
    keys = [f for f in fields(cls) if f.name not in given]
    _check_keys(d, {f.name for f in keys}, path)
    hints = get_type_hints(cls)
    kwargs = dict(given)
    for f in keys:
        if f.name in d:
            kwargs[f.name] = _value(hints[f.name], d[f.name], f"{path}.{f.name}")
        elif f.default is MISSING:
            raise ConfigError(f"{path}.{f.name}: required")
    try:
        return cls(**kwargs)
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
    seed = _integer(d["seed"], "config.seed")
    if not 0 <= seed < 2**64:
        raise ConfigError("config.seed: must be a 64-bit unsigned integer")
    detector = _build(DetectorConfig, d["detector"], "config.detector")
    budget = _build(JitterBudget, d["budget"], "config.budget")
    fit = _build(FitSettings, d.get("fit", {}), "config.fit")
    sim = _build(SimPlan, d["sim"], "config.sim", detector=detector, budget=budget, seed=seed) if "sim" in d else None
    return RunConfig(seed, detector, budget, fit, sim, output_dir)
