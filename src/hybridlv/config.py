"""Experiment configuration: YAML in, fully resolved form out.

A config file has three blocks (``model``, ``grid``, ``run``); every field
has a documented default and the resolved form (all defaults materialized)
is echoed back before a command runs. The 12-hex digest of the canonical
resolved YAML is stamped into every CSV artifact, so outputs are traceable
to the exact configuration that produced them.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .calibration import CalibrationSettings
from .errors import ConfigError, InvalidInputError
from .models import ConstantVol, HullWhiteParams, HybridModel, HyperbolicVol, lattice_axis

__all__ = ["ExperimentConfig", "load_config", "resolve_config"]

MAX_STRIKES = 100_000  # most strikes a run.strikes range may hold

# each model.vol type: its class and the defaults of its fields
_VOL_TYPES = {
    "constant": (ConstantVol, {"sigma1": 0.2}),
    "hyperbolic": (HyperbolicVol, {"nu": 0.2, "beta": 0.5}),
}

_DEFAULTS = {
    "model": {
        "s0": 1.0,
        "rho": 0.0,
        "rate": {"a": 0.5, "sigma2": 0.0, "theta": 0.02, "r0": 0.02},
        "vol": {"type": "constant", **_VOL_TYPES["constant"][1]},
    },
    "grid": {
        "bounds": "auto",
        "ds": 0.01,
        "dr": 0.002,
        "dt": 0.01,
        "s_max_sigmas": 5.0,
        "r_sigmas": 6.0,
    },
    "run": {
        "out_dir": "out",
        "maturities": [1.0],
        "strikes": {"start": 0.5, "stop": 1.5, "step": 0.05},
        "mc": {"n_paths": 100000, "dt": 1.0 / 300.0, "antithetic": True, "seed": 12345},
        "calibration": {**asdict(CalibrationSettings()), "market": "analytic"},
    },
}


_BOX_EDGES = ["r_max", "r_min", "s_max", "s_min"]
# fields that take either of two shapes; each is checked once merged
_UNION_FIELDS = ("grid.bounds", "run.strikes")


def _is_number(value) -> bool:
    try:
        float(value)
    except (TypeError, ValueError):
        return False
    return not isinstance(value, bool)


def _check_bounds(bounds) -> None:
    """``grid.bounds`` is ``auto`` or maps exactly the four box edges to numbers."""
    if bounds == "auto":
        return
    if not isinstance(bounds, dict):
        raise ConfigError(f"grid.bounds must be 'auto' or a mapping of {_BOX_EDGES}, "
                          f"got {bounds!r}")
    offending = sorted(set(bounds) ^ set(_BOX_EDGES), key=str)
    offending += [key for key in _BOX_EDGES if key in bounds and not _is_number(bounds[key])]
    if offending:
        raise ConfigError(f"grid.bounds takes exactly the numbers {_BOX_EDGES}; "
                          f"offending keys {offending}")


def _run_axis(key: str, values) -> np.ndarray:
    """``run.<key>`` as a :func:`lattice_axis`, else a ConfigError naming the key."""
    try:
        return lattice_axis(values, f"run.{key}")
    except InvalidInputError:
        raise ConfigError(f"run.{key} must be finite, positive and strictly increasing, "
                          f"got {np.asarray(values, dtype=float).tolist()}") from None


def _check_number(name: str, value) -> None:
    if not _is_number(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")


def _merge(defaults, override, path=""):
    """``override`` over ``defaults``; a value takes the type of its default
    (an integer default takes only an integer, a float default any number).
    The result shares no mutable value with ``defaults``."""
    if override is None:
        return copy.deepcopy(defaults)
    name = path[:-1]
    if isinstance(defaults, int) and not isinstance(defaults, bool):
        if not isinstance(override, int) or isinstance(override, bool):
            raise ConfigError(f"{name} must be an integer, got {override!r}")
    elif isinstance(defaults, float):
        _check_number(name, override)
    elif defaults is not None and not isinstance(override, type(defaults)):
        if name not in _UNION_FIELDS:
            raise ConfigError(f"{name} must be a {type(defaults).__name__}, got {override!r}")
    if not isinstance(override, dict) or not isinstance(defaults, dict):
        return override
    for key in override:
        if key not in defaults:
            raise ConfigError(f"unknown config field {path + key!r}")
    return {key: _merge(value, override.get(key), path + key + ".")
            for key, value in defaults.items()}


def _digest(resolved: str) -> str:
    """The 12-hex digest of a resolved config's YAML text."""
    return hashlib.sha256(resolved.encode()).hexdigest()[:12]


@dataclass
class ExperimentConfig:
    """Resolved experiment configuration."""

    raw: dict = field(default_factory=dict)

    @property
    def model_block(self) -> dict:
        return self.raw["model"]

    @property
    def grid_block(self) -> dict:
        return self.raw["grid"]

    @property
    def run_block(self) -> dict:
        return self.raw["run"]

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.raw, sort_keys=True, default_flow_style=False)

    def digest(self) -> str:
        return _digest(self.to_yaml())

    def build_model(self) -> HybridModel:
        mb = self.model_block
        rate = HullWhiteParams(
            a=float(mb["rate"]["a"]),
            sigma2=float(mb["rate"]["sigma2"]),
            theta=float(mb["rate"]["theta"]),
            r0=float(mb["rate"]["r0"]),
        )
        vol_cls, _ = _VOL_TYPES[mb["vol"]["type"]]
        vol = vol_cls(**{k: float(v) for k, v in mb["vol"].items() if k != "type"})
        return HybridModel(
            s0=float(mb["s0"]), rate=rate, vol=vol, rho=float(mb["rho"])
        )

    def strikes(self) -> np.ndarray:
        block = self.run_block["strikes"]
        if isinstance(block, (list, tuple)):
            return _run_axis("strikes", [float(k) for k in block])
        start, stop, step = float(block["start"]), float(block["stop"]), float(block["step"])
        for key, value in (("start", start), ("stop", stop), ("step", step)):
            if not math.isfinite(value):
                raise ConfigError(f"run.strikes.{key} must be finite, got {value!r}")
        if not step > 0:
            raise ConfigError(f"run.strikes.step must be positive, got {step!r}")
        span = (stop - start) / step  # round(span) + 1 strikes; inf on overflow
        if not span < MAX_STRIKES - 0.5:
            raise ConfigError(f"run.strikes holds more than {MAX_STRIKES} strikes")
        n = int(round(span))
        return _run_axis("strikes", start + step * np.arange(n + 1))

    def maturities(self) -> list:
        """``run.maturities``: non-empty, finite, positive and increasing."""
        return _run_axis("maturities", [float(t) for t in self.run_block["maturities"]]).tolist()


def resolve_config(data: dict | None) -> ExperimentConfig:
    """Merge user data over the defaults and validate field names."""
    data = dict(data or {})
    vol = None
    if isinstance(data.get("model"), dict) and "vol" in data["model"]:
        # The vol block is a tagged union; resolve it apart from the merge.
        data = {**data, "model": dict(data["model"])}
        vol = data["model"].pop("vol")
    merged = _merge(_DEFAULTS, data)
    if vol is not None:
        if not isinstance(vol, dict) or "type" not in vol:
            raise ConfigError("model.vol must be a mapping with a 'type' field")
        vol_type = vol["type"]
        if not isinstance(vol_type, str) or vol_type not in _VOL_TYPES:
            raise ConfigError(f"unknown vol type {vol_type!r}")
        base = {"type": vol_type, **_VOL_TYPES[vol_type][1]}
        merged["model"]["vol"] = _merge(base, vol, "model.vol.")
    rb = merged["run"]
    if not isinstance(rb["strikes"], (list, dict)):
        raise ConfigError("run.strikes must be a list or a mapping of start, stop and step, "
                          f"got {rb['strikes']!r}")
    for key in ("strikes", "maturities"):
        for value in rb[key] if isinstance(rb[key], list) else ():
            _check_number(f"run.{key}", value)
    _check_bounds(merged["grid"]["bounds"])
    return ExperimentConfig(raw=merged)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path) as handle:
            data = yaml.safe_load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}")
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"top level of {path} must be a mapping")
    return resolve_config(data)
