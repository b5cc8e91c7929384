"""Experiment configuration: YAML in, fully resolved form out.

A config file has three blocks (``model``, ``grid``, ``run``); every field
has a documented default and the resolved form (all defaults materialized)
is echoed back before a command runs. The 12-hex digest of the canonical
resolved YAML is stamped into every CSV artifact, so outputs are traceable
to the exact configuration that produced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .models import ConstantVol, HullWhiteParams, HybridModel, HyperbolicVol

__all__ = ["ExperimentConfig", "load_config", "resolve_config"]

_DEFAULTS = {
    "model": {
        "s0": 1.0,
        "rho": 0.0,
        "rate": {"a": 0.5, "sigma2": 0.0, "theta": 0.02, "r0": 0.02},
        "vol": {"type": "constant", "sigma1": 0.2},
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
        "maturity": 1.0,
        "maturities": None,
        "strikes": {"start": 0.5, "stop": 1.5, "step": 0.05},
        "mc": {"n_paths": 100000, "dt": 1.0 / 300.0, "antithetic": True, "seed": 12345},
        "calibration": {
            "ds": 0.008,
            "dr": 0.0015,
            "dt": 0.005,
            "slice_iterations": 1,
            "use_corrective": True,
            "market": "analytic",
            "market_path": None,
        },
    },
}


_BOX_EDGES = ["r_max", "r_min", "s_max", "s_min"]


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


def _merge(defaults, override, path=""):
    if override is None:
        return defaults
    if not isinstance(override, dict) or not isinstance(defaults, dict):
        return override
    out = dict(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config field {path + key!r}")
        out[key] = _merge(defaults.get(key), value, path + key + ".")
    return out


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
        return hashlib.sha256(self.to_yaml().encode()).hexdigest()[:12]

    def build_model(self) -> HybridModel:
        mb = self.model_block
        rate = HullWhiteParams(
            a=float(mb["rate"]["a"]),
            sigma2=float(mb["rate"]["sigma2"]),
            theta=float(mb["rate"]["theta"]),
            r0=float(mb["rate"]["r0"]),
        )
        vb = mb["vol"]
        if vb["type"] == "constant":
            vol = ConstantVol(float(vb["sigma1"]))
        elif vb["type"] == "hyperbolic":
            vol = HyperbolicVol(nu=float(vb["nu"]), beta=float(vb["beta"]))
        else:
            raise ConfigError(f"unknown vol type {vb['type']!r}")
        return HybridModel(
            s0=float(mb["s0"]), rate=rate, vol=vol, rho=float(mb["rho"])
        )

    def strikes(self) -> np.ndarray:
        block = self.run_block["strikes"]
        if isinstance(block, (list, tuple)):
            ks = np.asarray([float(k) for k in block])
        else:
            start, stop, step = float(block["start"]), float(block["stop"]), float(block["step"])
            if not step > 0:
                raise ConfigError(f"run.strikes.step must be positive, got {step!r}")
            n = int(round((stop - start) / step))
            ks = start + step * np.arange(n + 1)
        if ks.size == 0 or np.any(np.diff(ks) <= 0):
            raise ConfigError("strike grid must be non-empty and increasing")
        return ks

    def maturities(self) -> list:
        rb = self.run_block
        if rb.get("maturities"):
            return [float(t) for t in rb["maturities"]]
        return [float(rb["maturity"])]


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
        if vol["type"] == "constant":
            base = {"type": "constant", "sigma1": 0.2}
        elif vol["type"] == "hyperbolic":
            base = {"type": "hyperbolic", "nu": 0.2, "beta": 0.5}
        else:
            raise ConfigError(f"unknown vol type {vol['type']!r}")
        unknown = set(vol) - set(base)
        if unknown:
            raise ConfigError(f"unknown vol fields {sorted(unknown)}")
        base.update(vol)
        merged["model"]["vol"] = base
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
