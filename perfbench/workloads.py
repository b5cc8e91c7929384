"""Workloads of the benchmark: generated configs, the op each runs, its
work count and the correctness checks on every artifact it writes.

Every config is generated from a bundled ``configs/*.yaml``. The seed only
shifts the strike lattice by a fraction of one strike step and, on ``mc``,
picks the Monte Carlo stream; it never touches grid spacings, step counts
or path counts, so the work of an op is the same for every seed.
"""

from __future__ import annotations

import math
import random
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"

# Each op is the ordered list of (command, bundled config) CLI calls below.
WORKLOADS = {
    "march": [
        ("price-pde", "bshw_rho_pos"),
        ("price-pde", "bshw_rho_neg_2y"),
        ("price-pde", "hyperbolic_hw_rho_neg"),
        ("corrective-terms", "corrective_terms_rho_pos"),
    ],
    "calibrate": [("calibrate", "calibration_roundtrip")],
    "mc": [("price-mc", "bshw_rho_pos")],
}

# Acceptance gates (the same bounds as tests/test_acceptance.py).
PRICE_GATE = 5e-4  # |PDE price - closed form|
SIGMA_GATE = 5e-3  # |calibrated sigma - generating sigma|
MC_SIGMAS = 4.0  # |MC price - closed form| in standard errors
ADJ_FLOOR = -1e-5  # sign(rho) * Adj(K) may dip this far below zero
MONOTONE_TOL = 1e-12  # price increase allowed between strikes
CONVEX_TOL = 1e-10  # negative second difference allowed


class BenchError(RuntimeError):
    """The benchmark cannot run on this checkout."""


class CheckFailed(Exception):
    """An artifact missed its closed form or acceptance gate."""


def seed_params(seed: int) -> tuple[float, int]:
    """(strike shift as a fraction of one strike step, Monte Carlo seed)."""
    rng = random.Random(seed)
    return rng.random(), rng.randrange(2**32)


def import_engine():
    """Import ``hybridlv`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "hybridlv" / "__init__.py").is_file():
        raise BenchError(f"no hybridlv package under {src}")
    sys.path.insert(0, str(src))
    import hybridlv
    import hybridlv.cli

    if Path(hybridlv.__file__).resolve().parent != (src / "hybridlv").resolve():
        raise BenchError(f"hybridlv was imported from {hybridlv.__file__}, not {src}")
    return hybridlv


def generate_config(name: str, out_dir: str, shift_frac: float, mc_seed: int | None) -> dict:
    """Bundled config ``name`` with its strikes shifted by ``shift_frac`` of a
    step, its artifacts sent to ``out_dir`` and, if given, its MC seed set."""
    path = CONFIG_DIR / f"{name}.yaml"
    if not path.is_file():
        raise BenchError(f"bundled config {path} is missing")
    raw = yaml.safe_load(path.read_text())
    run = raw.setdefault("run", {})
    strikes = run.get("strikes")
    if not isinstance(strikes, dict):
        raise BenchError(f"{name}: run.strikes must be a start/stop/step mapping")
    delta = shift_frac * float(strikes["step"])
    run["strikes"] = {
        "start": float(strikes["start"]) + delta,
        "stop": float(strikes["stop"]) + delta,
        "step": strikes["step"],
    }
    run["out_dir"] = out_dir
    if mc_seed is not None:
        run.setdefault("mc", {})["seed"] = int(mc_seed)
    return raw


def read_artifact(path: Path, digest: str):
    """Rows of a CLI CSV artifact after checking its ``# config=`` stamp."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != f"# config={digest}":
        raise CheckFailed(f"{path.name}: first line is not '# config={digest}'")
    body = 1
    while body < len(lines) and lines[body].startswith("#"):
        body += 1
    return np.loadtxt(lines[body + 1:], delimiter=",", ndmin=2)


@dataclass
class Call:
    command: str
    name: str
    config_path: Path
    out_dir: Path
    cfg: object
    digest: str


@dataclass
class Plan:
    """Configs, work count and checks for one workload and seed."""

    workload: str
    run_dir: Path
    shift_frac: float = 0.0
    mc_seed: int = 0
    calls: list = field(default_factory=list)
    work_per_op: float = 0.0
    work_unit: str = ""
    _reference: dict = field(default_factory=dict)

    @classmethod
    def generate(cls, workload: str, seed: int, run_dir: Path) -> "Plan":
        """Write the workload's configs under ``run_dir`` (relative to ROOT)."""
        from hybridlv.config import load_config

        if workload not in WORKLOADS:
            raise BenchError(f"unknown workload {workload!r}")
        plan = cls(workload, run_dir)
        plan.shift_frac, plan.mc_seed = seed_params(seed)
        config_dir = ROOT / run_dir / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        for command, name in WORKLOADS[workload]:
            out_dir = (run_dir / "artifacts" / name).as_posix()
            mc_seed = plan.mc_seed if command == "price-mc" else None
            raw = generate_config(name, out_dir, plan.shift_frac, mc_seed)
            path = config_dir / f"{name}.yaml"
            path.write_text(yaml.safe_dump(raw, sort_keys=True))
            cfg = load_config(path)
            plan.calls.append(Call(command, name, path, ROOT / out_dir, cfg, cfg.digest()))
        return plan

    def digests(self) -> dict:
        return {call.name: call.digest for call in self.calls}

    def run_op(self, cli) -> None:
        """One op: every CLI call of the workload, in order, through ``cli.run``."""
        for call in self.calls:
            status = cli.run(call.command, config_path=str(call.config_path))
            if status != 0:
                raise CheckFailed(f"{call.command} {call.name} exited with status {status}")

    def clear_artifacts(self) -> None:
        for call in self.calls:
            shutil.rmtree(call.out_dir, ignore_errors=True)

    # -- work counts ---------------------------------------------------------

    def prepare(self) -> None:
        """Work per op and closed-form references; run after set-up."""
        getattr(self, f"_prepare_{self.workload}")()

    def _grid(self, call: Call, t_end: float):
        from hybridlv.pde import auto_grid

        gb = call.cfg.grid_block
        if gb["bounds"] != "auto":
            raise BenchError(f"{call.name}: the benchmark sizes only grid.bounds=auto")
        return auto_grid(
            call.cfg.build_model(), t_end, ds=float(gb["ds"]), dr=float(gb["dr"]),
            dt=float(gb["dt"]), s_max_sigmas=float(gb["s_max_sigmas"]),
            r_sigmas=float(gb["r_sigmas"]),
        )

    def _closed_form(self, call: Call, maturity: float):
        from hybridlv.analytic import bshw_call

        model = call.cfg.build_model()
        return np.array([bshw_call(model, maturity, float(k)).price for k in call.cfg.strikes()])

    def _prepare_march(self) -> None:
        self.work_unit = "node-steps"
        for call in self.calls:
            grid = self._grid(call, max(call.cfg.maturities()))
            self.work_per_op += grid.n_s * grid.n_r * grid.n_t
            if call.cfg.model_block["vol"]["type"] == "constant" and call.command == "price-pde":
                self._reference[call.name] = self._closed_form(call, call.cfg.maturities()[-1])

    def _prepare_calibrate(self) -> None:
        # A linear bootstrap marches the box once to the last maturity. The
        # box is sized from the at-the-money Dupire level exactly as
        # calibration.calibrate does, through the public functions.
        from dataclasses import replace

        from hybridlv.calibration import dupire_vol, make_analytic_surface
        from hybridlv.models import ConstantVol, forward_rate
        from hybridlv.pde import auto_grid

        self.work_unit = "node-steps"
        (call,) = self.calls
        model = call.cfg.build_model()
        cb = call.cfg.run_block["calibration"]
        if cb["market"] != "analytic":
            raise BenchError("the calibrate workload needs market=analytic")
        mats = call.cfg.maturities()
        strikes = call.cfg.strikes()
        k_mid = float(strikes[len(strikes) // 2])
        market = make_analytic_surface(model, mats, strikes)
        level = math.sqrt(dupire_vol(market, lambda t: forward_rate(model.rate, t), mats[-1], k_mid))
        box = auto_grid(replace(model, vol=ConstantVol(level)), mats[-1],
                        float(cb["ds"]), float(cb["dr"]), float(cb["dt"]))
        self.work_per_op = box.n_s * box.n_r * box.n_t
        self._reference["sigma"] = float(call.cfg.model_block["vol"]["sigma1"])

    def _prepare_mc(self) -> None:
        self.work_unit = "path-steps"
        (call,) = self.calls
        mb = call.cfg.run_block["mc"]
        maturity = call.cfg.maturities()[-1]
        n_steps = max(1, math.ceil(maturity / float(mb["dt"]) - 1e-12))
        legs = 2 if mb["antithetic"] else 1
        self.work_per_op = int(mb["n_paths"]) * legs * n_steps
        self._reference[call.name] = self._closed_form(call, maturity)

    # -- checks --------------------------------------------------------------

    def check(self) -> float:
        """Check every artifact of the last op; returns its accuracy error.

        Raises :class:`CheckFailed` when an artifact misses its gate.
        """
        return getattr(self, f"_check_{self.workload}")()

    def _check_strikes(self, call: Call, column) -> None:
        if not np.allclose(column, call.cfg.strikes(), rtol=0.0, atol=1e-12):
            raise CheckFailed(f"{call.name}: strike column differs from the config")

    def _check_march(self) -> float:
        worst = 0.0
        for call in self.calls:
            if call.command == "corrective-terms":
                rows = read_artifact(call.out_dir / "corrective_terms.csv", call.digest)
                n_expected = len(call.cfg.maturities()) * len(call.cfg.strikes())
                if rows.shape != (n_expected, 3) or not np.all(np.isfinite(rows)):
                    raise CheckFailed(f"{call.name}: corrective_terms.csv has shape {rows.shape}")
                signed = math.copysign(1.0, call.cfg.model_block["rho"]) * rows[:, 2]
                if signed.min() < ADJ_FLOOR:
                    raise CheckFailed(f"{call.name}: Adj has the wrong sign ({signed.min():.2e})")
                continue
            rows = read_artifact(call.out_dir / "prices_pde.csv", call.digest)
            self._check_strikes(call, rows[:, 0])
            prices = rows[:, 1]
            if call.name in self._reference:
                err = float(np.max(np.abs(prices - self._reference[call.name])))
                if not err <= PRICE_GATE:
                    raise CheckFailed(f"{call.name}: max |pde - closed| = {err:.2e}")
                worst = max(worst, err)
            else:
                if np.any(np.diff(prices) > MONOTONE_TOL):
                    raise CheckFailed(f"{call.name}: prices increase in K")
                if np.any(np.diff(prices, n=2) < -CONVEX_TOL):
                    raise CheckFailed(f"{call.name}: prices are not convex in K")
        return worst

    def _check_calibrate(self) -> float:
        (call,) = self.calls
        rows = read_artifact(call.out_dir / "local_vol_surface.csv", call.digest)
        mats, strikes = call.cfg.maturities(), call.cfg.strikes()
        if rows.shape != (len(mats) * len(strikes), 3):
            raise CheckFailed(f"local_vol_surface.csv has shape {rows.shape}")
        if not (np.allclose(rows[:, 0], np.repeat(mats, len(strikes)), rtol=0, atol=1e-12)
                and np.allclose(rows[:, 1], np.tile(strikes, len(mats)), rtol=0, atol=1e-12)):
            raise CheckFailed("local_vol_surface.csv is not on the config lattice")
        if not (call.out_dir / "calibration_report.txt").is_file():
            raise CheckFailed("calibration_report.txt is missing")
        err = float(np.max(np.abs(rows[:, 2] - self._reference["sigma"])))
        if not err <= SIGMA_GATE:
            raise CheckFailed(f"max |sigma - {self._reference['sigma']}| = {err:.2e}")
        return err

    def _check_mc(self) -> float:
        (call,) = self.calls
        rows = read_artifact(call.out_dir / "prices_mc.csv", call.digest)
        self._check_strikes(call, rows[:, 0])
        price, se = rows[:, 1], rows[:, 2]
        if not np.all(se > 0):
            raise CheckFailed("a standard error is not positive")
        gap = np.abs(price - self._reference[call.name]) / se
        if not np.all(gap <= MC_SIGMAS):
            raise CheckFailed(f"MC misses the closed form by {gap.max():.2f} standard errors")
        return float(se.max())
