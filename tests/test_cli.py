import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from hybridlv import cli
from hybridlv.config import MAX_STRIKES, load_config, resolve_config
from hybridlv.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _load_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#") or line[0].isalpha():
            continue
        rows.append([float(x) for x in line.split(",")])
    return np.asarray(rows)

FAST_BSHW = """
model:
  s0: 1.0
  rho: 0.4
  rate: {a: 0.5, sigma2: 0.04, theta: 0.02, r0: 0.02}
  vol: {type: constant, sigma1: 0.2}
grid:
  ds: 0.02
  dr: 0.003
  dt: 0.01
run:
  out_dir: PLACEHOLDER
  maturities: [1.0]
  strikes: {start: 0.7, stop: 1.3, step: 0.1}
  mc: {n_paths: 20000, dt: 0.01, antithetic: true, seed: 7}
"""


def _keys(tree, prefix=""):
    """Dotted paths of every key in a nested mapping."""
    out = set()
    for key, value in tree.items():
        out.add(prefix + key)
        if isinstance(value, dict):
            out |= _keys(value, prefix + key + ".")
    return out


def _record_marches(monkeypatch):
    """Patch ``pde.evolve`` to record every march of a command: a list per
    march of the snapshots it hands to the command's reader, or, for a
    march without one, of those in its result."""
    import hybridlv.pde as pde_mod

    marches = []
    original = pde_mod.evolve

    def recorded(*args, on_snapshot=None, **kwargs):
        if on_snapshot is None:
            result = original(*args, **kwargs)
            marches.append(result.snapshots)
            return result
        read = []
        marches.append(read)

        def keep(snap):
            read.append(snap)
            on_snapshot(snap)

        result = original(*args, on_snapshot=keep, **kwargs)
        assert result.snapshots == []
        return result

    monkeypatch.setattr(pde_mod, "evolve", recorded)
    return marches


@pytest.fixture
def fast_config(tmp_path):
    text = FAST_BSHW.replace("PLACEHOLDER", str(tmp_path / "out"))
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path, tmp_path / "out"


class TestConfig:
    def test_defaults_materialize(self):
        cfg = resolve_config({"model": {"rho": 0.3}})
        assert cfg.model_block["rho"] == 0.3
        assert cfg.model_block["s0"] == 1.0
        assert cfg.run_block["mc"]["seed"] == 12345

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"model": {"sped": 1.0}})
        with pytest.raises(ConfigError):
            resolve_config({"model": {"vol": {"type": "constant", "nu": 0.2}}})
        with pytest.raises(ConfigError):
            resolve_config({"run": {"calibration": {"mode": "restart"}}})
        for vol_type in ("lognormal", ["constant"]):
            with pytest.raises(ConfigError, match="unknown vol type"):
                resolve_config({"model": {"vol": {"type": vol_type}}})

    def test_readme_schema_lists_every_field(self):
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        block = readme.split("### Configuration schema", 1)[1]
        block = block.split("```yaml\n", 1)[1].split("```", 1)[0]
        documented = yaml.safe_load(block)
        assert _keys(documented) == _keys(resolve_config({}).raw)

    def test_calibration_settings_mirror_the_config_block(self):
        from dataclasses import fields

        from hybridlv.calibration import CalibrationSettings

        block = dict(resolve_config({}).run_block["calibration"])
        assert block.pop("market") == "analytic"
        assert set(block) == {f.name for f in fields(CalibrationSettings)}
        # field by field, value and type: the block is built from the defaults
        settings = CalibrationSettings()
        for name, value in block.items():
            default = getattr(settings, name)
            assert (value, type(value)) == (default, type(default)), name

    def test_digest_tracks_content(self):
        a = resolve_config({"model": {"rho": 0.3}})
        b = resolve_config({"model": {"rho": 0.31}})
        assert a.digest() != b.digest()
        assert a.digest() == resolve_config({"model": {"rho": 0.3}}).digest()

    def test_hyperbolic_vol_block(self):
        cfg = resolve_config({"model": {"vol": {"type": "hyperbolic", "nu": 0.25, "beta": 0.4}}})
        model = cfg.build_model()
        assert model.vol.nu == 0.25

    def test_explicit_strike_list(self):
        cfg = resolve_config({"run": {"strikes": [0.8, 1.0, 1.25]}})
        assert np.allclose(cfg.strikes(), [0.8, 1.0, 1.25])

    def test_missing_file_message(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_cli_overrides_leave_the_defaults_alone(self, tmp_path):
        # --seed and --out used to land in the module's defaults, so every
        # later config resolved to that seed and output directory
        config = tmp_path / "rho.yaml"
        config.write_text(yaml.safe_dump({"model": {"rho": 0.1}}))
        out = tmp_path / "out"
        assert cli.run("price-mc", config_path=str(config), out_dir=str(out), seed=99) == 0
        run = resolve_config({}).run_block
        assert run["mc"]["seed"] == 12345
        assert run["out_dir"] == "out"


class TestCommands:
    def test_price_analytic_echoes_and_stamps(self, fast_config, capsys):
        path, out = fast_config
        status = cli.run("price-analytic", config_path=str(path))
        assert status == 0
        captured = capsys.readouterr().out
        assert "# resolved config" in captured
        assert (out / "resolved_config.yaml").exists()
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved["run"]["mc"]["seed"] == 7
        lines = (out / "prices_analytic.csv").read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[2] == "K,price,c_t,c_k,c_kk"

    @pytest.mark.parametrize("command", ["corrective-terms", "solve-pde"])
    def test_printed_digest_stamps_every_artifact_and_hashes_the_saved_config(
        self, fast_config, capsys, command
    ):
        path, out = fast_config
        assert cli.run(command, config_path=str(path)) == 0
        printed = capsys.readouterr().out
        digest = re.search(r"^# resolved config \(digest ([0-9a-f]{12})\)$", printed, re.M)[1]
        saved = (out / "resolved_config.yaml").read_bytes()
        assert hashlib.sha256(saved).hexdigest()[:12] == digest
        stamps = {p.read_text().split("\n", 1)[0] for p in out.glob("*.csv")}
        assert stamps == {f"# config={digest}"}

    def test_byte_identical_reruns(self, fast_config):
        path, out = fast_config
        cli.run("price-pde", config_path=str(path))
        first = (out / "prices_pde.csv").read_bytes()
        cli.run("price-pde", config_path=str(path))
        assert (out / "prices_pde.csv").read_bytes() == first

    def test_seed_override_changes_digest(self, fast_config):
        path, out = fast_config
        cli.run("price-mc", config_path=str(path))
        base = (out / "prices_mc.csv").read_text().splitlines()[0]
        cli.run("price-mc", config_path=str(path), seed=99)
        override = (out / "prices_mc.csv").read_text().splitlines()[0]
        assert base != override

    @pytest.mark.parametrize("argv", [
        ["price-pde", "--config", "c.yaml", "--seed", "3"],
        ["compare", "--left", "a.csv", "--right", "b.csv", "--seed", "3"],
    ])
    def test_seed_is_a_price_mc_option_only(self, argv, capsys):
        # on a command that draws nothing a seed would only change the digest
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="--seed applies to price-mc only"):
            cli.run(argv[0], config_path="c.yaml", seed=3, left="a.csv", right="b.csv")

    def test_price_pipeline_and_compare(self, fast_config):
        path, out = fast_config
        assert cli.run("price-pde", config_path=str(path)) == 0
        assert cli.run("price-analytic", config_path=str(path)) == 0
        status = cli.run(
            "compare",
            out_dir=str(out),
            left=str(out / "prices_pde.csv"),
            right=str(out / "prices_analytic.csv"),
        )
        assert status == 0
        text = (out / "discrepancy.csv").read_text()
        max_line = [l for l in text.splitlines() if "max_abs_diff" in l][0]
        max_abs = float(max_line.split("=")[1])
        assert max_abs < 2e-3  # coarse grid tolerance; the fine grid is covered elsewhere
        rows = _load_rows(out / "discrepancy.csv")
        assert rows.shape[1] == 4

    def test_solve_pde_exports_snapshots_and_mass(self, fast_config):
        path, out = fast_config
        assert cli.run("solve-pde", config_path=str(path)) == 0
        snaps = list(out.glob("pz_t*.csv"))
        assert len(snaps) == 1
        header = snaps[0].read_text().splitlines()[1]
        assert header == "t,S,r,pz"
        mass = (out / "mass_diagnostics.csv").read_text().splitlines()
        assert mass[3] == "step,t,raw_mass,target_zc,ratio,neg_mass_ratio"

    def test_close_maturities_get_a_snapshot_each(self, fast_config):
        # "%.6g" named both pz_t0.5.csv, and the second overwrote the first
        path, out = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["run"]["maturities"] = [0.5, 0.5000001]
        path.write_text(yaml.safe_dump(raw))
        assert cli.run("solve-pde", config_path=str(path)) == 0
        snaps = sorted(p.name for p in out.glob("pz_t*.csv"))
        assert snaps == ["pz_t0.5.csv", "pz_t0.5000001.csv"]
        assert _load_rows(out / "pz_t0.5000001.csv")[0, 0] == 0.5000001

    def test_failed_solve_pde_leaves_the_fields_it_reached(self, fast_config, monkeypatch):
        import hybridlv.pde as pde_mod

        path, out = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["run"]["maturities"] = [0.5, 1.0]
        path.write_text(yaml.safe_dump(raw))
        steps = []
        apply = pde_mod._StepOperator.apply

        def poisoned(op, values, out=None):
            steps.append(op)
            values = apply(op, values, out=out)
            if len(steps) == 75:  # past t = 0.5, short of t = 1
                values[0, 0] = np.nan
            return values

        monkeypatch.setattr(pde_mod._StepOperator, "apply", poisoned)
        assert cli.main(["solve-pde", "--config", str(path)]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["pz_t0.5.csv", "resolved_config.yaml"]

    def test_solve_pde_snapshot_is_row_major(self, fast_config, monkeypatch):
        marches = _record_marches(monkeypatch)
        path, out = fast_config
        assert cli.run("solve-pde", config_path=str(path)) == 0
        (csv,) = out.glob("pz_t*.csv")
        (snap,) = marches[0]
        lines = csv.read_text().splitlines()
        assert lines[1] == "t,S,r,pz"
        assert len(lines) == 2 + snap.grid.n_s * snap.grid.n_r
        # S outer, r running fastest, every value back to the bit (17 digits)
        s, r = np.meshgrid(snap.grid.s_nodes, snap.grid.r_nodes, indexing="ij")
        want = np.column_stack([np.full(s.size, snap.t), s.ravel(), r.ravel(), snap.values.ravel()])
        assert np.array_equal(_load_rows(csv), want)

    def test_corrective_terms_csv(self, fast_config):
        path, out = fast_config
        assert cli.run("corrective-terms", config_path=str(path)) == 0
        rows = _load_rows(out / "corrective_terms.csv")
        assert rows.shape[1] == 3
        assert np.all(rows[:, 2] >= -1e-5)  # positive correlation setup

    def test_corrective_terms_write_the_configured_maturities(self, tmp_path):
        raw = yaml.safe_load(FAST_BSHW.replace("PLACEHOLDER", str(tmp_path / "out")))
        mats = [0.25, 0.5, 0.75, 1.0]
        raw["grid"]["dt"] = 0.0099  # 101 steps of it would miss every quarter
        raw["run"]["maturities"] = mats
        path = tmp_path / "fan.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.run("corrective-terms", config_path=str(path)) == 0
        rows = _load_rows(tmp_path / "out" / "corrective_terms.csv")
        assert rows[:, 0].tolist() == [t for t in mats for _ in range(7)]

    @pytest.mark.parametrize("command", ["corrective-terms", "solve-pde", "price-pde"])
    def test_fan_commands_hold_one_field_however_many_maturities(self, tmp_path, command):
        # the fast config to T = 0.5 (101 x 99 nodes) with 4 or 16 maturities
        raw = yaml.safe_load(FAST_BSHW.replace("PLACEHOLDER", str(tmp_path / "out")))
        peaks = []
        for n in (4, 16):
            raw["run"]["maturities"] = [0.5 * (i + 1) / n for i in range(n)]
            path = tmp_path / f"fan{n}.yaml"
            path.write_text(yaml.safe_dump(raw))
            tracemalloc.start()
            try:
                assert cli.run(command, config_path=str(path)) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        cfg = load_config(path)
        g = cli._build_grid(cfg, cfg.build_model())
        few, many = (peak / (8 * (g.n_s + 2) * (g.n_r + 2)) for peak in peaks)
        # Measured in full-size arrays: 19.91 and 20.09 for corrective-terms,
        # 21.38 and 21.48 for solve-pde, whose rows add the node grids, and
        # 19.31 and 19.12 for price-pde; a command that keeps every field
        # holds 11.4 more at 16 (price-pde read the march's list: 20.49 and
        # 31.87). Margin: half an array.
        assert abs(many - few) < 0.5

    def test_price_mc_csv(self, fast_config):
        path, out = fast_config
        assert cli.run("price-mc", config_path=str(path)) == 0
        rows = _load_rows(out / "prices_mc.csv")
        assert rows.shape[1] == 3
        assert np.all(rows[:, 2] > 0)

    def test_explicit_bounds_build_the_grid_from_the_spacings(self, tmp_path, monkeypatch):
        import hybridlv.pde as pde_mod

        raw = yaml.safe_load(FAST_BSHW.replace("PLACEHOLDER", str(tmp_path / "out")))
        raw["grid"]["bounds"] = {"s_min": 0.01, "s_max": 3.01, "r_min": -0.1, "r_max": 0.14}
        path = tmp_path / "bounds.yaml"
        path.write_text(yaml.safe_dump(raw))
        grids = []
        original = pde_mod.evolve

        def recorded(model, grid, **kwargs):
            grids.append(grid)
            return original(model, grid, **kwargs)

        monkeypatch.setattr(pde_mod, "evolve", recorded)
        assert cli.run("price-pde", config_path=str(path)) == 0
        (grid,) = grids
        assert (grid.s_min, grid.s_max, grid.r_min, grid.r_max) == (0.01, 3.01, -0.1, 0.14)
        # 150 spot cells of 0.02, 80 rate cells of 0.003, 100 steps of 0.01
        assert (grid.n_s, grid.n_r, grid.n_t, grid.t_end) == (149, 79, 100, 1.0)
        rows = _load_rows(tmp_path / "out" / "prices_pde.csv")
        assert rows.shape == (7, 2) and np.all(np.diff(rows[:, 1]) < 0)

    def test_calibrate_smoke(self, tmp_path):
        text = """
model:
  rho: 0.0
  rate: {a: 0.5, sigma2: 0.0, theta: 0.02, r0: 0.02}
  vol: {type: constant, sigma1: 0.2}
run:
  out_dir: OUT
  maturities: [0.5, 1.0]
  strikes: {start: 0.9, stop: 1.1, step: 0.05}
  calibration: {ds: 0.02, dr: 0.003, dt: 0.02}
"""
        path = tmp_path / "cal.yaml"
        path.write_text(text.replace("OUT", str(tmp_path / "out")))
        assert cli.run("calibrate", config_path=str(path)) == 0
        rows = _load_rows(tmp_path / "out" / "local_vol_surface.csv")
        assert np.allclose(rows[:, 2], 0.2, atol=1e-6)
        report = (tmp_path / "out" / "calibration_report.txt").read_text()
        assert report.startswith("calibration report")
        # negativity is the negative-mass ratio, on every maturity's line,
        # and no other sign figure is reported beside it
        entries = [line for line in report.splitlines() if line.startswith("T=")]
        assert len(entries) == 2
        for line in entries:
            keys = [w.split("=")[0] for w in line.split() if "=" in w]
            assert keys == ["T", "mass_drift", "neg_mass", "iterations", "slice_update",
                            "reprice_err", "skipped"]
        # each maturity but the last is repriced off its checkpoint
        reprice = self._report_values(report, "reprice_err")
        assert len(reprice) == 2 and reprice[1] == "n/a"
        assert 0.0 < float(reprice[0]) < 1e-3
        # one slice iteration measures no update; a second one does
        assert self._report_values(report, "slice_update") == ["n/a", "n/a"]
        path.write_text(path.read_text().replace("dt: 0.02}", "dt: 0.02, slice_iterations: 2}"))
        assert cli.run("calibrate", config_path=str(path)) == 0
        report = (tmp_path / "out" / "calibration_report.txt").read_text()
        assert self._report_values(report, "iterations") == ["2", "2"]
        assert all(v >= 0.0 for v in map(float, self._report_values(report, "slice_update")))

    @staticmethod
    def _report_values(report, name):
        return [w.split("=")[1] for w in report.split() if w.startswith(name + "=")]

    def test_price_pde_prices_the_solve_pde_field(self, fast_config, monkeypatch):
        # one march per config: price-pde prices the field solve-pde writes
        import hybridlv.calibration as cal_mod

        path, out = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["grid"] = {"ds": 0.04, "dr": 0.006, "dt": 0.03}
        raw["run"]["maturities"] = [0.5, 1.0]
        path.write_text(yaml.safe_dump(raw))
        marches = _record_marches(monkeypatch)
        assert cli.run("price-pde", config_path=str(path)) == 0
        assert cli.run("solve-pde", config_path=str(path)) == 0
        assert len(marches) == 2
        field = marches[-1][-1]  # solve-pde's, at the last maturity
        assert field.t == 1.0
        strikes = load_config(path).strikes()
        want = np.column_stack([strikes, cal_mod.price_calls_from_pz(field, strikes)])
        assert (out / "prices_pde.csv").read_text().splitlines()[1] == "# T=1"
        assert np.array_equal(_load_rows(out / "prices_pde.csv"), want)

    @pytest.mark.parametrize("command", ["solve-pde", "price-pde", "corrective-terms"])
    def test_pde_commands_print_the_march_warnings(self, fast_config, monkeypatch, capsys,
                                                   command):
        # every PDE command prints its march's warnings
        import hybridlv.pde as pde_mod

        original = pde_mod.evolve

        def warned(*args, **kwargs):
            result = original(*args, **kwargs)
            result.diagnostics.warnings.append("raw mass drift +25.00% at t=1")
            return result

        monkeypatch.setattr(pde_mod, "evolve", warned)
        path, _ = fast_config
        assert cli.run(command, config_path=str(path)) == 0
        assert capsys.readouterr().err.splitlines() == ["warning: raw mass drift +25.00% at t=1"]

    def test_single_horizon_commands_take_the_last_maturity(self, fast_config):
        path, out = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["run"]["maturities"] = [0.5, 1.0]
        path.write_text(yaml.safe_dump(raw))
        assert cli.run("price-analytic", config_path=str(path)) == 0
        assert (out / "prices_analytic.csv").read_text().splitlines()[1] == "# T=1"

    @staticmethod
    def _csv_market_config(tmp_path, mats, ks, slice_iterations, run=None):
        """A flat closed-form lattice written as CSV and a round-trip config
        calibrating to it; ``run`` adds fields to the run block."""
        from hybridlv.analytic import bshw_call

        roundtrip = CONFIG_DIR / "calibration_roundtrip.yaml"
        model = load_config(roundtrip).build_model()
        market = tmp_path / "market.csv"
        market.write_text("T,K,price\n" + "".join(
            f"{float(t)!r},{float(k)!r},{bshw_call(model, float(t), float(k)).price!r}\n"
            for t in mats for k in ks
        ))
        config = tmp_path / "cal.yaml"
        config.write_text(yaml.safe_dump({
            "model": yaml.safe_load(roundtrip.read_text())["model"],
            "run": {
                "out_dir": str(tmp_path / "out"),
                "calibration": {
                    "market": str(market),
                    "ds": 0.02, "dr": 0.003, "dt": 0.01, "slice_iterations": slice_iterations,
                },
                **(run or {}),
            },
        }))
        return config

    def test_calibrate_csv_market(self, tmp_path):
        # a flat closed-form lattice written as CSV: the CLI reads it without
        # its model, so every derivative is differenced on the lattice
        mats = np.round(np.arange(0.25, 1.0001, 0.05), 10)
        ks = np.round(np.arange(0.7, 1.3001, 0.05), 10)
        config = self._csv_market_config(tmp_path, mats, ks, 2)
        assert cli.main(["calibrate", "--config", str(config)]) == 0
        rows = _load_rows(tmp_path / "out" / "local_vol_surface.csv")
        assert np.allclose(rows[:, :2], [(t, k) for t in mats for k in ks], rtol=0, atol=1e-15)
        sigma = rows[:, 2].reshape(len(mats), len(ks))
        assert np.all(np.isfinite(sigma)) and np.all(sigma > 0)
        assert np.max(np.abs(sigma[:, 1:-1] - 0.2)) < 2e-2  # measured 1.35e-2
        # The edge strikes take one-sided lattice differences and read far
        # off (ROADMAP item 8): this bounds today's 0.117 (K=0.7, T=0.25)
        # against regression; it is not an accuracy claim.
        assert np.max(np.abs(sigma[:, [0, -1]] - 0.2)) < 0.13

    def test_csv_market_leaves_the_run_lattice_unread(self, tmp_path):
        # the CSV brings its own lattice: a strike range or maturity list
        # that could not run used to fail the command with exit 2
        mats = [0.25, 0.5]
        ks = np.round(np.arange(0.8, 1.2001, 0.1), 10)
        config = self._csv_market_config(tmp_path, mats, ks, 1, run={
            "strikes": {"start": 0.7, "stop": 1.3, "step": 0},
            "maturities": [1.0, 0.5],
        })
        assert cli.main(["calibrate", "--config", str(config)]) == 0
        rows = _load_rows(tmp_path / "out" / "local_vol_surface.csv")
        assert np.allclose(rows[:, :2], [(t, k) for t in mats for k in ks], rtol=0, atol=1e-15)


class _FirstOperator(Exception):
    """Stops a command once its first step operator is built."""


# The PDE command that each bundled config is run with.
_BUNDLED_PDE_COMMANDS = {
    "bshw_rho_pos": "price-pde",
    "bshw_rho_neg_2y": "price-pde",
    "hyperbolic_hw_rho_neg": "price-pde",
    "hyperbolic_hw_rho_pos": "price-pde",
    "corrective_terms_rho_pos": "corrective-terms",
    "calibration_roundtrip": "calibrate",
}


class TestBundledConfigs:
    def test_pde_commands_cover_every_bundled_config(self):
        names = {path.stem for path in CONFIG_DIR.glob("*.yaml")}
        assert names == set(_BUNDLED_PDE_COMMANDS)

    @staticmethod
    def _first_operator(name, tmp_path, monkeypatch):
        """Run the config's PDE command up to its first step operator; returns
        the operator, with the coefficients and grid it was built from."""
        import hybridlv.pde as pde_mod

        class FirstOperator(pde_mod._StepOperator):
            def __init__(self, coeffs, grid, dt):
                super().__init__(coeffs, grid, dt)
                self.coeffs, self.grid = coeffs, grid
                raise _FirstOperator(self)

        monkeypatch.setattr(pde_mod, "_StepOperator", FirstOperator)
        config = CONFIG_DIR / f"{name}.yaml"
        with pytest.raises(_FirstOperator) as stop:
            cli.run(_BUNDLED_PDE_COMMANDS[name], config_path=str(config), out_dir=str(tmp_path))
        return stop.value.args[0]

    @pytest.mark.parametrize("name", sorted(_BUNDLED_PDE_COMMANDS))
    def test_first_operator_keeps_the_rate_drift_centred(self, name, tmp_path, monkeypatch):
        # Measured: the largest face Peclet number |drift_r| dr / diff_r is
        # 0.09-0.26, far from 1, where the drift would turn upwind. Below it
        # the explicit rate weights are the centred ones, bit for bit.
        op = self._first_operator(name, tmp_path, monkeypatch)
        co, dr, row = op.coeffs, op.grid.dr, op.grid.n_r + 2
        r_faces = op.grid.r_min + dr * (np.arange(op.grid.n_r + 1) + 0.5)
        rate = cli.load_config(CONFIG_DIR / f"{name}.yaml").build_model().rate
        peclet = np.abs(rate.a * (rate.theta - r_faces)) * dr / rate.sigma2**2
        assert peclet.max() < 0.3
        half = co.diff_r[0] * (0.5 / (dr * dr))
        adv = np.pad(co.drift_r[0] / (2 * dr), 1)
        for tile, want in ((op.w1_jp, half - adv[2:]), (op.w1_jm, half + adv[:-2])):
            assert np.array_equal(np.roll(tile[:row], 1)[1:-1], want)

    @staticmethod
    def _marches(name, tmp_path, monkeypatch):
        """Run the config's PDE command; returns, per march, the times it
        stepped to and the number of step operators it built."""
        import hybridlv.calibration as cal_mod
        import hybridlv.pde as pde_mod

        marches, builds = [], []
        build, march = pde_mod.build_coefficients, pde_mod.evolve

        def counted(model, grid, t):
            builds.append(t)
            return build(model, grid, t)

        def recorded(model, grid, *args, **kwargs):
            builds.clear()
            result = march(model, grid, *args, **kwargs)
            marches.append((result.diagnostics.times, len(builds)))
            return result

        monkeypatch.setattr(pde_mod, "build_coefficients", counted)
        monkeypatch.setattr(pde_mod, "evolve", recorded)
        monkeypatch.setattr(cal_mod, "evolve", recorded)
        config = CONFIG_DIR / f"{name}.yaml"
        assert cli.run(_BUNDLED_PDE_COMMANDS[name], config_path=str(config),
                       out_dir=str(tmp_path)) == 0
        return marches

    @pytest.mark.parametrize("name", sorted(_BUNDLED_PDE_COMMANDS))
    def test_every_maturity_is_a_step_of_the_march(self, name, tmp_path, monkeypatch):
        stepped = {t for times, _ in self._marches(name, tmp_path, monkeypatch) for t in times}
        assert set(load_config(CONFIG_DIR / f"{name}.yaml").maturities()) <= stepped

    @pytest.mark.parametrize("name", sorted(
        name for name, command in _BUNDLED_PDE_COMMANDS.items() if command != "calibrate"))
    def test_march_builds_one_step_operator(self, name, tmp_path, monkeypatch):
        # the fan's quarters share one step size, so one operator serves them all
        assert [builds for _, builds in self._marches(name, tmp_path, monkeypatch)] == [1]

    def test_reference_pipeline_meets_price_bound(self, tmp_path):
        import pathlib

        config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "bshw_rho_pos.yaml"
        out = tmp_path / "ref"
        assert cli.run("price-pde", config_path=str(config), out_dir=str(out)) == 0
        assert cli.run("price-analytic", config_path=str(config), out_dir=str(out)) == 0
        assert cli.run(
            "compare",
            out_dir=str(out),
            left=str(out / "prices_pde.csv"),
            right=str(out / "prices_analytic.csv"),
        ) == 0
        text = (out / "discrepancy.csv").read_text()
        max_line = [l for l in text.splitlines() if "max_abs_diff" in l][0]
        assert float(max_line.split("=")[1]) <= 5e-4


class TestMainEntry:
    def test_config_error_is_machine_readable(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("model: {sped: 1}\n")
        status = cli.main(["price-analytic", "--config", str(bad)])
        assert status == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert payload["error"] == "config"

    def test_missing_config_flag(self, capsys):
        status = cli.main(["price-analytic"])
        assert status == 2

    def test_compare_requires_sides(self, capsys):
        status = cli.main(["compare", "--left", "a.csv", "--right", "b.csv"])
        assert status in (1, 2, 3)  # missing files surface as an error status

    def _config_error(self, capsys, argv):
        status = cli.main(argv)
        assert status == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "config"
        return payload["message"]

    def _market_config(self, tmp_path, market_rows):
        market = tmp_path / "market.csv"
        market.write_text("T,K,price\n0.5,1.0,0.06\n" + market_rows)
        config = tmp_path / "cal.yaml"
        config.write_text(yaml.safe_dump({
            "run": {
                "out_dir": str(tmp_path / "out"),
                "calibration": {"market": str(market)},
            },
        }))
        return config, market

    def test_market_row_with_four_fields_exits_2(self, tmp_path, capsys):
        config, market = self._market_config(tmp_path, "0.5,1.1,0.03,7\n")
        message = self._config_error(capsys, ["calibrate", "--config", str(config)])
        assert f"{market}, line 3" in message and "fields" in message

    def test_market_non_numeric_price_exits_2(self, tmp_path, capsys):
        config, market = self._market_config(tmp_path, "0.5,1.1,abc\n")
        message = self._config_error(capsys, ["calibrate", "--config", str(config)])
        assert f"{market}, line 3" in message and "abc" in message

    def test_compare_one_column_row_exits_2(self, tmp_path, capsys):
        left, right = tmp_path / "left.csv", tmp_path / "right.csv"
        left.write_text("K,price\n1.0,0.08\n1.1\n")
        right.write_text("K,price\n1.0,0.08\n")
        message = self._config_error(capsys, [
            "compare", "--out", str(tmp_path / "out"), "--left", str(left), "--right", str(right),
        ])
        assert f"{left}, line 3" in message

    def test_threads_flag_exits_2(self, fast_config, capsys):
        path, _ = fast_config
        with pytest.raises(SystemExit) as stop:
            cli.main(["price-analytic", "--config", str(path), "--threads", "2"])
        assert stop.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("block, key, value", [
        ("grid", "kernel", 400.0),
        ("run", "threads", 2),
        ("run", "maturity", 1.0),
        ("run", "calibration.market_path", "market.csv"),
    ])
    def test_removed_config_field_exits_2(self, tmp_path, capsys, block, key, value):
        data = {"run": {"out_dir": str(tmp_path / "out")}}
        *parents, leaf = key.split(".")
        node = data.setdefault(block, {})
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = value
        config = tmp_path / "removed.yaml"
        config.write_text(yaml.safe_dump(data))
        message = self._config_error(capsys, ["price-analytic", "--config", str(config)])
        assert message == f"unknown config field '{block}.{key}'"

    @pytest.mark.parametrize("bounds, named", [
        ({"s_min": 0.01, "s_max": 3.0}, ["r_max", "r_min"]),
        ("manual", ["manual"]),
        ({"s_min": 0.01, "s_max": 3.0, "r_min": -0.1, "r_max": 0.14, "n_s": 100}, ["n_s"]),
        ({"s_min": 0.01, "s_max": "wide", "r_min": -0.1, "r_max": 0.14}, ["s_max"]),
    ])
    def test_bad_grid_bounds_exit_2(self, tmp_path, capsys, bounds, named):
        config = tmp_path / "bounds.yaml"
        config.write_text(yaml.safe_dump({
            "grid": {"bounds": bounds}, "run": {"out_dir": str(tmp_path / "out")},
        }))
        message = self._config_error(capsys, ["price-pde", "--config", str(config)])
        assert "grid.bounds" in message
        assert all(name in message for name in named)

    @pytest.mark.parametrize("block, key, value, named", [
        ("grid", "ds", "abc", "grid.ds"),
        ("run", "strikes", [0.9, "x"], "run.strikes"),
        ("run", "maturities", [0.5, "soon"], "run.maturities"),
        ("model", "rho", "high", "model.rho"),
        ("model", "vol", {"type": "constant", "sigma1": "low"}, "model.vol.sigma1"),
    ])
    def test_non_numeric_config_value_exits_2(self, tmp_path, capsys, block, key, value, named):
        data = {"run": {"out_dir": str(tmp_path / "out")}}
        data.setdefault(block, {})[key] = value
        config = tmp_path / "not_a_number.yaml"
        config.write_text(yaml.safe_dump(data))
        message = self._config_error(capsys, ["price-analytic", "--config", str(config)])
        assert named in message

    @pytest.mark.parametrize("run, named", [
        ({"maturities": 1.0}, "run.maturities"),
        ({"maturities": []}, "run.maturities"),
        ({"strikes": "abc"}, "run.strikes"),
        ({"out_dir": ["a", "b"]}, "run.out_dir"),
        ({"calibration": {"market": 1}}, "run.calibration.market"),
        ({"mc": {"antithetic": "false"}}, "run.mc.antithetic"),
        ({"calibration": {"use_corrective": "no"}}, "run.calibration.use_corrective"),
        ({"mc": 5}, "run.mc"),
        ({"mc": {"n_paths": "1e3"}}, "run.mc.n_paths"),
        ({"mc": {"seed": True}}, "run.mc.seed"),
        ({"calibration": {"slice_iterations": 2.9}}, "run.calibration.slice_iterations"),
    ])
    def test_mistyped_run_field_exits_2(self, tmp_path, capsys, run, named):
        config = tmp_path / "mistyped.yaml"
        config.write_text(yaml.safe_dump({"run": {"out_dir": str(tmp_path / "out"), **run}}))
        message = self._config_error(capsys, ["price-analytic", "--config", str(config)])
        assert message.startswith(named + " must be")

    @pytest.mark.parametrize("config_seed, flags", [(-1, []), (7, ["--seed", "-3"])])
    def test_negative_seed_exits_3(self, fast_config, capsys, config_seed, flags):
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["run"]["mc"]["seed"] = config_seed
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["price-mc", "--config", str(path), *flags]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidInputError"
        assert "seed must be non-negative" in payload["message"]

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_non_finite_mc_step_exits_3(self, fast_config, capsys, dt):
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["run"]["mc"]["dt"] = dt
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["price-mc", "--config", str(path)]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidInputError"
        assert "Euler step must be positive and finite" in payload["message"]

    def test_a_line_the_scan_cannot_solve_exits_3(self, fast_config, capsys):
        # rates near -15 on a step of 0.1: the reaction 2 r outweighs 2 / dt,
        # and the S lines lose the dominance that keeps their pivots
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["model"]["rate"].update(theta=-15.0, r0=-15.0)
        raw["grid"].update(dt=0.1, bounds={"s_min": 1e-4, "s_max": 3.0,
                                           "r_min": -15.2, "r_max": -14.8})
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["price-pde", "--config", str(path)]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "SingularSystemError"
        assert "needs a row swap" in payload["message"]

    def test_one_mc_path_exits_3(self, fast_config, capsys):
        # one sample has no standard error; price-mc wrote se = 0
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["run"]["mc"]["n_paths"] = 1
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["price-mc", "--config", str(path)]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidInputError"
        assert "at least two paths" in payload["message"]

    @pytest.mark.parametrize("command, keys, value", [
        ("price-pde", ["grid", "ds"], float("nan")),
        ("price-pde", ["grid", "dt"], float("nan")),
        ("price-pde", ["grid", "dr"], float("inf")),
        ("calibrate", ["run", "calibration", "dt"], float("nan")),
    ])
    def test_non_finite_grid_spacing_exits_3(self, fast_config, capsys, command, keys, value):
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        block = raw
        for key in keys[:-1]:
            block = block.setdefault(key, {})
        block[keys[-1]] = value
        path.write_text(yaml.safe_dump(raw))
        assert cli.main([command, "--config", str(path)]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidInputError"
        assert "need positive, finite spacings" in payload["message"]

    @pytest.mark.parametrize("command", ["price-analytic", "calibrate"])
    def test_model_without_volatility_exits_3(self, tmp_path, capsys, command):
        config = tmp_path / "still.yaml"
        config.write_text(yaml.safe_dump({
            "model": {"rate": {"sigma2": 0.0}, "vol": {"type": "constant", "sigma1": 0.0}},
            "run": {"out_dir": str(tmp_path / "out")},
        }))
        assert cli.main([command, "--config", str(config)]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidInputError"
        assert "zero total variance at T=1.0" in payload["message"]

    @pytest.mark.parametrize("command", ["price-analytic", "price-pde"])
    def test_mean_reversion_below_its_floor_exits_3(self, fast_config, capsys, command):
        # price-analytic wrote a price of 1 at every strike; price-pde
        # failed with numpy's "Maximum allowed size exceeded"
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["model"]["rate"]["a"] = 1.0e-7
        path.write_text(yaml.safe_dump(raw))
        assert cli.main([command, "--config", str(path)]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidInputError"
        assert "mean-reversion speed must be finite and >= 0.001" in payload["message"]

    def test_unaddressable_grid_exits_3(self, fast_config, capsys):
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["grid"]["ds"] = 1.0e-300
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["price-pde", "--config", str(path)]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidInputError"
        assert "more bytes than numpy can address" in payload["message"]

    def test_grid_the_machine_cannot_hold_exits_3(self, fast_config, capsys, monkeypatch):
        # a field numpy can address but cannot allocate ended in a traceback
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 39.2 GiB")

        monkeypatch.setattr(cli.pde, "evolve", out_of_memory)
        path, _ = fast_config
        assert cli.main(["price-pde", "--config", str(path)]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload == {"error": "MemoryError", "message": "Unable to allocate 39.2 GiB"}

    def test_numeric_strings_pass_unchanged(self):
        cfg = resolve_config({"grid": {"dt": "1e-2"}, "run": {"strikes": ["0.9", 1.0]}})
        assert cfg.raw["grid"]["dt"] == "1e-2"
        assert np.allclose(cfg.strikes(), [0.9, 1.0])

    @pytest.mark.parametrize("mats", [[1.0, 0.5], [0.5, 0.5], [0.0, 1.0], [-0.5, 1.0]])
    def test_unordered_or_non_positive_maturities_exit_2(self, fast_config, capsys, mats):
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["run"]["maturities"] = mats
        path.write_text(yaml.safe_dump(raw))
        message = self._config_error(capsys, ["price-pde", "--config", str(path)])
        assert "maturities" in message

    @pytest.mark.parametrize("command, run, named", [
        ("price-mc", {"maturities": [float("nan")]}, "run.maturities must be finite"),
        ("price-pde", {"maturities": [float("inf")]}, "run.maturities must be finite"),
        ("corrective-terms", {"maturities": [float("nan"), 1.0]}, "run.maturities must be finite"),
        ("corrective-terms", {"maturities": [0.5, float("inf")]}, "run.maturities must be finite"),
        ("price-analytic", {"strikes": {"start": float("nan")}}, "run.strikes.start must be finite"),
        ("price-analytic", {"strikes": {"stop": float("inf")}}, "run.strikes.stop must be finite"),
        ("price-analytic", {"strikes": {"step": float("inf")}}, "run.strikes.step must be finite"),
        ("price-analytic", {"strikes": [0.9, float("nan")]}, "run.strikes must be finite"),
    ])
    def test_non_finite_maturity_or_strike_range_exits_2(self, fast_config, capsys,
                                                          command, run, named):
        # NaN passed the ordering tests; inf overflowed the strike count or
        # made a NaN strike from step * 0
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        for key, value in run.items():
            if isinstance(value, dict):
                raw["run"][key] = {**raw["run"][key], **value}
            else:
                raw["run"][key] = value
        path.write_text(yaml.safe_dump(raw))
        message = self._config_error(capsys, [command, "--config", str(path)])
        assert named in message

    @pytest.mark.parametrize("command", ["price-pde", "price-analytic", "price-mc"])
    def test_non_positive_strikes_exit_2(self, fast_config, capsys, command):
        # price-mc priced them with exit 0; price-pde and price-analytic exited 3
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["run"]["strikes"] = [-0.5, 0.0, 1.0]
        path.write_text(yaml.safe_dump(raw))
        message = self._config_error(capsys, [command, "--config", str(path)])
        assert "run.strikes must be finite, positive and strictly increasing" in message

    def test_maturities_on_no_common_lattice_exit_0(self, fast_config):
        # no uniform step count puts both on a step; each interval takes its own
        path, out = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["run"]["maturities"] = [0.1234567891, 1.0]
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["corrective-terms", "--config", str(path)]) == 0
        rows = _load_rows(out / "corrective_terms.csv")
        assert rows[:, 0].tolist() == [0.1234567891] * 7 + [1.0] * 7
        assert np.all(np.isfinite(rows[:, 2]))

    @pytest.mark.parametrize("strikes", [
        {"start": 0.5, "stop": 1.0e+20, "step": 1.0},
        {"start": 0.5, "stop": 1.5, "step": 5e-324},
        {"start": 1.0, "stop": 100001.0, "step": 1.0},
    ])
    def test_strike_range_beyond_the_cap_exits_2(self, fast_config, capsys, strikes):
        # the first ended in "ValueError: Maximum allowed size exceeded" (exit 1)
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["run"]["strikes"] = strikes
        path.write_text(yaml.safe_dump(raw))
        message = self._config_error(capsys, ["price-analytic", "--config", str(path)])
        assert "run.strikes" in message and str(MAX_STRIKES) in message

    def test_strike_range_at_the_cap_accepted(self):
        cfg = resolve_config({"run": {"strikes": {"start": 1.0, "stop": 100000.0, "step": 1.0}}})
        assert cfg.strikes().size == MAX_STRIKES

    @pytest.mark.parametrize("rows, line", [
        ("1.0,0.08\nnan,0.3\n", 3),
        ("1.0,nan\n", 2),
        ("# note\n1.0,0.08\n1.1,inf\n", 4),
    ])
    def test_compare_non_finite_strike_or_price_exits_3(self, tmp_path, capsys, rows, line):
        # a row starting with a letter was skipped, and a NaN price gave
        # max_abs_diff=nan with exit 0
        left, right = tmp_path / "left.csv", tmp_path / "right.csv"
        left.write_text("K,price\n" + rows)
        right.write_text("K,price\n1.0,0.08\n1.1,0.04\n")
        message = self._input_error(capsys, [
            "compare", "--out", str(tmp_path / "out"), "--left", str(left), "--right", str(right),
        ])
        assert f"{left}, line {line}" in message and "must be finite" in message

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_compare_repeated_strike_exits_2(self, tmp_path, capsys, side):
        # the join kept the first quote of K = 1.0 and reported
        # max_abs_diff=0 with exit 0
        files = {name: tmp_path / f"{name}.csv" for name in ("left", "right")}
        other = "right" if side == "left" else "left"
        files[side].write_text("K,price\n1.0,0.1\n1.0000000001,0.2\n")
        files[other].write_text("K,price\n1.0,0.1\n")
        message = self._config_error(capsys, [
            "compare", "--out", str(tmp_path / "out"),
            "--left", str(files["left"]), "--right", str(files["right"]),
        ])
        assert f"{files[side]}, line 3" in message and "repeated strike" in message

    def test_compare_letter_row_is_data(self, tmp_path, capsys):
        left, right = tmp_path / "left.csv", tmp_path / "right.csv"
        left.write_text("K,price\n1.0,0.08\nstrike,0.3\n")
        right.write_text("k,price\n1.0,0.08\n")
        message = self._config_error(capsys, [
            "compare", "--out", str(tmp_path / "out"), "--left", str(left), "--right", str(right),
        ])
        assert f"{left}, line 3" in message and "strike" in message

    def test_market_without_data_rows_exits_2(self, tmp_path, capsys):
        config, market = self._market_config(tmp_path, "")
        market.write_text("T,K,price\n")
        message = self._config_error(capsys, ["calibrate", "--config", str(config)])
        assert str(market) in message

    def test_market_repeated_quote_exits_2(self, tmp_path, capsys):
        config, market = self._market_config(tmp_path, "0.5,1.1,0.03\n0.5,1.0,0.0602\n")
        message = self._config_error(capsys, ["calibrate", "--config", str(config)])
        assert f"{market}, line 4" in message and "repeated" in message

    def _input_error(self, capsys, argv):
        assert cli.main(argv) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidInputError"
        return payload["message"]

    @pytest.mark.parametrize("price", ["nan", "inf"])
    def test_market_non_finite_price_exits_3(self, tmp_path, capsys, price):
        config, _ = self._market_config(tmp_path, f"0.5,1.1,{price}\n")
        message = self._input_error(capsys, ["calibrate", "--config", str(config)])
        assert "must be finite" in message

    def test_market_non_positive_strike_exits_3(self, tmp_path, capsys):
        config, _ = self._market_config(tmp_path, "0.5,0.0,0.5\n")
        message = self._input_error(capsys, ["calibrate", "--config", str(config)])
        assert "must be positive" in message

    @pytest.mark.parametrize("grid", [
        {"s_max_sigmas": float("nan")},
        {"r_sigmas": float("inf")},
        {"bounds": {"s_min": 0.01, "s_max": float("inf"), "r_min": -0.1, "r_max": 0.14}},
    ])
    def test_non_finite_grid_box_exits_3(self, fast_config, capsys, grid):
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["grid"].update(grid)
        path.write_text(yaml.safe_dump(raw))
        message = self._input_error(capsys, ["price-pde", "--config", str(path)])
        assert "need a finite box" in message

    @pytest.mark.parametrize("row", ["nan,1.1,0.03", "0.5,nan,0.03", "inf,1.1,0.03"])
    def test_market_non_finite_maturity_or_strike_exits_3(self, tmp_path, capsys, row):
        # a NaN key never repeats, so only a check on the row names the line
        config, market = self._market_config(tmp_path, row + "\n")
        message = self._input_error(capsys, ["calibrate", "--config", str(config)])
        assert f"{market}, line 3" in message and "must be finite" in message

    def test_overflowing_grid_box_exits_3(self, fast_config, capsys):
        # exp(1e4 * 0.2) overflows a float: the box is infinite, not an OverflowError
        path, _ = fast_config
        raw = yaml.safe_load(path.read_text())
        raw["grid"]["s_max_sigmas"] = 1.0e4
        path.write_text(yaml.safe_dump(raw))
        message = self._input_error(capsys, ["price-pde", "--config", str(path)])
        assert "need a finite box" in message and "s_max=inf" in message

    def test_zero_strike_step_exits_2(self, tmp_path, capsys):
        config = tmp_path / "zero_step.yaml"
        config.write_text(yaml.safe_dump({
            "run": {"out_dir": str(tmp_path / "out"), "strikes": {"step": 0}},
        }))
        message = self._config_error(capsys, ["price-analytic", "--config", str(config)])
        assert "run.strikes.step" in message

    @pytest.mark.parametrize("text, named", [
        ("- 1\n- 2\n", "top level of"),
        ("model: [1,\n", "could not parse"),
        ("model: {vol: {sigma1: 0.2}}\n", "model.vol must be a mapping with a 'type' field"),
    ], ids=["list", "unparsable", "vol-without-type"])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, text, named):
        config = tmp_path / "malformed.yaml"
        config.write_text(text)
        message = self._config_error(capsys, ["price-analytic", "--config", str(config)])
        assert named in message

    def test_empty_config_runs_on_the_defaults(self, tmp_path):
        config = tmp_path / "empty.yaml"
        config.write_text("")
        assert cli.main(["price-analytic", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "prices_analytic.csv").is_file()

    def test_closed_forms_of_a_local_vol_model_exit_3(self, tmp_path, capsys):
        message = self._input_error(capsys, [
            "price-analytic", "--config", str(CONFIG_DIR / "hyperbolic_hw_rho_neg.yaml"),
            "--out", str(tmp_path),
        ])
        assert "constant equity volatility" in message

    def test_six_slice_iterations_exit_3(self, tmp_path, capsys):
        config = tmp_path / "slices.yaml"
        config.write_text(yaml.safe_dump({
            "run": {"out_dir": str(tmp_path / "out"), "calibration": {"slice_iterations": 6}},
        }))
        message = self._input_error(capsys, ["calibrate", "--config", str(config)])
        assert "slice_iterations must be in 1..5" in message

    @pytest.mark.parametrize("rows, named", [
        ("0.5,1.1,0.03\n0.5,1.2,0.01\n", "single-maturity"),
        ("0.5,1.1,0.03\n1.0,1.0,0.08\n1.0,1.1,0.05\n", "at least 3 strikes"),
    ], ids=["one-maturity", "two-strikes"])
    def test_market_lattice_too_small_to_difference_exits_3(self, tmp_path, capsys, rows, named):
        config, _ = self._market_config(tmp_path, rows)
        message = self._input_error(capsys, ["calibrate", "--config", str(config)])
        assert named in message

    def test_market_linear_in_strike_has_no_usable_strike(self, tmp_path, capsys):
        # C_KK = 0 everywhere: no strike has a local variance to extract
        config, _ = self._market_config(
            tmp_path, "0.5,0.9,0.11\n0.5,1.1,0.01\n1.0,0.9,0.12\n1.0,1.0,0.07\n1.0,1.1,0.02\n")
        assert cli.main(["calibrate", "--config", str(config)]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "CalibrationError"
        assert "no usable strike at maturity 0.5" in payload["message"]

    def test_market_with_a_hole_exits_2(self, tmp_path, capsys):
        config, _ = self._market_config(tmp_path, "0.5,1.1,0.03\n1.0,1.0,0.08\n")
        message = self._config_error(capsys, ["calibrate", "--config", str(config)])
        assert "not a full (T, K) lattice" in message

    def test_analytic_market_beyond_the_solver_box_exits_3(self, tmp_path, capsys):
        config = tmp_path / "wide.yaml"
        config.write_text(yaml.safe_dump({"run": {
            "out_dir": str(tmp_path / "out"),
            "strikes": {"start": 0.5, "stop": 3.5, "step": 0.5},
            "calibration": {"market": "analytic"},
        }}))
        message = self._input_error(capsys, ["calibrate", "--config", str(config)])
        assert "market strikes fall outside the solver box" in message

    def test_compare_without_a_common_strike_exits_2(self, tmp_path, capsys):
        left, right = tmp_path / "left.csv", tmp_path / "right.csv"
        left.write_text("K,price\n1.0,0.08\n")
        right.write_text("K,price\n1.1,0.04\n")
        message = self._config_error(capsys, [
            "compare", "--out", str(tmp_path / "out"), "--left", str(left), "--right", str(right),
        ])
        assert "no common strikes" in message

    def test_grid_bounds_above_the_spot_exit_3(self, tmp_path, capsys):
        config = tmp_path / "bounds.yaml"
        config.write_text(yaml.safe_dump({
            "grid": {"bounds": {"s_min": 3.0, "s_max": 6.0, "r_min": -0.1, "r_max": 0.14}},
            "run": {"out_dir": str(tmp_path / "out")},
        }))
        message = self._input_error(capsys, ["price-pde", "--config", str(config)])
        assert message == (
            "grid box S in (3, 6), r in (-0.1, 0.14) does not hold the start (S0=1, r0=0.02)")

    @pytest.mark.parametrize("bounds, model, box", [
        # S0 below the box: the start's far tail blew up at step 2
        ({"s_min": 1.5, "s_max": 3.0, "r_min": -0.1, "r_max": 0.1}, {},
         "S in (1.5, 3), r in (-0.1, 0.1)"),
        # r0 below the box: the march ran to exit 0 with K = 1 priced at
        # 0.129 against the closed form's 0.0894
        ({"s_min": 0.01, "s_max": 3.0, "r_min": 0.05, "r_max": 0.3}, {"rate": {"sigma2": 0.04}},
         "S in (0.01, 3), r in (0.05, 0.3)"),
    ], ids=["spot-below", "rate-below"])
    def test_grid_bounds_must_hold_the_start(self, tmp_path, capsys, bounds, model, box):
        config = tmp_path / "bounds.yaml"
        config.write_text(yaml.safe_dump({
            "model": model,
            "grid": {"bounds": bounds},
            "run": {"out_dir": str(tmp_path / "out")},
        }))
        message = self._input_error(capsys, ["price-pde", "--config", str(config)])
        assert message == f"grid box {box} does not hold the start (S0=1, r0=0.02)"
        assert not (tmp_path / "out" / "prices_pde.csv").exists()

    def test_failed_calibration_leaves_the_report_of_finished_maturities(self, tmp_path, capsys):
        # the CSV form of the lattice market whose T=0.6 quotes repeat those
        # at T=0.5: the slice at T=0.55 fails once T=0.5 is calibrated
        mats, ks = [0.5, 0.55, 0.6], np.round(np.arange(0.8, 1.2001, 0.05), 10)
        config = TestCommands._csv_market_config(tmp_path, mats, ks, 1)
        market = tmp_path / "market.csv"
        lines = market.read_text().splitlines(keepends=True)
        first = lines[1:1 + len(ks)]  # the header, then the quotes of T=0.5
        lines[1 + 2 * len(ks):] = [quote.replace("0.5,", "0.6,", 1) for quote in first]
        market.write_text("".join(lines))
        assert cli.main(["calibrate", "--config", str(config)]) == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "CalibrationError"
        assert payload["message"].startswith("negative local variance at (T=0.55, ")
        out = tmp_path / "out"
        assert not (out / "local_vol_surface.csv").exists()
        report = (out / "calibration_report.txt").read_text().splitlines()
        assert [line.split()[0] for line in report if line.startswith("T=")] == ["T=0.5"]

    def test_version_is_stated_once(self, capsys):
        from hybridlv.version import __version__

        with pytest.raises(SystemExit) as done:
            cli.main(["--version"])
        assert done.value.code == 0
        assert capsys.readouterr().out == f"hybridlv {__version__}\n"
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
            import tomli as tomllib
        with open(Path(cli.__file__).resolve().parents[2] / "pyproject.toml", "rb") as handle:
            pyproject = tomllib.load(handle)
        assert "version" not in pyproject["project"]
        assert pyproject["project"]["dynamic"] == ["version"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "hybridlv.version.__version__"}

    def test_run_rejects_compare_without_sides_and_unknown_commands(self, tmp_path):
        with pytest.raises(ConfigError, match="--left and --right"):
            cli.run("compare", out_dir=str(tmp_path), left=str(tmp_path / "left.csv"))
        with pytest.raises(ConfigError, match="unknown command 'price'"):
            cli.run("price", config_path=str(tmp_path / "config.yaml"))


def test_cli_import_leaves_scipy_integrate_unloaded():
    # no quadrature in the engine: importing it must not pay for scipy.integrate
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, hybridlv.cli; print('scipy.integrate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def _modules_after(package, code, *args):
    """The modules of ``package`` loaded by a fresh interpreter that runs
    ``code``, sorted."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code += (f"\nimport sys\n"
             f"print(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    done = subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1].split()


def test_package_import_loads_no_scipy():
    # only price-mc needs scipy (montecarlo's ndtri); start-up must not pay for it
    assert _modules_after("scipy", "import hybridlv, hybridlv.cli") == []


@pytest.mark.parametrize("module, loads", [
    ("hybridlv", []),
    ("hybridlv.models", ["errors", "models"]),
    ("hybridlv.linalg", ["errors", "linalg"]),
    ("hybridlv.analytic", ["analytic", "errors", "models"]),
    ("hybridlv.pde", ["errors", "linalg", "models", "pde"]),
])
def test_module_import_loads_only_what_it_imports(module, loads):
    # the package binds __version__ alone: importing one module does not
    # load the rest of the engine
    expected = ["hybridlv", *(f"hybridlv.{name}" for name in ["version", *loads])]
    assert _modules_after("hybridlv", f"import {module}") == sorted(expected)


def test_a_failing_prefactor_loads_no_scipy():
    # a zero pivot, a row swap and an overflowing scan product each raise,
    # with no fallback to load
    code = (
        "import numpy as np\n"
        "from hybridlv.errors import SingularSystemError\n"
        "from hybridlv.linalg import thomas_prefactor\n"
        "zero, one = np.zeros((20, 2)), np.ones((20, 2))\n"
        "for a, b, c in [(zero, zero, zero), (3 * one, one, zero), (zero, one, 1e30 * one)]:\n"
        "    try:\n"
        "        thomas_prefactor(a, b, c, 0)\n"
        "    except SingularSystemError:\n"
        "        continue\n"
        "    raise AssertionError('factored')"
    )
    assert _modules_after("scipy", code) == []


def test_pde_commands_load_no_scipy(tmp_path):
    fan = yaml.safe_load(FAST_BSHW.replace("PLACEHOLDER", str(tmp_path / "fan")))
    fan["run"]["maturities"] = [0.5, 1.0]
    cal = {
        "model": {"rho": 0.0, "rate": {"a": 0.5, "sigma2": 0.0, "theta": 0.02, "r0": 0.02}},
        "run": {
            "out_dir": str(tmp_path / "cal"),
            "maturities": [0.5, 1.0],
            "strikes": {"start": 0.9, "stop": 1.1, "step": 0.05},
            "calibration": {"ds": 0.02, "dr": 0.003, "dt": 0.02, "market": "analytic"},
        },
    }
    (tmp_path / "fan.yaml").write_text(yaml.safe_dump(fan))
    (tmp_path / "cal.yaml").write_text(yaml.safe_dump(cal))
    code = (
        "import sys\nfrom hybridlv import cli\n"
        "for command, config in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    assert cli.main([command, '--config', config]) == 0, command"
    )
    argv = ["price-pde", tmp_path / "fan.yaml", "corrective-terms", tmp_path / "fan.yaml",
            "solve-pde", tmp_path / "fan.yaml", "calibrate", tmp_path / "cal.yaml"]
    assert _modules_after("scipy", code, *map(str, argv)) == []
    assert (tmp_path / "fan" / "prices_pde.csv").is_file()
    assert (tmp_path / "fan" / "mass_diagnostics.csv").is_file()
    assert (tmp_path / "fan" / "corrective_terms.csv").is_file()
    assert (tmp_path / "cal" / "local_vol_surface.csv").is_file()
