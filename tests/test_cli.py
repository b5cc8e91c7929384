import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from hybridlv import cli
from hybridlv.config import load_config, resolve_config
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
  maturity: 1.0
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

    def test_readme_schema_lists_every_field(self):
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        block = readme.split("### Configuration schema", 1)[1]
        block = block.split("```yaml\n", 1)[1].split("```", 1)[0]
        documented = yaml.safe_load(block)
        assert _keys(documented) == _keys(resolve_config({}).raw)

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
        assert mass[3] == "step,t,raw_mass,target_zc,ratio,neg_fraction,neg_mass_ratio"

    def test_corrective_terms_csv(self, fast_config):
        path, out = fast_config
        assert cli.run("corrective-terms", config_path=str(path)) == 0
        rows = _load_rows(out / "corrective_terms.csv")
        assert rows.shape[1] == 3
        assert np.all(rows[:, 2] >= -1e-5)  # positive correlation setup

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
        assert (tmp_path / "out" / "calibration_report.txt").read_text().startswith(
            "calibration report"
        )


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

    @pytest.mark.parametrize("name", sorted(_BUNDLED_PDE_COMMANDS))
    def test_first_operator_takes_the_blocked_scan(self, name, tmp_path, monkeypatch):
        # A scheme change that makes gttrf swap rows would silently send every
        # sweep back to the serial LAPACK solve.
        import hybridlv.pde as pde_mod

        class FirstOperator(pde_mod._StepOperator):
            def __init__(self, *args):
                super().__init__(*args)
                raise _FirstOperator(self)

        monkeypatch.setattr(pde_mod, "_StepOperator", FirstOperator)
        config = CONFIG_DIR / f"{name}.yaml"
        with pytest.raises(_FirstOperator) as stop:
            cli.run(_BUNDLED_PDE_COMMANDS[name], config_path=str(config), out_dir=str(tmp_path))
        op = stop.value.args[0]
        assert op.lu1.scan is not None and op.lu2.scan is not None

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
                "calibration": {"market": "csv", "market_path": str(market)},
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

    @pytest.mark.parametrize("block, key, value", [("grid", "kernel", 400.0), ("run", "threads", 2)])
    def test_removed_config_field_exits_2(self, tmp_path, capsys, block, key, value):
        data = {"run": {"out_dir": str(tmp_path / "out")}}
        data.setdefault(block, {})[key] = value
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

    def test_zero_strike_step_exits_2(self, tmp_path, capsys):
        config = tmp_path / "zero_step.yaml"
        config.write_text(yaml.safe_dump({
            "run": {"out_dir": str(tmp_path / "out"), "strikes": {"step": 0}},
        }))
        message = self._config_error(capsys, ["price-analytic", "--config", str(config)])
        assert "run.strikes.step" in message
