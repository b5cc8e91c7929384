"""Command-line front end.

Commands
--------
solve-pde         march the density and export snapshots + mass diagnostics
price-pde         strike sweep of call prices from the evolved density
price-analytic    closed-form prices and sensitivities (constant vol only)
price-mc          Monte Carlo prices with standard errors
corrective-terms  stochastic-rates adjustments over a maturity grid
calibrate         bootstrap a local-vol surface from a call surface
compare           join two price CSVs and report the discrepancy

Every CSV artifact starts with a ``# config=<hash>`` comment carrying the
digest of the resolved configuration; rerunning a command with the same
config (and, for ``price-mc``, the same ``--seed``) reproduces the bytes
exactly.

``run.maturities`` is the one horizon field. ``solve-pde``, ``price-pde``
and ``corrective-terms`` march one grid through every entry, each entry on
a step, and read their fields from that one march: ``price-pde`` prices
the last, so it reads the field ``solve-pde`` writes there. All three read
each field as the march reaches it, writing its ``pz_t*.csv``, reducing it
to its row of corrective terms, or keeping it only until the next one
comes, so they hold one field however many maturities the fan has; a march
that fails leaves the ``pz_t*.csv`` of the maturities it reached.
``calibrate`` on an analytic market takes each entry, ``price-analytic``
and ``price-mc`` the last. ``run.calibration.market`` is ``analytic`` or
the path of a ``T,K,price`` CSV lattice.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import pde
from .analytic import bshw_call
from .config import ExperimentConfig, _digest, load_config
from .errors import CalibrationError, ConfigError, HybridLvError, InvalidInputError
from .models import forward_rate
from .version import __version__

__all__ = ["main", "run"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


class _Writer:
    def __init__(self, out_dir: Path, digest: str):
        self.out_dir = out_dir
        self.digest = digest
        self.written: list[Path] = []

    def csv(self, name: str, header: str, rows, comments=()) -> Path:
        path = self.out_dir / name
        with open(path, "w") as handle:
            handle.write(f"# config={self.digest}\n")
            for line in comments:
                handle.write(f"# {line}\n")
            handle.write(header + "\n")
            for row in rows:
                handle.write(",".join(_fmt(x) for x in row) + "\n")
        self.written.append(path)
        return path

    def text(self, name: str, content: str) -> Path:
        path = self.out_dir / name
        path.write_text(content)
        self.written.append(path)
        return path


def _build_grid(cfg: ExperimentConfig, model) -> pde.Grid2D:
    """The configured grid; every configured maturity lies on a step."""
    gb = cfg.grid_block
    maturities = cfg.maturities()
    spacings = [float(gb[key]) for key in ("ds", "dr", "dt")]
    if gb["bounds"] == "auto":
        return pde.auto_grid(model, maturities, *spacings,
                             s_max_sigmas=float(gb["s_max_sigmas"]),
                             r_sigmas=float(gb["r_sigmas"]))
    box = [float(gb["bounds"][key]) for key in ("s_min", "s_max", "r_min", "r_max")]
    return pde.Grid2D.from_spacings(*box, maturities, *spacings)


def _mass_rows(diag: pde.EvolveDiagnostics):
    ratios = diag.mass_ratios
    for i, t in enumerate(diag.times):
        yield (
            i + 1, t, diag.raw_mass[i], diag.target_mass[i], ratios[i],
            diag.negative_mass_ratio[i],
        )


def _march(cfg, model, on_snapshot=None):
    """The march of ``model`` on the configured grid, with a snapshot at
    every configured maturity, each handed to ``on_snapshot`` if given (see
    :func:`pde.evolve`); the march's warnings go to stderr. Every PDE
    command reads its fields from this one march."""
    result = pde.evolve(model, _build_grid(cfg, model), snapshot_times=cfg.maturities(),
                        on_snapshot=on_snapshot)
    for warning in result.diagnostics.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return result


def _cmd_solve_pde(cfg, writer: _Writer):
    def write(snap):
        s, r = np.meshgrid(snap.grid.s_nodes, snap.grid.r_nodes, indexing="ij")
        rows = zip(np.full(s.size, snap.t), s.ravel(), r.ravel(), snap.values.ravel())
        # the shortest digits that read back as t, so no two maturities share a file
        writer.csv(f"pz_t{np.format_float_positional(snap.t, trim='-')}.csv", "t,S,r,pz", rows)

    result = _march(cfg, cfg.build_model(), on_snapshot=write)
    writer.csv(
        "mass_diagnostics.csv",
        "step,t,raw_mass,target_zc,ratio,neg_mass_ratio",
        _mass_rows(result.diagnostics),
        comments=[f"start_mode={result.diagnostics.start_mode}",
                  f"start_time={result.diagnostics.start_time:.17g}"],
    )
    return 0


def _cmd_price_pde(cfg, writer: _Writer):
    strikes = cfg.strikes()
    latest = {}  # only the field the march reached last
    _march(cfg, cfg.build_model(), on_snapshot=lambda snap: latest.update(field=snap))
    field = latest["field"]
    prices = cal.price_calls_from_pz(field, strikes)
    writer.csv("prices_pde.csv", "K,price", zip(strikes, prices),
               comments=[f"T={field.t:.17g}"])
    return 0


def _cmd_price_analytic(cfg, writer: _Writer):
    model = cfg.build_model()
    maturity = float(cfg.maturities()[-1])
    rows = []
    for k in cfg.strikes():
        pg = bshw_call(model, maturity, float(k))
        rows.append((k, pg.price, pg.c_t, pg.c_k, pg.c_kk))
    writer.csv("prices_analytic.csv", "K,price,c_t,c_k,c_kk", rows,
               comments=[f"T={maturity:.17g}"])
    return 0


def _cmd_price_mc(cfg, writer: _Writer):
    from . import montecarlo as mc  # the only command that needs scipy

    model = cfg.build_model()
    maturity = float(cfg.maturities()[-1])
    mb = cfg.run_block["mc"]
    config = mc.McConfig(
        n_paths=int(mb["n_paths"]),
        dt_mc=float(mb["dt"]),
        seed=int(mb["seed"]),
        antithetic=bool(mb["antithetic"]),
    )
    strikes = cfg.strikes()
    payoffs = [
        (lambda s, r, acc, k=float(k): np.exp(-acc) * np.maximum(s - k, 0.0))
        for k in strikes
    ]
    estimates = mc.simulate_paths(model, maturity, config, payoffs)
    rows = [(k, e.mean, e.standard_error) for k, e in zip(strikes, estimates)]
    writer.csv("prices_mc.csv", "K,price,se", rows, comments=[f"T={maturity:.17g}"])
    return 0


def _cmd_corrective_terms(cfg, writer: _Writer):
    strikes = cfg.strikes()
    model = cfg.build_model()
    rows = []

    def reduce(snap):
        curve = cal.corrective_terms(snap, forward_rate(model.rate, snap.t), strikes)
        rows.extend((snap.t, k, a) for k, a in zip(curve.strikes, curve.adj))

    _march(cfg, model, on_snapshot=reduce)
    writer.csv("corrective_terms.csv", "T,K,adj", rows)
    return 0


def _cmd_calibrate(cfg, writer: _Writer):
    model = cfg.build_model()
    cb = cfg.run_block["calibration"]
    if cb["market"] == "analytic":
        strikes = cfg.strikes()
        market = cal.make_analytic_surface(model, cfg.maturities(), strikes)
    else:
        market = _read_market(cb["market"])
    settings = cal.CalibrationSettings(
        ds=float(cb["ds"]),
        dr=float(cb["dr"]),
        dt=float(cb["dt"]),
        slice_iterations=int(cb["slice_iterations"]),
        use_corrective=bool(cb["use_corrective"]),
    )
    try:
        result = cal.calibrate(market, model, settings)
    except CalibrationError as exc:
        if exc.report is not None:  # the maturities finished before the failure
            writer.text("calibration_report.txt", exc.report.format_text())
        raise
    surface = result.surface
    rows = [
        (t, k, surface.sigma[i, j])
        for i, t in enumerate(surface.maturities)
        for j, k in enumerate(surface.strikes)
    ]
    writer.csv("local_vol_surface.csv", "T,K,sigma", rows)
    writer.text("calibration_report.txt", result.report.format_text())
    return 0


def _csv_numbers(path, lineno: int, line: str, width: int, exact: bool) -> list[float]:
    """The first ``width`` numbers of a CSV data row; a row with fewer fields
    (or, if ``exact``, more) or a non-number is a :class:`ConfigError`, a
    non-finite number an :class:`InvalidInputError`."""
    parts = line.split(",")
    if len(parts) < width or (exact and len(parts) > width):
        raise ConfigError(
            f"{path}, line {lineno}: expected {width} comma-separated fields, got {len(parts)}"
        )
    try:
        numbers = [float(x) for x in parts[:width]]
    except ValueError as exc:
        raise ConfigError(f"{path}, line {lineno}: {exc}") from None
    if not all(map(math.isfinite, numbers)):
        raise InvalidInputError(f"{path}, line {lineno}: numbers must be finite, got {numbers}")
    return numbers


def _read_quotes(path, header: str, width: int, exact: bool, key, repeated) -> dict:
    """{key(*numbers): last number} over the :func:`_csv_numbers` rows of a CSV,
    past blank lines, ``#`` comments and a ``header`` line; a repeated key is
    a :class:`ConfigError` saying ``repeated(*numbers)``."""
    quotes = {}
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith(header):
                continue
            numbers = _csv_numbers(path, lineno, line, width, exact)
            quote = key(*numbers)
            if quote in quotes:
                raise ConfigError(f"{path}, line {lineno}: {repeated(*numbers)}")
            quotes[quote] = numbers[-1]
    return quotes


def _read_market(path) -> cal.CallSurface:
    quotes = _read_quotes(path, "t,", 3, True, lambda t, k, _: (t, k),  # (T, K) -> price
                          lambda t, k, _: f"repeated quote for (T={t:g}, K={k:g})")
    if not quotes:
        raise ConfigError(f"{path}: no T,K,price data rows")
    mats = sorted({t for t, _ in quotes})
    ks = sorted({k for _, k in quotes})
    if len(quotes) != len(mats) * len(ks):
        raise ConfigError("market CSV is not a full (T, K) lattice")
    prices = [[quotes[(t, k)] for k in ks] for t in mats]
    return cal.CallSurface(np.asarray(mats), np.asarray(ks), np.asarray(prices))


def _read_price_csv(path):
    """Join keys (strikes rounded to 9 decimals) and prices of a K,price CSV;
    a strike whose key repeats is a :class:`ConfigError`."""
    quotes = _read_quotes(path, "k,", 2, False, lambda k, _: float(np.round(k, 9)),
                          lambda k, _: f"repeated strike K={k:g} (to 9 decimals)")
    return np.asarray(list(quotes), dtype=float), np.asarray(list(quotes.values()), dtype=float)


def _cmd_compare(left: str, right: str, writer: _Writer):
    key_l, p_l = _read_price_csv(left)
    key_r, p_r = _read_price_csv(right)
    common, idx_l, idx_r = np.intersect1d(key_l, key_r, return_indices=True)
    if common.size == 0:
        raise ConfigError("no common strikes to compare")
    diff = p_l[idx_l] - p_r[idx_r]
    rows = zip(common, p_l[idx_l], p_r[idx_r], diff)
    max_abs = float(np.max(np.abs(diff)))
    mean_abs = float(np.mean(np.abs(diff)))
    writer.csv(
        "discrepancy.csv",
        "K,left,right,diff",
        rows,
        comments=[f"left={left}", f"right={right}",
                  f"max_abs_diff={max_abs:.17g}", f"mean_abs_diff={mean_abs:.17g}"],
    )
    print(f"max_abs_diff={max_abs:.6e} mean_abs_diff={mean_abs:.6e}")
    return 0


_COMMANDS = {
    "solve-pde": _cmd_solve_pde,
    "price-pde": _cmd_price_pde,
    "price-analytic": _cmd_price_analytic,
    "price-mc": _cmd_price_mc,
    "corrective-terms": _cmd_corrective_terms,
    "calibrate": _cmd_calibrate,
}


def run(
    command: str,
    config_path: str | None = None,
    out_dir: str | None = None,
    seed: int | None = None,
    left: str | None = None,
    right: str | None = None,
) -> int:
    """Execute one command; returns the process exit status."""
    if seed is not None and command != "price-mc":
        raise ConfigError(f"--seed applies to price-mc only, not to {command}")
    if command == "compare":
        digest = load_config(config_path).digest() if config_path else "none"
        out = Path(out_dir or ".")
        out.mkdir(parents=True, exist_ok=True)
        if not (left and right):
            raise ConfigError("compare needs --left and --right price CSVs")
        return _cmd_compare(left, right, _Writer(out, digest))
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if config_path is None:
        raise ConfigError(f"{command} needs --config")
    cfg = load_config(config_path)
    if seed is not None:
        cfg.raw["run"]["mc"]["seed"] = int(seed)
    if out_dir is not None:
        cfg.raw["run"]["out_dir"] = str(out_dir)
    out = Path(cfg.run_block["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    # Render the resolved configuration once: echo it before doing any
    # work, save it, and stamp its digest on every artifact.
    resolved = cfg.to_yaml()
    digest = _digest(resolved)
    print(f"# resolved config (digest {digest})")
    print(resolved, end="")
    (out / "resolved_config.yaml").write_text(resolved)
    writer = _Writer(out, digest)
    status = _COMMANDS[command](cfg, writer)
    for path in writer.written:
        print(f"wrote {path}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hybridlv",
        description="Hybrid local-vol / short-rate pricing and calibration engine",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_COMMANDS) + ["compare"]:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        if name == "price-mc":
            p.add_argument("--seed", type=int, default=None)
        if name == "compare":
            p.add_argument("--left", type=str, required=True)
            p.add_argument("--right", type=str, required=True)
    args = parser.parse_args(argv)
    try:
        return run(
            args.command,
            config_path=args.config,
            out_dir=args.out,
            seed=getattr(args, "seed", None),
            left=getattr(args, "left", None),
            right=getattr(args, "right", None),
        )
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except HybridLvError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(json.dumps({"error": "MemoryError", "message": str(exc)}), file=sys.stderr)
        return 3
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
