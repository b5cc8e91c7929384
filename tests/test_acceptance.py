"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured quantity against its bound (run with ``pytest -s`` to see the
lines as they appear, or ``-v`` for per-criterion status).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hybridlv.analytic import analytic_pz, analytic_z, bshw_call, bshw_moments
from hybridlv.calibration import (
    CalibrationSettings,
    calibrate,
    corrective_terms,
    make_analytic_surface,
    price_calls_from_pz,
)
from hybridlv.models import (
    ConstantVol,
    HullWhiteParams,
    HybridModel,
    HyperbolicVol,
    forward_rate,
    zc_price,
)
from hybridlv.montecarlo import McConfig, conditional_z_estimate, simulate_paths
from hybridlv.pde import auto_grid, evolve, short_time_start

from .oracles import TridiagonalSystem, bshw_greeks_fd_check, integrate, solve_tridiagonal


def _report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _bshw(rho):
    rate = HullWhiteParams(a=0.5, sigma2=0.04, theta=0.02, r0=0.02)
    return HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.2), rho=rho)


def _hyperbolic(rho):
    rate = HullWhiteParams(a=0.5, sigma2=0.04, theta=0.0375, r0=0.0375)
    return HybridModel(s0=1.0, rate=rate, vol=HyperbolicVol(nu=0.2, beta=0.5), rho=rho)


SET1 = _bshw(0.4)
SET2 = _bshw(-0.4)
PRICE_STRIKES = np.round(np.arange(0.5, 1.5001, 0.05), 10)
FAN_TIMES = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]


def _every_step(model, grid):
    """The step times after the short-time start: a snapshot at each is the
    field, and so the mass, of every step of the march."""
    return [t for t in grid.t_nodes if t > short_time_start(model, grid).t]


def _l1_to_closed_form(model, field):
    g = field.grid
    s, r = np.meshgrid(g.s_nodes, g.r_nodes, indexing="ij")
    ana = analytic_pz(model, field.t, s, r)
    zc = zc_price(model.rate, field.t)
    return float(np.abs(field.values - ana).sum() * g.ds * g.dr / zc)


@pytest.fixture(scope="module")
def set1_run():
    grid = auto_grid(SET1, 1.0, ds=0.0156, dr=0.0026, dt=0.0099)
    started = time.perf_counter()
    result = evolve(SET1, grid, snapshot_times=_every_step(SET1, grid))
    elapsed = time.perf_counter() - started
    return grid, result, elapsed


@pytest.fixture(scope="module")
def set1_half_run():
    grid = auto_grid(SET1, 1.0, ds=0.0078, dr=0.0013, dt=0.00495)
    return grid, evolve(SET1, grid, snapshot_times=[1.0])


@pytest.fixture(scope="module")
def set2_run():
    grid = auto_grid(SET2, 2.0, ds=0.025, dr=0.0037, dt=0.019)
    result = evolve(SET2, grid, snapshot_times=_every_step(SET2, grid))
    return grid, result


@pytest.fixture(scope="module")
def set2_half_run():
    grid = auto_grid(SET2, 2.0, ds=0.0125, dr=0.00185, dt=0.0095)
    return grid, evolve(SET2, grid, snapshot_times=[2.0])


@pytest.fixture(scope="module")
def set1_fan_run():
    grid = replace(auto_grid(SET1, 2.0, ds=0.0156, dr=0.0026, dt=0.0099),
                   maturities=(2.0,), steps=(200,))
    return grid, evolve(SET1, grid, snapshot_times=FAN_TIMES)


@pytest.fixture(scope="module")
def set2_fan_run():
    grid = replace(auto_grid(SET2, 2.0, ds=0.025, dr=0.0037, dt=0.019),
                   maturities=(2.0,), steps=(104,))
    return grid, evolve(SET2, grid, snapshot_times=FAN_TIMES)


def test_criterion_01_set1_prices_match_closed_form(set1_run):
    grid, result, elapsed = set1_run
    field = result.at(1.0)
    prices = price_calls_from_pz(field, PRICE_STRIKES)
    closed = np.array([bshw_call(SET1, 1.0, k).price for k in PRICE_STRIKES])
    worst = float(np.max(np.abs(prices - closed)))
    _report(
        1,
        worst <= 5e-4 and elapsed < 60.0,
        f"max |pde - closed| = {worst:.2e} (bound 5e-4), solve time {elapsed:.1f}s (bound 60s)",
    )


def test_criterion_02_set2_prices_match_closed_form(set2_run):
    grid, result = set2_run
    field = result.at(2.0)
    prices = price_calls_from_pz(field, PRICE_STRIKES)
    closed = np.array([bshw_call(SET2, 2.0, k).price for k in PRICE_STRIKES])
    worst = float(np.max(np.abs(prices - closed)))
    _report(2, worst <= 5e-4, f"max |pde - closed| = {worst:.2e} (bound 5e-4)")


def test_criterion_03_field_fidelity_and_refinement(
    set1_run, set1_half_run, set2_run, set2_half_run
):
    l1_s1 = _l1_to_closed_form(SET1, set1_run[1].at(1.0))
    l1_s1_half = _l1_to_closed_form(SET1, set1_half_run[1].at(1.0))
    l1_s2 = _l1_to_closed_form(SET2, set2_run[1].at(2.0))
    l1_s2_half = _l1_to_closed_form(SET2, set2_half_run[1].at(2.0))
    gain1 = l1_s1 / l1_s1_half
    gain2 = l1_s2 / l1_s2_half
    ok = l1_s1 <= 2e-2 and l1_s2 <= 2e-2 and gain1 >= 1.5 and gain2 >= 1.5
    _report(
        3,
        ok,
        f"L1 = {l1_s1:.2e} / {l1_s2:.2e} (bound 2e-2); "
        f"refinement gains {gain1:.2f} / {gain2:.2f} (bound 1.5)",
    )


def test_criterion_04_mass_identity_and_drift(set1_run, set2_run):
    worst_post = 0.0
    worst_drift = 0.0
    for _, result in (set1_run[:2], set2_run):
        diag = result.diagnostics
        # one snapshot per step (see the fixtures)
        assert [field.t for field in result.snapshots] == diag.times
        post = np.array([field.mass() for field in result.snapshots])
        target = np.asarray(diag.target_mass)
        worst_post = max(worst_post, float(np.max(np.abs(post / target - 1.0))))
        worst_drift = max(worst_drift, diag.max_ratio_deviation())
    _report(
        4,
        worst_post <= 1e-12 and worst_drift <= 0.05,
        f"post-normalization mass off by {worst_post:.1e} (bound 1e-12); "
        f"raw drift {worst_drift:.2%} (bound 5%)",
    )


def test_criterion_05_corrective_term_signs(set1_fan_run, set2_fan_run):
    ok = True
    details = []
    for (grid, result), model, sign in ((set1_fan_run, SET1, +1), (set2_fan_run, SET2, -1)):
        extreme_at = []
        floor = 0.0
        for snap in result.snapshots:
            curve = corrective_terms(snap, forward_rate(model.rate, snap.t), PRICE_STRIKES)
            signed = sign * curve.adj
            floor = min(floor, float(signed.min()))
            extreme_at.append(float(curve.strikes[int(np.argmax(signed))]))
        ok_set = floor >= -1e-5 and all(0.85 <= k <= 1.15 for k in extreme_at)
        ok = ok and ok_set
        details.append(
            f"rho={model.rho:+.1f}: worst signed min {floor:.1e} (bound -1e-5), "
            f"extremum at K in [{min(extreme_at):.2f}, {max(extreme_at):.2f}]"
        )
    _report(5, ok, "; ".join(details))


def test_criterion_06_zero_strike_identity(set1_fan_run, set2_fan_run):
    worst = 0.0
    for (grid, result), model in ((set1_fan_run, SET1), (set2_fan_run, SET2)):
        for t in (0.5, 1.0, 2.0):
            field = result.at(t)
            f0t = forward_rate(model.rate, t)
            worst = max(worst, abs(integrate(field, lambda s, r: r - f0t)))
    _report(6, worst <= 5e-4, f"max |Adj(s_min)| = {worst:.2e} (bound 5e-4)")


def test_criterion_07_flat_vol_round_trip():
    maturities = [0.25, 0.5, 0.75, 1.0]
    strikes = np.round(np.arange(0.7, 1.3001, 0.05), 10)
    market = make_analytic_surface(SET1, maturities, strikes)
    started = time.perf_counter()
    result = calibrate(market, SET1, CalibrationSettings(ds=0.008, dr=0.0015, dt=0.005))
    elapsed = time.perf_counter() - started
    worst = float(np.max(np.abs(result.surface.sigma - 0.2)))
    _report(
        7,
        worst <= 5e-3 and elapsed < 600.0,
        f"max |sigma - 0.20| = {worst:.2e} (bound 5e-3) in {elapsed:.0f}s",
    )


def test_criterion_08_skew_model_prices_match_simulation():
    strikes = np.round(np.arange(0.1, 2.0001, 0.05), 10)
    ok = True
    details = []
    for rho, seed in ((-0.3, 20240916), (0.3, 20240917)):
        model = _hyperbolic(rho)
        grid = auto_grid(model, 1.0, ds=0.012, dr=0.002, dt=0.0099)
        field = evolve(model, grid, snapshot_times=[1.0]).at(1.0)
        pde_prices = price_calls_from_pz(field, strikes)
        cfg = McConfig(n_paths=100000, dt_mc=1.0 / 300.0, seed=seed, antithetic=True)
        payoffs = [
            (lambda s, r, acc, k=float(k): np.exp(-acc) * np.maximum(s - k, 0.0))
            for k in strikes
        ]
        estimates = simulate_paths(model, 1.0, cfg, payoffs)
        gaps = np.array([abs(p - e.mean) for p, e in zip(pde_prices, estimates)])
        bounds = np.array([max(5e-4, 3.0 * e.standard_error) for e in estimates])
        ok_run = bool(np.all(gaps <= bounds))
        ok = ok and ok_run
        details.append(
            f"rho={rho:+.1f}: worst gap/bound = {float(np.max(gaps / bounds)):.2f} "
            f"(max gap {float(gaps.max()):.2e})"
        )
    _report(8, ok, "; ".join(details))


def test_criterion_09_sensitivities_match_differences():
    rng = np.random.default_rng(909)
    worst_fd = 0.0
    for _ in range(50):
        t = float(rng.uniform(0.1, 5.0))
        k = float(rng.uniform(0.5, 2.0))
        worst_fd = max(worst_fd, bshw_greeks_fd_check(SET1, t, k))
    worst_identity = 0.0
    npdf = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)  # noqa: E731
    for _ in range(100):
        k = float(rng.uniform(0.3, 3.0))
        t = float(rng.uniform(0.1, 5.0))
        pg = bshw_call(SET1, t, k)
        lhs = SET1.s0 * npdf(pg.d1)
        rhs = k * zc_price(SET1.rate, t) * npdf(pg.d2)
        worst_identity = max(worst_identity, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    _report(
        9,
        worst_fd <= 1e-4 and worst_identity <= 1e-12,
        f"max FD deviation {worst_fd:.2e} (bound 1e-4); "
        f"density identity off by {worst_identity:.1e} (bound 1e-12)",
    )


def test_criterion_10_oracle_level_checks():
    # tridiagonal residuals on random diagonally dominant systems
    rng = np.random.default_rng(1010)
    worst_resid = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 80))
        a = rng.uniform(-1, 1, n)
        c = rng.uniform(-1, 1, n)
        a[0] = c[-1] = 0.0
        b = np.abs(a) + np.abs(c) + 1.0 + rng.uniform(0, 2, n)
        f = rng.uniform(-5, 5, n)
        x = solve_tridiagonal(TridiagonalSystem(a, b, c, f))
        r = b * x - f
        r[1:] += a[1:] * x[:-1]
        r[:-1] += c[:-1] * x[1:]
        worst_resid = max(worst_resid, float(np.max(np.abs(r)) / (1.0 + np.max(np.abs(f)))))
    resid_ok = worst_resid <= 1e-10

    # simulation identities: discounted spot is a martingale, discount mean
    # matches the bond price (both correlation setups)
    mc_ok = True
    mc_details = []
    for model, t, seed in ((SET1, 1.0, 111), (SET2, 2.0, 222)):
        cfg = McConfig(n_paths=60000, dt_mc=1.0 / 300.0, seed=seed)
        mart, disc = simulate_paths(
            model, t, cfg,
            [lambda s, r, acc: np.exp(-acc) * s, lambda s, r, acc: np.exp(-acc)],
        )
        dev_m = abs(mart.mean - model.s0) / mart.standard_error
        dev_d = abs(disc.mean - zc_price(model.rate, t)) / disc.standard_error
        mc_ok = mc_ok and dev_m <= 4.0 and dev_d <= 4.0
        mc_details.append(f"martingale {dev_m:.1f}se, discount {dev_d:.1f}se")

    # discount projection vs kernel regression at three bulk centers per
    # setup, placed on the conditional-mean ridge of the terminal density
    # where the regression's smoothing bias is within its noise floor
    z_ok = True
    z_details = []
    for model, t, seed in ((SET1, 1.0, 333), (SET2, 2.0, 444)):
        mom = bshw_moments(model, t)
        slope = mom.sigma_yr[0, 1] / mom.sigma_yr[0, 0]
        centers = [
            (s, mom.mu_r + slope * (math.log(s) - mom.mu_y)) for s in (0.9, 1.0, 1.15)
        ]
        cfg = McConfig(n_paths=250000, dt_mc=1.0 / 300.0, seed=seed)
        estimates = conditional_z_estimate(model, t, cfg, centers, bandwidth=0.02)
        devs = [
            abs(e.value - analytic_z(model, t, e.center[0], e.center[1])) / e.standard_error
            for e in estimates
        ]
        z_ok = z_ok and all(d <= 3.0 for d in devs) and all(e.reliable for e in estimates)
        z_details.append("/".join(f"{d:.1f}se" for d in devs))

    _report(
        10,
        resid_ok and mc_ok and z_ok,
        f"tridiagonal residual {worst_resid:.1e} (bound 1e-10); "
        + "; ".join(mc_details)
        + "; projection checks " + " | ".join(z_details),
    )
