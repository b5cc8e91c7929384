import math
from dataclasses import replace

import numpy as np
import pytest

from hybridlv.analytic import analytic_pz, bshw_call
from hybridlv.calibration import (
    CalibrationSettings,
    CallSurface,
    CorrectiveTermCurve,
    LocalVolSurface,
    calibrate,
    corrective_terms,
    dupire_vol,
    local_vol_stochastic_rates,
    make_analytic_surface,
    price_calls_from_pz,
)
from hybridlv.calibration import _aligned_step_count, _strike_integrals
from hybridlv.errors import (
    ButterflyDegenerateError,
    CalibrationError,
    InvalidInputError,
    NegativeVarianceError,
)
from hybridlv.models import (
    ConstantVol,
    HullWhiteParams,
    HybridModel,
    SurfaceVol,
    forward_rate,
    zc_price,
)
from hybridlv.pde import Field2D, auto_grid, evolve

from .oracles import (
    aligned_step_count_by_search,
    corrective_term_closed_form,
    restart_bootstrap,
)


def _count_operators(monkeypatch):
    """Record the time level of every step operator the solver builds."""
    import hybridlv.pde as pde_mod

    levels = []

    class Counted(pde_mod._StepOperator):
        def __init__(self, coeffs, grid, dt):
            levels.append(coeffs.t)
            super().__init__(coeffs, grid, dt)

    monkeypatch.setattr(pde_mod, "_StepOperator", Counted)
    return levels


def _analytic_field(model, maturity, ds=0.0156, dr=0.0026):
    grid = auto_grid(model, maturity, ds=ds, dr=dr, dt=0.01)
    s, r = np.meshgrid(grid.s_nodes, grid.r_nodes, indexing="ij")
    return Field2D(grid, analytic_pz(model, maturity, s, r), t=maturity)


class TestCallSurfaceValidation:
    def test_analytic_surface_passes(self, set1_model):
        surf = make_analytic_surface(set1_model, [0.5, 1.0], np.linspace(0.7, 1.3, 13))
        assert surf.provider == "analytic"

    def test_rejects_increasing_prices(self):
        with pytest.raises(InvalidInputError):
            CallSurface(
                np.array([1.0]), np.array([0.9, 1.0, 1.1]),
                np.array([[0.1, 0.2, 0.3]]),
            )

    def test_rejects_concave_prices(self):
        with pytest.raises(InvalidInputError):
            CallSurface(
                np.array([1.0]), np.array([0.9, 1.0, 1.1]),
                np.array([[0.30, 0.20, 0.05]]),
            )


class TestMarginalIntegrals:
    def test_every_strike_matches_quadrature_of_the_marginal(self, set1_model, rng):
        from scipy.integrate import quad

        field = _analytic_field(set1_model, 1.0)
        f0t = forward_rate(set1_model.rate, 1.0)
        strikes = np.sort(rng.uniform(0.4, 2.2, 24))
        curve = corrective_terms(field, f0t, strikes)
        g = field.grid
        s_full = np.concatenate([[g.s_min], g.s_nodes, [g.s_max]])
        weighted = (field.values * (g.r_nodes - f0t)[None, :]).sum(axis=1) * g.dr
        lin = lambda x: np.interp(x, s_full, np.concatenate([[0.0], weighted, [0.0]]))  # noqa: E731
        for k, adj in zip(strikes, curve.adj):
            cells = s_full[s_full > k]
            want = quad(lin, k, g.s_max, points=cells[:-1], limit=len(cells) + 50)[0]
            assert adj == pytest.approx(want, abs=1e-12)

    def test_partial_cells_match_quadrature(self, rng):
        from scipy.integrate import quad

        nodes = np.linspace(0.0, 1.0, 12)
        vals = rng.uniform(0.0, 2.0, 12)
        vals[0] = vals[-1] = 0.0
        lin = lambda x: np.interp(x, nodes, vals)  # noqa: E731
        strikes = np.array([0.037, 0.5, 0.777])
        m0, m1 = _strike_integrals(nodes, vals, strikes)
        for k, got0, got1 in zip(strikes, m0, m1):
            want0 = quad(lin, k, 1.0, limit=400)[0]
            assert got0 == pytest.approx(want0, abs=1e-9)
            want1 = quad(lambda x: x * lin(x), k, 1.0, limit=400)[0]
            assert got1 == pytest.approx(want1, abs=1e-9)
            want_call = quad(lambda x: (x - k) * lin(x), k, 1.0, limit=400)[0]
            assert got1 - k * got0 == pytest.approx(want_call, abs=1e-9)

    @pytest.mark.parametrize("strikes", [np.array([]), np.array([[0.9, 1.1]])])
    def test_price_rejects_empty_or_2d_strikes(self, set1_model, strikes):
        field = _analytic_field(set1_model, 1.0)
        with pytest.raises(InvalidInputError):
            price_calls_from_pz(field, strikes)


class TestCorrectiveTerms:
    def test_positive_correlation_sign_and_peak(self, set1_model):
        field = _analytic_field(set1_model, 1.0)
        strikes = np.arange(0.5, 1.51, 0.05)
        curve = corrective_terms(field, forward_rate(set1_model.rate, 1.0), strikes)
        assert np.all(curve.adj >= -1e-5)
        peak = curve.strikes[int(np.argmax(curve.adj))]
        assert 0.85 <= peak <= 1.15

    def test_negative_correlation_sign_and_trough(self, set2_model):
        field = _analytic_field(set2_model, 2.0, ds=0.025, dr=0.0037)
        strikes = np.arange(0.5, 1.51, 0.05)
        curve = corrective_terms(field, forward_rate(set2_model.rate, 2.0), strikes)
        assert np.all(curve.adj <= 1e-5)
        trough = curve.strikes[int(np.argmin(curve.adj))]
        assert 0.85 <= trough <= 1.15

    def test_matches_tilted_gaussian_closed_form(self, set1_model):
        field = _analytic_field(set1_model, 1.0, ds=0.008, dr=0.0015)
        strikes = np.array([0.7, 0.9, 1.0, 1.1, 1.4])
        curve = corrective_terms(field, forward_rate(set1_model.rate, 1.0), strikes)
        for k, adj in zip(strikes, curve.adj):
            oracle = corrective_term_closed_form(1.0, 0.5, 0.04, 0.02, 0.02, 0.2, 0.4, 1.0, k)
            assert adj == pytest.approx(oracle, abs=3e-6)

    def test_zero_correlation_residual_from_integrated_rate_coupling(self, set1_model):
        # With independent drivers the adjustment does not vanish: the log
        # spot still carries the integrated rate, leaving a positive hump of
        # order 1e-3 (closed-form oracle agrees with the field integral).
        m = replace(set1_model, rho=0.0)
        field = _analytic_field(m, 1.0, ds=0.008, dr=0.0015)
        strikes = np.arange(0.5, 1.51, 0.1)
        curve = corrective_terms(field, forward_rate(m.rate, 1.0), strikes)
        assert np.max(np.abs(curve.adj)) < 1.2e-3
        for k, adj in zip(strikes, curve.adj):
            oracle = corrective_term_closed_form(1.0, 0.5, 0.04, 0.02, 0.02, 0.2, 0.0, 1.0, k)
            assert adj == pytest.approx(oracle, abs=3e-6)

    def test_vanishes_at_the_upper_edge(self, set1_model):
        field = _analytic_field(set1_model, 1.0)
        hi = field.grid.s_max - 2 * field.grid.ds
        curve = corrective_terms(field, forward_rate(set1_model.rate, 1.0), np.array([1.0, hi]))
        assert abs(curve.adj[-1]) < 1e-7

    def test_strikes_outside_grid_rejected(self, set1_model):
        field = _analytic_field(set1_model, 1.0)
        with pytest.raises(InvalidInputError):
            corrective_terms(field, 0.02, np.array([field.grid.s_max + 1.0]))


class TestPriceFromField:
    def test_matches_closed_form_on_analytic_field(self, set1_model):
        field = _analytic_field(set1_model, 1.0)
        strikes = np.arange(0.5, 1.51, 0.05)
        prices = price_calls_from_pz(field, strikes)
        for k, p in zip(strikes, prices):
            assert p == pytest.approx(bshw_call(set1_model, 1.0, k).price, abs=3e-4)

    def test_decreasing_and_convex(self, set1_model):
        field = _analytic_field(set1_model, 1.0)
        strikes = np.arange(0.5, 1.51, 0.05)
        prices = price_calls_from_pz(field, strikes)
        assert np.all(np.diff(prices) < 0)
        assert np.all(np.diff(prices, n=2) >= -1e-8)

    def test_low_strike_limit_is_forward_parity(self, set1_model):
        field = _analytic_field(set1_model, 1.0)
        k = field.grid.s_min + field.grid.ds
        price = price_calls_from_pz(field, np.array([k]))[0]
        expect = set1_model.s0 - k * zc_price(set1_model.rate, 1.0)
        assert price == pytest.approx(expect, rel=2e-3)


class TestDupire:
    def test_flat_deterministic_model_recovers_variance(self):
        rate = HullWhiteParams(a=0.5, sigma2=0.0, theta=0.02, r0=0.02)
        m = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.2), rho=0.0)
        surf = make_analytic_surface(m, [0.5, 1.0], np.linspace(0.5, 1.5, 21))
        fwd = lambda t: forward_rate(rate, t)  # noqa: E731
        for k in (0.5, 0.8, 1.0, 1.3, 1.5):
            assert dupire_vol(surf, fwd, 1.0, k) == pytest.approx(0.04, abs=1e-10)

    def test_stochastic_rates_consistency_at_the_money(self, set1_model):
        # Dupire value minus the adjustment recovers the generating flat
        # variance once the corrective term is read off the analytic field.
        surf = make_analytic_surface(set1_model, [1.0], np.linspace(0.5, 1.5, 21))
        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        field = _analytic_field(set1_model, 1.0, ds=0.008, dr=0.0015)
        curve = corrective_terms(field, fwd(1.0), np.linspace(0.5, 1.5, 21))
        var = local_vol_stochastic_rates(surf, fwd, curve, 1.0, 1.0)
        assert math.sqrt(var) == pytest.approx(0.2, abs=1e-3)

    def test_positive_adjustment_lowers_local_variance(self, set1_model):
        surf = make_analytic_surface(set1_model, [1.0], np.linspace(0.5, 1.5, 21))
        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        field = _analytic_field(set1_model, 1.0)
        curve = corrective_terms(field, fwd(1.0), np.linspace(0.5, 1.5, 21))
        dup = dupire_vol(surf, fwd, 1.0, 1.0)
        var = local_vol_stochastic_rates(surf, fwd, curve, 1.0, 1.0)
        assert var < dup

    def test_zero_rate_vol_equals_dupire_exactly(self, set1_model):
        surf = make_analytic_surface(set1_model, [1.0], np.linspace(0.7, 1.3, 13))
        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        zeros = CorrectiveTermCurve.zeros(1.0, np.linspace(0.7, 1.3, 13))
        dup = dupire_vol(surf, fwd, 1.0, 1.0)
        assert local_vol_stochastic_rates(surf, fwd, zeros, 1.0, 1.0) == dup

    def test_one_surface_evaluation_per_node(self, set1_model, monkeypatch):
        import hybridlv.calibration as cal_mod

        surf = make_analytic_surface(set1_model, [1.0], np.linspace(0.7, 1.3, 13))
        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        curve = CorrectiveTermCurve(1.0, np.array([0.7, 1.3]), np.array([1e-3, 2e-3]))
        calls = []

        def counted(*args):
            calls.append(args)
            return bshw_call(*args)

        monkeypatch.setattr(cal_mod, "bshw_call", counted)
        var = local_vol_stochastic_rates(surf, fwd, curve, 1.0, 0.9)
        assert len(calls) == 1
        c_kk = bshw_call(set1_model, 1.0, 0.9).c_kk
        assert var == dupire_vol(surf, fwd, 1.0, 0.9) - curve.interp(0.9) / (0.5 * 0.9 * c_kk)

    def test_degenerate_butterfly_raises(self, set1_model):
        # far wing on a coarse external lattice: convexity underflows
        ks = np.array([2.2, 2.5, 2.8])
        prices = np.array([[bshw_call(set1_model, 0.1, k).price for k in ks],
                           [bshw_call(set1_model, 0.2, k).price for k in ks]])
        prices[prices < 1e-14] = 0.0
        surf = CallSurface(np.array([0.1, 0.2]), ks, prices, provider="external")
        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        with pytest.raises(ButterflyDegenerateError):
            dupire_vol(surf, fwd, 0.2, 2.5)

    def test_negative_variance_carries_diagnostics(self, set1_model):
        surf = make_analytic_surface(set1_model, [1.0], np.linspace(0.7, 1.3, 13))
        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        huge = CorrectiveTermCurve(1.0, np.array([0.7, 1.3]), np.array([1.0, 1.0]))
        with pytest.raises(NegativeVarianceError) as err:
            local_vol_stochastic_rates(surf, fwd, huge, 1.0, 1.0)
        assert err.value.maturity == 1.0
        assert err.value.strike == 1.0
        assert err.value.adjustment == 1.0

    def test_lattice_derivatives_recover_flat_vol(self):
        rate = HullWhiteParams(a=0.5, sigma2=0.0, theta=0.02, r0=0.02)
        m = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.2), rho=0.0)
        mats = np.arange(0.2, 1.61, 0.1)
        ks = np.arange(0.6, 1.41, 0.02)
        prices = np.array([[bshw_call(m, t, k).price for k in ks] for t in mats])
        surf = CallSurface(mats, ks, prices, provider="external")
        fwd = lambda t: forward_rate(rate, t)  # noqa: E731
        for k in (0.8, 1.0, 1.2):
            var = dupire_vol(surf, fwd, 1.0, k)
            assert math.sqrt(var) == pytest.approx(0.2, abs=2e-3)


class TestLocalVolSurface:
    def test_bilinear_interpolation_and_flat_extrapolation(self):
        surf = LocalVolSurface(
            np.array([0.5, 1.0]), np.array([0.8, 1.2]),
            np.array([[0.2, 0.3], [0.4, 0.5]]),
        )
        assert surf.vol(0.75, 1.0) == pytest.approx(0.35)
        assert surf.vol(0.25, 0.5) == pytest.approx(0.2)  # flat in both axes
        assert surf.vol(2.0, 2.0) == pytest.approx(0.5)

    def test_rejects_negative_nodes(self):
        with pytest.raises(InvalidInputError):
            LocalVolSurface(np.array([1.0]), np.array([1.0, 1.1]), np.array([[0.2, -0.1]]))

    def test_next_change(self):
        ks = np.array([0.8, 1.2])
        one = LocalVolSurface(np.array([0.5]), ks, np.array([[0.2, 0.3]]))
        assert one.next_change(0.0) == math.inf
        assert one.next_change(0.7) == math.inf
        two = LocalVolSurface(np.array([0.5, 1.0]), ks, np.array([[0.2, 0.3], [0.4, 0.5]]))
        assert two.next_change(0.25) == 0.25
        assert two.next_change(0.75) == 0.75
        assert two.next_change(1.0) == math.inf
        assert two.next_change(2.0) == math.inf

    def test_one_maturity_march_builds_one_operator_and_matches_rebuilds(
        self, set1_model, monkeypatch
    ):
        from types import SimpleNamespace

        surface = LocalVolSurface(
            np.array([0.5]), np.array([0.8, 1.0, 1.2]), np.array([[0.25, 0.2, 0.18]])
        )
        # the same surface without ``next_change``: rebuilt at every step
        rebuilt = SimpleNamespace(strikes=surface.strikes, vol=surface.vol)
        grid = auto_grid(set1_model, 0.5, ds=0.02, dr=0.003, dt=0.025)
        levels = _count_operators(monkeypatch)
        once = evolve(replace(set1_model, vol=surface.as_vol_function()), grid)
        assert len(levels) == 1
        every = evolve(replace(set1_model, vol=SurfaceVol(rebuilt)), grid)
        assert len(levels) > 2
        assert np.array_equal(once.snapshots[-1].values, every.snapshots[-1].values)


class TestCalibrate:
    def test_degenerate_single_node_recovers_flat_vol(self):
        rate = HullWhiteParams(a=0.5, sigma2=0.0, theta=0.02, r0=0.02)
        m = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.2), rho=0.0)
        market = make_analytic_surface(m, [1.0], np.array([1.0]))
        settings = CalibrationSettings(ds=0.02, dr=0.003, dt=0.02)
        result = calibrate(market, m, settings)
        assert result.surface.sigma[0, 0] == pytest.approx(0.2, abs=1e-10)

    def test_flat_round_trip_two_maturities(self, set1_model):
        market = make_analytic_surface(
            set1_model, [0.5, 1.0], np.arange(0.8, 1.2001, 0.05)
        )
        settings = CalibrationSettings(ds=0.015, dr=0.0025, dt=0.01)
        result = calibrate(market, set1_model, settings)
        assert np.max(np.abs(result.surface.sigma - 0.2)) < 5e-3
        assert len(result.report.entries) == 2

    @pytest.mark.parametrize(
        "slice_iterations, use_corrective", [(1, True), (2, True), (1, False)]
    )
    def test_checkpointed_marches_match_restart_bit_for_bit(
        self, set1_model, slice_iterations, use_corrective
    ):
        market = make_analytic_surface(
            set1_model, [0.25, 0.5, 0.75], np.arange(0.8, 1.2001, 0.1)
        )
        settings = CalibrationSettings(
            ds=0.02, dr=0.003, dt=0.025,
            slice_iterations=slice_iterations, use_corrective=use_corrective,
        )
        result = calibrate(market, set1_model, settings)
        sigma, entries = restart_bootstrap(market, set1_model, settings)
        assert np.array_equal(result.surface.sigma, sigma)
        got = [(e.mass_drift, e.negative_fraction, e.iterations) for e in result.report.entries]
        assert got == entries
        assert [e.iterations for e in result.report.entries] == [slice_iterations] * 3

    @pytest.mark.parametrize("mats, slice_iterations", [
        ([0.25, 0.5, 0.75], 1),
        ([0.25, 0.5, 0.75, 1.0], 1),
        ([0.25, 0.5, 0.75], 2),
    ])
    def test_one_operator_per_march(self, set1_model, monkeypatch, mats, slice_iterations):
        market = make_analytic_surface(set1_model, mats, np.arange(0.8, 1.2001, 0.1))
        settings = CalibrationSettings(
            ds=0.02, dr=0.003, dt=0.025, slice_iterations=slice_iterations,
        )
        levels = _count_operators(monkeypatch)
        calibrate(market, set1_model, settings)
        # each maturity's slice iterations, plus a checkpoint march for
        # every maturity but the last, each built where its march starts
        n = len(mats)
        assert len(levels) == n * slice_iterations + n - 1
        starts = [levels[0]] * (slice_iterations + 1)
        for i in range(1, n):
            starts += [mats[i - 1]] * (slice_iterations + (i < n - 1))
        assert levels == pytest.approx(starts, abs=1e-12)

    def test_dropping_the_adjustment_skews_the_wings(self, set1_model):
        # ablation: a stochastic-rates market calibrated with the corrective
        # term disabled reverts to plain Dupire, visibly off the flat level
        market = make_analytic_surface(set1_model, [0.25], np.arange(0.7, 1.3001, 0.05))
        plain = CalibrationSettings(ds=0.015, dr=0.0025, dt=0.0125, use_corrective=False)
        result = calibrate(market, set1_model, plain)
        wings = result.surface.sigma[0, [0, -1]]
        assert np.max(np.abs(wings - 0.2)) > 2e-3

    def test_calibrated_surface_reprices_through_the_solver(self, set1_model):
        # close the loop: wrap the recovered surface as the model vol and
        # re-solve; prices should sit on the market within grid accuracy
        market = make_analytic_surface(set1_model, [0.5, 1.0], np.arange(0.8, 1.2001, 0.1))
        settings = CalibrationSettings(ds=0.015, dr=0.0025, dt=0.01)
        surface = calibrate(market, set1_model, settings).surface
        model = replace(set1_model, vol=surface.as_vol_function())
        grid = auto_grid(model, 1.0, ds=0.015, dr=0.0025, dt=0.01)
        field = evolve(model, grid, snapshot_times=[1.0]).snapshots[-1]
        prices = price_calls_from_pz(field, market.strikes)
        assert np.max(np.abs(prices - market.prices[1])) < 8e-4

    def test_negative_variance_raises_with_report(self, set1_model):
        # a market convex enough to price but inconsistent with the rate
        # dynamics at the wing: shrink the maturity spacing of an otherwise
        # valid surface so the time slope goes slightly negative
        mats = [0.5]
        ks = np.arange(0.9, 1.1001, 0.05)
        prices = np.array([[bshw_call(set1_model, 0.5, k).price for k in ks]])
        prices[0, 2] -= 2.1e-4  # keep convexity, break the calendar
        market = CallSurface(np.asarray(mats), ks, prices, provider="external")
        with pytest.raises((CalibrationError, InvalidInputError)):
            calibrate(market, set1_model, CalibrationSettings(ds=0.02, dr=0.003, dt=0.02))


class TestStepAlignment:
    @pytest.mark.parametrize("mats, dt", [
        ([1.0], 0.005),
        ([0.25, 0.5, 0.75, 1.0], 0.005),
        ([0.5, 1.0], 0.03),
        ([0.1, 0.3], 0.007),
        ([1.0 / 3.0, 1.0], 0.01),
        ([0.2, 0.7, 1.3], 0.011),
        ([0.37, 1.11], 0.0125),
    ])
    def test_matches_the_search(self, mats, dt):
        want = aligned_step_count_by_search(mats, dt)
        assert want is not None
        assert _aligned_step_count(mats, dt) == want

    def test_no_alignment_raises(self, set1_model):
        mats = [0.1234567891, 1.0]
        assert aligned_step_count_by_search(mats, 0.01) is None
        with pytest.raises(CalibrationError):
            _aligned_step_count(mats, 0.01)
        market = make_analytic_surface(set1_model, mats, np.arange(0.9, 1.1001, 0.05))
        with pytest.raises(CalibrationError):
            calibrate(market, set1_model, CalibrationSettings(ds=0.02, dr=0.003, dt=0.01))
