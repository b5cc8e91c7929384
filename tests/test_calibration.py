import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridlv.analytic import analytic_pz, bshw_call
from hybridlv.calibration import (
    CalibrationSettings,
    CallSurface,
    CorrectiveTermCurve,
    calibrate,
    corrective_terms,
    dupire_vol,
    local_vol_stochastic_rates,
    make_analytic_surface,
    price_calls_from_pz,
)
from hybridlv.calibration import _sensitivities, _strike_integrals
from hybridlv.errors import CalibrationError, InvalidInputError
from hybridlv.models import (
    ConstantVol,
    HullWhiteParams,
    HybridModel,
    SurfaceVol,
    forward_rate,
    zc_price,
)
from hybridlv.montecarlo import McConfig
from hybridlv.pde import Field2D, auto_grid, evolve

from .oracles import (
    RebuiltEveryStep,
    corrective_term_closed_form,
    lattice_sensitivities,
    paired_call_difference,
    restart_bootstrap,
)

UNEVEN_STRIKES = np.array([0.7, 0.8, 0.85, 0.9, 1.0, 1.05, 1.2, 1.3])


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
        assert surf.model is set1_model

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


class TestCallSurface:
    def test_exactly_convex_prices_on_uneven_strikes_pass(self, set1_model):
        # their plain second differences go negative where the spacing grows
        prices = np.array([[bshw_call(set1_model, 1.0, k).price for k in UNEVEN_STRIKES]])
        assert np.min(np.diff(prices, n=2, axis=1)) < -1e-10
        CallSurface(np.array([1.0]), UNEVEN_STRIKES, prices)

    def test_concave_kink_on_uneven_strikes_fails(self):
        prices = 1.5 - UNEVEN_STRIKES  # linear: convex, but only just
        CallSurface(np.array([1.0]), UNEVEN_STRIKES, prices[None, :])
        prices[3] += 1e-6
        with pytest.raises(InvalidInputError, match="convex"):
            CallSurface(np.array([1.0]), UNEVEN_STRIKES, prices[None, :])

    @pytest.mark.parametrize("axis, index, value", [
        ("prices", 2, math.nan), ("prices", 0, math.inf),
        ("maturities", 1, math.inf), ("strikes", 0, math.nan),
        ("maturities", 0, 0.0), ("strikes", 0, -0.1),
    ])
    def test_rejects_non_finite_or_non_positive_input(self, axis, index, value):
        nodes = {
            "maturities": np.array([0.5, 1.0]),
            "strikes": np.array([0.9, 1.0, 1.1]),
            "prices": np.array([[0.12, 0.05, 0.01], [0.15, 0.08, 0.03]]),
        }
        nodes[axis].flat[index] = value
        with pytest.raises(InvalidInputError, match="finite|positive"):
            CallSurface(**nodes)


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
        curve = corrective_terms(field, fwd(1.0), surf.strikes)
        _, local = local_vol_stochastic_rates(surf, fwd, curve.adj, 1.0)
        assert math.sqrt(local[10]) == pytest.approx(0.2, abs=1e-3)  # K = 1

    def test_positive_adjustment_lowers_local_variance(self, set1_model):
        surf = make_analytic_surface(set1_model, [1.0], np.linspace(0.5, 1.5, 21))
        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        field = _analytic_field(set1_model, 1.0)
        curve = corrective_terms(field, fwd(1.0), surf.strikes)
        dup, local = local_vol_stochastic_rates(surf, fwd, curve.adj, 1.0)
        assert dup[10] == dupire_vol(surf, fwd, 1.0, 1.0)
        assert local[10] < dup[10]

    def test_zero_rate_vol_equals_dupire_exactly(self, set1_model):
        surf = make_analytic_surface(set1_model, [1.0], np.linspace(0.7, 1.3, 13))
        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        dup, local = local_vol_stochastic_rates(surf, fwd, 0.0, 1.0)
        assert np.array_equal(local, dup)
        assert dup[6] == dupire_vol(surf, fwd, 1.0, 1.0)

    def test_one_surface_evaluation_per_node(self, set1_model, monkeypatch):
        import hybridlv.calibration as cal_mod

        ks = np.linspace(0.7, 1.3, 13)
        surf = make_analytic_surface(set1_model, [0.5, 1.0], ks)
        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        adj = np.linspace(1e-3, 2e-3, 13)
        calls = []

        def counted(*args):
            calls.append(args)
            return bshw_call(*args)

        monkeypatch.setattr(cal_mod, "bshw_call", counted)
        dup, local = local_vol_stochastic_rates(surf, fwd, adj, 1.0)
        assert calls == [(set1_model, 1.0, k) for k in ks]
        c_kk = np.array([bshw_call(set1_model, 1.0, k).c_kk for k in ks])
        assert np.array_equal(local, dup - adj / (0.5 * ks * c_kk))

    def test_dupire_vol_needs_lattice_nodes(self, set1_model):
        surf = make_analytic_surface(set1_model, [0.5, 1.0], np.linspace(0.7, 1.3, 13))
        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        with pytest.raises(InvalidInputError, match="K=0.92"):
            dupire_vol(surf, fwd, 1.0, 0.92)
        with pytest.raises(InvalidInputError, match="T=0.75"):
            dupire_vol(surf, fwd, 0.75, 1.0)

    def test_lattice_row_matches_the_scalar_oracle(self, set1_model):
        mats = np.array([0.25, 0.4, 0.5, 0.8, 1.0])
        prices = np.array([[bshw_call(set1_model, t, k).price for k in UNEVEN_STRIKES]
                           for t in mats])
        surf = CallSurface(mats, UNEVEN_STRIKES, prices)
        for i, t in enumerate(mats):
            want = np.array([lattice_sensitivities(surf, t, k) for k in UNEVEN_STRIKES]).T
            np.testing.assert_allclose(_sensitivities(surf, i), want, rtol=1e-12, atol=0)

    def test_three_point_curvature_is_exact_for_a_parabola(self):
        prices = np.array([(2.0 - UNEVEN_STRIKES) ** 2 * scale for scale in (1.0, 1.5)])
        surf = CallSurface(np.array([0.5, 1.0]), UNEVEN_STRIKES, prices)
        for i, c_kk in enumerate((2.0, 3.0)):
            np.testing.assert_allclose(_sensitivities(surf, i)[2], c_kk, rtol=1e-12)

    def test_closed_form_row_is_bshw_call(self, set1_model):
        surf = make_analytic_surface(set1_model, [0.5, 1.0], UNEVEN_STRIKES)
        greeks = [bshw_call(set1_model, 0.5, k) for k in UNEVEN_STRIKES]
        c_t, c_k, c_kk = _sensitivities(surf, 0)
        assert np.array_equal(c_t, [g.c_t for g in greeks])
        assert np.array_equal(c_k, [g.c_k for g in greeks])
        assert np.array_equal(c_kk, [g.c_kk for g in greeks])

    def test_degenerate_butterfly_raises(self, set1_model):
        # far wing on a coarse external lattice: convexity underflows
        ks = np.array([2.2, 2.5, 2.8])
        prices = np.array([[bshw_call(set1_model, 0.1, k).price for k in ks],
                           [bshw_call(set1_model, 0.2, k).price for k in ks]])
        prices[prices < 1e-14] = 0.0
        surf = CallSurface(np.array([0.1, 0.2]), ks, prices)
        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        assert np.isnan(local_vol_stochastic_rates(surf, fwd, 0.0, 0.2)[0][1])
        with pytest.raises(CalibrationError) as err:
            dupire_vol(surf, fwd, 0.2, 2.5)
        assert str(err.value) == "degenerate butterfly at (T=0.2, K=2.5)"
        assert err.value.report is None

    def test_negative_variance_names_the_node_and_its_value(self, set1_model):
        # a lattice market (no model) with a calendar break at (T=0.5, K=1)
        mats = [0.5, 0.51, 1.0]
        ks = np.arange(0.8, 1.2001, 0.05)
        prices = np.array([[bshw_call(set1_model, t, k).price for k in ks] for t in mats])
        prices[0, 4] += 1e-3
        surf = CallSurface(np.asarray(mats), ks, prices)
        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        dup, local = local_vol_stochastic_rates(surf, fwd, 1.0, 0.5)
        assert dup[4] < 0 and np.all(local < 0)
        with pytest.raises(CalibrationError) as err:
            dupire_vol(surf, fwd, 0.5, ks[4])
        assert str(err.value) == f"negative Dupire variance {dup[4]:g} at (T=0.5, K=1)"
        assert err.value.report is None

    def test_lattice_derivatives_recover_flat_vol(self):
        rate = HullWhiteParams(a=0.5, sigma2=0.0, theta=0.02, r0=0.02)
        m = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.2), rho=0.0)
        mats = np.arange(0.2, 1.61, 0.1)
        ks = np.arange(0.6, 1.41, 0.02)
        prices = np.array([[bshw_call(m, t, k).price for k in ks] for t in mats])
        surf = CallSurface(mats, ks, prices)
        fwd = lambda t: forward_rate(rate, t)  # noqa: E731
        for k in (0.8, 1.0, 1.2):
            var = dupire_vol(surf, fwd, 1.0, k)
            assert math.sqrt(var) == pytest.approx(0.2, abs=2e-3)


class TestSurfaceVol:
    def test_slice_per_interval_linear_in_strike_flat_outside(self):
        surf = SurfaceVol(
            np.array([0.5, 1.0]), np.array([0.8, 1.2]),
            np.array([[0.2, 0.3], [0.4, 0.5]]),
        )
        assert surf.value(0.75, 1.0) == pytest.approx(0.45)  # slice 2 on [0.5, 1)
        assert surf.value(0.25, 1.0) == pytest.approx(0.25)
        assert surf.value(0.25, 0.5) == pytest.approx(0.2)  # flat in both axes
        assert surf.value(2.0, 2.0) == pytest.approx(0.5)

    def test_rejects_negative_nodes(self):
        with pytest.raises(InvalidInputError):
            SurfaceVol(np.array([1.0]), np.array([1.0, 1.1]), np.array([[0.2, -0.1]]))

    @pytest.mark.parametrize("maturities, strikes", [
        ([1.0, 0.5], [0.8, 1.2]),  # decreasing maturities
        ([0.5, 0.5], [0.8, 1.2]),  # repeated maturity
        ([math.nan, 1.0], [0.8, 1.2]),
        ([0.5, math.inf], [0.8, 1.2]),
        ([0.0, 1.0], [0.8, 1.2]),
        ([-0.5, 1.0], [0.8, 1.2]),
        ([[0.5, 1.0]], [0.8, 1.2]),  # not 1-d
        ([0.5, 1.0], [1.2, 0.8]),  # decreasing strikes
        ([0.5, 1.0], [0.8, math.nan]),
    ])
    def test_rejects_malformed_axes(self, maturities, strikes):
        sigma = np.full((2, 2), 0.2)
        with pytest.raises(InvalidInputError):
            SurfaceVol(maturities, strikes, sigma)

    def test_next_change(self):
        ks = np.array([0.8, 1.2])
        one = SurfaceVol(np.array([0.5]), ks, np.array([[0.2, 0.3]]))
        assert one.next_change(0.0) == math.inf
        assert one.next_change(0.7) == math.inf
        two = SurfaceVol(np.array([0.5, 1.0]), ks, np.array([[0.2, 0.3], [0.4, 0.5]]))
        # the last time before 0.5 that still reads the first slice
        assert 0.5 - 2e-9 < two.next_change(0.25) < 0.5 - 1e-9
        assert two.next_change(0.5) == math.inf
        assert two.next_change(0.75) == math.inf
        assert two.next_change(2.0) == math.inf
        three = SurfaceVol(np.array([0.5, 1.0, 1.5]), ks, np.full((3, 2), 0.2))
        assert three.next_change(0.75) == three.next_change(0.5) == math.nextafter(1.0 - 1e-9, 0.0)
        assert three.next_change(1.0) == math.inf

    @given(
        maturities=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6, unique=True).map(sorted),
        times=st.lists(st.floats(0.0, 12.0), max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_value_and_next_change_agree(self, maturities, times):
        mats = np.asarray(maturities)
        tol = 1e-9 * np.maximum(1.0, mats)
        assume(np.all(np.diff(mats) > 4 * tol[1:]))
        levels = 0.1 + 0.01 * np.arange(len(mats))
        surf = SurfaceVol(mats, [0.8, 1.2], np.repeat(levels[:, None], 2, axis=1))
        edges = [m + d for m in maturities for d in (0.0, -1e-12, 1e-12, -0.5e-9 * max(1.0, m))]
        for t in [0.0] + times + edges:
            level = surf.value(t, 1.0)
            until = surf.next_change(t)
            assert until >= t
            if until < math.inf:
                assert surf.value(until, 1.0) == level
                assert surf.value(math.nextafter(until, math.inf), 1.0) != level
            else:
                assert level == levels[-1]
        # a step that starts on T_i, or within the tolerance below it, reads slice i+1
        for i, m in enumerate(maturities[:-1]):
            for t in (m, m - 1e-12, m - 0.5e-9 * max(1.0, m), m + 1e-12):
                assert surf.value(t, 1.0) == levels[i + 1]
            assert surf.value(m - 2e-9 * max(1.0, m), 1.0) == levels[i]

    def test_one_maturity_march_builds_one_operator_and_matches_rebuilds(
        self, set1_model, monkeypatch
    ):
        nodes = (np.array([0.5]), np.array([0.8, 1.0, 1.2]), np.array([[0.25, 0.2, 0.18]]))
        grid = auto_grid(set1_model, 0.5, ds=0.02, dr=0.003, dt=0.025)
        levels = _count_operators(monkeypatch)
        once = evolve(replace(set1_model, vol=SurfaceVol(*nodes)), grid)
        assert len(levels) == 1
        every = evolve(replace(set1_model, vol=RebuiltEveryStep(*nodes)), grid)
        assert len(levels) > 2
        assert np.array_equal(once.snapshots[-1].values, every.snapshots[-1].values)

    def test_march_before_the_first_maturity_reuses_its_operator(
        self, set1_model, monkeypatch
    ):
        nodes = (
            np.array([0.5, 1.0]), np.array([0.8, 1.0, 1.2]),
            np.array([[0.25, 0.2, 0.18], [0.22, 0.19, 0.17]]),
        )
        grid = auto_grid(set1_model, 1.0, ds=0.02, dr=0.003, dt=0.01)
        levels = _count_operators(monkeypatch)
        once = evolve(replace(set1_model, vol=SurfaceVol(*nodes)), grid)
        # one operator per slice, the second built on the first maturity
        assert len(levels) == 2 and levels[1] == 0.5
        del levels[:]
        every = evolve(replace(set1_model, vol=RebuiltEveryStep(*nodes)), grid)
        assert len(levels) == 96
        assert np.array_equal(once.snapshots[-1].values, every.snapshots[-1].values)


class TestCalibrate:
    @pytest.mark.parametrize("count", [2.5, 2.0, True, "2"])
    def test_slice_iterations_must_be_an_integer(self, count):
        # 2.5 would pass the 1..5 check and run 3 slice iterations
        with pytest.raises(InvalidInputError, match="slice_iterations must be an integer"):
            CalibrationSettings(slice_iterations=count)
        assert CalibrationSettings(slice_iterations=np.int64(2)).slice_iterations == 2

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

    @pytest.mark.parametrize("slice_iterations", [1, 2])
    def test_round_trip_with_the_exact_adjustment_recovers_flat_vol(
        self, set1_model, monkeypatch, slice_iterations
    ):
        # The calibration_roundtrip market with the closed-form Adj in place
        # of the one read off the field: the bootstrap and the extraction
        # are then exact, so the PDE's Adj is the round trip's only error
        # (7.50e-4 at T = 0.25 with one slice iteration, 4.24e-4 with two).
        import hybridlv.calibration as cal_mod

        m, rate = set1_model, set1_model.rate
        params = (m.s0, rate.a, rate.sigma2, rate.theta, rate.r0, m.vol.sigma1, m.rho)

        def exact(field, f0t, strikes):
            adj = np.array([corrective_term_closed_form(*params, field.t, k) for k in strikes])
            return CorrectiveTermCurve(maturity=field.t, strikes=strikes, adj=adj)

        monkeypatch.setattr(cal_mod, "corrective_terms", exact)
        ks = np.round(np.arange(0.7, 1.3001, 0.05), 10)
        market = make_analytic_surface(m, [0.25, 0.5, 0.75, 1.0], ks)
        settings = CalibrationSettings(slice_iterations=slice_iterations)
        result = calibrate(market, m, settings)
        assert np.max(np.abs(result.surface.sigma - 0.2)) <= 1e-12  # measured 4.2e-16

    def test_monthly_maturities_march_about_t_over_dt(self, set1_model, monkeypatch):
        # One- and two-month quotes to four decimals: one lattice through all
        # of them would need 10000 steps of 1e-4 to reach T = 1
        import hybridlv.calibration as cal_mod

        mats = [0.0833, 0.1667, 0.25, 0.5, 1.0]
        market = make_analytic_surface(set1_model, mats, np.arange(0.8, 1.2001, 0.05))
        grids = []
        original = cal_mod.evolve

        def recorded(model, grid, *args, **kwargs):
            grids.append(grid)
            return original(model, grid, *args, **kwargs)

        monkeypatch.setattr(cal_mod, "evolve", recorded)
        result = calibrate(market, set1_model, CalibrationSettings(ds=0.015, dr=0.0025, dt=0.005))
        assert grids[-1].t_end == 1.0
        assert max(g.n_t for g in grids) <= 201
        assert np.max(np.abs(result.surface.sigma - 0.2)) < 5e-3  # measured 8.8e-4

    def test_maturity_off_every_uniform_lattice(self, set1_model):
        mats = [0.1234567891, 1.0]
        market = make_analytic_surface(set1_model, mats, np.arange(0.9, 1.1001, 0.05))
        result = calibrate(market, set1_model, CalibrationSettings(ds=0.02, dr=0.003, dt=0.01))
        assert np.array_equal(result.surface.maturities, mats)
        assert np.max(np.abs(result.surface.sigma - 0.2)) < 5e-3

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
        got = [(e.mass_drift, e.negative_mass_ratio, e.iterations) for e in result.report.entries]
        assert got == entries
        # nonzero maxima, so the comparison above carries real values
        assert min(e.negative_mass_ratio for e in result.report.entries) > 0.0
        assert [e.iterations for e in result.report.entries] == [slice_iterations] * 3

    def test_solve_under_the_surface_passes_through_the_checkpoints(self, set1_model, monkeypatch):
        # The returned surface is the model the bootstrap marched: a solve
        # under it on calibrate's box reaches every checkpoint bit for bit,
        # with one step operator per slice, and the report's repricing error
        # is read off those checkpoints.
        import hybridlv.calibration as cal_mod

        mats = [0.25, 0.5, 0.75, 1.0]
        market = make_analytic_surface(set1_model, mats, np.arange(0.8, 1.2001, 0.1))
        settings = CalibrationSettings(ds=0.02, dr=0.003, dt=0.025)
        checkpoints = []  # the fields the repricing error reads
        original = cal_mod.price_calls_from_pz

        def spied(field, strikes):
            checkpoints.append(field)
            return original(field, strikes)

        monkeypatch.setattr(cal_mod, "price_calls_from_pz", spied)
        result = calibrate(market, set1_model, settings)
        assert [c.t for c in checkpoints] == mats[:-1]

        fwd = lambda t: forward_rate(set1_model.rate, t)  # noqa: E731
        box_model = replace(set1_model, vol=cal_mod._ref_vol(market, fwd))
        box = auto_grid(box_model, mats, settings.ds, settings.dr, settings.dt)
        levels = _count_operators(monkeypatch)
        solve = evolve(replace(set1_model, vol=result.surface), box, snapshot_times=mats[:-1])
        assert len(levels) == len(mats) and levels[1:] == mats[:-1]
        for snap, checkpoint in zip(solve.snapshots, checkpoints, strict=True):
            assert np.array_equal(snap.values, checkpoint.values)

        errs = [e.reprice_err for e in result.report.entries]
        assert errs[-1] is None
        for err, checkpoint, row in zip(errs, checkpoints, market.prices):
            assert err == np.max(np.abs(price_calls_from_pz(checkpoint, market.strikes) - row))

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
        # one march per slice iteration, each built where it starts: the
        # first for T_i re-marches (T_{i-2}, T_{i-1}] from the checkpoint at
        # T_{i-2}, the others resume from the one at T_{i-1}
        n = len(mats)
        assert len(levels) == n * slice_iterations
        starts = [levels[0]] * (slice_iterations + 1)
        for i in range(1, n):
            starts += [mats[i - 1]] * (slice_iterations - 1 + (i < n - 1))
        assert levels == pytest.approx(starts, abs=1e-12)

    @pytest.mark.parametrize("slice_iterations", [1, 2])
    def test_skipped_strike_warns_once_per_maturity(self, set1_model, slice_iterations):
        # the butterfly at K = 0.2 is flatter than EPS_FLOOR; every slice
        # iteration used to repeat the warning
        ks = np.concatenate([[0.2], np.round(np.arange(0.7, 1.3001, 0.1), 10)])
        market = make_analytic_surface(set1_model, [0.25, 0.5], ks)
        settings = CalibrationSettings(ds=0.02, dr=0.003, dt=0.025,
                                       slice_iterations=slice_iterations)
        report = calibrate(market, set1_model, settings).report
        assert [e.skipped_strikes for e in report.entries] == [[0.2], [0.2]]
        assert report.warnings == [
            f"T={t}: degenerate butterfly at K in [0.2]; flat-filled" for t in (0.25, 0.5)
        ]

    def test_march_warnings_reach_the_report(self, set1_model, monkeypatch):
        # the first march warns; the report states it, and so does the
        # report of a calibration that fails later
        import hybridlv.calibration as cal_mod

        warning = "raw mass drift +25.00% at t=0.1"
        original = cal_mod.evolve

        marches = []

        def warned(*args, **kwargs):
            result = original(*args, **kwargs)
            if not marches:
                result.diagnostics.warnings.append(warning)
            marches.append(result)
            return result

        monkeypatch.setattr(cal_mod, "evolve", warned)
        settings = CalibrationSettings(ds=0.02, dr=0.003, dt=0.01)
        market = make_analytic_surface(set1_model, [0.25, 0.5], np.arange(0.8, 1.2001, 0.1))
        report = calibrate(market, set1_model, settings).report
        assert report.warnings == [warning]
        assert f"warning: {warning}\n" in report.format_text()

        # the lattice market of test_negative_variance_raises_with_report
        marches.clear()
        mats, ks = [0.5, 0.55, 0.6], np.arange(0.8, 1.2001, 0.05)
        prices = np.array([[bshw_call(set1_model, t, k).price for k in ks] for t in mats])
        prices[2] = prices[0]
        with pytest.raises(CalibrationError) as err:
            calibrate(CallSurface(np.asarray(mats), ks, prices), set1_model, settings)
        assert err.value.report.warnings == [warning]

    def test_uneven_strikes_closed_form_market(self, set1_model):
        ks = [0.7, 0.8, 0.85, 0.9, 1.0, 1.2]
        market = make_analytic_surface(set1_model, [0.25, 0.5, 0.75, 1.0], ks)
        settings = CalibrationSettings(ds=0.02, dr=0.003, dt=0.01)
        result = calibrate(market, set1_model, settings)
        assert np.max(np.abs(result.surface.sigma - 0.2)) < 2.5e-3  # measured 1.90e-3

    def test_uneven_lattice_market(self, set1_model):
        # lattice-differenced (no model): the three-point C_KK and the chord
        # C_K are first order where the spacing changes (K = 0.9 and 1.1),
        # so those nodes read furthest off; the edge strikes are not gated
        ks = np.array([0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2])
        mats = np.round(np.arange(0.25, 1.0001, 0.05), 10)
        prices = np.array([[bshw_call(set1_model, t, k).price for k in ks] for t in mats])
        settings = CalibrationSettings(ds=0.02, dr=0.003, dt=0.01)
        sigma = calibrate(CallSurface(mats, ks, prices), set1_model, settings).surface.sigma
        assert np.max(np.abs(sigma[:, 1:-1] - 0.2)) < 2.5e-2  # measured 1.73e-2
        assert np.max(np.abs(sigma[:, 2:-2] - 0.2)) < 3.5e-3  # even spacing: 2.6e-3

    def test_dropping_the_adjustment_skews_the_wings(self, set1_model):
        # ablation: a stochastic-rates market calibrated with the corrective
        # term disabled reverts to plain Dupire, visibly off the flat level
        market = make_analytic_surface(set1_model, [0.25], np.arange(0.7, 1.3001, 0.05))
        plain = CalibrationSettings(ds=0.015, dr=0.0025, dt=0.0125, use_corrective=False)
        result = calibrate(market, set1_model, plain)
        wings = result.surface.sigma[0, [0, -1]]
        assert np.max(np.abs(wings - 0.2)) > 2e-3

    def test_calibrated_surface_reprices_through_the_solver(self, set1_model):
        # close the loop: take the recovered surface as the model vol and
        # re-solve; prices should sit on the market within grid accuracy
        market = make_analytic_surface(set1_model, [0.5, 1.0], np.arange(0.8, 1.2001, 0.1))
        settings = CalibrationSettings(ds=0.015, dr=0.0025, dt=0.01)
        surface = calibrate(market, set1_model, settings).surface
        model = replace(set1_model, vol=surface)
        grid = auto_grid(model, 1.0, ds=0.015, dr=0.0025, dt=0.01)
        field = evolve(model, grid, snapshot_times=[1.0]).snapshots[-1]
        prices = price_calls_from_pz(field, market.strikes)
        assert np.max(np.abs(prices - market.prices[1])) < 8e-4

    def test_flat_round_trip_reprices_by_monte_carlo_on_common_draws(self, set1_model):
        # The calibration_roundtrip defaults, repriced at every maturity (the
        # last included) under the calibrated surface and under the generating
        # model on the same draws: 65,536 antithetic pairs, dt_mc 1/100, seed
        # 7. Measured max |difference| 4.30e-6, 3.88e-6, 3.68e-6 and 3.37e-6
        # with an SE of at most 7.8e-8, so the largest difference is resolved
        # at 45-63 SE at every maturity.
        ks = np.round(np.arange(0.7, 1.3001, 0.05), 10)
        mats = [0.25, 0.5, 0.75, 1.0]
        market = make_analytic_surface(set1_model, mats, ks)
        surface = calibrate(market, set1_model, CalibrationSettings()).surface
        calibrated = replace(set1_model, vol=surface)
        cfg = McConfig(n_paths=65536, dt_mc=0.01, seed=7)
        for t in mats:
            diff, se = paired_call_difference(calibrated, set1_model, t, ks, cfg)
            worst = np.argmax(np.abs(diff))
            assert abs(diff[worst]) <= 2e-5
            assert abs(diff[worst]) > 4.0 * se[worst]

    def test_skewed_round_trip_reprices_by_monte_carlo_on_common_draws(self, hyperbolic_model):
        # The hyperbolic model (nu 0.2, beta 0.5, rho -0.3) priced by the
        # solver at half of every calibration spacing (704 x 508 x 400) and
        # read as a lattice (no model), then calibrated at the defaults and
        # repriced at every maturity as the flat round trip above: 65,536
        # antithetic pairs, dt_mc 1/100, seed 7. Measured max |difference|
        # 2.91e-3, 1.36e-3, 1.24e-3 and 1.96e-3 at 64-295 SE: the error of
        # the lattice's sensitivities. Gated at the measured values plus 10%.
        ks = np.round(np.arange(0.7, 1.3001, 0.05), 10)
        mats = [0.25, 0.5, 0.75, 1.0]
        settings = CalibrationSettings()
        grid = auto_grid(hyperbolic_model, mats, settings.ds / 2, settings.dr / 2, settings.dt / 2)
        fields = evolve(hyperbolic_model, grid, snapshot_times=mats).snapshots
        market = CallSurface(np.asarray(mats), ks, [price_calls_from_pz(f, ks) for f in fields])
        del fields
        surface = calibrate(market, hyperbolic_model, settings).surface
        calibrated = replace(hyperbolic_model, vol=surface)
        cfg = McConfig(n_paths=65536, dt_mc=0.01, seed=7)
        for t, measured in zip(mats, [2.91e-3, 1.36e-3, 1.24e-3, 1.96e-3]):
            diff, se = paired_call_difference(calibrated, hyperbolic_model, t, ks, cfg)
            worst = np.argmax(np.abs(diff))
            assert abs(diff[worst]) <= 1.1 * measured
            assert abs(diff[worst]) > 4.0 * se[worst]

    def test_negative_variance_raises_with_report(self, set1_model):
        # a lattice market (no model), convex in K, whose T=0.6 quotes repeat
        # those at T=0.5: the central calendar slope at T_2=0.55 vanishes, so
        # the second slice fails once the first is calibrated and reported
        mats = [0.5, 0.55, 0.6]
        ks = np.arange(0.8, 1.2001, 0.05)
        prices = np.array([[bshw_call(set1_model, t, k).price for k in ks] for t in mats])
        prices[2] = prices[0]
        market = CallSurface(np.asarray(mats), ks, prices)
        with pytest.raises(CalibrationError, match=r"^negative local variance at \(T=0\.55, ") as err:
            calibrate(market, set1_model, CalibrationSettings(ds=0.02, dr=0.003, dt=0.01))
        assert [e.maturity for e in err.value.report.entries] == [0.5]

    def test_negative_variance_at_the_first_maturity_fails_before_marching(
        self, set1_model, monkeypatch
    ):
        # a lattice market (no model) with a calendar break at (T=0.5, K=1):
        # the seed slice goes through the same extractor as every later one
        import hybridlv.calibration as cal_mod

        mats = [0.5, 0.51, 1.0]
        ks = np.arange(0.8, 1.2001, 0.05)
        prices = np.array([[bshw_call(set1_model, t, k).price for k in ks] for t in mats])
        prices[0, 4] += 1e-3
        market = CallSurface(np.asarray(mats), ks, prices)
        calls = []
        original = cal_mod.evolve

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cal_mod, "evolve", counted)
        with pytest.raises(CalibrationError, match=r"^negative local variance at \(T=0\.5, K=1\)$"):
            calibrate(market, set1_model, CalibrationSettings(ds=0.02, dr=0.003, dt=0.01))
        assert calls == []
