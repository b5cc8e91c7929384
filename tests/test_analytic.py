import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlv.analytic import (
    analytic_pz,
    analytic_z,
    bshw_call,
    bshw_moments,
    sigma_hat_sq,
)
from hybridlv.errors import InvalidInputError
from hybridlv.models import ConstantVol, HullWhiteParams, HybridModel, zc_price
from hybridlv.pde import auto_grid

from .oracles import (
    bs_call_textbook,
    bshw_greeks_fd_check,
    conditional_discount_by_quadrature,
    joint_moments_by_quadrature,
)

_NPDF = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)  # noqa: E731


def _model(sigma2=0.04, rho=0.4, sigma1=0.2, theta=0.02, r0=0.02, a=0.5):
    rate = HullWhiteParams(a=a, sigma2=sigma2, theta=theta, r0=r0)
    return HybridModel(s0=1.0, rate=rate, vol=ConstantVol(sigma1), rho=rho)


class TestIntegratedVariance:
    def test_deterministic_rates(self):
        m = _model(sigma2=0.0)
        assert bshw_moments(m, 2.0).sigma_y == pytest.approx(0.2**2 * 2.0, rel=1e-14)

    def test_zero_correlation_form(self):
        m = _model(rho=0.0)
        a, s2, t = 0.5, 0.04, 1.0
        expect = 0.04 * t + (s2 / a) ** 2 * (
            t - (3 - 4 * math.exp(-a * t) + math.exp(-2 * a * t)) / (2 * a)
        )
        assert bshw_moments(m, t).sigma_y == pytest.approx(expect, rel=1e-14)

    def test_against_quadrature(self, set1_model):
        # frozen from a 1e4-node trapezoid of the instantaneous variance
        frozen = 0.043099941354
        ts = np.linspace(0.0, 1.0, 10001)
        vals = [sigma_hat_sq(set1_model, t) for t in ts]
        quad = np.trapezoid(vals, ts)
        got = bshw_moments(set1_model, 1.0).sigma_y
        assert got == pytest.approx(quad, rel=1e-8)
        assert got == pytest.approx(frozen, abs=1e-11)

    def test_zero_at_origin(self, set1_model):
        assert bshw_moments(set1_model, 0.0).sigma_y == 0.0


class TestMoments:
    def test_degenerate_horizon(self, set1_model):
        mom = bshw_moments(set1_model, 0.0)
        assert mom.mu_y == pytest.approx(math.log(set1_model.s0))
        assert mom.mu_r == pytest.approx(0.02)
        assert mom.mu_R == 0.0
        assert mom.sigma_y == mom.sigma_r == mom.sigma_R == 0.0

    def test_fast_reversion_limit(self):
        m = _model(a=50.0, theta=0.03)
        mom = bshw_moments(m, 1.0)
        assert mom.mu_r == pytest.approx(0.03, abs=1e-6)
        assert mom.sigma_r == pytest.approx(0.04**2 / (2 * 50.0), rel=1e-6)

    @pytest.mark.parametrize("rho,t", [(0.4, 1.0), (-0.4, 2.0), (0.0, 0.7)])
    def test_against_quadrature_oracle(self, rho, t):
        m = _model(rho=rho)
        mom = bshw_moments(m, t)
        mean, cov = joint_moments_by_quadrature(1.0, 0.5, 0.04, 0.02, 0.02, 0.2, rho, t)
        assert mom.mu_y == pytest.approx(mean[0], abs=1e-12)
        assert mom.mu_r == pytest.approx(mean[1], abs=1e-12)
        assert mom.mu_R == pytest.approx(mean[2], abs=1e-12)
        assert mom.sigma_yr[0, 0] == pytest.approx(cov[0, 0], abs=1e-13)
        assert mom.sigma_yr[0, 1] == pytest.approx(cov[0, 1], abs=1e-13)
        assert mom.sigma_yr[1, 1] == pytest.approx(cov[1, 1], abs=1e-13)
        assert mom.sigma_yrR[0] == pytest.approx(cov[0, 2], abs=1e-13)
        assert mom.sigma_yrR[1] == pytest.approx(cov[1, 2], abs=1e-13)
        assert mom.sigma_R == pytest.approx(cov[2, 2], abs=1e-13)


class TestCall:
    def test_deep_in_the_money(self, set1_model):
        k = 1e-12
        pg = bshw_call(set1_model, 1.0, k)
        expect = set1_model.s0 - k * zc_price(set1_model.rate, 1.0)
        assert pg.price == pytest.approx(expect, abs=1e-10)

    def test_deterministic_rates_reduce_to_black_scholes(self):
        m = _model(sigma2=0.0, theta=0.03, r0=0.03)
        for k in (0.7, 1.0, 1.4):
            pg = bshw_call(m, 1.5, k)
            assert pg.price == pytest.approx(bs_call_textbook(1.0, k, 0.03, 0.2, 1.5), rel=1e-12)

    def test_zero_maturity_or_variance_raises(self, set1_model):
        with pytest.raises(InvalidInputError, match="maturity must be finite and > 0, got 0.0"):
            bshw_call(set1_model, 0.0, 0.8)
        with pytest.raises(InvalidInputError, match=r"zero total variance at T=1\.0"):
            bshw_call(_model(sigma2=0.0, sigma1=0.0), 1.0, 0.8)

    def test_d2_relation_and_floor(self, set1_model):
        pg = bshw_call(set1_model, 1.0, 1.1)
        assert pg.d2 == pytest.approx(pg.d1 - math.sqrt(pg.g_t), rel=1e-14)
        floor = max(set1_model.s0 - 1.1 * zc_price(set1_model.rate, 1.0), 0.0)
        assert pg.price >= floor
        assert pg.c_kk >= 0.0

    @given(k=st.floats(0.3, 3.0), t=st.floats(0.1, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_density_identity(self, k, t):
        m = _model()
        pg = bshw_call(m, t, k)
        lhs = m.s0 * _NPDF(pg.d1)
        rhs = k * zc_price(m.rate, t) * _NPDF(pg.d2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_parity_gap_is_a_put(self, set1_model):
        # C - (S0 - K ZC) is the parity put: non-negative, increasing in K,
        # while the call itself decreases in K.
        ks = np.linspace(0.3, 3.0, 28)
        zc = zc_price(set1_model.rate, 1.0)
        calls = np.array([bshw_call(set1_model, 1.0, k).price for k in ks])
        gap = calls - (1.0 - ks * zc)
        assert np.all(gap >= 0)
        assert np.all(np.diff(gap) > 0)
        assert np.all(np.diff(calls) < 0)

    def test_convexity_integrates_to_discount(self, set1_model):
        ks = np.linspace(1e-4, 20.0, 20000)
        c_kk = np.array([bshw_call(set1_model, 1.0, k).c_kk for k in ks])
        total = np.trapezoid(c_kk, ks)
        assert total == pytest.approx(zc_price(set1_model.rate, 1.0), abs=1e-3)

    def test_rejects_bad_inputs(self, set1_model):
        with pytest.raises(InvalidInputError):
            bshw_call(set1_model, 1.0, -1.0)
        with pytest.raises(InvalidInputError):
            bshw_call(set1_model, -1.0, 1.0)


class TestGreeks:
    @pytest.mark.parametrize(
        "model_kwargs,t,k",
        [
            (dict(), 1.0, 1.0),
            (dict(rho=-0.4), 2.0, 1.5),
            (dict(sigma2=0.0), 1.0, 0.9),
        ],
    )
    def test_match_central_differences(self, model_kwargs, t, k):
        m = _model(**model_kwargs)
        assert bshw_greeks_fd_check(m, t, k) < 1e-4

    def test_short_maturity_rejected(self, set1_model):
        with pytest.raises(InvalidInputError):
            bshw_greeks_fd_check(set1_model, 0.01, 1.0)


class TestAnalyticZ:
    def test_deterministic_rates_constant(self):
        m = _model(sigma2=0.0, theta=0.02, r0=0.02)
        for s, r in ((0.5, 0.0), (1.0, 0.02), (2.0, 0.05)):
            assert analytic_z(m, 1.0, s, r) == pytest.approx(math.exp(-0.02), rel=1e-14)

    def test_levels_vary_around_one(self, set1_model):
        s = np.linspace(0.5, 1.5, 21)[:, None]
        r = np.linspace(-0.05, 0.1, 21)[None, :]
        z = analytic_z(set1_model, 1.0, s, r)
        assert np.all(z > 0.85)
        assert np.all(z < 1.10)

    @pytest.mark.parametrize("s,r", [(1.0, 0.02), (0.8, -0.01), (1.3, 0.06)])
    def test_against_quadrature_conditional(self, set1_model, s, r):
        oracle = conditional_discount_by_quadrature(1.0, 0.5, 0.04, 0.02, 0.02, 0.2, 0.4, 1.0, s, r)
        assert analytic_z(set1_model, 1.0, s, r) == pytest.approx(oracle, rel=1e-10)

    def test_singular_covariance_raises(self, set1_model):
        with pytest.raises(InvalidInputError, match=r"\(log S, r\) is numerically singular"):
            analytic_z(set1_model, 1e-160, 1.0, 0.02)

    def test_rejects_non_positive_inputs(self, set1_model):
        with pytest.raises(InvalidInputError):
            analytic_z(set1_model, 1.0, -1.0, 0.02)
        with pytest.raises(InvalidInputError):
            analytic_z(set1_model, 0.0, 1.0, 0.02)
        # a NaN spot passed the "<= 0" test and gave a NaN projection
        with pytest.raises(InvalidInputError, match="spot must be positive"):
            analytic_z(set1_model, 1.0, np.array([1.0, math.nan]), 0.02)

    @pytest.mark.parametrize("sigma2", [0.0, 0.04])
    @pytest.mark.parametrize("s, r", [(1.05, 0.03), (np.array(1.05), np.array(0.03)),
                                      (np.float64(1.05), 0.03)])
    def test_zero_d_result_is_a_float(self, sigma2, s, r):
        # 0-d arrays gave numpy.float64 with sigma2 > 0 and float with sigma2 = 0
        assert type(analytic_z(_model(sigma2=sigma2), 1.0, s, r)) is float
        if sigma2 > 0:
            assert type(analytic_pz(_model(sigma2=sigma2), 1.0, s, r)) is float
        assert np.shape(analytic_z(_model(sigma2=sigma2), 1.0, np.array([s]), r)) == (1,)


HORIZON_ORACLES = {
    "bshw_moments": bshw_moments,
    "analytic_z": lambda m, t: analytic_z(m, t, 1.0, 0.02),
    "analytic_pz": lambda m, t: analytic_pz(m, t, 1.0, 0.02),
}


class TestHorizonRule:
    @pytest.mark.parametrize("maturity", [math.nan, math.inf])
    @pytest.mark.parametrize("name", sorted(HORIZON_ORACLES))
    def test_non_finite_horizon_rejected(self, set1_model, name, maturity):
        # NaN and inf passed the "< 0" tests: the moments came back NaN or
        # inf, and the projection NaN with RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="maturity must be"):
                HORIZON_ORACLES[name](set1_model, maturity)


class TestAnalyticPz:
    def test_integrates_to_discount_factor(self, set1_model):
        grid = auto_grid(set1_model, 1.0, ds=0.0156, dr=0.0026, dt=0.0099)
        s, r = np.meshgrid(grid.s_nodes, grid.r_nodes, indexing="ij")
        total = analytic_pz(set1_model, 1.0, s, r).sum() * grid.ds * grid.dr
        assert total == pytest.approx(zc_price(set1_model.rate, 1.0), abs=1e-3)

    def test_degenerate_equity_mode_location(self):
        m = _model(sigma1=1e-6, rho=0.0)
        grid = auto_grid(_model(sigma1=0.05, rho=0.0), 1.0, ds=0.002, dr=0.002, dt=0.01)
        s, r = np.meshgrid(grid.s_nodes, grid.r_nodes, indexing="ij")
        pz = analytic_pz(m, 1.0, s, r)
        marginal = pz.sum(axis=1)
        mom = bshw_moments(m, 1.0)
        expect = math.exp(mom.mu_R)  # spot rides the integrated rate
        got = grid.s_nodes[int(np.argmax(marginal))]
        assert abs(got - expect) <= 2 * grid.ds

    def test_non_negative(self, set2_model):
        s = np.linspace(0.2, 3.0, 40)[:, None]
        r = np.linspace(-0.1, 0.15, 40)[None, :]
        assert np.all(analytic_pz(set2_model, 2.0, s, r) >= 0.0)

    def test_deterministic_rates_rejected(self):
        with pytest.raises(InvalidInputError, match=r"\(log S, r\) is numerically singular"):
            analytic_pz(_model(sigma2=0.0), 1.0, 1.0, 0.02)
