import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hybridlv.calibration import CallSurface, CorrectiveTermCurve, dupire_vol, make_analytic_surface
from hybridlv.errors import InvalidInputError
from hybridlv.models import (
    ConstantVol,
    HullWhiteParams,
    HybridModel,
    HyperbolicVol,
    SurfaceVol,
    forward_rate,
    node_tolerance,
    sde_coefficients,
    zc_price,
)
from hybridlv.pde import Field2D, Grid2D, auto_grid, evolve

from .oracles import zc_by_affine_ode

HW1 = HullWhiteParams(a=0.5, sigma2=0.04, theta=0.02, r0=0.02)


class TestZcPrice:
    def test_zero_maturity(self):
        assert zc_price(HW1, 0.0) == 1.0

    def test_flat_deterministic_curve(self):
        p = HullWhiteParams(a=0.7, sigma2=0.0, theta=0.02, r0=0.02)
        assert zc_price(p, 1.0) == pytest.approx(math.exp(-0.02), rel=1e-14)

    def test_against_affine_ode_oracle(self):
        # frozen from the ODE oracle; recomputed live as well
        frozen = 0.980381378029
        ode = zc_by_affine_ode(0.5, 0.04, 0.02, 0.02, 1.0)
        assert ode == pytest.approx(frozen, abs=1e-10)
        assert zc_price(HW1, 1.0) == pytest.approx(ode, rel=1e-10)

    def test_strictly_decreasing_in_maturity(self):
        ts = np.linspace(0.0, 5.0, 51)
        vals = [zc_price(HW1, t) for t in ts]
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("t_end", [0.5, 1.0, 2.0])
    def test_consistent_with_forward_curve_quadrature(self, t_end):
        integral = quad(lambda u: forward_rate(HW1, u), 0.0, t_end, limit=200)[0]
        assert math.exp(-integral) == pytest.approx(zc_price(HW1, t_end), rel=1e-6)

    def test_rejects_negative_maturity(self):
        with pytest.raises(InvalidInputError):
            zc_price(HW1, -0.5)

    def test_rejects_non_finite_params(self):
        with pytest.raises(InvalidInputError):
            HullWhiteParams(a=0.5, sigma2=float("nan"), theta=0.02, r0=0.02)
        with pytest.raises(InvalidInputError):
            HullWhiteParams(a=-0.5, sigma2=0.04, theta=0.02, r0=0.02)
        with pytest.raises(InvalidInputError, match="initial short rate must be finite"):
            HullWhiteParams(a=0.5, sigma2=0.04, theta=0.02, r0=math.nan)
        with pytest.raises(InvalidInputError, match="theta must be finite"):
            HullWhiteParams(a=0.5, sigma2=0.04, theta=math.nan, r0=0.02)


class TestForwardRate:
    def test_zero_maturity_is_initial_rate(self):
        assert forward_rate(HW1, 0.0) == pytest.approx(HW1.r0, abs=1e-15)

    def test_flat_when_deterministic(self):
        p = HullWhiteParams(a=0.5, sigma2=0.0, theta=0.03, r0=0.03)
        for t in (0.1, 1.0, 4.0):
            assert forward_rate(p, t) == pytest.approx(0.03, abs=1e-14)

    @given(t=st.floats(0.05, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_log_discount_slope(self, t):
        h = 1e-5
        fd = -(math.log(zc_price(HW1, t + h)) - math.log(zc_price(HW1, t - h))) / (2 * h)
        assert forward_rate(HW1, t) == pytest.approx(fd, rel=1e-6)


def _hyperbolic(nu, beta, s):
    return HyperbolicVol(nu, beta).value(0.0, s)


class TestHyperbolicVol:
    def test_beta_one_is_flat(self):
        for s in (0.1, 0.77, 1.0, 5.0):
            assert _hyperbolic(0.2, 1.0, s) == pytest.approx(0.2, rel=1e-14)

    def test_unit_spot_gives_level(self):
        for beta in (0.2, 0.5, 0.8, 1.0):
            assert _hyperbolic(0.31, beta, 1.0) == pytest.approx(0.31, rel=1e-12)

    def test_half_spot_value_and_skew(self):
        got = _hyperbolic(0.2, 0.5, 0.5)
        assert got == pytest.approx(0.276393202250, abs=1e-12)
        assert got > _hyperbolic(0.2, 0.5, 1.0)

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.8, 1.0])
    def test_positive_and_continuous(self, beta):
        s = np.linspace(1e-6, 10.0, 4001)
        vals = _hyperbolic(0.2, beta, s)
        assert np.all(vals > 0)
        assert np.all(np.isfinite(vals))
        # no jumps on the sampling resolution
        assert np.max(np.abs(np.diff(vals))) < 0.01

    @pytest.mark.parametrize("beta", [0.2, 0.5, 0.8])
    def test_decreasing_below_beta_one(self, beta):
        s = np.linspace(1e-3, 2.0, 800)
        vals = _hyperbolic(0.2, beta, s)
        assert np.all(np.diff(vals) < 0)

    def test_domain_errors(self):
        with pytest.raises(InvalidInputError, match=r"beta must be in \(0, 1\]"):
            HyperbolicVol(0.2, 0.0)
        with pytest.raises(InvalidInputError, match="nu must be positive"):
            HyperbolicVol(-0.2, 0.5)

    def test_vol_evaluates_states_unchecked(self):
        # the parameters are checked once, when the vol is built; a state
        # that is not a positive spot gives a vol that is not finite
        states = np.array([0.0, math.inf, math.nan, 1.0])
        with np.errstate(all="ignore"):
            sig = HyperbolicVol(nu=0.2, beta=0.5).value(0.0, states)
        assert not np.isfinite(sig[:3]).any()
        assert sig[3] == _hyperbolic(0.2, 0.5, 1.0)


class TestSdeCoefficients:
    def test_constant_vol_point_values(self, set1_model):
        co = sde_coefficients(set1_model, 0.0, 1.0, 0.02)
        assert float(co.drift_s) == pytest.approx(0.02)
        assert float(co.vol_s) == pytest.approx(0.2)
        assert float(co.drift_r) == pytest.approx(0.0, abs=1e-15)
        assert float(co.vol_r) == pytest.approx(0.04)

    def test_vol_takes_the_shape_of_the_spots(self, set1_model, hyperbolic_model):
        # a constant vol gives one float; the coefficients broadcast it
        s, r = np.array([[0.5], [1.0], [1.5]]), np.array([[0.01, 0.02]])
        for model in (set1_model, hyperbolic_model):
            co = sde_coefficients(model, 0.0, s, r)
            assert co.vol_s.shape == (3, 1)
            assert np.array_equal(co.vol_s, np.broadcast_to(model.vol.value(0.0, s), (3, 1)))

    def test_rejects_non_positive_spot(self, set1_model):
        with pytest.raises(InvalidInputError):
            sde_coefficients(set1_model, 0.0, -1.0, 0.02)
        # NaN passed the "<= 0" test and gave NaN coefficients
        with pytest.raises(InvalidInputError, match="spot must be positive"):
            sde_coefficients(set1_model, 0.0, np.array([1.0, math.nan]), 0.02)


class TestModelValidation:
    def test_correlation_bounds(self):
        with pytest.raises(InvalidInputError):
            HybridModel(s0=1.0, rate=HW1, vol=ConstantVol(0.2), rho=1.5)

    def test_positive_spot(self):
        with pytest.raises(InvalidInputError):
            HybridModel(s0=0.0, rate=HW1, vol=ConstantVol(0.2), rho=0.0)

    def test_negative_constant_vol_rejected(self):
        with pytest.raises(InvalidInputError, match="sigma1 must be >= 0"):
            ConstantVol(-0.1)

    @pytest.mark.parametrize("build", [
        lambda: SurfaceVol(_OK, _OK, np.full((3, 2), 0.2)),
        lambda: CallSurface(_OK, _OK, np.full((2, 3), 0.1)),
        lambda: CorrectiveTermCurve(1.0, _OK, [0.0, 0.0]),
        lambda: Field2D(Grid2D(0.1, 2.0, -0.05, 0.1, 9, 9, (1.0,), (5,)), np.zeros((9, 8))),
    ], ids=["SurfaceVol", "CallSurface", "CorrectiveTermCurve", "Field2D"])
    def test_misshaped_values_rejected(self, build):
        with pytest.raises(InvalidInputError, match="shape"):
            build()


MALFORMED_AXES = {
    "empty": [],
    "2-d": [[0.5, 1.0]],
    "nan": [0.5, math.nan],
    "inf": [1.0, math.inf],
    "zero-first": [0.0, 1.0],
    "negative-first": [-0.5, 1.0],
    "repeated": [0.5, 0.5],
}
_OK = [0.5, 1.0, 1.5]
_MODEL = HybridModel(s0=1.0, rate=HW1, vol=ConstantVol(0.2), rho=0.4)
# (axis name, constructor taking that axis), every other input well formed
AXIS_CONSTRUCTORS = {
    "CallSurface-maturities": ("maturities", lambda m: CallSurface(m, _OK, np.full((len(m), 3), 0.1))),
    "CallSurface-strikes": ("strikes", lambda k: CallSurface(_OK, k, np.full((3, len(k)), 0.1))),
    "SurfaceVol-maturities": ("maturities", lambda m: SurfaceVol(m, _OK, np.full((len(m), 3), 0.2))),
    "SurfaceVol-strikes": ("strikes", lambda k: SurfaceVol(_OK, k, np.full((3, len(k)), 0.2))),
    "make_analytic_surface-maturities": (
        "maturities", lambda m: make_analytic_surface(_MODEL, m, _OK)),
    "make_analytic_surface-strikes": ("strikes", lambda k: make_analytic_surface(_MODEL, _OK, k)),
    "Grid2D": ("maturities", lambda m: Grid2D(0.1, 2.0, -0.05, 0.1, 9, 9, m, (5,) * len(m))),
    "Grid2D.from_spacings": (
        "maturities", lambda m: Grid2D.from_spacings(0.1, 2.0, -0.05, 0.1, m, 0.05, 0.01, 0.1)),
}
NEAR_NODE = {"+0.5 tol": (0.5, True), "-0.5 tol": (-0.5, True),
             "+2 tol": (2.0, False), "-2 tol": (-2.0, False), "nan": (math.nan, False)}


@pytest.fixture(scope="module")
def node_lookups():
    """name -> (node, lookup of a value on that node's axis, error off it)."""
    grid = auto_grid(_MODEL, [0.5, 4.0], ds=0.05, dr=0.01, dt=0.1)
    march = evolve(_MODEL, grid, snapshot_times=[0.5, 4.0])
    surf = make_analytic_surface(_MODEL, [0.5, 2.0], [0.8, 1.0, 1.2, 1.5])
    fwd = lambda t: forward_rate(HW1, t)  # noqa: E731
    return {
        # the tolerance is the node's, not the horizon's: 2e-9 off 0.5 is
        # no step time of this march to 4
        "snapshot time": (0.5, lambda t: evolve(_MODEL, grid, snapshot_times=[t]).snapshots[0].t,
                          InvalidInputError),
        "EvolveResult.at": (4.0, lambda t: march.at(t).t, KeyError),
        "Dupire T": (2.0, lambda t: dupire_vol(surf, fwd, t, 1.5), InvalidInputError),
        "Dupire K": (1.5, lambda k: dupire_vol(surf, fwd, 2.0, k), InvalidInputError),
    }


class TestLatticeRules:
    @pytest.mark.parametrize("nodes", MALFORMED_AXES.values(), ids=MALFORMED_AXES.keys())
    @pytest.mark.parametrize("axis, build", AXIS_CONSTRUCTORS.values(), ids=AXIS_CONSTRUCTORS.keys())
    def test_malformed_axis_rejected_by_every_constructor(self, axis, build, nodes):
        # an empty or 2-d CallSurface axis used to pass and fail later in
        # calibrate, and Grid2D took an infinite maturity
        with pytest.raises(InvalidInputError, match=axis):
            build(nodes)

    @pytest.mark.parametrize("offset, found", NEAR_NODE.values(), ids=NEAR_NODE.keys())
    @pytest.mark.parametrize("lookup", ["snapshot time", "EvolveResult.at", "Dupire T", "Dupire K"])
    def test_a_value_within_the_tolerance_is_the_node(self, node_lookups, lookup, offset, found):
        node, look, error = node_lookups[lookup]
        near = node + offset * node_tolerance(node)
        if found:
            assert look(near) == look(node)
        else:
            with pytest.raises(error):
                look(near)
