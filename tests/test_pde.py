import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlv.analytic import analytic_pz, bshw_call
from hybridlv.calibration import (
    CalibrationSettings,
    calibrate,
    make_analytic_surface,
    price_calls_from_pz,
)
from hybridlv.config import load_config
from hybridlv.errors import InvalidInputError, PdeBlowUpError
from hybridlv.models import (
    ConstantVol,
    HullWhiteParams,
    HybridModel,
    SurfaceVol,
    forward_rate,
    zc_price,
)
from hybridlv.pde import (
    _TILE_ENTRIES,
    Field2D,
    Grid2D,
    _StepOperator,
    _tile_rows,
    _tiled_multiply,
    auto_grid,
    build_coefficients,
    evolve,
    short_time_start,
)

from .oracles import (
    RebuiltEveryStep,
    adi_step,
    flux_operator,
    integrate,
    lognormal_density,
    mcs_march,
    rate_marginal,
    slice_step,
    step_health,
)


# flat up to t = 0.5, skewed from it on
_TWO_SLICES = ([0.5, 1.0], [0.5, 1.0, 1.5], [[0.2, 0.2, 0.2], [0.3, 0.22, 0.18]])


def _count_builds(monkeypatch):
    """Record the time of every coefficient build the solver makes."""
    import hybridlv.pde as pde_mod

    times = []
    original = pde_mod.build_coefficients

    def counted(model, grid, t):
        times.append(t)
        return original(model, grid, t)

    monkeypatch.setattr(pde_mod, "build_coefficients", counted)
    return times


def _assert_resume_is_exact(model):
    # At t = 0.25 a renormalisation of the resumed mass would not be a
    # no-op; t = 0.5 is where the piecewise vol changes.
    g = auto_grid(model, 1.0, ds=0.02, dr=0.003, dt=0.01)
    full = evolve(model, g, snapshot_times=[0.25, 0.5, 1.0])
    for first in full.snapshots[:2]:
        resumed = evolve(model, g, snapshot_times=[1.0], start=first)
        assert np.array_equal(resumed.snapshots[-1].values, full.snapshots[-1].values)
        n = len(resumed.diagnostics.raw_mass)
        assert resumed.diagnostics.raw_mass == full.diagnostics.raw_mass[-n:]


def _unit_grid(n_s=9, n_r=9, t_end=1.0, n_t=10):
    # spot nodes 0.6 .. 1.4 step 0.1, rate nodes 0.004 .. 0.036 step 0.004
    return Grid2D(0.5, 1.5, 0.0, 0.04, n_s, n_r, (t_end,), (n_t,))


class TestGrid:
    def test_spacings(self):
        g = _unit_grid()
        assert g.ds == pytest.approx(0.1)
        assert g.dr == pytest.approx(0.004)
        assert g.dt == pytest.approx(0.1)
        assert g.s_nodes[0] == pytest.approx(0.6)
        assert g.s_nodes[-1] == pytest.approx(1.4)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Grid2D(-0.1, 1.0, 0.0, 0.1, 9, 9, (1.0,), (10,))
        with pytest.raises(InvalidInputError):
            Grid2D(0.1, 1.0, 0.0, 0.1, 4, 9, (1.0,), (10,))
        with pytest.raises(InvalidInputError):
            Grid2D(0.1, 1.0, 0.2, 0.1, 9, 9, (1.0,), (10,))
        for maturities, steps in [((0.5, 0.5), (5, 5)), ((0.5, 1.0), (5, 0)), ((1.0,), (5, 5)),
                                  ((math.nan,), (5,)), ((), ())]:
            with pytest.raises(InvalidInputError, match="maturities"):
                Grid2D(0.1, 1.0, 0.0, 0.1, 9, 9, maturities, steps)

    @pytest.mark.parametrize("n_s, n_r, steps, name", [
        (40.5, 9, (10, 10), "n_s"), (9, 9.0, (10, 10), "n_r"), (True, 9, (10, 10), "n_s"),
        (9, 9, (20.5, 10), r"steps\[0\]"), (9, 9, (10, True), r"steps\[1\]"),
    ])
    def test_counts_must_be_integers(self, n_s, n_r, steps, name):
        # 20.5 steps would build and fail in np.repeat, True would march as one step
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
            Grid2D(0.1, 1.0, 0.0, 0.1, n_s, n_r, (0.5, 1.0), steps)
        g = Grid2D(0.1, 1.0, 0.0, 0.1, np.int64(9), np.int32(9), (0.5, 1.0), (np.int64(10), 10))
        assert g.n_t == 20

    def test_auto_grid_hits_requested_spacings(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.0156, dr=0.0026, dt=0.0099)
        assert g.ds == pytest.approx(0.0156, rel=0.02)
        assert g.dr == pytest.approx(0.0026, rel=0.02)
        assert g.dt == pytest.approx(0.0099, rel=0.02)
        assert g.s_min < set1_model.s0 < g.s_max
        assert g.r_min < set1_model.rate.r0 < g.r_max

    def test_maturity_fan_lies_on_the_steps(self, set1_model):
        mats = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
        one = auto_grid(set1_model, 2.0, ds=0.0156, dr=0.0026, dt=0.0099)
        fan = auto_grid(set1_model, mats, ds=0.0156, dr=0.0026, dt=0.0099)
        # each quarter takes round(0.25 / 0.0099) = 25 steps of exactly 0.01
        assert (one.n_t, fan.n_t, fan.steps) == (202, 200, (25,) * 8)
        assert fan.maturities == tuple(mats) and fan.dt == 0.01
        assert replace(fan, maturities=(2.0,), steps=(202,)) == one
        assert set(mats) <= set(fan.t_nodes)

    def test_intervals_take_their_own_steps(self):
        g = Grid2D.from_spacings(0.01, 3.0, -0.1, 0.14, [0.1234567891, 0.5, 1.0], 0.02, 0.003, 0.01)
        assert g.steps == (12, 38, 50) and g.n_t == 100
        assert g.dt == 0.1234567891 / 12
        nodes = g.t_nodes
        assert nodes.size == 101 and nodes[0] == 0.0 and np.all(np.diff(nodes) > 0)
        assert [nodes[12], nodes[50], nodes[100]] == [0.1234567891, 0.5, 1.0]
        assert nodes[13] == 0.1234567891 + (0.5 - 0.1234567891) / 38
        sizes = np.repeat([0.1234567891 / 12, (0.5 - 0.1234567891) / 38, 0.01], [12, 38, 50])
        assert np.allclose(np.diff(nodes), sizes, rtol=0, atol=1e-15)
        # a one-interval grid: step k ends at k * dt
        one = replace(g, maturities=(1.0,), steps=(101,))
        assert (one.maturities, one.steps) == ((1.0,), (101,))
        assert np.array_equal(one.t_nodes[:-1], np.arange(101) * (1.0 / 101))

    @pytest.mark.parametrize("mats", [[1.0, 0.5], [0.5, 0.5], [0.0, 1.0], [],
                                      [math.nan], [0.5, math.nan], [math.inf]])
    def test_maturities_must_be_positive_and_increasing(self, set1_model, mats):
        with pytest.raises(InvalidInputError):
            Grid2D.from_spacings(0.01, 3.0, -0.1, 0.14, mats, 0.02, 0.003, 0.01)


class TestCoefficients:
    def test_constant_vol_point_values(self, set1_model):
        g = _unit_grid()
        co = build_coefficients(set1_model, g, 0.0)
        i = 4  # S = 1.0
        j = 4  # r = 0.02
        assert co.diff_s[i, j] == pytest.approx(0.04)  # sigma^2 S^2
        assert co.cross[i, j] == pytest.approx(0.4 * 0.2 * 0.04)  # rho sigma S alpha
        assert co.diff_r[i, j] == pytest.approx(0.0016)  # alpha^2
        assert co.drift_s[i, j] == pytest.approx(0.02)  # r S
        assert co.drift_r[i, j] == pytest.approx(0.0, abs=1e-15)  # a (theta - r)
        assert co.reaction[i, j] == pytest.approx(0.04)  # 2 r

    def test_zero_correlation_kills_cross_term(self, set1_model):
        g = _unit_grid()
        co = build_coefficients(replace(set1_model, rho=0.0), g, 0.0)
        assert np.all(co.cross == 0.0)

    def test_diffusions_non_negative(self, hyperbolic_model):
        g = _unit_grid()
        co = build_coefficients(hyperbolic_model, g, 0.0)
        assert np.all(co.diff_s >= 0.0)
        assert np.all(co.diff_r >= 0.0)

    @pytest.mark.parametrize("kind", ["hyperbolic", "surface"])
    def test_terms_read_the_vol_at_the_nodes_alone(self, hyperbolic_model, kind):
        # a piecewise-linear surface with its kinks on spot nodes: the
        # terms are sigma at each node, with nothing of the kinks' curvature
        model = hyperbolic_model
        if kind == "surface":
            model = replace(model, vol=SurfaceVol([1.0], [0.8, 1.0, 1.2], [[0.3, 0.2, 0.25]]))
        g = _unit_grid()
        co = build_coefficients(model, g, 0.0)
        s, r = g.s_nodes[:, None], g.r_nodes[None, :]
        sig = np.asarray(model.vol.value(0.0, g.s_nodes))[:, None]
        p = model.rate
        assert np.allclose(co.diff_s, sig**2 * s**2, rtol=1e-14, atol=0)
        assert np.allclose(co.cross, model.rho * sig * s * p.sigma2, rtol=1e-14, atol=0)
        assert np.allclose(co.drift_s, r * s, rtol=1e-14, atol=0)
        assert np.allclose(co.drift_r, p.a * (p.theta - r), rtol=1e-14, atol=0)
        assert np.array_equal(co.reaction, np.broadcast_to(2.0 * r, co.reaction.shape))
        assert co.diff_r.shape == (g.n_s, g.n_r) and np.all(co.diff_r == p.sigma2**2)

    @pytest.mark.parametrize("term", ["spot", "rate", "cross", "whole"])
    def test_operator_is_second_order(self, hyperbolic_model, term):
        # The oracle's operator on a smooth bump, on nested grids of 32, 64
        # and 128 cells a side, compared at the coarse nodes: a second-order
        # stencil quarters the difference from one grid to the next.
        # Measured ratios: spot 3.89, rate 3.96, cross 3.76, whole 3.92; a
        # first-order term would read about 2.
        levels = []
        for cells in (32, 64, 128):
            g = Grid2D(0.05, 1.95, -0.12, 0.18, cells - 1, cells - 1, (1.0,), (10,))
            spot, rate, cross, reaction = flux_operator(build_coefficients(hyperbolic_model, g, 0.0), g)
            op = {"spot": spot, "rate": rate, "cross": cross,
                  "whole": spot + rate + cross - reaction}[term]
            s, r = np.meshgrid(g.s_nodes, g.r_nodes, indexing="ij")
            bump = np.exp(-((s - 1.0) / 0.2) ** 2 - ((r - 0.03) / 0.03) ** 2)
            k = cells // 32
            levels.append((op @ bump.ravel()).reshape(bump.shape)[k - 1::k, k - 1::k])
        coarse, mid, fine = levels
        ratio = np.abs(coarse - mid).max() / np.abs(mid - fine).max()
        assert 3.5 < ratio < 4.5


def _literal_step(field, co, dt):
    """Dense reference of one full step assembled directly from the two
    half-step equations on the oracle's operator matrices: the spot terms
    implicit in the first, the rate terms in the second, the reaction
    implicit in both and the cross term explicit in both."""
    spot, rate, cross, reaction = (m.toarray() for m in flux_operator(co, field.grid))
    two_dt = 2 / dt
    eye = two_dt * np.eye(spot.shape[0])
    u = field.values.ravel()
    half = np.linalg.solve(eye - spot + reaction, two_dt * u + rate @ u + cross @ u)
    out = np.linalg.solve(eye - rate + reaction, two_dt * half + spot @ half + cross @ half)
    return out.reshape(field.values.shape)


class TestAdiStep:
    def test_zero_field_stays_zero(self, set1_model):
        g = _unit_grid()
        co = build_coefficients(set1_model, g, 0.0)
        field = Field2D(g, np.zeros((g.n_s, g.n_r)))
        out = adi_step(field, co, g.dt)
        assert np.all(out.values == 0.0)
        assert out.t == pytest.approx(g.dt)

    def test_matches_literal_dense_assembly_on_impulse(self, set1_model):
        g = _unit_grid()
        co = build_coefficients(set1_model, g, 0.0)
        values = np.zeros((g.n_s, g.n_r))
        values[4, 4] = 1.0
        field = Field2D(g, values)
        fast = adi_step(field, co, g.dt)
        literal = _literal_step(field, co, g.dt)
        assert np.max(np.abs(fast.values - literal)) < 1e-12

    def test_matches_literal_dense_assembly_on_random_field(self, set1_model, rng):
        g = _unit_grid()
        co = build_coefficients(set1_model, g, 0.0)
        field = Field2D(g, rng.uniform(0.0, 1.0, (g.n_s, g.n_r)))
        fast = adi_step(field, co, g.dt)
        literal = _literal_step(field, co, g.dt)
        assert np.max(np.abs(fast.values - literal)) < 1e-11

    @pytest.mark.parametrize("kind, tol", [("impulse", 1e-12), ("random", 1e-11)])
    def test_matches_literal_dense_assembly_with_s_dependent_coefficients(
        self, hyperbolic_model, rng, kind, tol
    ):
        # S-dependent c1 and c3 and rho < 0, on lines longer than two blocks
        # of the scan; the second half-step's right-hand side comes from the
        # first one, the literal step builds it from its own S stencil.
        g = _unit_grid(n_s=40, n_r=35)
        co = build_coefficients(hyperbolic_model, g, 0.0)
        values = np.zeros((g.n_s, g.n_r))
        if kind == "impulse":
            values[20, 17] = 1.0
        else:
            values = rng.uniform(0.0, 1.0, values.shape)
        field = Field2D(g, values)
        fast = adi_step(field, co, g.dt)
        assert np.max(np.abs(fast.values - _literal_step(field, co, g.dt))) < tol

    @pytest.mark.parametrize("sigma2", [0.0, 1e-3])
    def test_matches_literal_dense_assembly_when_the_rate_drift_is_upwind(self, rng, sigma2):
        # A strong reversion far from theta makes the rate drift outweigh the
        # diffusion on every face of the rate line, so it is upwind there.
        # Centred, its one line would need row swaps; upwind, it keeps its
        # pivots, and both sweeps take the blocked scan.
        rate = HullWhiteParams(a=5.0, sigma2=sigma2, theta=0.3, r0=0.02)
        model = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.2), rho=0.4)
        g = _unit_grid()
        co = build_coefficients(model, g, 0.0)
        field = Field2D(g, rng.uniform(0.0, 1.0, (g.n_s, g.n_r)))
        fast = adi_step(field, co, g.dt)
        assert np.max(np.abs(fast.values - _literal_step(field, co, g.dt))) < 1e-12

    def test_matches_literal_dense_assembly_where_the_rate_drift_turns_upwind(self, rng):
        # theta mid-box: the faces near it keep the centred flux, those near
        # the box's ends go upwind, and the rows between take one of each
        rate = HullWhiteParams(a=5.0, sigma2=0.014, theta=0.02, r0=0.02)
        model = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.2), rho=0.4)
        g = _unit_grid()
        co = build_coefficients(model, g, 0.0)
        r_faces = g.r_min + g.dr * (np.arange(g.n_r + 1) + 0.5)
        peclet = np.abs(rate.a * (rate.theta - r_faces)) * g.dr / rate.sigma2**2
        assert peclet.min() < 1.0 < peclet.max()
        field = Field2D(g, rng.uniform(0.0, 1.0, (g.n_s, g.n_r)))
        fast = adi_step(field, co, g.dt)
        assert np.max(np.abs(fast.values - _literal_step(field, co, g.dt))) < 1e-12

    def test_one_step_mass_discounts(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.02, dr=0.003, dt=0.01)
        field = short_time_start(set1_model, g)
        co = build_coefficients(set1_model, g, field.t)
        out = adi_step(field, co, g.dt)
        assert np.all(np.isfinite(out.values))
        assert out.mass() < field.mass()
        assert out.mass() / field.mass() == pytest.approx(
            zc_price(set1_model.rate, g.dt), abs=5e-3
        )


class TestOneLineSolver:
    """Every line of a step operator factors without row swaps."""

    @given(
        a=st.floats(0.01, 5.0),
        sigma2=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
        theta=st.floats(-0.05, 0.3),
        r0=st.floats(-0.05, 0.15),
        sigma1=st.floats(0.05, 0.4),
        ds=st.floats(0.02, 0.05),
        dr=st.floats(1e-3, 0.01),
        dt=st.floats(0.002, 0.1),
    )
    @settings(max_examples=40, deadline=None)
    def test_both_sweeps_take_the_blocked_scan(self, a, sigma2, theta, r0, sigma1, ds, dr, dt):
        # The domain: a Hull-White rate with a in [0.01, 5], sigma2 in
        # {0} or [1e-4, 0.05], theta in [-0.05, 0.3] and r0 in [-0.05, 0.15];
        # a constant spot vol in [0.05, 0.4]; the auto-sized box of T = 0.5
        # at ds in [0.02, 0.05], dr in [1e-3, 0.01] and dt in [0.002, 0.1].
        rate = HullWhiteParams(a=a, sigma2=sigma2, theta=theta, r0=r0)
        model = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(sigma1), rho=0.4)
        g = auto_grid(model, 0.5, ds=ds, dr=dr, dt=dt)
        # a line the scan cannot factor raises SingularSystemError
        _StepOperator(build_coefficients(model, g, 0.0), g, g.dt)


class TestBandStep:
    """The band passes of the step operator against :func:`slice_step`."""

    @staticmethod
    def _model(kind, set1_model, hyperbolic_model):
        if kind == "hyperbolic":
            return hyperbolic_model
        if kind == "surface":
            surface = SurfaceVol([0.5, 1.0], [0.6, 1.0, 1.4], [[0.3, 0.2, 0.15], [0.28, 0.21, 0.17]])
            return replace(set1_model, vol=surface)
        if kind == "rho0":
            return replace(set1_model, rho=0.0)
        return set1_model

    @pytest.mark.parametrize("kind, n_s, n_r", [
        ("constant", 40, 35),
        ("hyperbolic", 40, 35),
        ("surface", 40, 35),
        ("rho0", 40, 35),
        ("constant", 8, 8),
    ])
    def test_matches_slice_step_bit_for_bit(self, set1_model, hyperbolic_model, rng,
                                            kind, n_s, n_r):
        model = self._model(kind, set1_model, hyperbolic_model)
        g = _unit_grid(n_s=n_s, n_r=n_r)
        co = build_coefficients(model, g, 0.0)
        op = _StepOperator(co, g, g.dt)
        values = rng.uniform(0.0, 1.0, (n_s, n_r))
        first = op.apply(values)
        kept = first.copy()
        second = op.apply(first)
        # the second apply reuses the operator's buffers, not the first result
        assert np.array_equal(first, kept)
        once = slice_step(co, g, g.dt, values)
        assert np.array_equal(first, once)
        twice = slice_step(co, g, g.dt, once)
        assert np.array_equal(second, twice)
        # in place, as the march updates its field: two steps in a row
        field = values.copy()
        assert op.apply(field, out=field) is field
        assert np.array_equal(field, once)
        op.apply(field, out=field)
        assert np.array_equal(field, twice)


class TestTiledWeights:
    """The rate-only weights as tiles of k spot rows against full bands."""

    K = 32  # spot rows in the tile of the synthetic band below

    @pytest.mark.parametrize("rows, extra", [
        (3 * K, 0),  # whole tiles: no remainder
        (3 * K + 5, -2),  # a band's length: a remainder of under k rows
        (K - 3, -2),  # n_s < k: the remainder alone
    ])
    def test_tiled_product_is_the_full_band_product_bit_for_bit(self, rng, rows, extra):
        row = 12
        tile = rng.uniform(-1.0, 1.0, self.K * row)
        tile.reshape(-1, row)[:, -2:] = 0.0  # the ghost columns, as the operator rolls them
        band = rng.uniform(-1.0, 1.0, rows * row + extra)
        band[::7] = 0.0  # zeros of both signs in the products
        out = np.full_like(band, np.nan)
        assert _tiled_multiply(band, tile, out) is out
        full = np.multiply(band, np.resize(tile, band.size))
        assert out.tobytes() == full.tobytes()

    @pytest.mark.parametrize("n_s, n_r, rows", [
        (170, 120, 50),  # bshw_rho_neg_2y: 50 rows of 122 hold 6,100 entries
        (372, 253, 24),  # calibration_roundtrip: 24 rows of 255 hold 6,120
        (40, 35, 40),  # 163 rows of 37 would be needed: capped at n_s
    ])
    def test_a_tile_is_the_fewest_whole_rows_that_hold_its_entries(self, n_s, n_r, rows):
        row = n_r + 2
        assert _tile_rows(n_s, row) == rows
        assert rows == n_s or (rows - 1) * row < _TILE_ENTRIES <= rows * row

    @pytest.mark.parametrize("n_s", [8, 40])
    def test_tiles_hold_the_rate_line_rolled_onto_the_band(self, set1_model, n_s):
        g = _unit_grid(n_s=n_s, n_r=35)
        op = _StepOperator(build_coefficients(set1_model, g, 0.0), g, g.dt)
        row = g.n_r + 2
        for tile in (op.w1_c, op.w1_jp, op.w1_jm, op.kappa):
            assert tile.shape == (_tile_rows(n_s, row) * row,)
            lines = tile.reshape(-1, row)
            assert np.array_equal(lines, np.broadcast_to(lines[0], lines.shape))
            # band entry b reads column (b + 1) % row: the ghosts sit last and first
            line = np.roll(lines[0], 1)
            assert line[0] == line[-1] == 0.0 and np.all(line[1:-1] != 0.0)


class TestMemory:
    """What the march holds, counted by tracemalloc (which sees numpy's
    allocations) in full-size arrays of (n_s + 2)(n_r + 2) doubles."""

    @staticmethod
    def _traced(g, call):
        """The bytes ``call()`` leaves allocated and its peak, in full-size arrays."""
        tracemalloc.start()
        try:
            result = call()  # noqa: F841 (what it keeps stays alive until counted)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full = 8 * (g.n_s + 2) * (g.n_r + 2)
        return kept / full, peak / full

    def test_step_operator_keeps_its_factors_and_padded_arrays(self, set1_model):
        g = _unit_grid(n_s=100, n_r=80)
        co = build_coefficients(set1_model, g, 0.0)
        kept, peak = self._traced(g, lambda: _StepOperator(co, g, g.dt))
        # Measured 16.35: the factors of the spot sweep (5.5, rows padded to
        # blocks of 16), the rate sweep's factors copied out over the spot
        # nodes (3.0, its block weights one line each), the one work buffer
        # of both sweeps and the scratch (1.07), the cross weight wx and the
        # padded field and right-hand side (3), the four rate-only weights as
        # tiles of 74 of the 102 padded rows (2.9, 6,068 entries each), and
        # the sweeps' block buffers and per-row views (0.9). Margin: a quarter
        # of an array, less than either block weight of the rate sweep copied
        # out, or a second work buffer, would add.
        assert kept < 16.6
        # Measured 0.08: the spot stencil is freed before the arrays the
        # operator keeps are allocated (alive to the end, it adds 2).
        assert peak - kept < 0.5

    def test_one_buffer_serves_both_sweeps_and_the_scratch(self, set1_model, rng):
        g = _unit_grid(n_s=40, n_r=35)
        co = build_coefficients(set1_model, g, 0.0)
        op = _StepOperator(co, g, g.dt)
        work = op.lu1.work
        assert np.shares_memory(work, op.lu2.work) and np.shares_memory(work, op._tmp)
        # every solve overwrites the ring that the cross term reads, so each
        # cross term must zero it again: three steps in place, as the march
        field = rng.uniform(0.0, 1.0, (g.n_s, g.n_r))
        want = field.copy()
        for _ in range(3):
            op.apply(field, out=field)
            want = slice_step(co, g, g.dt, want)
            assert np.array_equal(field, want)

    def _march_peak(self, model, monkeypatch, snapshot_times, dt=0.05, on_snapshot=None):
        """Peak of a march of 409 x 300 nodes to t = 0.5, whose operator is
        built beforehand: numpy's fixed-size ufunc buffers are small beside a
        field."""
        import hybridlv.pde as pde_mod

        g = auto_grid(model, 0.5, ds=0.005, dr=0.001, dt=dt)
        start = short_time_start(model, g)
        op = _StepOperator(build_coefficients(model, g, start.t), g, g.dt)
        monkeypatch.setattr(pde_mod, "_StepOperator", lambda coeffs, grid, dt: op)
        _, peak = self._traced(g, lambda: evolve(
            model, g, snapshot_times=snapshot_times, start=start, on_snapshot=on_snapshot))
        return peak

    def test_march_holds_one_field_beyond_its_start(self, set1_model, monkeypatch):
        peak = self._march_peak(set1_model, monkeypatch, [])
        # Measured 1.13: the field (n_s n_r doubles) with its sign mask (an
        # eighth), as much as the coefficient build before the first step.
        # A march that allocates its field at every step holds two. Margin:
        # a third of an array.
        assert peak < 1.45

    def test_march_hands_its_field_over_as_the_horizon_snapshot(self, set1_model, monkeypatch):
        peak = self._march_peak(set1_model, monkeypatch, None)
        # Measured 1.13, as a march without snapshots: the field itself is
        # the snapshot at the horizon. A copy of it would make 1.98. Margin:
        # a third of an array.
        assert peak < 1.45

    def test_a_read_march_holds_one_field_however_many_snapshots(self, set1_model, monkeypatch):
        # 20 steps of 0.025; a snapshot at each of the last 4 or 16 step times
        def peaks(on_snapshot):
            return [self._march_peak(set1_model, monkeypatch, [0.5 - 0.025 * i for i in range(n)],
                                     dt=0.025, on_snapshot=on_snapshot) for n in (4, 16)]

        masses = []
        few, many = peaks(lambda snap: masses.append(snap.mass()))
        assert len(masses) == 20
        # Measured 1.99 and 1.98: the field and the one copy the reader
        # holds. Margin: half an array.
        assert abs(many - few) < 0.5
        # The list keeps every snapshot: measured 4.10 and 15.97, an array
        # more per snapshot time.
        few, many = peaks(None)
        assert many - few > 11.0


class TestEvolve:
    def test_march_completes_when_the_rate_drift_is_upwind(self):
        # deterministic rates far from theta on a coarse step: centred, the
        # rate line would need row swaps; upwind, both sweeps take the scan
        rate = HullWhiteParams(a=0.5, sigma2=0.0, theta=0.06, r0=0.0)
        model = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.2), rho=0.4)
        g = auto_grid(model, 1.0, ds=0.02, dr=5e-4, dt=0.1)
        assert (g.n_s, g.n_r) == (137, 70)
        last = evolve(model, g).snapshots[-1]
        assert last.t == 1.0 and np.all(np.isfinite(last.values))
        assert last.mass() == pytest.approx(zc_price(rate, 1.0), rel=1e-12)

    def test_mass_identity_every_step(self, set1_model):
        g = auto_grid(set1_model, 0.5, ds=0.02, dr=0.003, dt=0.01)
        steps = [t for t in g.t_nodes if t > short_time_start(set1_model, g).t]
        res = evolve(set1_model, g, snapshot_times=steps)
        assert [snap.t for snap in res.snapshots] == res.diagnostics.times
        post = np.array([snap.mass() for snap in res.snapshots])
        target = np.asarray(res.diagnostics.target_mass)
        assert np.max(np.abs(post / target - 1.0)) < 1e-12
        for snap in res.snapshots:
            assert snap.mass() == pytest.approx(zc_price(set1_model.rate, snap.t), rel=1e-12)

    def test_raw_mass_ratio_stays_close(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.02, dr=0.003, dt=0.01)
        res = evolve(set1_model, g)
        assert res.diagnostics.max_ratio_deviation() < 0.05

    @pytest.mark.parametrize("ds, dr, dt", [
        (0.02, 0.003, 0.01),
        (0.0156, 0.0026, 0.0099),  # the grid of configs/bshw_rho_pos.yaml
    ])
    def test_negative_mass_is_negligible(self, set1_model, ds, dr, dt):
        g = auto_grid(set1_model, 1.0, ds=ds, dr=dr, dt=dt)
        res = evolve(set1_model, g)
        assert max(res.diagnostics.negative_mass_ratio) < 1e-3

    @pytest.mark.parametrize("case", ["round-off", "lobe", "none"])
    def test_step_health_matches_its_definition(self, set1_model, case):
        # evolve sums the negatives of the field it holds after each step;
        # the oracle sums them over each step's snapshot
        model = replace(set1_model, rho=0.0) if case == "none" else set1_model
        if case == "round-off":
            # the bshw_rho_pos grid: round-off negatives only
            g = auto_grid(model, 0.25, ds=0.0156, dr=0.0026, dt=0.0099)
            start = short_time_start(model, g)
        elif case == "none":
            # without the cross term no step leaves a negative value
            g = auto_grid(model, 0.25, ds=0.02, dr=0.003, dt=0.01)
            start = short_time_start(model, g)
        else:
            g = auto_grid(model, 0.04, ds=0.02, dr=0.003, dt=0.01)
            s = g.s_nodes[:, None]
            r = g.r_nodes[None, :]
            bump = np.exp(-((s - 0.95) ** 2 + (r - 0.02) ** 2) / 0.002)
            lobe = np.exp(-((s - 1.12) ** 2 + (r - 0.02) ** 2) / 0.001)
            start = Field2D(g, bump - 0.3 * lobe, t=0.0)
        steps = [t for t in g.t_nodes if t > start.t]
        res = evolve(model, g, snapshot_times=steps, start=start)
        ratios = step_health(res.snapshots, model.rate)
        assert len(ratios) == len(res.diagnostics.times) == len(steps)
        # bit for bit, so a step without negatives reads +0.0, not -0.0
        assert np.array(res.diagnostics.negative_mass_ratio).tobytes() == np.array(ratios).tobytes()
        if case == "none":
            assert max(ratios) == 0.0
        else:
            assert min(ratios) > 0.0  # every step leaves negatives

    @pytest.mark.parametrize("sigma2, gate", [
        # Measured 5.8e-9 and 1.2e-7 (0.18 and 3.4e-2 with the rate drift
        # centred on every face). Margin: about twice the measured value.
        (0.002, 1e-8),
        (0.005, 2.5e-7),
    ])
    def test_a_small_rate_vol_leaves_no_negative_mass(self, sigma2, gate):
        # theta far from r0 on the bshw_rho_pos spacings (175 x 32 nodes):
        # the faces far from theta are upwind
        rate = HullWhiteParams(a=0.5, sigma2=sigma2, theta=0.06, r0=0.0)
        model = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.2), rho=0.4)
        g = auto_grid(model, 1.0, ds=0.0156, dr=0.0026, dt=0.0099)
        assert (g.n_s, g.n_r) == (175, 32)
        res = evolve(model, g)
        assert max(res.diagnostics.negative_mass_ratio) < gate
        assert not res.diagnostics.warnings
        # Measured 3.2e-5 and 3.0e-5 (3.2e-5 and 2.6e-5 centred).
        strikes = np.round(np.arange(0.5, 1.5001, 0.05), 10)
        prices = price_calls_from_pz(res.snapshots[-1], strikes)
        closed = np.array([bshw_call(model, 1.0, k).price for k in strikes])
        assert np.max(np.abs(prices - closed)) < 5e-4

    def test_deterministic_rates_leave_no_negative_mass(self):
        # sigma2 = 0: every face but one at theta is upwind. Centred, the
        # march read 0.86-1.07; at dt = 0.1 it still reads 0.20, from the
        # explicit half-step, whose upwind weight |a (theta - r)| / dr
        # outweighs 2 / dt there.
        rate = HullWhiteParams(a=0.5, sigma2=0.0, theta=0.06, r0=0.0)
        model = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.2), rho=0.4)
        g = auto_grid(model, 1.0, ds=0.02, dr=5e-4, dt=0.01)
        assert (g.n_s, g.n_r) == (137, 70)
        ratios = evolve(model, g).diagnostics.negative_mass_ratio
        assert len(ratios) == 96 and all(math.copysign(1.0, x) == 1.0 for x in ratios)
        assert max(ratios) == 0.0

    def test_resume_from_another_box_rejected(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.02, dr=0.003, dt=0.01)
        first = evolve(set1_model, g, snapshot_times=[0.5]).snapshots[0]
        wider = Grid2D(g.s_min, 2.0 * g.s_max, g.r_min, g.r_max, g.n_s, g.n_r,
                       g.maturities, g.steps)
        moved = Field2D(wider, first.values, t=first.t)
        with pytest.raises(InvalidInputError, match="box"):
            evolve(set1_model, g, start=moved)
        # only the horizon may differ from the grid the field was marched on
        longer = evolve(set1_model, replace(g, maturities=(2.0,), steps=(2 * g.n_t,)), start=first)
        assert longer.snapshots[-1].t == pytest.approx(2.0)

    def test_deterministic_rerun_is_bit_identical(self, set2_model):
        g = auto_grid(set2_model, 1.0, ds=0.03, dr=0.004, dt=0.02)
        a = evolve(set2_model, g).snapshots[-1].values
        b = evolve(set2_model, g).snapshots[-1].values
        assert np.array_equal(a, b)

    def test_resume_agrees_with_single_march(self, set1_model):
        _assert_resume_is_exact(set1_model)

    def test_resume_agrees_with_single_march_under_piecewise_vol(self, set1_model):
        _assert_resume_is_exact(replace(set1_model, vol=SurfaceVol(*_TWO_SLICES)))

    def test_cached_operator_matches_per_step_rebuild(self, set1_model, monkeypatch):
        cached = replace(set1_model, vol=SurfaceVol(*_TWO_SLICES))
        rebuilt = replace(set1_model, vol=RebuiltEveryStep(*_TWO_SLICES))
        g = auto_grid(cached, 1.0, ds=0.02, dr=0.003, dt=0.01)
        builds = _count_builds(monkeypatch)
        a = evolve(cached, g, snapshot_times=[0.5, 1.0])
        assert len(builds) == 2
        assert builds[1] == pytest.approx(0.5)
        builds.clear()
        b = evolve(rebuilt, g, snapshot_times=[0.5, 1.0])
        assert len(builds) == len(b.diagnostics.times)
        for x, y in zip(a.snapshots, b.snapshots):
            assert np.array_equal(x.values, y.values)

    def test_time_independent_model_builds_once(self, hyperbolic_model, monkeypatch):
        g = auto_grid(hyperbolic_model, 0.5, ds=0.03, dr=0.004, dt=0.02)
        builds = _count_builds(monkeypatch)
        evolve(hyperbolic_model, g)
        assert len(builds) == 1

    def test_operator_rebuilt_where_the_step_size_changes(self, set1_model, monkeypatch):
        g = replace(auto_grid(set1_model, [0.25, 1.0], ds=0.03, dr=0.004, dt=0.01), steps=(25, 50))
        builds = _count_builds(monkeypatch)
        full = evolve(set1_model, g, snapshot_times=[0.25, 1.0])
        assert builds[1:] == [0.25]
        assert full.diagnostics.times[-51:-49] == [0.25, 0.25 + 0.75 / 50]
        # the march to 0.25 on the first interval alone, resumed on both
        first = evolve(set1_model, replace(g, maturities=(0.25,), steps=(25,))).snapshots[-1]
        resumed = evolve(set1_model, g, start=first)
        assert np.array_equal(resumed.snapshots[-1].values, full.at(1.0).values)

    def test_zero_start_field_rejected(self, set1_model):
        g = auto_grid(set1_model, 0.1, ds=0.03, dr=0.004, dt=0.01)
        with pytest.raises(InvalidInputError, match="start field mass must be positive"):
            evolve(set1_model, g, start=Field2D(g, np.zeros((g.n_s, g.n_r)), t=g.dt))

    def test_resume_at_the_horizon_takes_no_step(self, set1_model):
        g = auto_grid(set1_model, 0.1, ds=0.03, dr=0.004, dt=0.01)
        last = evolve(set1_model, g).snapshots[-1]
        again = evolve(set1_model, g, start=last)
        assert again.diagnostics.times == [] and again.diagnostics.start_time == last.t
        assert len(again.snapshots) == 1
        assert np.array_equal(again.snapshots[0].values, last.values)
        assert again.diagnostics.max_ratio_deviation() == 0.0

    def test_resumed_march_leaves_its_start_unchanged(self, set1_model):
        g = auto_grid(set1_model, 0.2, ds=0.03, dr=0.004, dt=0.01)
        start = evolve(set1_model, g, snapshot_times=[0.1]).snapshots[0]
        before = start.values.copy()
        res = evolve(set1_model, g, snapshot_times=[0.1, 0.2], start=start)
        assert np.array_equal(start.values, before)
        # the snapshot at the start step is a copy, not the start's array
        assert np.array_equal(res.snapshots[0].values, before)
        assert not np.shares_memory(res.snapshots[0].values, start.values)
        res.snapshots[0].values[:] = 0.0
        assert np.array_equal(start.values, before)

    def test_a_reader_takes_the_snapshots_the_list_holds(self, set1_model):
        # a resumed start at a wanted time: its copy is read first
        g = auto_grid(set1_model, 0.2, ds=0.03, dr=0.004, dt=0.01)
        start = evolve(set1_model, g, snapshot_times=[0.1]).snapshots[0]
        times = [0.2, 0.1, 0.15, 0.12]
        listed = evolve(set1_model, g, snapshot_times=times, start=start)
        read = []
        streamed = evolve(set1_model, g, snapshot_times=times, start=start, on_snapshot=read.append)
        assert streamed.snapshots == []
        assert [snap.t for snap in read] == [snap.t for snap in listed.snapshots]
        assert [snap.t for snap in read] == pytest.approx([0.1, 0.12, 0.15, 0.2])
        # a kept snapshot is the reader's own: no later step changes it
        for got, want in zip(read, listed.snapshots):
            assert np.array_equal(got.values, want.values)
        assert not np.shares_memory(read[0].values, start.values)
        assert streamed.diagnostics == listed.diagnostics

    def test_a_reader_that_raises_stops_the_march(self, set1_model, monkeypatch):
        import hybridlv.pde as pde_mod

        steps = []
        apply = pde_mod._StepOperator.apply

        def counted(op, values, out=None):
            steps.append(op)
            return apply(op, values, out=out)

        class Stop(Exception):
            pass

        read = []

        def reader(snap):
            read.append(snap.t)
            if len(read) == 2:
                raise Stop

        monkeypatch.setattr(pde_mod._StepOperator, "apply", counted)
        g = auto_grid(set1_model, 0.2, ds=0.03, dr=0.004, dt=0.01)
        with pytest.raises(Stop):
            evolve(set1_model, g, snapshot_times=[0.05, 0.1, 0.2], on_snapshot=reader)
        assert read == pytest.approx([0.05, 0.1])
        # not one step past the snapshot that raised
        step_of = lambda t: int(np.argmin(np.abs(g.t_nodes - t)))  # noqa: E731
        assert len(steps) == step_of(0.1) - step_of(short_time_start(set1_model, g).t)

    def test_bad_snapshot_time_rejected(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.02, dr=0.003, dt=0.01)
        with pytest.raises(InvalidInputError):
            evolve(set1_model, g, snapshot_times=[0.5037])

    def test_snapshots_come_one_per_step_time_in_step_order(self, set1_model):
        g = auto_grid(set1_model, 0.1, ds=0.03, dr=0.004, dt=0.01)
        start = short_time_start(set1_model, g)
        assert start.t < 0.05
        res = evolve(set1_model, g, snapshot_times=[0.08, start.t, 0.05, 0.08, start.t])
        assert [snap.t for snap in res.snapshots] == pytest.approx([start.t, 0.05, 0.08])
        assert np.array_equal(res.snapshots[0].values, start.values)
        last = evolve(set1_model, g, snapshot_times=[0.08]).snapshots
        assert len(last) == 1 and np.array_equal(res.snapshots[-1].values, last[0].values)

    def test_field_comparable_to_closed_form(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.02, dr=0.003, dt=0.01)
        res = evolve(set1_model, g, snapshot_times=[1.0])
        s, r = np.meshgrid(g.s_nodes, g.r_nodes, indexing="ij")
        ana = analytic_pz(set1_model, 1.0, s, r)
        zc = zc_price(set1_model.rate, 1.0)
        l1 = np.abs(res.snapshots[-1].values - ana).sum() * g.ds * g.dr / zc
        assert l1 < 2e-2

    def test_non_finite_march_raises_with_its_step(self, set1_model):
        # the explicit cross term at rho = 0.4 grows a checkerboard mode on
        # this 710x293x202 grid until its raw mass turns negative
        g = auto_grid(set1_model, 1.0, ds=0.0039, dr=0.0013, dt=0.00495)
        assert (g.n_s, g.n_r, g.n_t) == (710, 293, 202)
        with pytest.raises(PdeBlowUpError) as blow_up:
            evolve(set1_model, g)
        assert blow_up.value.step == 198
        assert blow_up.value.t == pytest.approx(0.980198, abs=1e-6)
        assert blow_up.value.raw_mass < 0
        assert str(blow_up.value).startswith(
            f"non-positive raw mass {blow_up.value.raw_mass:.6g} at step 198"
        )

    def test_nan_in_the_field_raises_with_its_step(self, set1_model, monkeypatch):
        g = auto_grid(set1_model, 0.5, ds=0.03, dr=0.004, dt=0.02)
        n0 = round(short_time_start(set1_model, g).t / g.dt)
        steps = []
        apply = _StepOperator.apply

        def poisoned(op, values, out=None):
            out = apply(op, values, out)
            steps.append(n0 + len(steps) + 1)
            if len(steps) == 3:
                out[g.n_s // 2, g.n_r // 2] = np.nan
            return out

        monkeypatch.setattr(_StepOperator, "apply", poisoned)
        with pytest.raises(PdeBlowUpError, match=r"^non-finite raw mass nan at step") as blow_up:
            evolve(set1_model, g)
        assert len(steps) == 3
        assert blow_up.value.step == n0 + 3
        assert blow_up.value.t == pytest.approx((n0 + 3) * g.dt)

    def test_nearly_deterministic_rates_reduce_to_one_dimension(self):
        rate = HullWhiteParams(a=0.5, sigma2=1e-8, theta=0.02, r0=0.02)
        m = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.2), rho=0.0)
        g = auto_grid(m, 1.0, ds=0.01, dr=0.002, dt=0.01)
        res = evolve(m, g, snapshot_times=[1.0])
        field = res.snapshots[-1]
        # rate marginal pinned at the start rate
        r_marginal = field.values.sum(axis=0)
        j_peak = int(np.argmax(r_marginal))
        j_r0 = int(np.argmin(np.abs(g.r_nodes - 0.02)))
        assert abs(j_peak - j_r0) <= 3
        # spot marginal close to the flat-rate lognormal density
        s_marginal = field.values.sum(axis=1) * g.dr / math.exp(-0.02)
        density = lognormal_density(g.s_nodes, 1.0, 0.02, 0.2, 1.0)
        l1 = np.abs(s_marginal - density).sum() * g.ds
        assert l1 < 5e-2


class TestFieldAccuracy:
    """Gates of the forward operator against closed forms on bundled grids."""

    def test_bundled_2y_prices_match_closed_form(self, set2_model):
        # the grid of configs/bshw_rho_neg_2y.yaml; 9.8e-5 measured, where
        # the expanded C1..C6 operator read 2.29e-4
        g = auto_grid(set2_model, 2.0, ds=0.025, dr=0.0037, dt=0.019)
        field = evolve(set2_model, g).snapshots[-1]
        strikes = np.round(np.arange(0.5, 1.5001, 0.05), 10)
        closed = np.array([bshw_call(set2_model, 2.0, k).price for k in strikes])
        assert np.max(np.abs(price_calls_from_pz(field, strikes) - closed)) <= 1.2e-4

    def test_rate_marginal_closed_form_is_analytic_pz_over_the_spot(self, set1_model, set2_model):
        for model, maturity in ((set1_model, 1.0), (set2_model, 2.0)):
            y = np.linspace(-3.0, 3.0, 4001)  # log S, about 12 sd each way
            r = np.linspace(-0.1, 0.14, 13)
            ys, rs = np.meshgrid(y, r, indexing="ij")
            # the integrand vanishes at both ends, so the trapezoid is the sum
            integral = (analytic_pz(model, maturity, np.exp(ys), rs) * np.exp(ys)).sum(axis=0)
            integral *= y[1] - y[0]
            assert np.allclose(integral, rate_marginal(model.rate, maturity, r), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind, ds, dr", [
        ("constant", 0.0156, 0.0026),  # configs/bshw_rho_pos.yaml
        ("hyperbolic", 0.012, 0.002),  # configs/hyperbolic_hw_rho_neg.yaml
    ])
    def test_rate_marginal_matches_closed_form(self, set1_model, hyperbolic_model, kind, ds, dr):
        # The rate marginal of the field is ZC(0, T) N(r; m - c, v) under
        # every local vol. L1 over ZC measured 8.5e-5 and 8.7e-5; the
        # expanded C1..C6 operator read 6.7e-4 and 3.2e-4.
        model = hyperbolic_model if kind == "hyperbolic" else set1_model
        g = auto_grid(model, 1.0, ds=ds, dr=dr, dt=0.0099)
        field = evolve(model, g).snapshots[-1]
        marginal = field.values.sum(axis=0) * g.ds
        closed = rate_marginal(model.rate, 1.0, g.r_nodes)
        l1 = np.abs(marginal - closed).sum() * g.dr / zc_price(model.rate, 1.0)
        assert l1 <= 2e-4

    @pytest.mark.parametrize("kind, rho, ds, dr, measured", [
        ("constant", 0.4, 0.0156, 0.0026, -2.14e-5),  # configs/bshw_rho_pos.yaml
        ("hyperbolic", -0.3, 0.012, 0.002, -1.98e-6),  # configs/hyperbolic_hw_rho_neg.yaml
        ("hyperbolic", 0.3, 0.012, 0.002, -2.09e-5),  # configs/hyperbolic_hw_rho_pos.yaml
    ])
    def test_discounted_spot_is_a_martingale(self, set1_model, hyperbolic_model,
                                             kind, rho, ds, dr, measured):
        # E[D(T) S(T)] = S0 under every local vol, so the integral of S times
        # the field at T = 1 misses S0 by the scheme's error alone. Gate:
        # twice the measured miss.
        model = replace(hyperbolic_model if kind == "hyperbolic" else set1_model, rho=rho)
        g = auto_grid(model, 1.0, ds=ds, dr=dr, dt=0.0099)
        field = evolve(model, g).snapshots[-1]
        miss = integrate(field, lambda s, r: s) - model.s0
        assert abs(miss) <= 2.0 * abs(measured)

    def test_discounted_spot_is_a_martingale_under_a_calibrated_surface(self):
        # configs/calibration_roundtrip.yaml calibrated, and the surface it
        # returns marched to T = 1 at the calibration spacings (346 x 253 x
        # 200). Measured miss -1.116e-5, as under the generating flat vol on
        # the same box (-1.117e-5). Gate: twice the measured miss.
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                          / "calibration_roundtrip.yaml")
        model = cfg.build_model()
        cb = cfg.run_block["calibration"]
        settings = CalibrationSettings(ds=float(cb["ds"]), dr=float(cb["dr"]), dt=float(cb["dt"]))
        market = make_analytic_surface(model, cfg.maturities(), cfg.strikes())
        calibrated = replace(model, vol=calibrate(market, model, settings).surface)
        assert isinstance(calibrated.vol, SurfaceVol)
        g = auto_grid(calibrated, 1.0, settings.ds, settings.dr, settings.dt)
        miss = integrate(evolve(calibrated, g).snapshots[-1], lambda s, r: s) - model.s0
        assert abs(miss) <= 2.0 * 1.116e-5


class TestCraigSneydTarget:
    """The modified Craig-Sneyd step (theta = 1/3) of :func:`oracles.mcs_march`,
    the second-order step the engine's Peaceman-Rachford step is to give
    way to: its order in time and a long march it finishes.

    Prices are read at 13 strikes F exp(z 0.2 sqrt(T)), z evenly spaced
    from -1.5 to 1.5, F = S0 / ZC(0, T).
    """

    @staticmethod
    def _prices(model, grid, start):
        t = grid.t_end
        forward = model.s0 / zc_price(model.rate, t)
        strikes = forward * np.exp(np.linspace(-1.5, 1.5, 13) * 0.2 * math.sqrt(t))
        return strikes, price_calls_from_pz(mcs_march(model, grid, start), strikes)

    @pytest.mark.parametrize("kind", ["constant", "hyperbolic"])
    def test_step_is_second_order_in_time(self, set1_model, hyperbolic_model, kind):
        # The bshw_rho_pos and hyperbolic_hw_rho_neg models at bshw_rho_pos's
        # spacings (177 x 146 and 180 x 146), one start for every march.
        # Measured: max |P(25) - P(50)| / max |P(50) - P(100)| reads 4.017
        # (2.06e-6 / 5.13e-7) and 4.019; the engine's step reads 2.0.
        model = set1_model if kind == "constant" else hyperbolic_model
        grids = [auto_grid(model, 1.0, ds=0.0156, dr=0.0026, dt=1.0 / n) for n in (25, 50, 100)]
        start = short_time_start(model, grids[0])
        p25, p50, p100 = (self._prices(model, g, start)[1] for g in grids)
        assert 3.5 < np.max(np.abs(p25 - p50)) / np.max(np.abs(p50 - p100)) < 4.5

    @pytest.mark.parametrize("rho", [0.4, -0.4])
    def test_long_march_matches_closed_form(self, set1_model, rho):
        # Measured 3.76e-5 at rho = 0.4 and 1.20e-4 at -0.4 (1.61e-5 and
        # 2.85e-5 at bshw_rho_pos's spacings, 657 x 183 x 505). On this grid
        # the engine's own march raises PdeBlowUpError at step 236 (rho = 0.4)
        # or ends 2.4 off the closed form with one warning (rho = -0.4).
        model = replace(set1_model, rho=rho)
        g = auto_grid(model, 5.0, ds=0.03, dr=0.005, dt=0.02)
        assert (g.n_s, g.n_r, g.n_t) == (341, 95, 250)
        strikes, prices = self._prices(model, g, short_time_start(model, g))
        closed = np.array([bshw_call(model, 5.0, k).price for k in strikes])
        assert np.max(np.abs(prices - closed)) <= 5e-4


class TestShortTimeStart:
    def test_starts_on_the_step_lattice_with_discount_mass(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.0156, dr=0.0026, dt=0.0099)
        field = short_time_start(set1_model, g)
        steps = field.t / g.dt
        assert steps == pytest.approx(round(steps), abs=1e-9)
        assert field.mass() == pytest.approx(zc_price(set1_model.rate, field.t), rel=1e-12)

    def test_width_is_resolvable(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.0156, dr=0.0026, dt=0.0099)
        field = short_time_start(set1_model, g)
        sd_s = set1_model.s0 * 0.2 * math.sqrt(field.t)
        assert sd_s >= 2.0 * g.ds

    def test_first_maturity_before_the_resolvable_start(self, set1_model):
        # two cells of spot deviation need t = 0.0243, three steps of 0.01;
        # the start stays within the first quarter of the first interval
        g = auto_grid(set1_model, [0.02, 1.0], ds=0.0156, dr=0.0026, dt=0.01)
        res = evolve(set1_model, g, snapshot_times=[0.02, 1.0])
        assert res.diagnostics.start_time == 0.01
        assert [snap.t for snap in res.snapshots] == [0.02, 1.0]
        assert res.at(1.0).mass() == pytest.approx(zc_price(set1_model.rate, 1.0), rel=1e-12)

    def test_zero_spot_vol_starts_one_step_in(self):
        # no spot width to resolve: the start is the first step, and the
        # march keeps its mass on ZC(0, t) from there
        rate = HullWhiteParams(a=0.5, sigma2=0.04, theta=0.02, r0=0.02)
        model = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.0), rho=0.4)
        g = auto_grid(model, 0.25, ds=0.02, dr=0.003, dt=0.01)
        res = evolve(model, g, snapshot_times=g.t_nodes[1:])
        assert res.diagnostics.start_time == g.dt
        assert [snap.t for snap in res.snapshots] == pytest.approx(g.t_nodes[1:].tolist())
        for snap in res.snapshots:
            assert snap.mass() == pytest.approx(zc_price(rate, snap.t), rel=1e-12)

    @pytest.mark.parametrize("box", [
        (1.0, 2.0, -0.1, 0.1),  # S0 on the lower spot edge
        (0.2, 0.9, -0.1, 0.1),  # S0 above the box
        (0.5, 1.5, 0.02, 0.1),  # r0 on the lower rate edge
        (0.5, 1.5, -0.1, 0.0),  # r0 above the box
    ])
    def test_box_must_hold_the_start(self, set1_model, box):
        g = Grid2D(*box, 20, 20, (0.5,), (50,))
        with pytest.raises(InvalidInputError) as err:
            short_time_start(set1_model, g)
        assert str(err.value) == (
            f"grid box S in ({box[0]:g}, {box[1]:g}), r in ({box[2]:g}, {box[3]:g}) "
            "does not hold the start (S0=1, r0=0.02)")


class TestIntegrate:
    def test_unit_weight_is_discount(self, set1_model):
        g = auto_grid(set1_model, 0.5, ds=0.02, dr=0.003, dt=0.01)
        field = evolve(set1_model, g, snapshot_times=[0.5]).snapshots[-1]
        got = integrate(field, lambda s, r: np.ones_like(s))
        assert got == pytest.approx(zc_price(set1_model.rate, 0.5), rel=1e-12)

    def test_spot_weight_recovers_initial_spot(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.0156, dr=0.0026, dt=0.0099)
        s, r = np.meshgrid(g.s_nodes, g.r_nodes, indexing="ij")
        ana = Field2D(g, analytic_pz(set1_model, 1.0, s, r), t=1.0)
        got = integrate(ana, lambda s, r: s)
        assert got == pytest.approx(set1_model.s0, rel=2e-3)

    def test_rate_weight_vanishes_on_evolved_field(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.0156, dr=0.0026, dt=0.0099)
        field = evolve(set1_model, g, snapshot_times=[1.0]).snapshots[-1]
        f0t = forward_rate(set1_model.rate, 1.0)
        got = integrate(field, lambda s, r: r - f0t)
        assert abs(got) < 5e-4

    def test_non_finite_weight_rejected(self, set1_model):
        g = _unit_grid()
        field = Field2D(g, np.ones((g.n_s, g.n_r)))
        with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(InvalidInputError):
            integrate(field, lambda s, r: np.log(s - 1.0))
