import math
from dataclasses import replace

import numpy as np
import pytest

from hybridlv.analytic import analytic_pz
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
    Field2D,
    Grid2D,
    _StepOperator,
    auto_grid,
    build_coefficients,
    evolve,
    short_time_start,
)

from .oracles import (
    RebuiltEveryStep,
    adi_step,
    integrate,
    lognormal_density,
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
        one = g.with_horizon(1.0, 101)
        assert (one.maturities, one.steps) == ((1.0,), (101,))
        assert np.array_equal(one.t_nodes[:-1], np.arange(101) * (1.0 / 101))

    @pytest.mark.parametrize("mats", [[1.0, 0.5], [0.5, 0.5], [0.0, 1.0], []])
    def test_maturities_must_be_positive_and_increasing(self, set1_model, mats):
        with pytest.raises(InvalidInputError):
            Grid2D.from_spacings(0.01, 3.0, -0.1, 0.14, mats, 0.02, 0.003, 0.01)


class TestCoefficients:
    def test_constant_vol_point_values(self, set1_model):
        g = _unit_grid()
        co = build_coefficients(set1_model, g, 0.0)
        i = 4  # S = 1.0
        j = 4  # r = 0.02
        assert co.c1[i, j] == pytest.approx(0.02 - 2 * 0.04)
        assert co.c2[i, j] == pytest.approx(-0.4 * 0.2 * 0.04)
        assert co.c3[i, j] == pytest.approx(-0.02)
        assert co.c4[i, j] == pytest.approx(-0.0008)
        assert co.c5[i, j] == pytest.approx(-0.0032)
        assert co.c6[i, j] == pytest.approx(2 * 0.02 - 0.5 - 0.04)

    def test_zero_correlation_kills_cross_term(self, set1_model):
        g = _unit_grid()
        co = build_coefficients(replace(set1_model, rho=0.0), g, 0.0)
        assert np.all(co.c5 == 0.0)

    def test_second_order_coefficients_non_positive(self, hyperbolic_model):
        g = _unit_grid()
        co = build_coefficients(hyperbolic_model, g, 0.0)
        assert np.all(co.c3 <= 0.0)
        assert np.all(co.c4 <= 0.0)

    def test_hyperbolic_drift_matches_difference_slope(self, hyperbolic_model):
        # rebuild C1 replacing the analytic vol slope with central differences
        g = _unit_grid()
        co = build_coefficients(hyperbolic_model, g, 0.0)
        s = g.s_nodes
        h = 1e-6
        vol = hyperbolic_model.vol
        sig = np.asarray(vol.value(0.0, s))
        fd_slope = (np.asarray(vol.value(0.0, s + h)) - np.asarray(vol.value(0.0, s - h))) / (2 * h)
        c1_fd = g.r_nodes[None, :] * s[:, None] - 2 * s[:, None] * sig[:, None] ** 2 \
            - 2 * s[:, None] ** 2 * sig[:, None] * fd_slope[:, None]
        assert np.max(np.abs(c1_fd - co.c1)) < 1e-5

    def test_expansion_matches_divergence_form_symbolically(self):
        sympy = pytest.importorskip("sympy")
        s, r, rho = sympy.symbols("s r rho")
        sig = sympy.Function("sigma")(s)
        alpha = sympy.Function("alpha")(r)
        mu = sympy.Function("mu")(r)
        u = sympy.Function("u")(s, r)
        divergence = (
            sympy.diff(r * s * u, s)
            + sympy.diff(mu * u, r)
            - sympy.Rational(1, 2) * sympy.diff(s**2 * sig**2 * u, s, 2)
            - sympy.Rational(1, 2) * sympy.diff(alpha**2 * u, r, 2)
            - rho * sympy.diff(alpha * sig * s * u, s, r)
            + r * u
        )
        sig_s, sig_ss = sympy.diff(sig, s), sympy.diff(sig, s, 2)
        al_r, al_rr = sympy.diff(alpha, r), sympy.diff(alpha, r, 2)
        c1 = r * s - 2 * s * sig**2 - 2 * s**2 * sig * sig_s - rho * sig * s * al_r
        c2 = mu - rho * sig * alpha - rho * sig_s * s * alpha - 2 * alpha * al_r
        c3 = -s**2 * sig**2 / 2
        c4 = -(alpha**2) / 2
        c5 = -rho * sig * s * alpha
        c6 = (
            2 * r + sympy.diff(mu, r) - sig**2 - 4 * s * sig * sig_s
            - sig_s**2 * s**2 - sig * sig_ss * s**2
            - al_r**2 - alpha * al_rr - rho * sig_s * s * al_r - rho * sig * al_r
        )
        expansion = (
            c1 * sympy.diff(u, s) + c2 * sympy.diff(u, r)
            + c3 * sympy.diff(u, s, 2) + c4 * sympy.diff(u, r, 2)
            + c5 * sympy.diff(u, s, r) + c6 * u
        )
        assert sympy.simplify(sympy.expand(divergence - expansion)) == 0


def _literal_step(field, co, dt):
    """Dense reference of one full step assembled directly from the two
    half-step equations (implicit S sweep, then implicit r sweep)."""
    g = field.grid
    ds, dr = g.ds, g.dr
    n_s, n_r = g.n_s, g.n_r
    u = np.zeros((n_s + 2, n_r + 2))
    u[1:-1, 1:-1] = field.values
    half = np.zeros_like(field.values)
    for j in range(1, n_r + 1):
        a = np.zeros(n_s)
        b = np.zeros(n_s)
        c = np.zeros(n_s)
        f = np.zeros(n_s)
        for i in range(1, n_s + 1):
            c1, c2 = co.c1[i - 1, j - 1], co.c2[i - 1, j - 1]
            c3, c4 = co.c3[i - 1, j - 1], co.c4[i - 1, j - 1]
            c5, c6 = co.c5[i - 1, j - 1], co.c6[i - 1, j - 1]
            a[i - 1] = -c1 / (2 * ds) + c3 / ds**2
            b[i - 1] = 2 / dt - 2 * c3 / ds**2 + c6
            c[i - 1] = c1 / (2 * ds) + c3 / ds**2
            cross = u[i + 1, j + 1] + u[i - 1, j - 1] - u[i - 1, j + 1] - u[i + 1, j - 1]
            f[i - 1] = (
                u[i, j] * (2 / dt + 2 * c4 / dr**2)
                - u[i, j + 1] * (c2 / (2 * dr) + c4 / dr**2)
                + u[i, j - 1] * (c2 / (2 * dr) - c4 / dr**2)
                - c5 * cross / (4 * ds * dr)
            )
        from .oracles import dense_tridiagonal_solve

        half[:, j - 1] = dense_tridiagonal_solve(a, b, c, f)
    v = np.zeros((n_s + 2, n_r + 2))
    v[1:-1, 1:-1] = half
    out = np.zeros_like(field.values)
    for i in range(1, n_s + 1):
        d = np.zeros(n_r)
        e = np.zeros(n_r)
        fdiag = np.zeros(n_r)
        f2 = np.zeros(n_r)
        for j in range(1, n_r + 1):
            c1, c2 = co.c1[i - 1, j - 1], co.c2[i - 1, j - 1]
            c3, c4 = co.c3[i - 1, j - 1], co.c4[i - 1, j - 1]
            c5, c6 = co.c5[i - 1, j - 1], co.c6[i - 1, j - 1]
            d[j - 1] = -c2 / (2 * dr) + c4 / dr**2
            e[j - 1] = 2 / dt - 2 * c4 / dr**2 + c6
            fdiag[j - 1] = c2 / (2 * dr) + c4 / dr**2
            cross = v[i + 1, j + 1] + v[i - 1, j - 1] - v[i - 1, j + 1] - v[i + 1, j - 1]
            f2[j - 1] = (
                v[i, j] * (2 / dt + 2 * c3 / ds**2)
                - v[i + 1, j] * (c1 / (2 * ds) + c3 / ds**2)
                + v[i - 1, j] * (c1 / (2 * ds) - c3 / ds**2)
                - c5 * cross / (4 * ds * dr)
            )
        from .oracles import dense_tridiagonal_solve

        out[i - 1, :] = dense_tridiagonal_solve(d, e, fdiag, f2)
    return out


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
        op = _StepOperator(co, g, g.dt)
        assert op.lu1.scan is not None and op.lu2.scan is not None
        fast = adi_step(field, co, g.dt)
        assert np.max(np.abs(fast.values - _literal_step(field, co, g.dt))) < tol

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
        assert np.array_equal(second, slice_step(co, g, g.dt, once))


class TestEvolve:
    def test_mass_identity_every_step(self, set1_model):
        g = auto_grid(set1_model, 0.5, ds=0.02, dr=0.003, dt=0.01)
        res = evolve(set1_model, g, snapshot_times=[0.25, 0.5])
        post = np.asarray(res.diagnostics.post_mass)
        target = np.asarray(res.diagnostics.target_mass)
        assert np.max(np.abs(post / target - 1.0)) < 1e-12
        for snap in res.snapshots:
            assert snap.mass() == pytest.approx(zc_price(set1_model.rate, snap.t), rel=1e-12)

    def test_raw_mass_ratio_stays_close(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.02, dr=0.003, dt=0.01)
        res = evolve(set1_model, g)
        assert res.diagnostics.max_ratio_deviation() < 0.05

    def test_negative_mass_is_negligible(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.02, dr=0.003, dt=0.01)
        res = evolve(set1_model, g)
        assert max(res.diagnostics.negative_mass_ratio) < 1e-3

    def test_bundled_constant_vol_march_has_no_negative_nodes(self, set1_model):
        # the grid of configs/bshw_rho_pos.yaml; its sweeps leave round-off
        # near -1e-15 on a few percent of the nodes, which must not count
        g = auto_grid(set1_model, 1.0, ds=0.0156, dr=0.0026, dt=0.0099)
        res = evolve(set1_model, g)
        assert max(res.diagnostics.negative_fraction) == 0.0

    def test_negative_lobe_is_counted(self, set1_model):
        g = auto_grid(set1_model, 0.04, ds=0.02, dr=0.003, dt=0.01)
        s = g.s_nodes[:, None]
        r = g.r_nodes[None, :]
        bump = np.exp(-((s - 0.95) ** 2 + (r - 0.02) ** 2) / 0.002)
        lobe = np.exp(-((s - 1.12) ** 2 + (r - 0.02) ** 2) / 0.001)
        start = Field2D(g, bump - 0.3 * lobe, t=0.0)
        res = evolve(set1_model, g, start=start)
        end = res.snapshots[-1].values
        expected = np.mean(end < -1e-10 * end.max())
        assert 0.005 < expected < 0.2
        assert res.diagnostics.negative_fraction[-1] == expected

    @pytest.mark.parametrize("case", ["round-off", "lobe"])
    def test_step_health_matches_its_definition(self, set1_model, case):
        # evolve counts the fraction among the negatives it already gathers
        # for their mass; the oracle counts over the whole field
        if case == "round-off":
            # the bshw_rho_pos grid: round-off negatives, none under the floor
            g = auto_grid(set1_model, 0.25, ds=0.0156, dr=0.0026, dt=0.0099)
            start = short_time_start(set1_model, g)
        else:
            g = auto_grid(set1_model, 0.04, ds=0.02, dr=0.003, dt=0.01)
            s = g.s_nodes[:, None]
            r = g.r_nodes[None, :]
            bump = np.exp(-((s - 0.95) ** 2 + (r - 0.02) ** 2) / 0.002)
            lobe = np.exp(-((s - 1.12) ** 2 + (r - 0.02) ** 2) / 0.001)
            start = Field2D(g, bump - 0.3 * lobe, t=0.0)
        steps = [t for t in g.t_nodes if t > start.t]
        res = evolve(set1_model, g, snapshot_times=steps, start=start)
        fractions, ratios = step_health(res.snapshots, set1_model.rate)
        assert len(fractions) == len(res.diagnostics.times) == len(steps)
        assert res.diagnostics.negative_fraction == fractions
        assert res.diagnostics.negative_mass_ratio == ratios
        assert min(ratios) > 0.0  # every step leaves negatives
        if case == "round-off":
            assert max(fractions) == 0.0
        else:
            assert min(fractions) > 0.0

    def test_resume_from_another_box_rejected(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.02, dr=0.003, dt=0.01)
        first = evolve(set1_model, g, snapshot_times=[0.5]).snapshots[0]
        wider = Grid2D(g.s_min, 2.0 * g.s_max, g.r_min, g.r_max, g.n_s, g.n_r,
                       g.maturities, g.steps)
        moved = Field2D(wider, first.values, t=first.t)
        with pytest.raises(InvalidInputError, match="box"):
            evolve(set1_model, g, start=moved)
        # only the horizon may differ from the grid the field was marched on
        longer = evolve(set1_model, g.with_horizon(2.0, 2 * g.n_t), start=first)
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

    def test_bad_snapshot_time_rejected(self, set1_model):
        g = auto_grid(set1_model, 1.0, ds=0.02, dr=0.003, dt=0.01)
        with pytest.raises(InvalidInputError):
            evolve(set1_model, g, snapshot_times=[0.5037])

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

        def poisoned(op, values):
            out = apply(op, values)
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
