import math
from dataclasses import replace

import numpy as np
import pytest

from hybridlv.analytic import analytic_z, bshw_call, bshw_moments
from hybridlv.errors import InvalidInputError, McAbortedError, NoDataError
from hybridlv.models import ConstantVol, HullWhiteParams, HybridModel, SurfaceVol, zc_price
from hybridlv.montecarlo import (
    McConfig,
    _iter_batches,
    _normals,
    conditional_z_estimate,
    simulate_paths,
)

from .oracles import integer_route_normals, two_pass_batches


def _call_payoff(strike):
    return lambda s, r, acc: np.exp(-acc) * np.maximum(s - strike, 0.0)


class TestSimulatePaths:
    def test_deterministic_dynamics_are_exact(self):
        rate = HullWhiteParams(a=0.5, sigma2=0.0, theta=0.02, r0=0.02)
        m = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.0), rho=0.0)
        cfg = McConfig(n_paths=64, dt_mc=1.0 / 50.0, seed=1)
        est = simulate_paths(m, 1.0, cfg, [_call_payoff(0.9)])[0]
        expect = max(1.0 * math.exp(0.02) - 0.9, 0.0) * math.exp(-0.02)
        assert est.mean == pytest.approx(expect, rel=1e-12)
        assert est.standard_error == pytest.approx(0.0, abs=1e-14)

    def test_call_price_within_three_errors(self, set1_model):
        cfg = McConfig(n_paths=60000, dt_mc=1.0 / 300.0, seed=99)
        est = simulate_paths(set1_model, 1.0, cfg, [_call_payoff(1.0)])[0]
        ana = bshw_call(set1_model, 1.0, 1.0).price
        assert abs(est.mean - ana) <= 3.0 * est.standard_error

    def test_seed_determinism(self, set1_model):
        cfg = McConfig(n_paths=20000, dt_mc=1.0 / 100.0, seed=7)
        a = simulate_paths(set1_model, 1.0, cfg, [_call_payoff(1.0)])[0]
        b = simulate_paths(set1_model, 1.0, cfg, [_call_payoff(1.0)])[0]
        assert a.mean == b.mean
        assert a.standard_error == b.standard_error

    def test_antithetic_reduces_error(self, set1_model):
        paired = McConfig(n_paths=30000, dt_mc=1.0 / 100.0, seed=5, antithetic=True)
        plain = McConfig(n_paths=60000, dt_mc=1.0 / 100.0, seed=5, antithetic=False)
        se_paired = simulate_paths(set1_model, 1.0, paired, [_call_payoff(1.0)])[0].standard_error
        se_plain = simulate_paths(set1_model, 1.0, plain, [_call_payoff(1.0)])[0].standard_error
        assert se_paired <= se_plain

    @pytest.mark.parametrize("which", ["set1", "set2"])
    def test_martingale_and_discount_identities(self, which, set1_model, set2_model):
        m = set1_model if which == "set1" else set2_model
        t = 1.0 if which == "set1" else 2.0
        cfg = McConfig(n_paths=60000, dt_mc=1.0 / 300.0, seed=31)
        mart, disc = simulate_paths(
            m, t, cfg,
            [lambda s, r, acc: np.exp(-acc) * s, lambda s, r, acc: np.exp(-acc)],
        )
        assert abs(mart.mean - m.s0) <= 4.0 * mart.standard_error
        assert abs(disc.mean - zc_price(m.rate, t)) <= 4.0 * disc.standard_error

    def test_aborts_on_widespread_non_finite_paths(self, set1_model, monkeypatch):
        import hybridlv.montecarlo as mc_mod

        original = mc_mod._batch_terminals

        def poisoned(model, maturity, cfg, rng, n):
            s, r, acc = original(model, maturity, cfg, rng, n)
            s[:: 2] = np.nan
            return s, r, acc

        monkeypatch.setattr(mc_mod, "_batch_terminals", poisoned)
        cfg = McConfig(n_paths=10000, dt_mc=0.1, seed=3)
        with pytest.raises(McAbortedError):
            mc_mod.simulate_paths(set1_model, 1.0, cfg, [_call_payoff(1.0)])

    @pytest.mark.parametrize(
        "legs, pairs, aborts",
        [("both", 15, True), ("both", 10, False), ("plus", 15, False)],
    )
    def test_abort_counts_non_finite_paths_of_each_leg(
        self, set1_model, monkeypatch, legs, pairs, aborts
    ):
        # 100k pairs are 200k paths, so the 0.01% limit is 20 paths
        import hybridlv.montecarlo as mc_mod

        original = mc_mod._batch_terminals

        def poisoned(model, maturity, cfg, rng, n):
            s, r, acc = original(model, maturity, cfg, rng, n)
            s[:pairs] = np.nan
            if legs == "both":
                acc[n : n + pairs] = np.inf
            return s, r, acc

        monkeypatch.setattr(mc_mod, "_batch_terminals", poisoned)
        cfg = McConfig(n_paths=100_000, dt_mc=0.1, seed=3, batch_size=100_000)
        run = lambda: mc_mod.simulate_paths(set1_model, 1.0, cfg, [_call_payoff(1.0)])  # noqa: E731
        if aborts:
            with pytest.raises(McAbortedError, match="30 of 200000"):
                run()
        else:
            assert run()[0].n_effective == cfg.n_paths - pairs

    @pytest.mark.parametrize(
        "model_name, overrides",
        [
            ("set1_model", {}),
            ("hyperbolic_model", {}),
            ("set1_model", dict(n_paths=2500, batch_size=1000)),
            ("set1_model", dict(antithetic=False)),
        ],
        ids=["log-exact", "hyperbolic", "ragged-batches", "plain"],
    )
    def test_one_draw_stepper_matches_two_pass_route(self, request, model_name, overrides):
        model = request.getfixturevalue(model_name)
        cfg = replace(McConfig(n_paths=1500, dt_mc=1.0 / 50.0, seed=11, batch_size=1000), **overrides)
        batches = list(_iter_batches(model, 1.0, cfg))
        reference = list(two_pass_batches(model, 1.0, cfg))
        assert len(batches) == len(reference) == -(-cfg.n_paths // cfg.batch_size)
        for (terminals, n), (plus, minus) in zip(batches, reference):
            for got, want in zip(terminals, plus):
                assert np.array_equal(got[:n], want)
            if minus is None:
                assert len(terminals[0]) == n
            else:
                for got, want in zip(terminals, minus):
                    assert np.array_equal(got[n:], want)

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_scalar_vol_steps_like_a_flat_per_path_vol(self, set1_model, antithetic):
        # ConstantVol.value is one float and the stepper forms its vol terms
        # once per step; a flat SurfaceVol gives one vol per path
        flat = replace(set1_model, vol=SurfaceVol([0.5, 1.0], [0.8, 1.2], [[0.2, 0.2], [0.2, 0.2]]))
        assert np.ndim(set1_model.vol.value(0.0, np.ones(3))) == 0
        assert np.shape(flat.vol.value(0.0, np.ones(3))) == (3,)
        cfg = McConfig(n_paths=2500, dt_mc=1.0 / 50.0, seed=17, batch_size=1000, antithetic=antithetic)
        for (got, n), (want, n_flat) in zip(_iter_batches(set1_model, 1.0, cfg), _iter_batches(flat, 1.0, cfg)):
            assert n == n_flat
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        payoffs = [_call_payoff(0.9), _call_payoff(1.1)]
        assert simulate_paths(set1_model, 1.0, cfg, payoffs) == simulate_paths(flat, 1.0, cfg, payoffs)

    @pytest.mark.parametrize("maturity", [0.0, -1.0, math.nan, math.inf])
    def test_maturity_that_cannot_run_rejected(self, set1_model, maturity):
        # NaN and inf used to fail in int() with ValueError or OverflowError
        cfg = McConfig(n_paths=10, dt_mc=0.1)
        with pytest.raises(InvalidInputError, match="maturity must be positive and finite"):
            simulate_paths(set1_model, maturity, cfg, [_call_payoff(1.0)])

    def test_invalid_config_rejected(self):
        with pytest.raises(InvalidInputError):
            McConfig(n_paths=0, dt_mc=0.01)
        with pytest.raises(InvalidInputError):
            McConfig(n_paths=10, dt_mc=-0.1)

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (dict(batch_size=0), "batch size"),
            (dict(batch_size=-3), "batch size"),
            (dict(dt_mc=0.0), "Euler step"),
            (dict(dt_mc=math.nan), "Euler step"),
            (dict(dt_mc=math.inf), "Euler step"),
        ],
    )
    def test_step_or_batch_that_cannot_run_rejected(self, overrides, named):
        # a zero batch never finished the batch loop; a NaN step failed on
        # int(nan) and an infinite one ran one step of the whole maturity
        with pytest.raises(InvalidInputError, match=named):
            McConfig(**{"n_paths": 10, "dt_mc": 0.1, **overrides})


class TestNormals:
    @pytest.mark.parametrize("n", [1, 1000, 65536])
    @pytest.mark.parametrize("seed", [0, 11, 2024])
    def test_draw_matches_the_bounded_integer_route(self, seed, n):
        rng, twin = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
        buf = np.empty((2, n))
        got = _normals(rng, buf)
        assert got is buf
        assert np.array_equal(got, integer_route_normals(twin, (2, n)))
        # both routes consumed the stream alike
        assert np.array_equal(rng.integers(0, 1 << 53, 8), twin.integers(0, 1 << 53, 8))

    @pytest.mark.parametrize(
        "k", [0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1]
    )
    def test_shifted_uniform_is_the_cell_midpoint(self, k):
        # both sides round (2k + 1) * 2**-54 once, ties to even at k >= 2**52.
        # k = 2**53 - 1 gives u = 1.0 on both routes and ndtri(1.0) = inf; the
        # pair holding it is dropped as non-finite (probability 2**-53 a draw)
        u = np.float64(k) * 2.0**-53 + 2.0**-54
        assert u == (np.float64(k) + 0.5) * 2.0**-53
        assert (u == 1.0) == (k == 2**53 - 1)


class TestMomentsAgainstSimulation:
    def test_sample_moments_match_closed_forms(self, set1_model):
        # gather raw terminal samples through the batch iterator
        cfg = McConfig(n_paths=1000000, dt_mc=1.0 / 300.0, seed=2024, antithetic=False)
        ys, rs, accs = [], [], []
        for (s, r, acc), _ in _iter_batches(set1_model, 1.0, cfg):
            ys.append(np.log(s))
            rs.append(r)
            accs.append(acc)
        y = np.concatenate(ys)
        r = np.concatenate(rs)
        acc = np.concatenate(accs)
        n = len(y)
        mom = bshw_moments(set1_model, 1.0)

        def check_mean(sample, expect):
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - expect) <= 4.0 * se

        check_mean(y, mom.mu_y)
        check_mean(r, mom.mu_r)
        check_mean(acc, mom.mu_R)

        def check_var(sample, expect):
            got = sample.var(ddof=1)
            se = got * math.sqrt(2.0 / (n - 1))
            assert abs(got - expect) <= 4.0 * se

        check_var(y, mom.sigma_y)
        check_var(r, mom.sigma_r)
        check_var(acc, mom.sigma_R)

        def check_cov(a, b, expect):
            got = np.cov(a, b)[0, 1]
            se = math.sqrt((a.var(ddof=1) * b.var(ddof=1) + got**2) / n)
            assert abs(got - expect) <= 4.0 * se

        check_cov(y, r, mom.sigma_yr[0, 1])
        check_cov(y, acc, mom.sigma_yrR[0])
        check_cov(r, acc, mom.sigma_yrR[1])


class TestConditionalZ:
    def test_deterministic_rates_have_flat_projection(self):
        rate = HullWhiteParams(a=0.5, sigma2=0.0, theta=0.02, r0=0.02)
        m = HybridModel(s0=1.0, rate=rate, vol=ConstantVol(0.2), rho=0.0)
        cfg = McConfig(n_paths=20000, dt_mc=1.0 / 100.0, seed=8)
        for est in conditional_z_estimate(m, 1.0, cfg, [(0.9, 0.02), (1.1, 0.02)], 0.05):
            assert est.value == pytest.approx(math.exp(-0.02), rel=1e-12)
            # spread is pure cancellation noise in the weighted-variance sums
            assert est.standard_error < 1e-9

    def test_matches_projection_at_bulk_center(self, set1_model):
        cfg = McConfig(n_paths=250000, dt_mc=1.0 / 300.0, seed=2025)
        est = conditional_z_estimate(set1_model, 1.0, cfg, [(1.0, 0.02)], 0.02)[0]
        ana = analytic_z(set1_model, 1.0, 1.0, 0.02)
        assert est.reliable
        assert abs(est.value - ana) <= 3.0 * est.standard_error

    def test_thin_region_flagged_unreliable(self, set1_model):
        cfg = McConfig(n_paths=20000, dt_mc=1.0 / 100.0, seed=4)
        est = conditional_z_estimate(set1_model, 1.0, cfg, [(1.9, 0.13)], 0.02)[0]
        assert not est.reliable

    def test_empty_region_raises(self, set1_model):
        cfg = McConfig(n_paths=5000, dt_mc=1.0 / 100.0, seed=4)
        with pytest.raises(NoDataError):
            conditional_z_estimate(set1_model, 1.0, cfg, [(60.0, 3.0)], 0.005)

    @pytest.mark.parametrize("poisoned_paths, aborts", [(slice(None, None, 2), True), (slice(0, 2), False)])
    def test_aborts_on_widespread_non_finite_paths(self, set1_model, monkeypatch, poisoned_paths, aborts):
        # 20k paths: the 0.01% limit is 2 paths
        import hybridlv.montecarlo as mc_mod

        original = mc_mod._batch_terminals

        def poisoned(model, maturity, cfg, rng, n):
            s, r, acc = original(model, maturity, cfg, rng, n)
            r[poisoned_paths] = np.nan
            return s, r, acc

        monkeypatch.setattr(mc_mod, "_batch_terminals", poisoned)
        # one batch, so the poison hits 2 paths in all
        cfg = McConfig(n_paths=20000, dt_mc=0.1, seed=4, batch_size=20000)
        run = lambda: mc_mod.conditional_z_estimate(set1_model, 1.0, cfg, [(1.0, 0.02)], 0.05)  # noqa: E731
        if aborts:
            with pytest.raises(McAbortedError):
                run()
        else:
            assert run()[0].reliable

    def test_bandwidth_must_be_positive(self, set1_model):
        cfg = McConfig(n_paths=100, dt_mc=0.1)
        with pytest.raises(InvalidInputError):
            conditional_z_estimate(set1_model, 1.0, cfg, [(1.0, 0.02)], 0.0)

    @pytest.mark.parametrize("maturity, centers, bandwidth, named", [
        (math.nan, [(1.0, 0.02)], 0.05, "maturity"),
        (math.inf, [(1.0, 0.02)], 0.05, "maturity"),
        (-1.0, [(1.0, 0.02)], 0.05, "maturity"),
        (1.0, [(1.0, 0.02)], math.nan, "bandwidth"),
        (1.0, [(1.0, 0.02)], math.inf, "bandwidth"),
        (1.0, [(1.0, math.nan)], 0.05, "center"),
        (1.0, [(math.inf, 0.02)], 0.05, "center"),
        (1.0, [(0.0, 0.02)], 0.05, "center"),
    ])
    def test_bad_kernel_inputs_rejected(self, set1_model, maturity, centers, bandwidth, named):
        # a negative maturity failed in math.sqrt, a NaN bandwidth or center
        # rate returned a NaN estimate
        cfg = McConfig(n_paths=100, dt_mc=0.1)
        with pytest.raises(InvalidInputError, match=named):
            conditional_z_estimate(set1_model, maturity, cfg, centers, bandwidth)
