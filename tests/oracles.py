"""Independent reference computations used only by the tests.

Everything here is built from a different route than the production code:
dense linear algebra and a scalar Thomas loop instead of the batched line
solves, ODE/quadrature integration instead of closed forms, textbook
Black-Scholes with the stdlib error function, finite differences of the
closed-form price, a full-grid trapezoid instead of the single-pass
marginal integrals, and Gaussian-calculus identities for the corrective
term. Expected values in the tests are frozen from these oracles.
:func:`adi_step` is the one exception: it runs the production step
operator once, for tests that check a single step. :func:`slice_step`
shares the production line solves and checks only the explicit stencils.
:class:`RebuiltEveryStep` shares the production surface and drops only its
operator caching.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import ndtri

from hybridlv.analytic import bshw_call
from hybridlv.errors import InvalidInputError, SingularSystemError
from hybridlv.linalg import thomas_apply, thomas_prefactor
from hybridlv.models import SurfaceVol, zc_price
from hybridlv.pde import Field2D, _StepOperator

_PIVOT_FLOOR = 1e-300


def dense_tridiagonal_solve(lower, main, upper, rhs):
    """Assemble the dense matrix and solve with LAPACK."""
    n = len(main)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = main[i]
        if i > 0:
            a[i, i - 1] = lower[i]
        if i < n - 1:
            a[i, i + 1] = upper[i]
    return np.linalg.solve(a, np.asarray(rhs, dtype=float))


@dataclass(frozen=True)
class TridiagonalSystem:
    """System a_i x_{i-1} + b_i x_i + c_i x_{i+1} = f_i with zero end closures.

    ``lower[0]`` and ``upper[-1]`` are ignored.
    """

    lower: np.ndarray
    main: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        n = len(self.main)
        if not (len(self.lower) == len(self.upper) == len(self.rhs) == n):
            raise InvalidInputError("tridiagonal arrays must have equal length")
        if n == 0:
            raise InvalidInputError("empty tridiagonal system")


def solve_tridiagonal(sys: TridiagonalSystem) -> np.ndarray:
    """Thomas elimination. Raises :class:`SingularSystemError` on a zero pivot."""
    a = np.asarray(sys.lower, dtype=float)
    b = np.asarray(sys.main, dtype=float)
    c = np.asarray(sys.upper, dtype=float)
    f = np.asarray(sys.rhs, dtype=float)
    n = len(b)
    cp = np.empty(n)
    dp = np.empty(n)
    piv = b[0]
    if abs(piv) <= _PIVOT_FLOOR:
        raise SingularSystemError("zero pivot at row 0")
    cp[0] = c[0] / piv
    dp[0] = f[0] / piv
    for i in range(1, n):
        piv = b[i] - a[i] * cp[i - 1]
        if abs(piv) <= _PIVOT_FLOOR:
            raise SingularSystemError(f"zero pivot at row {i}")
        cp[i] = c[i] / piv
        dp[i] = (f[i] - a[i] * dp[i - 1]) / piv
    x = dp
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


def adi_step(field, coeffs, dt):
    """Advance the field by one full step (two directional half-sweeps)."""
    op = _StepOperator(coeffs, field.grid, dt)
    return Field2D(field.grid, op.apply(field.values), t=field.t + dt)


def slice_step(coeffs, grid, dt, values):
    """One full step with the explicit stencils on 2-d slices of the padded
    field, and allocating solves.

    The weights, the operations and their order per node are those of the
    band passes of ``_StepOperator``; only the memory walk differs (numpy
    runs a strided 2-d slice one row at a time).
    """
    ds, dr = grid.ds, grid.dr
    ds2, dr2 = ds * ds, dr * dr
    c1, c2, c3, c4, c5, c6 = (
        coeffs.c1, coeffs.c2, coeffs.c3, coeffs.c4, coeffs.c5, coeffs.c6,
    )
    two_dt = 2.0 / dt
    lu1 = thomas_prefactor(
        -c1 / (2 * ds) + c3 / ds2, two_dt - 2 * c3 / ds2 + c6, c1 / (2 * ds) + c3 / ds2, axis=0
    )
    lu2 = thomas_prefactor(
        -c2 / (2 * dr) + c4 / dr2, two_dt - 2 * c4 / dr2 + c6, c2 / (2 * dr) + c4 / dr2, axis=1
    )
    w1_c = two_dt + 2 * c4 / dr2
    w1_jp = -(c2 / (2 * dr) + c4 / dr2)
    w1_jm = c2 / (2 * dr) - c4 / dr2
    kappa = 2 * two_dt + c6
    wx = -c5 / (4 * ds * dr)

    def cross(padded):
        out = padded[2:, 2:] + padded[:-2, :-2]
        out -= padded[:-2, 2:]
        out -= padded[2:, :-2]
        out *= wx
        return out

    pad = np.zeros((grid.n_s + 2, grid.n_r + 2))
    pad[1:-1, 1:-1] = values
    rhs = values * w1_c
    rhs += pad[1:-1, 2:] * w1_jp
    rhs += pad[1:-1, :-2] * w1_jm
    rhs += cross(pad)
    pad[1:-1, 1:-1] = thomas_apply(lu1, rhs)
    rhs = pad[1:-1, 1:-1] * kappa - rhs
    rhs += cross(pad)
    return thomas_apply(lu2, rhs)


def step_health(snapshots, rate):
    """Per-step (negative_fraction, negative_mass_ratio) of a march, by
    their definitions, from one snapshot per step: the share of all nodes
    below -1e-10 times the field's peak (a full-field count), and the mass
    of all negative values over ZC(0, t)."""
    fractions, ratios = [], []
    for snap in snapshots:
        v = snap.values
        fractions.append(np.count_nonzero(v < -1e-10 * v.max()) / v.size)
        neg_mass = float(-v[v < 0.0].sum()) * snap.grid.ds * snap.grid.dr
        ratios.append(neg_mass / zc_price(rate, snap.t))
    return fractions, ratios


def integrate(field, weight):
    """Trapezoid integral of ``weight(S, r) * field`` over the box.

    Boundary contributions vanish with the Dirichlet closure.
    """
    g = field.grid
    s_mesh, r_mesh = np.meshgrid(g.s_nodes, g.r_nodes, indexing="ij")
    w = np.asarray(weight(s_mesh, r_mesh), dtype=float)
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("weight function produced non-finite values on the grid")
    return float(g.ds * g.dr * (w * field.values).sum())


def bshw_greeks_fd_check(m, maturity, strike):
    """Max relative deviation of the closed-form sensitivities from central
    differences of the price (steps 1e-4 in T and 1e-4 K in K)."""
    if maturity <= 0.05:
        raise InvalidInputError("maturity too short for the difference stencil")
    pg = bshw_call(m, maturity, strike)
    h_t = 1e-4
    h_k = 1e-4 * strike

    def price(t, k):
        return bshw_call(m, t, k).price

    fd_t = (price(maturity + h_t, strike) - price(maturity - h_t, strike)) / (2 * h_t)
    fd_k = (price(maturity, strike + h_k) - price(maturity, strike - h_k)) / (2 * h_k)
    fd_kk = (
        price(maturity, strike + h_k) - 2 * pg.price + price(maturity, strike - h_k)
    ) / h_k**2
    devs = [
        abs(pg.c_t - fd_t) / (abs(pg.c_t) + 1e-12),
        abs(pg.c_k - fd_k) / (abs(pg.c_k) + 1e-12),
        abs(pg.c_kk - fd_kk) / (abs(pg.c_kk) + 1e-12),
    ]
    return float(max(devs))


def zc_by_affine_ode(a, sigma2, theta, r0, maturity):
    """Bond price by integrating the affine exponent ODEs."""

    def rhs(t, y):
        b, log_a = y
        return [1.0 - a * b, -theta * a * b + 0.5 * sigma2**2 * b * b]

    sol = solve_ivp(rhs, [0.0, maturity], [0.0, 0.0], rtol=1e-12, atol=1e-14)
    b_t, log_a_t = sol.y[0][-1], sol.y[1][-1]
    return math.exp(log_a_t - b_t * r0)


def joint_moments_by_quadrature(s0, a, sigma2, theta, r0, sigma1, rho, maturity):
    """Moments of (log S, r, int r) from the driver kernels by quadrature.

    Uses the stochastic-integral representations directly: the rate shock
    kernel is exp(-a (T-t)), the integrated-rate kernel (1 - exp(-a(T-t)))/a,
    and log S adds sigma1 W1 on top of the integrated rate.
    """
    t = maturity

    def q(f):
        return quad(f, 0.0, t, epsabs=1e-14, epsrel=1e-12, limit=400)[0]

    k_r = lambda u: math.exp(-a * (t - u))  # noqa: E731
    k_R = lambda u: (1.0 - math.exp(-a * (t - u))) / a  # noqa: E731

    mu_r = r0 * math.exp(-a * t) + a * theta * q(k_r)
    mean_rate_path = lambda u: r0 * math.exp(-a * u) + theta * (1.0 - math.exp(-a * u))  # noqa: E731
    mu_R = q(mean_rate_path)
    mu_y = math.log(s0) + mu_R - 0.5 * sigma1**2 * t

    var_r = sigma2**2 * q(lambda u: k_r(u) ** 2)
    var_R = sigma2**2 * q(lambda u: k_R(u) ** 2)
    cov_rR = sigma2**2 * q(lambda u: k_r(u) * k_R(u))
    cov_w1_r = rho * sigma2 * q(k_r)
    cov_w1_R = rho * sigma2 * q(k_R)
    var_y = var_R + sigma1**2 * t + 2.0 * sigma1 * cov_w1_R
    cov_yr = cov_rR + sigma1 * cov_w1_r
    cov_yR = var_R + sigma1 * cov_w1_R
    mean = np.array([mu_y, mu_r, mu_R])
    cov = np.array(
        [
            [var_y, cov_yr, cov_yR],
            [cov_yr, var_r, cov_rR],
            [cov_yR, cov_rR, var_R],
        ]
    )
    return mean, cov


def conditional_discount_by_quadrature(s0, a, sigma2, theta, r0, sigma1, rho, maturity, s, r):
    """E[exp(-R) | Y=log s, r] via the quadrature moments and a dense solve."""
    mean, cov = joint_moments_by_quadrature(s0, a, sigma2, theta, r0, sigma1, rho, maturity)
    sigma_yr = cov[:2, :2]
    sigma_yrR = cov[:2, 2]
    coeff = np.linalg.solve(sigma_yr, sigma_yrR)
    resid = cov[2, 2] - sigma_yrR @ coeff
    d = np.array([math.log(s) - mean[0], r - mean[1]])
    return math.exp(-mean[2] - coeff @ d + 0.5 * resid)


def bs_call_textbook(s0, strike, rate, sigma, maturity):
    """Plain Black-Scholes call with the stdlib error function."""
    sq = sigma * math.sqrt(maturity)
    d1 = (math.log(s0 / strike) + (rate + 0.5 * sigma**2) * maturity) / sq
    d2 = d1 - sq
    n = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))  # noqa: E731
    return s0 * n(d1) - strike * math.exp(-rate * maturity) * n(d2)


def lognormal_density(s, s0, rate, sigma, maturity):
    """Terminal spot density of the flat-vol lognormal model."""
    s = np.asarray(s, dtype=float)
    sq = sigma * math.sqrt(maturity)
    mu = math.log(s0) + (rate - 0.5 * sigma**2) * maturity
    return np.exp(-0.5 * ((np.log(s) - mu) / sq) ** 2) / (s * sq * math.sqrt(2 * math.pi))


def corrective_term_closed_form(s0, a, sigma2, theta, r0, sigma1, rho, maturity, strike):
    """Adj(K) by Gaussian exponential tilting.

    E[e^{-R} (r - f) 1_{Y > k}] = ZC * cov(Y, r) * phi(z) / sd(Y) with the
    tilted log-spot mean mu_y - cov(Y, R) and f = E[e^{-R} r] / ZC.
    """
    mean, cov = joint_moments_by_quadrature(s0, a, sigma2, theta, r0, sigma1, rho, maturity)
    zc = math.exp(-mean[2] + 0.5 * cov[2, 2])
    tilted_mu_y = mean[0] - cov[0, 2]
    sd_y = math.sqrt(cov[0, 0])
    z = (math.log(strike) - tilted_mu_y) / sd_y
    phi = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    return zc * cov[0, 1] * phi / sd_y


def lattice_sensitivities(surface, t, k):
    """(C_T, C_K, C_KK) of a price lattice at its node (t, k), one node at
    a time: C_T and C_K are the slopes of the chords through the
    neighbouring nodes (one-sided at an edge), and C_KK is the second
    derivative of the parabola through three neighbouring strikes, centred
    on (t, k) or, at an edge strike, on its neighbour."""
    mats, ks, p = list(surface.maturities), list(surface.strikes), surface.prices
    i = min(range(len(mats)), key=lambda n: abs(mats[n] - t))
    j = min(range(len(ks)), key=lambda n: abs(ks[n] - k))
    lo, hi = max(i - 1, 0), min(i + 1, len(mats) - 1)
    c_t = (p[hi, j] - p[lo, j]) / (mats[hi] - mats[lo])
    lo, hi = max(j - 1, 0), min(j + 1, len(ks) - 1)
    c_k = (p[i, hi] - p[i, lo]) / (ks[hi] - ks[lo])
    c = min(max(j, 1), len(ks) - 2)
    x0, x1, x2 = ks[c - 1], ks[c], ks[c + 1]
    c_kk = 2.0 * (
        p[i, c - 1] / ((x0 - x1) * (x0 - x2))
        + p[i, c] / ((x1 - x0) * (x1 - x2))
        + p[i, c + 1] / ((x2 - x0) * (x2 - x1))
    )
    return c_t, c_k, c_kk


class RebuiltEveryStep(SurfaceVol):
    """A :class:`SurfaceVol` that says it may change at every ``t``: a
    solve under it rebuilds its step operator at every step, the direct
    route that operator caching must reproduce."""

    def next_change(self, t):
        return t


class _RestartView:
    """Bootstrap slices, piecewise constant in time, whose ``next_change(t)``
    is ``t``: a solve under it rebuilds its step operator at every step."""

    def __init__(self, strikes, pending):
        self.strikes = np.asarray(strikes, dtype=float)
        self.maturities = []
        self.slices = []
        self.pending = pending

    def value(self, t, s):
        row = self.pending
        for maturity, values in zip(self.maturities, self.slices):
            if t < maturity - 1e-12:
                row = values
                break
        return np.interp(np.asarray(s, dtype=float), self.strikes, row)

    def derivatives(self, t, s):
        return SurfaceVol.derivatives(self, t, s)

    def next_change(self, t):
        return t


def restart_bootstrap(market, model, settings):
    """Maturity bootstrap that restarts every march from t=0.

    Returns the sigma lattice and, per maturity, (mass drift, negative
    fraction, iterations) read off the last march, as the report states
    them.
    """
    from dataclasses import replace

    from hybridlv import calibration as cal
    from hybridlv.models import forward_rate
    from hybridlv.pde import auto_grid, evolve

    mats, strikes = market.maturities, market.strikes
    fwd = lambda t: forward_rate(model.rate, t)  # noqa: E731
    box_model = replace(model, vol=cal._ref_vol(market, fwd))
    box = auto_grid(box_model, mats, settings.ds, settings.dr, settings.dt)
    use_adj = settings.use_corrective and model.rate.sigma2 > 0.0
    seed, _, _ = cal.local_vol_stochastic_rates(market, fwd, 0.0, mats[0])
    view = _RestartView(strikes, np.sqrt(seed))
    work_model = replace(model, vol=view)
    entries = []
    for i, maturity in enumerate(mats):
        t = float(maturity)
        grid = replace(box, maturities=box.maturities[:i + 1], steps=box.steps[:i + 1])
        slice_vals, update, iterations = None, math.inf, 0
        while iterations < settings.slice_iterations and update > cal.SLICE_TOLERANCE:
            iterations += 1
            result = evolve(work_model, grid, snapshot_times=[t])
            field = result.at(t)
            adj = cal.corrective_terms(field, fwd(t), strikes).adj if use_adj else 0.0
            vals = np.sqrt(cal.local_vol_stochastic_rates(market, fwd, adj, t)[1])
            update = float(np.max(np.abs(vals - slice_vals))) if slice_vals is not None else math.inf
            slice_vals = vals
            view.pending = vals
        diag = result.diagnostics
        entries.append((diag.max_ratio_deviation(), max(diag.negative_fraction), iterations))
        view.maturities.append(t)
        view.slices.append(slice_vals)
    return np.vstack(view.slices), entries


def integer_route_normals(rng, shape):
    """Normals ndtri((k + 0.5) * 2**-53) from 53-bit integers k drawn by
    ``integers``: the bounded-integer route, independent of the engine's draw."""
    k = rng.integers(0, 1 << 53, size=shape)
    return ndtri((k.astype(np.float64) + 0.5) * 2.0**-53)


def _two_pass_leg(model, maturity, cfg, rng, n, sign):
    """One antithetic leg stepped alone from ``sign`` times the draws."""
    p = model.rate
    n_steps = max(1, int(math.ceil(maturity / cfg.dt_mc - 1e-12)))
    s = np.full(n, model.s0)
    r = np.full(n, p.r0)
    acc = np.zeros(n)
    t = 0.0
    rho = model.rho
    rho_c = math.sqrt(1.0 - rho * rho)
    th = p.theta
    for _ in range(n_steps):
        dt = min(cfg.dt_mc, maturity - t)
        sqdt = math.sqrt(dt)
        z = sign * integer_route_normals(rng, (2, n))
        z1 = z[0]
        zr = rho * z1 + rho_c * z[1]
        sig = np.asarray(model.vol.value(t, s))
        s = s * np.exp((r - 0.5 * sig**2) * dt + sig * sqdt * z1)
        ea = math.exp(-p.a * dt)
        sd = p.sigma2 * math.sqrt((1.0 - math.exp(-2.0 * p.a * dt)) / (2.0 * p.a))
        r_new = th + (r - th) * ea + sd * zr
        acc += 0.5 * (r + r_new) * dt
        r = r_new
        t += dt
    return s, r, acc


def two_pass_batches(model, maturity, cfg):
    """Monte Carlo terminals by the two-pass antithetic route.

    Per batch, yields the (s, r, acc) arrays of the plus leg and of the
    minus leg (``None`` without antithetic pairing). The minus leg re-seeds
    the batch's substream and recomputes every draw only to negate it.
    """
    remaining, batch_index = cfg.n_paths, 0
    while remaining > 0:
        n = min(cfg.batch_size, remaining)
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(batch_index,))
        plus = _two_pass_leg(model, maturity, cfg, np.random.Generator(np.random.PCG64(seq)), n, +1.0)
        minus = None
        if cfg.antithetic:
            rng = np.random.Generator(np.random.PCG64(seq))
            minus = _two_pass_leg(model, maturity, cfg, rng, n, -1.0)
        yield plus, minus
        remaining -= n
        batch_index += 1
