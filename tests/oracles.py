"""Independent reference computations used only by the tests.

Everything here is built from a different route than the production code:
dense linear algebra and a scalar Thomas loop instead of the batched line
solves, a node-by-node assembly of the forward operator instead of the
band weights, ODE/quadrature integration instead of closed forms, textbook
Black-Scholes with the stdlib error function, finite differences of the
closed-form price, a full-grid trapezoid instead of the single-pass
marginal integrals, and Gaussian-calculus identities for the corrective
term. Expected values in the tests are frozen from these oracles.
:func:`adi_step` is the one exception: it runs the production step
operator once, for tests that check a single step. :func:`slice_step`
shares the production line solves and checks only the explicit stencils.
:class:`RebuiltEveryStep` shares the production surface and drops only its
operator caching. :func:`mcs_march` is another scheme, the modified
Craig-Sneyd step, on :func:`flux_operator`'s terms with sparse LU solves.
:func:`rate_marginal` is a closed form of its own, checked against
``analytic_pz`` integrated over the spot.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import quad, solve_ivp
from scipy.sparse.linalg import splu
from scipy.special import ndtri

from hybridlv import montecarlo
from hybridlv.analytic import bshw_call
from hybridlv.errors import InvalidInputError, SingularSystemError
from hybridlv.linalg import thomas_apply, thomas_prefactor
from hybridlv.models import SurfaceVol, _rate_mean_var, zc_price
from hybridlv.pde import Field2D, _StepOperator, build_coefficients

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
    runs a strided 2-d slice one row at a time). The rate drift is centred
    on every face, as the step operator takes it on grids where no face
    Peclet number exceeds 1 (see :func:`flux_operator`): the grids this
    oracle is given.
    """
    ds, dr = grid.ds, grid.dr
    two_dt = 2.0 / dt
    reaction = coeffs.reaction
    half_s = np.pad(coeffs.diff_s * (0.5 / (ds * ds)), ((1, 1), (0, 0)))
    adv_s = coeffs.drift_s / (2 * ds)
    lu1 = thomas_prefactor(
        -(half_s[:-2] + adv_s), two_dt + 2 * half_s[1:-1] + reaction, adv_s - half_s[2:], axis=0
    )
    half_r = coeffs.diff_r * (0.5 / (dr * dr))
    adv_r = np.pad(coeffs.drift_r / (2 * dr), ((0, 0), (1, 1)))
    lu2 = thomas_prefactor(
        -(half_r + adv_r[:, :-2]), two_dt + 2 * half_r + reaction, adv_r[:, 2:] - half_r, axis=1
    )
    w1_c = two_dt - 2 * half_r
    w1_jp = half_r - adv_r[:, 2:]
    w1_jm = half_r + adv_r[:, :-2]
    kappa = 2 * two_dt + reaction
    wx = np.pad(coeffs.cross / (4 * ds * dr), 1)

    def add_cross(rhs, padded):
        scaled = padded * wx
        rhs += scaled[2:, 2:]
        rhs += scaled[:-2, :-2]
        rhs -= scaled[:-2, 2:]
        rhs -= scaled[2:, :-2]

    pad = np.zeros((grid.n_s + 2, grid.n_r + 2))
    pad[1:-1, 1:-1] = values
    rhs = values * w1_c
    rhs += pad[1:-1, 2:] * w1_jp
    rhs += pad[1:-1, :-2] * w1_jm
    add_cross(rhs, pad)
    pad[1:-1, 1:-1] = thomas_apply(lu1, rhs)
    rhs = pad[1:-1, 1:-1] * kappa - rhs
    add_cross(rhs, pad)
    return thomas_apply(lu2, rhs)


def flux_operator(coeffs, grid):
    """The spatial operator of the forward equation on the interior nodes,
    assembled node by node from its divergence-form stencils.

    Returns the sparse matrices ``(spot, rate, cross, reaction)`` over the
    nodes in row-major order (node (i, j) is row i n_r + j): spot is
    1/2 d_SS(diff_s u) - drift_s u_S, rate is 1/2 diff_r u_rr -
    d_r(drift_r u), cross is d_Sr(cross u) and reaction the diagonal of
    ``coeffs.reaction``, so u_t = (spot + rate + cross - reaction) u. The
    terms in divergence form (the S diffusion, the cross term, the rate
    drift) take their coefficient at the stencil node it multiplies, the
    spot drift and the rate diffusion at the centre node. A neighbour on the
    box boundary holds u = 0 and drops out.

    The rate drift is the difference of its fluxes through the two faces of
    a node's rate cell. A face's flux is centred, the mean of drift_r u on
    its two nodes, where |drift_r| dr <= diff_r at the face (a face Peclet
    number of at most 1), and drift_r u on its upwind node otherwise; the
    face values of drift_r and diff_r are interpolated linearly from the
    nearest two rate nodes.
    """
    n_s, n_r, ds, dr = grid.n_s, grid.n_r, grid.ds, grid.dr
    diff_s, cross, diff_r, drift_s, drift_r = (
        np.pad(np.asarray(x), 1)
        for x in (coeffs.diff_s, coeffs.cross, coeffs.diff_r, coeffs.drift_s, coeffs.drift_r))
    entries = {name: ([], [], []) for name in ("spot", "rate", "cross")}

    def face_weights(i, j):
        """The flux's weights on rate nodes j and j + 1 of the face between
        them, 0 <= j <= n_r (nodes 0 and n_r + 1 lie on the boundary)."""
        k = min(max(j, 1), n_r - 1)  # the rate nodes k, k + 1 nearest the face

        def at_face(x):
            return x[i, k] + (j + 0.5 - k) * (x[i, k + 1] - x[i, k])

        drift_face = at_face(drift_r)
        if abs(drift_face) * dr <= at_face(diff_r):
            return drift_r[i, j] / 2, drift_r[i, j + 1] / 2
        return (drift_r[i, j], 0.0) if drift_face > 0 else (0.0, drift_r[i, j + 1])

    def put(name, node, i, j, weight):
        """Add ``weight`` times the value at interior node (i, j), 1-based."""
        if 1 <= i <= n_s and 1 <= j <= n_r:
            rows, cols, vals = entries[name]
            rows.append(node)
            cols.append((i - 1) * n_r + j - 1)
            vals.append(weight)

    for i in range(1, n_s + 1):
        for j in range(1, n_r + 1):
            node = (i - 1) * n_r + j - 1
            for di in (-1, 0, 1):
                # (D_{i+di} u_{i+di} weighted 1, -2, 1) / (2 ds^2)
                put("spot", node, i + di, j, (0.5 if di else -1.0) * diff_s[i + di, j] / ds**2)
                put("rate", node, i, j + di, (0.5 if di else -1.0) * diff_r[i, j] / dr**2)
                if di:
                    put("spot", node, i + di, j, -di * drift_s[i, j] / (2 * ds))
                    # minus the flux through the face towards j + di, over dr
                    lower = min(j, j + di)
                    for m, weight in enumerate(face_weights(i, lower)):
                        put("rate", node, i, lower + m, -di * weight / dr)
                    for dj in (-1, 1):
                        put("cross", node, i + di, j + dj,
                            di * dj * cross[i + di, j + dj] / (4 * ds * dr))
    shape = (n_s * n_r, n_s * n_r)
    spot, rate, mixed = (
        sparse.csr_matrix((vals, (rows, cols)), shape=shape)
        for rows, cols, vals in entries.values())
    reaction = sparse.diags(np.broadcast_to(coeffs.reaction, (n_s, n_r)).ravel(), format="csr")
    return spot, rate, mixed, reaction


def mcs_march(model, grid, start):
    """March ``start`` to the horizon of the one-maturity ``grid`` by the
    modified Craig-Sneyd step with theta = 1/3 (In 't Hout & Welfert 2009),
    on the terms of :func:`flux_operator` at the start's time: a
    time-independent vol only.

    With A0 the cross term, A1 the spot term and A2 the rate term, each of
    the latter two less half the reaction, and F = A0 + A1 + A2, a step of
    dt from u reads

        Y0 = u + dt F u,
        (I - theta dt A_j) Y_j = Y_{j-1} - theta dt A_j u,  j = 1, 2,
        Z0 = Y0 + theta dt A0 (Y2 - u) + (1/2 - theta) dt F (Y2 - u),
        (I - theta dt A_j) Z_j = Z_{j-1} - theta dt A_j u,  j = 1, 2,

    and the new u is Z2, rescaled onto ZC(0, t) as :func:`hybridlv.pde.evolve`
    rescales. Each (I - theta dt A_j) is factored once, by ``splu``.
    """
    if len(grid.maturities) != 1 or model.vol.next_change(start.t) < grid.t_end:
        raise InvalidInputError("the oracle takes one maturity and a time-independent vol")
    theta = 1.0 / 3.0
    dt = grid.maturities[0] / grid.steps[0]
    spot, rate, cross, reaction = flux_operator(build_coefficients(model, grid, start.t), grid)
    a1, a2 = spot - 0.5 * reaction, rate - 0.5 * reaction
    full = cross + a1 + a2
    eye = sparse.identity(full.shape[0], format="csc")
    solves = [splu((eye - theta * dt * a).tocsc()).solve for a in (a1, a2)]

    def sweeps(y, pulls):
        """Y2 from Y0, or Z2 from Z0: the two implicit stages."""
        for solve, pull in zip(solves, pulls):
            y = solve(y - pull)
        return y

    times = grid.t_nodes
    u, t = start.values.ravel(), start.t
    for t_next in times[int(np.argmin(np.abs(times - t))) + 1:]:
        pulls = [theta * dt * (a @ u) for a in (a1, a2)]
        y0 = u + dt * (full @ u)
        change = sweeps(y0, pulls) - u
        z0 = y0 + theta * dt * (cross @ change) + (0.5 - theta) * dt * (full @ change)
        u = sweeps(z0, pulls)
        u *= zc_price(model.rate, t_next) / (grid.ds * grid.dr * u.sum())
        t = t_next
    return Field2D(grid, u.reshape(grid.n_s, grid.n_r), t=t)


def rate_marginal(rate, maturity, r):
    """Integral over S of the discounted joint density at the rates ``r``:
    ZC(0, T) times the Gaussian density of mean m - c and variance v, where
    (m, v) are the mean and variance of r(T) and c = sigma2^2 (1 -
    exp(-a T))^2 / (2 a^2) is the covariance of r(T) with the integrated
    rate, the shift of the T-forward measure. It holds for every local vol."""
    mean, var = _rate_mean_var(rate, maturity)
    shift = rate.sigma2**2 * (1.0 - math.exp(-rate.a * maturity)) ** 2 / (2.0 * rate.a**2)
    z = (np.asarray(r, dtype=float) - (mean - shift)) ** 2 / var
    return zc_price(rate, maturity) * np.exp(-0.5 * z) / math.sqrt(2.0 * math.pi * var)


def paired_call_difference(model_a, model_b, maturity, strikes, cfg):
    """Mean and standard error, per strike, of the discounted call payoff
    under ``model_a`` minus that under ``model_b``, on common draws.

    Both legs walk ``montecarlo._kept_paths`` in batch order. Batch i of
    either leg steps from the same substream of ``cfg.seed``, so both see the
    same normals, and the difference has a far smaller standard error than
    either price (common random numbers). The models must share their rate
    parameters: the rate paths then do not depend on the vol, and each batch
    asserts that both legs kept the same paths, with the same terminal and
    integrated rates. With antithetic pairing the pair means are the samples.
    """
    strikes = np.asarray(strikes, dtype=float)
    sums = np.zeros(strikes.size)
    sq_sums = np.zeros(strikes.size)
    n_units = 0
    legs = zip(montecarlo._kept_paths(model_a, maturity, cfg),
               montecarlo._kept_paths(model_b, maturity, cfg), strict=True)
    for ((s_a, r_a, acc_a), kept_a), ((s_b, r_b, acc_b), kept_b) in legs:
        assert kept_a == kept_b
        assert np.array_equal(r_a, r_b) and np.array_equal(acc_a, acc_b)
        payoff_a = np.maximum(s_a[:, None] - strikes, 0.0)
        payoff_b = np.maximum(s_b[:, None] - strikes, 0.0)
        diff = np.exp(-acc_a)[:, None] * (payoff_a - payoff_b)
        if cfg.antithetic:
            diff = 0.5 * (diff[:kept_a] + diff[kept_a:])
        sums += diff.sum(axis=0)
        sq_sums += (diff * diff).sum(axis=0)
        n_units += kept_a
    mean = sums / n_units
    var = np.maximum(sq_sums / n_units - mean * mean, 0.0) * n_units / (n_units - 1)
    return mean, np.sqrt(var / n_units)


def step_health(snapshots, rate):
    """Per-step negative_mass_ratio of a march, by its definition, from one
    snapshot per step: the mass of all negative values over ZC(0, t), 0
    where there are none."""
    ratios = []
    for snap in snapshots:
        negatives = snap.values[snap.values < 0.0]
        neg_mass = (float(-negatives.sum()) if negatives.size else 0.0) * snap.grid.ds * snap.grid.dr
        ratios.append(neg_mass / zc_price(rate, snap.t))
    return ratios


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

    def next_change(self, t):
        return t


def restart_bootstrap(market, model, settings):
    """Maturity bootstrap that restarts every march from t=0.

    Returns the sigma lattice and, per maturity, (mass drift, negative-mass
    ratio, iterations) read off the last march, as the report states them.
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
    seed, _ = cal.local_vol_stochastic_rates(market, fwd, 0.0, mats[0])
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
        entries.append((diag.max_ratio_deviation(), max(diag.negative_mass_ratio), iterations))
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
        n = min(montecarlo._BATCH_SIZE, remaining)
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(batch_index,))
        plus = _two_pass_leg(model, maturity, cfg, np.random.Generator(np.random.PCG64(seq)), n, +1.0)
        minus = None
        if cfg.antithetic:
            rng = np.random.Generator(np.random.PCG64(seq))
            minus = _two_pass_leg(model, maturity, cfg, rng, n, -1.0)
        yield plus, minus
        remaining -= n
        batch_index += 1
