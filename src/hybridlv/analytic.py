"""Closed-form pricing and density references for the constant-vol hybrid model.

With a flat equity volatility the pair (log-spot, short rate) together with
the integrated rate is jointly Gaussian, which gives closed forms for
European calls, their maturity/strike sensitivities, and the projection of
the pathwise discount factor onto the terminal state. These are the oracles
the grid solver is validated against. Horizons and spots pass the rules of
:mod:`hybridlv.models`; the call and the projection need T > 0 on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .models import (ConstantVol, HybridModel, _b_factor, _horizon, _positive_spots,
                     _rate_mean_var, forward_rate, zc_price)

__all__ = [
    "BshwMoments",
    "PriceAndGreeks",
    "bshw_call",
    "bshw_moments",
    "analytic_z",
    "analytic_pz",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)


def _ndtr(x: float) -> float:
    """Standard normal distribution function of a scalar."""
    return 0.5 * math.erfc(-x / _SQRT_2)


def _npdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / _SQRT_2PI


def _require_constant(m: HybridModel) -> ConstantVol:
    if not isinstance(m.vol, ConstantVol):
        raise InvalidInputError("closed forms require a constant equity volatility")
    return m.vol


@dataclass(frozen=True)
class BshwMoments:
    """Gaussian moments of (Y, r, R) = (log S(T), r(T), int_0^T r) at horizon T."""

    mu_y: float
    mu_r: float
    mu_R: float
    sigma_y: float  # Var(Y)
    sigma_r: float  # Var(r)
    sigma_R: float  # Var(R)
    sigma_yr: np.ndarray  # 2x2 covariance of (Y, r)
    sigma_yrR: np.ndarray  # covariances of (Y, r) with R


@dataclass(frozen=True)
class PriceAndGreeks:
    """Call value with its maturity/strike sensitivities."""

    price: float
    c_t: float
    c_k: float
    c_kk: float
    d1: float
    d2: float
    g_t: float


def sigma_hat_sq(m: HybridModel, t: float) -> float:
    """Instantaneous effective variance sigma1^2 + 2 rho sigma1 sigma2 B + sigma2^2 B^2."""
    _require_constant(m)
    b = _b_factor(m.rate.a, t)
    s1, s2 = m.vol.sigma1, m.rate.sigma2
    return s1**2 + 2.0 * m.rho * s1 * s2 * b + (s2 * b) ** 2


def bshw_moments(m: HybridModel, maturity: float) -> BshwMoments:
    """Closed-form joint Gaussian moments of (log S(T), r(T), R(T)).

    The cross entries carry the coupling of the integrated rate into the
    log spot (Y contains R), so cov(Y, r) and cov(Y, R) each pick up an
    integrated-rate term on top of the direct driver correlation. At T = 0
    they give log S0, r0 and zero (co)variances exactly.
    """
    _require_constant(m)
    t = _horizon(maturity)
    p = m.rate
    a, s2, r0, th = p.a, p.sigma2, p.r0, float(p.theta)
    s1, rho = m.vol.sigma1, m.rho
    ea = math.exp(-a * t)
    e2a = math.exp(-2 * a * t)
    b = (1.0 - ea) / a
    mu_r, var_r = _rate_mean_var(p, t)
    mu_R = th * t + (r0 - th) * b
    mu_y = math.log(m.s0) + mu_R - 0.5 * s1**2 * t
    var_R = (s2 / a) ** 2 * (t + (1.0 - e2a) / (2 * a) - 2.0 * b)
    cov_rR = s2**2 / a * (b - (1.0 - e2a) / (2 * a))
    var_y = var_R + s1**2 * t + 2.0 * rho * s1 * s2 / a * (t - b)
    cov_yr = rho * s1 * s2 * b + cov_rR
    cov_yR = var_R + rho * s1 * s2 / a * (t - b)
    return BshwMoments(
        mu_y=mu_y,
        mu_r=mu_r,
        mu_R=mu_R,
        sigma_y=var_y,
        sigma_r=var_r,
        sigma_R=var_R,
        sigma_yr=np.array([[var_y, cov_yr], [cov_yr, var_r]]),
        sigma_yrR=np.array([cov_yR, cov_rR]),
    )


def bshw_call(m: HybridModel, maturity: float, strike: float):
    """European call price and sensitivities under the constant-vol hybrid model.

    ``maturity`` and ``strike`` are scalars. The sensitivities need a
    positive total variance, so T <= 0 and a model without any volatility
    are rejected.
    """
    _require_constant(m)
    if not (np.isfinite(strike) and strike > 0):
        raise InvalidInputError(f"strike must be positive, got {strike!r}")
    t = _horizon(maturity, positive=True)
    g = bshw_moments(m, t).sigma_y
    if g <= 0.0:
        raise InvalidInputError(f"zero total variance at T={t!r}: the call has no sensitivities")
    zc = zc_price(m.rate, t)
    sq = math.sqrt(g)
    d1 = (math.log(m.s0 / strike) - math.log(zc) + 0.5 * g) / sq
    d2 = d1 - sq
    price = m.s0 * _ndtr(d1) - strike * zc * _ndtr(d2)
    f = forward_rate(m.rate, t)
    # The strike slope is -ZC N(d2): the d1/d2 sensitivities cancel through
    # the identity S0 n(d1) = K ZC n(d2) and no forward-rate factor survives
    # (cross-checked against central differences in the test suite).
    c_t = 0.5 * m.s0 * _npdf(d1) * sigma_hat_sq(m, t) / sq + strike * zc * f * _ndtr(d2)
    c_k = -zc * _ndtr(d2)
    c_kk = zc * _npdf(d2) / (strike * sq)
    return PriceAndGreeks(
        price=float(price),
        c_t=float(c_t),
        c_k=float(c_k),
        c_kk=float(c_kk),
        d1=float(d1),
        d2=float(d2),
        g_t=float(g),
    )


def _yr_determinant(mom: BshwMoments) -> float:
    """Determinant of the covariance of (log S, r); a numerically singular
    one is outside the closed form's domain and raises
    :class:`InvalidInputError`."""
    cov = mom.sigma_yr
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] ** 2
    if det <= 1e-300:
        raise InvalidInputError(
            f"covariance of (log S, r) is numerically singular (det={det:.3e})"
        )
    return det


def _conditional_discount_terms(mom: BshwMoments):
    """Coefficients of the conditional mean/variance of R given (Y, r)."""
    cov = mom.sigma_yr
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[0, 1], cov[0, 0]]]) / _yr_determinant(mom)
    coeff = inv @ mom.sigma_yrR
    resid_var = mom.sigma_R - float(mom.sigma_yrR @ coeff)
    return coeff, resid_var


def _projection(m: HybridModel, maturity: float, s, r):
    """(s as an array, moments, log S - mu_y, r - mu_r, Z) at the states
    (s, r); with sigma2 = 0, Z is the discount factor in the states' shape."""
    _require_constant(m)
    _horizon(maturity, positive=True)
    s_arr = _positive_spots(s)
    r_arr = np.asarray(r, dtype=float)
    mom = bshw_moments(m, maturity)
    dy = np.log(s_arr) - mom.mu_y
    dr = r_arr - mom.mu_r
    if m.rate.sigma2 == 0.0:
        return s_arr, mom, dy, dr, np.full(np.broadcast(s_arr, r_arr).shape, math.exp(-mom.mu_R))
    coeff, resid_var = _conditional_discount_terms(mom)
    z = np.exp(-mom.mu_R - coeff[0] * dy - coeff[1] * dr + 0.5 * resid_var)
    return s_arr, mom, dy, dr, z


def analytic_z(m: HybridModel, maturity: float, s, r):
    """Projection of the pathwise discount factor on the terminal state.

    Z(T, S, r) = E[exp(-R(T)) | log S(T), r(T)], evaluated from the joint
    Gaussian law; with deterministic rates this collapses to the plain
    discount factor. A float comes back whenever the result is 0-d.
    """
    z = _projection(m, maturity, s, r)[-1]
    return float(z) if np.ndim(z) == 0 else z


def analytic_pz(m: HybridModel, maturity: float, s, r):
    """Discounted joint density: density of (S(T), r(T)) times analytic_z.

    The joint density of (S, r) is the bivariate Gaussian of (log S, r)
    divided by S (change of variables). It needs a non-singular covariance,
    so deterministic rates raise :class:`InvalidInputError`. A float
    comes back whenever the result is 0-d.
    """
    s_arr, mom, dy, dr, z = _projection(m, maturity, s, r)
    det = _yr_determinant(mom)
    cov = mom.sigma_yr
    quad_form = (cov[1, 1] * dy**2 - 2.0 * cov[0, 1] * dy * dr + cov[0, 0] * dr**2) / det
    density = np.exp(-0.5 * quad_form) / (2.0 * math.pi * math.sqrt(det) * s_arr)
    out = density * z
    return float(out) if np.ndim(out) == 0 else out
