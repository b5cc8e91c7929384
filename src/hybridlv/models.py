"""Model primitives for the hybrid equity / short-rate diffusion.

The asset follows a local-volatility diffusion and the short rate a Gaussian
mean-reverting (Hull-White) process, correlated through the Brownian drivers:

    dS(t)/S(t) = r(t) dt + sigma(t, S(t)) dW1(t)
    dr(t)      = a (theta - r(t)) dt + sigma2 (rho dW1 + sqrt(1-rho^2) dW2)

This module holds the parameter containers, the local-volatility function
family (constant, hyperbolic skew, and the calibrated surface: one slice
per maturity interval, constant in time, linear in strike) together with
their spatial derivatives, and the discount-curve analytics of the rate
model.

Every local-volatility function answers ``next_change(t)``: the last time
up to which ``value`` and ``derivatives`` stay exactly what they are at
``t``. The grid solver keeps one prefactored operator for that long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "HullWhiteParams",
    "ConstantVol",
    "HyperbolicVol",
    "SurfaceVol",
    "LocalVolFunction",
    "HybridModel",
    "SdeCoefficients",
    "zc_price",
    "forward_rate",
    "hyperbolic_vol",
    "sde_coefficients",
]


def _b_factor(a: float, t) -> float:
    """Bond duration factor (1 - exp(-a t)) / a."""
    return (1.0 - np.exp(-a * t)) / a


@dataclass(frozen=True)
class HullWhiteParams:
    """Mean-reverting Gaussian short-rate parameters with a constant
    long-term mean level ``theta``."""

    a: float
    sigma2: float
    theta: float
    r0: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a > 0):
            raise InvalidInputError(f"mean-reversion speed must be positive, got {self.a!r}")
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise InvalidInputError(f"rate volatility must be >= 0, got {self.sigma2!r}")
        if not np.isfinite(self.r0):
            raise InvalidInputError(f"initial short rate must be finite, got {self.r0!r}")
        if not np.isfinite(self.theta):
            raise InvalidInputError(f"theta must be finite, got {self.theta!r}")


def _rate_mean_var(p: HullWhiteParams, t: float):
    """Mean and variance of the short rate r(t)."""
    ea = math.exp(-p.a * t)
    mean = p.r0 * ea + p.theta * (1.0 - ea)
    var = p.sigma2**2 * (1.0 - math.exp(-2 * p.a * t)) / (2 * p.a)
    return mean, var


def zc_price(p: HullWhiteParams, maturity: float) -> float:
    """Zero-coupon bond price ZC(0, T) = E[exp(-int_0^T r)], in affine
    closed form."""
    if not np.isfinite(maturity) or maturity < 0:
        raise InvalidInputError(f"maturity must be >= 0, got {maturity!r}")
    if maturity == 0.0:
        return 1.0
    a, s2, t = p.a, p.sigma2, float(maturity)
    b = _b_factor(a, t)
    log_a = (p.theta - s2**2 / (2 * a**2)) * (b - t) - s2**2 / (4 * a) * b**2
    return float(np.exp(log_a - b * p.r0))


def forward_rate(p: HullWhiteParams, maturity: float) -> float:
    """Instantaneous forward rate f(0, T) = -d/dT log ZC(0, T), in closed form."""
    if not np.isfinite(maturity) or maturity < 0:
        raise InvalidInputError(f"maturity must be >= 0, got {maturity!r}")
    a, s2, t = p.a, p.sigma2, float(maturity)
    ea = np.exp(-a * t)
    th = p.theta
    return float(
        -s2**2 / (2 * a**2)
        + th
        - (th - s2**2 / a**2 - p.r0) * ea
        - s2**2 / (2 * a**2) * np.exp(-2 * a * t)
    )


def hyperbolic_vol(nu: float, beta: float, s):
    """Hyperbolic local-volatility function.

    sigma(S) = nu * [ (1-beta+beta^2)/beta
                      + (beta-1)/(beta S) * (sqrt(S^2 + beta^2 (1-S)^2) - beta) ]

    Strictly positive for all S > 0; reduces to the flat level ``nu`` at
    beta = 1 and produces a downward skew for beta < 1.
    """
    if not (np.isfinite(nu) and nu > 0):
        raise InvalidInputError(f"volatility level must be positive, got {nu!r}")
    if not (0.0 < beta <= 1.0):
        raise InvalidInputError(f"skew parameter must be in (0, 1], got {beta!r}")
    arr = np.asarray(s, dtype=float)
    if np.any(arr <= 0):
        raise InvalidInputError("spot must be positive")
    g = np.sqrt(arr**2 + beta**2 * (1.0 - arr) ** 2)
    val = nu * ((1.0 - beta + beta**2) / beta + (beta - 1.0) / (beta * arr) * (g - beta))
    return float(val) if np.isscalar(s) else val


@dataclass(frozen=True)
class ConstantVol:
    """Flat lognormal volatility."""

    sigma1: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma1) and self.sigma1 >= 0):
            raise InvalidInputError(f"sigma1 must be >= 0, got {self.sigma1!r}")

    def value(self, t, s):
        """``sigma1`` as one float, whatever the shape of ``s``: the vol is
        the same at every spot, so a caller stepping many paths forms its
        vol terms once (callers that need an array broadcast it)."""
        return float(self.sigma1)

    def derivatives(self, t, s):
        arr = np.asarray(s, dtype=float)
        z = np.zeros_like(arr)
        return np.full_like(arr, self.sigma1), z, z

    def next_change(self, t: float) -> float:
        return math.inf


@dataclass(frozen=True)
class HyperbolicVol:
    """Hyperbolic skew local volatility with level ``nu`` and skew ``beta``."""

    nu: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise InvalidInputError(f"nu must be positive, got {self.nu!r}")
        if not (0.0 < self.beta <= 1.0):
            raise InvalidInputError(f"beta must be in (0, 1], got {self.beta!r}")

    def value(self, t, s):
        return hyperbolic_vol(self.nu, self.beta, np.asarray(s, dtype=float))

    def derivatives(self, t, s):
        arr = np.asarray(s, dtype=float)
        sig = hyperbolic_vol(self.nu, self.beta, arr)
        nu, beta = self.nu, self.beta
        g = np.sqrt(arr**2 + beta**2 * (1.0 - arr) ** 2)
        gp = (arr - beta**2 * (1.0 - arr)) / g
        gpp = (1.0 + beta**2) / g - (arr - beta**2 * (1.0 - arr)) ** 2 / g**3
        k = nu * (beta - 1.0) / beta
        sig_s = k * (gp * arr - g + beta) / arr**2
        sig_ss = k * (gpp * arr**2 - 2.0 * arr * gp + 2.0 * (g - beta)) / arr**3
        return sig, sig_s, sig_ss

    def next_change(self, t: float) -> float:
        return math.inf


@dataclass(frozen=True)
class SurfaceVol:
    """Local volatility on calibrated sigma(T, K) nodes, the surface the
    maturity bootstrap marches: slice i on [T_{i-1}, T_i), constant in time
    (the first slice before T_1, the last from T_N on), linear in K between
    strikes and flat outside them. A time within the solver's step-time
    tolerance, 1e-9 max(1, T_i), below T_i already reads slice i+1, so a
    step that starts on a maturity marches under the next slice.

    Spatial derivatives are central differences on the interpolant with a
    step of one strike spacing (floored at 1e-4 S, the interpolant is
    piecewise linear so smaller steps see no curvature).
    """

    maturities: np.ndarray
    strikes: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "maturities", np.asarray(self.maturities, dtype=float))
        object.__setattr__(self, "strikes", np.asarray(self.strikes, dtype=float))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        for name, axis in (("maturities", self.maturities), ("strikes", self.strikes)):
            if axis.ndim != 1 or axis.size == 0 or not np.all(np.isfinite(axis)):
                raise InvalidInputError(f"{name} must be a non-empty 1-d array of finite numbers")
            if np.any(np.diff(axis) <= 0):
                raise InvalidInputError(f"{name} must be strictly increasing")
        if self.maturities[0] <= 0:
            raise InvalidInputError("maturities must be positive")
        if self.sigma.shape != (len(self.maturities), len(self.strikes)):
            raise InvalidInputError("sigma lattice shape mismatch")
        if np.any(~np.isfinite(self.sigma)) or np.any(self.sigma < 0):
            raise InvalidInputError("sigma nodes must be finite and non-negative")

    def _switches(self) -> np.ndarray:
        """The times from which slices 1..N-1 (0-based) serve: each
        maturity but the last, less the step-time tolerance."""
        mats = self.maturities[:-1]
        return mats - 1e-9 * np.maximum(1.0, mats)

    def _slice_index(self, t: float) -> int:
        """Row of ``sigma`` that serves time ``t``."""
        return int(np.searchsorted(self._switches(), t, side="right"))

    def value(self, t, s):
        row = self.sigma[self._slice_index(t)]
        return np.interp(np.asarray(s, dtype=float), self.strikes, row)

    def derivatives(self, t, s):
        arr = np.asarray(s, dtype=float)
        spacing = float(np.median(np.diff(self.strikes))) if self.strikes.size >= 2 else 1e-2
        h = np.maximum(spacing, 1e-4 * np.abs(arr))
        up = self.value(t, arr + h)
        dn = self.value(t, np.maximum(arr - h, 1e-12))
        sig = self.value(t, arr)
        sig_s = (up - dn) / (2.0 * h)
        sig_ss = (up - 2.0 * sig + dn) / h**2
        return sig, sig_s, sig_ss

    def next_change(self, t: float) -> float:
        """The last time before the maturity that ends ``t``'s slice, or
        infinity in the last slice."""
        switches = self._switches()
        i = self._slice_index(t)
        return math.inf if i == len(switches) else math.nextafter(float(switches[i]), -math.inf)


LocalVolFunction = Union[ConstantVol, HyperbolicVol, SurfaceVol]


@dataclass(frozen=True)
class HybridModel:
    """Hybrid model state: spot, rate parameters, local vol and correlation."""

    s0: float
    rate: HullWhiteParams
    vol: LocalVolFunction
    rho: float

    def __post_init__(self):
        if not (np.isfinite(self.s0) and self.s0 > 0):
            raise InvalidInputError(f"initial spot must be positive, got {self.s0!r}")
        if not (np.isfinite(self.rho) and abs(self.rho) <= 1.0):
            raise InvalidInputError(f"correlation must lie in [-1, 1], got {self.rho!r}")


@dataclass(frozen=True)
class SdeCoefficients:
    """Drift/volatility values and the spatial derivatives the solver needs.

    The Hull-White rate volatility ``vol_r`` is constant in r, so it has no
    r-derivatives to carry.
    """

    drift_s: np.ndarray
    vol_s: np.ndarray
    drift_r: np.ndarray
    vol_r: np.ndarray
    sigma_s: np.ndarray
    sigma_ss: np.ndarray
    mu_r: float


def sde_coefficients(m: HybridModel, t: float, s, r) -> SdeCoefficients:
    """Evaluate the SDE coefficient functions and their derivatives.

    ``s`` and ``r`` may be scalars or broadcastable arrays (e.g. a spot
    column and a rate row to produce full grids).
    """
    s_arr = np.asarray(s, dtype=float)
    r_arr = np.asarray(r, dtype=float)
    if np.any(s_arr <= 0):
        raise InvalidInputError("spot must be positive")
    sig, sig_s, sig_ss = m.vol.derivatives(t, s_arr)
    p = m.rate
    alpha = np.full_like(r_arr, p.sigma2)
    return SdeCoefficients(
        drift_s=r_arr * s_arr,
        vol_s=sig,
        drift_r=p.a * (p.theta - r_arr),
        vol_r=alpha,
        sigma_s=sig_s,
        sigma_ss=sig_ss,
        mu_r=-p.a,
    )
