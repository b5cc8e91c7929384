"""Model primitives for the hybrid equity / short-rate diffusion.

The asset follows a local-volatility diffusion and the short rate a Gaussian
mean-reverting (Hull-White) process, correlated through the Brownian drivers:

    dS(t)/S(t) = r(t) dt + sigma(t, S(t)) dW1(t)
    dr(t)      = a (theta - r(t)) dt + sigma2 (rho dW1 + sqrt(1-rho^2) dW2)

This module holds the parameter containers, the local-volatility function
family (constant, hyperbolic skew, and the calibrated surface: one slice
per maturity interval, constant in time, linear in strike) and the
discount-curve analytics of the rate model. A local vol gives its
``value`` and nothing else: the grid solver reads sigma at its nodes and
differences the terms that carry it.

Every local-volatility function answers ``next_change(t)``: the last time
up to which ``value`` stays exactly what it is at ``t``. The grid solver
keeps one prefactored operator for that long.

Each input is checked once, where it enters: a vol's parameters when it is
built, a closed-form horizon as finite and >= 0 (the horizon of a call, a
discount projection or a simulation as finite and > 0), a spot as positive
(NaN is not). A vol evaluates solver and path states without checks.

It also holds the two lattice rules the solver and the calibration share:
what a maturity or strike axis is (:func:`lattice_axis`), and how close a
value must come to a lattice node to be that node (:func:`node_tolerance`,
:func:`nearest_node`).
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
    "sde_coefficients",
]


def lattice_axis(values, name: str) -> np.ndarray:
    """``values`` as a 1-d, non-empty, finite, positive, strictly increasing float axis."""
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1 or axis.size == 0 or not np.isfinite(axis).all():
        raise InvalidInputError(f"{name} must be a non-empty 1-d array of finite numbers")
    if not (axis[0] > 0 and (np.diff(axis) > 0).all()):
        raise InvalidInputError(f"{name} must be positive and strictly increasing")
    return axis


def node_tolerance(node):
    """1e-9 max(1, |node|): a value that close to a lattice node is that node."""
    return 1e-9 * np.maximum(1.0, np.abs(node))


def nearest_node(axis, x) -> int | None:
    """Index of the node of ``axis`` that ``x`` is, the nearest in tolerance, or None."""
    gaps = np.abs(np.asarray(axis, dtype=float) - x)
    near = np.flatnonzero(gaps <= node_tolerance(axis))
    return int(near[gaps[near].argmin()]) if near.size else None


def _horizon(maturity, positive: bool = False) -> float:
    """``maturity`` as a float horizon: finite and >= 0 for the closed forms,
    finite and > 0 if ``positive``, for a call, a discount projection or a
    simulation."""
    if not (np.isfinite(maturity) and (maturity > 0 if positive else maturity >= 0)):
        bound = ">" if positive else ">="
        raise InvalidInputError(f"maturity must be finite and {bound} 0, got {maturity!r}")
    return float(maturity)


def _positive_spots(s) -> np.ndarray:
    """``s`` as a float array whose every spot is positive (NaN is not)."""
    arr = np.asarray(s, dtype=float)
    if not np.all(arr > 0):
        raise InvalidInputError("spot must be positive")
    return arr


def _b_factor(a: float, t) -> float:
    """Bond duration factor (1 - exp(-a t)) / a."""
    return (1.0 - np.exp(-a * t)) / a


# Below this speed the (1 - exp(-a T)) / a and sigma2**2 / a**2 terms of
# zc_price, forward_rate and bshw_moments cancel: the call error against a
# 50-digit reference grows from 7e-11 at a = 1e-3 to 1.6e-7 at 1e-4 and
# 1.3e-4 at 1e-5 (T up to 30).
_MIN_MEAN_REVERSION = 1e-3


@dataclass(frozen=True)
class HullWhiteParams:
    """Mean-reverting Gaussian short-rate parameters with a constant
    long-term mean level ``theta``; the speed ``a`` is at least 1e-3."""

    a: float
    sigma2: float
    theta: float
    r0: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a >= _MIN_MEAN_REVERSION):
            raise InvalidInputError(
                f"mean-reversion speed must be finite and >= {_MIN_MEAN_REVERSION:g}, got "
                f"{self.a!r}: below it the closed forms' (1 - exp(-a T)) / a and "
                "sigma2**2 / a**2 terms lose their digits to cancellation")
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
    t = _horizon(maturity)
    if t == 0.0:
        return 1.0
    a, s2 = p.a, p.sigma2
    b = _b_factor(a, t)
    log_a = (p.theta - s2**2 / (2 * a**2)) * (b - t) - s2**2 / (4 * a) * b**2
    return float(np.exp(log_a - b * p.r0))


def forward_rate(p: HullWhiteParams, maturity: float) -> float:
    """Instantaneous forward rate f(0, T) = -d/dT log ZC(0, T), in closed form."""
    a, s2, t = p.a, p.sigma2, _horizon(maturity)
    ea = np.exp(-a * t)
    th = p.theta
    return float(
        -s2**2 / (2 * a**2)
        + th
        - (th - s2**2 / a**2 - p.r0) * ea
        - s2**2 / (2 * a**2) * np.exp(-2 * a * t)
    )


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

    def next_change(self, t: float) -> float:
        return math.inf


@dataclass(frozen=True)
class HyperbolicVol:
    """Hyperbolic skew local volatility with level ``nu`` and skew ``beta``:

        sigma(S) = nu [(1-beta+beta^2)/beta + (beta-1)/(beta S) (g(S) - beta)],
        g(S) = sqrt(S^2 + beta^2 (1-S)^2),

    positive for S > 0, flat at beta = 1 and skewed down for beta < 1. ``nu``
    and ``beta`` are checked when the vol is built; ``value`` takes any
    state unchecked.
    """

    nu: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.nu) and self.nu > 0):
            raise InvalidInputError(f"nu must be positive, got {self.nu!r}")
        if not (0.0 < self.beta <= 1.0):
            raise InvalidInputError(f"beta must be in (0, 1], got {self.beta!r}")

    def value(self, t, s):
        x, nu, beta = np.asarray(s, dtype=float), self.nu, self.beta
        g = np.sqrt(x**2 + beta**2 * (1.0 - x) ** 2)
        return nu * ((1.0 - beta + beta**2) / beta + (beta - 1.0) / (beta * x) * (g - beta))

    def next_change(self, t: float) -> float:
        return math.inf


@dataclass(frozen=True)
class SurfaceVol:
    """Local volatility on calibrated sigma(T, K) nodes, the surface the
    maturity bootstrap marches: slice i on [T_{i-1}, T_i), constant in time
    (the first slice before T_1, the last from T_N on), linear in K between
    strikes and flat outside them. A time within :func:`node_tolerance` of
    T_i below it already reads slice i+1, so a step that starts on a
    maturity marches under the next slice.
    """

    maturities: np.ndarray
    strikes: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "maturities", lattice_axis(self.maturities, "maturities"))
        object.__setattr__(self, "strikes", lattice_axis(self.strikes, "strikes"))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if self.sigma.shape != (len(self.maturities), len(self.strikes)):
            raise InvalidInputError("sigma lattice shape mismatch")
        if np.any(~np.isfinite(self.sigma)) or np.any(self.sigma < 0):
            raise InvalidInputError("sigma nodes must be finite and non-negative")

    def _switches(self) -> np.ndarray:
        """The times from which slices 1..N-1 (0-based) serve: each
        maturity but the last, less its node tolerance."""
        mats = self.maturities[:-1]
        return mats - node_tolerance(mats)

    def _slice_index(self, t: float) -> int:
        """Row of ``sigma`` that serves time ``t``."""
        return int(np.searchsorted(self._switches(), t, side="right"))

    def value(self, t, s):
        row = self.sigma[self._slice_index(t)]
        return np.interp(np.asarray(s, dtype=float), self.strikes, row)

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
    """Drift and volatility values of the SDE: ``drift_s`` = r S and
    ``vol_s`` = sigma(t, S) (in the shape of the spots) for the spot,
    ``drift_r`` = a (theta - r) and ``vol_r`` = sigma2 for the rate."""

    drift_s: np.ndarray
    vol_s: np.ndarray
    drift_r: np.ndarray
    vol_r: np.ndarray


def sde_coefficients(m: HybridModel, t: float, s, r) -> SdeCoefficients:
    """Evaluate the SDE coefficient functions.

    ``s`` and ``r`` may be scalars or broadcastable arrays (e.g. a spot
    column and a rate row to produce full grids).
    """
    s_arr = _positive_spots(s)
    r_arr = np.asarray(r, dtype=float)
    p = m.rate
    return SdeCoefficients(
        drift_s=r_arr * s_arr,
        vol_s=np.broadcast_to(m.vol.value(t, s_arr), s_arr.shape),
        drift_r=p.a * (p.theta - r_arr),
        vol_r=np.full_like(r_arr, p.sigma2),
    )
