"""Corrective terms, Dupire surfaces and the maturity-bootstrap calibration.

With stochastic rates the local variance read off a call surface is the
deterministic-rates Dupire value minus a corrective term

    Adj(T, K) / (0.5 K C_KK),   Adj(K) = E[Z(T) (r(T) - f(0,T)) 1_{S(T) > K}],

where the expectation is evaluated by integrating the discounted joint
density from the grid solver. Consecutive strikes share their integration
region, so all corrective terms (or call prices) of one maturity cost a
single vectorized pass: one suffix sum over the spot cells, read at each
strike's cell plus the partial cell cut at the strike. Each march of the
bootstrap runs under one vol slice, constant in time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .analytic import bshw_call
from .errors import (
    ButterflyDegenerateError,
    CalibrationError,
    InvalidInputError,
    NegativeVarianceError,
)
from .models import HybridModel, SurfaceVol, forward_rate
from .pde import Field2D, auto_grid, evolve

__all__ = [
    "CallSurface",
    "CorrectiveTermCurve",
    "LocalVolSurface",
    "make_analytic_surface",
    "corrective_terms",
    "price_calls_from_pz",
    "dupire_vol",
    "local_vol_stochastic_rates",
    "CalibrationSettings",
    "CalibrationReport",
    "CalibrationResult",
    "calibrate",
]

EPS_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# surfaces


@dataclass(frozen=True)
class CallSurface:
    """Call prices C(T, K) on a (maturity, strike) lattice.

    ``provider`` records where derivative information comes from:
    ``analytic`` surfaces carry their generating model and use closed-form
    sensitivities, ``pde``/``external`` surfaces are differenced on the
    lattice.
    """

    maturities: np.ndarray
    strikes: np.ndarray
    prices: np.ndarray
    provider: str = "external"
    model: HybridModel | None = None

    def __post_init__(self):
        object.__setattr__(self, "maturities", np.asarray(self.maturities, dtype=float))
        object.__setattr__(self, "strikes", np.asarray(self.strikes, dtype=float))
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))
        if self.provider not in ("analytic", "pde", "external"):
            raise InvalidInputError(f"unknown provider {self.provider!r}")
        if np.any(np.diff(self.maturities) <= 0) or np.any(np.diff(self.strikes) <= 0):
            raise InvalidInputError("maturities and strikes must be strictly increasing")
        if self.prices.shape != (len(self.maturities), len(self.strikes)):
            raise InvalidInputError("price lattice shape mismatch")
        if np.any(np.diff(self.prices, axis=1) > 1e-12):
            raise InvalidInputError("prices must be non-increasing in strike")
        if self.strikes.size >= 3:
            second = np.diff(self.prices, n=2, axis=1)
            if np.any(second < -1e-10):
                raise InvalidInputError("prices must be convex in strike")
        if self.provider == "analytic" and self.model is None:
            raise InvalidInputError("analytic surfaces must carry their model")


def make_analytic_surface(
    model: HybridModel, maturities: Sequence[float], strikes: Sequence[float]
) -> CallSurface:
    """Closed-form call surface for a constant-vol hybrid model."""
    mats = np.asarray(maturities, dtype=float)
    ks = np.asarray(strikes, dtype=float)
    prices = np.array([[bshw_call(model, t, k).price for k in ks] for t in mats])
    return CallSurface(mats, ks, prices, provider="analytic", model=model)


@dataclass(frozen=True)
class CorrectiveTermCurve:
    """Stochastic-rates adjustment Adj(K) at one maturity."""

    maturity: float
    strikes: np.ndarray
    adj: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "strikes", np.asarray(self.strikes, dtype=float))
        object.__setattr__(self, "adj", np.asarray(self.adj, dtype=float))
        if self.strikes.shape != self.adj.shape:
            raise InvalidInputError("strike/value shape mismatch")

    def interp(self, strike: float) -> float:
        """Linear between nodes, clamped outside."""
        return float(np.interp(strike, self.strikes, self.adj))

    @classmethod
    def zeros(cls, maturity: float, strikes) -> "CorrectiveTermCurve":
        ks = np.asarray(strikes, dtype=float)
        return cls(maturity, ks, np.zeros_like(ks))


@dataclass(frozen=True)
class LocalVolSurface:
    """Calibrated sigma(T, K) nodes; bilinear inside, flat outside."""

    maturities: np.ndarray
    strikes: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "maturities", np.asarray(self.maturities, dtype=float))
        object.__setattr__(self, "strikes", np.asarray(self.strikes, dtype=float))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        if self.sigma.shape != (len(self.maturities), len(self.strikes)):
            raise InvalidInputError("sigma lattice shape mismatch")
        if np.any(~np.isfinite(self.sigma)) or np.any(self.sigma < 0):
            raise InvalidInputError("sigma nodes must be finite and non-negative")

    def vol(self, t, s):
        """Bilinear interpolation in (T, K) with flat extrapolation."""
        mats = self.maturities
        t_clamped = min(max(float(t), mats[0]), mats[-1])
        if len(mats) == 1:
            row = self.sigma[0]
        else:
            j = int(np.searchsorted(mats, t_clamped, side="right") - 1)
            j = min(max(j, 0), len(mats) - 2)
            w = (t_clamped - mats[j]) / (mats[j + 1] - mats[j])
            row = (1.0 - w) * self.sigma[j] + w * self.sigma[j + 1]
        return np.interp(np.asarray(s, dtype=float), self.strikes, row)

    def next_change(self, t: float) -> float:
        """Constant in time with one maturity or from the last one on;
        between maturities the interpolation moves with every ``t``."""
        if len(self.maturities) == 1 or t >= self.maturities[-1]:
            return math.inf
        return float(t)

    def as_vol_function(self) -> SurfaceVol:
        return SurfaceVol(self)


# ---------------------------------------------------------------------------
# single-pass integrals against a piecewise-linear spot marginal


def _strike_integrals(s_full: np.ndarray, marginal: np.ndarray, strikes):
    """Integrals of a piecewise-linear marginal over [K, s_max], at every K.

    ``s_full`` are the uniform spot nodes including both box edges and
    ``marginal`` the values on them. Returns ``(m0, m1)``: the integrals of
    the marginal and of S times it, both exact for the piecewise-linear
    model. One suffix sum of whole-cell integrals serves every strike, which
    adds the partial cell cut at its own position.
    """
    ks = np.asarray(strikes, dtype=float)
    if ks.ndim != 1 or ks.size == 0:
        raise InvalidInputError("need a non-empty strike array")
    if not np.all(np.diff(ks) > 0):
        raise InvalidInputError("strikes must be strictly increasing")
    if not (s_full[0] < ks[0] and ks[-1] < s_full[-1]):
        raise InvalidInputError("strikes must lie inside the grid box")
    h = s_full[1] - s_full[0]
    v0, v1 = marginal[:-1], marginal[1:]
    cell0 = 0.5 * h * (v0 + v1)
    cell1 = h * (s_full[:-1] * 0.5 * (v0 + v1) + h * (v0 / 6.0 + v1 / 3.0))
    # suffix[i] = integral from node i to the right edge
    suffix0 = np.concatenate([np.cumsum(cell0[::-1])[::-1], [0.0]])
    suffix1 = np.concatenate([np.cumsum(cell1[::-1])[::-1], [0.0]])
    idx = np.minimum(np.searchsorted(s_full, ks, side="right") - 1, s_full.size - 2)
    # partial cell [K, node idx+1]
    x = ks - s_full[idx]
    va, vb = marginal[idx], marginal[idx + 1]
    vk = va + (vb - va) * x / h
    length = h - x
    m0 = suffix0[idx + 1] + 0.5 * length * (vk + vb)
    m1 = suffix1[idx + 1] + length * (ks * 0.5 * (vk + vb) + length * (vk / 6.0 + vb / 3.0))
    return m0, m1


def corrective_terms(field: Field2D, f0t: float, strikes) -> CorrectiveTermCurve:
    """Adj(K) = integral of (r - f(0,T)) over {S > K} against the field.

    Each strike reads the zeroth-moment suffix integral of the weighted
    spot marginal, so the whole curve costs a single traversal of the grid.
    """
    g = field.grid
    s_full = np.concatenate([[g.s_min], g.s_nodes, [g.s_max]])
    marginal = np.pad(g.dr * (field.values * (g.r_nodes - f0t)).sum(axis=1), 1)
    m0, _ = _strike_integrals(s_full, marginal, strikes)
    return CorrectiveTermCurve(maturity=field.t, strikes=strikes, adj=m0)


def price_calls_from_pz(field: Field2D, strikes) -> np.ndarray:
    """Call prices by integrating the kinked payoff against the field.

    Uses the exact integral of (S - K)+ against the piecewise-linear spot
    marginal, split as a first-moment and a zeroth-moment suffix integral
    (partial cells at the strike cut), one pass for all strikes.
    """
    g = field.grid
    s_full = np.concatenate([[g.s_min], g.s_nodes, [g.s_max]])
    marginal = np.pad(g.dr * field.values.sum(axis=1), 1)
    m0, m1 = _strike_integrals(s_full, marginal, strikes)
    return m1 - np.asarray(strikes, dtype=float) * m0


# ---------------------------------------------------------------------------
# local-volatility extraction


def _lattice_derivatives(surface: CallSurface, t: float, k: float):
    """Finite differences on the price lattice; central inside, one-sided
    at the edges."""
    mats, ks, prices = surface.maturities, surface.strikes, surface.prices
    it = int(np.argmin(np.abs(mats - t)))
    ik = int(np.argmin(np.abs(ks - k)))
    if abs(mats[it] - t) > 1e-9 * max(1.0, abs(t)) or abs(ks[ik] - k) > 1e-9 * max(1.0, abs(k)):
        raise InvalidInputError(
            f"(T={t!r}, K={k!r}) must be lattice nodes for a {surface.provider} surface"
        )
    if len(mats) == 1:
        raise InvalidInputError("cannot difference a single-maturity lattice in T")
    if 0 < it < len(mats) - 1:
        c_t = (prices[it + 1, ik] - prices[it - 1, ik]) / (mats[it + 1] - mats[it - 1])
    elif it == 0:
        c_t = (prices[1, ik] - prices[0, ik]) / (mats[1] - mats[0])
    else:
        c_t = (prices[-1, ik] - prices[-2, ik]) / (mats[-1] - mats[-2])
    if len(ks) < 3:
        raise InvalidInputError("need at least 3 strikes to difference in K")
    if 0 < ik < len(ks) - 1:
        hk = ks[ik + 1] - ks[ik]
        c_k = (prices[it, ik + 1] - prices[it, ik - 1]) / (ks[ik + 1] - ks[ik - 1])
        c_kk = (prices[it, ik + 1] - 2 * prices[it, ik] + prices[it, ik - 1]) / hk**2
    elif ik == 0:
        hk = ks[1] - ks[0]
        c_k = (prices[it, 1] - prices[it, 0]) / hk
        c_kk = (prices[it, 2] - 2 * prices[it, 1] + prices[it, 0]) / hk**2
    else:
        hk = ks[-1] - ks[-2]
        c_k = (prices[it, -1] - prices[it, -2]) / hk
        c_kk = (prices[it, -1] - 2 * prices[it, -2] + prices[it, -3]) / hk**2
    return float(c_t), float(c_k), float(c_kk)


def _surface_derivatives(surface: CallSurface, t: float, k: float):
    if surface.provider == "analytic":
        pg = bshw_call(surface.model, t, k)
        return pg.c_t, pg.c_k, pg.c_kk
    return _lattice_derivatives(surface, t, k)


def _dupire_variance(surface, forward_curve, t, k, eps_floor):
    """Deterministic-rates local variance and the C_KK it divides by."""
    if t <= 0 or k <= 0:
        raise InvalidInputError("need T > 0 and K > 0")
    c_t, c_k, c_kk = _surface_derivatives(surface, t, k)
    if c_kk <= eps_floor:
        raise ButterflyDegenerateError(t, k, c_kk)
    f = float(forward_curve(t))
    var = (c_t + k * f * c_k) / (0.5 * k**2 * c_kk)
    if var < 0:
        raise NegativeVarianceError(t, k, var, 0.0, c_kk)
    return float(var), c_kk


def dupire_vol(
    surface: CallSurface,
    forward_curve: Callable[[float], float],
    t: float,
    k: float,
    *,
    eps_floor: float = EPS_FLOOR,
) -> float:
    """Deterministic-rates local variance [C_T + K f C_K] / (K^2 C_KK / 2)."""
    return _dupire_variance(surface, forward_curve, t, k, eps_floor)[0]


def local_vol_stochastic_rates(
    surface: CallSurface,
    forward_curve: Callable[[float], float],
    adj: CorrectiveTermCurve,
    t: float,
    k: float,
    *,
    eps_floor: float = EPS_FLOOR,
) -> float:
    """Stochastic-rates local variance: Dupire minus Adj(K) / (K C_KK / 2)."""
    dup, c_kk = _dupire_variance(surface, forward_curve, t, k, eps_floor)
    a = adj.interp(k)
    var = dup - a / (0.5 * k * c_kk)
    if var < 0:
        raise NegativeVarianceError(t, k, dup, a, c_kk)
    return float(var)


# ---------------------------------------------------------------------------
# bootstrap calibration


@dataclass(frozen=True)
class CalibrationSettings:
    """Grid and slice-iteration settings for the maturity bootstrap."""

    ds: float = 0.008
    dr: float = 0.0015
    dt: float = 0.005
    slice_iterations: int = 1
    use_corrective: bool = True
    eps_floor: float = EPS_FLOOR
    slice_tolerance: float = 1e-4

    def __post_init__(self):
        if self.slice_iterations < 1 or self.slice_iterations > 5:
            raise InvalidInputError("slice_iterations must be in 1..5")


@dataclass
class MaturityDiagnostics:
    maturity: float
    mass_drift: float
    negative_fraction: float
    skipped_strikes: list
    iterations: int
    max_slice_update: float


@dataclass
class CalibrationReport:
    entries: list = dataclass_field(default_factory=list)
    failures: list = dataclass_field(default_factory=list)
    warnings: list = dataclass_field(default_factory=list)

    def format_text(self) -> str:
        lines = ["calibration report", "==================="]
        for e in self.entries:
            lines.append(
                f"T={e.maturity:<8.4g} mass_drift={e.mass_drift:+.3e} "
                f"neg_frac={e.negative_fraction:.3e} iterations={e.iterations} "
                f"slice_update={e.max_slice_update:.3e} "
                f"skipped={','.join(f'{k:g}' for k in e.skipped_strikes) or 'none'}"
            )
        for w in self.warnings:
            lines.append(f"warning: {w}")
        for f in self.failures:
            lines.append(f"failure: negative variance at (T={f[0]:g}, K={f[1]:g})")
        return "\n".join(lines) + "\n"


@dataclass
class CalibrationResult:
    surface: LocalVolSurface
    report: CalibrationReport


def _seed_slice(market: CallSurface, forward_curve, strikes, eps_floor) -> np.ndarray:
    """Initial guess for the first interval: the market Dupire slice at the
    first maturity (flat-filled where the butterfly degenerates)."""
    t1 = float(market.maturities[0])
    vals = np.full(len(strikes), np.nan)
    for j, k in enumerate(strikes):
        try:
            vals[j] = math.sqrt(dupire_vol(market, forward_curve, t1, float(k), eps_floor=eps_floor))
        except (ButterflyDegenerateError, NegativeVarianceError):
            pass
    if np.all(np.isnan(vals)):
        raise CalibrationError("no usable strike on the first maturity")
    return _fill_nan_flat(vals)


def _fill_nan_flat(vals: np.ndarray) -> np.ndarray:
    out = vals.copy()
    idx = np.where(~np.isnan(out))[0]
    for j in range(len(out)):
        if np.isnan(out[j]):
            out[j] = out[idx[np.argmin(np.abs(idx - j))]]
    return out


# How far the aligned step count may exceed round(t_max / dt).
_MAX_EXTRA_STEPS = 200_000


def _aligned_step_count(maturities, dt: float) -> int:
    """Smallest step count n >= round(t_max / dt) putting every maturity on
    the lattice t_max * k / n (to 1e-9 of a step).

    Each ratio T / t_max is read as the nearest fraction with a denominator
    of at most the largest allowed n; n is the least multiple of the lcm of
    those denominators that is not below the requested count. If any
    allowed n aligns every maturity, each nearest fraction is T / t_max
    written over that n (distinct fractions with such denominators lie
    further apart than the 1e-9 tolerance), so this n is the smallest one.
    """
    mats = np.asarray(maturities, dtype=float)
    t_max = float(mats[-1])
    n_min = max(1, int(round(t_max / dt)))
    limit = n_min + _MAX_EXTRA_STEPS
    lcm = 1
    for m in mats:
        lcm = math.lcm(lcm, Fraction(float(m) / t_max).limit_denominator(limit).denominator)
    n_total = lcm * -(-n_min // lcm)
    steps = mats / t_max * n_total
    if n_total >= limit or not np.all(np.abs(steps - np.round(steps)) < 1e-9):
        raise CalibrationError("could not align market maturities with a uniform step")
    return n_total


def _march_under(model, strikes, values, grid, start):
    """March to the grid horizon under one slice, constant in time."""
    surface = LocalVolSurface([grid.t_end], strikes, values[None, :])
    model = replace(model, vol=surface.as_vol_function())
    return evolve(model, grid, snapshot_times=[grid.t_end], start=start)


def calibrate(
    market: CallSurface,
    model: HybridModel,
    settings: CalibrationSettings | None = None,
) -> CalibrationResult:
    """Maturity-by-maturity bootstrap of the local-volatility surface.

    Every march covers one interval (T_{i-1}, T_i] under one slice,
    constant in time, and builds one step operator. The solve for T_i runs
    under the latest slice extended flat, which keeps it free of
    look-ahead: the previous maturity's final slice (the market Dupire
    slice for the first interval), then in each further slice iteration
    the slice the last one produced. The corrective terms are read off the
    evolved field, and the slice follows from the Dupire value minus the
    rate adjustment.

    Once a slice is fixed, it governs every step of its interval: the
    interval is marched once more under it and the field at T_i is kept as
    a checkpoint. The march for T_{i+1}, and each of its slice iterations,
    resumes from that checkpoint: the same floating-point operations as a
    restart from t=0 under the fixed slices, at the cost of the open
    interval alone. All maturities therefore share the short-time start t0
    of the first maturity's march; a restart per maturity would differ
    only where that start's ``n_t // 4`` cap binds on the first grid but
    not on a later one. The report's mass drift and negative fraction are
    maxima over (0, T_i], carried forward across checkpoints.
    """
    settings = settings or CalibrationSettings()
    mats = market.maturities
    strikes = market.strikes
    t_max = float(mats[-1])
    rate = model.rate
    forward_curve = lambda t: forward_rate(rate, t)  # noqa: E731

    # One spatial box for all maturities, on a time lattice that holds
    # every market maturity.
    n_total = _aligned_step_count(mats, settings.dt)
    sigma_ref_model = replace(model, vol=_ref_vol(market, forward_curve, settings))
    box = auto_grid(sigma_ref_model, t_max, settings.ds, settings.dr, settings.dt)
    if strikes[0] <= box.s_min or strikes[-1] >= box.s_max:
        raise InvalidInputError("market strikes fall outside the solver box")

    use_adj = settings.use_corrective and rate.sigma2 > 0.0
    report = CalibrationReport()
    slice_vals = _seed_slice(market, forward_curve, strikes, settings.eps_floor)
    slices = []

    checkpoint = None  # field at the previous maturity under its final slice
    drift_before = neg_before = 0.0  # maxima over the checkpointed marches
    for i, maturity in enumerate(mats):
        n_t = int(round(maturity / t_max * n_total))
        grid_i = box.with_horizon(float(maturity), n_t)
        iterations = 0
        max_update = math.inf
        while iterations < settings.slice_iterations and max_update > settings.slice_tolerance:
            iterations += 1
            result = _march_under(model, strikes, slice_vals, grid_i, checkpoint)
            fld = result.at(float(maturity))
            if use_adj:
                adj = corrective_terms(fld, forward_curve(float(maturity)), strikes)
            else:
                adj = CorrectiveTermCurve.zeros(float(maturity), strikes)
            vals = np.full(len(strikes), np.nan)
            skipped = []
            for j, k in enumerate(strikes):
                try:
                    var = local_vol_stochastic_rates(
                        market, forward_curve, adj, float(maturity), float(k),
                        eps_floor=settings.eps_floor,
                    )
                    vals[j] = math.sqrt(var)
                except ButterflyDegenerateError:
                    skipped.append(float(k))
                except NegativeVarianceError:
                    report.failures.append((float(maturity), float(k)))
            if report.failures:
                raise CalibrationError(
                    "negative local variance at "
                    + ", ".join(f"(T={t:g}, K={k:g})" for t, k in report.failures),
                    report=report,
                )
            if np.all(np.isnan(vals)):
                raise CalibrationError(f"no usable strike at maturity {maturity:g}", report=report)
            if skipped:
                report.warnings.append(
                    f"T={maturity:g}: degenerate butterfly at K in {skipped}; flat-filled"
                )
            new_slice = _fill_nan_flat(vals)
            if iterations > 1:
                max_update = float(np.max(np.abs(new_slice - slice_vals)))
            slice_vals = new_slice

        mass_drift = max(drift_before, result.diagnostics.max_ratio_deviation())
        neg_frac = max(neg_before, max(result.diagnostics.negative_fraction, default=0.0))
        report.entries.append(
            MaturityDiagnostics(
                maturity=float(maturity),
                mass_drift=mass_drift,
                negative_fraction=neg_frac,
                skipped_strikes=skipped,
                iterations=iterations,
                max_slice_update=0.0 if math.isinf(max_update) else max_update,
            )
        )
        slices.append(slice_vals)
        if i < len(mats) - 1:
            fixed = _march_under(model, strikes, slice_vals, grid_i, checkpoint)
            checkpoint = fixed.at(float(maturity))
            drift_before = max(drift_before, fixed.diagnostics.max_ratio_deviation())
            neg_before = max(neg_before, max(fixed.diagnostics.negative_fraction, default=0.0))

    surface = LocalVolSurface(mats.copy(), strikes.copy(), np.vstack(slices))
    return CalibrationResult(surface=surface, report=report)


def _ref_vol(market: CallSurface, forward_curve, settings):
    """At-the-money volatility scale for sizing the solver box."""
    from .models import ConstantVol

    t_ref = float(market.maturities[-1])
    k_mid = float(market.strikes[len(market.strikes) // 2])
    try:
        level = math.sqrt(dupire_vol(market, forward_curve, t_ref, k_mid, eps_floor=settings.eps_floor))
    except (ButterflyDegenerateError, NegativeVarianceError):
        level = 0.3
    return ConstantVol(level)
