"""Corrective terms, Dupire surfaces and the maturity-bootstrap calibration.

With stochastic rates the local variance read off a call surface is the
deterministic-rates Dupire value minus a corrective term

    Adj(T, K) / (0.5 K C_KK),   Adj(K) = E[Z(T) (r(T) - f(0,T)) 1_{S(T) > K}],

where the expectation is evaluated by integrating the discounted joint
density from the grid solver. Consecutive strikes share their integration
region, so all corrective terms (or call prices) of one maturity cost a
single vectorized pass: one suffix sum over the spot cells, read at each
strike's cell plus the partial cell cut at the strike. Each march of the
bootstrap runs under one vol slice, constant in time, and every slice (the
seed at the first maturity included) is read off the market by one
extractor: the Dupire value minus the corrective term at each strike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable, Sequence

import numpy as np

from .analytic import bshw_call
from .errors import (
    ButterflyDegenerateError,
    CalibrationError,
    InvalidInputError,
    NegativeVarianceError,
)
from .models import ConstantVol, HybridModel, SurfaceVol, forward_rate
from .pde import Field2D, auto_grid, evolve

__all__ = [
    "CallSurface",
    "CorrectiveTermCurve",
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

EPS_FLOOR = 1e-12  # smallest usable C_KK; a flatter butterfly skips its strike
SLICE_TOLERANCE = 1e-4  # slice iterations stop once no node moves by more


# ---------------------------------------------------------------------------
# surfaces


@dataclass(frozen=True)
class CallSurface:
    """Call prices C(T, K) on a (maturity, strike) lattice.

    A surface that carries its generating ``model`` takes closed-form
    sensitivities from it; any other surface is differenced on the lattice.
    """

    maturities: np.ndarray
    strikes: np.ndarray
    prices: np.ndarray
    model: HybridModel | None = None

    def __post_init__(self):
        object.__setattr__(self, "maturities", np.asarray(self.maturities, dtype=float))
        object.__setattr__(self, "strikes", np.asarray(self.strikes, dtype=float))
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))
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


def make_analytic_surface(
    model: HybridModel, maturities: Sequence[float], strikes: Sequence[float]
) -> CallSurface:
    """Closed-form call surface for a constant-vol hybrid model."""
    mats = np.asarray(maturities, dtype=float)
    ks = np.asarray(strikes, dtype=float)
    prices = np.array([[bshw_call(model, t, k).price for k in ks] for t in mats])
    return CallSurface(mats, ks, prices, model=model)


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
            f"(T={t!r}, K={k!r}) must be nodes of the price lattice"
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
    if surface.model is not None:
        pg = bshw_call(surface.model, t, k)
        return pg.c_t, pg.c_k, pg.c_kk
    return _lattice_derivatives(surface, t, k)


def _dupire_variance(surface, forward_curve, t, k):
    """Deterministic-rates local variance and the C_KK it divides by."""
    if t <= 0 or k <= 0:
        raise InvalidInputError("need T > 0 and K > 0")
    c_t, c_k, c_kk = _surface_derivatives(surface, t, k)
    if c_kk <= EPS_FLOOR:
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
) -> float:
    """Deterministic-rates local variance [C_T + K f C_K] / (K^2 C_KK / 2)."""
    return _dupire_variance(surface, forward_curve, t, k)[0]


def local_vol_stochastic_rates(
    surface: CallSurface,
    forward_curve: Callable[[float], float],
    adj: CorrectiveTermCurve,
    t: float,
    k: float,
) -> float:
    """Stochastic-rates local variance: Dupire minus Adj(K) / (K C_KK / 2)."""
    dup, c_kk = _dupire_variance(surface, forward_curve, t, k)
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
        return "\n".join(lines) + "\n"


@dataclass
class CalibrationResult:
    surface: SurfaceVol
    report: CalibrationReport


def _slice(market, forward_curve, maturity, strikes, adj, report):
    """The local-vol slice at one maturity: the market's Dupire variance
    minus ``adj`` at every strike, and the strikes skipped on the way.

    A strike whose butterfly degenerates is skipped and takes the value of
    the nearest usable strike; a negative variance at any strike, or no
    usable strike at all, fails the calibration.
    """
    vals = np.full(len(strikes), np.nan)
    skipped, negative = [], []
    for j, k in enumerate(strikes):
        try:
            vals[j] = math.sqrt(
                local_vol_stochastic_rates(market, forward_curve, adj, maturity, float(k))
            )
        except ButterflyDegenerateError:
            skipped.append(float(k))
        except NegativeVarianceError:
            negative.append(float(k))
    if negative:
        raise CalibrationError(
            "negative local variance at "
            + ", ".join(f"(T={maturity:g}, K={k:g})" for k in negative),
            report=report,
        )
    usable = np.flatnonzero(~np.isnan(vals))
    if usable.size == 0:
        raise CalibrationError(f"no usable strike at maturity {maturity:g}", report=report)
    nearest = np.abs(np.arange(len(vals))[:, None] - usable[None, :]).argmin(axis=1)
    return vals[usable[nearest]], skipped


def _march_under(model, strikes, values, grid, start):
    """March to the grid horizon under one slice, constant in time."""
    model = replace(model, vol=SurfaceVol([grid.t_end], strikes, values[None, :]))
    return evolve(model, grid, start=start)


def calibrate(
    market: CallSurface,
    model: HybridModel,
    settings: CalibrationSettings | None = None,
) -> CalibrationResult:
    """Maturity-by-maturity bootstrap of the local-volatility surface.

    One box, whose steps hold every maturity (:func:`auto_grid`), serves
    them all. Every march covers one interval (T_{i-1}, T_i] under one
    slice, constant in time, and builds one step operator. The solve for
    T_i runs under the latest slice extended flat, which keeps it free of
    look-ahead: the previous maturity's final slice (the market Dupire
    slice at T_1 for the first interval), then in each further slice
    iteration the slice the last one produced. The corrective terms are
    read off the evolved field, and the slice follows from the Dupire value
    minus the rate adjustment. Every slice, the seed included, comes from
    one extractor, so a negative Dupire variance at T_1 fails before the
    first march.

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
    rate = model.rate
    forward_curve = lambda t: forward_rate(rate, t)  # noqa: E731

    sigma_ref_model = replace(model, vol=_ref_vol(market, forward_curve))
    box = auto_grid(sigma_ref_model, mats, settings.ds, settings.dr, settings.dt)
    if strikes[0] <= box.s_min or strikes[-1] >= box.s_max:
        raise InvalidInputError("market strikes fall outside the solver box")

    use_adj = settings.use_corrective and rate.sigma2 > 0.0
    report = CalibrationReport()
    t_1 = float(mats[0])
    # the T_1 iteration warns for the strikes the seed skips
    slice_vals, _ = _slice(
        market, forward_curve, t_1, strikes, CorrectiveTermCurve.zeros(t_1, strikes), report
    )
    slices = []

    checkpoint = None  # field at the previous maturity under its final slice
    drift_before = neg_before = 0.0  # maxima over the checkpointed marches
    for i, maturity in enumerate(mats):
        grid_i = box.with_horizon(float(maturity), int(round(maturity / box.dt)))
        iterations = 0
        max_update = math.inf
        while iterations < settings.slice_iterations and max_update > SLICE_TOLERANCE:
            iterations += 1
            result = _march_under(model, strikes, slice_vals, grid_i, checkpoint)
            fld = result.snapshots[-1]
            if use_adj:
                adj = corrective_terms(fld, forward_curve(float(maturity)), strikes)
            else:
                adj = CorrectiveTermCurve.zeros(float(maturity), strikes)
            new_slice, skipped = _slice(
                market, forward_curve, float(maturity), strikes, adj, report
            )
            if skipped:
                report.warnings.append(
                    f"T={maturity:g}: degenerate butterfly at K in {skipped}; flat-filled"
                )
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
            checkpoint = fixed.snapshots[-1]
            drift_before = max(drift_before, fixed.diagnostics.max_ratio_deviation())
            neg_before = max(neg_before, max(fixed.diagnostics.negative_fraction, default=0.0))

    surface = SurfaceVol(mats.copy(), strikes.copy(), np.vstack(slices))
    return CalibrationResult(surface=surface, report=report)


def _ref_vol(market: CallSurface, forward_curve):
    """At-the-money volatility scale for sizing the solver box."""
    t_ref = float(market.maturities[-1])
    k_mid = float(market.strikes[len(market.strikes) // 2])
    try:
        level = math.sqrt(dupire_vol(market, forward_curve, t_ref, k_mid))
    except (ButterflyDegenerateError, NegativeVarianceError):
        level = 0.3
    return ConstantVol(level)
