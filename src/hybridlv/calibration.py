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
extractor, a whole maturity row at once: the Dupire value minus the
corrective term at every strike. The market's sensitivities come in closed
form from its model or, without one, from lattice differences whose C_KK
takes three-point weights, exact for a parabola on uneven strikes. A
single Dupire value (:func:`dupire_vol`) is read at a lattice node only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable, Sequence

import numpy as np

from .analytic import bshw_call
from .errors import CalibrationError, InvalidInputError, require_integer
from .models import ConstantVol, HybridModel, SurfaceVol, forward_rate, lattice_axis, nearest_node
from .pde import Field2D, Grid2D, auto_grid, evolve

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
        object.__setattr__(self, "maturities", lattice_axis(self.maturities, "maturities"))
        object.__setattr__(self, "strikes", lattice_axis(self.strikes, "strikes"))
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))
        if not np.all(np.isfinite(self.prices)):
            raise InvalidInputError("prices must be finite")
        if self.prices.shape != (len(self.maturities), len(self.strikes)):
            raise InvalidInputError("price lattice shape mismatch")
        if np.any(np.diff(self.prices, axis=1) > 1e-12):
            raise InvalidInputError("prices must be non-increasing in strike")
        if self.strikes.size >= 3:
            # slope changes times the mean adjacent spacing: the second
            # difference on an even lattice
            h = np.diff(self.strikes)
            bend = np.diff(np.diff(self.prices, axis=1) / h, axis=1) * (0.5 * (h[:-1] + h[1:]))
            if np.any(bend < -1e-10):
                raise InvalidInputError("prices must be convex in strike")


def make_analytic_surface(
    model: HybridModel, maturities: Sequence[float], strikes: Sequence[float]
) -> CallSurface:
    """Closed-form call surface for a constant-vol hybrid model."""
    mats = lattice_axis(maturities, "maturities")
    ks = lattice_axis(strikes, "strikes")
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
    ks = lattice_axis(strikes, "strikes")
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


def _spot_marginal(g: Grid2D, density: np.ndarray):
    """The spot nodes of ``g`` with both box edges, and the integral over r
    of ``density`` (values on the interior nodes) on them, zero at the edges."""
    s_full = np.concatenate([[g.s_min], g.s_nodes, [g.s_max]])
    return s_full, np.pad(g.dr * density.sum(axis=1), 1)


def corrective_terms(field: Field2D, f0t: float, strikes) -> CorrectiveTermCurve:
    """Adj(K) = integral of (r - f(0,T)) over {S > K} against the field.

    Each strike reads the zeroth-moment suffix integral of the weighted
    spot marginal, so the whole curve costs a single traversal of the grid.
    """
    weighted = field.values * (field.grid.r_nodes - f0t)
    m0, _ = _strike_integrals(*_spot_marginal(field.grid, weighted), strikes)
    return CorrectiveTermCurve(maturity=field.t, strikes=strikes, adj=m0)


def price_calls_from_pz(field: Field2D, strikes) -> np.ndarray:
    """Call prices by integrating the kinked payoff against the field.

    Uses the exact integral of (S - K)+ against the piecewise-linear spot
    marginal, split as a first-moment and a zeroth-moment suffix integral
    (partial cells at the strike cut), one pass for all strikes.
    """
    m0, m1 = _strike_integrals(*_spot_marginal(field.grid, field.values), strikes)
    return m1 - np.asarray(strikes, dtype=float) * m0


# ---------------------------------------------------------------------------
# local-volatility extraction


def _node(axis: np.ndarray, x: float, name: str) -> int:
    """Index of the lattice node ``x`` on ``axis``."""
    i = nearest_node(axis, x)
    if i is None:
        raise InvalidInputError(f"{name}={x!r} is not a node of the price lattice")
    return i


def _sensitivities(surface: CallSurface, i: int):
    """C_T, C_K and C_KK at every strike of maturity row ``i``.

    A surface with a model takes them in closed form; any other is
    differenced on the lattice: central inside (C_KK with the three-point
    weights of an uneven lattice), one-sided at the edges, where C_KK takes
    the value of the neighbouring strike.
    """
    mats, ks, prices = surface.maturities, surface.strikes, surface.prices
    if surface.model is not None:
        greeks = [bshw_call(surface.model, float(mats[i]), float(k)) for k in ks]
        return tuple(np.array([getattr(g, n) for g in greeks]) for n in ("c_t", "c_k", "c_kk"))
    if len(mats) == 1:
        raise InvalidInputError("cannot difference a single-maturity lattice in T")
    if len(ks) < 3:
        raise InvalidInputError("need at least 3 strikes to difference in K")
    lo, hi = max(i - 1, 0), min(i + 1, len(mats) - 1)
    c_t = (prices[hi] - prices[lo]) / (mats[hi] - mats[lo])
    row, j = prices[i], np.arange(len(ks))
    jm, jp = np.maximum(j - 1, 0), np.minimum(j + 1, len(ks) - 1)
    c_k = (row[jp] - row[jm]) / (ks[jp] - ks[jm])
    h = np.diff(ks)
    bend = 2 * np.diff(np.diff(row) / h) / (h[:-1] + h[1:])  # three-point C_KK, K_1..K_{n-2}
    c_kk = bend[np.clip(j - 1, 0, len(ks) - 3)]
    return c_t, c_k, c_kk


def local_vol_stochastic_rates(
    surface: CallSurface,
    forward_curve: Callable[[float], float],
    adj: np.ndarray | float,
    t: float,
):
    """Local variances along the maturity row ``t`` (a lattice maturity).

    ``adj`` is Adj(K) at every strike, or 0.0. Returns the rows
    ``(dupire, local)``: the deterministic-rates Dupire variance
    [C_T + K f C_K] / (K^2 C_KK / 2) and the stochastic-rates variance
    dupire - Adj(K) / (K C_KK / 2). Both read NaN where C_KK is at or
    below ``EPS_FLOOR``: the butterfly is degenerate there.
    """
    i = _node(surface.maturities, t, "T")
    c_t, c_k, c_kk = _sensitivities(surface, i)
    ks = surface.strikes
    f = float(forward_curve(float(surface.maturities[i])))
    with np.errstate(divide="ignore", invalid="ignore"):
        dupire = np.where(c_kk > EPS_FLOOR, (c_t + ks * f * c_k) / (0.5 * ks**2 * c_kk), np.nan)
        local = dupire - adj / (0.5 * ks * c_kk)
    return dupire, local


def dupire_vol(
    surface: CallSurface,
    forward_curve: Callable[[float], float],
    t: float,
    k: float,
) -> float:
    """Deterministic-rates local variance at the lattice node (t, k).

    Raises :class:`CalibrationError`, naming the node and the cause, where
    the slice extractor would skip the strike (a degenerate butterfly) or
    fail (a negative variance).
    """
    j = _node(surface.strikes, k, "K")
    dupire = float(local_vol_stochastic_rates(surface, forward_curve, 0.0, t)[0][j])
    if not dupire >= 0:
        cause = ("degenerate butterfly" if math.isnan(dupire)
                 else f"negative Dupire variance {dupire:g}")
        raise CalibrationError(f"{cause} at (T={t:g}, K={k:g})")
    return dupire


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
        require_integer("slice_iterations", self.slice_iterations)
        if self.slice_iterations < 1 or self.slice_iterations > 5:
            raise InvalidInputError("slice_iterations must be in 1..5")


@dataclass
class MaturityDiagnostics:
    maturity: float
    mass_drift: float
    negative_mass_ratio: float
    skipped_strikes: list
    iterations: int
    max_slice_update: float | None  # None after one iteration: nothing to compare
    reprice_err: float | None = None  # the last maturity has no checkpoint


@dataclass
class CalibrationReport:
    entries: list = dataclass_field(default_factory=list)
    warnings: list = dataclass_field(default_factory=list)

    def format_text(self) -> str:
        def _fmt_opt(value):  # n/a where nothing was measured
            return "n/a" if value is None else f"{value:.3e}"

        lines = ["calibration report", "==================="]
        for e in self.entries:
            lines.append(
                f"T={e.maturity:<8.4g} mass_drift={e.mass_drift:+.3e} "
                f"neg_mass={e.negative_mass_ratio:.3e} iterations={e.iterations} "
                f"slice_update={_fmt_opt(e.max_slice_update)} "
                f"reprice_err={_fmt_opt(e.reprice_err)} "
                f"skipped={','.join(f'{k:g}' for k in e.skipped_strikes) or 'none'}"
            )
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"


@dataclass
class CalibrationResult:
    surface: SurfaceVol
    report: CalibrationReport


def _slice(market, forward_curve, maturity, adj, report):
    """The local-vol slice at one maturity: the market's Dupire variance
    minus ``adj`` at every strike, and the strikes skipped on the way.

    A strike whose butterfly degenerates is skipped and takes the value of
    the nearest usable strike; a negative variance at any strike (the
    Dupire one included), or no usable strike at all, fails the
    calibration.
    """
    dupire, local = local_vol_stochastic_rates(market, forward_curve, adj, maturity)
    negative = (dupire < 0) | (local < 0)
    if negative.any():
        raise CalibrationError(
            "negative local variance at "
            + ", ".join(f"(T={maturity:g}, K={k:g})" for k in market.strikes[negative]),
            report=report,
        )
    skipped = np.isnan(local)
    usable = np.flatnonzero(~skipped)
    if usable.size == 0:
        raise CalibrationError(f"no usable strike at maturity {maturity:g}", report=report)
    nearest = np.abs(np.arange(len(local))[:, None] - usable[None, :]).argmin(axis=1)
    return np.sqrt(local[usable[nearest]]), [float(k) for k in market.strikes[skipped]]


def _march_under(model, strikes, values, grid, start, checkpoint_at=None):
    """March to the grid horizon under one slice, constant in time, keeping
    the field there and, given ``checkpoint_at``, first the field at that
    step time."""
    model = replace(model, vol=SurfaceVol([grid.t_end], strikes, values[None, :]))
    times = [grid.t_end] if checkpoint_at is None else [checkpoint_at, grid.t_end]
    return evolve(model, grid, snapshot_times=times, start=start)


def _worst(diag, steps):
    """The largest mass drift and negative-mass ratio over ``steps`` of a march."""
    drift = float(np.max(np.abs(diag.mass_ratios[steps] - 1.0), initial=0.0))
    return drift, max(diag.negative_mass_ratio[steps], default=0.0)


def calibrate(
    market: CallSurface,
    model: HybridModel,
    settings: CalibrationSettings | None = None,
) -> CalibrationResult:
    """Maturity-by-maturity bootstrap of the local-volatility surface.

    One box, whose steps hold every maturity (:func:`auto_grid`), serves
    them all. Each slice iteration for T_i marches (T_{i-1}, T_i] under one
    slice, constant in time, which keeps it free of look-ahead: the
    previous maturity's final slice extended flat (the market Dupire slice
    at T_1 for the first interval), then in each further slice iteration
    the slice the last one produced. The corrective terms are read off the
    evolved field, and the slice follows from the Dupire value minus the
    rate adjustment. Every slice, the seed included, comes from one
    extractor, so a negative Dupire variance at T_1 fails before the first
    march.

    Once a slice is fixed, it governs every step of its interval: the
    interval is marched once more under it and the field at T_i is kept as
    a checkpoint. That re-march and the first slice iteration for T_{i+1}
    run under the same slice, so they are one march, from the checkpoint
    at T_{i-1} to T_{i+1} with a snapshot at T_i: one march, and one step
    operator, per slice iteration. Each further slice iteration for
    T_{i+1} resumes from the checkpoint at T_i: the same floating-point
    operations as a restart from t=0 under the fixed slices, at the cost
    of the open interval alone. The report's mass drift and negative-mass
    ratio are maxima over (0, T_i], carried forward across checkpoints,
    and every march's mass-drift warnings join the report's warnings.

    A checkpoint is the field a solve under the returned surface reaches at
    T_i, so its call prices against the market row are the report's
    repricing error, at no extra march. The last maturity has no checkpoint
    and reports none.
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
    # the T_1 slice warns for the strikes the seed skips
    slice_vals, _ = _slice(market, forward_curve, float(mats[0]), 0.0, report)
    slices = []

    checkpoint = None  # the field at the latest checkpointed maturity
    drift_before = neg_before = 0.0  # maxima over the steps up to it
    for i, maturity in enumerate(mats):
        grid_i = replace(box, maturities=box.maturities[:i + 1], steps=box.steps[:i + 1])
        iterations = 0
        max_update = math.inf
        while iterations < settings.slice_iterations and max_update > SLICE_TOLERANCE:
            iterations += 1
            split = 0  # the steps of ``result`` before T_{i-1}
            result = fld = None  # the last march's fields are spent; the checkpoint stays
            if iterations == 1 and i > 0:
                # slice i-1 is final: re-march its interval under it, keep
                # the checkpoint at T_{i-1} and run on to T_i
                result = _march_under(
                    model, strikes, slice_vals, grid_i, checkpoint, float(mats[i - 1]))
                checkpoint = result.snapshots[0]
                split = result.diagnostics.times.index(checkpoint.t) + 1
                repriced = price_calls_from_pz(checkpoint, strikes)
                report.entries[-1].reprice_err = float(
                    np.max(np.abs(repriced - market.prices[i - 1])))
                drift, neg = _worst(result.diagnostics, slice(split))
                drift_before, neg_before = max(drift_before, drift), max(neg_before, neg)
            else:
                result = _march_under(model, strikes, slice_vals, grid_i, checkpoint)
            report.warnings.extend(result.diagnostics.warnings)
            fld = result.snapshots[-1]
            adj = 0.0
            if use_adj:
                adj = corrective_terms(fld, forward_curve(float(maturity)), strikes).adj
            new_slice, skipped = _slice(market, forward_curve, float(maturity), adj, report)
            if iterations > 1:
                max_update = float(np.max(np.abs(new_slice - slice_vals)))
            slice_vals = new_slice

        if skipped:  # once per maturity, for the strikes its final slice skipped
            report.warnings.append(
                f"T={maturity:g}: degenerate butterfly at K in {skipped}; flat-filled"
            )
        drift, neg = _worst(result.diagnostics, slice(split, None))
        report.entries.append(MaturityDiagnostics(
            maturity=float(maturity),
            mass_drift=max(drift_before, drift),
            negative_mass_ratio=max(neg_before, neg),
            skipped_strikes=skipped,
            iterations=iterations,
            max_slice_update=None if math.isinf(max_update) else max_update,
        ))
        slices.append(slice_vals)

    surface = SurfaceVol(mats.copy(), strikes.copy(), np.vstack(slices))
    return CalibrationResult(surface=surface, report=report)


def _ref_vol(market: CallSurface, forward_curve):
    """At-the-money volatility scale for sizing the solver box."""
    t_ref = float(market.maturities[-1])
    k_mid = float(market.strikes[len(market.strikes) // 2])
    try:
        level = math.sqrt(dupire_vol(market, forward_curve, t_ref, k_mid))
    except CalibrationError:
        level = 0.3
    return ConstantVol(level)
