"""Forward solver for the discounted joint density on a truncated (S, r) grid.

The evolved quantity is the product of the risk-neutral density of
(S(t), r(t)) with the projection of the pathwise discount factor on the
terminal state. It satisfies a Fokker-Planck-type equation with an extra
reaction term; expanding the divergence form gives first/second/cross
derivative coefficients C1..C6 which the two-sweep alternating-direction
implicit scheme (a Peaceman-Rachford splitting) consumes directly.

Half-step 1 treats the spot direction implicitly, half-step 2 the rate
direction; the cross term stays explicit in both. Boundary values are held
at zero on the truncated box, and after every full step the field is
rescaled so its trapezoid mass matches the zero-coupon identity
``integral of the field = ZC(0, t)``.

The explicit half of a step works on the padded layout: an
(n_s + 2) x (n_r + 2) array, row-major, whose outer ring holds the zero
boundary. The band is the flat run from node (1, 1) to node (n_s, n_r).
Besides the interior nodes it crosses the ghost columns, the ring entries
(i, n_r + 1) and (i + 1, 0) between one spot row and the next. With
row = n_r + 2, the neighbour (i + di, j + dj) of every band entry is the
band shifted by di * row + dj, so each stencil term is one contiguous pass
over the band. The ghost entries compute values nobody reads: the weights
are zero there, and the line solves take only the interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, PdeBlowUpError
from .linalg import thomas_apply, thomas_prefactor
from .models import HybridModel, _rate_mean_var, sde_coefficients, zc_price

__all__ = [
    "Grid2D",
    "Field2D",
    "AdiCoefficients",
    "auto_grid",
    "short_time_start",
    "build_coefficients",
    "evolve",
    "EvolveDiagnostics",
    "EvolveResult",
]

# Spot deviation, in spot cells, at which the short-time start is resolved.
_START_CELLS = 2.0

# A node counts as negative below this fraction of the field's peak; round-off
# of the sweeps leaves values near -1e-15 relative, which are not negativity.
_NEGATIVE_FLOOR = 1e-10


@dataclass(frozen=True)
class Grid2D:
    """Uniform truncated (S, r) lattice and the time steps of a march.

    ``n_s`` and ``n_r`` count interior nodes; the boundary nodes at the box
    edges carry the fixed Dirichlet value 0 and are not stored. The march
    ends at each of ``maturities`` (a tuple) in turn: the interval
    (T_{i-1}, T_i], with T_0 = 0, takes ``steps[i]`` equal steps, so every
    maturity is a step time.
    """

    s_min: float
    s_max: float
    r_min: float
    r_max: float
    n_s: int
    n_r: int
    maturities: tuple
    steps: tuple

    def __post_init__(self):
        if not (self.s_min > 0 and self.s_max > self.s_min):
            raise InvalidInputError("need 0 < s_min < s_max")
        if not self.r_max > self.r_min:
            raise InvalidInputError("need r_min < r_max")
        if self.n_s < 8 or self.n_r < 8:
            raise InvalidInputError("need at least 8 interior nodes per direction")
        if (len(self.steps) != len(self.maturities) or min(self.steps, default=0) < 1
                or not np.all(np.diff(self.maturities, prepend=0.0) > 0)):
            raise InvalidInputError("need positive, increasing maturities, each with steps")

    @property
    def ds(self) -> float:
        return (self.s_max - self.s_min) / (self.n_s + 1)

    @property
    def dr(self) -> float:
        return (self.r_max - self.r_min) / (self.n_r + 1)

    @property
    def t_end(self) -> float:
        return self.maturities[-1]

    @property
    def n_t(self) -> int:
        return sum(self.steps)

    @property
    def dt(self) -> float:
        """The step of the first interval."""
        return self.maturities[0] / self.steps[0]

    @property
    def s_nodes(self) -> np.ndarray:
        return self.s_min + self.ds * np.arange(1, self.n_s + 1)

    @property
    def r_nodes(self) -> np.ndarray:
        return self.r_min + self.dr * np.arange(1, self.n_r + 1)

    @property
    def t_nodes(self) -> np.ndarray:
        """The n_t + 1 step times from 0: step k of interval i ends at
        T_{i-1} + k (T_i - T_{i-1}) / steps[i], its last step at T_i itself."""
        ends = (0.0,) + tuple(self.maturities)
        return np.concatenate([[0.0]] + [
            np.append(t0 + (t1 - t0) / n * np.arange(1, n), t1)
            for t0, t1, n in zip(ends, ends[1:], self.steps)])

    @classmethod
    def from_spacings(cls, s_min: float, s_max: float, r_min: float, r_max: float,
                      maturities, ds: float, dr: float, dt: float) -> "Grid2D":
        """Grid on the given box with node counts rounded from the requested
        spacings (at least 8 interior nodes), marching to each of
        ``maturities`` (one horizon or an increasing sequence) in turn: each
        interval takes max(1, round(length / dt)) equal steps."""
        mats = np.atleast_1d(np.asarray(maturities, dtype=float))
        if (not all(0.0 < h < math.inf for h in (ds, dr, dt)) or mats.ndim != 1
                or mats.size == 0 or mats[0] <= 0 or np.any(np.diff(mats) <= 0)):
            raise InvalidInputError(
                f"need positive, finite spacings (got ds={ds!r}, dr={dr!r}, dt={dt!r}) "
                "and positive, increasing maturities")
        if not all(math.isfinite(b) for b in (s_min, s_max, r_min, r_max)):
            raise InvalidInputError(
                f"need a finite box (got s_min={s_min!r}, s_max={s_max!r}, "
                f"r_min={r_min!r}, r_max={r_max!r})")
        n_s = max(8, int(round((s_max - s_min) / ds)) - 1)
        n_r = max(8, int(round((r_max - r_min) / dr)) - 1)
        ends = [0.0] + mats.tolist()
        steps = tuple(max(1, int(round((t1 - t0) / dt))) for t0, t1 in zip(ends, ends[1:]))
        return cls(s_min, s_max, r_min, r_max, n_s, n_r, tuple(ends[1:]), steps)

    def with_horizon(self, t_end: float, n_t: int) -> "Grid2D":
        """This box marching to ``t_end`` in ``n_t`` equal steps."""
        return replace(self, maturities=(t_end,), steps=(n_t,))


@dataclass
class Field2D:
    """Scalar values at the interior nodes of a :class:`Grid2D`.

    The boundary ring is an implicit Dirichlet 0; mass queries are the 2-d
    trapezoid integral including those zero boundary values (which reduces
    to ds*dr times the interior sum).
    """

    grid: Grid2D
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_s, self.grid.n_r):
            raise InvalidInputError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_s}, {self.grid.n_r})"
            )

    def mass(self) -> float:
        return float(self.grid.ds * self.grid.dr * self.values.sum())

    def copy(self) -> "Field2D":
        return Field2D(self.grid, self.values.copy(), self.t)


def auto_grid(
    model: HybridModel,
    maturities,
    ds: float,
    dr: float,
    dt: float,
    *,
    s_max_sigmas: float = 5.0,
    r_sigmas: float = 6.0,
) -> Grid2D:
    """Truncation box sized from the model scales, with requested spacings.

    The box is sized at the last of ``maturities``, each of which lies on
    a step (:meth:`Grid2D.from_spacings`). The spot upper bound covers
    ``s_max_sigmas`` lognormal standard deviations plus the forward drift;
    the rate bounds cover ``r_sigmas`` standard deviations around the
    terminal mean (floored for near-zero rate volatility so the box never
    collapses).
    """
    t_end = float(np.atleast_1d(maturities)[-1])
    sigma_ref = float(np.asarray(model.vol.value(0.0, model.s0)))
    zc = zc_price(model.rate, t_end)
    s_min = 1e-4 * model.s0
    try:
        growth = math.exp(s_max_sigmas * sigma_ref * math.sqrt(t_end))
    except OverflowError:  # an infinite box, which from_spacings rejects
        growth = math.inf
    s_max = model.s0 * growth / zc
    mean_r, var_r = _rate_mean_var(model.rate, t_end)
    half = r_sigmas * math.sqrt(var_r)
    half = max(half, 12.0 * dr, 1e-3)
    r_min = min(model.rate.r0, mean_r) - half
    r_max = max(model.rate.r0, mean_r) + half
    return Grid2D.from_spacings(s_min, s_max, r_min, r_max, maturities, ds, dr, dt)


def short_time_start(model: HybridModel, grid: Grid2D) -> Field2D:
    """Model-consistent Gaussian start at a small positive time.

    Instead of widening the point mass artificially (which convolves every
    later field with the kernel and biases prices by about half the kernel
    variance times the price convexity), the march starts at the first time
    step t0 = k*dt at which the model's own short-horizon Gaussian density
    is resolvable on the mesh, capped at a quarter of the first interval
    (k <= steps[0] // 4, at least 1). The start field matches the one-step
    mean/covariance of (S, r), carries the first-order pathwise discount
    tilt, and is normalised to ZC(0, t0).
    """
    p = model.rate
    dt = grid.dt
    sigma0 = float(np.asarray(model.vol.value(0.0, model.s0)))
    width_s = model.s0 * sigma0
    if width_s > 0:
        t_needed = (_START_CELLS * grid.ds / width_s) ** 2
    else:
        t_needed = dt
    k = max(1, int(math.ceil(t_needed / dt - 1e-12)))
    k = min(k, max(1, grid.steps[0] // 4))
    t0 = k * dt

    mean_s = model.s0 * math.exp(p.r0 * t0)
    sd_s = max(width_s * math.sqrt(t0), 1.5 * grid.ds)
    mean_r, var_r = _rate_mean_var(p, t0)
    sd_r = max(math.sqrt(var_r), 1.5 * grid.dr)
    cov = model.rho * width_s * p.sigma2 * (1.0 - math.exp(-p.a * t0)) / p.a
    corr = cov / (sd_s * sd_r) if sd_s > 0 and sd_r > 0 else 0.0
    corr = max(-0.98, min(0.98, corr))

    s_nodes = grid.s_nodes[:, None]
    r_nodes = grid.r_nodes[None, :]
    zs = (s_nodes - mean_s) / sd_s
    zr = (r_nodes - mean_r) / sd_r
    quad_form = (zs**2 - 2.0 * corr * zs * zr + zr**2) / (1.0 - corr**2)
    values = np.exp(-0.5 * quad_form)
    # First-order discount projection along the path keeps the field a
    # discounted density rather than a plain one.
    values *= np.exp(-0.5 * (p.r0 + r_nodes) * t0)
    out = Field2D(grid, values, t=t0)
    m = out.mass()
    if m <= 0:
        raise InvalidInputError("short-time start has no mass inside the grid box")
    out.values *= zc_price(p, t0) / m
    return out


@dataclass(frozen=True)
class AdiCoefficients:
    """Per-node PDE coefficients at one time level.

    C1/C2 multiply the first S/r derivatives, C3/C4 the second ones
    (both are minus half the squared diffusions, hence never positive),
    C5 the cross derivative and C6 the reaction term. Each is a read-only
    (n_s, n_r) view: a coefficient that is constant along an axis (C3, C4
    and C5 are) is its row or column broadcast, not a full copy.
    """

    t: float
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    c4: np.ndarray
    c5: np.ndarray
    c6: np.ndarray


def build_coefficients(model: HybridModel, grid: Grid2D, t: float) -> AdiCoefficients:
    """Evaluate C1..C6 on the interior nodes at time level ``t``.

    The Hull-White rate volatility ``alpha`` is constant in r, so every
    term of the expansion that carries its r-derivatives is zero and left
    out.
    """
    s = grid.s_nodes[:, None]
    r = grid.r_nodes[None, :]
    co = sde_coefficients(model, t, s, r)
    sig, sig_s, sig_ss = co.vol_s, co.sigma_s, co.sigma_ss
    alpha = co.vol_r
    rho = model.rho
    shape = (grid.n_s, grid.n_r)
    # C1, C2 and C6 vary along both axes: each sum is accumulated in place,
    # term by term from the left, in one full array of its own.
    c1 = np.subtract(co.drift_s, 2.0 * s * sig**2, out=np.empty(shape))
    c1 -= 2.0 * s**2 * sig * sig_s
    c2 = np.subtract(co.drift_r, rho * sig * alpha, out=np.empty(shape))
    c2 -= rho * sig_s * s * alpha
    c3 = -0.5 * s**2 * sig**2
    c4 = -0.5 * alpha**2
    c5 = -rho * sig * s * alpha
    c6 = np.subtract(2.0 * r + co.mu_r, sig**2, out=np.empty(shape))
    c6 -= 4.0 * s * sig * sig_s
    c6 -= sig_s**2 * s**2
    c6 -= sig * sig_ss * s**2
    c1, c2, c3, c4, c5, c6 = (np.broadcast_to(c, shape) for c in (c1, c2, c3, c4, c5, c6))
    return AdiCoefficients(t=t, c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6)


class _StepOperator:
    """Prefactored one-step operator for a fixed coefficient level.

    Only the factors of the two implicit sweeps and the explicit weights are
    kept; the implicit stencils themselves are dropped once factored.

    The second half-step's right-hand side needs no second S stencil. With
    A1 the 3-point S stencil, the half-step value u* solves
    (2/dt + A1 + c6) u* = f1, and the explicit S terms of half-step 2 are
    (2/dt - A1) u*, the zero Dirichlet ring included. They therefore equal
    (4/dt + c6) u* - f1, and f2 = (4/dt + c6) u* - f1 + wx * cross(u*). The
    identity is used within one step only; nothing crosses from one step to
    the next.

    The explicit half of the step runs on the band of the padded layout (see
    the module docstring). The field, the right-hand side and the weights
    ``w1_c``, ``w1_jp``, ``w1_jm``, ``kappa`` and ``wx`` are bands of padded
    arrays, the weights zero on the ghost columns. Each stencil neighbour is
    then the band shifted by one flat offset, and each operation is one
    contiguous pass. The S-sweep solves into the interior of the padded
    field; the r-sweep returns a new array.
    """

    def __init__(self, coeffs: AdiCoefficients, grid: Grid2D, dt: float):
        ds, dr = grid.ds, grid.dr
        ds2, dr2 = ds * ds, dr * dr
        c1, c2, c3, c4, c5, c6 = (
            coeffs.c1, coeffs.c2, coeffs.c3, coeffs.c4, coeffs.c5, coeffs.c6,
        )
        shape = (grid.n_s + 2, grid.n_r + 2)
        row = shape[1]
        first, last = row + 1, grid.n_s * row + grid.n_r  # nodes (1, 1) and (n_s, n_r)

        def band(flat, di=0, dj=0):
            """The band of ``flat`` shifted to the neighbour (i + di, j + dj)."""
            offset = di * row + dj
            return flat[first + offset:last + 1 + offset]

        def padded_weight(ufunc, *args):
            """``ufunc(*args)`` on the interior nodes, zero on the ghosts, as a band."""
            out = np.zeros(shape)
            ufunc(*args, out=out[1:-1, 1:-1])
            return band(out.ravel())

        two_dt = 2.0 / dt
        # Implicit sweep along S: a x_{i-1} + b x_i + c x_{i+1} = f1.
        self.lu1 = thomas_prefactor(
            -c1 / (2 * ds) + c3 / ds2,
            two_dt - 2 * c3 / ds2 + c6,
            c1 / (2 * ds) + c3 / ds2,
            axis=0,
        )
        # Implicit sweep along r: d x_{j-1} + e x_j + f x_{j+1} = f2.
        self.lu2 = thomas_prefactor(
            -c2 / (2 * dr) + c4 / dr2,
            two_dt - 2 * c4 / dr2 + c6,
            c2 / (2 * dr) + c4 / dr2,
            axis=1,
        )
        # The padded arrays are allocated once both factorisations have freed
        # their temporaries, so the heap does not grow around the holes.
        # Explicit r-direction weights feeding f1.
        self.w1_c = padded_weight(np.add, two_dt, 2 * c4 / dr2)
        self.w1_jp = padded_weight(np.negative, c2 / (2 * dr) + c4 / dr2)
        self.w1_jm = padded_weight(np.subtract, c2 / (2 * dr), c4 / dr2)
        # f2 = kappa * u* - f1 + wx * cross(u*), see the class docstring.
        self.kappa = padded_weight(np.add, 2 * two_dt, c6)
        self.wx = padded_weight(np.divide, -c5, 4 * ds * dr)
        pad = np.zeros(shape)
        rhs = np.empty(shape)
        flat = pad.ravel()
        self._inner, self._rhs_inner = pad[1:-1, 1:-1], rhs[1:-1, 1:-1]
        self._u, self._rhs = band(flat), band(rhs.ravel())
        self._jp, self._jm = band(flat, 0, 1), band(flat, 0, -1)
        # the cross stencil's corners (+1, +1), (-1, -1), (-1, +1), (+1, -1)
        self._corners = tuple(band(flat, di, dj) for di, dj in ((1, 1), (-1, -1), (-1, 1), (1, -1)))
        self._tmp = np.empty(self._u.size)

    def _cross_term(self, out):
        """``out = wx * cross(u)`` on the band, the explicit mixed-derivative term."""
        pp, mm, mp, pm = self._corners
        np.add(pp, mm, out=out)
        out -= mp
        out -= pm
        out *= self.wx

    def apply(self, values: np.ndarray) -> np.ndarray:
        u, rhs, tmp = self._u, self._rhs, self._tmp
        self._inner[...] = values
        np.multiply(u, self.w1_c, out=rhs)
        rhs += np.multiply(self._jp, self.w1_jp, out=tmp)
        rhs += np.multiply(self._jm, self.w1_jm, out=tmp)
        self._cross_term(tmp)
        rhs += tmp
        thomas_apply(self.lu1, self._rhs_inner, out=self._inner)
        np.multiply(u, self.kappa, out=tmp)
        np.subtract(tmp, rhs, out=rhs)
        self._cross_term(tmp)
        rhs += tmp
        return thomas_apply(self.lu2, self._rhs_inner)


@dataclass
class EvolveDiagnostics:
    """Per-step mass and sign diagnostics of a time march.

    ``negative_fraction`` is the share of nodes below -1e-10 times the
    field's peak; ``negative_mass_ratio`` is the mass of all negative values
    over the target mass.
    """

    start_mode: str
    start_time: float
    times: list = dataclass_field(default_factory=list)
    raw_mass: list = dataclass_field(default_factory=list)
    target_mass: list = dataclass_field(default_factory=list)
    post_mass: list = dataclass_field(default_factory=list)
    negative_fraction: list = dataclass_field(default_factory=list)
    negative_mass_ratio: list = dataclass_field(default_factory=list)
    warnings: list = dataclass_field(default_factory=list)

    @property
    def mass_ratios(self) -> np.ndarray:
        return np.asarray(self.raw_mass) / np.asarray(self.target_mass)

    def max_ratio_deviation(self) -> float:
        if not self.times:
            return 0.0
        return float(np.max(np.abs(self.mass_ratios - 1.0)))


@dataclass
class EvolveResult:
    snapshots: list
    diagnostics: EvolveDiagnostics

    def at(self, t: float) -> Field2D:
        for snap in self.snapshots:
            if abs(snap.t - t) <= 1e-9 * max(1.0, abs(t)):
                return snap
        raise KeyError(f"no snapshot stored at t={t!r}")


def evolve(
    model: HybridModel,
    grid: Grid2D,
    snapshot_times: Sequence[float] | None = None,
    start: Field2D | None = None,
) -> EvolveResult:
    """March the discounted density from its start to the grid horizon.

    The march starts fresh from the model-consistent short-time start
    (:func:`short_time_start`), or, given ``start``, resumes from a
    previously evolved field on this grid's box and nodes (its maturities
    may differ) whose time must be one of this grid's step times. Either
    start is taken as it is: the short-time start is normalised onto
    ZC(0, t0) and a march left the resumed field on the discount identity,
    so resuming at ``t`` repeats bit for bit the steps a single march on
    this grid would take from ``t``. Snapshots are taken at step times from
    the start on, by default at the horizon alone.

    One prefactored step operator serves every step until the local vol
    next changes (``model.vol.next_change``) or the step size does: the
    whole march for a time-independent vol on equal steps, or one interval
    of a piecewise-constant one.

    After every step the raw trapezoid mass is recorded and the field is
    rescaled onto the discount identity ZC(0, t). A raw mass that is
    non-finite or non-positive raises :class:`PdeBlowUpError`; a
    raw-to-target ratio off by more than 20% is surfaced as a divergence
    warning.
    """
    if start is not None:
        if replace(start.grid, maturities=grid.maturities, steps=grid.steps) != grid:
            raise InvalidInputError("resume field does not lie on this grid's box and nodes")
        field = start.copy()
        mode = "resume"
    else:
        field = short_time_start(model, grid)
        mode = "short-time"

    times = grid.t_nodes

    def step_at(t, first=0):
        """Index of the step time ``t``, at or after step ``first``."""
        n = first + int(np.abs(times[first:] - t).argmin())
        if not abs(times[n] - t) <= 1e-9 * max(1.0, grid.t_end):
            raise InvalidInputError(
                f"time {t!r} is not a step time of the march from {times[first]:g} to {grid.t_end:g}")
        return n

    n0 = step_at(field.t)
    wanted = {grid.n_t} if snapshot_times is None else {step_at(t, n0) for t in snapshot_times}
    sizes = np.repeat(np.diff(grid.maturities, prepend=0.0) / grid.steps, grid.steps).tolist()
    times = times.tolist()

    diag = EvolveDiagnostics(start_mode=mode, start_time=field.t)
    m0 = field.mass()
    if m0 <= 0 or not np.isfinite(m0):
        raise InvalidInputError("start field mass must be positive and finite")

    snapshots = {}
    if n0 in wanted:
        snapshots[n0] = field.copy()

    valid_until, op_size = -math.inf, None
    values = field.values
    for n in range(n0, grid.n_t):
        t, t_next, h = times[n], times[n + 1], sizes[n]
        if t > valid_until or h != op_size:
            op = None  # release the old operator before building its successor
            op = _StepOperator(build_coefficients(model, grid, t), grid, h)
            valid_until, op_size = model.vol.next_change(t), h
        values = op.apply(values)
        raw = float(grid.ds * grid.dr * values.sum())
        # a NaN or inf anywhere in the field leaves the sum non-finite
        if not 0.0 < raw < math.inf:
            raise PdeBlowUpError(step=n + 1, t=t_next, raw_mass=raw)
        target = zc_price(model.rate, t_next)
        if abs(raw / target - 1.0) > 0.20:
            diag.warnings.append(
                f"raw mass drift {raw / target - 1.0:+.2%} at t={t_next:.6g}"
            )
        values *= target / raw
        negatives = values[values < 0.0]
        neg_sum = float(-negatives.sum()) * grid.ds * grid.dr
        diag.times.append(t_next)
        diag.raw_mass.append(raw)
        diag.target_mass.append(target)
        diag.post_mass.append(float(grid.ds * grid.dr * values.sum()))
        # the mass is positive, so the peak is and every node under the
        # floor is among the negatives
        diag.negative_fraction.append(
            np.count_nonzero(negatives < -_NEGATIVE_FLOOR * values.max()) / values.size
        )
        diag.negative_mass_ratio.append(neg_sum / target)
        if (n + 1) in wanted:
            snapshots[n + 1] = Field2D(grid, values.copy(), t=t_next)

    ordered = [snapshots[n] for n in sorted(wanted)]
    return EvolveResult(snapshots=ordered, diagnostics=diag)
