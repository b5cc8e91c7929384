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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from .errors import InvalidInputError, PdeBlowUpError
from .linalg import thomas_apply, thomas_prefactor
from .models import HybridModel, HullWhiteParams, sde_coefficients, zc_price

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
    """Uniform truncated (S, r) lattice with a uniform time step.

    ``n_s`` and ``n_r`` count interior nodes; the boundary nodes at the box
    edges carry the fixed Dirichlet value 0 and are not stored.
    """

    s_min: float
    s_max: float
    r_min: float
    r_max: float
    n_s: int
    n_r: int
    t_end: float
    n_t: int

    def __post_init__(self):
        if not (self.s_min > 0 and self.s_max > self.s_min):
            raise InvalidInputError("need 0 < s_min < s_max")
        if not self.r_max > self.r_min:
            raise InvalidInputError("need r_min < r_max")
        if self.n_s < 8 or self.n_r < 8:
            raise InvalidInputError("need at least 8 interior nodes per direction")
        if self.n_t < 1 or self.t_end <= 0:
            raise InvalidInputError("need t_end > 0 and n_t >= 1")

    @property
    def ds(self) -> float:
        return (self.s_max - self.s_min) / (self.n_s + 1)

    @property
    def dr(self) -> float:
        return (self.r_max - self.r_min) / (self.n_r + 1)

    @property
    def dt(self) -> float:
        return self.t_end / self.n_t

    @property
    def s_nodes(self) -> np.ndarray:
        return self.s_min + self.ds * np.arange(1, self.n_s + 1)

    @property
    def r_nodes(self) -> np.ndarray:
        return self.r_min + self.dr * np.arange(1, self.n_r + 1)

    @classmethod
    def from_spacings(cls, s_min: float, s_max: float, r_min: float, r_max: float,
                      t_end: float, ds: float, dr: float, dt: float) -> "Grid2D":
        """Grid on the given box with node and step counts rounded from the
        requested spacings (at least 8 interior nodes and one step)."""
        if min(ds, dr, dt) <= 0 or t_end <= 0:
            raise InvalidInputError("spacings and horizon must be positive")
        n_s = max(8, int(round((s_max - s_min) / ds)) - 1)
        n_r = max(8, int(round((r_max - r_min) / dr)) - 1)
        n_t = max(1, int(round(t_end / dt)))
        return cls(s_min, s_max, r_min, r_max, n_s, n_r, t_end, n_t)

    def with_horizon(self, t_end: float, n_t: int) -> "Grid2D":
        return Grid2D(self.s_min, self.s_max, self.r_min, self.r_max,
                      self.n_s, self.n_r, t_end, n_t)


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

    def write_csv(self, handle) -> None:
        """Rows ``t,S,r,pz`` in row-major order (S outer, r inner)."""
        handle.write("t,S,r,pz\n")
        s_nodes = self.grid.s_nodes
        r_nodes = self.grid.r_nodes
        t = self.t
        for i, s in enumerate(s_nodes):
            row = self.values[i]
            for j, r in enumerate(r_nodes):
                handle.write(f"{t:.17g},{s:.17g},{r:.17g},{row[j]:.17g}\n")


def _rate_mean_var(p: HullWhiteParams, t: float):
    ea = math.exp(-p.a * t)
    if p.has_constant_theta:
        mean = p.r0 * ea + p.theta * (1.0 - ea)
    else:
        mean_part = quad(lambda s: p.theta_at(s) * math.exp(-p.a * (t - s)), 0.0, t,
                         epsabs=1e-12, limit=200)[0]
        mean = p.r0 * ea + p.a * mean_part
    var = p.sigma2**2 * (1.0 - math.exp(-2 * p.a * t)) / (2 * p.a)
    return mean, var


def auto_grid(
    model: HybridModel,
    t_end: float,
    ds: float,
    dr: float,
    dt: float,
    *,
    s_max_sigmas: float = 5.0,
    r_sigmas: float = 6.0,
) -> Grid2D:
    """Truncation box sized from the model scales, with requested spacings.

    The spot upper bound covers ``s_max_sigmas`` lognormal standard
    deviations plus the forward drift; the rate bounds cover ``r_sigmas``
    standard deviations around the terminal mean (floored for near-zero
    rate volatility so the box never collapses).
    """
    sigma_ref = float(np.asarray(model.vol.value(0.0, model.s0)))
    zc = zc_price(model.rate, t_end)
    s_min = 1e-4 * model.s0
    s_max = model.s0 * math.exp(s_max_sigmas * sigma_ref * math.sqrt(t_end)) / zc
    mean_r, var_r = _rate_mean_var(model.rate, t_end)
    half = r_sigmas * math.sqrt(var_r)
    half = max(half, 12.0 * dr, 1e-3)
    r_min = min(model.rate.r0, mean_r) - half
    r_max = max(model.rate.r0, mean_r) + half
    return Grid2D.from_spacings(s_min, s_max, r_min, r_max, t_end, ds, dr, dt)


def short_time_start(model: HybridModel, grid: Grid2D) -> Field2D:
    """Model-consistent Gaussian start at a small positive time.

    Instead of widening the point mass artificially (which convolves every
    later field with the kernel and biases prices by about half the kernel
    variance times the price convexity), the march starts at the first time
    step t0 = k*dt at which the model's own short-horizon Gaussian density
    is resolvable on the mesh. The start field matches the one-step
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
    k = min(k, max(1, grid.n_t // 4))
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
    C5 the cross derivative and C6 the reaction term.
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
    c1 = co.drift_s - 2.0 * s * sig**2 - 2.0 * s**2 * sig * sig_s
    c2 = co.drift_r - rho * sig * alpha - rho * sig_s * s * alpha
    c3 = np.broadcast_to(-0.5 * s**2 * sig**2, shape).copy()
    c4 = np.broadcast_to(-0.5 * alpha**2, shape).copy()
    c5 = np.broadcast_to(-rho * sig * s * alpha, shape).copy()
    c6 = (
        2.0 * r
        + co.mu_r
        - sig**2
        - 4.0 * s * sig * sig_s
        - sig_s**2 * s**2
        - sig * sig_ss * s**2
    )
    return AdiCoefficients(
        t=t,
        c1=np.broadcast_to(c1, shape).copy(),
        c2=np.broadcast_to(c2, shape).copy(),
        c3=c3,
        c4=c4,
        c5=c5,
        c6=np.broadcast_to(c6, shape).copy(),
    )


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
    """

    def __init__(self, coeffs: AdiCoefficients, grid: Grid2D, dt: float):
        ds, dr = grid.ds, grid.dr
        ds2, dr2 = ds * ds, dr * dr
        c1, c2, c3, c4, c5, c6 = (
            coeffs.c1, coeffs.c2, coeffs.c3, coeffs.c4, coeffs.c5, coeffs.c6,
        )
        two_dt = 2.0 / dt
        # Implicit sweep along S: a x_{i-1} + b x_i + c x_{i+1} = f1.
        self.lu1 = thomas_prefactor(
            -c1 / (2 * ds) + c3 / ds2,
            two_dt - 2 * c3 / ds2 + c6,
            c1 / (2 * ds) + c3 / ds2,
            axis=0,
        )
        # Explicit r-direction weights feeding f1.
        self.w1_c = two_dt + 2 * c4 / dr2
        self.w1_jp = -(c2 / (2 * dr) + c4 / dr2)
        self.w1_jm = c2 / (2 * dr) - c4 / dr2
        # Implicit sweep along r: d x_{j-1} + e x_j + f x_{j+1} = f2.
        self.lu2 = thomas_prefactor(
            -c2 / (2 * dr) + c4 / dr2,
            two_dt - 2 * c4 / dr2 + c6,
            c2 / (2 * dr) + c4 / dr2,
            axis=1,
        )
        # f2 = kappa * u* - f1 + wx * cross(u*), see the class docstring.
        self.kappa = 2 * two_dt + c6
        self.wx = -c5 / (4 * ds * dr)
        self._pad = np.zeros((grid.n_s + 2, grid.n_r + 2))
        self._rhs = np.empty((grid.n_s, grid.n_r))
        self._tmp = np.empty((grid.n_s, grid.n_r))

    def _cross_term(self, padded, out):
        """``out = wx * cross(padded)``, the explicit mixed-derivative term."""
        np.add(padded[2:, 2:], padded[:-2, :-2], out=out)
        out -= padded[:-2, 2:]
        out -= padded[2:, :-2]
        out *= self.wx

    def apply(self, values: np.ndarray) -> np.ndarray:
        pad, rhs, tmp = self._pad, self._rhs, self._tmp
        inner = pad[1:-1, 1:-1]
        inner[...] = values
        np.multiply(values, self.w1_c, out=rhs)
        rhs += np.multiply(pad[1:-1, 2:], self.w1_jp, out=tmp)
        rhs += np.multiply(pad[1:-1, :-2], self.w1_jm, out=tmp)
        self._cross_term(pad, tmp)
        rhs += tmp
        inner[...] = thomas_apply(self.lu1, rhs)
        np.multiply(inner, self.kappa, out=tmp)
        np.subtract(tmp, rhs, out=rhs)
        self._cross_term(pad, tmp)
        rhs += tmp
        return thomas_apply(self.lu2, rhs)


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
    previously evolved field on this grid's box and nodes (its horizon may
    differ) whose time must sit on this grid's step lattice. Either start
    is taken as it is: the short-time start is normalised onto ZC(0, t0)
    and a march left the resumed field on the discount identity, so
    resuming at ``t`` repeats bit for bit the steps a single march would
    take from ``t`` (on the same step size).

    One prefactored step operator serves every step until the model's
    coefficients next change (``model.next_change``): the whole march for a
    time-independent model, one interval of a piecewise-constant vol, or a
    single step for a time-dependent mean level.

    After every step the raw trapezoid mass is recorded and the field is
    rescaled onto the discount identity ZC(0, t). A raw-to-target ratio
    off by more than 20% is surfaced as a divergence warning.
    """
    dt = grid.dt
    if start is not None:
        if start.grid.with_horizon(grid.t_end, grid.n_t) != grid:
            raise InvalidInputError("resume field does not lie on this grid's box and nodes")
        field = start.copy()
        mode = "resume"
    else:
        field = short_time_start(model, grid)
        mode = "short-time"

    n0 = int(round(field.t / dt))
    if abs(n0 * dt - field.t) > 1e-9 * max(1.0, grid.t_end):
        raise InvalidInputError(f"start time {field.t!r} is not on the step lattice")
    if n0 > grid.n_t:
        raise InvalidInputError("start time is beyond the grid horizon")

    wanted = []
    if snapshot_times is not None:
        for ts in snapshot_times:
            n = int(round(ts / dt))
            if abs(n * dt - ts) > 1e-7 * max(1.0, grid.t_end) or not (n0 <= n <= grid.n_t):
                raise InvalidInputError(
                    f"snapshot time {ts!r} is not a step multiple within the march"
                )
            wanted.append(n)
    else:
        wanted = [grid.n_t]

    diag = EvolveDiagnostics(start_mode=mode, start_time=field.t)
    m0 = field.mass()
    if m0 <= 0 or not np.isfinite(m0):
        raise InvalidInputError("start field mass must be positive and finite")

    snapshots = {}
    if n0 in wanted:
        snapshots[n0] = field.copy()

    valid_until = -math.inf
    values = field.values
    for n in range(n0, grid.n_t):
        t_next = (n + 1) * dt
        if n * dt > valid_until:
            op = None  # release the old operator before building its successor
            op = _StepOperator(build_coefficients(model, grid, n * dt), grid, dt)
            valid_until = model.next_change(n * dt)
        values = op.apply(values)
        if not np.all(np.isfinite(values)):
            raise PdeBlowUpError(step=n + 1, t=t_next)
        raw = float(grid.ds * grid.dr * values.sum())
        target = zc_price(model.rate, t_next)
        if raw <= 0:
            raise PdeBlowUpError(step=n + 1, t=t_next)
        if abs(raw / target - 1.0) > 0.20:
            diag.warnings.append(
                f"raw mass drift {raw / target - 1.0:+.2%} at t={t_next:.6g}"
            )
        values *= target / raw
        neg_sum = float(-values[values < 0.0].sum()) * grid.ds * grid.dr
        diag.times.append(t_next)
        diag.raw_mass.append(raw)
        diag.target_mass.append(target)
        diag.post_mass.append(float(grid.ds * grid.dr * values.sum()))
        diag.negative_fraction.append(
            float(np.mean(values < -_NEGATIVE_FLOOR * values.max()))
        )
        diag.negative_mass_ratio.append(neg_sum / target)
        if (n + 1) in wanted:
            snapshots[n + 1] = Field2D(grid, values.copy(), t=t_next)

    ordered = [snapshots[n] for n in sorted(set(wanted))]
    return EvolveResult(snapshots=ordered, diagnostics=diag)
