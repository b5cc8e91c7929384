"""Forward solver for the discounted joint density on a truncated (S, r) grid.

The evolved quantity is the product of the risk-neutral density of
(S(t), r(t)) with the projection of the pathwise discount factor on the
terminal state. It satisfies a Fokker-Planck-type equation with an extra
reaction term,

    u_t = 1/2 d_SS(sigma^2 S^2 u) + d_Sr(rho sigma S alpha u) + 1/2 alpha^2 u_rr
          - d_r(a (theta - r) u) - r S u_S - 2 r u,

whose diffusion, cross and rate-drift terms are differenced as written, in
divergence form: each reads its coefficient at the nodes of its stencil,
so the operator needs sigma at the nodes and no derivative of it; the rate
drift's face flux is upwind where it outweighs the diffusion (a face
Peclet number above 1). The spot drift stays advective (its -r u is folded
into the reaction 2 r). The two-sweep alternating-direction implicit
scheme (a Peaceman-Rachford splitting) takes the spot terms implicitly in
half-step 1 and the rate terms in half-step 2, the reaction implicitly in
both; the cross term stays explicit in both. Boundary values are held at
zero on the truncated box, and after every full step the field is rescaled
so its trapezoid mass matches the zero-coupon identity ``integral of the
field = ZC(0, t)``.

The explicit half of a step works on the padded layout: an
(n_s + 2) x (n_r + 2) array, row-major, whose outer ring holds the zero
boundary. The band is the flat run from node (1, 1) to node (n_s, n_r).
Besides the interior nodes it crosses the ghost columns, the ring entries
(i, n_r + 1) and (i + 1, 0) between one spot row and the next. With
row = n_r + 2, the neighbour (i + di, j + dj) of every band entry is the
band shifted by di * row + dj, so each stencil term is one contiguous pass
over the band. The ghost entries compute values nobody reads: the weights
are zero there, and the line solves take only the interior.

The rate terms (1/2 alpha^2, a (theta - r) and 2 r) depend on r alone, so
every spot node has the same rate line. A step operator forms that line
once and hands the rate sweep to the line solver as one line broadcast
over the spot nodes; the solver factors that one line, copies out over the
spot nodes the factors its row loops read, and keeps the block weights as
that one line. The explicit weights of the rate line are stored once as
well, as a tile of k spot rows that each pass repeats along the band; only
the cross weight, which depends on S, is a full band. The two sweeps solve
in one work buffer, which is also the scratch of the explicit half, since
no two of the three are live at once. The rate sweep solves into the
march's field, which every step after the first updates in place, and
which the march hands over as its snapshot at the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, PdeBlowUpError, require_integer
from .linalg import scan_work_size, thomas_apply, thomas_prefactor
from .models import (
    HybridModel, _rate_mean_var, lattice_axis, nearest_node, sde_coefficients, zc_price)

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

# Negative-mass ratio past which a march warns. Every bundled march reads at
# most 2e-13, a rate vol of 1% far from theta 2.8e-4; strong negative
# correlation (rho = -0.95 on the config-default spacings) reads 105.
_NEGATIVE_MASS_FLOOR = 1e-3

_UNADDRESSABLE = ("the grid's n_s x n_r field or its n_t + 1 step times need more bytes "
                  f"than numpy can address ({np.iinfo(np.intp).max}); coarsen ds, dr or dt")


@dataclass(frozen=True)
class Grid2D:
    """Uniform truncated (S, r) lattice and the time steps of a march.

    ``n_s`` and ``n_r`` count interior nodes; the boundary nodes at the box
    edges carry the fixed Dirichlet value 0 and are not stored. The march
    ends at each of ``maturities`` (a tuple) in turn: the interval
    (T_{i-1}, T_i], with T_0 = 0, takes ``steps[i]`` equal steps, so every
    maturity is a step time. A grid whose field or step times would need
    more bytes than numpy can address is refused before anything is
    allocated.
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
        counts = (("n_s", self.n_s), ("n_r", self.n_r),
                  *((f"steps[{i}]", n) for i, n in enumerate(self.steps)))
        for name, n in counts:
            require_integer(name, n)
        if self.n_s < 8 or self.n_r < 8:
            raise InvalidInputError("need at least 8 interior nodes per direction")
        lattice_axis(self.maturities, "maturities")
        if len(self.steps) != len(self.maturities) or min(self.steps) < 1:
            raise InvalidInputError("need at least one step for each of the maturities")
        if max(self.n_s * self.n_r, self.n_t + 1) * 8 > np.iinfo(np.intp).max:
            raise InvalidInputError(_UNADDRESSABLE)

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
        if not all(0.0 < h < math.inf for h in (ds, dr, dt)):
            raise InvalidInputError(
                f"need positive, finite spacings (got ds={ds!r}, dr={dr!r}, dt={dt!r})")
        mats = lattice_axis(np.atleast_1d(maturities), "maturities")
        if not all(math.isfinite(b) for b in (s_min, s_max, r_min, r_max)):
            raise InvalidInputError(
                f"need a finite box (got s_min={s_min!r}, s_max={s_max!r}, "
                f"r_min={r_min!r}, r_max={r_max!r})")
        if not max((s_max - s_min) / ds, (r_max - r_min) / dr, float(mats[-1]) / dt) < math.inf:
            raise InvalidInputError(_UNADDRESSABLE)
        n_s = max(8, int(round((s_max - s_min) / ds)) - 1)
        n_r = max(8, int(round((r_max - r_min) / dr)) - 1)
        ends = [0.0] + mats.tolist()
        steps = tuple(max(1, int(round((t1 - t0) / dt))) for t0, t1 in zip(ends, ends[1:]))
        return cls(s_min, s_max, r_min, r_max, n_s, n_r, tuple(ends[1:]), steps)


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
    tilt, and is normalised to ZC(0, t0). A grid box that does not hold the
    start (S0, r0) strictly inside raises :class:`InvalidInputError`.
    """
    p = model.rate
    if not (grid.s_min < model.s0 < grid.s_max and grid.r_min < p.r0 < grid.r_max):
        raise InvalidInputError(
            f"grid box S in ({grid.s_min:g}, {grid.s_max:g}), r in ({grid.r_min:g}, "
            f"{grid.r_max:g}) does not hold the start (S0={model.s0:g}, r0={p.r0:g})")
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
    corr = cov / (sd_s * sd_r)
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
    """Node values of the terms of the forward equation at one time level:

        u_t = 1/2 d_SS(diff_s u) + d_Sr(cross u) + 1/2 diff_r u_rr
              - d_r(drift_r u) - drift_s u_S - reaction u,

    with diff_s = sigma^2 S^2, cross = rho sigma S alpha, diff_r = alpha^2,
    drift_r = a (theta - r), drift_s = r S and reaction = 2 r. Each is a
    read-only (n_s, n_r) view: a term that is constant along an axis (all
    but ``drift_s`` are) is its row or column broadcast, not a full copy.
    """

    t: float
    diff_s: np.ndarray
    cross: np.ndarray
    diff_r: np.ndarray
    drift_s: np.ndarray
    drift_r: np.ndarray
    reaction: np.ndarray


def build_coefficients(model: HybridModel, grid: Grid2D, t: float) -> AdiCoefficients:
    """Evaluate the terms of the forward equation on the interior nodes at
    time level ``t``, from the SDE coefficients. The Hull-White rate vol is
    one number, so the cross term is a spot column like the S terms."""
    s = grid.s_nodes[:, None]
    r = grid.r_nodes[None, :]
    co = sde_coefficients(model, t, s, r)
    spot_vol = co.vol_s * s  # sigma S
    cross = model.rho * spot_vol * model.rate.sigma2
    terms = (spot_vol**2, cross, co.vol_r**2, co.drift_s, co.drift_r, 2.0 * r)
    shape = (grid.n_s, grid.n_r)
    return AdiCoefficients(t, *(np.broadcast_to(x, shape) for x in terms))


# Least entries in a tile of the rate-only weights (see _StepOperator). A
# multiply broadcasting a tile of under about 5,000 entries runs in numpy's
# slower regime: on the 170 x 120 grid (padded rows of 122 entries; 2-vCPU
# VM, numpy 2.4.6) one multiply took 14 us with tiles of 32 rows and 8-12 us
# with tiles of 48-64 rows.
_TILE_ENTRIES = 6000


def _tile_rows(n_s: int, row: int) -> int:
    """Spot rows in a tile: the fewest whole padded rows of ``row`` entries
    that hold ``_TILE_ENTRIES``, and at most the n_s rows of the band."""
    return min(-(-_TILE_ENTRIES // row), n_s)


def _tiled_multiply(band, tile, out):
    """``out = band * weight``, the weight being ``tile`` repeated along the
    band: over the band seen as rows of one tile, so that numpy's inner loop
    runs a whole tile, then over the remainder, shorter than a tile. Each
    entry meets the same weight as under a full band of it, so the bits are
    those of the full-band product."""
    n = tile.size
    body = band.size - band.size % n
    np.multiply(band[:body].reshape(-1, n), tile, out=out[:body].reshape(-1, n))
    np.multiply(band[body:], tile[:band.size - body], out=out[body:])
    return out


class _StepOperator:
    """Prefactored one-step operator for a fixed coefficient level.

    Only the factors of the two implicit sweeps and the explicit weights are
    kept; the implicit stencils themselves are dropped once factored.

    With half = 1/2 diff / h^2 on each axis, the S stencil A1 of node i
    reads -(half_{i-1} + drift_s / (2 ds)), 2 half_i and drift_s / (2 ds) -
    half_{i+1} on nodes i-1, i, i+1, and the r stencil A2 reads
    -(half + lo_{j-1}), 2 half + (lo_j - hi_{j-1}) and hi_j - half on nodes
    j-1, j, j+1 (A1 and A2 are minus the spatial operator, a neighbour's
    coefficient taken at the neighbour). The rate drift's flux through the
    face between nodes j and j+1, over dr, is lo_j u_j + hi_j u_{j+1}:
    centred, drift_r / (2 dr) on both nodes, where |drift_r| dr <= diff_r at
    the face (compared without dividing, so diff_r = 0 is well defined), and
    upwind otherwise, drift_r / dr on the node the drift comes from and 0 on
    the other. Between centred faces lo_j - hi_{j-1} is exactly 0, so A2 is
    the centred stencil bit for bit. Either way A2's columns sum to zero and
    its off-diagonals are at most 0 (a > 0), so 2/dt + A2 + reaction is
    diagonally dominant by columns wherever 2/dt + 2 r > 0, and factors
    without row swaps.

    The second half-step's right-hand side needs no second S stencil. The
    half-step value u* solves (2/dt + A1 + reaction) u* = f1, and the
    explicit S terms of half-step 2 are (2/dt - A1) u*, the zero Dirichlet
    ring included. They therefore equal (4/dt + reaction) u* - f1, and
    f2 = (4/dt + reaction) u* - f1 + cross(u*). The identity is used within
    one step only; nothing crosses from one step to the next.

    The explicit half of the step runs on the band of the padded layout (see
    the module docstring). The field, the right-hand side and the cross
    weight ``wx`` are bands of padded arrays, ``wx`` zero on the ghost
    columns. Each stencil neighbour is then the band shifted by one flat
    offset, and each operation is one contiguous pass. The S-sweep solves
    into the interior of the padded field; the r-sweep solves into ``out``,
    the march's field, or into a new array.

    The work array of each sweep's solve and the scratch of the explicit
    half are views of one buffer, sized for the largest of the three: the
    scratch is spent before each solve starts, and each solve's work before
    the scratch is next written. The scratch's ring, the ends of the buffer
    outside the band, which the cross stencil's corners read, is zeroed
    again by each cross term, since a solve leaves its own values there.

    The r stencil and the rate-only weights ``w1_c``, ``w1_jp``, ``w1_jm``
    and ``kappa`` are the same on every S line: each is formed once as a
    row of the coefficients' rate terms, which are rows broadcast over the
    S nodes (:class:`AdiCoefficients`). The r stencil A2 is formed as its
    three rows, which both the implicit r sweep (2/dt + A2 + reaction) and
    the explicit weights ``w1_*`` (2/dt - A2) read. The r sweep is factored
    from that one line; the factors its row loops read are copied out over
    the n_s lines, and its block weights stay one line. Each rate-only
    weight is kept as a tile of k padded rows, the fewest that hold
    ``_TILE_ENTRIES`` entries but at most n_s (:func:`_tile_rows`), zero
    on the ghost columns and rolled so that band entry b reads column
    (b + 1) % row: the band starts at column 1, and every k rows of it
    start at column 1 again. :func:`_tiled_multiply` repeats the tile along
    the band, so every entry meets the weight a full band would hold, and
    the bits are those of the full-band product.
    """

    def __init__(self, coeffs: AdiCoefficients, grid: Grid2D, dt: float):
        ds, dr = grid.ds, grid.dr
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

        def tiled_weight(ufunc, *args):
            """``ufunc(*args)`` on the r nodes, zero on the ghosts, as a tile of
            k spot rows rolled so that band entry b reads column (b + 1) % row."""
            line = np.zeros(row)
            ufunc(*args, out=line[1:-1])
            return np.tile(np.roll(line, -1), _tile_rows(grid.n_s, row))

        # the work buffer both sweeps solve in and the scratch of the explicit
        # half are never live at once: one buffer, sized for the largest
        lines = (grid.n_s, grid.n_r)
        work = np.empty(max(scan_work_size(lines, 0), scan_work_size(lines, 1), math.prod(shape)))
        two_dt = 2.0 / dt
        reaction = coeffs.reaction
        # 1/2 diff_s / ds^2 with a zero row past each end of the S lines
        half_s = np.pad(coeffs.diff_s * (0.5 / (ds * ds)), ((1, 1), (0, 0)))
        adv_s = coeffs.drift_s / (2 * ds)
        # Implicit sweep along S: a x_{i-1} + b x_i + c x_{i+1} = f1.
        self.lu1 = thomas_prefactor(
            -(half_s[:-2] + adv_s),
            two_dt + 2 * half_s[1:-1] + reaction,
            adv_s - half_s[2:],
            axis=0,
            work=work,
        )
        del half_s, adv_s  # freed before the arrays the operator keeps
        # rows: the r line is the same at every S node (see the class docstring)
        half_r = coeffs.diff_r[0] * (0.5 / (dr * dr))
        reaction_r = coeffs.reaction[0]
        # drift_r / (2 dr) with a zero past each end of the r line
        adv_r = np.pad(coeffs.drift_r[0] / (2 * dr), 1)
        # a face is upwind where |drift_r| dr > diff_r there, each side doubled
        # as the sum of the face's two nodes (the drift affine to the ghosts)
        drift = np.pad(coeffs.drift_r[0], 1, mode="reflect", reflect_type="odd")
        diff = np.pad(coeffs.diff_r[0], 1, mode="edge")
        face = drift[:-1] + drift[1:]
        upwind = np.abs(face) * dr > diff[:-1] + diff[1:]
        # the face flux's weights on its lower and upper node, over dr
        lo = np.where(upwind, np.where(face > 0, 2 * adv_r[:-1], 0.0), adv_r[:-1])
        hi = np.where(upwind, np.where(face < 0, 2 * adv_r[1:], 0.0), adv_r[1:])
        # A2 on nodes j-1, j, j+1
        a2_jm, a2_c, a2_jp = -(half_r + lo[:-1]), 2 * half_r + (lo[1:] - hi[:-1]), hi[1:] - half_r
        # Implicit sweep along r: (2/dt + A2 + reaction) x = f2.
        over_s = lambda line: np.broadcast_to(line, (grid.n_s, grid.n_r))  # noqa: E731
        self.lu2 = thomas_prefactor(
            over_s(a2_jm), over_s(two_dt + a2_c + reaction_r), over_s(a2_jp), axis=1, work=work)
        # The padded arrays are allocated once both factorisations have freed
        # their temporaries, so the heap does not grow around the holes.
        # Explicit r-direction weights feeding f1: 2/dt - A2.
        self.w1_c = tiled_weight(np.subtract, two_dt, a2_c)
        self.w1_jp = tiled_weight(np.negative, a2_jp)
        self.w1_jm = tiled_weight(np.negative, a2_jm)
        # f2 = kappa * u* - f1 + cross(u*), see the class docstring.
        self.kappa = tiled_weight(np.add, 2 * two_dt, reaction_r)
        self.wx = padded_weight(np.divide, coeffs.cross, 4 * ds * dr)
        pad = np.zeros(shape)
        rhs = np.empty(shape)
        # scratch, and the field scaled by wx whose corners the cross term
        # reads: wx zeroes its ghost columns, and the cross term zeroes its
        # ring, the ends of the buffer outside the band, which a solve overwrites
        scratch = work[:math.prod(shape)]
        flat = pad.ravel()
        self._inner, self._rhs_inner = pad[1:-1, 1:-1], rhs[1:-1, 1:-1]
        self._u, self._rhs = band(flat), band(rhs.ravel())
        self._jp, self._jm = band(flat, 0, 1), band(flat, 0, -1)
        self._tmp = band(scratch)
        self._ring = scratch[:first], scratch[last + 1:]
        # the cross stencil's corners (+1, +1), (-1, -1), (-1, +1), (+1, -1)
        self._corners = tuple(
            band(scratch, di, dj) for di, dj in ((1, 1), (-1, -1), (-1, 1), (1, -1)))

    def _add_cross_term(self, rhs):
        """``rhs += cross(wx * u)`` on the band, the explicit mixed-derivative
        term: the r-difference of each neighbour row, times that row's weight."""
        np.multiply(self._u, self.wx, out=self._tmp)
        for end in self._ring:
            end.fill(0.0)
        pp, mm, mp, pm = self._corners
        rhs += pp
        rhs += mm
        rhs -= mp
        rhs -= pm

    def apply(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One step from ``values``, solved into ``out`` (which may be
        ``values`` itself) or into a new array; either is returned."""
        u, rhs, tmp = self._u, self._rhs, self._tmp
        self._inner[...] = values
        _tiled_multiply(u, self.w1_c, rhs)
        rhs += _tiled_multiply(self._jp, self.w1_jp, tmp)
        rhs += _tiled_multiply(self._jm, self.w1_jm, tmp)
        self._add_cross_term(rhs)
        thomas_apply(self.lu1, self._rhs_inner, out=self._inner)
        _tiled_multiply(u, self.kappa, tmp)
        np.subtract(tmp, rhs, out=rhs)
        self._add_cross_term(rhs)
        return thomas_apply(self.lu2, self._rhs_inner, out=out)


@dataclass
class EvolveDiagnostics:
    """Per-step mass and sign diagnostics of a time march.

    ``negative_mass_ratio`` is the mass of all negative values over the
    target mass. ``warnings`` holds each step's mass-drift warning and, when
    the largest negative-mass ratio of the march passes 1e-3, one warning
    naming it and its time.
    """

    start_mode: str
    start_time: float
    times: list = dataclass_field(default_factory=list)
    raw_mass: list = dataclass_field(default_factory=list)
    target_mass: list = dataclass_field(default_factory=list)
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
        i = nearest_node([snap.t for snap in self.snapshots], t)
        if i is None:
            raise KeyError(f"no snapshot stored at t={t!r}")
        return self.snapshots[i]


def evolve(
    model: HybridModel,
    grid: Grid2D,
    snapshot_times: Sequence[float] | None = None,
    start: Field2D | None = None,
    *,
    on_snapshot: Callable[[Field2D], object] | None = None,
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

    Each snapshot is a :class:`Field2D` handed over in step order, the
    start's first when its time is wanted. By default the march collects
    them in ``result.snapshots``. Given ``on_snapshot``, it calls
    ``on_snapshot(field)`` as it reaches each one and keeps none, so
    ``result.snapshots`` is empty and, however many times are wanted, the
    march holds its field and, while the reader runs, one snapshot. Either
    way a snapshot is the reader's own: every one but the horizon's is a
    copy, and the horizon's is the march's field, which no step changes
    after it. An exception raised by the reader stops the march and
    propagates.

    One prefactored step operator serves every step until the local vol
    next changes (``model.vol.next_change``) or the step size does: the
    whole march for a time-independent vol on equal steps, or one interval
    of a piecewise-constant one.

    After every step the raw trapezoid mass is recorded and the field is
    rescaled onto the discount identity ZC(0, t). A raw mass that is
    non-finite or non-positive raises :class:`PdeBlowUpError`; a
    raw-to-target ratio off by more than 20% is surfaced as a divergence
    warning. A march whose largest negative-mass ratio passes 1e-3 warns
    once, naming that ratio and its time.
    """
    if start is not None:
        if replace(start.grid, maturities=grid.maturities, steps=grid.steps) != grid:
            raise InvalidInputError("resume field does not lie on this grid's box and nodes")
        field = start  # read only: the first step copies its values into the operator
        mode = "resume"
    else:
        field = short_time_start(model, grid)
        mode = "short-time"

    times = grid.t_nodes

    def step_at(t, first=0):
        """Index of the step time ``t``, at or after step ``first``."""
        n = nearest_node(times[first:], t)
        if n is None:
            raise InvalidInputError(
                f"time {t!r} is not a step time of the march from {times[first]:g} to {grid.t_end:g}")
        return first + n

    n0 = step_at(field.t)
    wanted = {grid.n_t} if snapshot_times is None else {step_at(t, n0) for t in snapshot_times}
    sizes = np.repeat(np.diff(grid.maturities, prepend=0.0) / grid.steps, grid.steps).tolist()
    times = times.tolist()

    diag = EvolveDiagnostics(start_mode=mode, start_time=field.t)
    m0 = field.mass()
    if m0 <= 0 or not np.isfinite(m0):
        raise InvalidInputError("start field mass must be positive and finite")

    # the march reaches each wanted step once, in step order
    snapshots = []
    take = snapshots.append if on_snapshot is None else on_snapshot
    if n0 in wanted:
        take(field.copy())

    valid_until, op_size = -math.inf, None
    values = field.values
    # a fresh start lives on in values alone, until the first step replaces
    # it; a resumed one stays alive through ``start`` and the caller
    del field
    for n in range(n0, grid.n_t):
        t, t_next, h = times[n], times[n + 1], sizes[n]
        if t > valid_until or h != op_size:
            op = None  # release the old operator before building its successor
            op = _StepOperator(build_coefficients(model, grid, t), grid, h)
            valid_until, op_size = model.vol.next_change(t), h
        # the first step leaves the start as it is; later ones update the field in place
        values = op.apply(values, out=values if n > n0 else None)
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
        # 0.0 - sum, not -sum: a step without negatives reads +0.0, not -0.0
        neg_sum = float(0.0 - values[values < 0.0].sum()) * grid.ds * grid.dr
        diag.times.append(t_next)
        diag.raw_mass.append(raw)
        diag.target_mass.append(target)
        diag.negative_mass_ratio.append(neg_sum / target)
        if (n + 1) in wanted:
            # the horizon's snapshot takes the field itself: no step follows
            last = n + 1 == grid.n_t
            take(Field2D(grid, values if last else values.copy(), t=t_next))

    if diag.times:
        worst = int(np.argmax(diag.negative_mass_ratio))
        ratio = diag.negative_mass_ratio[worst]
        if ratio > _NEGATIVE_MASS_FLOOR:
            diag.warnings.append(
                f"negative mass ratio {ratio:.3g} at t={diag.times[worst]:.6g} "
                f"passes the floor {_NEGATIVE_MASS_FLOOR:g}"
            )
    return EvolveResult(snapshots=snapshots, diagnostics=diag)
