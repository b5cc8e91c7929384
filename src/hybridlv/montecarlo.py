"""Euler-type simulation of the hybrid model for independent cross-checks.

Default stepping is log-Euler for the spot (no negative spots) and the
exact Gaussian transition for the mean-reverting rate; literal plain-Euler
modes for both directions are kept behind flags. The integrated rate is
accumulated by the trapezoid rule along each path. Paths stream through in
batches with per-batch deterministic substreams, so memory is independent
of the path count and results are reproducible for a given seed and batch
size. Antithetic pairs take one draw: both legs of a batch step together
as one state, the mirror leg on the exact negation of the draw, so each
normal is computed once and memory stays a few arrays of twice the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from .errors import InvalidInputError, McAbortedError, NoDataError
from .models import HybridModel

__all__ = [
    "McConfig",
    "McEstimate",
    "ZEstimate",
    "simulate_paths",
    "conditional_z_estimate",
]

_ABORT_FRACTION = 1e-4


@dataclass(frozen=True)
class McConfig:
    """Simulation settings.

    With ``antithetic`` on, each drawn path is mirrored, so 2 * n_paths
    paths are simulated and estimates use the pair means as the independent
    samples.
    """

    n_paths: int
    dt_mc: float
    seed: int = 0
    antithetic: bool = True
    batch_size: int = 65536
    spot_scheme: str = "log"  # or "euler"
    rate_scheme: str = "exact"  # or "euler"

    def __post_init__(self):
        if self.n_paths < 1:
            raise InvalidInputError("need at least one path")
        if self.dt_mc <= 0:
            raise InvalidInputError("Euler step must be positive")
        if self.spot_scheme not in ("log", "euler"):
            raise InvalidInputError(f"unknown spot scheme {self.spot_scheme!r}")
        if self.rate_scheme not in ("exact", "euler"):
            raise InvalidInputError(f"unknown rate scheme {self.rate_scheme!r}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error.

    ``n_effective`` counts the independent samples behind the error bar
    (antithetic pairs count once; their mean is the sample).
    """

    mean: float
    standard_error: float
    n_effective: int


@dataclass(frozen=True)
class ZEstimate:
    """Kernel-regression estimate of the discount projection at one center."""

    center: tuple
    value: float
    standard_error: float
    effective_size: float
    reliable: bool


def _check_aborted(bad: int, total: int) -> None:
    if bad > _ABORT_FRACTION * total:
        raise McAbortedError(f"{bad} of {total} paths were non-finite")


def _normals(rng: np.random.Generator, shape) -> np.ndarray:
    # Inverse-transform sampling keeps the antithetic mirror exact (the
    # mirrored path is the exact negation of the draw).
    u = (rng.integers(0, 1 << 53, size=shape).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def _batch_terminals(model: HybridModel, maturity: float, cfg: McConfig, rng, n: int):
    """Terminal (S, r, trapezoid integral of r) of one batch of ``n`` draws.

    With antithetic pairing both legs advance as one state of 2n paths:
    rows 0..n-1 follow the draw, rows n..2n-1 its mirror. Each step draws
    one (2, n) block of normals. A mirror row adds the negated shock, and
    x + (-y) is x - y exactly, so it subtracts the shock computed from the
    draw. The buffer operations follow the evaluation order of

        log spot:    s * exp((r - 0.5 * sig**2) * dt + sig * sqdt * z1)
        euler spot:  max(s * (1.0 + r * dt + sig * sqdt * z1), 1e-12)
        exact rate:  th + (r - th) * ea + sd * zr
        euler rate:  r + a * (th - r) * dt + sigma2 * sqdt * zr

    with zr = rho * z1 + rho_c * z2, so every path gets the bits it would
    get stepped alone from its own leg's draws.
    """
    p = model.rate
    n_steps = max(1, int(math.ceil(maturity / cfg.dt_mc - 1e-12)))
    m = 2 * n if cfg.antithetic else n
    legs = [(slice(0, n), np.add)]
    if cfg.antithetic:
        legs.append((slice(n, m), np.subtract))
    s = np.full(m, model.s0)
    r = np.full(m, p.r0)
    r_new = np.empty(m)
    acc = np.zeros(m)
    work = np.empty(m)  # spot exponent (log) or factor (euler), then the trapezoid term
    shock = np.empty(n)  # one leg's vol shock, then the rate shock
    t = 0.0
    rho = model.rho
    rho_c = math.sqrt(1.0 - rho * rho)
    for _ in range(n_steps):
        dt = min(cfg.dt_mc, maturity - t)
        sqdt = math.sqrt(dt)
        z1, zr = _normals(rng, (2, n))
        zr *= rho_c
        np.multiply(rho, z1, out=shock)
        zr += shock
        sig = np.broadcast_to(model.vol.value(t, s), s.shape)
        if cfg.spot_scheme == "log":
            np.square(sig, out=work)
            work *= 0.5
            np.subtract(r, work, out=work)
            work *= dt
        else:
            np.multiply(r, dt, out=work)
            work += 1.0
        for rows, add in legs:
            np.multiply(sig[rows], sqdt, out=shock)
            shock *= z1
            add(work[rows], shock, out=work[rows])
        if cfg.spot_scheme == "log":
            np.exp(work, out=work)
            s *= work
        else:
            s *= work
            np.maximum(s, 1e-12, out=s)
        th = p.theta_at(t + 0.5 * dt)
        if cfg.rate_scheme == "exact":
            ea = math.exp(-p.a * dt)
            sd = p.sigma2 * math.sqrt((1.0 - math.exp(-2.0 * p.a * dt)) / (2.0 * p.a))
            np.subtract(r, th, out=r_new)
            r_new *= ea
            r_new += th
            np.multiply(sd, zr, out=shock)
        else:
            np.subtract(th, r, out=r_new)
            r_new *= p.a
            r_new *= dt
            r_new += r
            np.multiply(p.sigma2 * sqdt, zr, out=shock)
        for rows, add in legs:
            add(r_new[rows], shock, out=r_new[rows])
        np.add(r, r_new, out=work)
        work *= 0.5
        work *= dt
        acc += work
        r, r_new = r_new, r
        t += dt
    return s, r, acc


def _iter_batches(model: HybridModel, maturity: float, cfg: McConfig):
    """Yield ((s, r, acc), n) per batch of ``n`` draws in fixed order.

    Each batch has its own substream of the seed. With antithetic pairing
    the terminal arrays hold 2n paths, the mirrors in the second half.
    """
    remaining = cfg.n_paths
    batch_index = 0
    while remaining > 0:
        n = min(cfg.batch_size, remaining)
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(batch_index,))
        rng = np.random.Generator(np.random.PCG64(seq))
        yield _batch_terminals(model, maturity, cfg, rng, n), n
        remaining -= n
        batch_index += 1


def simulate_paths(
    model: HybridModel,
    maturity: float,
    cfg: McConfig,
    payoffs: Sequence[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]],
) -> list[McEstimate]:
    """Estimate E[payoff(S_T, r_T, int r)] for each payoff function.

    Accumulation is streaming in fixed batch order; a run aborts when more
    than 0.01% of the simulated paths (both legs of every antithetic pair
    counted) produce non-finite values. A pair with a non-finite leg is
    dropped from the estimates.
    """
    if maturity <= 0:
        raise InvalidInputError("maturity must be positive")
    n_payoffs = len(payoffs)
    sums = np.zeros(n_payoffs)
    sq_sums = np.zeros(n_payoffs)
    n_units = 0
    aborted = 0
    n_legs = 2 if cfg.antithetic else 1
    for (s, r, acc), n in _iter_batches(model, maturity, cfg):
        ok = np.isfinite(s) & np.isfinite(r) & np.isfinite(acc)
        aborted += len(s) - int(np.count_nonzero(ok))
        if cfg.antithetic:
            ok = ok[:n] & ok[n:]
        kept = int(np.count_nonzero(ok))
        if kept < n:
            keep = np.tile(ok, n_legs)
            s, r, acc = s[keep], r[keep], acc[keep]
        n_units += kept
        for idx, payoff in enumerate(payoffs):
            vals = np.asarray(payoff(s, r, acc), dtype=float)
            if cfg.antithetic:
                vals = 0.5 * (vals[:kept] + vals[kept:])
            sums[idx] += vals.sum()
            sq_sums[idx] += (vals * vals).sum()
    _check_aborted(aborted, n_legs * cfg.n_paths)
    out = []
    for idx in range(n_payoffs):
        mean = sums[idx] / n_units
        var = max(sq_sums[idx] / n_units - mean * mean, 0.0)
        if n_units > 1:
            var *= n_units / (n_units - 1)
        se = math.sqrt(var / n_units)
        out.append(McEstimate(mean=float(mean), standard_error=float(se), n_effective=n_units))
    return out


def conditional_z_estimate(
    model: HybridModel,
    maturity: float,
    cfg: McConfig,
    centers: Sequence[tuple],
    bandwidth: float,
) -> list[ZEstimate]:
    """Kernel regression of exp(-int r) on the terminal state.

    Nadaraya-Watson with a product Gaussian kernel in (log S, r) and a
    common bandwidth. Sampling is plain (kernel weights break the pair
    symmetry, so antithetic mirroring is disabled to keep the error
    estimate honest); centers whose effective sample size falls below 100
    are flagged unreliable. As in ``simulate_paths``, a run aborts when
    more than 0.01% of paths are non-finite (a zero spot counts: its log
    is not finite).
    """
    if bandwidth <= 0:
        raise InvalidInputError("bandwidth must be positive")
    centers = [(float(a), float(b)) for a, b in centers]
    for s_c, _ in centers:
        if s_c <= 0:
            raise InvalidInputError("center spot must be positive")
    plain = McConfig(
        n_paths=cfg.n_paths,
        dt_mc=cfg.dt_mc,
        seed=cfg.seed,
        antithetic=False,
        batch_size=cfg.batch_size,
        spot_scheme=cfg.spot_scheme,
        rate_scheme=cfg.rate_scheme,
    )
    n_c = len(centers)
    w_sum = np.zeros(n_c)
    wz_sum = np.zeros(n_c)
    w2_sum = np.zeros(n_c)
    w2z_sum = np.zeros(n_c)
    w2z2_sum = np.zeros(n_c)
    inv_h2 = 1.0 / bandwidth**2
    dropped = 0
    for (s, r, acc), _ in _iter_batches(model, maturity, plain):
        ok = np.isfinite(s) & np.isfinite(r) & np.isfinite(acc) & (s > 0)
        dropped += len(s) - int(np.count_nonzero(ok))
        s, r, acc = s[ok], r[ok], acc[ok]
        y = np.log(s)
        z = np.exp(-acc)
        for idx, (s_c, r_c) in enumerate(centers):
            w = np.exp(-0.5 * ((y - math.log(s_c)) ** 2 + (r - r_c) ** 2) * inv_h2)
            w_sum[idx] += w.sum()
            wz_sum[idx] += (w * z).sum()
            w2 = w * w
            w2_sum[idx] += w2.sum()
            w2z_sum[idx] += (w2 * z).sum()
            w2z2_sum[idx] += (w2 * z * z).sum()
    _check_aborted(dropped, cfg.n_paths)
    out = []
    for idx, center in enumerate(centers):
        if w_sum[idx] <= 0.0:
            raise NoDataError(f"no kernel weight at center {center!r}")
        value = wz_sum[idx] / w_sum[idx]
        resid = w2z2_sum[idx] - 2.0 * value * w2z_sum[idx] + value**2 * w2_sum[idx]
        se = math.sqrt(max(resid, 0.0)) / w_sum[idx]
        ess = w_sum[idx] ** 2 / w2_sum[idx] if w2_sum[idx] > 0 else 0.0
        out.append(
            ZEstimate(
                center=center,
                value=float(value),
                standard_error=float(se),
                effective_size=float(ess),
                reliable=bool(ess >= 100.0),
            )
        )
    return out
