"""Euler-type simulation of the hybrid model for independent cross-checks.

Stepping is log-Euler for the spot (no negative spots) and the exact
Gaussian transition for the mean-reverting rate. The integrated rate is
accumulated by the trapezoid rule along each path. Paths stream through in
batches of ``_BATCH_SIZE`` draws with per-batch deterministic substreams, so
memory is independent of the path count and results are reproducible for a
given seed. Antithetic pairs take one draw: both legs of a batch step
together as one state, the mirror leg adding the negated shock (x + (-y) is
x - y exactly), so each normal is computed once and memory stays a few
arrays of twice the batch. Each normal is ndtri of u = k * 2**-53 + 2**-54,
with k the generator's 53-bit integer, the midpoint of one of 2**53 equal
cells.

The batch of 16384 pairs is sized for a 2 MiB per-core L2 cache.
Under a constant vol a batch's stepping state (spot, rate, new rate,
integrated rate and one work array at 2 * 16384 doubles each, the
(2, 16384) draw buffer and one shock array) is about 1.7 MB and stays in
such a cache across all of its steps; a 65536-pair batch (6.8 MB) streams
it from L3 on every step. A per-path vol adds its vol array and the
temporaries of its formula, several more arrays of 2 * 16384 doubles. A
constant vol is one number (``ConstantVol.value`` returns a float), so its
vol terms are formed once per step instead of once per path.

Batches step on every core in the process's affinity mask (every core
where the OS reports no mask), in rounds of one batch per core: the calling
thread steps the first batch of a round and a pool of one thread per other
core steps the rest. Each batch drops its own unkept paths on the thread
that steps it. A batch's kept terminals do not depend on that thread, and
the rounds are reduced in batch order, so every estimate has the same bits
at any worker count. The walk and both estimators release a batch's arrays
once the estimator has read them, so with w workers an estimate holds the w
batch states being stepped and no spent batch. With one core, or one
batch, every batch steps in the calling thread and no thread is started.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from .errors import InvalidInputError, McAbortedError, require_integer
from .models import HybridModel, _horizon

__all__ = [
    "McConfig",
    "McEstimate",
    "ZEstimate",
    "simulate_paths",
    "conditional_z_estimate",
]

_ABORT_FRACTION = 1e-4
_BATCH_SIZE = 16384  # draws (pairs with antithetic pairing) per batch


@dataclass(frozen=True)
class McConfig:
    """Simulation settings.

    With ``antithetic`` on, each drawn path is mirrored, so 2 * n_paths
    paths are simulated and estimates use the pair means as the independent
    samples; a standard error needs at least two. The draws step in fixed
    batches of ``_BATCH_SIZE``, each with its own substream of ``seed``, and
    results do not depend on how many cores step them.
    """

    n_paths: int
    dt_mc: float
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        for name in ("n_paths", "seed"):
            require_integer(name, getattr(self, name))
        if self.n_paths < 2:
            raise InvalidInputError(f"need at least two paths, got {self.n_paths!r}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {self.seed!r}")
        if isinstance(self.dt_mc, bool) or not isinstance(self.dt_mc, numbers.Real):
            raise InvalidInputError(f"dt_mc must be a real number, got {self.dt_mc!r}")
        if not 0.0 < self.dt_mc < math.inf:
            raise InvalidInputError(f"Euler step must be positive and finite, got {self.dt_mc!r}")
        if not isinstance(self.antithetic, bool):
            raise InvalidInputError(f"antithetic must be a bool, got {self.antithetic!r}")


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


def _check_inputs(maturity: float, bandwidth: float | None = None, centers=()) -> None:
    """Reject what no simulation can serve: a maturity or kernel bandwidth
    that is not positive and finite, or a regression center whose spot is
    not positive and finite or whose rate is not finite."""
    _horizon(maturity, positive=True)
    if bandwidth is not None and not 0.0 < bandwidth < math.inf:
        raise InvalidInputError(f"bandwidth must be positive and finite, got {bandwidth!r}")
    for s_c, r_c in centers:
        if not (0.0 < s_c < math.inf and math.isfinite(r_c)):
            raise InvalidInputError(
                f"center {(s_c, r_c)!r} needs a positive, finite spot and a finite rate")


def _normals(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with standard normals, in place.

    ``rng.random`` gives k * 2**-53 for the 53-bit integer k of one 64-bit
    output, so u = k * 2**-53 + 2**-54 is (2k + 1) * 2**-54 rounded once:
    the same double as (k + 0.5) * 2**-53. The top cell, k = 2**53 - 1,
    rounds to u = 1.0 and gives inf, a non-finite path with probability
    2**-53 per draw.
    """
    rng.random(out=out)
    out += 2.0**-54
    return ndtri(out, out=out)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _batch_terminals(model: HybridModel, maturity: float, cfg: McConfig, rng, n: int):
    """Terminal (S, r, trapezoid integral of r) of one batch of ``n`` draws.

    With antithetic pairing both legs advance as one state of 2n paths:
    rows 0..n-1 follow the draw, rows n..2n-1 its mirror. Each step draws
    one (2, n) block of normals into the batch's one draw buffer. A mirror
    row adds the negated shock, and x + (-y) is x - y exactly, so it
    subtracts the shock computed from the draw. The buffer operations
    follow the evaluation order of

        spot:  s * exp((r - 0.5 * sig**2) * dt + sig * sqdt * z1)
        rate:  th + (r - th) * ea + sd * zr

    with zr = rho * z1 + rho_c * z2, so every path gets the bits it would
    get stepped alone from its own leg's draws. ``sig * sig * 0.5`` and
    ``sig * sqdt`` are formed at the rank ``value`` returns: once per step
    for a vol that is one number, once per path otherwise, in the same order,
    so the bits are the same. A path that runs to a zero, infinite or NaN
    state steps on without a warning; :func:`_one_batch` drops it.
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
    work = np.empty(m)  # spot exponent, then the trapezoid term
    shock = np.empty(n)  # one leg's vol shock, then the rate shock
    draws = np.empty((2, n))
    t = 0.0
    rho = model.rho
    rho_c = math.sqrt(1.0 - rho * rho)
    th = p.theta
    for _ in range(n_steps):
        dt = min(cfg.dt_mc, maturity - t)
        sqdt = math.sqrt(dt)
        z1, zr = _normals(rng, draws)
        zr *= rho_c
        np.multiply(rho, z1, out=shock)
        zr += shock
        sig = model.vol.value(t, s)
        np.subtract(r, sig * sig * 0.5, out=work)
        work *= dt
        vol_sqdt = np.broadcast_to(sig * sqdt, s.shape)
        for rows, add in legs:
            np.multiply(vol_sqdt[rows], z1, out=shock)
            add(work[rows], shock, out=work[rows])
        np.exp(work, out=work)
        s *= work
        ea = math.exp(-p.a * dt)
        sd = p.sigma2 * math.sqrt((1.0 - math.exp(-2.0 * p.a * dt)) / (2.0 * p.a))
        np.subtract(r, th, out=r_new)
        r_new *= ea
        r_new += th
        np.multiply(sd, zr, out=shock)
        for rows, add in legs:
            add(r_new[rows], shock, out=r_new[rows])
        np.add(r, r_new, out=work)
        work *= 0.5 * dt
        acc += work
        r, r_new = r_new, r
        t += dt
    return s, r, acc


def _workers() -> int:
    """The cores this process may run on: its affinity mask where the OS
    reports one (Linux), else the machine's core count."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def _one_batch(model: HybridModel, maturity: float, cfg: McConfig, index: int):
    """((s, r, acc), kept, dropped) of batch ``index``: the terminals of its
    ``kept`` kept draws (mirrors in the second half with antithetic pairing)
    and the count of its simulated paths that were not kept.

    The batch's draws come from its own substream, and every batch but the
    last holds ``_BATCH_SIZE``. A path is kept when its spot is positive and
    finite and its rate and integrated rate are finite, a pair when both
    legs are.
    """
    n = min(_BATCH_SIZE, cfg.n_paths - index * _BATCH_SIZE)
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,))
    rng = np.random.Generator(np.random.PCG64(seq))
    s, r, acc = _batch_terminals(model, maturity, cfg, rng, n)
    ok = (s > 0) & np.isfinite(s) & np.isfinite(r) & np.isfinite(acc)
    dropped = len(s) - int(np.count_nonzero(ok))
    if cfg.antithetic:
        ok = ok[:n] & ok[n:]
    kept = int(np.count_nonzero(ok))
    if kept < n:
        keep = np.tile(ok, 2 if cfg.antithetic else 1)
        s, r, acc = s[keep], r[keep], acc[keep]
    return (s, r, acc), kept, dropped


def _kept_paths(model: HybridModel, maturity: float, cfg: McConfig):
    """Yield ((s, r, acc), kept) per batch in fixed order, as
    :func:`_one_batch` keeps them.

    With w = min(cores, batches) workers, the batches step in rounds of w:
    batches 2..w of a round go to a pool of w - 1 threads while this thread
    steps batch 1, and the round is yielded in batch order. Neither the
    walk nor a finished future keeps a batch once it has been yielded and
    the consumer asks for the next. With one worker nothing is submitted,
    so the pool starts no thread. An exception raised
    by a batch is re-raised here; leaving the generator (a consumer that
    raises or stops early) waits for the round's pool batches and joins the
    pool threads. After the last batch, :class:`McAbortedError` is raised
    when more than 0.01% of the simulated paths were not kept.
    """
    n_batches = -(-cfg.n_paths // _BATCH_SIZE)
    workers = min(_workers(), n_batches)
    dropped = 0
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        for first in range(0, n_batches, workers):
            rest = [pool.submit(_one_batch, model, maturity, cfg, index)
                    for index in range(first + 1, min(first + workers, n_batches))]
            terminals, kept, lost = _one_batch(model, maturity, cfg, first)
            while True:
                dropped += lost
                yield terminals, kept
                del terminals
                if not rest:
                    break
                # a future holds its result: pop it before reading it
                terminals, kept, lost = rest.pop(0).result()
    total = (2 if cfg.antithetic else 1) * cfg.n_paths
    if dropped > _ABORT_FRACTION * total:
        raise McAbortedError(
            f"{dropped} of {total} paths were non-finite or had a zero spot")


def simulate_paths(
    model: HybridModel,
    maturity: float,
    cfg: McConfig,
    payoffs: Sequence[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]],
) -> list[McEstimate]:
    """Estimate E[payoff(S_T, r_T, int r)] for each payoff function.

    Accumulation is streaming in fixed batch order over the kept paths and
    pairs of ``_kept_paths``; a run aborts when more than 0.01% of the
    simulated paths (both legs of every antithetic pair counted) are not
    kept, so at least two samples remain.
    """
    _check_inputs(maturity)
    n_payoffs = len(payoffs)
    sums = np.zeros(n_payoffs)
    sq_sums = np.zeros(n_payoffs)
    n_units = 0
    for (s, r, acc), kept in _kept_paths(model, maturity, cfg):
        n_units += kept
        for idx, payoff in enumerate(payoffs):
            vals = np.asarray(payoff(s, r, acc), dtype=float)
            if cfg.antithetic:
                vals = 0.5 * (vals[:kept] + vals[kept:])
            sums[idx] += vals.sum()
            sq_sums[idx] += (vals * vals).sum()
            del vals
        # release the batch before asking the walk for the next one
        del s, r, acc
    out = []
    for idx in range(n_payoffs):
        mean = sums[idx] / n_units
        var = max(sq_sums[idx] / n_units - mean * mean, 0.0)
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
    are flagged unreliable. Only kept paths enter, and a run aborts as in
    ``simulate_paths``; a center that no kept path weights raises
    :class:`McAbortedError` as well.
    """
    centers = [(float(a), float(b)) for a, b in centers]
    _check_inputs(maturity, bandwidth, centers)
    plain = replace(cfg, antithetic=False)
    n_c = len(centers)
    w_sum = np.zeros(n_c)
    wz_sum = np.zeros(n_c)
    w2_sum = np.zeros(n_c)
    w2z_sum = np.zeros(n_c)
    w2z2_sum = np.zeros(n_c)
    inv_h2 = 1.0 / bandwidth**2
    for (s, r, acc), _ in _kept_paths(model, maturity, plain):
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
            del w, w2
        del s, r, acc, y, z
    out = []
    for idx, center in enumerate(centers):
        if w_sum[idx] <= 0.0:
            raise McAbortedError(f"no kernel weight at center {center!r}")
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
