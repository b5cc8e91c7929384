"""A fixed reference kernel timed during every op, to read op times against
the host's speed at that moment.

On a shared virtual machine the same code runs up to 1.7 times slower from
one op to the next as other tenants come and go, so raw op times of one
commit spread past any useful bound. While an op runs, a SIGALRM handler
interrupts it every ``INTERVAL`` seconds and times one pass of a small
kernel; the op's time is the wall time minus the handler time, and it is
reported as a multiple of the mean pass time during that op. Both slow down
together, so the drift cancels, while a change to the engine moves only the
op: the kernels are frozen here and call no hybridlv code.

Each workload's kernel is one step of its hot loop as the engine runs it
today, on arrays near the engine's sizes, so that it competes for caches
as the op does: a Thomas sweep along the 171 rate nodes of the 273x171
``march`` grid for the PDE workloads, and a correlated log-Euler step of
half a 65536-path batch driven by inverse-normal draws for ``mc``. A pass
takes about 4.5 ms, so the passes add about 5% to an op's wall time.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy.special import ndtri

INTERVAL = 0.1  # seconds between passes during an op
WARMUP = 20  # passes before the first op

N_R, WIDTH = 171, 273
N_PATHS, STEPS = 32768, 1

_rng = np.random.default_rng(20180310)
_A = _rng.uniform(-0.3, -0.1, (N_R, WIDTH))
_C = _rng.uniform(-0.3, -0.1, (N_R, WIDTH))
_B = 1.05 - _A - _C
_F = _rng.uniform(0.0, 1.0, (N_R, WIDTH))


def sweep() -> float:
    """One factor-and-solve Thomas sweep of a batch; returns a checksum."""
    a, b, c, f = _A, _B, _C, _F
    n = f.shape[0]
    cp = np.empty_like(b)
    inv_piv = np.empty_like(b)
    inv_piv[0] = 1.0 / b[0]
    cp[0] = c[0] * inv_piv[0]
    for i in range(1, n):
        inv_piv[i] = 1.0 / (b[i] - a[i] * cp[i - 1])
        cp[i] = c[i] * inv_piv[i]
    x = np.empty_like(f)
    x[0] = f[0] * inv_piv[0]
    for i in range(1, n):
        x[i] = (f[i] - a[i] * x[i - 1]) * inv_piv[i]
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return float(x.sum())


def paths() -> float:
    """Correlated log-Euler steps of one path batch; returns a checksum."""
    rng = np.random.Generator(np.random.PCG64(20180310))
    s = np.ones(N_PATHS)
    r = np.full(N_PATHS, 0.02)
    for _ in range(STEPS):
        u = (rng.integers(0, 1 << 53, size=(2, N_PATHS)).astype(np.float64) + 0.5) * 2.0**-53
        z = ndtri(u)
        s = s * np.exp((r - 0.02) * 0.0033 + 0.2 * 0.0577 * z[0])
        r = 0.02 + (r - 0.02) * 0.998 + 0.0023 * (0.4 * z[0] + 0.9165 * z[1])
    return float(s.sum() + r.sum())


KERNELS = {"march": sweep, "calibrate": sweep, "mc": paths}


class Sampler:
    """Times one workload's kernel from a SIGALRM handler while an op runs."""

    def __init__(self, workload: str):
        self.kernel = KERNELS[workload]
        for _ in range(WARMUP):
            self.kernel()
        self.walls = []  # every pass of the run

    def _tick(self, signum, frame):
        t = perf_counter()
        self.kernel()
        self.walls.append(perf_counter() - t)

    @contextmanager
    def during_op(self):
        """Yields a list that, on exit, holds the pass times of this op."""
        first = len(self.walls)
        passes = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield passes
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            passes.extend(self.walls[first:])


def op_cost(wall: float, passes: list[float]) -> tuple[float, float]:
    """(op seconds without the passes, op cost in mean pass times)."""
    own = wall - sum(passes)
    return own, own / statistics.fmean(passes)
