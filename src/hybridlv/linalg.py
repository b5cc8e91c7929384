"""Tridiagonal solves for the directional implicit sweeps.

The interior systems carry homogeneous Dirichlet closures (x_0 = x_{n+1} = 0).
A batch of lines, as one directional sweep of the ADI step needs, is factored
by LAPACK ``gttrf`` (LU with partial pivoting) as one long system with zero
couplings at the line breaks. Pivoting never crosses a break, so each line's
result is independent of the others and of how many lines share the batch.
``gttrf`` also finds singular and non-finite lines, and its pivot vector says
whether any line needed a row interchange.

The solve then takes one of two paths:

- No interchange (every sweep of a bundled configuration): the factors are
  those of elimination without pivoting, and a line is solved by two
  first-order recurrences. Run down one line, each is a serial chain of n
  dependent steps, as in LAPACK ``gttrs``; here each runs as a two-level
  blocked scan over fixed blocks of rows, and every step works on all
  blocks of all lines at once (H. H. Wang, *A Parallel Method for
  Tridiagonal Equations*, ACM TOMS 7(2), 1981).
- Some line swapped rows: the batch keeps the pivoted factors and is solved
  by ``gttrs``. The recurrences of the scan have no room for an
  interchange, so this is the only path that solves such lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import InvalidInputError, SingularSystemError

__all__ = ["LineFactors", "thomas_prefactor", "thomas_apply"]


# Rows per block of the two-level scan.
_BLOCK = 16


def _scatter(rows: np.ndarray, blocked: np.ndarray) -> None:
    """Copy ``rows`` (n, W) into ``blocked`` (k, nb, W), row q*k + p to
    ``blocked[p, q]``, and zero the padding rows past n."""
    k, width = blocked.shape[0], blocked.shape[2]
    full, rem = divmod(len(rows), k)
    by_block = blocked.swapaxes(0, 1)
    by_block[:full] = rows[:full * k].reshape(full, k, width)
    if full < by_block.shape[0]:
        by_block[full, :rem] = rows[full * k:]
        by_block[full, rem:] = 0.0


def _gather(blocked: np.ndarray, rows: np.ndarray) -> None:
    """Copy the first len(rows) rows of ``blocked`` back into ``rows``."""
    k, width = blocked.shape[0], blocked.shape[2]
    full, rem = divmod(len(rows), k)
    by_block = blocked.swapaxes(0, 1)
    rows[:full * k].reshape(full, k, width, copy=False)[...] = by_block[:full]
    if rem:
        rows[full * k:] = by_block[full, :rem]


class _BlockedScan:
    """Unpivoted LU factors of a batch of lines, solved by blocked scans.

    With the unit lower factor ``l`` and the upper factor scaled to a unit
    diagonal (``e = du / d``), a line is solved by the recurrences
    y_i = f_i - l_i y_{i-1}, z = y / d and x_i = z_i - e_i x_{i+1}. Each
    recurrence runs in two levels over blocks of ``_BLOCK`` rows:

    1. each block's last value, as if zero came in, is one weighted sum of
       the block's right-hand side (``fwd_weights``, ``bwd_weights``);
    2. a short loop over the blocks carries the true incoming values, with
       the products over a whole block (``fwd_carry``, ``bwd_carry``);
    3. the recurrence steps through the rows of all blocks and all lines at
       once, from the incoming values.

    Every array is stored as (k, nb, W), row q*k + p of each of the W lines
    at [p, q], so each step of 3. is one contiguous slab. The solve runs in
    buffers kept here, so one object serves one solve at a time.
    """

    def __init__(self, lower: np.ndarray, upper: np.ndarray, inv_diag: np.ndarray):
        """Lay out ``l``, ``e`` and ``1/d``, each (n, W) with a line per column."""
        n, width = lower.shape
        k, nb = _BLOCK, -(-n // _BLOCK)

        def blocked(rows):
            out = np.empty((k, nb, width))
            _scatter(rows, out)
            return out

        self.lower = blocked(lower)
        self.upper = blocked(upper)
        self.inv_diag = blocked(inv_diag)
        # fwd_weights[p] = prod_{m>p} (-l_m), bwd_weights[p] = prod_{m<p} (-e_m).
        self.fwd_weights = np.empty_like(self.lower)
        self.bwd_weights = np.empty_like(self.upper)
        self.fwd_weights[-1] = 1.0
        self.bwd_weights[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # see ``finite``
            for p in range(k - 1, 0, -1):
                np.multiply(self.fwd_weights[p], -self.lower[p], out=self.fwd_weights[p - 1])
            for p in range(1, k):
                np.multiply(self.bwd_weights[p - 1], -self.upper[p - 1], out=self.bwd_weights[p])
            self.fwd_carry = self.fwd_weights[0] * -self.lower[0]
            self.bwd_carry = self.bwd_weights[-1] * -self.upper[-1]
        self.work = np.empty_like(self.lower)
        self._incoming = np.empty((nb, width))
        self._ends = np.empty((nb, width))
        self._slab = np.empty((nb, width))

    @property
    def finite(self) -> bool:
        """Whether every in-block product is finite, as the scan needs."""
        return bool(np.isfinite(self.fwd_weights).all() and np.isfinite(self.bwd_weights).all())

    def solve(self, f: np.ndarray, out: np.ndarray) -> None:
        """Solve for ``f`` into ``out``, both (n, W) with a line per column."""
        x, l, e = self.work, self.lower, self.upper
        inc, ends, slab = self._incoming, self._ends, self._slab
        k, nb = x.shape[:2]
        _scatter(f, x)
        np.einsum("pqw,pqw->qw", self.fwd_weights, x, out=ends)
        inc[0] = 0.0
        for q in range(1, nb):
            np.multiply(self.fwd_carry[q - 1], inc[q - 1], out=inc[q])
            inc[q] += ends[q - 1]
        x[0] -= np.multiply(l[0], inc, out=slab)
        for p in range(1, k):
            x[p] -= np.multiply(l[p], x[p - 1], out=slab)
        x *= self.inv_diag
        np.einsum("pqw,pqw->qw", self.bwd_weights, x, out=ends)
        inc[-1] = 0.0
        for q in range(nb - 2, -1, -1):
            np.multiply(self.bwd_carry[q + 1], inc[q + 1], out=inc[q])
            inc[q] += ends[q + 1]
        x[-1] -= np.multiply(e[-1], inc, out=slab)
        for p in range(k - 2, -1, -1):
            x[p] -= np.multiply(e[p], x[p + 1], out=slab)
        _gather(x, out)


@dataclass(frozen=True)
class LineFactors:
    """Factors of a batch of tridiagonal lines.

    ``scan`` holds the unpivoted factors when no line swapped rows; ``lu``
    holds the LAPACK ``gttrf`` arrays otherwise (the lines laid out one
    after another along their sweep direction as one long system whose
    couplings are zero at every line break). ``axis`` and ``shape`` say how
    to lay a right-hand side out.
    """

    axis: int
    shape: tuple
    scan: _BlockedScan | None
    lu: tuple | None


def thomas_prefactor(a: np.ndarray, b: np.ndarray, c: np.ndarray, axis: int) -> LineFactors:
    """Factor a batch of systems a_i x_{i-1} + b_i x_i + c_i x_{i+1} = f_i.

    ``a``, ``b``, ``c`` are 2-d arrays of equal shape; each line of the
    batch runs along ``axis`` (``a`` at its first node and ``c`` at its last
    are ignored). The factors are reusable for any number of right-hand
    sides with the same matrix. Raises :class:`SingularSystemError` if any
    line is singular or meets a non-finite pivot.

    The batch is solved by the blocked scan unless ``gttrf`` swapped rows in
    some line or a product of the scan overflows (an upper coupling far
    above its pivot); then it keeps the pivoted factors and ``gttrs``.
    """
    shape = b.shape
    if axis == 0:
        a, b, c = a.T, b.T, c.T
    n = b.shape[1]
    dl = a.flatten()[1:]
    du = c.flatten()[:-1]
    dl[n - 1::n] = 0.0
    du[n - 1::n] = 0.0
    dl, d, du, du2, ipiv, info = dgttrf(
        dl, b.flatten(), du, overwrite_dl=1, overwrite_d=1, overwrite_du=1
    )
    if info != 0 or not np.all(np.isfinite(d)):
        raise SingularSystemError("singular or non-finite line in a batched system")
    if np.array_equal(ipiv, np.arange(1, ipiv.size + 1)):
        # Without interchanges these are the factors of plain elimination. Each
        # line becomes a column; its line-break couplings are already zero.
        def by_line(x):
            return x.reshape(-1, n).T

        scan = _BlockedScan(
            by_line(np.append(0.0, dl)), by_line(np.append(du, 0.0) / d), by_line(1.0 / d)
        )
        if scan.finite:
            return LineFactors(axis, shape, scan, None)
    return LineFactors(axis, shape, None, (dl, d, du, du2, ipiv))


def thomas_apply(lu: LineFactors, f: np.ndarray) -> np.ndarray:
    """Solve every line of the batch factored in ``lu`` for right-hand side ``f``."""
    if f.shape != lu.shape:
        raise InvalidInputError(f"right-hand side shape {f.shape} does not match {lu.shape}")
    if lu.scan is not None:
        out = np.empty(lu.shape)
        if lu.axis == 0:
            lu.scan.solve(f, out)
        else:
            lu.scan.solve(f.T, out.T)
        return out
    if lu.axis == 0:
        f = f.T
    x, _ = dgttrs(*lu.lu, f.flatten(), overwrite_b=1)
    x = x.reshape(f.shape)
    return x.T if lu.axis == 0 else x
