"""Tridiagonal solves for the directional implicit sweeps.

The interior systems carry homogeneous Dirichlet closures (x_0 = x_{n+1} = 0).
A batch of lines, as one directional sweep of the ADI step needs, is
factored in numpy by elimination without row interchanges, one row of
every line per step: l_i = a_i / d_{i-1}, then d_i = b_i - l_i c_{i-1}.
Where every line has |d_{i-1}| >= |a_i| at every row, LAPACK ``gttrf``
swaps no row and these are its operations in its order. Each line's
result is independent of the others and of how many lines share the batch,
so a batch that repeats one line (one line broadcast over the batch, as
the rate sweep of the ADI step is) factors that line once. It copies out
over the batch the factors that the row loops of a solve read (the lower
and upper factors, the inverse pivots and the block carries); the block
weights, which a solve reads only through ``einsum``, stay that one line,
broadcast over the batch.

A factored batch is one :class:`LineFactors`, whose ``solve(f, out)``
takes the right-hand side and the solution as the caller lays the batch
out. A line is solved by two first-order recurrences. Run down one line,
each is a serial chain of n dependent steps, as in LAPACK ``gttrs``; here
each runs as a two-level blocked scan over fixed blocks of rows, and every
step works on all blocks of all lines at once (H. H. Wang, *A Parallel
Method for Tridiagonal Equations*, ACM TOMS 7(2), 1981).

The recurrences have no room for a row interchange. A batch is factored
only if every line keeps its pivots, every pivot is finite and non-zero,
and the products of the scan stay finite; otherwise factoring raises
:class:`SingularSystemError`, naming which. A line that is diagonally
dominant by columns keeps its pivots (N. J. Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 9); the step
operator of :mod:`hybridlv.pde` forms its lines so.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, SingularSystemError

__all__ = ["LineFactors", "scan_work_size", "thomas_prefactor", "thomas_apply"]


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


def _eliminate(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Eliminate without row interchanges; each line is a column of the
    (n, W) arrays ``a``, ``b``, ``c``.

    Returns the unit lower factor ``l`` (zero on the first row) and the
    pivots ``d``, both (n, W) and C-contiguous, so each step of the
    elimination works on one contiguous row of every line.
    """
    lower = np.array(a, order="C")
    diag = np.array(b, order="C")
    lower[0] = 0.0
    slab = np.empty(diag.shape[1])
    ls, ds, cs = list(lower), list(diag), list(c)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(1, len(ds)):
            li = ls[i]
            np.divide(li, ds[i - 1], out=li)
            ds[i] -= np.multiply(li, cs[i - 1], out=slab)
    return lower, diag


def _pivot_failure(lower: np.ndarray, diag: np.ndarray) -> SingularSystemError:
    """The error naming why the scan cannot take the (n, W) factors ``lower``
    and ``diag`` of :func:`_eliminate`, at the first row where it shows."""
    bad, cause = ~np.isfinite(diag) | (diag == 0.0), "meets a zero or non-finite pivot"
    if not bad.any():
        bad, cause = np.abs(lower) > 1.0, "needs a row swap (|a_i| > |d_(i-1)|)"
    return SingularSystemError(f"a line {cause} at row {int(bad.any(axis=1).argmax())}")


class LineFactors:
    """Unpivoted LU factors of a batch of tridiagonal lines, solved by blocked scans.

    ``axis`` and ``shape`` say how the caller lays the batch out; the
    factors hold each of the W lines as a column. With the unit lower
    factor ``l`` and the upper factor scaled to a unit diagonal
    (``e = du / d``), a line is solved by the recurrences
    y_i = f_i - l_i y_{i-1}, z = y / d and x_i = z_i - e_i x_{i+1}. Each
    recurrence runs in two levels over blocks of ``_BLOCK`` rows:

    1. each block's last value, as if zero came in, is one weighted sum of
       the block's right-hand side (``fwd_weights``, ``bwd_weights``);
    2. a short loop over the blocks carries the true incoming values, with
       the products over a whole block (``fwd_carry``, ``bwd_carry``);
    3. the recurrence steps through the rows of all blocks and all lines at
       once, from the incoming values.

    Every factor is stored as (k, nb, W), row q*k + p of each line at
    [p, q], but the carries, (nb, W); so each step of 3. is one contiguous
    slab. The solve runs in buffers kept here, so one object serves one
    solve at a time. :func:`thomas_prefactor` builds it.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, axis: int,
                 work: np.ndarray | None = None):
        """Factor the lines of ``a``, ``b``, ``c`` that run along ``axis``, as
        :func:`thomas_prefactor` says. The work array is the head of the flat
        buffer ``work`` when given, and an array of its own otherwise."""
        self.axis, self.shape = axis, b.shape
        if axis == 1:
            a, b, c = a.T, b.T, c.T
        width = b.shape[1]
        # one line broadcast over the batch is factored once
        one_line = a.strides[1] == b.strides[1] == c.strides[1] == 0
        if one_line:
            a, b, c = a[:, :1], b[:, :1], c[:, :1]
        rows_l, rows_d = _eliminate(a, b, c)
        # Correctly rounded division keeps |l_i| = |a_i / d_{i-1}| <= 1 exactly
        # when |d_{i-1}| >= |a_i|, gttrf's test for keeping row i - 1 as pivot
        # row; a zero or NaN pivot leaves l_i infinite or NaN, which fails it too.
        if not (np.abs(rows_l).max() <= 1.0 and np.isfinite(rows_d).all() and rows_d.all()):
            raise _pivot_failure(rows_l, rows_d)
        n, w = rows_d.shape
        k, nb = _BLOCK, -(-n // _BLOCK)
        lower, upper, inv_diag = (np.empty((k, nb, w)) for _ in range(3))
        _scatter(rows_l, lower)
        _scatter(c, upper)
        _scatter(rows_d, inv_diag)
        # The last row's coupling is ignored; a padding row past n solves to 0.
        upper[(n - 1) % k, (n - 1) // k] = 0.0
        inv_diag[n - (nb - 1) * k:, nb - 1] = 1.0
        # fwd_weights[p] = prod_{m>p} (-l_m), bwd_weights[p] = prod_{m<p} (-e_m).
        fwd_weights = np.empty_like(lower)
        bwd_weights = np.empty_like(upper)
        fwd_weights[-1] = 1.0
        bwd_weights[0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            upper /= inv_diag
            np.divide(1.0, inv_diag, out=inv_diag)
            for p in range(k - 1, 0, -1):
                np.multiply(fwd_weights[p], -lower[p], out=fwd_weights[p - 1])
            for p in range(1, k):
                np.multiply(bwd_weights[p - 1], -upper[p - 1], out=bwd_weights[p])
            fwd_carry = fwd_weights[0] * -lower[0]
            bwd_carry = bwd_weights[-1] * -upper[-1]
        if not (np.isfinite(fwd_weights).all() and np.isfinite(bwd_weights).all()):
            raise SingularSystemError(
                "a product of the blocked scan overflows: an upper coupling lies far above its pivot")
        del rows_l, rows_d

        def spread(x, copy=True):
            """``x``, or for one line, ``x`` over the batch: copied out, or a
            read-only view, which ``einsum`` reads as fast."""
            if not one_line:
                return x
            x = np.broadcast_to(x, x.shape[:-1] + (width,))
            return x.copy() if copy else x

        self.lower, self.upper, self.inv_diag = spread(lower), spread(upper), spread(inv_diag)
        self.fwd_weights = spread(fwd_weights, copy=False)
        self.bwd_weights = spread(bwd_weights, copy=False)
        self.fwd_carry, self.bwd_carry = spread(fwd_carry), spread(bwd_carry)
        if work is None:
            self.work = np.empty_like(self.lower)
        else:
            self.work = work[:self.lower.size].reshape(self.lower.shape)
        self._incoming = np.empty((nb, width))
        self._ends = np.empty((nb, width))
        self._slab = np.empty((nb, width))
        # Per-row and per-block views for the loops of ``solve``, built once.
        x, inc, ends = tuple(self.work), tuple(self._incoming), tuple(self._ends)
        l, e = tuple(self.lower), tuple(self.upper)
        self._fwd_blocks = tuple(zip(self.fwd_carry[:-1], inc[:-1], inc[1:], ends[:-1]))
        self._bwd_blocks = tuple(zip(self.bwd_carry[:0:-1], inc[:0:-1], inc[-2::-1], ends[:0:-1]))
        self._fwd_rows = tuple(zip(l[1:], x[:-1], x[1:]))
        self._bwd_rows = tuple(zip(e[-2::-1], x[:0:-1], x[-2::-1]))

    def solve(self, f: np.ndarray, out: np.ndarray) -> None:
        """Solve for ``f`` into ``out``, both of the batch's ``shape``."""
        if self.axis == 1:
            f, out = f.T, out.T
        x, inc, ends, slab = self.work, self._incoming, self._ends, self._slab
        _scatter(f, x)
        np.einsum("pqw,pqw->qw", self.fwd_weights, x, out=ends)
        inc[0] = 0.0
        for carry, prev, cur, end in self._fwd_blocks:
            np.multiply(carry, prev, out=cur)
            cur += end
        x[0] -= np.multiply(self.lower[0], inc, out=slab)
        for lp, prev, cur in self._fwd_rows:
            cur -= np.multiply(lp, prev, out=slab)
        x *= self.inv_diag
        np.einsum("pqw,pqw->qw", self.bwd_weights, x, out=ends)
        inc[-1] = 0.0
        for carry, nxt, cur, end in self._bwd_blocks:
            np.multiply(carry, nxt, out=cur)
            cur += end
        x[-1] -= np.multiply(self.upper[-1], inc, out=slab)
        for ep, nxt, cur in self._bwd_rows:
            cur -= np.multiply(ep, nxt, out=slab)
        _gather(x, out)


def scan_work_size(shape: tuple, axis: int) -> int:
    """Entries of the work array of the blocked scan of a batch of ``shape``
    whose lines run along ``axis``: the lines padded to whole blocks of rows."""
    return -(-shape[axis] // _BLOCK) * _BLOCK * shape[1 - axis]


def thomas_prefactor(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, axis: int, *, work: np.ndarray | None = None
) -> LineFactors:
    """Factor a batch of systems a_i x_{i-1} + b_i x_i + c_i x_{i+1} = f_i.

    ``a``, ``b``, ``c`` are 2-d float arrays of one shape; each line of the
    batch runs along ``axis``, 0 or 1 (``a`` at its first node and ``c`` at
    its last are ignored). The factors are reusable for any number of
    right-hand sides with the same matrix. Raises
    :class:`InvalidInputError` for another axis or other arrays, and
    :class:`SingularSystemError`, naming the cause, if some line meets a
    zero or non-finite pivot, needs a row swap (``gttrf`` would swap rows),
    or overflows a product of the scan (an upper coupling far above its
    pivot).

    A batch given as one line broadcast over every line (``a``, ``b`` and
    ``c`` each of stride zero across the lines) is factored as that one
    line: the same factors as a batch of separate copies. The factors the
    solve's row loops read (``lower``, ``upper``, ``inv_diag`` and the two
    carries) are copied out over the batch, since a loop over a broadcast
    row runs slower; the block weights ``fwd_weights`` and ``bwd_weights``
    stay read-only views of the one line, from which ``einsum`` computes
    the same bits.

    ``work``, a flat float array of at least :func:`scan_work_size` entries,
    is the buffer the blocked scan solves in; a caller that solves several
    batches one at a time can lend them all one buffer, whose contents every
    solve overwrites. By default the scan allocates its own.
    """
    if axis not in (0, 1):
        raise InvalidInputError(f"axis must be 0 or 1, got {axis!r}")
    if not all(isinstance(x, np.ndarray) and x.ndim == 2 and x.shape == np.shape(b)
               and np.issubdtype(x.dtype, np.floating) for x in (a, b, c)):
        raise InvalidInputError("a, b, c must be 2-d float arrays of one shape, got "
                                f"{[(np.shape(x), np.asarray(x).dtype.name) for x in (a, b, c)]}")
    size = scan_work_size(b.shape, axis)
    if work is not None and (work.ndim != 1 or work.size < size):
        raise InvalidInputError(
            f"work buffer of shape {work.shape} is not flat with at least {size} entries")
    return LineFactors(a, b, c, axis, work)


def thomas_apply(lu: LineFactors, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Solve every line of the batch factored in ``lu`` for right-hand side ``f``.

    The solution goes into ``out`` when given (an array of the batch's shape,
    of any strides, that does not overlap ``f``) and into a new array
    otherwise; either is returned.
    """
    if f.shape != lu.shape:
        raise InvalidInputError(f"right-hand side shape {f.shape} does not match {lu.shape}")
    if out is not None and out.shape != lu.shape:
        raise InvalidInputError(f"output shape {out.shape} does not match {lu.shape}")
    if out is None:
        out = np.empty(lu.shape)
    lu.solve(f, out)
    return out
