"""Tridiagonal solves for the directional implicit sweeps.

The interior systems carry homogeneous Dirichlet closures (x_0 = x_{n+1} = 0).
A batch of lines, as one directional sweep of the ADI step needs, is solved
by LAPACK ``gttrf``/``gttrs`` (LU with partial pivoting) on one long system
with zero couplings at the line breaks. Pivoting never crosses a break, so
each line's result is independent of the others and of how many lines share
the batch. The single-system :func:`solve_tridiagonal` is plain Thomas
elimination without pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import InvalidInputError, SingularSystemError

__all__ = ["TridiagonalSystem", "solve_tridiagonal"]

_PIVOT_FLOOR = 1e-300


@dataclass(frozen=True)
class TridiagonalSystem:
    """System a_i x_{i-1} + b_i x_i + c_i x_{i+1} = f_i with zero end closures.

    ``lower[0]`` and ``upper[-1]`` are ignored.
    """

    lower: np.ndarray
    main: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        n = len(self.main)
        if not (len(self.lower) == len(self.upper) == len(self.rhs) == n):
            raise InvalidInputError("tridiagonal arrays must have equal length")
        if n == 0:
            raise InvalidInputError("empty tridiagonal system")


def solve_tridiagonal(sys: TridiagonalSystem) -> np.ndarray:
    """Thomas elimination. Raises :class:`SingularSystemError` on a zero pivot."""
    a = np.asarray(sys.lower, dtype=float)
    b = np.asarray(sys.main, dtype=float)
    c = np.asarray(sys.upper, dtype=float)
    f = np.asarray(sys.rhs, dtype=float)
    n = len(b)
    cp = np.empty(n)
    dp = np.empty(n)
    piv = b[0]
    if abs(piv) <= _PIVOT_FLOOR:
        raise SingularSystemError("zero pivot at row 0")
    cp[0] = c[0] / piv
    dp[0] = f[0] / piv
    for i in range(1, n):
        piv = b[i] - a[i] * cp[i - 1]
        if abs(piv) <= _PIVOT_FLOOR:
            raise SingularSystemError(f"zero pivot at row {i}")
        cp[i] = c[i] / piv
        dp[i] = (f[i] - a[i] * dp[i - 1]) / piv
    x = dp
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


@dataclass(frozen=True)
class LineFactors:
    """Pivoted LU factors of a batch of tridiagonal lines.

    The lines are laid out one after another along their sweep direction
    and factored by LAPACK ``gttrf`` as one long system whose couplings are
    zero at every line break, so each line is solved on its own. ``axis``
    and ``shape`` say how to lay a right-hand side out the same way.
    """

    axis: int
    shape: tuple
    lu: tuple


def thomas_prefactor(a: np.ndarray, b: np.ndarray, c: np.ndarray, axis: int) -> LineFactors:
    """Factor a batch of systems a_i x_{i-1} + b_i x_i + c_i x_{i+1} = f_i.

    ``a``, ``b``, ``c`` are 2-d arrays of equal shape; each line of the
    batch runs along ``axis`` (``a`` at its first node and ``c`` at its last
    are ignored). The factors are reusable for any number of right-hand
    sides with the same matrix. Raises :class:`SingularSystemError` if any
    line is singular or meets a non-finite pivot.
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
    return LineFactors(axis, shape, (dl, d, du, du2, ipiv))


def thomas_apply(lu: LineFactors, f: np.ndarray) -> np.ndarray:
    """Solve every line of the batch factored in ``lu`` for right-hand side ``f``."""
    if f.shape != lu.shape:
        raise InvalidInputError(f"right-hand side shape {f.shape} does not match {lu.shape}")
    if lu.axis == 0:
        f = f.T
    x, _ = dgttrs(*lu.lu, f.flatten(), overwrite_b=1)
    x = x.reshape(f.shape)
    return x.T if lu.axis == 0 else x
