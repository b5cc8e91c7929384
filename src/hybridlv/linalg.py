"""Tridiagonal solves for the directional implicit sweeps.

The interior systems carry homogeneous Dirichlet closures (x_0 = x_{n+1} = 0),
so a plain Thomas elimination without pivoting is used. The batched variants
run the same recurrence with the batch axis vectorised; each system in the
batch is still an independent sequential recurrence, which keeps results
bit-identical regardless of how callers parallelise over rows or columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def thomas_prefactor(a: np.ndarray, b: np.ndarray, c: np.ndarray, axis: int):
    """Forward-elimination factors for a batch of systems along ``axis``.

    ``a``, ``b``, ``c`` are 2-d arrays; the recurrence runs along ``axis``
    and is vectorised over the other one. Returns (cp, inv_piv) reusable for
    any number of right-hand sides with the same matrix. Raises
    :class:`SingularSystemError` if any line meets a zero or non-finite
    pivot.
    """
    if axis == 1:
        a, b, c = a.T, b.T, c.T
    n = a.shape[0]
    cp = np.empty_like(b)
    inv_piv = np.empty_like(b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_piv[0] = 1.0 / b[0]
        cp[0] = c[0] * inv_piv[0]
        for i in range(1, n):
            inv_piv[i] = 1.0 / (b[i] - a[i] * cp[i - 1])
            cp[i] = c[i] * inv_piv[i]
    if not np.all(np.isfinite(inv_piv)):
        raise SingularSystemError("zero or non-finite pivot in a batched system")
    if axis == 1:
        return cp.T, inv_piv.T
    return cp, inv_piv


def thomas_apply(a: np.ndarray, cp: np.ndarray, inv_piv: np.ndarray, f: np.ndarray, axis: int):
    """Solve using precomputed factors; the sweep runs along ``axis``."""
    if axis == 1:
        a, cp, inv_piv, f = a.T, cp.T, inv_piv.T, f.T
    n = f.shape[0]
    x = np.empty_like(f)
    x[0] = f[0] * inv_piv[0]
    for i in range(1, n):
        x[i] = (f[i] - a[i] * x[i - 1]) * inv_piv[i]
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    if axis == 1:
        return x.T
    return x
