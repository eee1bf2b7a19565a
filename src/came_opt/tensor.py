"""Minimal dense matrix arithmetic shared by every optimizer.

Everything is a 2-D float64 numpy array in C (row-major) order: a column
vector is n x 1, a row vector is 1 x m, a scalar is 1 x 1. A logically 1-D
parameter of n entries is stored as an n x 1 column. Operations are pure;
repeated calls on identical inputs return bitwise-identical results.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

# A Matrix is a 2-D float64 ndarray; the alias documents intent.
Matrix = np.ndarray


def storage_shape(dims: Tuple[int, ...]) -> Tuple[int, int]:
    """Map logical dims to the 2-D storage shape (1-D becomes a column)."""
    if len(dims) == 1:
        return (dims[0], 1)
    if len(dims) == 2:
        return (dims[0], dims[1])
    raise ValueError(f"parameters must be 1-D or 2-D, got dims {dims}")


def _check(m, name: str = "matrix") -> Matrix:
    if not isinstance(m, np.ndarray) or m.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got {type(m).__name__}")
    return m


def row_sums(m: Matrix) -> Matrix:
    """Sum each row: n x m -> n x 1."""
    _check(m)
    return m.sum(axis=1, keepdims=True)


def col_sums(m: Matrix) -> Matrix:
    """Sum each column: n x m -> 1 x m."""
    _check(m)
    return m.sum(axis=0, keepdims=True)


def rms(m: Matrix) -> float:
    """Root mean square of all entries."""
    _check(m)
    return math.sqrt(float(np.mean(np.square(m))))


def outer_quotient(r: Matrix, c: Matrix) -> Matrix:
    """Rank-1 reconstruction r * c / sum(r): (n x 1, 1 x m) -> n x m.

    Entry (i, j) is r_i * c_j / sum_k r_k. Requires strictly positive r.
    """
    _check(r, "r")
    _check(c, "c")
    if r.shape[1] != 1:
        raise ValueError(f"r must be a column vector, got shape {r.shape}")
    if c.shape[0] != 1:
        raise ValueError(f"c must be a row vector, got shape {c.shape}")
    if np.any(r <= 0.0):
        raise ValueError("outer_quotient requires strictly positive r entries")
    denom = float(r.sum())
    if denom <= 0.0:
        raise ValueError("outer_quotient requires a positive row-factor total")
    # each entry is the single product r_i * c_j, the same value r @ c gives, so
    # dividing in place matches (r @ c) / denom bitwise; einsum, unlike the
    # broadcast r * c, allocates no iteration buffer next to its n x m result
    out = np.einsum("ik,kj->ij", r, c)
    out /= denom
    return out
