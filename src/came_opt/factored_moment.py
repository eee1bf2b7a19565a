"""Rank-1 nonnegative factorization and the moving averages built on it.

The closed-form factorization of a nonnegative matrix V into a column factor
W = V 1 (`row_sums`) and a row factor H = 1^T V / 1^T V 1 (`col_sums` over
the total) minimizes the generalized Kullback-Leibler divergence to V among
all rank-1 nonnegative matrices. An optimizer never stores V: it keeps moving
averages of the two factors and builds the inverse square root of the rank-1
surrogate from them on demand, as one `outer_quotient` of n + m roots. The
same functions serve the squared-gradient and the instability accumulator,
which differ only in decay and epsilon. An accumulator is plain arrays: a
factored one is an n x 1 row factor and a 1 x m column factor, an unfactored
one a single array. The update functions return new accumulator arrays and
never write the old ones. `factored_update` folds the squares of its scaled
input from read-only sums, so the n x m squares are never written; `full_update`
takes already-squared scratch and shifts and scales it in place. It and
`factored_reconstruct` write their n x m result into `out` when given one.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np


def _require_finite_entries(caller: str, **arrays: np.ndarray) -> None:
    # a NaN entry passes every comparison-based domain check, so test it first
    for name, x in arrays.items():
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{caller} requires finite {name}, got NaN or inf entries")


def row_sums(m: np.ndarray) -> np.ndarray:
    """Sum each row: n x m -> n x 1."""
    return np.add.reduce(m, axis=1, keepdims=True)


def col_sums(m: np.ndarray) -> np.ndarray:
    """Sum each column: n x m -> 1 x m."""
    return np.add.reduce(m, axis=0, keepdims=True)


def nmf_rank1(v: np.ndarray) -> tuple:
    """Closed-form rank-1 factorization (W, H) of a nonnegative matrix.

    W holds the row sums, H the column sums normalized by the grand total,
    so that W @ H is the rank-1 matrix closest to v in generalized KL
    divergence. Exact when v itself has rank 1. A NaN or infinite entry is
    rejected.
    """
    _require_finite_entries("nmf_rank1", v=v)
    if np.any(v < 0.0):
        raise ValueError("nmf_rank1 requires a nonnegative matrix")
    s = float(v.sum())
    if s <= 0.0:
        raise ValueError("nmf_rank1 requires a positive total sum")
    w = row_sums(v)
    h = col_sums(v) / s
    return w, h


def generalized_kl(v: np.ndarray, a: np.ndarray) -> float:
    """Generalized KL divergence sum(v log(v/a) - v + a), with 0 log 0 = 0.

    a must be entrywise positive, v entrywise nonnegative, and both finite.
    """
    if v.shape != a.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {a.shape}")
    _require_finite_entries("generalized_kl", v=v, a=a)
    if np.any(v < 0.0):
        raise ValueError("generalized_kl requires nonnegative v")
    if np.any(a <= 0.0):
        raise ValueError("generalized_kl requires strictly positive a")
    mask = v > 0.0
    log_term = float(np.sum(v[mask] * np.log(v[mask] / a[mask])))
    return log_term - float(v.sum()) + float(a.sum())


def factored_update(
    row: np.ndarray, col: np.ndarray, x: np.ndarray, decay: float, epsilon: float,
    scale: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold (scale x)^2 + epsilon, for any real n x m x, into the n x 1 and 1 x m factors.

    Returns the new (row, col): decay * row + (1 - decay) * (scale^2 sum_j
    x_ij^2 + m epsilon), and col likewise with n epsilon; row, col and x are
    not written. Each sum of squares is one read-only einsum pass in numpy's
    own loops, never BLAS, whose summation order follows its thread count. A NaN
    or infinite entry, or a square that overflows, reaches the factors for
    the caller's finiteness check. epsilon > 0 keeps both factors positive.
    """
    n, m = x.shape
    if row.shape != (n, 1) or col.shape != (1, m):
        raise ValueError(f"shape mismatch: factors {row.shape} and {col.shape}, input {x.shape}")
    # the sums are scaled in place on einsum's 1-D output and added into the
    # fresh decay * row: few numpy calls for small factors, few temporaries
    # for the step's memory peak, and new factors that own their data
    row_sq = np.einsum("ij,ij->i", x, x)
    if scale != 1.0:  # the sums of (scale x)^2 as scale^2 times those of x^2
        row_sq *= scale * scale
    row_sq += m * epsilon
    row_sq *= 1.0 - decay
    new_row = decay * row
    new_row += row_sq.reshape(n, 1)
    col_sq = np.einsum("ij,ij->j", x, x)
    if scale != 1.0:
        col_sq *= scale * scale
    col_sq += n * epsilon
    col_sq *= 1.0 - decay
    new_col = decay * col
    new_col += col_sq
    return new_row, new_col


def outer_quotient(r: np.ndarray, c: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Outer product of an n x 1 r and a 1 x m c: the n x m array of single products r_i * c_j.

    `factored_reconstruct` passes sqrt(sum(row)) / sqrt(row_i) and 1 / sqrt(col_j),
    so entry (i, j) is the quotient sqrt(sum(row) / (row_i * col_j)). The result
    goes into out when given, else into the only array it allocates: einsum,
    unlike the broadcast r * c, allocates no iteration buffer next to it.
    """
    # einsum broadcasts a size-1 axis, so unchecked it would take a 1 x 2 r
    if r.ndim != 2 or c.ndim != 2 or r.shape[1] != 1 or c.shape[0] != 1:
        raise ValueError(f"need an n x 1 r and a 1 x m c, got shapes {r.shape} and {c.shape}")
    return np.einsum("ik,kj->ij", r, c, out=out)


def factored_reconstruct(
    row: np.ndarray, col: np.ndarray, scale: float = 1.0, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Inverse square root of the rank-1 surrogate row * col / sum(row), as an n x m array.

    Entry (i, j) is scale / sqrt(row_i * col_j / sum(row)), built from the
    factors as scale sqrt(sum(row)) / sqrt(row_i) times 1 / sqrt(col_j): n + m
    square roots and one `outer_quotient` into out (or a fresh array), the
    only n x m write; the scale costs no pass. The surrogate itself is never
    formed. A factor with a zero (no updates yet), negative or NaN entry is
    rejected, and so is an infinite sum or a scaled inverse root that overflows.
    """
    # np.minimum propagates NaN, so a NaN entry fails the test too
    row_min = np.minimum.reduce(row, axis=None)
    col_min = np.minimum.reduce(col, axis=None)
    if not (row_min > 0.0 and col_min > 0.0):
        raise ValueError(
            "factored_reconstruct requires strictly positive factors; "
            "an accumulator that has seen only zeros needs epsilon > 0"
        )
    total_root = scale * math.sqrt(np.add.reduce(row, axis=None))
    # rounding is monotone, so the smallest factors give the largest entry, in
    # the same operations; sqrt(sum) / sqrt(row_i) also keeps a subnormal
    # row_i from overflowing a quotient before its root is taken
    if not total_root / math.sqrt(row_min) * (1.0 / math.sqrt(col_min)) < math.inf:
        raise ValueError("factored_reconstruct: a factor or the inverse root is not finite")
    # one array per side, each root and quotient taken in place: a third
    # vector here (a separate reciprocal) moved the minor page faults of a
    # 512 x 512 step, which follow the heap layout
    row_factor = np.sqrt(row)
    np.divide(total_root, row_factor, out=row_factor)
    col_factor = np.sqrt(col)
    np.reciprocal(col_factor, out=col_factor)
    return outer_quotient(row_factor, col_factor, out)


def full_update(
    acc: np.ndarray, x: np.ndarray, decay: float, epsilon: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Entrywise counterpart of factored_update: decay * acc + (1 - decay) * (x + epsilon).

    x is the already-squared input, nonnegative (a negative entry raises).
    acc is not written. x is scratch and holds (1 - decay) * (x + epsilon) on
    return. The result goes into out when given (an array of acc's shape that
    overlaps neither acc nor x), else into a fresh array.
    """
    if x.shape != acc.shape:
        raise ValueError(f"shape mismatch: accumulator {acc.shape}, input {x.shape}")
    if np.fmin.reduce(x, axis=None, initial=np.inf) < 0.0:  # np.any(x < 0.0)
        raise ValueError("full accumulators only accept nonnegative input")
    x += epsilon
    x *= 1.0 - decay
    new = np.multiply(decay, acc, out=out)
    new += x
    return new
