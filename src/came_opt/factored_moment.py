"""Rank-1 nonnegative factorization and the smoothed accumulators built on it.

The closed-form factorization of a nonnegative matrix V into a column factor
W = V 1 and a row factor H = 1^T V / 1^T V 1 minimizes the generalized
Kullback-Leibler divergence to V among all rank-1 nonnegative matrices. An
optimizer never stores V itself: it keeps exponential moving averages of the
row-sum and column-sum factors and reconstructs the rank-1 surrogate on
demand. The same machinery serves both the squared-gradient accumulator and
the instability accumulator, which differ only in decay and epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor import Matrix, col_sums, outer_quotient, row_sums


def _check_smoothing(decay: float, epsilon: float) -> None:
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must be in (0, 1), got {decay}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")


@dataclass(frozen=True)
class FactoredEMA:
    """Moving averages of the row-sum and column-sum factors of an n x m accumulator."""

    row_acc: Matrix  # n x 1
    col_acc: Matrix  # 1 x m
    decay: float
    epsilon: float
    step_count: int = 0

    def __post_init__(self):
        _check_smoothing(self.decay, self.epsilon)
        if self.row_acc.shape[1] != 1 or self.col_acc.shape[0] != 1:
            raise ValueError(
                f"factor shapes must be (n, 1) and (1, m), got "
                f"{self.row_acc.shape} and {self.col_acc.shape}"
            )

    @property
    def shape(self) -> tuple:
        return (self.row_acc.shape[0], self.col_acc.shape[1])

    @classmethod
    def fresh(cls, rows: int, cols: int, decay: float, epsilon: float) -> "FactoredEMA":
        return cls(
            row_acc=np.zeros((rows, 1)),
            col_acc=np.zeros((1, cols)),
            decay=decay,
            epsilon=epsilon,
        )


@dataclass(frozen=True)
class FullEMA:
    """Unfactored fallback accumulator for vector and scalar parameters."""

    acc: Matrix
    decay: float
    epsilon: float
    step_count: int = 0

    def __post_init__(self):
        _check_smoothing(self.decay, self.epsilon)

    @property
    def shape(self) -> tuple:
        return self.acc.shape

    @classmethod
    def fresh(cls, rows: int, cols: int, decay: float, epsilon: float) -> "FullEMA":
        return cls(acc=np.zeros((rows, cols)), decay=decay, epsilon=epsilon)


def nmf_rank1(v: Matrix) -> tuple:
    """Closed-form rank-1 factorization (W, H) of a nonnegative matrix.

    W holds the row sums, H the column sums normalized by the grand total,
    so that W @ H is the rank-1 matrix closest to v in generalized KL
    divergence. Exact when v itself has rank 1.
    """
    if np.any(v < 0.0):
        raise ValueError("nmf_rank1 requires a nonnegative matrix")
    s = float(v.sum())
    if s <= 0.0:
        raise ValueError("nmf_rank1 requires a positive total sum")
    w = row_sums(v)
    h = col_sums(v) / s
    return w, h


def generalized_kl(v: Matrix, a: Matrix) -> float:
    """Generalized KL divergence sum(v log(v/a) - v + a), with 0 log 0 = 0.

    a must be entrywise positive, v entrywise nonnegative.
    """
    if v.shape != a.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {a.shape}")
    if np.any(v < 0.0):
        raise ValueError("generalized_kl requires nonnegative v")
    if np.any(a <= 0.0):
        raise ValueError("generalized_kl requires strictly positive a")
    mask = v > 0.0
    log_term = float(np.sum(v[mask] * np.log(v[mask] / a[mask])))
    return log_term - float(v.sum()) + float(a.sum())


def factored_update(state: FactoredEMA, x: Matrix) -> FactoredEMA:
    """Fold a nonnegative matrix into the factor averages.

    epsilon is added to every entry of x before the row and column sums are
    taken, each step, which keeps both factors strictly positive whenever
    epsilon > 0.
    """
    if x.shape != state.shape:
        raise ValueError(f"shape mismatch: accumulator {state.shape}, input {x.shape}")
    if np.any(x < 0.0):
        raise ValueError("factored accumulators only accept nonnegative input")
    shifted = x + state.epsilon
    d = state.decay
    return replace(
        state,
        row_acc=d * state.row_acc + (1.0 - d) * row_sums(shifted),
        col_acc=d * state.col_acc + (1.0 - d) * col_sums(shifted),
        step_count=state.step_count + 1,
    )


def factored_reconstruct(state: FactoredEMA) -> Matrix:
    """Rank-1 reconstruction row_acc * col_acc / sum(row_acc)."""
    if state.step_count == 0:
        raise ValueError("cannot reconstruct from an accumulator with no updates")
    return outer_quotient(state.row_acc, state.col_acc)


def full_update(state: FullEMA, x: Matrix) -> FullEMA:
    """Entrywise counterpart of factored_update for unfactored accumulators."""
    if x.shape != state.shape:
        raise ValueError(f"shape mismatch: accumulator {state.shape}, input {x.shape}")
    if np.any(x < 0.0):
        raise ValueError("full accumulators only accept nonnegative input")
    d = state.decay
    shifted = x + state.epsilon
    shifted *= 1.0 - d
    acc = d * state.acc
    acc += shifted  # d * acc + (1 - d) * (x + epsilon), without a third temporary
    return replace(state, acc=acc, step_count=state.step_count + 1)


def full_reconstruct(state: FullEMA) -> Matrix:
    if state.step_count == 0:
        raise ValueError("cannot reconstruct from an accumulator with no updates")
    return state.acc
