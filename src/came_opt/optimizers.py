"""The optimizer family behind one stepping interface, `step_param`.

adafactor, came and raw_confidence share one update pipeline (fold g^2 into
the second moment, reconstruct it, normalize, RMS-clip, momentum) and differ
only in the denominator of the final step:

  adafactor       none: step lr * m
  came            sqrt of a factored average of the instability (u_hat - m)^2
  raw_confidence  sqrt((m - u_hat)^2 + eps3), the full unfactored residual

adam (classic bias-corrected first/second moments, the baseline) is a
separate short branch.

All parameters are 2-D float64 matrices; a logically 1-D parameter of n
entries is stored as an n x 1 column and uses unfactored accumulators, so
the memory claims of the factored variants survive the fallback. A step
either completes and advances the state exactly once, or raises and leaves
the state untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .factored_moment import (
    FactoredEMA,
    FullEMA,
    factored_reconstruct,
    factored_update,
    full_reconstruct,
    full_update,
)
from .tensor import Matrix, rms, storage_shape

VARIANTS = ("adafactor", "came", "adam", "raw_confidence")

Accumulator = Union[FactoredEMA, FullEMA]


class InvalidConfig(ValueError):
    """Hyperparameter validation failure, carrying the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass
class OptimizerConfig:
    """Scalar hyperparameters shared by all variants.

    beta3 and eps2 only matter for came; eps3 only for raw_confidence;
    adam_eps only for adam. came_residual_vs_prev switches the instability
    residual to (u_hat - m_prev)^2, i.e. against the momentum before it
    absorbs the current update; the default squares the residual against
    the already-updated momentum.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    beta3: float = 0.9999
    eps1: float = 1e-30
    eps2: float = 1e-16
    eps3: float = 1e-16
    clip_d: float = 1.0
    warmup_steps: int = 0
    adam_eps: float = 1e-8
    came_residual_vs_prev: bool = False

    def validate(self) -> "OptimizerConfig":
        if not self.lr > 0.0:
            raise InvalidConfig("lr", f"must be positive, got {self.lr}")
        for name in ("beta1", "beta2", "beta3"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise InvalidConfig(name, f"must be in (0, 1), got {value}")
        for name in ("eps1", "eps2", "eps3", "adam_eps"):
            value = getattr(self, name)
            if value < 0.0:
                raise InvalidConfig(name, f"must be nonnegative, got {value}")
        if not self.clip_d > 0.0:
            raise InvalidConfig("clip_d", f"must be positive, got {self.clip_d}")
        if self.warmup_steps < 0 or self.warmup_steps != int(self.warmup_steps):
            raise InvalidConfig(
                "warmup_steps", f"must be a nonnegative integer, got {self.warmup_steps}"
            )
        return self


@dataclass
class OptimizerState:
    """Per-parameter persistent state for one optimizer variant."""

    variant: str
    dims: Tuple[int, ...]  # logical parameter dims, length 1 or 2
    m: Matrix  # update momentum, parameter-shaped
    second_moment: Optional[Accumulator] = None
    instability: Optional[Accumulator] = None  # came only
    adam_v: Optional[Matrix] = None  # adam only
    t: int = 0


def make_state(variant: str, dims: Tuple[int, ...], cfg: OptimizerConfig) -> OptimizerState:
    """Zero-initialized state for one parameter of the given logical dims."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown optimizer {variant!r}, expected one of {VARIANTS}")
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"parameter dims must be positive, got {dims}")
    rows, cols = storage_shape(dims)
    factored = len(dims) == 2

    state = OptimizerState(variant=variant, dims=dims, m=np.zeros((rows, cols)))
    if variant == "adam":
        state.adam_v = np.zeros((rows, cols))
        return state

    if factored:
        state.second_moment = FactoredEMA.fresh(rows, cols, cfg.beta2, cfg.eps1)
    else:
        state.second_moment = FullEMA.fresh(rows, cols, cfg.beta2, cfg.eps1)
    if variant == "came":
        if factored:
            state.instability = FactoredEMA.fresh(rows, cols, cfg.beta3, cfg.eps2)
        else:
            state.instability = FullEMA.fresh(rows, cols, cfg.beta3, cfg.eps2)
    return state


def clip_by_rms(u: Matrix, d: float) -> Matrix:
    """Scale u down so its RMS never exceeds d: u / max(1, rms(u)/d)."""
    if d <= 0.0:
        raise ValueError(f"clip threshold must be positive, got {d}")
    return u / max(1.0, rms(u) / d)


def warmup_lr(t: int, cfg: OptimizerConfig) -> float:
    """Linearly ramped learning rate: lr * min(1, t / warmup_steps)."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if cfg.warmup_steps > 0:
        return cfg.lr * min(1.0, t / cfg.warmup_steps)
    return cfg.lr


def _acc_update(acc: Accumulator, x: Matrix) -> Accumulator:
    if isinstance(acc, FactoredEMA):
        return factored_update(acc, x)
    return full_update(acc, x)


def _acc_reconstruct(acc: Accumulator) -> Matrix:
    if isinstance(acc, FactoredEMA):
        return factored_reconstruct(acc)
    return full_reconstruct(acc)


def _require_positive(denom: Matrix, what: str) -> Matrix:
    # guaranteed by the epsilon floors; only reachable when they are set to 0
    if np.any(denom <= 0.0):
        raise ValueError(f"{what} has nonpositive entries; set its epsilon > 0")
    return denom


def step_param(theta: Matrix, g: Matrix, state: OptimizerState, cfg: OptimizerConfig) -> Matrix:
    """One step of the state's variant; returns the new theta.

    Every candidate value is computed before the state is touched, so a step
    that raises leaves the state as it was.
    """
    expected = storage_shape(state.dims)
    if theta.shape != expected or g.shape != expected:
        raise ValueError(
            f"shape mismatch: state expects {expected}, "
            f"got theta {theta.shape} and gradient {g.shape}"
        )
    t_next = state.t + 1
    lr = warmup_lr(t_next, cfg)

    if state.variant == "adam":
        m_new = cfg.beta1 * state.m + (1.0 - cfg.beta1) * g
        v_new = cfg.beta2 * state.adam_v + (1.0 - cfg.beta2) * np.square(g)
        m_hat = m_new / (1.0 - cfg.beta1**t_next)
        v_hat = v_new / (1.0 - cfg.beta2**t_next)
        theta_new = theta - lr * (m_hat / (np.sqrt(v_hat) + cfg.adam_eps))
        state.m, state.adam_v, state.t = m_new, v_new, t_next
        return theta_new

    # adafactor pipeline: fold g^2, reconstruct v, normalize, clip, momentum
    sm = _acc_update(state.second_moment, np.square(g))
    v = _require_positive(_acc_reconstruct(sm), "second-moment surrogate")
    u_hat = clip_by_rms(g / np.sqrt(v), cfg.clip_d)
    del v  # alive through the denominator, it would add n x m to the step peak
    m_new = cfg.beta1 * state.m + (1.0 - cfg.beta1) * u_hat

    instab = state.instability
    if state.variant == "came":
        m_ref = state.m if cfg.came_residual_vs_prev else m_new
        instab = _acc_update(instab, np.square(u_hat - m_ref))
        s = _require_positive(_acc_reconstruct(instab), "instability surrogate")
        theta_new = theta - lr * (m_new / np.sqrt(s))
    elif state.variant == "raw_confidence":
        residual = _require_positive(np.square(m_new - u_hat) + cfg.eps3, "confidence denominator")
        theta_new = theta - lr * (m_new / np.sqrt(residual))
    else:
        theta_new = theta - lr * m_new

    state.second_moment, state.instability, state.m, state.t = sm, instab, m_new, t_next
    return theta_new


def state_element_count(state: OptimizerState) -> int:
    """Number of persistent float64 slots this state actually stores."""
    count = state.m.size
    if state.adam_v is not None:
        count += state.adam_v.size
    for acc in (state.second_moment, state.instability):
        if acc is None:
            continue
        if isinstance(acc, FactoredEMA):
            count += acc.row_acc.size + acc.col_acc.size
        else:
            count += acc.acc.size
    return count
