"""The optimizer family behind one stepping interface, `step_param`.

adafactor, came and raw_confidence share one update pipeline (fold g^2 into
the second moment, normalize by its square root, RMS-clip, momentum in its
lerp form m + (1 - beta1) (u_hat - m), Algorithm 1's beta1 m + (1 - beta1)
u_hat rearranged) and differ only in the denominator of the final step:

  adafactor       none: step lr * m
  came            sqrt of a factored average of the instability (u_hat - m_new)^2,
                  Algorithm 1's residual against the already-updated momentum
  raw_confidence  sqrt((m - u_hat)^2 + eps3), the full unfactored residual

adam (classic bias-corrected first/second moments, the baseline) is a
separate short branch.

The layout rule lives here. `storage_shape` stores every parameter as a 2-D
float64 array, a logically 1-D one of n entries as an n x 1 column;
`state_shapes` factors the accumulators of a matrix whose dims both exceed 1
and keeps those of a vector (1-D, n x 1, 1 x m, 1 x 1) full. A step either
completes and advances the state exactly once, or raises and leaves the
state untouched; a gradient with a NaN or infinite entry raises.

A step owns its gradient: it works in g's array, returns the new theta
there, and writes neither theta nor the state. Its other n x m working
arrays come from the caller's `spare` list while it lasts and are allocated
otherwise; after committing, it appends the state arrays it retired, and
adam also its one working array. `runner.run` keeps such a list for
every parameter of at least 128 KiB, so a warm large step allocates no n x m
array, and glibc stops handing pages back to the kernel only to fault them
in again. Only the new theta and the new state's arrays outlive a step.

A factored accumulator folds the squares of g, or came's residual u_hat -
m_new = beta1 (u_hat - m), from read-only einsum sums, never writing them,
and divides in factor space: the step multiplies by the inverse root
sqrt(sum(row)) / sqrt(row_i) * (1 / sqrt(col_j)) (came's with lr in the
scalar) that `factored_reconstruct` builds, never forming the surrogate. The
clip's `rms` sums with einsum too, and it divides in place. No sum uses
BLAS, so no trajectory depends on the BLAS thread count. The factored path
is a few ulp per step from Algorithm 1's plain formulas, the full path only
through the clip's RMS sum, the lerp and the residual; adam is bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .factored_moment import factored_reconstruct, factored_update, full_update

VARIANTS = ("adafactor", "came", "adam", "raw_confidence")
ADAM_EPS = 1e-8  # adam's denominator floor: m_hat / (sqrt(v_hat) + ADAM_EPS)


class InvalidConfig(ValueError):
    """Hyperparameter validation failure, carrying the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


def require_integer(field_name: str, value, low: int) -> None:
    """Raise InvalidConfig(field_name) unless value is a whole number >= low (not NaN or inf)."""
    if not (low <= value < math.inf and value == int(value)):
        raise InvalidConfig(field_name, f"must be an integer >= {low}, got {value}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Scalar hyperparameters shared by all variants, checked when built.

    beta3 and eps2 only matter for came; eps3 only for raw_confidence;
    adam's floor is the constant ADAM_EPS.

    Building one, also through `dataclasses.replace`, raises InvalidConfig
    naming the first out-of-range or non-finite field; clip_d = inf is
    allowed and means never clip.
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

    def __post_init__(self) -> None:
        # every comparison is False for NaN, so each check also rejects it
        if not 0.0 < self.lr < math.inf:
            raise InvalidConfig("lr", f"must be positive and finite, got {self.lr}")
        for name in ("beta1", "beta2", "beta3"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise InvalidConfig(name, f"must be in (0, 1), got {value}")
        for name in ("eps1", "eps2", "eps3"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise InvalidConfig(name, f"must be nonnegative and finite, got {value}")
        if not self.clip_d > 0.0:
            raise InvalidConfig("clip_d", f"must be positive, got {self.clip_d}")
        require_integer("warmup_steps", self.warmup_steps, 0)


def storage_shape(dims: Tuple[int, ...]) -> Tuple[int, int]:
    """Map logical dims to the 2-D storage shape (1-D becomes a column)."""
    if len(dims) not in (1, 2):
        raise ValueError(f"parameters must be 1-D or 2-D, got dims {dims}")
    return (dims[0], dims[1] if len(dims) == 2 else 1)


def state_shapes(variant: str, dims: Tuple[int, ...]) -> Dict[str, Tuple[int, int]]:
    """The persistent state one parameter of logical dims needs: field -> storage shape.

    The only place the layout rule lives: `make_state` allocates these
    arrays, and `memory_model` and the runner count them. Every variant keeps
    a parameter-shaped momentum `m`. adam keeps a parameter-shaped second
    moment `v`. adafactor and raw_confidence keep the second moment, and came
    also its instability average `s`, factored (`*_row` n x 1, `*_col` 1 x m)
    when n and m both exceed 1, and else full: a vector's factored averages
    rebuild its full average exactly (for n x 1, c_1 = sum_i r_i), in more entries.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown optimizer {variant!r}, expected one of {VARIANTS}")
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"parameter dims must be positive, got {dims}")
    rows, cols = storage_shape(dims)
    shapes = {"m": (rows, cols)}
    if variant == "adam":
        shapes["v"] = (rows, cols)
        return shapes
    for name in ("v", "s") if variant == "came" else ("v",):
        if rows > 1 and cols > 1:
            shapes[name + "_row"], shapes[name + "_col"] = (rows, 1), (1, cols)
        else:
            shapes[name] = (rows, cols)
    return shapes


@dataclass
class OptimizerState:
    """Per-parameter persistent state: the arrays `state_shapes` lays out, and the step count.

    A field the variant's layout leaves out stays None. In the paper's
    Algorithm 1, v_row/v_col are r_t/c_t and s_row/s_col are R_t/C_t; decay
    and epsilon of each average come from the OptimizerConfig of the step.
    """

    variant: str
    dims: Tuple[int, ...]  # logical parameter dims, length 1 or 2
    m: np.ndarray  # update momentum, parameter-shaped
    v: Optional[np.ndarray] = None  # full second moment: adam, or a vector
    v_row: Optional[np.ndarray] = None  # factored second moment of a matrix
    v_col: Optional[np.ndarray] = None
    s: Optional[np.ndarray] = None  # came's instability average, full (vector)
    s_row: Optional[np.ndarray] = None  # ... or factored (matrix)
    s_col: Optional[np.ndarray] = None
    t: int = 0


def make_state(variant: str, dims: Tuple[int, ...], cfg: OptimizerConfig) -> OptimizerState:
    """Zero-initialized state for one parameter of the given logical dims.

    The state does not depend on cfg, which checked itself when it was built.
    """
    dims = tuple(int(d) for d in dims)
    arrays = {name: np.zeros(shape) for name, shape in state_shapes(variant, dims).items()}
    return OptimizerState(variant=variant, dims=dims, **arrays)


def rms(m: np.ndarray) -> float:
    """Root mean square of all entries of a 2-D array, summed by one read-only einsum pass.

    numpy's own loops, not BLAS, so no BLAS thread count changes the result;
    it is within 2 ulp of sqrt(mean(square(m))).
    """
    return math.sqrt(np.einsum("ij,ij->", m, m) / m.size)


def clip_by_rms(u: np.ndarray, d: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Scale u down so its RMS never exceeds d: u / max(1, rms(u)/d).

    The result goes into out when given (an array of u's shape, or u itself
    to clip in place), else into a fresh array; rms only reads u.
    """
    if not d > 0.0:  # also rejects NaN
        raise ValueError(f"clip threshold must be positive, got {d}")
    return np.divide(u, max(1.0, rms(u) / d), out=out)


def warmup_lr(t: int, cfg: OptimizerConfig) -> float:
    """Linearly ramped learning rate: lr * min(1, t / warmup_steps)."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if cfg.warmup_steps > 0:
        return cfg.lr * min(1.0, t / cfg.warmup_steps)
    return cfg.lr


def _require_positive(denom: np.ndarray, what: str) -> np.ndarray:
    # guaranteed by the epsilon floors; only reachable when they are set to 0.
    # denom.min() without its Python wrapper: NaN propagates and is rejected
    if not np.minimum.reduce(denom, axis=None) > 0.0:
        raise ValueError(f"{what} has nonpositive entries; set its epsilon > 0")
    return denom


def _require_finite(*arrays: np.ndarray) -> None:
    # each array is a nonnegative sum or moving average of g^2: finite exactly
    # when every gradient entry is finite and its square does not overflow, and
    # its max, which propagates NaN, is finite exactly when all entries are
    for a in arrays:
        if not math.isfinite(np.maximum.reduce(a, axis=None)):
            raise ValueError(
                "gradient has non-finite entries (NaN, inf, or a square that overflows)"
            )


def _check_spare(spare: List[np.ndarray], shape: Tuple[int, int], held: List[np.ndarray]) -> None:
    # a spare may overlap neither what the step reads nor another spare
    for a in spare:
        if a.shape != shape or a.dtype != np.float64 or not a.flags.c_contiguous:
            raise ValueError(
                f"spare arrays must be C-contiguous float64 of shape {shape}, "
                f"got {a.dtype} {a.shape}"
            )
        if any(np.may_share_memory(a, b) for b in held):
            raise ValueError("spare: an array may overlap theta, g, the state or another spare")
        held.append(a)


def _reuse(spare: Optional[List[np.ndarray]]) -> Optional[np.ndarray]:
    # the caller's last spare array, or None: the ufunc then allocates the result
    return spare.pop() if spare else None


def step_param(
    theta: np.ndarray,
    g: np.ndarray,
    state: OptimizerState,
    cfg: OptimizerConfig,
    spare: Optional[List[np.ndarray]] = None,
) -> np.ndarray:
    """One step of the state's variant; returns the new theta, in g's array.

    Ownership: the step takes g, works in it and writes the new theta there;
    theta and every array the state held before the call are never written.
    g must be writable, of theta's dtype and overlap neither theta nor the
    state; anything else raises ValueError naming g before any work. spare
    is an optional list of arrays the caller gives up, each C-contiguous
    float64 of the parameter's shape and overlapping none of theta, g, the
    state and each other; anything else raises ValueError naming spare
    before any work. Every other parameter-shaped array the step writes is
    taken from the end of spare while it lasts and allocated otherwise;
    once the step has committed, it appends the arrays it retired (the old
    momentum, and the old full accumulators of adam or of a vector)
    and adam's one working array, so a warm step leaves the list as long as
    it found it and allocates no large array. The lerp momentum keeps u_hat
    in g, so a warm factored step takes a single spare, for the new momentum.
    Every check on the gradient runs before g is first written, so a
    non-finite gradient leaves theta, g and the state untouched. A step
    that raises later (a zero epsilon's nonpositive instability or
    confidence denominator) leaves theta and the state untouched and g
    holding a working value. A step that raises may have used up spares.
    """
    shape = state.m.shape
    if theta.shape != shape or g.shape != shape:
        raise ValueError(
            f"shape mismatch: state expects {shape}, "
            f"got theta {theta.shape} and gradient {g.shape}"
        )
    # the parameter-shaped arrays a committed step replaces; the factors are small
    retired = (state.m, state.v, state.s)
    held = (theta, *retired, state.v_row, state.v_col, state.s_row, state.s_col)
    # the step writes g, so g may overlap nothing it reads
    if not g.flags.writeable or g.dtype != theta.dtype or any(
        a is not None and np.may_share_memory(g, a) for a in held
    ):
        raise ValueError("g: must be writable, of theta's dtype and overlap neither theta nor state")
    if spare:
        _check_spare(spare, shape, [a for a in (g, *held) if a is not None])
    t_next = state.t + 1
    lr = warmup_lr(t_next, cfg)

    if state.variant == "adam":
        # the second moment first, so its check runs before g is written
        buf = np.square(g, out=_reuse(spare))
        buf *= 1.0 - cfg.beta2
        v_new = np.multiply(cfg.beta2, state.v, out=_reuse(spare))
        v_new += buf
        _require_finite(v_new)
        m_new = np.multiply(cfg.beta1, state.m, out=buf)
        g *= 1.0 - cfg.beta1
        m_new += g
        np.divide(m_new, 1.0 - cfg.beta1**t_next, out=g)  # m_hat
        root = np.divide(v_new, 1.0 - cfg.beta2**t_next, out=_reuse(spare))  # v_hat
        np.sqrt(root, out=root)
        root += ADAM_EPS
        g /= root
        g *= lr
        theta_new = np.subtract(theta, g, out=g)
        state.m, state.v, state.t = m_new, v_new, t_next
        if spare is not None:
            spare += [a for a in (root, *retired) if a is not None]
        return theta_new

    # adafactor pipeline: fold g^2, normalize by sqrt(v), clip, momentum.
    # scratch holds the inverse root (or g^2, then sqrt(v), on the full path)
    # and then the new momentum; g holds u_hat, clipped in place, then the update
    v, v_row, v_col = state.v, state.v_row, state.v_col
    if v is None:  # factored
        v_row, v_col = factored_update(v_row, v_col, g, cfg.beta2, cfg.eps1)
        _require_finite(v_row, v_col)
        # g / sqrt(V) as g * (1 / sqrt(V))
        scratch = factored_reconstruct(v_row, v_col, out=_reuse(spare))
        np.multiply(g, scratch, out=g)
    else:
        scratch = np.square(g, out=_reuse(spare))
        v = full_update(v, scratch, cfg.beta2, cfg.eps1, out=_reuse(spare))
        _require_finite(v)
        np.sqrt(_require_positive(v, "second-moment surrogate"), out=scratch)
        np.divide(g, scratch, out=g)
    clip_by_rms(g, cfg.clip_d, out=g)
    # the momentum in its lerp form m + (1 - beta1) d, d = u_hat - m, built in
    # scratch; came first folds its residual from d, as u_hat - m_new = beta1 d
    d = np.subtract(g, state.m, out=scratch)
    s, s_row, s_col = state.s, state.s_row, state.s_col
    if state.variant == "came":
        if s is None:  # factored
            s_row, s_col = factored_update(s_row, s_col, d, cfg.beta3, cfg.eps2, cfg.beta1)
        else:  # (beta1 d)^2 in g, the new s in a spare or fresh array
            np.square(np.multiply(d, cfg.beta1, out=g), out=g)
            s = full_update(s, g, cfg.beta3, cfg.eps2, out=_reuse(spare))
    m_new = d
    m_new *= 1.0 - cfg.beta1
    m_new += state.m

    if state.variant == "adafactor":
        np.multiply(m_new, lr, out=g)
    elif state.variant == "came" and s is None:  # lr m / sqrt(S) as m * (lr / sqrt(S))
        factored_reconstruct(s_row, s_col, lr, out=g)
        g *= m_new
    else:
        if state.variant == "came":
            np.sqrt(_require_positive(s, "instability surrogate"), out=g)
        else:  # raw_confidence
            np.subtract(m_new, g, out=g)
            np.square(g, out=g)
            g += cfg.eps3
            _require_positive(g, "confidence denominator")
            np.sqrt(g, out=g)
        np.divide(m_new, g, out=g)
        g *= lr
    theta_new = np.subtract(theta, g, out=g)

    state.v, state.v_row, state.v_col = v, v_row, v_col
    state.s, state.s_row, state.s_col = s, s_row, s_col
    state.m, state.t = m_new, t_next
    if spare is not None:
        spare += [a for a in retired if a is not None]
    return theta_new
