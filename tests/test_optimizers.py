import math
import tracemalloc

import numpy as np
import pytest

from came_opt.factored_moment import FactoredEMA, FullEMA, factored_reconstruct
from came_opt.memory_model import state_elements
from came_opt.optimizers import (
    VARIANTS,
    InvalidConfig,
    OptimizerConfig,
    clip_by_rms,
    make_state,
    state_element_count,
    step_param,
    warmup_lr,
)
from came_opt.tensor import rms, storage_shape


def scalar_theta(x=1.0):
    return np.array([[float(x)]])


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = OptimizerConfig()
    assert (cfg.beta1, cfg.beta2, cfg.beta3) == (0.9, 0.999, 0.9999)
    assert (cfg.eps1, cfg.eps2) == (1e-30, 1e-16)
    assert cfg.clip_d == 1.0
    assert cfg.warmup_steps == 0
    cfg.validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("lr", 0.0),
        ("lr", -1.0),
        ("beta1", 1.0),
        ("beta2", 0.0),
        ("beta3", 1.2),
        ("eps1", -1e-9),
        ("eps2", -1.0),
        ("eps3", -1.0),
        ("clip_d", 0.0),
        ("warmup_steps", -1),
        ("adam_eps", -1e-8),
    ],
)
def test_config_validation_reports_field(field, value):
    cfg = OptimizerConfig(**{field: value})
    with pytest.raises(InvalidConfig) as err:
        cfg.validate()
    assert err.value.field == field


# ---------------------------------------------------------------------------
# clip and warmup
# ---------------------------------------------------------------------------


def test_clip_noop_below_threshold():
    u = np.array([[0.5, -0.5], [0.5, 0.5]])  # rms 0.5 exactly
    assert rms(u) == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_array_equal(clip_by_rms(u, 1.0), u)


def test_clip_scales_large_update_to_threshold():
    u = np.array([[31.6227766]])
    np.testing.assert_array_equal(clip_by_rms(u, 1.0), np.array([[1.0]]))


def test_clip_zero_matrix():
    z = np.zeros((3, 2))
    np.testing.assert_array_equal(clip_by_rms(z, 2.5), z)


def test_clip_bound_property():
    rng = np.random.Generator(np.random.PCG64(21))
    for _ in range(100):
        u = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9))) * rng.uniform(0.01, 50)
        d = float(rng.uniform(0.1, 5.0))
        clipped = clip_by_rms(u, d)
        assert rms(clipped) <= max(d, rms(u)) * (1 + 1e-12)
        if rms(u) >= d:
            assert rms(clipped) <= d * (1 + 1e-12)
        else:
            np.testing.assert_array_equal(clipped, u)


def test_warmup_disabled_and_ramp():
    assert warmup_lr(1, OptimizerConfig(lr=1e-3)) == 1e-3
    cfg = OptimizerConfig(lr=1e-3, warmup_steps=10)
    assert warmup_lr(5, cfg) == pytest.approx(5e-4, rel=1e-15)
    assert warmup_lr(10, cfg) == 1e-3
    assert warmup_lr(1000, cfg) == 1e-3
    with pytest.raises(ValueError):
        warmup_lr(0, cfg)


# ---------------------------------------------------------------------------
# single-step worked examples (scalar parameter, defaults)
# ---------------------------------------------------------------------------


def test_adafactor_scalar_first_step():
    cfg = OptimizerConfig()
    state = make_state("adafactor", (1, 1), cfg)
    theta = step_param(scalar_theta(1.0), scalar_theta(2.0), state, cfg)
    assert theta[0, 0] == pytest.approx(0.9999, abs=1e-9)
    assert state.t == 1
    assert state.m[0, 0] == pytest.approx(0.1, abs=1e-9)


def test_came_scalar_first_step():
    cfg = OptimizerConfig()
    state = make_state("came", (1, 1), cfg)
    theta = step_param(scalar_theta(1.0), scalar_theta(2.0), state, cfg)
    assert theta[0, 0] == pytest.approx(1.0 - 1.0 / 90.0, abs=1e-9)


def test_raw_confidence_scalar_first_step():
    cfg = OptimizerConfig()
    state = make_state("raw_confidence", (1, 1), cfg)
    theta = step_param(scalar_theta(1.0), scalar_theta(2.0), state, cfg)
    assert theta[0, 0] == pytest.approx(1.0 - 1.0 / 9000.0, abs=1e-9)


def test_adam_scalar_first_step():
    cfg = OptimizerConfig()
    state = make_state("adam", (1, 1), cfg)
    theta = step_param(scalar_theta(1.0), scalar_theta(2.0), state, cfg)
    # bias correction cancels at t=1: update = lr * 2 / (2 + adam_eps)
    assert theta[0, 0] == pytest.approx(1.0 - 1e-3 * 2.0 / (2.0 + 1e-8), rel=1e-12)


def test_zero_gradient_leaves_theta_unchanged():
    cfg = OptimizerConfig()
    theta0 = np.full((3, 2), 0.5)
    for variant in ("adafactor", "came", "adam", "raw_confidence"):
        state = make_state(variant, (3, 2), cfg)
        theta = step_param(theta0, np.zeros((3, 2)), state, cfg)
        np.testing.assert_array_equal(theta, theta0)
        assert state.t == 1


def test_adam_zero_gradient_forever():
    cfg = OptimizerConfig()
    state = make_state("adam", (2,), cfg)
    theta = np.array([[1.0], [2.0]])
    for _ in range(20):
        theta = step_param(theta, np.zeros((2, 1)), state, cfg)
    np.testing.assert_array_equal(theta, np.array([[1.0], [2.0]]))


# ---------------------------------------------------------------------------
# scale invariance
# ---------------------------------------------------------------------------


def test_adafactor_gradient_scale_invariance():
    # with eps1 = 0 the update u = g / sqrt(EMA(g^2)) ignores gradient scale
    cfg = OptimizerConfig(eps1=0.0)
    rng = np.random.Generator(np.random.PCG64(22))
    grads = [
        rng.uniform(0.5, 1.5, size=(3, 3)) * rng.choice([-1.0, 1.0], size=(3, 3))
        for _ in range(40)
    ]
    state_a = make_state("adafactor", (3, 3), cfg)
    state_b = make_state("adafactor", (3, 3), cfg)
    theta_a = np.ones((3, 3))
    theta_b = np.ones((3, 3))
    for g in grads:
        theta_a = step_param(theta_a, g, state_a, cfg)
        theta_b = step_param(theta_b, 10.0 * g, state_b, cfg)
        np.testing.assert_allclose(theta_b, theta_a, rtol=1e-10, atol=1e-13)


def test_adam_scale_free_first_step():
    cfg = OptimizerConfig(adam_eps=0.0)
    for g_value in (0.01, 2.0, 1e4):
        state = make_state("adam", (1, 1), cfg)
        theta = step_param(scalar_theta(0.0), scalar_theta(g_value), state, cfg)
        assert abs(theta[0, 0]) == pytest.approx(cfg.lr, rel=1e-12)


# ---------------------------------------------------------------------------
# pipeline sharing and the confidence denominator
# ---------------------------------------------------------------------------


def test_came_and_adafactor_share_pipeline_bitwise():
    cfg = OptimizerConfig()
    rng = np.random.Generator(np.random.PCG64(23))
    state_a = make_state("adafactor", (4, 5), cfg)
    state_c = make_state("came", (4, 5), cfg)
    theta_a = np.zeros((4, 5))
    theta_c = np.zeros((4, 5))
    for _ in range(50):
        g = rng.standard_normal((4, 5))
        theta_a = step_param(theta_a, g, state_a, cfg)
        theta_c = step_param(theta_c, g, state_c, cfg)
        assert np.array_equal(state_a.m, state_c.m)
        assert np.array_equal(state_a.second_moment.row_acc, state_c.second_moment.row_acc)
        assert np.array_equal(state_a.second_moment.col_acc, state_c.second_moment.col_acc)
    assert not np.array_equal(theta_a, theta_c)


def test_came_residual_uses_updated_momentum_by_default():
    # first step from zero state: U = (u_hat - m1)^2 = (0.9 u_hat)^2
    cfg = OptimizerConfig()
    state = make_state("came", (1, 1), cfg)
    step_param(scalar_theta(1.0), scalar_theta(2.0), state, cfg)
    expected = (1.0 - cfg.beta3) * ((0.9 * 1.0) ** 2 + cfg.eps2)
    assert factored_reconstruct(state.instability)[0, 0] == pytest.approx(expected, rel=1e-12)


def test_came_residual_vs_prev_flag():
    # opt-in: U = (u_hat - m_{t-1})^2, so the first step squares u_hat itself
    cfg = OptimizerConfig(came_residual_vs_prev=True)
    state = make_state("came", (1, 1), cfg)
    step_param(scalar_theta(1.0), scalar_theta(2.0), state, cfg)
    expected = (1.0 - cfg.beta3) * (1.0**2 + cfg.eps2)
    assert factored_reconstruct(state.instability)[0, 0] == pytest.approx(expected, rel=1e-12)


def test_came_sign_property_on_scalars():
    cfg = OptimizerConfig()
    state = make_state("came", (1, 1), cfg)
    rng = np.random.Generator(np.random.PCG64(24))
    theta = scalar_theta(0.0)
    for _ in range(60):
        g = scalar_theta(rng.standard_normal())
        new_theta = step_param(theta, g, state, cfg)
        if state.m[0, 0] != 0.0:
            assert math.copysign(1.0, theta[0, 0] - new_theta[0, 0]) == math.copysign(
                1.0, state.m[0, 0]
            )
        theta = new_theta


def test_raw_confidence_converges_to_eps_floor():
    # constant gradient: u_hat locks at 1, m -> 1, so the step tends to m/sqrt(eps3)
    cfg = OptimizerConfig(eps1=0.0)
    state = make_state("raw_confidence", (1, 1), cfg)
    theta = scalar_theta(0.0)
    for _ in range(300):
        prev = theta
        theta = step_param(theta, scalar_theta(3.0), state, cfg)
    step_size = float(prev[0, 0] - theta[0, 0])
    expected = cfg.lr * state.m[0, 0] / math.sqrt(cfg.eps3)
    assert step_size == pytest.approx(expected, rel=1e-6)


# ---------------------------------------------------------------------------
# positivity / no division by zero
# ---------------------------------------------------------------------------


def test_accumulators_stay_positive_with_sparse_gradients():
    cfg = OptimizerConfig()
    rng = np.random.Generator(np.random.PCG64(25))
    for dims in ((4, 6), (5,)):
        state = make_state("came", dims, cfg)
        shape = (dims[0], 1) if len(dims) == 1 else dims
        theta = np.zeros(shape)
        for i in range(40):
            g = rng.standard_normal(shape)
            g[rng.uniform(size=shape) < 0.7] = 0.0
            if i % 7 == 0:
                g = np.zeros(shape)
            theta = step_param(theta, g, state, cfg)
            v = (
                factored_reconstruct(state.second_moment)
                if isinstance(state.second_moment, FactoredEMA)
                else state.second_moment.acc
            )
            s = (
                factored_reconstruct(state.instability)
                if isinstance(state.instability, FactoredEMA)
                else state.instability.acc
            )
            assert np.all(v > 0.0) and np.all(s > 0.0)
            assert np.all(np.isfinite(theta))


# ---------------------------------------------------------------------------
# scalar oracle equivalence
# ---------------------------------------------------------------------------


def reference_scalar_adafactor(theta0, grads, cfg):
    """Unfactored plain-float transcription of the memory-efficient step."""
    v = 0.0
    m = 0.0
    theta = float(theta0)
    out = []
    for t, g in enumerate(grads, start=1):
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g + cfg.eps1)
        u = g / math.sqrt(v)
        u_hat = u / max(1.0, abs(u) / cfg.clip_d)
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * u_hat
        lr = cfg.lr * min(1.0, t / cfg.warmup_steps) if cfg.warmup_steps else cfg.lr
        theta -= lr * m
        out.append(theta)
    return out


def test_factored_adafactor_matches_scalar_reference():
    cfg = OptimizerConfig(warmup_steps=10)
    rng = np.random.Generator(np.random.PCG64(26))
    grads = [float(g) for g in rng.standard_normal(100) * 3.0]
    expected = reference_scalar_adafactor(0.7, grads, cfg)
    state = make_state("adafactor", (1, 1), cfg)
    theta = scalar_theta(0.7)
    for g, ref in zip(grads, expected):
        theta = step_param(theta, scalar_theta(g), state, cfg)
        assert theta[0, 0] == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# state management
# ---------------------------------------------------------------------------


def test_make_state_accumulator_kinds():
    cfg = OptimizerConfig()
    two_d = make_state("came", (3, 4), cfg)
    assert isinstance(two_d.second_moment, FactoredEMA)
    assert isinstance(two_d.instability, FactoredEMA)
    one_d = make_state("came", (5,), cfg)
    assert isinstance(one_d.second_moment, FullEMA)
    assert isinstance(one_d.instability, FullEMA)
    adam = make_state("adam", (3, 4), cfg)
    assert adam.second_moment is None and adam.adam_v is not None


def test_make_state_rejects_bad_inputs():
    cfg = OptimizerConfig()
    with pytest.raises(ValueError, match="unknown optimizer"):
        make_state("sgd", (2, 2), cfg)
    with pytest.raises(ValueError):
        make_state("came", (2, 2, 2), cfg)
    with pytest.raises(ValueError):
        make_state("came", (0,), cfg)


def test_step_shape_and_variant_validation():
    cfg = OptimizerConfig()
    state = make_state("came", (2, 2), cfg)
    with pytest.raises(ValueError, match="shape mismatch"):
        step_param(np.zeros((2, 2)), np.zeros((2, 3)), state, cfg)


def test_failed_step_leaves_state_untouched():
    cfg = OptimizerConfig(eps1=0.0)
    state = make_state("adafactor", (2, 2), cfg)
    # a first step with zero gradient and eps1=0 fails inside reconstruction
    # (zero row sums), after the candidate accumulator exists but before commit
    with pytest.raises(ValueError):
        step_param(np.ones((2, 2)), np.zeros((2, 2)), state, cfg)
    assert state.t == 0
    assert state.second_moment.step_count == 0
    assert np.all(state.m == 0.0)

    theta = step_param(np.ones((2, 2)), np.ones((2, 2)), state, cfg)
    t_before = state.t
    m_before = state.m.copy()
    sm_before = state.second_moment
    # shape error on a live state is caught before any work
    with pytest.raises(ValueError):
        step_param(theta, np.zeros((3, 3)), state, cfg)
    assert state.t == t_before
    assert state.second_moment is sm_before
    np.testing.assert_array_equal(state.m, m_before)


def test_unfactored_path_rejects_zero_denominator():
    # 1-D parameters use the full accumulator; with eps1=0 a first zero
    # gradient must fail loudly instead of producing 0/0
    cfg = OptimizerConfig(eps1=0.0)
    state = make_state("adafactor", (3,), cfg)
    with pytest.raises(ValueError, match="nonpositive"):
        step_param(np.zeros((3, 1)), np.zeros((3, 1)), state, cfg)
    assert state.t == 0


def test_came_zero_eps2_rejected_at_use():
    cfg = OptimizerConfig(eps2=0.0)
    state = make_state("came", (2,), cfg)
    # zero gradient makes the residual exactly zero; without eps2 that is an error
    with pytest.raises(ValueError, match="nonpositive"):
        step_param(np.zeros((2, 1)), np.zeros((2, 1)), state, cfg)


def test_deterministic_trajectories():
    cfg = OptimizerConfig()
    rng_seed = 27
    results = []
    for _ in range(2):
        rng = np.random.Generator(np.random.PCG64(rng_seed))
        state = make_state("came", (3, 3), cfg)
        theta = np.zeros((3, 3))
        for _ in range(30):
            theta = step_param(theta, rng.standard_normal((3, 3)), state, cfg)
        results.append(theta)
    assert np.array_equal(results[0], results[1])


@pytest.mark.parametrize("dims", [(8, 16), (7,), (1, 1), (5, 1)])
@pytest.mark.parametrize("variant", ["adafactor", "came", "adam"])
def test_state_element_count_matches_memory_model(variant, dims):
    state = make_state(variant, dims, OptimizerConfig())
    assert state_element_count(state) == state_elements(variant, dims)


# Peak of one warm step, in n x m float64 arrays, per variant: (256 x 256 matrix,
# 65536-entry column). A 1-D parameter keeps its unfactored accumulators as
# fresh n x 1 arrays, so the column needs more than the matrix.
STEP_PEAK_ARRAYS = {
    "adafactor": (2, 3),
    "came": (3, 5),
    "raw_confidence": (3, 4),
    "adam": (4, 4),
}


@pytest.mark.parametrize("dims", [(256, 256), (65536,)], ids=["matrix", "column"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_step_transient_memory(variant, dims):
    # tracemalloc peak of one warm step, counted in n x m float64 arrays; the
    # extra 0.03 covers factor vectors, scalars and headers
    shape = storage_shape(dims)
    nm = shape[0] * shape[1]
    full_arrays = STEP_PEAK_ARRAYS[variant][len(dims) == 1]
    cfg = OptimizerConfig()
    rng = np.random.Generator(np.random.PCG64(28))
    state = make_state(variant, dims, cfg)
    theta = rng.standard_normal(shape)
    for _ in range(2):
        theta = step_param(theta, rng.standard_normal(shape), state, cfg)
    g = rng.standard_normal(shape)
    tracemalloc.start()
    try:
        step_param(theta, g, state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (full_arrays + 0.03) * nm * 8


# ---------------------------------------------------------------------------
# non-finite gradients, aliasing, and bitwise agreement with a plain transcription
# ---------------------------------------------------------------------------


def state_arrays(state):
    """Every array the state holds: momentum, adam_v, and accumulator arrays."""
    arrays = [state.m]
    if state.adam_v is not None:
        arrays.append(state.adam_v)
    for acc in (state.second_moment, state.instability):
        if isinstance(acc, FactoredEMA):
            arrays += [acc.row_acc, acc.col_acc]
        elif isinstance(acc, FullEMA):
            arrays.append(acc.acc)
    return arrays


def warm_state(variant, dims, cfg, seed, steps=3):
    shape = storage_shape(dims)
    rng = np.random.Generator(np.random.PCG64(seed))
    state = make_state(variant, dims, cfg)
    theta = rng.standard_normal(shape)
    for _ in range(steps):
        theta = step_param(theta, rng.standard_normal(shape), state, cfg)
    return state, theta, rng.standard_normal(shape)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("dims", [(6, 5), (7,)], ids=["matrix", "column"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_gradient_rejected_before_any_state_change(variant, dims, bad):
    cfg = OptimizerConfig()
    state, theta, g = warm_state(variant, dims, cfg, seed=29)
    g[1, 0] = bad
    t_before = state.t
    held = state_arrays(state)
    snapshots = [a.copy() for a in held]
    accumulators = (state.second_moment, state.instability)
    with pytest.raises(ValueError, match="non-finite"):
        step_param(theta, g, state, cfg)
    assert state.t == t_before
    assert state.second_moment is accumulators[0] and state.instability is accumulators[1]
    for now, before in zip(state_arrays(state), snapshots):
        assert np.array_equal(now, before)
    assert all(now is was for now, was in zip(state_arrays(state), held))


@pytest.mark.parametrize("residual_vs_prev", [False, True])
@pytest.mark.parametrize("dims", [(32, 48), (40,)], ids=["matrix", "column"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_step_writes_no_input_and_returns_fresh_arrays(variant, dims, residual_vs_prev):
    cfg = OptimizerConfig(came_residual_vs_prev=residual_vs_prev)
    state, theta, g = warm_state(variant, dims, cfg, seed=30)
    inputs = [theta, g] + state_arrays(state)
    snapshots = [a.copy() for a in inputs]
    theta_new = step_param(theta, g, state, cfg)
    for array, before in zip(inputs, snapshots):
        assert np.array_equal(array, before)
    for fresh in [theta_new] + state_arrays(state):
        assert not any(np.shares_memory(fresh, old) for old in inputs)
    assert not np.shares_memory(theta_new, state.m)


def _ref_fold(acc, x):
    """Parent-style allocating accumulator update: returns (new acc, reconstruction)."""
    kind, d, eps, arrays = acc
    if kind == "factored":
        row, col = arrays
        shifted = x + eps
        row = d * row + (1.0 - d) * shifted.sum(axis=1, keepdims=True)
        col = d * col + (1.0 - d) * shifted.sum(axis=0, keepdims=True)
        return (kind, d, eps, (row, col)), (row @ col) / float(row.sum())
    (full,) = arrays
    full = d * full + (1.0 - d) * (x + eps)
    return (kind, d, eps, (full,)), full


def _ref_acc(dims, decay, eps):
    rows, cols = storage_shape(dims)
    if len(dims) == 2:
        return ("factored", decay, eps, (np.zeros((rows, 1)), np.zeros((1, cols))))
    return ("full", decay, eps, (np.zeros((rows, cols)),))


def reference_step(variant, theta, g, ref, cfg):
    """Plain allocating transcription of the step's expressions, in their order."""
    t = ref["t"] + 1
    lr = cfg.lr * min(1.0, t / cfg.warmup_steps) if cfg.warmup_steps else cfg.lr
    if variant == "adam":
        m = cfg.beta1 * ref["m"] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * ref["v"] + (1.0 - cfg.beta2) * np.square(g)
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        ref.update(m=m, v=v, t=t)
        return theta - lr * (m_hat / (np.sqrt(v_hat) + cfg.adam_eps))
    ref["sm"], v = _ref_fold(ref["sm"], np.square(g))
    u = g / np.sqrt(v)
    u_hat = u / max(1.0, math.sqrt(float(np.mean(np.square(u)))) / cfg.clip_d)
    m = cfg.beta1 * ref["m"] + (1.0 - cfg.beta1) * u_hat
    if variant == "came":
        m_ref = ref["m"] if cfg.came_residual_vs_prev else m
        ref["instab"], s = _ref_fold(ref["instab"], np.square(u_hat - m_ref))
        theta_new = theta - lr * (m / np.sqrt(s))
    elif variant == "raw_confidence":
        theta_new = theta - lr * (m / np.sqrt(np.square(m - u_hat) + cfg.eps3))
    else:
        theta_new = theta - lr * m
    ref.update(m=m, t=t)
    return theta_new


@pytest.mark.parametrize(
    "dims", [(1, 1), (5,), (7, 3), (64, 1), (32, 48)], ids=["1x1", "5", "7x3", "64x1", "32x48"]
)
@pytest.mark.parametrize("variant", VARIANTS)
def test_step_matches_allocating_reference_bitwise(variant, dims):
    shape = storage_shape(dims)
    for residual_vs_prev in (False, True):
        for warmup in (0, 5):
            cfg = OptimizerConfig(came_residual_vs_prev=residual_vs_prev, warmup_steps=warmup)
            rng = np.random.Generator(np.random.PCG64(31))
            state = make_state(variant, dims, cfg)
            ref = {"m": np.zeros(shape), "v": np.zeros(shape), "t": 0}
            ref["sm"] = _ref_acc(dims, cfg.beta2, cfg.eps1)
            ref["instab"] = _ref_acc(dims, cfg.beta3, cfg.eps2)
            theta = theta_ref = rng.standard_normal(shape)
            for _ in range(60):
                g = rng.standard_normal(shape) * rng.uniform(0.01, 10.0)
                theta = step_param(theta, g, state, cfg)
                theta_ref = reference_step(variant, theta_ref, g, ref, cfg)
                assert np.array_equal(theta, theta_ref)
                assert np.array_equal(state.m, ref["m"])
