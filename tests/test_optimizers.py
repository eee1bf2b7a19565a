import math
import tracemalloc

import numpy as np
import pytest

from came_opt.factored_moment import FactoredEMA, FullEMA, factored_reconstruct
from came_opt.memory_model import state_elements
from came_opt.optimizers import (
    InvalidConfig,
    OptimizerConfig,
    clip_by_rms,
    make_state,
    state_element_count,
    step_param,
    warmup_lr,
)
from came_opt.tensor import rms


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


@pytest.mark.parametrize(
    "variant,full_arrays", [("adafactor", 5), ("came", 5), ("raw_confidence", 5), ("adam", 6)]
)
def test_step_transient_memory(variant, full_arrays):
    # tracemalloc peak of one warm step on a 256 x 256 matrix, counted in n x m
    # float64 arrays; the extra 0.02 covers factor vectors, scalars and headers
    n = m = 256
    cfg = OptimizerConfig()
    rng = np.random.Generator(np.random.PCG64(28))
    state = make_state(variant, (n, m), cfg)
    theta = rng.standard_normal((n, m))
    for _ in range(2):
        theta = step_param(theta, rng.standard_normal((n, m)), state, cfg)
    g = rng.standard_normal((n, m))
    tracemalloc.start()
    try:
        step_param(theta, g, state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (full_arrays + 0.02) * n * m * 8
