import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from came_opt import optimizers
from came_opt.factored_moment import factored_reconstruct, factored_update
from came_opt.memory_model import MEMORY_OPTIMIZERS, state_elements
from came_opt.optimizers import (
    VARIANTS,
    InvalidConfig,
    OptimizerConfig,
    clip_by_rms,
    make_state,
    rms,
    state_shapes,
    step_param,
    storage_shape,
    warmup_lr,
)


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


@pytest.mark.parametrize(
    "field,value",
    [
        ("lr", 0.0),
        ("lr", -1.0),
        ("lr", math.inf),
        ("lr", math.nan),
        ("beta1", 1.0),
        ("beta1", math.nan),
        ("beta2", 0.0),
        ("beta3", 1.2),
        ("eps1", -1e-9),
        ("eps1", math.inf),
        ("eps1", math.nan),
        ("eps2", -1.0),
        ("eps2", math.nan),
        ("eps3", -1.0),
        ("eps3", math.inf),
        ("clip_d", 0.0),
        ("clip_d", math.nan),
        ("warmup_steps", -1),
        ("warmup_steps", 1.5),
        ("warmup_steps", math.inf),
        ("warmup_steps", math.nan),
    ],
)
def test_config_validation_reports_field(field, value):
    with pytest.raises(InvalidConfig) as err:
        OptimizerConfig(**{field: value})
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


def test_infinite_clip_d_never_clips():
    # clip_d = inf is a valid config: clipping is off, and the update passes exactly
    u = np.array([[5.0, -3.0]])
    np.testing.assert_array_equal(clip_by_rms(u, OptimizerConfig(clip_d=math.inf).clip_d), u)


def test_clip_into_out_is_bitwise_and_leaves_u():
    rng = np.random.Generator(np.random.PCG64(22))
    for scale in (0.01, 50.0):  # below and above the threshold
        u = rng.standard_normal((6, 7)) * scale
        before = u.copy()
        out = np.empty_like(u)
        assert clip_by_rms(u, 1.0, out) is out
        np.testing.assert_array_equal(out, clip_by_rms(u, 1.0))
        np.testing.assert_array_equal(u, before)
        # out may be u itself: the step clips its update in place
        assert clip_by_rms(u, 1.0, out=u) is u
        assert u.tobytes() == out.tobytes()


@pytest.mark.parametrize("d", [0.0, -1.0, math.nan])
def test_clip_rejects_a_threshold_that_is_not_positive(d):
    # NaN fails every comparison, so the guard tests d > 0, not d <= 0
    with pytest.raises(ValueError, match="clip threshold must be positive"):
        clip_by_rms(np.array([[5.0, -3.0]]), d)


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
    # bias correction cancels at t=1: update = lr * 2 / (2 + ADAM_EPS)
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
        theta_a = step_param(theta_a, g.copy(), state_a, cfg)
        theta_b = step_param(theta_b, 10.0 * g, state_b, cfg)
        np.testing.assert_allclose(theta_b, theta_a, rtol=1e-10, atol=1e-13)


def test_adam_scale_free_first_step(monkeypatch):
    monkeypatch.setattr(optimizers, "ADAM_EPS", 0.0)
    cfg = OptimizerConfig()
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
        theta_a = step_param(theta_a, g.copy(), state_a, cfg)
        theta_c = step_param(theta_c, g, state_c, cfg)
        assert np.array_equal(state_a.m, state_c.m)
        assert np.array_equal(state_a.v_row, state_c.v_row)
        assert np.array_equal(state_a.v_col, state_c.v_col)
    assert not np.array_equal(theta_a, theta_c)


def first_instability_inv_roots(cfg):
    """1 / sqrt(S) after one came step of a constant gradient 2 from zero state,
    for a 1 x 1 parameter (full s) and a 2 x 2 one (factored s)."""
    for dims in ((1, 1), (2, 2)):
        state = make_state("came", dims, cfg)
        step_param(np.ones(dims), np.full(dims, 2.0), state, cfg)
        if state.s is not None:
            yield 1.0 / np.sqrt(state.s)
        else:
            yield factored_reconstruct(state.s_row, state.s_col)


def test_came_residual_uses_updated_momentum_by_default():
    # Algorithm 1 squares the residual against the updated momentum; first step
    # from zero state: u_hat = 1 everywhere, U = (u_hat - m1)^2 = (0.9 u_hat)^2
    cfg = OptimizerConfig()
    expected = (1.0 - cfg.beta3) * ((0.9 * 1.0) ** 2 + cfg.eps2)
    for inv_root in first_instability_inv_roots(cfg):
        np.testing.assert_allclose(inv_root, 1.0 / math.sqrt(expected), rtol=1e-12)


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
            if len(dims) == 2:
                # finite inverse roots are roots of positive, finite surrogates
                for inv_root in (
                    factored_reconstruct(state.v_row, state.v_col),
                    factored_reconstruct(state.s_row, state.s_col),
                ):
                    assert np.all(inv_root > 0.0) and np.all(np.isfinite(inv_root))
            else:
                assert np.all(state.v > 0.0) and np.all(state.s > 0.0)
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


def held_shapes(state):
    """Field -> shape of every array the state holds."""
    return {
        name: value.shape for name, value in vars(state).items() if isinstance(value, np.ndarray)
    }


def test_make_state_accumulator_kinds():
    cfg = OptimizerConfig()
    two_d = make_state("came", (3, 4), cfg)
    assert held_shapes(two_d) == {
        "m": (3, 4), "v_row": (3, 1), "v_col": (1, 4), "s_row": (3, 1), "s_col": (1, 4)
    }
    one_d = make_state("came", (5,), cfg)
    assert held_shapes(one_d) == {"m": (5, 1), "v": (5, 1), "s": (5, 1)}
    assert held_shapes(make_state("adafactor", (3, 4), cfg)) == {
        "m": (3, 4), "v_row": (3, 1), "v_col": (1, 4)
    }
    assert held_shapes(make_state("adam", (3, 4), cfg)) == {"m": (3, 4), "v": (3, 4)}
    for variant in VARIANTS:
        for dims in ((3, 4), (5,)):
            state = make_state(variant, dims, cfg)
            assert held_shapes(state) == state_shapes(variant, dims)
            assert all(np.all(getattr(state, name) == 0.0) for name in held_shapes(state))


@pytest.mark.parametrize("dims", [(7, 1), (1, 9), (1, 1)], ids=["n x 1", "1 x m", "1 x 1"])
def test_vectors_keep_full_accumulators(dims):
    # a 2-D parameter with a dim of 1 is a vector, kept unfactored like a 1-D
    # one: its factored averages would only rebuild its full average, in more entries
    cfg = OptimizerConfig()
    n = math.prod(dims)
    expected = {
        "adafactor": {"m": dims, "v": dims},
        "came": {"m": dims, "v": dims, "s": dims},
        "raw_confidence": {"m": dims, "v": dims},
        "adam": {"m": dims, "v": dims},
    }
    for variant in VARIANTS:
        assert state_shapes(variant, dims) == expected[variant]
        assert held_shapes(make_state(variant, dims, cfg)) == expected[variant]
    assert state_elements("came", dims) == 3 * n
    assert state_elements("adafactor", dims) == 2 * n


def test_make_state_rejects_bad_inputs():
    cfg = OptimizerConfig()
    with pytest.raises(ValueError, match="unknown optimizer"):
        make_state("sgd", (2, 2), cfg)
    with pytest.raises(ValueError):
        make_state("came", (2, 2, 2), cfg)
    with pytest.raises(ValueError):
        make_state("came", (0,), cfg)
    with pytest.raises(InvalidConfig) as err:
        make_state("adam", (2, 2), OptimizerConfig(beta1=1.0))
    assert err.value.field == "beta1"


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
    assert np.all(state.v_row == 0.0) and np.all(state.v_col == 0.0)
    assert np.all(state.m == 0.0)

    theta = step_param(np.ones((2, 2)), np.ones((2, 2)), state, cfg)
    t_before = state.t
    m_before = state.m.copy()
    sm_before = (state.v_row, state.v_col)
    # shape error on a live state is caught before any work
    with pytest.raises(ValueError):
        step_param(theta, np.zeros((3, 3)), state, cfg)
    assert state.t == t_before
    assert state.v_row is sm_before[0] and state.v_col is sm_before[1]
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
@pytest.mark.parametrize("variant", VARIANTS)
def test_state_element_count_matches_memory_model(variant, dims):
    # the bytes make_state allocates against the state_shapes count, and for the
    # variants memory_model covers, against its count
    state = make_state(variant, dims, OptimizerConfig())
    allocated = sum(a.nbytes for a in vars(state).values() if isinstance(a, np.ndarray))
    assert allocated == 8 * sum(math.prod(shape) for shape in state_shapes(variant, dims).values())
    if variant in MEMORY_OPTIMIZERS:
        assert allocated == 8 * state_elements(variant, dims)


# Peak of one warm step, in n x m float64 arrays, per variant: (256 x 256 matrix,
# 65536-entry column or vector). The step works in the gradient's array, which
# is not counted. A 1-D or vector parameter keeps its unfactored accumulators
# as fresh arrays of its shape, so it needs more than the matrix.
STEP_PEAK_ARRAYS = {
    "adafactor": (1, 2),
    "came": (1, 3),
    "raw_confidence": (1, 2),
    "adam": (3, 3),
}


@pytest.mark.parametrize(
    "dims", [(256, 256), (65536,), (65536, 1)], ids=["matrix", "column", "vector"]
)
@pytest.mark.parametrize("variant", VARIANTS)
def test_step_transient_memory(variant, dims):
    # tracemalloc peak of one warm step, counted in n x m float64 arrays; the
    # extra 0.03 covers factor vectors, scalars and headers
    shape = storage_shape(dims)
    nm = shape[0] * shape[1]
    full_arrays = STEP_PEAK_ARRAYS[variant][1 in shape]
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


def run_with_spares(variant, dims, cfg, seed, steps=3):
    """A state warmed by `steps` steps that pass a spare list as the runner does.

    The step refills the list with the arrays it retired or worked in; the
    old theta is dropped. Returns (state, theta, the next gradient, spare).
    """
    shape = storage_shape(dims)
    rng = np.random.Generator(np.random.PCG64(seed))
    state = make_state(variant, dims, cfg)
    theta = rng.standard_normal(shape)
    spare = []
    for _ in range(steps):
        theta = step_param(theta, rng.standard_normal(shape), state, cfg, spare)
    return state, theta, rng.standard_normal(shape), spare


@pytest.mark.parametrize(
    "dims", [(256, 256), (65536,), (65536, 1)], ids=["matrix", "column", "vector"]
)
@pytest.mark.parametrize("variant", VARIANTS)
def test_step_steady_state_memory(variant, dims):
    # tracemalloc peak of one step after three that passed a spare list, counted
    # in n x m float64 arrays: the gradient's array and the spares supply every
    # array the step writes, so it allocates none; the 0.03 covers factor
    # vectors, scalars and headers
    shape = storage_shape(dims)
    nm = shape[0] * shape[1]
    cfg = OptimizerConfig()
    state, theta, g, spare = run_with_spares(variant, dims, cfg, seed=28)
    tracemalloc.start()
    try:
        step_param(theta, g, state, cfg, spare)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.03 * nm * 8


# ---------------------------------------------------------------------------
# non-finite gradients, aliasing, and bitwise agreement with a plain transcription
# ---------------------------------------------------------------------------


def state_arrays(state):
    """Every array the state holds: momentum, second moment, instability."""
    return [getattr(state, name) for name in state_shapes(state.variant, state.dims)]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("dims", [(6, 5), (7,)], ids=["matrix", "column"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_gradient_rejected_before_any_state_change(variant, dims, bad):
    cfg = OptimizerConfig()
    state, theta, g = run_with_spares(variant, dims, cfg, seed=29)[:3]
    g[1, 0] = bad
    t_before = state.t
    held = state_arrays(state)
    snapshots = [a.copy() for a in held]
    with pytest.raises(ValueError, match="non-finite"):
        step_param(theta, g, state, cfg)
    assert state.t == t_before
    for now, before in zip(state_arrays(state), snapshots):
        assert np.array_equal(now, before)
    assert all(now is was for now, was in zip(state_arrays(state), held))


@st.composite
def poisoned_steps(draw):
    """A variant, a matrix or column shape, a gradient with NaN or +-inf planted
    at random entries, and whether the step gets a spare list."""
    variant = draw(st.sampled_from(VARIANTS))
    if draw(st.booleans()):
        dims = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    else:
        dims = (draw(st.integers(1, 40)),)
    size = math.prod(dims)
    spots = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=min(size, 5)))
    values = [draw(st.sampled_from([math.nan, math.inf, -math.inf])) for _ in spots]
    return variant, dims, dict(zip(spots, values)), draw(st.booleans()), draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(poisoned_steps())
def test_poisoned_gradient_changes_nothing(case):
    variant, dims, planted, with_spare, seed = case
    cfg = OptimizerConfig()
    state, theta, g, spare = run_with_spares(variant, dims, cfg, seed=seed)
    for index, value in planted.items():
        g.flat[index] = value
    held = state_arrays(state)
    before = [a.tobytes() for a in [theta, g] + held]
    t_before = state.t
    with pytest.raises(ValueError, match="non-finite"):
        step_param(theta, g, state, cfg, spare if with_spare else None)
    assert state.t == t_before
    assert all(now is was for now, was in zip(state_arrays(state), held))
    assert [a.tobytes() for a in [theta, g] + state_arrays(state)] == before


# unclipped: clip_d = inf, the RMS clip of the shared pipeline switched off
@pytest.mark.parametrize("unclipped", [False, True])
@pytest.mark.parametrize("dims", [(32, 48), (40,)], ids=["matrix", "column"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_step_writes_no_input_and_returns_fresh_arrays(variant, dims, unclipped):
    # the inputs are theta and the state: the step writes neither, and returns
    # the new theta in g's array, which it owns
    cfg = OptimizerConfig(clip_d=math.inf if unclipped else 1.0)
    state, theta, g = run_with_spares(variant, dims, cfg, seed=30)[:3]
    inputs = [theta] + state_arrays(state)
    snapshots = [a.copy() for a in inputs]
    theta_new = step_param(theta, g, state, cfg)
    assert theta_new is g
    for array, before in zip(inputs, snapshots):
        assert np.array_equal(array, before)
    for fresh in [theta_new] + state_arrays(state):
        assert not any(np.shares_memory(fresh, old) for old in inputs)
    assert not np.shares_memory(theta_new, state.m)

    # the same with a spare list as the runner keeps it: the committed state
    # comes from the spares, never from the step's inputs
    state, theta, g = run_with_spares(variant, dims, cfg, seed=30)[:3]
    spare = run_with_spares(variant, dims, cfg, seed=31)[3]
    inputs = [theta] + state_arrays(state)
    snapshots = [a.copy() for a in inputs]
    theta_new = step_param(theta, g, state, cfg, spare)
    assert theta_new is g
    for array, before in zip(inputs, snapshots):
        assert np.array_equal(array, before)
    fresh = [theta_new] + state_arrays(state)
    for i, array in enumerate(fresh):
        assert not any(np.shares_memory(array, old) for old in inputs)
        assert not any(np.shares_memory(array, other) for other in fresh[:i])
        assert not any(np.shares_memory(array, a) for a in spare)
    # the retired momentum (and full accumulators) went back on the list
    assert all(any(old is a for a in spare) for old in inputs[1:] if old.shape == theta.shape)


@pytest.mark.parametrize("dims", [(6, 5), (7,)], ids=["matrix", "column"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_warm_step_leaves_the_spare_list_as_long(variant, dims):
    # every working array that does not become state goes back on the list,
    # next to the retired state: the list neither grows nor runs dry, and a
    # warm step allocates no parameter-shaped array
    cfg = OptimizerConfig()
    state, theta, g, spare = run_with_spares(variant, dims, cfg, seed=35)
    length = len(spare)
    assert length > 0
    for g in (g, np.ones_like(g)):
        pool = spare + state_arrays(state) + [g]
        theta = step_param(theta, g, state, cfg, spare)
        assert theta is g and len(spare) == length
        for a in spare + [a for a in state_arrays(state) if a.shape == theta.shape]:
            assert any(a is b for b in pool)


@pytest.mark.parametrize("dims", [(6, 5), (7,)], ids=["matrix", "column"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_step_rejects_a_gradient_it_may_not_write(variant, dims):
    shape = storage_shape(dims)
    cfg = OptimizerConfig()
    state, theta, g, spare = run_with_spares(variant, dims, cfg, seed=36)
    read_only = g.copy()
    read_only.flags.writeable = False
    bad = {
        "read-only": read_only,
        "float32": g.astype(np.float32),
        "theta": theta,
        "a view of theta": theta[::-1][::-1],
    }
    bad.update((name, getattr(state, name)) for name in state_shapes(variant, dims))
    if state.v_row is not None:
        # a gradient that lives in the buffer a factor is a view of
        buffer = np.zeros(math.prod(shape) + shape[0])
        buffer[-shape[0]:] = state.v_row[:, 0]
        state.v_row = buffer[-shape[0]:].reshape(shape[0], 1)
        bad["factor"] = buffer[shape[0]:].reshape(shape)
    held = state_arrays(state)
    before = [a.tobytes() for a in [theta, g, *held, *spare]]
    spare_before = list(spare)
    t_before = state.t
    for case, bad_g in bad.items():
        if bad_g.shape != shape:
            continue  # a factor vector fails the shape check
        bad_before = bad_g.tobytes()
        with pytest.raises(ValueError, match="^g: "):
            step_param(theta, bad_g, state, cfg, spare)
        assert bad_g.tobytes() == bad_before, case
        assert state.t == t_before, case
        assert all(now is was for now, was in zip(spare, spare_before)), case
        assert len(spare) == len(spare_before), case
        assert all(now is was for now, was in zip(state_arrays(state), held)), case
        assert [a.tobytes() for a in [theta, g, *held, *spare]] == before, case


@pytest.mark.parametrize("dims", [(6, 5), (7,)], ids=["matrix", "column"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_step_rejects_a_bad_spare_before_any_change(variant, dims):
    shape = storage_shape(dims)
    cfg = OptimizerConfig()
    state, theta, g, _ = run_with_spares(variant, dims, cfg, seed=33)
    if state.v_row is not None:
        # a factor that lives inside a spare-shaped buffer
        buffer = np.zeros(math.prod(shape) + shape[0])
        buffer[-shape[0]:] = state.v_row[:, 0]
        state.v_row = buffer[-shape[0]:].reshape(shape[0], 1)
        inside_factor = buffer[shape[0]:].reshape(shape)
    else:
        inside_factor = state.m  # no factors: the momentum itself
    wide = np.zeros((shape[0], shape[1] + 1))
    bad = [
        ("shape", np.zeros((shape[0] + 1, shape[1])), "C-contiguous float64"),
        ("dtype", np.zeros(shape, dtype=np.float32), "C-contiguous float64"),
        ("layout", wide[:, 1:], "C-contiguous float64"),
        ("theta", theta, "overlap"),
        ("gradient view", g[::-1][::-1], "overlap"),
        ("factor or momentum", inside_factor, "overlap"),
        ("another spare", None, "overlap"),
        ("a view of another spare", None, "overlap"),
    ]
    bad += [(name, getattr(state, name), "overlap") for name in state_shapes(variant, dims)]
    held = state_arrays(state)
    snapshots = [a.copy() for a in [theta, g] + held]
    t_before = state.t
    for case, array, reason in bad:
        if array is not None and reason == "overlap" and array.shape != shape:
            continue  # a factor vector fails the shape check; covered above
        first = np.zeros(shape)
        if case == "another spare":
            array = first
        elif case == "a view of another spare":
            array = first[::-1][::-1]
        spare = [first, array]
        with pytest.raises(ValueError, match=f"spare.*{reason}"):
            step_param(theta, g, state, cfg, spare)
        assert len(spare) == 2 and spare[1] is array, case
        assert state.t == t_before, case
        assert all(now is was for now, was in zip(state_arrays(state), held)), case
        for now, before in zip([theta, g] + state_arrays(state), snapshots):
            assert np.array_equal(now, before), case

    # a spare that owns the memory a view among the inputs reads
    owner = np.zeros(shape)
    g_view = owner[::-1][::-1]
    g_view[...] = g
    with pytest.raises(ValueError, match="spare.*overlap"):
        step_param(theta, g_view, state, cfg, [owner])
    assert state.t == t_before and np.array_equal(g_view, g)


@pytest.mark.parametrize("unclipped", [False, True])
@pytest.mark.parametrize("dims", [(1, 1), (5,), (7, 3), (64, 1), (32, 48)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_spare_path_is_bitwise_the_allocating_path(variant, dims, unclipped):
    shape = storage_shape(dims)
    cfg = OptimizerConfig(clip_d=math.inf if unclipped else 1.0, warmup_steps=3)
    rng = np.random.Generator(np.random.PCG64(34))
    plain = make_state(variant, dims, cfg)
    pooled = make_state(variant, dims, cfg)
    theta = theta_pooled = rng.standard_normal(shape)
    spare = []
    for _ in range(20):
        g = rng.standard_normal(shape) * rng.uniform(0.01, 10.0)
        theta = step_param(theta, g.copy(), plain, cfg)
        theta_pooled = step_param(theta_pooled, g, pooled, cfg, spare)
        assert theta.tobytes() == theta_pooled.tobytes()
        for a, b in zip(state_arrays(plain), state_arrays(pooled)):
            assert a.tobytes() == b.tobytes()
        assert plain.t == pooled.t


def _ref_rms(u, factor_space):
    # the step's einsum pass, or np.mean's pairwise sum of the written squares
    if factor_space:
        return math.sqrt(np.einsum("ij,ij->", u, u) / u.size)
    return math.sqrt(float(np.mean(np.square(u))))


def _ref_fold(acc, x, factor_space=True, scale=1.0):
    """Plain allocating accumulator update of (scale x)^2: returns (new acc, the
    normalizer (y, lr) -> lr y / sqrt(acc)).

    A factored accumulator folds the einsum sums of squares of x, times
    scale^2, plus m or n epsilon, and divides by the root of its rank-1
    surrogate in factor space, multiplying by lr sqrt(sum(row)) / sqrt(row_i)
    * (1 / sqrt(col_j)), as the step does. With factor_space=False it sums the
    written squares x^2 + epsilon pairwise, forms the surrogate row_i * col_j
    / sum(row) and divides by its square root: Algorithm 1's sqrt(V) form. A
    full accumulator always folds (scale x)^2 + epsilon and divides by its
    square root. Multiplying by a scale or lr of 1.0 is exact.
    """
    kind, d, eps, arrays = acc
    if kind == "factored":
        row, col = arrays
        n, m = x.shape
        if factor_space:
            row_sq = np.einsum("ij,ij->i", x, x).reshape(n, 1) * (scale * scale) + m * eps
            col_sq = np.einsum("ij,ij->j", x, x).reshape(1, m) * (scale * scale) + n * eps
        else:
            shifted = np.square(scale * x) + eps
            row_sq, col_sq = shifted.sum(axis=1, keepdims=True), shifted.sum(axis=0, keepdims=True)
        row = d * row + (1.0 - d) * row_sq
        col = d * col + (1.0 - d) * col_sq
        new = (kind, d, eps, (row, col))
        if factor_space:
            return new, lambda y, lr=1.0: y * (
                (lr * math.sqrt(row.sum()) / np.sqrt(row)) @ (1.0 / np.sqrt(col))
            )
        surrogate = (row @ col) / float(row.sum())
        return new, lambda y, lr=1.0: lr * (y / np.sqrt(surrogate))
    (full,) = arrays
    full = d * full + (1.0 - d) * (np.square(scale * x) + eps)
    return (kind, d, eps, (full,)), lambda y, lr=1.0: lr * (y / np.sqrt(full))


def _ref_acc(dims, decay, eps, factor_space=True):
    # the step factors a matrix whose dims both exceed 1; Algorithm 1's form
    # (factor_space=False) factors every 2-D parameter
    rows, cols = storage_shape(dims)
    if len(dims) == 2 and (min(rows, cols) > 1 or not factor_space):
        return ("factored", decay, eps, (np.zeros((rows, 1)), np.zeros((1, cols))))
    return ("full", decay, eps, (np.zeros((rows, cols)),))


def reference_step(variant, theta, g, ref, cfg, factor_space=True):
    """Plain allocating transcription of the step's expressions, in their order.

    The step forms the momentum in its lerp form m + (1 - beta1) d, d = u_hat
    - m, and came folds its residual u_hat - m_new as beta1 d and multiplies
    lr into its factored inverse root.
    factor_space=False takes every sum of squares pairwise over the written
    squares, as np.mean does, divides by the square roots of the factored
    surrogates instead of multiplying by their factor-space inverse roots,
    and forms the momentum and came's residual as Algorithm 1 writes them,
    beta1 m + (1 - beta1) u_hat and u_hat - m.
    """
    t = ref["t"] + 1
    lr = cfg.lr * min(1.0, t / cfg.warmup_steps) if cfg.warmup_steps else cfg.lr
    if variant == "adam":
        m = cfg.beta1 * ref["m"] + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * ref["v"] + (1.0 - cfg.beta2) * np.square(g)
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        ref.update(m=m, v=v, t=t)
        return theta - lr * (m_hat / (np.sqrt(v_hat) + optimizers.ADAM_EPS))
    ref["sm"], normalize_v = _ref_fold(ref["sm"], g, factor_space)
    u = normalize_v(g)
    u_hat = u / max(1.0, _ref_rms(u, factor_space) / cfg.clip_d)
    if factor_space:  # the step's lerp form of the momentum and its residual
        d = u_hat - ref["m"]
        m = ref["m"] + (1.0 - cfg.beta1) * d
        scale, residual = cfg.beta1, d
    else:
        m = cfg.beta1 * ref["m"] + (1.0 - cfg.beta1) * u_hat
        scale, residual = 1.0, u_hat - m
    if variant == "came":
        ref["instab"], normalize_s = _ref_fold(ref["instab"], residual, factor_space, scale)
        theta_new = theta - normalize_s(m, lr)
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
    for clip_d in (1.0, math.inf):
        for warmup in (0, 5):
            cfg = OptimizerConfig(clip_d=clip_d, warmup_steps=warmup)
            rng = np.random.Generator(np.random.PCG64(31))
            state = make_state(variant, dims, cfg)
            ref = {"m": np.zeros(shape), "v": np.zeros(shape), "t": 0}
            ref["sm"] = _ref_acc(dims, cfg.beta2, cfg.eps1)
            ref["instab"] = _ref_acc(dims, cfg.beta3, cfg.eps2)
            theta = theta_ref = rng.standard_normal(shape)
            for _ in range(60):
                g = rng.standard_normal(shape) * rng.uniform(0.01, 10.0)
                theta = step_param(theta, g.copy(), state, cfg)
                theta_ref = reference_step(variant, theta_ref, g, ref, cfg)
                assert np.array_equal(theta, theta_ref)
                assert np.array_equal(state.m, ref["m"])


# Bound on the distance between the step and Algorithm 1's sqrt(V) / sqrt(S)
# form, fixed before the test was first run: 4 ulp of the array's largest
# entry for every step taken. The factor-space inverse root rounds a few more
# times than dividing by the root of the formed surrogate, and each step's
# rounding differences carry into theta and the momentum. raw_confidence's
# theta is held to the bound only through its momentum: its step
# m / sqrt((m - u_hat)^2 + eps3) is the paper's unaveraged ablation, and where
# m nearly equals u_hat it multiplies a 1-ulp difference in u_hat by about
# lr |m| |m - u_hat| / denominator^3 (1767 ulp per step on the 32 x 48 case).
ULP_PER_STEP = 4


@pytest.mark.parametrize("unclipped", [False, True])
@pytest.mark.parametrize(
    "dims", [(1, 1), (5,), (7, 3), (64, 1), (32, 48)], ids=["1x1", "5", "7x3", "64x1", "32x48"]
)
@pytest.mark.parametrize("variant", VARIANTS)
def test_step_tracks_algorithm_1_sqrt_form(variant, dims, unclipped):
    shape = storage_shape(dims)
    cfg = OptimizerConfig(clip_d=math.inf if unclipped else 1.0)
    rng = np.random.Generator(np.random.PCG64(32))
    state = make_state(variant, dims, cfg)
    ref = {"m": np.zeros(shape), "v": np.zeros(shape), "t": 0}
    ref["sm"] = _ref_acc(dims, cfg.beta2, cfg.eps1, factor_space=False)
    ref["instab"] = _ref_acc(dims, cfg.beta3, cfg.eps2, factor_space=False)
    theta = theta_ref = rng.standard_normal(shape)
    for t in range(1, 61):
        g = rng.standard_normal(shape) * rng.uniform(0.01, 10.0)
        theta = step_param(theta, g.copy(), state, cfg)
        theta_ref = reference_step(variant, theta_ref, g, ref, cfg, factor_space=False)
        pairs = [(state.m, ref["m"])]
        if variant != "raw_confidence":
            pairs.append((theta, theta_ref))
        for got, want in pairs:
            bound = ULP_PER_STEP * t * np.spacing(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= bound


def factored_vector_step(variant, theta, g, old, cfg):
    """The step of a factored parameter, built by hand from `factored_update`
    and `factored_reconstruct` in Algorithm 1's order: the residual against the
    new momentum, and lr applied to the update."""
    t = old["t"] + 1
    old["v"] = factored_update(*old["v"], g, cfg.beta2, cfg.eps1)
    u_hat = clip_by_rms(g * factored_reconstruct(*old["v"]), cfg.clip_d)
    m = old["m"] + (1.0 - cfg.beta1) * (u_hat - old["m"])
    update = m
    if variant == "came":
        old["s"] = factored_update(*old["s"], u_hat - m, cfg.beta3, cfg.eps2)
        update = m * factored_reconstruct(*old["s"])
    old.update(m=m, t=t)
    return theta - warmup_lr(t, cfg) * update


@pytest.mark.parametrize("unclipped", [False, True])
@pytest.mark.parametrize("dims", [(64, 1), (1, 48), (1, 1)], ids=["64x1", "1x48", "1x1"])
@pytest.mark.parametrize("variant", ["came", "adafactor"])
def test_unfactored_vector_tracks_its_factored_step(variant, dims, unclipped):
    # the factored averages of a vector rebuild its full average: for n x 1,
    # c_1 = sum_i r_i, so r_i c_1 / sum(r) = r_i. Keeping it unfactored moves
    # the trajectory only by rounding, held to Algorithm 1's per-step bound
    cfg = OptimizerConfig(clip_d=math.inf if unclipped else 1.0, warmup_steps=5)
    rng = np.random.Generator(np.random.PCG64(37))
    state = make_state(variant, dims, cfg)
    assert state.v is not None and state.v_row is None
    zeros = (np.zeros((dims[0], 1)), np.zeros((1, dims[1])))
    old = {"m": np.zeros(dims), "v": zeros, "s": zeros, "t": 0}
    theta = theta_old = rng.standard_normal(dims)
    for t in range(1, 61):
        g = rng.standard_normal(dims) * rng.uniform(0.01, 10.0)
        theta = step_param(theta, g.copy(), state, cfg)
        theta_old = factored_vector_step(variant, theta_old, g, old, cfg)
        for got, want in ((state.m, old["m"]), (theta, theta_old)):
            bound = ULP_PER_STEP * t * np.spacing(np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= bound
