import dataclasses
import math

import numpy as np
import pytest

from came_opt.optimizers import OptimizerConfig, make_state, step_param
from came_opt.problems import (
    Problem,
    SyntheticDataset,
    build_problem,
    finite_diff_grad,
    gradient_report,
    initial_params,
    make_logreg,
    make_mlp1,
    make_quadratic,
    make_rosenbrock,
    mlp1_from_data,
    rng_from_seed,
)


# ---------------------------------------------------------------------------
# quadratic
# ---------------------------------------------------------------------------


def test_quadratic_1d_identity():
    p = make_quadratic(dim=1, condition_number=1.0)
    theta = {"theta": np.array([[3.0]])}
    assert p.loss(theta) == pytest.approx(4.5, rel=1e-15)
    assert p.grad(theta)["theta"][0, 0] == pytest.approx(3.0, rel=1e-15)


def test_quadratic_optimum_is_zero():
    p = make_quadratic(dim=6, condition_number=100.0)
    at_zero = {"theta": np.zeros((6, 1))}
    assert p.loss(at_zero) == 0.0
    assert np.all(p.grad(at_zero)["theta"] == 0.0)
    assert p.known_optimum == 0.0


def test_quadratic_eigenvalue_range():
    p = make_quadratic(dim=5, condition_number=50.0)
    theta = {"theta": np.ones((5, 1))}
    g = p.grad(theta)["theta"].ravel()
    assert g[0] == pytest.approx(1.0, rel=1e-12)
    assert g[-1] == pytest.approx(50.0, rel=1e-12)
    assert np.all(np.diff(g) > 0)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        make_quadratic(dim=0)
    with pytest.raises(ValueError):
        make_quadratic(dim=2, condition_number=0.0)


# ---------------------------------------------------------------------------
# rosenbrock
# ---------------------------------------------------------------------------


def test_rosenbrock_global_minimum():
    p = make_rosenbrock()
    at_min = {"xy": np.array([[1.0], [1.0]])}
    assert p.loss(at_min) == 0.0
    np.testing.assert_array_equal(p.grad(at_min)["xy"], np.zeros((2, 1)))


def test_rosenbrock_origin_value():
    p = make_rosenbrock()
    assert p.loss({"xy": np.zeros((2, 1))}) == 1.0


def test_rosenbrock_gradient_vs_finite_differences():
    p = make_rosenbrock()
    params = {"xy": np.array([[-1.0], [1.0]])}
    analytic = p.grad(params)["xy"]
    numeric = finite_diff_grad(p, params)["xy"]
    np.testing.assert_allclose(analytic, numeric, rtol=1e-8, atol=1e-8)


def test_rosenbrock_seeded_start_near_classic_corner():
    p = make_rosenbrock()
    a = initial_params(p, 3)
    b = initial_params(p, 3)
    np.testing.assert_array_equal(a["xy"], b["xy"])
    assert abs(a["xy"][0, 0] + 1.2) <= 0.1
    assert abs(a["xy"][1, 0] - 1.0) <= 0.1
    assert not np.array_equal(initial_params(p, 4)["xy"], a["xy"])


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------


def test_logreg_zero_params_gives_log2():
    p = make_logreg(n_samples=128, n_features=8, seed=1)
    zero = {"weight": np.zeros((8, 1)), "bias": np.zeros((1, 1))}
    assert p.loss(zero) == pytest.approx(math.log(2.0), rel=1e-12)


def test_logreg_gradient_is_descent_direction():
    p = make_logreg(n_samples=64, n_features=4, seed=2)
    params = initial_params(p, 9)
    g = p.grad(params)
    stepped = {name: params[name] - 1e-4 * g[name] for name in params}
    assert p.loss(stepped) < p.loss(params)


def test_logreg_gradient_check():
    rep = gradient_report(make_logreg(seed=0), points=10, tolerance=1e-7)
    assert rep.passed, rep.max_rel_err


def test_quadratic_gradient_check_tight():
    rep = gradient_report(make_quadratic(), points=10, tolerance=1e-9)
    assert rep.passed, rep.max_rel_err


def test_logreg_dataset_seed_contract():
    a = make_logreg(seed=7).dataset
    b = make_logreg(seed=7).dataset
    c = make_logreg(seed=8).dataset
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.targets, b.targets)
    assert not np.array_equal(a.inputs, c.inputs)
    assert set(np.unique(a.targets)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# one-hidden-layer MLP
# ---------------------------------------------------------------------------


def test_mlp_zero_network_zero_targets():
    rng = rng_from_seed(0)
    data = SyntheticDataset(
        inputs=rng.standard_normal((32, 4)), targets=np.zeros((32, 2)), seed=0
    )
    p = mlp1_from_data(4, 8, 2, data)
    zero = {
        "w1": np.zeros((4, 8)),
        "b1": np.zeros((8, 1)),
        "w2": np.zeros((8, 2)),
        "b2": np.zeros((2, 1)),
    }
    assert p.loss(zero) == 0.0
    grads = p.grad(zero)
    for g in grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_mlp_gradient_check():
    rep = gradient_report(make_mlp1(), points=10, tolerance=1e-6)
    assert rep.passed, rep.max_rel_err


def test_mlp_param_manifest():
    p = make_mlp1(in_dim=16, hidden_dim=32, out_dim=1)
    assert p.param_specs == (
        ("w1", (16, 32)),
        ("b1", (32,)),
        ("w2", (32, 1)),
        ("b2", (1,)),
    )
    shapes = p.storage_shapes()
    assert shapes["b1"] == (32, 1) and shapes["w1"] == (16, 32)
    cube = dataclasses.replace(p, param_specs=p.param_specs + (("w3", (2, 3, 4)),))
    with pytest.raises(ValueError, match="1-D or 2-D"):
        cube.storage_shapes()


def _train_mlp(variant, steps=200, init_seed=5):
    p = make_mlp1(seed=0)
    cfg = OptimizerConfig(lr=1e-3)
    params = initial_params(p, init_seed)
    start = p.loss(params)
    best = start
    states = {name: make_state(variant, dims, cfg) for name, dims in p.param_specs}
    for _ in range(steps):
        grads = p.grad(params)
        for name, _ in p.param_specs:
            params[name] = step_param(params[name], grads[name], states[name], cfg)
        best = min(best, p.loss(params))
    return start, p.loss(params), best


@pytest.mark.parametrize("variant", ["adafactor", "came", "adam"])
def test_mlp_loss_decreases_under_stable_optimizers(variant):
    start, final, _ = _train_mlp(variant)
    assert final < start


def test_mlp_raw_confidence_makes_early_progress():
    # the unfactored confidence step blows up as the residual vanishes, so the
    # final loss is not monotone; the best loss along the way still drops hard
    start, _, best = _train_mlp("raw_confidence")
    assert best < 0.2 * start


def test_mlp_dataset_regeneration_is_bitwise():
    a = make_mlp1(seed=11).dataset
    b = make_mlp1(seed=11).dataset
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.targets, b.targets)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def test_fd_exact_on_quadratic():
    p = make_quadratic(dim=1, condition_number=1.0)
    fd = finite_diff_grad(p, {"theta": np.array([[3.0]])})["theta"]
    assert fd[0, 0] == pytest.approx(3.0, abs=1e-9)


def test_fd_zero_function():
    p = Problem(
        name="flat",
        param_specs=(("x", (3,)),),
        loss=lambda params: 0.0,
        grad=lambda params: {"x": np.zeros((3, 1))},
    )
    fd = finite_diff_grad(p, {"x": np.ones((3, 1))})["x"]
    np.testing.assert_array_equal(fd, np.zeros((3, 1)))


def test_fd_honors_explicit_step():
    p = make_quadratic(dim=1, condition_number=1.0)
    fd = finite_diff_grad(p, {"theta": np.array([[2.0]])}, h=1e-3)["theta"]
    assert fd[0, 0] == pytest.approx(2.0, abs=1e-9)  # central diff is exact on quadratics


def test_known_optimum_reached():
    for p, at in (
        (make_quadratic(dim=4), {"theta": np.zeros((4, 1))}),
        (make_rosenbrock(), {"xy": np.ones((2, 1))}),
    ):
        assert abs(p.loss(at) - p.known_optimum) <= 1e-12


# ---------------------------------------------------------------------------
# gradient report machinery
# ---------------------------------------------------------------------------


def test_gradient_report_names_corrupted_parameter():
    base = make_mlp1(seed=0)

    def bad_grad(params):
        grads = base.grad(params)
        grads["b1"] = grads["b1"] + 0.5
        return grads

    corrupted = Problem(
        name="mlp1-corrupted",
        param_specs=base.param_specs,
        loss=base.loss,
        grad=bad_grad,
    )
    rep = gradient_report(corrupted, points=3, tolerance=1e-6)
    assert not rep.passed
    assert rep.failing == ("b1",)
    assert any("FAIL" in line for line in rep.lines())


def test_gradient_report_is_seeded():
    a = gradient_report(make_logreg(seed=0), points=3, seed=99)
    b = gradient_report(make_logreg(seed=0), points=3, seed=99)
    assert a.max_rel_err == b.max_rel_err


def test_default_init_box():
    p = make_quadratic(dim=50)
    params = initial_params(p, 123)
    assert params["theta"].shape == (50, 1)
    assert np.all(np.abs(params["theta"]) <= 0.1)
    np.testing.assert_array_equal(initial_params(p, 123)["theta"], params["theta"])


def test_build_problem_registry():
    p = build_problem("quadratic", {"dim": 3, "condition_number": 2.0})
    assert p.param_specs[0][1] == (3,)
    with pytest.raises(ValueError, match="unknown problem"):
        build_problem("nope")
    with pytest.raises(ValueError, match="bad arguments"):
        build_problem("quadratic", {"wrong_kwarg": 1})
