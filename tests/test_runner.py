import dataclasses
import math
import os
from pathlib import Path

import numpy as np
import pytest

from came_opt.memory_model import MEMORY_OPTIMIZERS, state_elements
from came_opt import runner as runner_module
from came_opt.optimizers import VARIANTS, InvalidConfig, OptimizerConfig, make_state, step_param
from came_opt.problems import build_problem, initial_params
from came_opt.runner import (
    RunConfig,
    compare,
    run,
    write_compare_outputs,
    write_run_outputs,
)


def quad_config(**overrides):
    base = dict(
        problem="quadratic",
        problem_args={"dim": 4},
        optimizer="adam",
        steps=50,
        seed=1,
        opt=OptimizerConfig(lr=1e-2),
    )
    base.update(overrides)
    return RunConfig(**base)


def test_run_trace_shape_and_indices():
    result = run(quad_config(steps=20))
    trace = result.trace
    assert trace.step.size == 20
    np.testing.assert_array_equal(trace.step, np.arange(1, 21))
    assert np.all(np.isfinite(trace.loss))
    assert np.all(trace.lr == 1e-2)


def test_run_rejects_zero_steps():
    with pytest.raises(InvalidConfig) as err:
        run(quad_config(steps=0))
    assert err.value.field == "steps"


@pytest.mark.parametrize(
    "field,value",
    [("seed", 1.9), ("seed", -1), ("seed", math.nan), ("steps", 2.5), ("steps", math.inf)],
)
def test_run_config_rejects_a_non_integer_seed_or_steps(field, value):
    # seed 1.9 used to train as seed 1 while the summary recorded 1.9
    with pytest.raises(InvalidConfig) as err:
        quad_config(**{field: value})
    assert err.value.field == field


@pytest.mark.parametrize("seed", [1.9, -1, math.inf])
def test_problem_seed_must_be_a_nonnegative_integer(seed):
    # a problem's own seed reaches PCG64 through rng_from_seed, which no longer truncates
    with pytest.raises(InvalidConfig) as err:
        build_problem("mlp1", {"seed": seed})
    assert err.value.field == "seed"
    assert initial_params(build_problem("quadratic"), 2.0)["theta"].shape == (8, 1)


def test_run_rejects_unknown_optimizer():
    with pytest.raises(InvalidConfig) as err:
        run(quad_config(optimizer="sgd"))
    assert err.value.field == "optimizer"


def test_run_config_rejects_nan_threshold():
    # a NaN threshold compares False with every loss, so it would never be met
    with pytest.raises(InvalidConfig) as err:
        quad_config(threshold=math.nan)
    assert err.value.field == "threshold"


def test_configs_are_frozen_and_replace_rechecks():
    cfg = quad_config()
    for obj, name in ((cfg, "steps"), (cfg.opt, "lr")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1)
    for obj, name, value in ((cfg, "steps", 0), (cfg.opt, "lr", -1.0)):
        with pytest.raises(InvalidConfig) as err:
            dataclasses.replace(obj, **{name: value})
        assert err.value.field == name


def test_run_propagates_bad_problem():
    with pytest.raises(ValueError, match="unknown problem"):
        run(quad_config(problem="nope", problem_args={}))


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_names_parameter_and_step_of_a_non_finite_gradient(monkeypatch, variant):
    build = runner_module.build_problem

    def build_poisoned(name, args):
        problem = build(name, args)
        calls = []

        def grad(params):
            grads = problem.grad(params)
            calls.append(None)
            if len(calls) == 3:
                grads["theta"][1, 0] = np.nan
            return grads

        return dataclasses.replace(problem, grad=grad)

    monkeypatch.setattr(runner_module, "build_problem", build_poisoned)
    with pytest.raises(ValueError, match=r"parameter 'theta' at step 3: gradient has non-finite"):
        run(quad_config(optimizer=variant))


def overflowing_loss_problem(monkeypatch, at_call):
    """Patch build_problem so the loss returns inf from its at_call-th call on,
    while the gradient stays finite."""
    build = runner_module.build_problem

    def build_overflowing(name, args):
        problem = build(name, args)
        calls = []

        def loss(params):
            calls.append(None)
            return math.inf if len(calls) >= at_call else problem.loss(params)

        return dataclasses.replace(problem, loss=loss)

    monkeypatch.setattr(runner_module, "build_problem", build_overflowing)


def test_run_stops_at_the_first_non_finite_loss(monkeypatch):
    overflowing_loss_problem(monkeypatch, at_call=3)
    with pytest.raises(ValueError, match=r"loss is inf at step 3"):
        run(quad_config(optimizer="came"))


def test_run_rejects_a_non_finite_final_loss(monkeypatch):
    # one loss call per step for 50 steps, then the final loss
    overflowing_loss_problem(monkeypatch, at_call=51)
    with pytest.raises(ValueError, match=r"final loss is inf after step 50"):
        run(quad_config())


@pytest.mark.parametrize("variant", ["came", "adam"])
def test_run_rms_columns_match_a_plain_transcription_bitwise(variant):
    steps = 6
    result = run(RunConfig(problem="mlp1", optimizer=variant, steps=steps, seed=3))
    problem = build_problem("mlp1", {})
    params = initial_params(problem, 3)
    cfg = OptimizerConfig()
    states = {name: make_state(variant, dims, cfg) for name, dims in problem.param_specs}
    for t in range(steps):
        grads = problem.grad(params)
        g_sq = u_sq = 0.0
        count = 0
        for name, _ in problem.param_specs:
            # the step writes the gradient, so its squares are summed first
            g_sq += float(np.sum(np.square(grads[name])))
            new = step_param(params[name], grads[name], states[name], cfg)
            u_sq += float(np.sum(np.square(new - params[name])))
            count += new.size
            params[name] = new
        assert result.trace.grad_rms[t] == math.sqrt(g_sq / count)
        assert result.trace.update_rms[t] == math.sqrt(u_sq / count)


@pytest.mark.parametrize("variant", VARIANTS)
def test_recycling_leaves_the_trace_bitwise(monkeypatch, variant):
    # every parameter recycles its retired arrays, or none does: same bits
    config = RunConfig(problem="mlp1", optimizer=variant, steps=8, seed=3)
    monkeypatch.setattr(runner_module, "RECYCLE_BYTES", 0)
    pooled = run(config)
    monkeypatch.setattr(runner_module, "RECYCLE_BYTES", math.inf)
    plain = run(config)
    assert pooled.final_loss == plain.final_loss
    for field in ("loss", "grad_rms", "update_rms", "lr"):
        assert getattr(pooled.trace, field).tobytes() == getattr(plain.trace, field).tobytes()


def test_run_recycles_only_arrays_of_at_least_128_kib(monkeypatch):
    spare_sizes = []

    def spy(theta, g, state, cfg, spare=None):
        new = step_param(theta, g, state, cfg, spare)
        spare_sizes.append(None if spare is None else len(spare))
        return new

    monkeypatch.setattr(runner_module, "step_param", spy)
    run(quad_config(problem_args={"dim": 16384}, steps=3))
    # adam: a working array, the momentum and the second moment come back
    # after each step and the old theta is dropped, so the list stays at 3
    assert spare_sizes == [3, 3, 3]
    spare_sizes.clear()
    run(quad_config(problem_args={"dim": 16383}, steps=3))
    assert spare_sizes == [None, None, None]
    spare_sizes.clear()
    # came on a 256 x 256 w1 (512 KiB; the other mlp1 parameters are small):
    # its factored step works in g and one spare and gives back only the old
    # momentum, so the list stays at 1
    mlp = {"in_dim": 256, "hidden_dim": 256, "n_samples": 8}
    run(quad_config(problem="mlp1", problem_args=mlp, optimizer="came", steps=3))
    assert spare_sizes == [1, None, None, None] * 3


def test_run_is_deterministic_in_memory():
    a = run(quad_config(steps=40))
    b = run(quad_config(steps=40))
    assert a.final_loss == b.final_loss
    for field in ("loss", "grad_rms", "update_rms", "lr"):
        np.testing.assert_array_equal(getattr(a.trace, field), getattr(b.trace, field))


def test_quadratic_adam_smoke_converges():
    # recorded regression: 500 steps at lr 1e-2 drive an 8-D quadratic below 1e-6
    result = run(
        RunConfig(
            problem="quadratic",
            problem_args={"dim": 8},
            optimizer="adam",
            steps=500,
            seed=1,
            opt=OptimizerConfig(lr=1e-2),
        )
    )
    assert result.final_loss < 1e-6


def test_steps_to_threshold_semantics():
    result = run(quad_config(steps=200, threshold=1e-4))
    t = result.steps_to_threshold
    assert t is not None and 1 <= t <= 200
    # the recorded loss at the step after t is at or below the threshold
    if t < 200:
        assert result.trace.loss[t] <= 1e-4
        assert np.all(result.trace.loss[1:t] > 1e-4)


def test_huge_threshold_met_after_first_step():
    result = run(quad_config(steps=5, threshold=1e9))
    assert result.steps_to_threshold == 1


def test_state_elements_match_memory_model():
    specs = build_problem("mlp1").param_specs
    for variant in VARIANTS:
        result = run(RunConfig(problem="mlp1", optimizer=variant, steps=1, seed=0))
        allocated = 0
        for _, dims in specs:
            state = make_state(variant, dims, OptimizerConfig())
            allocated += sum(a.nbytes for a in vars(state).values() if isinstance(a, np.ndarray))
        assert 8 * result.state_elements == allocated
        if variant in MEMORY_OPTIMIZERS:
            assert result.state_elements == sum(state_elements(variant, dims) for _, dims in specs)


def test_best_loss_not_above_final():
    result = run(quad_config(steps=30))
    assert result.best_loss <= result.final_loss


def test_warmup_ramp_shows_in_trace():
    result = run(quad_config(steps=20, opt=OptimizerConfig(lr=1e-2, warmup_steps=10)))
    np.testing.assert_allclose(
        result.trace.lr[:10], 1e-2 * np.arange(1, 11) / 10.0, rtol=1e-15
    )
    assert np.all(result.trace.lr[10:] == 1e-2)


# ---------------------------------------------------------------------------
# file output
# ---------------------------------------------------------------------------


def test_write_outputs_strict_mode(tmp_path):
    result = run(quad_config(steps=8))
    paths = write_run_outputs(result, str(tmp_path / "r"))
    lines = Path(paths["trace"]).read_text().splitlines()
    assert lines[0] == "step,loss,grad_rms,update_rms,lr"
    timing = Path(paths["timing"]).read_text().splitlines()
    assert timing[0] == "step,elapsed_ms"
    assert len(timing) == 9
    assert "total_wall_ms" not in Path(paths["summary"]).read_text()


def test_strict_outputs_are_byte_identical_across_runs(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        result = run(quad_config(steps=12))
        paths = write_run_outputs(result, str(tmp_path / tag))
        blobs.append(
            (Path(paths["trace"]).read_bytes(), Path(paths["summary"]).read_bytes())
        )
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_two_optimizers():
    configs = [quad_config(optimizer="came"), quad_config(optimizer="adafactor")]
    result = compare(configs, seeds=[1, 2, 3])
    assert result.labels == ("came", "adafactor")
    assert set(result.final_losses["came"]) == {1, 2, 3}
    total_wins = result.wins["came"]["adafactor"] + result.wins["adafactor"]["came"]
    assert 0 <= total_wins <= 3
    assert result.median_curve["came"].size == configs[0].steps


def test_compare_single_config_degenerates():
    result = compare([quad_config(optimizer="adam")], seeds=[5])
    assert result.labels == ("adam",)
    assert result.wins == {"adam": {}}
    assert result.table()


def test_compare_identical_configs_identical_columns():
    configs = [quad_config(optimizer="came"), quad_config(optimizer="came")]
    result = compare(configs, seeds=[1, 2])
    assert result.labels == ("came", "came#2")
    np.testing.assert_array_equal(result.median_curve["came"], result.median_curve["came#2"])
    assert result.median_final_loss["came"] == result.median_final_loss["came#2"]
    assert result.wins["came"]["came#2"] == 0


def test_compare_rejects_mismatched_problems():
    with pytest.raises(ValueError, match="share the same problem"):
        compare([quad_config(), quad_config(problem_args={"dim": 5})], seeds=[1])
    with pytest.raises(ValueError, match="share the same step count"):
        compare([quad_config(steps=10), quad_config(steps=20)], seeds=[1])


def test_compare_requires_configs_and_seeds():
    with pytest.raises(InvalidConfig) as err:
        compare([], seeds=[1])
    assert err.value.field == "optimizer"
    with pytest.raises(InvalidConfig) as err:
        compare([quad_config()], seeds=[])
    assert err.value.field == "seeds"


def test_compare_rejects_duplicate_seeds():
    # a repeated seed would count twice in the wins and curves but once in the medians
    with pytest.raises(InvalidConfig, match="distinct") as err:
        compare([quad_config(optimizer="came"), quad_config()], seeds=[1, 1, 2])
    assert err.value.field == "seeds"


def test_compare_rejects_negative_seed():
    # RunConfig rejects it too, naming its seed field; compare names its seeds argument
    with pytest.raises(InvalidConfig, match="integer >= 0") as err:
        compare([quad_config()], seeds=[0, -1])
    assert err.value.field == "seeds"


@pytest.mark.parametrize("seed", [1.5, math.nan])
def test_compare_rejects_a_seed_that_is_not_an_integer(seed):
    # 1.5 would otherwise train seed 1 and record it as 1; -1 is the case above
    with pytest.raises(InvalidConfig) as err:
        compare([quad_config()], seeds=[0, seed])
    assert err.value.field == "seeds"


def test_compare_threshold_median():
    configs = [quad_config(optimizer="came", steps=200, threshold=1e-4)]
    result = compare(configs, seeds=[1, 2, 3])
    assert result.median_steps_to_threshold["came"] is not None


def test_write_compare_outputs(tmp_path):
    result = compare(
        [quad_config(optimizer="came"), quad_config(optimizer="adafactor")], seeds=[1]
    )
    paths = write_compare_outputs(result, str(tmp_path / "c"))
    lines = Path(paths["csv"]).read_text().splitlines()
    assert lines[0] == "step,came,adafactor"
    assert len(lines) == 51
    assert os.path.exists(paths["json"])
