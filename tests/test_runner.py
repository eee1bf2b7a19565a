import dataclasses
import os

import numpy as np
import pytest

from came_opt.memory_model import state_elements
from came_opt import runner as runner_module
from came_opt.optimizers import VARIANTS, InvalidConfig, OptimizerConfig
from came_opt.problems import build_problem
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


def test_run_rejects_unknown_optimizer():
    with pytest.raises(InvalidConfig) as err:
        run(quad_config(optimizer="sgd"))
    assert err.value.field == "optimizer"


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
    result = run(RunConfig(problem="mlp1", optimizer="came", steps=1, seed=0))
    problem = build_problem("mlp1")
    expected = sum(state_elements("came", dims) for _, dims in problem.param_specs)
    assert result.state_elements == expected


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


def test_write_outputs_plain_mode(tmp_path):
    result = run(quad_config(steps=8))
    paths = write_run_outputs(result, str(tmp_path / "r"), strict=False)
    lines = open(paths["trace"]).read().splitlines()
    assert lines[0] == "step,loss,grad_rms,update_rms,lr,elapsed_ms"
    assert len(lines) == 9
    assert "timing" not in paths
    summary = open(paths["summary"]).read()
    assert "total_wall_ms" in summary


def test_write_outputs_strict_mode(tmp_path):
    result = run(quad_config(steps=8))
    paths = write_run_outputs(result, str(tmp_path / "r"), strict=True)
    lines = open(paths["trace"]).read().splitlines()
    assert lines[0] == "step,loss,grad_rms,update_rms,lr"
    timing = open(paths["timing"]).read().splitlines()
    assert timing[0] == "step,elapsed_ms"
    assert len(timing) == 9
    assert "total_wall_ms" not in open(paths["summary"]).read()


def test_strict_outputs_are_byte_identical_across_runs(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        result = run(quad_config(steps=12))
        paths = write_run_outputs(result, str(tmp_path / tag), strict=True)
        blobs.append(
            (open(paths["trace"], "rb").read(), open(paths["summary"], "rb").read())
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
    with pytest.raises(ValueError):
        compare([], seeds=[1])
    with pytest.raises(ValueError):
        compare([quad_config()], seeds=[])


def test_compare_threshold_median():
    configs = [quad_config(optimizer="came", steps=200, threshold=1e-4)]
    result = compare(configs, seeds=[1, 2, 3])
    assert result.median_steps_to_threshold["came"] is not None


def test_compare_parallel_matches_serial(monkeypatch):
    configs = [quad_config(optimizer="came"), quad_config(optimizer="adam")]
    monkeypatch.delenv("CAME_OPT_THREADS", raising=False)
    serial = compare(configs, seeds=[1, 2])
    monkeypatch.setenv("CAME_OPT_THREADS", "2")
    parallel = compare(configs, seeds=[1, 2])
    assert serial.final_losses == parallel.final_losses
    monkeypatch.setenv("CAME_OPT_THREADS", "zebra")
    with pytest.raises(ValueError, match="CAME_OPT_THREADS"):
        compare(configs, seeds=[1, 2])


def test_write_compare_outputs(tmp_path):
    result = compare(
        [quad_config(optimizer="came"), quad_config(optimizer="adafactor")], seeds=[1]
    )
    paths = write_compare_outputs(result, str(tmp_path / "c"))
    lines = open(paths["csv"]).read().splitlines()
    assert lines[0] == "step,came,adafactor"
    assert len(lines) == 51
    assert os.path.exists(paths["json"])
