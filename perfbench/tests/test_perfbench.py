"""Tests of the benchmark itself: tracer arithmetic, patching, and smoke runs.

Run with `python -m pytest perfbench/tests` from the repository root.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from came_opt import optimizers, runner
from perfbench import bench, measure
from perfbench.tracer import BUILD_PROBLEM, TARGETS, Tracer, patched, self_times
from perfbench.workloads import OPTIMIZERS, WORKLOADS, run_config

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("leaf", 15, 25, 1),
        ("b", 50, 60, 0),
        ("a", 70, 75, 0),
    ]
    self_ns, calls = self_times(spans)
    assert self_ns == {"root": 100 - 30 - 10 - 5, "a": 30 - 10 + 5, "leaf": 10, "b": 10}
    assert calls == {"root": 1, "a": 2, "leaf": 1, "b": 1}


def test_wrap_records_nesting_and_self_time_sums_to_root():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    self_ns, calls = self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(self_ns.values()) == root[2] - root[1]
    assert calls == {"outer": 1, "inner": 2}


def _current_targets():
    return [(m, a, getattr(m, a)) for m, a, _ in TARGETS] + [
        (runner, "build_problem", runner.build_problem)
    ]


def test_patched_restores_every_name_also_on_error():
    before = _current_targets()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with patched(tracer):
            assert all(getattr(m, a) is not f for m, a, f in before)
            raise RuntimeError("boom")
    assert all(getattr(m, a) is f for m, a, f in before)
    assert tracer.missing == []


def test_missing_name_is_reported_not_added(monkeypatch):
    monkeypatch.delattr(optimizers, "full_update")
    tracer = Tracer()
    with patched(tracer):
        assert not hasattr(optimizers, "full_update")
    assert not hasattr(optimizers, "full_update")
    assert tracer.missing == ["factored_moment.full_update"]
    assert BUILD_PROBLEM not in tracer.missing


def test_traced_run_changes_no_arithmetic():
    config = run_config(dataclasses.replace(WORKLOADS["mlp1-small"], steps=5), "came", 3, 0)
    plain = runner.run(config)
    tracer = Tracer()
    with patched(tracer):
        traced = tracer.wrap("runner.run", runner.run)(config)
    assert measure.loss_digest(traced) == measure.loss_digest(plain)
    _, calls = self_times(tracer.spans)
    assert calls["runner.run"] == 1
    assert calls["problems.loss"] == 6  # one per step plus the final loss
    assert calls["optimizers.step_param"] == 5 * 4
    assert calls["tensor.outer_quotient"] == calls["factored_moment.factored_reconstruct"]


def test_state_bytes_match_memory_model():
    for workload in WORKLOADS.values():
        for opt in OPTIMIZERS:
            measured, modelled = measure.state_bytes(workload, opt, 0)
            assert measured == modelled > 0


def test_ledger_counts_a_changed_trajectory_as_failed():
    workload = dataclasses.replace(WORKLOADS["mlp1-small"], steps=3)
    config = run_config(workload, "adam", 0, 0)
    ledger, _ = bench.new_ledger(workload, 0)
    ledger.record(config, runner.run)
    perturbed = dataclasses.replace(config, opt=dataclasses.replace(config.opt, lr=2e-3))
    ledger.record(perturbed, runner.run)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "differs" in ledger.faults[0]


def test_benchmark_json_lists_every_metric_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == bench.end_to_end_names()
    assert [m["name"] for m in spec["per_layer"]] == bench.per_layer_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_of_each_workload(name):
    workload = dataclasses.replace(WORKLOADS[name], sub_seeds=2)
    ledger, metrics, details = bench.end_to_end(workload, 0, 0.01, setup_repeats=1)
    assert ledger.failed == 0, ledger.faults
    assert sorted(metrics) == sorted(bench.end_to_end_names())
    assert all(value > 0 for value, _ in metrics.values())

    ledger, metrics, details = bench.per_layer(workload, 0, 0.01)
    assert ledger.failed == 0, ledger.faults
    assert sorted(metrics) == sorted(bench.per_layer_names())
    assert details["missing"] == []
    for opt in OPTIMIZERS:
        assert metrics[f"optimizers.step_param.calls.{opt}"][0] == len(
            runner.build_problem(workload.problem, workload.problem_args(0)).param_specs
        )
    factored_calls = metrics["factored_moment.factored_update.calls.came"][0]
    assert (factored_calls == 0) == (name == "quadratic-1d")
