"""Measurements of came_opt runs: timing blocks, memory peaks, state size, checks.

Every call into `came_opt.runner.run` goes through `Ledger.record`, which
counts it as attempted, checks its outputs and counts it as failed if it
raised or a check did not hold. A run's loss trace is summarized by a
SHA-256 digest; two runs of the same inputs must give the same digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
import tracemalloc
import traceback
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from came_opt import memory_model, optimizers, problems, runner
from came_opt.optimizers import OptimizerConfig
from came_opt.runner import RunConfig, RunResult

from .workloads import LR, Workload


def loss_digest(result: RunResult) -> str:
    """SHA-256 of the per-step losses followed by the final loss, as float64 bytes."""
    h = hashlib.sha256(np.ascontiguousarray(result.trace.loss, dtype=np.float64).tobytes())
    h.update(np.float64(result.final_loss).tobytes())
    return h.hexdigest()


def array_bytes(obj) -> int:
    """nbytes of every ndarray reachable through the fields of a dataclass."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def state_bytes(workload: Workload, optimizer: str, seed: int) -> Tuple[int, int]:
    """(bytes make_state allocates, 8 x memory_model.state_elements) over the params."""
    s = workload.sub_seed(seed, 0)
    problem = problems.build_problem(workload.problem, workload.problem_args(s))
    cfg = OptimizerConfig(lr=LR)
    measured = 0
    modelled = 0
    for _, dims in problem.param_specs:
        measured += array_bytes(optimizers.make_state(optimizer, dims, cfg))
        modelled += 8 * memory_model.state_elements(optimizer, dims)
    return measured, modelled


def check_result(result: RunResult, expected_state_bytes: int) -> List[str]:
    """Reasons the run's outputs are wrong; empty when they are right."""
    faults = []
    losses = np.append(result.trace.loss, result.final_loss)
    if not np.all(np.isfinite(losses)):
        faults.append("non-finite loss")
    elif not result.final_loss < result.trace.loss[0]:
        first = float(result.trace.loss[0])
        faults.append(f"final loss {result.final_loss!r} not below first {first!r}")
    if 8 * result.state_elements != expected_state_bytes:
        faults.append(
            f"runner counts {result.state_elements} state elements, "
            f"memory_model {expected_state_bytes // 8}"
        )
    return faults


class Ledger:
    """Counts runs attempted and failed, and keeps each input's loss digest."""

    def __init__(self, expected_state_bytes: Dict[str, int]):
        self.expected_state_bytes = expected_state_bytes
        self.attempted = 0
        self.failed = 0
        self.faults: List[str] = []
        self.digests: Dict[Tuple[str, int], str] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.faults.append(message)

    def record(
        self, config: RunConfig, call: Callable[[RunConfig], RunResult]
    ) -> Optional[Tuple[RunResult, float]]:
        """Run `call(config)`; return (result, wall seconds), or None if it raised."""
        self.attempted += 1
        label = f"{config.optimizer} seed {config.seed}"
        start = time.perf_counter()
        try:
            result = call(config)
        except Exception:  # a failed run is counted and reported, the benchmark goes on
            self.fail(f"{label}: raised\n{traceback.format_exc()}")
            return None
        wall = time.perf_counter() - start
        faults = check_result(result, self.expected_state_bytes[config.optimizer])
        digest = loss_digest(result)
        first = self.digests.setdefault((config.optimizer, config.seed), digest)
        if digest != first:
            faults.append("loss trace differs from an earlier run of the same inputs")
        if faults:
            self.fail(f"{label}: " + "; ".join(faults))
        return result, wall

    def digest_of(self, optimizer: str) -> str:
        """One SHA-256 over the digests of every input this optimizer ran, in seed order."""
        h = hashlib.sha256()
        for (opt, seed), digest in sorted(self.digests.items()):
            if opt == optimizer:
                h.update(f"{seed}:{digest}\n".encode())
        return h.hexdigest()


def run_peak_bytes(ledger: Ledger, config: RunConfig) -> Optional[int]:
    """tracemalloc peak over one whole runner.run, after a warm-up run of the same inputs."""
    if ledger.record(config, runner.run) is None:
        return None
    tracemalloc.start()
    try:
        outcome = ledger.record(config, runner.run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return None if outcome is None else peak


def step_param_peak_bytes(workload: Workload, optimizer: str, seed: int) -> int:
    """tracemalloc peak inside one step_param on the workload's largest parameter.

    The state has taken two steps first, so the accumulators are in use.
    """
    s = workload.sub_seed(seed, 0)
    problem = problems.build_problem(workload.problem, workload.problem_args(s))
    params = problems.initial_params(problem, s)
    name, dims = max(problem.param_specs, key=lambda spec: math.prod(spec[1]))
    cfg = OptimizerConfig(lr=LR)
    state = optimizers.make_state(optimizer, dims, cfg)
    for _ in range(2):
        params[name] = optimizers.step_param(params[name], problem.grad(params)[name], state, cfg)
    g = problem.grad(params)[name]
    theta = params[name]
    tracemalloc.start()
    try:
        optimizers.step_param(theta, g, state, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
