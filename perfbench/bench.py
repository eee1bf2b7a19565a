"""One benchmark run of one workload: end-to-end metrics, or the traced per-layer split.

A block is one `came_opt.runner.run` call of `workload.steps` steps on one
sub-seed; its time per step is the call's wall time divided by its steps.
A round runs the workload's reference kernel once and then one block per
optimizer, in an order reversed every other round, so all three optimizers
and the kernel see the same machine.

`step_cost.<opt>` is the median over rounds of the block's time per step
divided by the kernel's time in the same round (see reference.py for why).
The raw time per step is printed beside it: median, 5th percentile, a tail
percentile and the sample count.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from came_opt import runner

from . import measure
from .reference import Reference
from .tracer import Tracer, patched, self_times
from .workloads import OPTIMIZERS, Workload, run_config

SETUP_REPEATS = 7
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

# Per-layer names, each reported once per optimizer with the suffix .<opt>.
SELF_TIME_SPANS = (
    "runner.run",
    "problems.loss",
    "problems.grad",
    "optimizers.step_param",
    "optimizers.clip_by_rms",
    "factored_moment.factored_update",
    "factored_moment.factored_reconstruct",
    "factored_moment.full_update",
    "tensor.row_sums",
    "tensor.col_sums",
    "tensor.rms",
    "tensor.outer_quotient",
)
CALL_COUNT_SPANS = tuple(
    n for n in SELF_TIME_SPANS if n not in ("runner.run", "optimizers.clip_by_rms")
)

Metrics = Dict[str, Tuple[float, str]]


def end_to_end_names() -> List[str]:
    kinds = ("step_cost", "peak_bytes", "state_bytes", "final_loss_ratio")
    return [f"{kind}.{opt}" for kind in kinds for opt in OPTIMIZERS] + ["setup_s"]


def per_layer_names() -> List[str]:
    names = []
    for opt in OPTIMIZERS:
        names += [f"{span}.self_us.{opt}" for span in SELF_TIME_SPANS]
        names += [f"{span}.calls.{opt}" for span in CALL_COUNT_SPANS]
        names += [f"optimizers.step_param.peak_bytes.{opt}", f"trace.overhead_us.{opt}"]
    return names


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def timing_summary(samples: List[float]) -> Dict[str, float]:
    """Median, 5th percentile, the highest of p99/p95/p90/p75 with at least
    ten samples above it (else the median), and the sample count."""
    if not samples:
        return {"median": 0.0, "p5": 0.0, "tail_pct": 50, "tail": 0.0, "n": 0}
    n = len(samples)
    tail_pct = next((p for p in (99, 95, 90, 75) if n * (100 - p) / 100 >= 10), 50)
    return {
        "median": median(samples),
        "p5": float(np.percentile(samples, 5)),
        "tail_pct": tail_pct,
        "tail": float(np.percentile(samples, tail_pct)),
        "n": n,
    }


def geometric_mean(values: List[float]) -> float:
    """Geometric mean of the positive finite values (0.0 when there are none)."""
    kept = [v for v in values if math.isfinite(v) and v > 0.0]
    return math.exp(statistics.fmean(math.log(v) for v in kept)) if kept else 0.0


def new_ledger(workload: Workload, seed: int) -> Tuple[measure.Ledger, Dict[str, int]]:
    """A ledger expecting the memory model's state size, and the bytes make_state allocates.

    Allocated bytes that disagree with the model are recorded as a failure.
    """
    expected = {}
    allocated = {}
    for opt in OPTIMIZERS:
        allocated[opt], expected[opt] = measure.state_bytes(workload, opt, seed)
    ledger = measure.Ledger(expected)
    for opt in OPTIMIZERS:
        if allocated[opt] != expected[opt]:
            ledger.fail(
                f"{opt}: make_state allocates {allocated[opt]} bytes, "
                f"memory_model counts {expected[opt]}"
            )
    return ledger, allocated


def measure_setup(
    ledger: measure.Ledger, workload: Workload, seed: int, repeats: int
) -> List[float]:
    """Seconds from starting a fresh interpreter to its first step, once per repeat.

    Each probe is an attempted run; one that fails or prints no time is a failed one.
    """
    times = []
    for _ in range(repeats):
        ledger.attempted += 1
        start = time.perf_counter()
        try:
            out = subprocess.run(
                [sys.executable, str(PROBE), workload.name, str(seed)],
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            times.append(float(out.stdout.split()[-1]) - start)
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            stderr = getattr(exc, "stderr", "") or ""
            ledger.fail(f"setup probe: {exc}\n{stderr}")
    return times


def _rounds(min_rounds: int, seconds: float):
    """(round index, optimizer order): at least min_rounds, then more until `seconds` pass."""
    deadline = time.perf_counter() + seconds
    j = 0
    while j < min_rounds or time.perf_counter() < deadline:
        yield j, (OPTIMIZERS if j % 2 == 0 else OPTIMIZERS[::-1])
        j += 1


def end_to_end(
    workload: Workload, seed: int, seconds: float, setup_repeats: int = SETUP_REPEATS
) -> Tuple[measure.Ledger, Metrics, dict]:
    ledger, allocated = new_ledger(workload, seed)
    setup = measure_setup(ledger, workload, seed, setup_repeats)
    metrics: Metrics = {"setup_s": (median(setup), "s")}
    for opt in OPTIMIZERS:
        metrics[f"state_bytes.{opt}"] = (float(allocated[opt]), "bytes")
        peak = measure.run_peak_bytes(ledger, run_config(workload, opt, seed, 0))
        metrics[f"peak_bytes.{opt}"] = (float(peak or 0), "bytes")

    reference = Reference(workload.reference)
    ref_us: List[float] = []
    step_us: Dict[str, List[float]] = {opt: [] for opt in OPTIMIZERS}
    cost: Dict[str, List[float]] = {opt: [] for opt in OPTIMIZERS}
    loss_ratio: Dict[str, List[float]] = {opt: [] for opt in OPTIMIZERS}
    for j, order in _rounds(workload.sub_seeds, seconds):
        ref_us.append(reference.time_us())
        for opt in order:
            config = run_config(workload, opt, seed, j)
            outcome = ledger.record(config, runner.run)
            if outcome is None:
                continue
            result, wall = outcome
            us = wall / config.steps * 1e6
            step_us[opt].append(us)
            cost[opt].append(us / ref_us[-1])
            if j < workload.sub_seeds:
                loss_ratio[opt].append(result.final_loss / result.trace.loss[0])

    details = {
        "setup_s": setup,
        "reference_us": timing_summary(ref_us),
        "step_us": {},
        "digests": {},
    }
    for opt in OPTIMIZERS:
        metrics[f"step_cost.{opt}"] = (median(cost[opt]), "ref")
        metrics[f"final_loss_ratio.{opt}"] = (geometric_mean(loss_ratio[opt]), "ratio")
        details["step_us"][opt] = timing_summary(step_us[opt])
        details["digests"][opt] = ledger.digest_of(opt)
    return ledger, metrics, details


def per_layer(
    workload: Workload, seed: int, seconds: float
) -> Tuple[measure.Ledger, Metrics, dict]:
    """Untraced and traced runs of the same inputs, paired within each round.

    The ledger requires both to give the same loss-trace digest. Self times
    are medians over traced runs; the tracing overhead is the median of the
    paired differences.
    """
    ledger, _ = new_ledger(workload, seed)
    tracer = Tracer()
    traced_run = tracer.wrap("runner.run", runner.run)
    overhead: Dict[str, List[float]] = {opt: [] for opt in OPTIMIZERS}
    self_us: Dict[str, Dict[str, List[float]]] = {
        opt: {n: [] for n in SELF_TIME_SPANS} for opt in OPTIMIZERS
    }
    calls: Dict[str, Dict[str, float]] = {opt: {} for opt in OPTIMIZERS}

    def untraced_block(opt: str, config) -> float:
        outcome = ledger.record(config, runner.run)
        return math.nan if outcome is None else outcome[1] / config.steps * 1e6

    def traced_block(opt: str, config) -> float:
        tracer.clear()
        with patched(tracer):
            outcome = ledger.record(config, traced_run)
        if outcome is None:
            return math.nan
        block_self, block_calls = self_times(tracer.spans)
        for name in SELF_TIME_SPANS:
            self_us[opt][name].append(block_self.get(name, 0) / 1e3 / config.steps)
        calls[opt] = {n: block_calls.get(n, 0) / config.steps for n in CALL_COUNT_SPANS}
        return outcome[1] / config.steps * 1e6

    for j, order in _rounds(2, seconds):
        for opt in order:
            config = run_config(workload, opt, seed, j)
            if j % 2 == 0:
                plain_us, traced_us = untraced_block(opt, config), traced_block(opt, config)
            else:
                traced_us, plain_us = traced_block(opt, config), untraced_block(opt, config)
            if math.isfinite(plain_us) and math.isfinite(traced_us):
                overhead[opt].append(traced_us - plain_us)

    metrics: Metrics = {}
    for opt in OPTIMIZERS:
        for name in SELF_TIME_SPANS:
            metrics[f"{name}.self_us.{opt}"] = (median(self_us[opt][name]), "us")
        for name in CALL_COUNT_SPANS:
            metrics[f"{name}.calls.{opt}"] = (calls[opt].get(name, 0.0), "calls/step")
        peak = measure.step_param_peak_bytes(workload, opt, seed)
        metrics[f"optimizers.step_param.peak_bytes.{opt}"] = (float(peak), "bytes")
        metrics[f"trace.overhead_us.{opt}"] = (median(overhead[opt]), "us")
    details = {
        "missing": list(tracer.missing),
        "digests": {opt: ledger.digest_of(opt) for opt in OPTIMIZERS},
    }
    return ledger, metrics, details
