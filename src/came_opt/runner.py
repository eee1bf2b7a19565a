"""Deterministic experiment runner: seeded runs, CSV traces, comparisons.

A run is a pure function of its RunConfig: parameters are initialized from
PCG64(seed), the full-batch gradient is stepped `steps` times, and every
recorded quantity except wall-clock time is reproducible bit for bit. The
wall-clock timing goes to a sidecar file, so the trace and summary files of
two runs of one config are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .optimizers import (
    VARIANTS,
    InvalidConfig,
    OptimizerConfig,
    make_state,
    require_integer,
    state_elements,
    step_param,
    warmup_lr,
)
from .problems import build_problem, initial_params, problem_builder

TRACE_HEADER = ("step", "loss", "grad_rms", "update_rms", "lr")

# glibc's default mmap threshold: a freed block at least this large goes back
# to the kernel, and its pages fault in again when it is reallocated. Smaller
# blocks are reused from the heap's bins, where recycling only adds checks.
RECYCLE_BYTES = 128 * 1024


@dataclass(frozen=True)
class RunConfig:
    problem: str
    optimizer: str
    steps: int
    seed: int = 0
    problem_args: dict = field(default_factory=dict)
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        # a fractional seed would train as its truncation yet be recorded as given
        require_integer("steps", self.steps, 1)
        require_integer("seed", self.seed, 0)
        if self.optimizer not in VARIANTS:
            raise InvalidConfig(
                "optimizer", f"unknown optimizer {self.optimizer!r}, expected one of {VARIANTS}"
            )
        if self.threshold is not None and math.isnan(self.threshold):
            raise InvalidConfig("threshold", "must be a number, got nan")
        # the name only: its arguments are checked when run builds the problem
        problem_builder(self.problem)


@dataclass(frozen=True)
class TrainTrace:
    """Per-step records; row t holds the loss at the point the step started from."""

    step: np.ndarray
    loss: np.ndarray
    grad_rms: np.ndarray
    update_rms: np.ndarray
    lr: np.ndarray
    elapsed_ms: np.ndarray


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    trace: TrainTrace
    final_loss: float
    best_loss: float
    steps_to_threshold: Optional[int]
    state_elements: int
    total_wall_ms: float

    def summary_dict(self) -> dict:
        return {
            "problem": self.config.problem,
            "problem_args": dict(self.config.problem_args),
            "optimizer": self.config.optimizer,
            "steps": self.config.steps,
            "seed": self.config.seed,
            "optimizer_config": asdict(self.config.opt),
            "threshold": self.config.threshold,
            "final_loss": self.final_loss,
            "best_loss": self.best_loss,
            "steps_to_threshold": self.steps_to_threshold,
            "state_elements": self.state_elements,
        }


def run(config: RunConfig) -> RunResult:
    """Train one problem with one optimizer; everything stays in memory.

    A NaN or infinite loss, at a step or at the end, raises ValueError naming
    the step: a diverged run records nothing past it.
    """
    problem = build_problem(config.problem, config.problem_args)
    params = initial_params(problem, config.seed)
    states = {
        name: make_state(config.optimizer, dims, config.opt)
        for name, dims in problem.param_specs
    }
    # the arrays the last step retired or worked in, kept for the parameters
    # whose arrays glibc hands back to the kernel when freed: step_param writes
    # into them, so a warm step reuses their pages instead of faulting in fresh ones
    spares = {name: [] if p.nbytes >= RECYCLE_BYTES else None for name, p in params.items()}

    n = config.steps
    loss_rec = np.empty(n)
    grad_rec = np.empty(n)
    upd_rec = np.empty(n)
    lr_rec = np.empty(n)
    ms_rec = np.empty(n)

    wall_start = time.perf_counter()
    for t in range(1, n + 1):
        t0 = time.perf_counter()
        loss = problem.loss(params)
        if not math.isfinite(loss):
            raise ValueError(f"loss is {loss!r} at step {t}: the run diverged")
        loss_rec[t - 1] = loss
        grads = problem.grad(params)
        g_sq = 0.0
        u_sq = 0.0
        count = 0
        for name, _ in problem.param_specs:
            g = grads[name]
            spare = spares[name]
            # np.sum(a) is np.add.reduce(a, axis=None) behind two Python frames;
            # g^2 goes into the spare the step overwrites first, or a temporary
            g_sq += float(np.add.reduce(np.square(g, out=spare[-1] if spare else None), axis=None))
            count += g.size
            try:
                new_theta = step_param(params[name], g, states[name], config.opt, spare)
            except ValueError as exc:
                raise ValueError(f"parameter {name!r} at step {t}: {exc}") from exc
            # the new theta is in g's array; the old theta, the run's own array,
            # becomes the squared update and is freed before the next step
            delta = np.subtract(new_theta, params[name], out=params[name])
            params[name] = new_theta
            u_sq += float(np.add.reduce(np.square(delta, out=delta), axis=None))
            del delta
        grad_rec[t - 1] = math.sqrt(g_sq / count)
        upd_rec[t - 1] = math.sqrt(u_sq / count)
        lr_rec[t - 1] = warmup_lr(t, config.opt)
        ms_rec[t - 1] = (time.perf_counter() - t0) * 1000.0

    final_loss = float(problem.loss(params))
    if not math.isfinite(final_loss):
        raise ValueError(f"final loss is {final_loss!r} after step {n}: the run diverged")
    total_ms = (time.perf_counter() - wall_start) * 1000.0

    steps_to = None
    if config.threshold is not None:
        for t in range(1, n + 1):
            value = loss_rec[t] if t < n else final_loss
            if value <= config.threshold:
                steps_to = t
                break

    trace = TrainTrace(
        step=np.arange(1, n + 1),
        loss=loss_rec,
        grad_rms=grad_rec,
        update_rms=upd_rec,
        lr=lr_rec,
        elapsed_ms=ms_rec,
    )
    return RunResult(
        config=config,
        trace=trace,
        final_loss=final_loss,
        best_loss=min(float(loss_rec.min()), final_loss),
        steps_to_threshold=steps_to,
        state_elements=sum(state_elements(config.optimizer, d) for _, d in problem.param_specs),
        total_wall_ms=total_ms,
    )


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------


# each writer's files: kind -> the suffix its path adds to the output prefix
RUN_OUTPUTS = {"trace": "_trace.csv", "summary": "_summary.json", "timing": "_timing.csv"}
COMPARE_OUTPUTS = {"csv": "_compare.csv", "json": "_compare.json"}


def check_outputs(out_prefix: str, suffixes: Dict[str, str]) -> Dict[str, str]:
    """Return kind -> path, creating nothing. InvalidConfig("out") if a path is a
    directory, or the nearest existing ancestor of its directory is not a
    writable directory."""
    paths = {kind: out_prefix + suffix for kind, suffix in suffixes.items()}
    for path in paths.values():
        if os.path.isdir(path):
            raise InvalidConfig("out", f"{path} is a directory")
        ancestor = os.path.dirname(os.path.abspath(path))
        while not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise InvalidConfig("out", f"{ancestor} is not a directory")
        if not os.access(ancestor, os.W_OK):
            raise InvalidConfig("out", f"{ancestor} is not writable")
    return paths


def write_outputs(
    out_prefix: str, suffixes: Dict[str, str], lines: Dict[str, List[str]]
) -> Dict[str, str]:
    """Write each kind's lines to out_prefix + its suffix, making its directory, through
    a temp file that is renamed into place, or removed if the write fails.
    Returns kind -> path written; a failed write raises InvalidConfig("out")."""
    paths = check_outputs(out_prefix, suffixes)
    try:
        for kind, path in paths.items():
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            try:
                with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write("\n".join(lines[kind]) + "\n")
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
    except OSError as exc:
        raise InvalidConfig("out", str(exc)) from exc
    return paths


def _fmt(x: float) -> str:
    return repr(float(x))


def write_run_outputs(result: RunResult, out_prefix: str) -> Dict[str, str]:
    """Write the trace CSV, the summary JSON and the timing sidecar CSV.

    Only the sidecar holds wall-clock time, so the trace and summary of two
    runs of one config are byte-identical. Returns logical name -> path written.
    """
    trace = result.trace
    rows = [",".join(TRACE_HEADER)]
    timing_rows = ["step,elapsed_ms"]
    for i in range(trace.step.size):
        step = str(int(trace.step[i]))
        values = (trace.loss[i], trace.grad_rms[i], trace.update_rms[i], trace.lr[i])
        rows.append(",".join([step, *map(_fmt, values)]))
        timing_rows.append(f"{step},{_fmt(trace.elapsed_ms[i])}")
    summary = json.dumps(result.summary_dict(), indent=2, sort_keys=True)
    return write_outputs(
        out_prefix, RUN_OUTPUTS, {"trace": rows, "summary": [summary], "timing": timing_rows}
    )


# ---------------------------------------------------------------------------
# Comparison across optimizers and seeds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompareResult:
    problem: str
    steps: int
    seeds: Tuple[int, ...]
    labels: Tuple[str, ...]
    final_losses: Dict[str, Dict[int, float]]  # label -> seed -> final loss
    median_final_loss: Dict[str, float]
    median_steps_to_threshold: Dict[str, Optional[float]]
    wins: Dict[str, Dict[str, int]]  # label -> other label -> win count
    median_curve: Dict[str, np.ndarray]  # label -> per-step median loss

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "steps": self.steps,
            "seeds": list(self.seeds),
            "optimizers": {
                label: {
                    "median_final_loss": self.median_final_loss[label],
                    "median_steps_to_threshold": self.median_steps_to_threshold[label],
                    "final_losses": {str(s): self.final_losses[label][s] for s in self.seeds},
                    "wins": dict(self.wins[label]),
                }
                for label in self.labels
            },
        }

    def table(self) -> str:
        width = max(len(label) for label in self.labels)
        lines = [
            f"problem {self.problem}, {self.steps} steps, seeds {list(self.seeds)}",
            f"{'optimizer':<{width + 2}} {'median final loss':>18} {'median steps-to-thr':>20} wins",
        ]
        for label in self.labels:
            thr = self.median_steps_to_threshold[label]
            thr_s = "-" if thr is None else f"{thr:g}"
            win_s = " ".join(f"{o}:{c}" for o, c in sorted(self.wins[label].items()))
            lines.append(
                f"{label:<{width + 2}} {self.median_final_loss[label]:>18.6e} {thr_s:>20} {win_s}"
            )
        return "\n".join(lines)


def compare(configs: Sequence[RunConfig], seeds: Sequence[int]) -> CompareResult:
    """Run every (config, seed) pair and summarize relative performance.

    All configs must share the problem, its arguments, and the step count.
    No configs raise InvalidConfig("optimizer"); no seeds, or a seed that is
    not a nonnegative integer or is repeated, raise InvalidConfig("seeds").
    """
    if not configs:
        raise InvalidConfig("optimizer", "expected at least one optimizer config")
    if not seeds:
        raise InvalidConfig("seeds", "expected at least one seed")
    for s in seeds:
        require_integer("seeds", s, 0)
    if len({int(s) for s in seeds}) != len(seeds):
        raise InvalidConfig("seeds", f"expected distinct seeds, got {list(seeds)}")
    first = configs[0]
    for cfg in configs[1:]:
        if cfg.problem != first.problem or cfg.problem_args != first.problem_args:
            raise ValueError("compare configs must share the same problem")
        if cfg.steps != first.steps:
            raise ValueError("compare configs must share the same step count")

    labels: List[str] = []
    seen: Dict[str, int] = {}
    for cfg in configs:
        base = cfg.optimizer
        seen[base] = seen.get(base, 0) + 1
        labels.append(base if seen[base] == 1 else f"{base}#{seen[base]}")

    final_losses: Dict[str, Dict[int, float]] = {label: {} for label in labels}
    steps_to: Dict[str, Dict[int, Optional[int]]] = {label: {} for label in labels}
    curves: Dict[str, List[np.ndarray]] = {label: [] for label in labels}
    for label, cfg in zip(labels, configs):
        for s in seeds:
            res = run(replace(cfg, seed=int(s)))
            final_losses[label][int(s)] = res.final_loss
            steps_to[label][int(s)] = res.steps_to_threshold
            curves[label].append(res.trace.loss)

    median_final = {
        label: float(statistics.median(final_losses[label].values())) for label in labels
    }
    median_thr: Dict[str, Optional[float]] = {}
    for label in labels:
        values = [math.inf if v is None else float(v) for v in steps_to[label].values()]
        med = statistics.median(values)
        median_thr[label] = None if math.isinf(med) else med

    wins: Dict[str, Dict[str, int]] = {label: {} for label in labels}
    for a in labels:
        for b in labels:
            if a == b:
                continue
            wins[a][b] = sum(final_losses[a][int(s)] < final_losses[b][int(s)] for s in seeds)

    median_curve = {
        label: np.median(np.stack(curves[label], axis=0), axis=0) for label in labels
    }
    return CompareResult(
        problem=first.problem,
        steps=first.steps,
        seeds=tuple(int(s) for s in seeds),
        labels=tuple(labels),
        final_losses=final_losses,
        median_final_loss=median_final,
        median_steps_to_threshold=median_thr,
        wins=wins,
        median_curve=median_curve,
    )


def write_compare_outputs(result: CompareResult, out_prefix: str) -> Dict[str, str]:
    """Combined per-step median-loss CSV (one column per optimizer) plus JSON."""
    header = "step," + ",".join(result.labels)
    rows = [header]
    for i in range(result.steps):
        cells = [str(i + 1)] + [_fmt(result.median_curve[label][i]) for label in result.labels]
        rows.append(",".join(cells))
    summary = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    return write_outputs(out_prefix, COMPARE_OUTPUTS, {"csv": rows, "json": [summary]})
