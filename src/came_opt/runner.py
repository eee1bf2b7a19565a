"""Deterministic experiment runner: seeded runs, CSV traces, comparisons.

A run is a pure function of its RunConfig: parameters are initialized from
PCG64(seed), the full-batch gradient is stepped `steps` times, and every
recorded quantity except wall-clock time is reproducible bit for bit. In
strict mode the timing column moves to a sidecar file so the main trace and
summary admit byte-identity checks.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .optimizers import (
    VARIANTS,
    InvalidConfig,
    OptimizerConfig,
    make_state,
    state_element_count,
    step_param,
    warmup_lr,
)
from .problems import build_problem, initial_params

TRACE_HEADER = ("step", "loss", "grad_rms", "update_rms", "lr")


@dataclass(frozen=True)
class RunConfig:
    problem: str
    optimizer: str
    steps: int
    seed: int = 0
    problem_args: dict = field(default_factory=dict)
    opt: OptimizerConfig = field(default_factory=OptimizerConfig)
    threshold: Optional[float] = None

    def validate(self) -> "RunConfig":
        if self.steps < 1:
            raise InvalidConfig("steps", f"must be >= 1, got {self.steps}")
        if self.optimizer not in VARIANTS:
            raise InvalidConfig(
                "optimizer", f"unknown optimizer {self.optimizer!r}, expected one of {VARIANTS}"
            )
        self.opt.validate()
        return self


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

    def summary_dict(self, strict: bool = False) -> dict:
        out = {
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
        if not strict:
            out["total_wall_ms"] = self.total_wall_ms
        return out


def run(config: RunConfig) -> RunResult:
    """Train one problem with one optimizer; everything stays in memory."""
    config.validate()
    problem = build_problem(config.problem, config.problem_args)
    params = initial_params(problem, config.seed)
    states = {
        name: make_state(config.optimizer, dims, config.opt)
        for name, dims in problem.param_specs
    }

    n = config.steps
    loss_rec = np.empty(n)
    grad_rec = np.empty(n)
    upd_rec = np.empty(n)
    lr_rec = np.empty(n)
    ms_rec = np.empty(n)

    wall_start = time.perf_counter()
    for t in range(1, n + 1):
        t0 = time.perf_counter()
        loss_rec[t - 1] = problem.loss(params)
        grads = problem.grad(params)
        g_sq = 0.0
        u_sq = 0.0
        count = 0
        for name, _ in problem.param_specs:
            g = grads[name]
            try:
                new_theta = step_param(params[name], g, states[name], config.opt)
            except ValueError as exc:
                raise ValueError(f"parameter {name!r} at step {t}: {exc}") from exc
            # the old theta is the run's own array: it becomes the squared update
            delta = np.subtract(new_theta, params[name], out=params[name])
            params[name] = new_theta
            g_sq += float(np.sum(np.square(g)))
            u_sq += float(np.sum(np.square(delta, out=delta)))
            count += g.size
        grad_rec[t - 1] = math.sqrt(g_sq / count)
        upd_rec[t - 1] = math.sqrt(u_sq / count)
        lr_rec[t - 1] = warmup_lr(t, config.opt)
        ms_rec[t - 1] = (time.perf_counter() - t0) * 1000.0

    final_loss = float(problem.loss(params))
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
        state_elements=sum(state_element_count(s) for s in states.values()),
        total_wall_ms=total_ms,
    )


# ---------------------------------------------------------------------------
# File output
# ---------------------------------------------------------------------------


def atomic_write_text(path: str, text: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_run_outputs(result: RunResult, out_prefix: str, strict: bool = False) -> Dict[str, str]:
    """Write trace CSV and summary JSON; timing goes to a sidecar in strict mode.

    Returns a dict of logical name -> path written.
    """
    trace = result.trace
    header = TRACE_HEADER if strict else TRACE_HEADER + ("elapsed_ms",)
    rows = [",".join(header)]
    for i in range(trace.step.size):
        cells = [
            str(int(trace.step[i])),
            _fmt(trace.loss[i]),
            _fmt(trace.grad_rms[i]),
            _fmt(trace.update_rms[i]),
            _fmt(trace.lr[i]),
        ]
        if not strict:
            cells.append(_fmt(trace.elapsed_ms[i]))
        rows.append(",".join(cells))
    trace_path = f"{out_prefix}_trace.csv"
    atomic_write_text(trace_path, "\n".join(rows) + "\n")

    paths = {"trace": trace_path}
    if strict:
        timing_rows = ["step,elapsed_ms"]
        for i in range(trace.step.size):
            timing_rows.append(f"{int(trace.step[i])},{_fmt(trace.elapsed_ms[i])}")
        timing_path = f"{out_prefix}_timing.csv"
        atomic_write_text(timing_path, "\n".join(timing_rows) + "\n")
        paths["timing"] = timing_path

    summary_path = f"{out_prefix}_summary.json"
    atomic_write_text(
        summary_path,
        json.dumps(result.summary_dict(strict=strict), indent=2, sort_keys=True) + "\n",
    )
    paths["summary"] = summary_path
    return paths


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


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get("CAME_OPT_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"CAME_OPT_THREADS must be an integer, got {raw!r}") from exc
    return max(1, min(cap, n_jobs))


def compare(configs: Sequence[RunConfig], seeds: Sequence[int]) -> CompareResult:
    """Run every (config, seed) pair and summarize relative performance.

    All configs must share the problem, its arguments, and the step count.
    Runs are independent; CAME_OPT_THREADS > 1 executes them in worker
    processes, with results ordered deterministically either way.
    """
    if not configs:
        raise ValueError("compare needs at least one config")
    if not seeds:
        raise ValueError("compare needs at least one seed")
    first = configs[0]
    for cfg in configs[1:]:
        if cfg.problem != first.problem or cfg.problem_args != first.problem_args:
            raise ValueError("compare configs must share the same problem")
        if cfg.steps != first.steps:
            raise ValueError("compare configs must share the same step count")
    for cfg in configs:
        cfg.validate()

    labels: List[str] = []
    seen: Dict[str, int] = {}
    for cfg in configs:
        base = cfg.optimizer
        seen[base] = seen.get(base, 0) + 1
        labels.append(base if seen[base] == 1 else f"{base}#{seen[base]}")

    jobs = [replace(cfg, seed=int(s)) for cfg in configs for s in seeds]
    workers = _worker_count(len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]

    final_losses: Dict[str, Dict[int, float]] = {label: {} for label in labels}
    steps_to: Dict[str, Dict[int, Optional[int]]] = {label: {} for label in labels}
    curves: Dict[str, List[np.ndarray]] = {label: [] for label in labels}
    idx = 0
    for label in labels:
        for s in seeds:
            res = results[idx]
            idx += 1
            final_losses[label][int(s)] = res.final_loss
            steps_to[label][int(s)] = res.steps_to_threshold
            curves[label].append(res.trace.loss)

    median_final = {
        label: float(statistics.median(final_losses[label].values())) for label in labels
    }
    median_thr: Dict[str, Optional[float]] = {}
    for label in labels:
        values = [
            math.inf if v is None else float(v) for v in steps_to[label].values()
        ]
        med = statistics.median(values)
        median_thr[label] = None if math.isinf(med) else med

    wins: Dict[str, Dict[str, int]] = {label: {} for label in labels}
    for a in labels:
        for b in labels:
            if a == b:
                continue
            wins[a][b] = sum(
                1
                for s in seeds
                if final_losses[a][int(s)] < final_losses[b][int(s)]
            )

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
    csv_path = f"{out_prefix}_compare.csv"
    atomic_write_text(csv_path, "\n".join(rows) + "\n")

    json_path = f"{out_prefix}_compare.json"
    atomic_write_text(json_path, json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n")
    return {"csv": csv_path, "json": json_path}
