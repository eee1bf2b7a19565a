"""Outside-in tracer for came_opt: spans recorded around module-level names.

The program itself is not instrumented. While a `patched` block is active,
the public names that `runner`, `optimizers` and `factored_moment` look up
at call time are replaced by wrappers that record one span per call, and
`runner.build_problem` returns a Problem whose `loss` and `grad` are wrapped
the same way. Every original is put back when the block exits, also on error.

A span is (name, start_ns, end_ns, parent index or -1). Spans stay in memory;
`self_times` turns them into per-name self time (a span's duration minus the
durations of its direct children) and call counts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from typing import Callable, Dict, List, Tuple

from came_opt import factored_moment, optimizers, runner

Span = Tuple[str, int, int, int]

# (module, attribute looked up at call time, span name). The span name is the
# layer that defines the function, which is not always the module that calls it.
TARGETS = (
    (runner, "initial_params", "problems.initial_params"),
    (runner, "make_state", "optimizers.make_state"),
    (runner, "step_param", "optimizers.step_param"),
    (optimizers, "clip_by_rms", "optimizers.clip_by_rms"),
    (optimizers, "rms", "tensor.rms"),
    (optimizers, "factored_update", "factored_moment.factored_update"),
    (optimizers, "factored_reconstruct", "factored_moment.factored_reconstruct"),
    (optimizers, "full_update", "factored_moment.full_update"),
    (factored_moment, "row_sums", "tensor.row_sums"),
    (factored_moment, "col_sums", "tensor.col_sums"),
    (factored_moment, "outer_quotient", "tensor.outer_quotient"),
)
# Problem fields wrapped on every Problem that runner.build_problem returns.
PROBLEM_FIELDS = (("loss", "problems.loss"), ("grad", "problems.grad"))
BUILD_PROBLEM = "problems.build_problem"


class Tracer:
    """Collects spans from the wrappers it makes, until `clear` empties them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.missing: List[str] = []

    def report_missing(self, name: str) -> None:
        if name not in self.missing:
            self.missing.append(name)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def wrap_build_problem(self, build: Callable) -> Callable:
        wrapped = self.wrap(BUILD_PROBLEM, build)

        @functools.wraps(build)
        def build_traced(*args, **kwargs):
            problem = wrapped(*args, **kwargs)
            fields = {}
            for attr, span_name in PROBLEM_FIELDS:
                if hasattr(problem, attr):
                    fields[attr] = self.wrap(span_name, getattr(problem, attr))
                else:
                    self.report_missing(span_name)
            return dataclasses.replace(problem, **fields)

        return build_traced


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers on every target name; restore on exit.

    A target that no longer exists is listed in `tracer.missing` and left
    absent, so a renamed or deleted function is reported, not re-created.
    """
    saved = []
    try:
        for module, attr, span_name in TARGETS:
            if not hasattr(module, attr):
                tracer.report_missing(span_name)
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        if hasattr(runner, "build_problem"):
            original = runner.build_problem
            saved.append((runner, "build_problem", original))
            runner.build_problem = tracer.wrap_build_problem(original)
        else:
            tracer.report_missing(BUILD_PROBLEM)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: List[Span]) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Per-name self time in ns and call count.

    Self time is the span's duration minus the durations of its direct
    children, summed over all spans of that name.
    """
    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    for name, start, end, parent in spans:
        duration = end - start
        self_ns[name] = self_ns.get(name, 0) + duration
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            parent_name = spans[parent][0]
            self_ns[parent_name] = self_ns.get(parent_name, 0) - duration
    return self_ns, calls
