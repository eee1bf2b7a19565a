"""Fresh-interpreter probe behind the setup_s metric.

Run as `python3 perfbench/setup_probe.py <workload> <seed>`. It imports the
package, then trains the workload's first input with came for one step
through `came_opt.runner.run`, and prints `time.perf_counter()` at the first
call into the problem (loss or gradient), which is where the first step
starts. The parent takes its own perf_counter just before it starts this
process; both read the same monotonic clock, so the difference is the time
from a fresh interpreter to the first step.
"""

import dataclasses
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload_name, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from came_opt import runner

    from perfbench.workloads import WORKLOADS, run_config

    stamps = []

    def first_call(fn):
        def stamped(*args, **kwargs):
            if not stamps:
                stamps.append(time.perf_counter())
            return fn(*args, **kwargs)

        return stamped

    build = runner.build_problem

    def build_stamped(*args, **kwargs):
        problem = build(*args, **kwargs)
        return dataclasses.replace(
            problem, loss=first_call(problem.loss), grad=first_call(problem.grad)
        )

    runner.build_problem = build_stamped
    config = dataclasses.replace(run_config(WORKLOADS[workload_name], "came", seed, 0), steps=1)
    runner.run(config)
    print(repr(stamps[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
