"""The benchmark's workloads: which problem each runs, and why.

Every workload runs the same three optimizers at lr 1e-3. A run of the
benchmark draws its inputs from the workload seed: sub-seed j of seed s is
s * sub_seeds + j, and each sub-seed seeds both RunConfig.seed (the initial
parameters) and the problem's dataset. The quality metric, final over first
loss, is a geometric mean over all sub-seeds, because one mlp1 dataset alone
moves it by tens of percent; quadratic-1d's loss hardly depends on the seed,
so it needs few.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from came_opt.optimizers import OptimizerConfig
from came_opt.runner import RunConfig

OPTIMIZERS = ("came", "adafactor", "adam")
LR = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    args: Tuple[Tuple[str, object], ...]
    steps: int  # steps per runner.run call (one timed block)
    sub_seeds: int  # distinct inputs per benchmark run
    reference: str  # reference kernel that times the machine alongside (reference.py)
    why: str
    exercises: str
    bypasses: str

    def problem_args(self, seed: int) -> Dict[str, object]:
        return dict(self.args, seed=seed)

    def sub_seed(self, seed: int, j: int) -> int:
        return seed * self.sub_seeds + j % self.sub_seeds


def run_config(workload: Workload, optimizer: str, seed: int, j: int) -> RunConfig:
    """The RunConfig of one block: sub-seed j of the workload seed."""
    s = workload.sub_seed(seed, j)
    return RunConfig(
        problem=workload.problem,
        optimizer=optimizer,
        steps=workload.steps,
        seed=s,
        problem_args=workload.problem_args(s),
        opt=OptimizerConfig(lr=LR),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mlp1-small",
            problem="mlp1",
            args=(),
            steps=20,
            sub_seeds=96,
            reference="small",
            why=(
                "mlp1 defaults (16-32-1, 512 samples), the acceptance config: every "
                "matrix is at most 16x32, so a step costs numpy call overhead and "
                "Python dispatch, and problem loss+grad is about half a came step"
            ),
            exercises="runner bookkeeping, problems loss/grad, per-call overhead of every layer",
            bypasses=(
                "large-array work: the optimizer's memory peak is negligible next to "
                "the 512x32 activations, so memory work should show no change here"
            ),
        ),
        Workload(
            name="mlp1-wide",
            problem="mlp1",
            args=(("in_dim", 512), ("hidden_dim", 512), ("out_dim", 1), ("n_samples", 32)),
            steps=16,  # at 8 steps came ends above its first loss on about 2% of inputs
            sub_seeds=48,
            reference="large",
            why=(
                "one 512x512 factored matrix, so elementwise passes over 2 MB arrays "
                "dominate; this is where the paper's memory claim shows, step peak "
                "against persistent state"
            ),
            exercises=(
                "optimizers.step_param, factored_update with row/col sums, "
                "outer_quotient, clip_by_rms"
            ),
            bypasses="little: problems loss+grad is only about 12% of a came step",
        ),
        Workload(
            name="quadratic-1d",
            problem="quadratic",
            args=(("dim", 262144), ("condition_number", 100)),
            steps=8,
            sub_seeds=8,
            reference="large",
            why=(
                "one logical 1-D parameter stored as a 262144x1 column goes through "
                "the unfactored FullEMA fallback; the only workload whose state_bytes "
                "moves if the 1-D state policy changes"
            ),
            exercises="factored_moment.full_update, optimizers.step_param, clip_by_rms",
            bypasses=(
                "the factored path: factored_update, factored_reconstruct and "
                "outer_quotient are never called, so work there should show no change"
            ),
        ),
    )
}
