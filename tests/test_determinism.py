"""A trajectory does not depend on the BLAS thread count or on array alignment.

The step takes every sum with numpy's own loops (einsum without optimize,
ufunc reductions), never with BLAS (np.dot, @, vdot): BLAS splits a long
reduction across its threads, so its rounding follows the thread count.
numpy's loops may also take a different path for an array that is not
aligned to the SIMD width, so the step is run on views at every 8-byte offset.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import came_opt
from came_opt.optimizers import VARIANTS, OptimizerConfig, make_state, step_param, storage_shape

# a 256 x 256 factored matrix, and a 1-D parameter of 160 KB that the runner recycles
PROBLEMS = ("mlp1:in_dim=256,hidden_dim=256,n_samples=32", "quadratic:dim=20000")


def strict_run(problem, optimizer, threads, out):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(came_opt.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-m", "came_opt", "run", "--problem", problem,
         "--optimizer", optimizer, "--steps", "12", "--seed", "3", "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=120,
    )
    return Path(f"{out}_trace.csv").read_bytes(), Path(f"{out}_summary.json").read_bytes()


@pytest.mark.parametrize("problem", PROBLEMS, ids=["mlp1-256", "quadratic-20000"])
@pytest.mark.parametrize("optimizer", VARIANTS)
def test_strict_outputs_do_not_depend_on_blas_threads(tmp_path, problem, optimizer):
    one = strict_run(problem, optimizer, 1, tmp_path / "one")
    two = strict_run(problem, optimizer, 2, tmp_path / "two")
    assert one == two


def at_offset(a, offset):
    """A C-contiguous copy of a that starts `offset` float64 entries into its buffer."""
    buf = np.empty(a.size + offset)
    view = buf[offset:].reshape(a.shape)
    view[...] = a
    return view


@pytest.mark.parametrize("dims", [(7, 3), (64, 48), (33,), (1, 1)], ids=str)
@pytest.mark.parametrize("variant", VARIANTS)
def test_step_is_bitwise_at_every_8_byte_offset(variant, dims):
    shape = storage_shape(dims)
    cfg = OptimizerConfig(warmup_steps=2)
    rng = np.random.Generator(np.random.PCG64(40))
    theta0 = rng.standard_normal(shape)
    grads = [rng.standard_normal(shape) * rng.uniform(0.01, 10.0) for _ in range(6)]

    def trajectory(offset):
        # theta, every gradient and every spare start `offset` entries into
        # their buffers, so after the first step the state's arrays do too
        state = make_state(variant, dims, cfg)
        theta = at_offset(theta0, offset)
        spare = [at_offset(np.zeros(shape), offset) for _ in range(4)]
        for g in grads:
            new = step_param(theta, at_offset(g, offset), state, cfg, spare)
            spare.append(theta)
            theta = new
        return theta.tobytes(), state.m.tobytes()

    aligned = trajectory(0)
    for offset in range(1, 8):
        assert trajectory(offset) == aligned, f"offset {8 * offset} bytes"
