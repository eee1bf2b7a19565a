"""Print sha256 digests of `came-bench run` and `came-bench memory` outputs.

Each run line is `<trace digest>  <summary digest>  <optimizer>  <problem>`:
the sha256 of the run's trace CSV, then of its summary JSON, over a fixed
matrix of optimizers, problems, steps and seed. The two columns tell a moved
trajectory (the trace) from a change to the summary's metadata alone.
Neither file holds wall-clock time (that goes to the run's timing sidecar),
so each digest is reproducible. Each memory line is `<report digest>  memory
<arguments>`: the sha256 of the memory report JSON for a few argument sets.
`STRICT_DIGESTS.txt` at the repository root holds this output; a change that
moves any of these bytes regenerates it and says why:

    python scripts/strict_digests.py > STRICT_DIGESTS.txt

--src imports `came_opt` from another checkout's `src/` directory, so one
machine can compare two commits with the same script (CI runs it on a
commit and on its parent):

    python scripts/strict_digests.py --src /path/to/parent/src

The digests depend on the platform's floating point and BLAS, so compare only
digests made on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from typing import Tuple

OPTIMIZERS = ("adafactor", "came", "adam", "raw_confidence")
PROBLEMS = (
    "quadratic:dim=8",
    "quadratic:dim=20000",  # a 1-D parameter of 160 KB, on the runner's spare lists
    "rosenbrock",
    "logreg",
    "mlp1",
    "mlp1:in_dim=256,hidden_dim=128,n_samples=64",  # a 256 x 128 factored matrix
)
RUN_FLAGS = ("--steps", "60", "--seed", "5", "--lr", "1e-3", "--warmup", "10")
MEMORY_ARGS = ((), ("--scale", "4"), ("--width", "8", "--baseline", "adafactor"))


def sha256_of_outputs(cli, argv, out: Path, suffixes) -> Tuple[str, ...]:
    """Run the CLI with --out out, and return the sha256 of each out + suffix."""
    argv = [*argv, "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"came-bench {' '.join(argv)} exited with {code}")
    return tuple(
        hashlib.sha256(Path(f"{out}{suffix}").read_bytes()).hexdigest() for suffix in suffixes
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="the src/ directory whose came_opt package runs (default: this checkout's)")
    src = Path(parser.parse_args().src).resolve()
    sys.path.insert(0, str(src))
    from came_opt import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported {cli.__file__}, not the came_opt package under {src}")
    with tempfile.TemporaryDirectory() as workdir:
        for problem in PROBLEMS:
            for optimizer in OPTIMIZERS:
                out = Path(workdir) / f"{optimizer}_{problem.replace(':', '_').replace(',', '_')}"
                argv = ["run", "--problem", problem, "--optimizer", optimizer, *RUN_FLAGS]
                trace, summary = sha256_of_outputs(cli, argv, out, ("_trace.csv", "_summary.json"))
                print(f"{trace}  {summary}  {optimizer}  {problem}")
        for i, args in enumerate(MEMORY_ARGS):
            (report,) = sha256_of_outputs(
                cli, ["memory", *args], Path(workdir) / f"memory{i}", ("_memory.json",)
            )
            print(f"{report}  memory  {' '.join(args) or '(defaults)'}")


if __name__ == "__main__":
    main()
