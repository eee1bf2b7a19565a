"""came_opt step benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload mlp1-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer split from a traced run. It prints provenance and one line per
metric, then as its last line one JSON object with the keys correct,
attempted, failed and metrics. It exits 0 when every run was correct, 1 when
one was not, and 2 when the package sources are not next to it.
"""

import os

# One BLAS thread, set before numpy loads: the matrices are small, and the
# host has two cores shared with other work.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="came_opt step benchmark")
    parser.add_argument("--workload", required=True, choices=list(workload_names) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _command(*cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    llc = _command("getconf", "LEVEL3_CACHE_SIZE")
    has_git = (ROOT / ".git").exists()
    rev = _command("git", "-C", str(ROOT), "rev-parse", "HEAD") if has_git else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": int(llc) if llc and llc.isdigit() else None,
        "git_rev": rev,
        "seed": seed,
    }


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, trace, ledger, metrics, details, prov):
    print(f"== {workload.name} (trace {trace})")
    print("provenance: " + ", ".join(f"{k} {v}" for k, v in prov.items()))
    print(f"why: {workload.why}")
    print(f"exercises: {workload.exercises}")
    print(f"bypasses: {workload.bypasses}")
    print(f"ops_failed: {ledger.failed}/{ledger.attempted}")
    for fault in ledger.faults:
        print(f"FAULT {fault}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:48s} {_fmt(value):>14s} {unit}")
    for opt, summary in details.get("step_us", {}).items():
        print(f"step_us.{opt} (raw us per step): {json.dumps(summary, sort_keys=True)}")
    if "reference_us" in details:
        summary = json.dumps(details["reference_us"], sort_keys=True)
        print(f"reference kernel {workload.reference} (us): {summary}")
    if "setup_s" in details:
        print("setup_s samples: " + " ".join(f"{t:.4f}" for t in details["setup_s"]))
    if "missing" in details:
        print("missing traced names: " + (", ".join(details["missing"]) or "none"))
    for opt, digest in details["digests"].items():
        print(f"loss-trace sha256.{opt}: {digest}")


def main(argv=None):
    if not (SRC / "came_opt" / "__init__.py").is_file():
        print(f"perfbench: came_opt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(args.seed)
    attempted = failed = 0
    metrics = {}
    for name in names:
        workload = WORKLOADS[name]
        measure_fn = bench.per_layer if args.trace else bench.end_to_end
        ledger, workload_metrics, details = measure_fn(workload, args.seed, args.seconds)
        report(workload, args.trace, ledger, workload_metrics, details, prov)
        attempted += ledger.attempted
        failed += ledger.failed
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, (value, unit) in workload_metrics.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    correct = failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
