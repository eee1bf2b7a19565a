"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live.
Tolerances and budgets are fixed here, not configurable.
"""

import math
import time
from pathlib import Path

import numpy as np

from came_opt.cli import main as cli_main
from came_opt.factored_moment import col_sums, generalized_kl, nmf_rank1, row_sums
from came_opt.memory_model import load_manifest, report, scale_manifest
from came_opt.optimizers import (
    OptimizerConfig,
    make_state,
    step_param,
)
from came_opt.problems import build_problem, gradient_report
from came_opt.runner import RunConfig, compare

ACCEPTANCE_SEEDS = list(range(1, 11))


def _report(criterion: int, description: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion} {mark}: {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


def test_criterion_1_nmf_correctness():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(101))
    sums_ok = True
    for _ in range(1000):
        n, m = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        v = rng.uniform(0.0, 2.0, size=(n, m))
        if v.sum() <= 0.0:
            continue
        w, h = nmf_rank1(v)
        approx = w @ h
        sums_ok = sums_ok and np.allclose(
            row_sums(approx), row_sums(v), rtol=1e-12, atol=1e-12
        )
        sums_ok = sums_ok and np.allclose(
            col_sums(approx), col_sums(v), rtol=1e-12, atol=1e-12
        )

    rank1_ok = True
    for _ in range(200):
        w_true = rng.uniform(0.1, 2.0, size=(int(rng.integers(1, 33)), 1))
        h_true = rng.uniform(0.1, 2.0, size=(1, int(rng.integers(1, 33))))
        v = w_true @ h_true
        w, h = nmf_rank1(v)
        rank1_ok = rank1_ok and np.allclose(w @ h, v, rtol=1e-14, atol=0.0)

    elapsed = time.perf_counter() - started
    _report(
        1,
        "rank-1 factorization preserves row/column sums and reproduces rank-1 inputs",
        sums_ok and rank1_ok and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_kl_optimality():
    started = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(102))
    worst_drop = 0.0
    for _ in range(100):
        v = rng.uniform(0.0, 3.0, size=(16, 16))
        w, h = nmf_rank1(v)
        base = generalized_kl(v, w @ h)
        for _ in range(200):
            w_p = w * (1.0 + rng.uniform(-0.01, 0.01, size=w.shape))
            h_p = h * (1.0 + rng.uniform(-0.01, 0.01, size=h.shape))
            worst_drop = max(worst_drop, base - generalized_kl(v, w_p @ h_p))
    elapsed = time.perf_counter() - started
    _report(
        2,
        "multiplicative +/-1% factor perturbations never improve generalized KL",
        worst_drop <= 1e-9 and elapsed < 10.0,
        f"worst improvement {worst_drop:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_pseudocode_fidelity():
    cfg = OptimizerConfig()
    theta = np.array([[1.0]])

    def g():  # each step writes the gradient it is given, so each gets its own
        return np.array([[2.0]])

    ada = float(step_param(theta, g(), make_state("adafactor", (1, 1), cfg), cfg)[0, 0])
    came = float(step_param(theta, g(), make_state("came", (1, 1), cfg), cfg)[0, 0])
    raw = float(step_param(theta, g(), make_state("raw_confidence", (1, 1), cfg), cfg)[0, 0])

    ok = (
        abs(ada - 0.9999) <= 1e-9
        and abs(came - (1.0 - 1.0 / 90.0)) <= 1e-9
        and abs(raw - (1.0 - 1.0 / 9000.0)) <= 1e-9
    )
    _report(
        3,
        "hand-derived single-step scalar updates reproduce within 1e-9",
        ok,
        f"adafactor {ada!r}, came {came!r}, raw {raw!r}",
    )


def test_criterion_4_scalar_oracle_equivalence():
    cfg = OptimizerConfig()
    rng = np.random.Generator(np.random.PCG64(104))
    grads = [float(x) for x in rng.standard_normal(100) * 2.5]

    # independent unfactored reference in plain Python floats
    v = 0.0
    m = 0.0
    ref_theta = 0.4
    state = make_state("adafactor", (1, 1), cfg)
    theta = np.array([[0.4]])
    max_gap = 0.0
    for g in grads:
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g + cfg.eps1)
        u = g / math.sqrt(v)
        u_hat = u / max(1.0, abs(u) / cfg.clip_d)
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * u_hat
        ref_theta -= cfg.lr * m
        theta = step_param(theta, np.array([[g]]), state, cfg)
        max_gap = max(max_gap, abs(theta[0, 0] - ref_theta))
    _report(
        4,
        "100 factored steps on a 1x1 parameter match the unfactored reference",
        max_gap <= 1e-12,
        f"max per-step gap {max_gap:.2e}",
    )


def test_criterion_5_gradient_checks():
    started = time.perf_counter()
    tolerances = {
        "quadratic": 1e-8,
        "rosenbrock": 1e-8,
        "logreg": 1e-6,
        "mlp1": 1e-6,
    }
    details = []
    ok = True
    for name, tol in tolerances.items():
        rep = gradient_report(build_problem(name), points=10, tolerance=tol)
        ok = ok and rep.passed
        details.append(f"{name} {max(rep.max_rel_err.values()):.1e}")
    elapsed = time.perf_counter() - started
    _report(
        5,
        "analytic gradients match central differences on every bundled problem",
        ok and elapsed < 5.0,
        ", ".join(details) + f", {elapsed:.2f}s",
    )


def test_criterion_6_convergence_ordering():
    started = time.perf_counter()
    mlp = compare(
        [
            RunConfig(problem="mlp1", optimizer="came", steps=2000, opt=OptimizerConfig(lr=1e-3)),
            RunConfig(
                problem="mlp1", optimizer="adafactor", steps=2000, opt=OptimizerConfig(lr=1e-3)
            ),
        ],
        seeds=ACCEPTANCE_SEEDS,
    )
    came_mlp = mlp.median_final_loss["came"]
    ada_mlp = mlp.median_final_loss["adafactor"]

    logreg = compare(
        [
            RunConfig(
                problem="logreg", optimizer="came", steps=2000, opt=OptimizerConfig(lr=1e-3)
            ),
            RunConfig(
                problem="logreg", optimizer="adam", steps=2000, opt=OptimizerConfig(lr=1e-3)
            ),
        ],
        seeds=ACCEPTANCE_SEEDS,
    )
    came_lr = logreg.median_final_loss["came"]
    adam_lr = logreg.median_final_loss["adam"]
    rel_gap = abs(came_lr - adam_lr) / adam_lr

    elapsed = time.perf_counter() - started
    _report(
        6,
        "confidence-guided steps match or beat the factored baseline at desk scale",
        came_mlp <= ada_mlp and rel_gap <= 0.10 and elapsed < 120.0,
        f"mlp1 came {came_mlp:.2e} vs adafactor {ada_mlp:.2e}; "
        f"logreg gap {rel_gap * 100:.2f}%; {elapsed:.1f}s",
    )


def test_criterion_7_memory_model():
    started = time.perf_counter()
    rep = report(load_manifest(), baseline="adam")
    ordering = (
        rep.totals["adafactor"] < rep.totals["came"] < rep.totals["adam"]
        and rep.totals["adam"] == rep.totals["lamb"]
    )
    overhead = (rep.totals["came"] - rep.totals["adafactor"]) / rep.totals["adafactor"]
    ratio = rep.ratios["came"]
    rep4 = report(scale_manifest(load_manifest(), 4), baseline="adam")
    reduction4 = 1.0 - rep4.ratios["came"]
    elapsed = time.perf_counter() - started
    _report(
        7,
        "state accounting reproduces the expected ordering and savings",
        ordering and overhead <= 0.015 and ratio <= 0.55 and reduction4 > 0.45 and elapsed < 1.0,
        f"overhead {overhead * 100:.2f}%, came/adam {ratio:.4f}, "
        f"4x reduction {reduction4 * 100:.1f}%, {elapsed:.2f}s",
    )


def test_criterion_8_determinism(tmp_path):
    blobs = []
    for tag in ("first", "second"):
        prefix = str(tmp_path / tag)
        code = cli_main(
            [
                "run", "--problem", "mlp1", "--optimizer", "came", "--steps", "50",
                "--seed", "11", "--out", prefix,
            ]
        )
        assert code == 0
        blobs.append(
            (
                Path(prefix + "_trace.csv").read_bytes(),
                Path(prefix + "_summary.json").read_bytes(),
            )
        )
    ok = blobs[0] == blobs[1]
    _report(8, "identical runs produce byte-identical trace files", ok)
