"""Desk-scale differentiable objectives with analytic gradients.

Each problem bundles a parameter manifest (name plus logical dims), a pure
loss and a hand-derived gradient over a dict of parameter matrices, and an
optional known optimum. Data generation and random parameter draws use
numpy's PCG64 generator, so every dataset and every trajectory is a pure
function of its integer seed, on any platform.

finite_diff_grad is the independent oracle: central differences per
coordinate, never sharing code with the analytic gradients it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .tensor import Matrix, storage_shape

Params = Dict[str, Matrix]
ParamSpec = Tuple[str, Tuple[int, ...]]


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide seed-to-stream contract: PCG64 under numpy Generator."""
    return np.random.Generator(np.random.PCG64(int(seed)))


@dataclass(frozen=True)
class SyntheticDataset:
    inputs: Matrix  # N x d
    targets: Matrix  # N x out
    seed: int


@dataclass(frozen=True)
class Problem:
    name: str
    param_specs: Tuple[ParamSpec, ...]
    loss: Callable[[Params], float]
    grad: Callable[[Params], Params]
    known_optimum: Optional[float] = None
    init: Optional[Callable[[int], Params]] = None
    dataset: Optional[SyntheticDataset] = None

    def storage_shapes(self) -> Dict[str, Tuple[int, int]]:
        return {name: storage_shape(dims) for name, dims in self.param_specs}


def initial_params(problem: Problem, seed: int) -> Params:
    """Seeded starting point: the problem's own scheme, else uniform [-0.1, 0.1].

    Draws happen in manifest order, row-major within each parameter, from
    PCG64(seed), so the starting point is reproducible bit for bit.
    """
    if problem.init is not None:
        return problem.init(seed)
    rng = rng_from_seed(seed)
    params = {}
    for name, shape in problem.storage_shapes().items():
        params[name] = rng.uniform(-0.1, 0.1, size=shape)
    return params


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------


def make_quadratic(dim: int = 8, condition_number: float = 10.0, seed: int = 0) -> Problem:
    """f(theta) = 0.5 * theta^T A theta with diagonal A, eigenvalues log-spaced
    in [1, condition_number]. Deterministic; the seed is accepted for interface
    uniformity but the objective does not depend on it."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if condition_number <= 0.0:
        raise ValueError(f"condition_number must be positive, got {condition_number}")
    eigs = np.logspace(0.0, math.log10(condition_number), num=dim).reshape(dim, 1)

    def loss(params: Params) -> float:
        theta = params["theta"]
        return 0.5 * float(np.sum(eigs * np.square(theta)))

    def grad(params: Params) -> Params:
        return {"theta": eigs * params["theta"]}

    return Problem(
        name="quadratic",
        param_specs=(("theta", (dim,)),),
        loss=loss,
        grad=grad,
        known_optimum=0.0,
    )


def make_rosenbrock() -> Problem:
    """The classic banana valley f(x, y) = (1-x)^2 + 100 (y - x^2)^2.

    Minimum 0 at (1, 1). Starts near the traditional (-1.2, 1.0) corner
    with a small seeded jitter so different seeds trace different paths.
    """

    def loss(params: Params) -> float:
        x, y = float(params["xy"][0, 0]), float(params["xy"][1, 0])
        return (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2

    def grad(params: Params) -> Params:
        x, y = float(params["xy"][0, 0]), float(params["xy"][1, 0])
        gx = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x)
        gy = 200.0 * (y - x * x)
        return {"xy": np.array([[gx], [gy]])}

    def init(seed: int) -> Params:
        rng = rng_from_seed(seed)
        return {"xy": np.array([[-1.2], [1.0]]) + rng.uniform(-0.1, 0.1, size=(2, 1))}

    return Problem(
        name="rosenbrock",
        param_specs=(("xy", (2,)),),
        loss=loss,
        grad=grad,
        known_optimum=0.0,
        init=init,
    )


def _sigmoid(z: Matrix) -> Matrix:
    # exp(-softplus(-z)) is stable for large |z|
    return np.exp(-np.logaddexp(0.0, -z))


def make_logreg(n_samples: int = 512, n_features: int = 16, seed: int = 0) -> Problem:
    """Binary cross-entropy on a noisy linearly separable synthetic dataset.

    Labels come from a unit ground-truth direction plus Gaussian label noise,
    so the problem is convex with a finite optimum. Parameters are a weight
    matrix (d x 1) and a scalar bias.
    """
    if n_samples < 1 or n_features < 1:
        raise ValueError("n_samples and n_features must be >= 1")
    rng = rng_from_seed(seed)
    x = rng.standard_normal((n_samples, n_features))
    w_star = rng.standard_normal((n_features, 1))
    w_star /= np.linalg.norm(w_star)
    noisy = x @ w_star + 1.0 * rng.standard_normal((n_samples, 1))
    y = (noisy > 0.0).astype(np.float64)
    data = SyntheticDataset(inputs=x, targets=y, seed=seed)
    n = float(n_samples)

    def loss(params: Params) -> float:
        z = x @ params["weight"] + params["bias"][0, 0]
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    def grad(params: Params) -> Params:
        z = x @ params["weight"] + params["bias"][0, 0]
        dz = (_sigmoid(z) - y) / n
        return {"weight": x.T @ dz, "bias": np.array([[float(dz.sum())]])}

    return Problem(
        name="logreg",
        param_specs=(("weight", (n_features, 1)), ("bias", (1, 1))),
        loss=loss,
        grad=grad,
        dataset=data,
    )


def mlp1_from_data(
    in_dim: int, hidden_dim: int, out_dim: int, data: SyntheticDataset
) -> Problem:
    """One-hidden-layer tanh network with mean squared error on fixed data.

    Gradients are hand-derived backpropagation. Exposed separately from
    make_mlp1 so callers can supply their own inputs and targets.
    """
    x, y = data.inputs, data.targets
    if x.shape[1] != in_dim or y.shape[1] != out_dim or x.shape[0] != y.shape[0]:
        raise ValueError(
            f"dataset shapes {x.shape}/{y.shape} do not match dims "
            f"in={in_dim}, out={out_dim}"
        )
    denom = float(x.shape[0] * out_dim)

    def forward(params: Params):
        h = np.tanh(x @ params["w1"] + params["b1"].T)
        y_hat = h @ params["w2"] + params["b2"].T
        return h, y_hat

    def loss(params: Params) -> float:
        _, y_hat = forward(params)
        return float(np.mean(np.square(y_hat - y)))

    def grad(params: Params) -> Params:
        h, y_hat = forward(params)
        d_out = 2.0 * (y_hat - y) / denom
        g_w2 = h.T @ d_out
        g_b2 = d_out.sum(axis=0).reshape(out_dim, 1)
        d_h = d_out @ params["w2"].T
        d_z = d_h * (1.0 - np.square(h))
        g_w1 = x.T @ d_z
        g_b1 = d_z.sum(axis=0).reshape(hidden_dim, 1)
        return {"w1": g_w1, "b1": g_b1, "w2": g_w2, "b2": g_b2}

    return Problem(
        name="mlp1",
        param_specs=(
            ("w1", (in_dim, hidden_dim)),
            ("b1", (hidden_dim,)),
            ("w2", (hidden_dim, out_dim)),
            ("b2", (out_dim,)),
        ),
        loss=loss,
        grad=grad,
        dataset=data,
    )


def make_mlp1(
    in_dim: int = 16,
    hidden_dim: int = 32,
    out_dim: int = 1,
    seed: int = 0,
    n_samples: int = 512,
) -> Problem:
    """Canonical regression test bed: tanh MLP on a seeded teacher dataset.

    The targets are produced by a random frozen network of the same shape
    plus a little observation noise, so the objective is nonconvex but has
    structure a trained network can fit.
    """
    if min(in_dim, hidden_dim, out_dim, n_samples) < 1:
        raise ValueError("all dims and n_samples must be >= 1")
    rng = rng_from_seed(seed)
    x = rng.standard_normal((n_samples, in_dim))
    w1_t = rng.standard_normal((in_dim, hidden_dim)) / math.sqrt(in_dim)
    b1_t = 0.2 * rng.standard_normal((1, hidden_dim))
    w2_t = rng.standard_normal((hidden_dim, out_dim)) / math.sqrt(hidden_dim)
    b2_t = 0.2 * rng.standard_normal((1, out_dim))
    y = np.tanh(x @ w1_t + b1_t) @ w2_t + b2_t
    y = y + 0.05 * rng.standard_normal((n_samples, out_dim))
    data = SyntheticDataset(inputs=x, targets=y, seed=seed)
    return mlp1_from_data(in_dim, hidden_dim, out_dim, data)


# ---------------------------------------------------------------------------
# Finite-difference oracle and gradient checking
# ---------------------------------------------------------------------------


def finite_diff_grad(problem: Problem, params: Params, h: Optional[float] = None) -> Params:
    """Central-difference gradient, one coordinate at a time.

    The step for coordinate i is h when given, else 1e-6 * max(1, |theta_i|).
    Deliberately independent of every analytic gradient in this module.
    """
    grads = {}
    for name in params:
        theta = params[name]
        g = np.zeros_like(theta)
        flat = theta.ravel()
        for i in range(flat.size):
            step = h if h is not None else 1e-6 * max(1.0, abs(float(flat[i])))
            bumped = dict(params)
            plus = theta.copy()
            plus.flat[i] += step
            bumped[name] = plus
            f_plus = problem.loss(bumped)
            minus = theta.copy()
            minus.flat[i] -= step
            bumped[name] = minus
            f_minus = problem.loss(bumped)
            g.flat[i] = (f_plus - f_minus) / (2.0 * step)
        grads[name] = g
    return grads


@dataclass(frozen=True)
class GradCheckReport:
    problem: str
    points: int
    tolerance: float
    seed: int
    max_rel_err: Dict[str, float]  # per parameter, worst point
    passed: bool
    failing: Tuple[str, ...]

    def lines(self):
        mark = "PASS" if self.passed else "FAIL"
        yield f"{mark} gradient check: {self.problem} ({self.points} points, tol {self.tolerance:g})"
        for name, err in self.max_rel_err.items():
            flag = "" if err < self.tolerance else "   <-- exceeds tolerance"
            yield f"  {name:12s} max rel err {err:.3e}{flag}"


def gradient_report(
    problem: Problem, points: int = 10, tolerance: float = 1e-6, seed: int = 2024
) -> GradCheckReport:
    """Compare analytic and central-difference gradients at seeded random points.

    The per-parameter error is norm-wise relative:
    ||analytic - numeric|| / max(||analytic||, ||numeric||), with an absolute
    fallback when both norms vanish.
    """
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    rng = rng_from_seed(seed)
    shapes = problem.storage_shapes()
    worst = {name: 0.0 for name in shapes}
    for _ in range(points):
        params = {name: rng.uniform(-1.0, 1.0, size=shape) for name, shape in shapes.items()}
        analytic = problem.grad(params)
        numeric = finite_diff_grad(problem, params)
        for name in shapes:
            diff = float(np.linalg.norm(analytic[name] - numeric[name]))
            scale = max(
                float(np.linalg.norm(analytic[name])), float(np.linalg.norm(numeric[name]))
            )
            err = diff if scale < 1e-12 else diff / scale
            worst[name] = max(worst[name], err)
    failing = tuple(name for name, err in worst.items() if not err < tolerance)
    return GradCheckReport(
        problem=problem.name,
        points=points,
        tolerance=tolerance,
        seed=seed,
        max_rel_err=worst,
        passed=not failing,
        failing=failing,
    )


PROBLEM_BUILDERS = {
    "quadratic": make_quadratic,
    "rosenbrock": make_rosenbrock,
    "logreg": make_logreg,
    "mlp1": make_mlp1,
}


def build_problem(name: str, args: Optional[dict] = None) -> Problem:
    """Instantiate a registered problem by id with keyword overrides."""
    if name not in PROBLEM_BUILDERS:
        raise ValueError(
            f"unknown problem {name!r}, expected one of {sorted(PROBLEM_BUILDERS)}"
        )
    try:
        return PROBLEM_BUILDERS[name](**(args or {}))
    except TypeError as exc:
        raise ValueError(f"bad arguments for problem {name!r}: {exc}") from exc
