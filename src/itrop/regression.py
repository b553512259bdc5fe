"""Regularized logistic / Poisson regression: losses, gradients, GD, minibatch SGD
and the Newton reference solve."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .core import (ConfigurationError, ExactOperatorHandle, NonConvergenceError,
                   RandomOperatorFactory, RngStream, read_text, require_indexable,
                   write_atomic)

FAMILIES = ("logistic", "poisson")
SAMPLING_MODES = ("with_replacement", "without_replacement")

# Cap on the linear predictor used when *generating* Poisson labels; the loss
# and gradient themselves are never clamped.
_SYNTH_EXPONENT_CAP = 30.0

# Damped Newton line search: sufficient-decrease fraction, and how often a
# step may be halved (2^-60 of a Newton step is below float resolution).
_ARMIJO = 0.25
_MAX_HALVINGS = 60


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # exp(-softplus(-t)): stable on both tails, no overflow warnings
    return np.exp(-np.logaddexp(0.0, -t))


@dataclass(frozen=True)
class RegressionDataset:
    """Design matrix (N, m) whose first column is the constant 1, labels (N,)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        l = np.asarray(self.labels, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] < 1 or f.shape[1] < 1:
            raise ConfigurationError(f"features must be a nonempty (N, m) matrix, got {f.shape}")
        if l.shape != (f.shape[0],):
            raise ConfigurationError(
                f"labels must have shape ({f.shape[0]},), got {l.shape}")
        if not np.all(np.isfinite(f)) or not np.all(np.isfinite(l)):
            raise ConfigurationError("dataset has non-finite entries")
        if not np.all(f[:, 0] == 1.0):
            raise ConfigurationError("first feature column must be the constant 1")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", l)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _check_labels(labels: np.ndarray, family: str, where: str = "dataset") -> None:
    if family == "logistic":
        bad = np.nonzero(~((labels == 0.0) | (labels == 1.0)))[0]
        if bad.size:
            raise ConfigurationError(
                f"{where}: logistic labels must be 0 or 1; sample {bad[0]} is {labels[bad[0]]!r}")
    elif family == "poisson":
        bad = np.nonzero((labels < 0) | (labels != np.floor(labels)))[0]
        if bad.size:
            raise ConfigurationError(
                f"{where}: poisson labels must be nonnegative integers; "
                f"sample {bad[0]} is {labels[bad[0]]!r}")
    else:
        raise ConfigurationError(f"unknown family {family!r}, expected one of {FAMILIES}")


@dataclass(frozen=True)
class RegressionProblem:
    """A dataset plus loss family, ridge weight lam (>= 0) and step size beta (> 0).

    The per-sample loss carries its own (lam/2)||x||^2 term, so every batch
    average contains exactly one ridge contribution.
    """

    dataset: RegressionDataset
    family: str
    lam: float
    beta: float

    def __post_init__(self):
        _check_labels(self.dataset.labels, self.family)
        if not (self.lam >= 0.0):
            raise ConfigurationError(f"lam must be >= 0, got {self.lam!r}")
        if not (self.beta > 0.0):
            raise ConfigurationError(f"beta must be > 0, got {self.beta!r}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "beta", float(self.beta))


@dataclass(frozen=True)
class EigenBounds:
    """Bounds [lower, upper] on per-sample loss curvature over a region."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper):
            raise ConfigurationError(
                f"need 0 < lower <= upper, got ({self.lower!r}, {self.upper!r})")


def _check_point(problem: RegressionProblem, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.dataset.dim,):
        raise ConfigurationError(
            f"parameter must have shape ({problem.dataset.dim},), got {x.shape}")
    return x


def _resolve_subset(problem: RegressionProblem, subset):
    if subset is None:
        return problem.dataset.features, problem.dataset.labels
    idx = np.asarray(subset, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ConfigurationError("subset must be a nonempty 1-D index array")
    n = problem.dataset.num_samples
    if np.any(idx < 0) or np.any(idx >= n):
        raise ConfigurationError("subset index out of range")
    return problem.dataset.features[idx], problem.dataset.labels[idx]


def loss(problem: RegressionProblem, x, subset=None) -> float:
    """Average per-sample loss over the subset (default: all samples)."""
    x = _check_point(problem, x)
    feats, labels = _resolve_subset(problem, subset)
    t = feats @ x
    if problem.family == "logistic":
        # l * softplus(-t) + (1 - l) * softplus(t), the stable cross-entropy form
        data = labels * np.logaddexp(0.0, -t) + (1.0 - labels) * np.logaddexp(0.0, t)
    else:
        with np.errstate(over="ignore"):
            data = np.exp(t) - labels * t
    ridge = 0.5 * problem.lam * float(x @ x)
    return float(np.mean(data) + ridge)


def gradient(problem: RegressionProblem, x, subset=None) -> np.ndarray:
    """Average per-sample loss gradient over the subset (default: all samples)."""
    x = _check_point(problem, x)
    feats, labels = _resolve_subset(problem, subset)
    t = feats @ x
    if problem.family == "logistic":
        residual = _sigmoid(t) - labels
    else:
        with np.errstate(over="ignore"):
            residual = np.exp(t) - labels
    return feats.T @ residual / feats.shape[0] + problem.lam * x


def exact_gd_operator(problem: RegressionProblem,
                      bounds: EigenBounds | None = None) -> ExactOperatorHandle:
    """Full-gradient descent step x -> x - beta * grad(x) as an operator
    handle, measured in l2 (the norm of its contraction coefficient)."""
    modulus = contraction_coefficient(bounds, problem.beta) if bounds is not None else None

    def apply(x):
        return x - problem.beta * gradient(problem, x)

    return ExactOperatorHandle(apply=apply, dimension=problem.dataset.dim,
                               claimed_modulus=modulus)


def sample_batches(num_samples: int, batch_size: int, sampling: str, stream: RngStream,
                   runs) -> np.ndarray:
    """(len(runs), batch_size) sample indices, one batch per run of stream.

    With replacement a run reads batch_size uniforms u and takes floor(u * N);
    without replacement it reads N uniform keys and takes the batch_size
    samples with the smallest keys, ascending.  Any other mode, a batch_size
    below 1, or one above N without replacement is a ConfigurationError.
    """
    if sampling == "with_replacement":
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        idx = (stream.uniforms(batch_size, runs) * num_samples).astype(np.int64)
        return np.minimum(idx, num_samples - 1, out=idx)
    if sampling == "without_replacement":
        if not 1 <= batch_size <= num_samples:
            raise ConfigurationError(f"batch_size must lie in [1, {num_samples}] without "
                                     f"replacement, got {batch_size}")
        keys = stream.uniforms(num_samples, runs)
        return np.sort(np.argpartition(keys, batch_size - 1, axis=1)[:, :batch_size], axis=1)
    raise ConfigurationError(f"sampling must be one of {SAMPLING_MODES}, got {sampling!r}")


def sgd_factory(problem: RegressionProblem, batch_size: int,
                sampling: str = "with_replacement") -> RandomOperatorFactory:
    """Minibatch SGD steps as a random-operator factory.

    A realization draws one batch of indices from its stream (see
    sample_batches) and applies x -> x - beta * (mean gradient over that
    batch); repeated applications of the same realization reuse the batch.
    Each run of a block gathers its own batch_size feature rows, so a step
    costs batch_size * d per run whatever the dataset size.  A full batch
    drawn without replacement reproduces the exact gradient step.  The
    factory measures in l2, as exact_gd_operator does.
    """
    n = problem.dataset.num_samples
    if not (1 <= batch_size <= n):
        raise ConfigurationError(f"batch_size must lie in [1, {n}], got {batch_size}")
    if sampling not in SAMPLING_MODES:
        raise ConfigurationError(
            f"sampling must be one of {SAMPLING_MODES}, got {sampling!r}")
    feats, labels = problem.dataset.features, problem.dataset.labels
    link = _sigmoid if problem.family == "logistic" else np.exp

    def move(idx: np.ndarray, z: np.ndarray) -> np.ndarray:
        # z is (m, P, d); each run's batch rows, (m, 1, batch_size, d), meet
        # its P points one mat-vec at a time
        x = feats.take(idx, axis=0)[:, None]
        with np.errstate(over="ignore"):
            residual = (link(np.matmul(x, z[..., None])[..., 0])
                        - labels.take(idx)[:, None])
        grad = np.matmul(residual[..., None, :], x)[..., 0, :] / batch_size + problem.lam * z
        return z - problem.beta * grad

    width = batch_size if sampling == "with_replacement" else n
    draw = lambda stream, runs: sample_batches(n, batch_size, sampling, stream, runs)
    # per run: the gathered rows, t, residual and batch temporaries, the draws;
    # per further point: its t, link and residual, and its gradient temporaries
    d = problem.dataset.dim
    return RandomOperatorFactory(batch_size, d, draw, move,
                                 row_bytes=8 * (batch_size * (d + 4) + width),
                                 point_bytes=8 * (3 * batch_size + 4 * d))


def eigen_bounds(problem: RegressionProblem, region_radius: float = 1.0) -> EigenBounds:
    """Curvature bounds for the per-sample losses.

    Logistic: the data Hessian is f(1-f) u u^T with f(1-f) <= 1/4, so the
    bound is global.  Poisson: exp(u.x) u u^T, bounded over ||x||_2 <=
    region_radius.  Requires lam > 0; otherwise no positive lower bound
    is available.
    """
    if problem.lam <= 0.0:
        raise ConfigurationError("eigen_bounds needs lam > 0: the ridge term supplies "
                                 "the only guaranteed curvature lower bound")
    sq_norms = np.sum(problem.dataset.features ** 2, axis=1)
    if problem.family == "logistic":
        data_top = float(np.max(sq_norms)) / 4.0
    else:
        if region_radius <= 0.0:
            raise ConfigurationError("region_radius must be positive")
        norms = np.sqrt(sq_norms)
        data_top = float(np.max(np.exp(region_radius * norms) * sq_norms))
    return EigenBounds(lower=problem.lam, upper=problem.lam + data_top)


def contraction_coefficient(bounds: EigenBounds, beta: float) -> float:
    """Lipschitz bound max(|1 - beta*upper|, |1 - beta*lower|) of the GD step."""
    if not (np.isfinite(beta) and beta > 0):
        raise ConfigurationError(f"beta must be a positive finite number, got {beta!r}")
    return max(abs(1.0 - beta * bounds.upper), abs(1.0 - beta * bounds.lower))


def solve_reference_minimizer(problem: RegressionProblem, tol: float = 1e-8,
                              max_iterations: int = 50) -> tuple[np.ndarray, int, float]:
    """(x, Newton steps taken, ||grad(x)||_2) for the minimizer x* of the
    ridge-regularised average loss, by damped Newton from 0.

    Each step solves the d x d Newton system with the full-data Hessian
    F^T diag(w) F / N + lam I, where w = sigmoid(t) sigmoid(-t) (logistic) or
    exp(t) (Poisson) at t = F x, and backtracks (halving) until the loss
    passes the Armijo test or the gradient norm falls (Boyd & Vandenberghe,
    Convex Optimization, 9.5).  beta is not used.  The solve stops once ||grad(x)||_2 <= tol;
    since the loss is lam-strongly convex, ||x - x*||_2 <= ||grad(x)||_2 / lam
    <= tol / lam.  Raises NonConvergenceError if that takes more than
    max_iterations Newton steps or a line search stalls.
    """
    if problem.lam <= 0.0:
        raise ConfigurationError("solve_reference_minimizer needs lam > 0 "
                                 "(unique minimizer via strong convexity)")
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"tol must be a positive finite number, got {tol!r}")
    feats = problem.dataset.features
    ridge = problem.lam * np.eye(problem.dataset.dim)
    x = np.zeros(problem.dataset.dim)
    f, g = loss(problem, x), gradient(problem, x)
    gnorm = float(np.linalg.norm(g))
    steps = 0
    while gnorm > tol:
        if steps >= max_iterations:
            raise NonConvergenceError(
                f"reference solve did not converge: gradient norm {gnorm:.3g} is above "
                f"{tol} after {steps} Newton steps")
        t = feats @ x  # x is 0 or passed the line search: exp(t) is finite
        w = _sigmoid(t) * _sigmoid(-t) if problem.family == "logistic" else np.exp(t)
        dx = -np.linalg.solve((feats.T * w) @ feats / feats.shape[0] + ridge, g)
        slope = float(g @ dx)
        s = 1.0
        # Armijo on the loss, or a smaller gradient: near x* the loss decrease
        # falls below float resolution long before the gradient reaches tol.
        for _ in range(_MAX_HALVINGS):
            xn = x + s * dx
            fn, gn = loss(problem, xn), gradient(problem, xn)
            gn_norm = float(np.linalg.norm(gn))
            if fn <= f + _ARMIJO * s * slope or gn_norm < gnorm:
                break
            s *= 0.5
        else:
            raise NonConvergenceError(
                f"reference solve did not converge: line search stalled at "
                f"gradient norm {gnorm:.3g} after {steps} Newton steps")
        x, f, g, gnorm = xn, fn, gn, gn_norm
        steps += 1
    return x, steps, gnorm


def synth_dataset(num_samples: int, dim: int, family: str, seed: int) -> RegressionDataset:
    """Seeded synthetic dataset: constant-1 column plus uniform(0,1) features,
    labels drawn from the family's model at a hidden parameter vector."""
    if num_samples < 1:
        raise ConfigurationError("num_samples must be >= 1")
    if dim < 2:
        raise ConfigurationError("dim must be >= 2 (constant column plus features)")
    if family not in FAMILIES:
        raise ConfigurationError(f"unknown family {family!r}, expected one of {FAMILIES}")
    require_indexable(num_samples * dim, f"a dataset of {num_samples} samples of dimension "
                                         f"{dim} needs arrays too large to index")
    rng = RngStream(seed).generator()
    truth = rng.normal(size=dim) / np.sqrt(dim)
    feats = np.hstack([np.ones((num_samples, 1)), rng.random((num_samples, dim - 1))])
    t = feats @ truth
    if family == "logistic":
        labels = (rng.random(num_samples) < _sigmoid(t)).astype(np.float64)
    else:
        labels = rng.poisson(np.exp(np.minimum(t, _SYNTH_EXPONENT_CAP))).astype(np.float64)
    return RegressionDataset(features=feats, labels=labels)


def save_csv_dataset(dataset: RegressionDataset, path) -> None:
    """Write rows as label,feat1,...  The constant column is not stored."""
    rows = np.column_stack([dataset.labels, dataset.features[:, 1:]])
    write_atomic(path, "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))


def load_csv_dataset(path, family: str) -> RegressionDataset:
    """Read label,feat1,... rows; a constant-1 column is prepended on load."""
    if family not in FAMILIES:
        raise ConfigurationError(f"unknown family {family!r}, expected one of {FAMILIES}")
    rows = []
    width = None
    lines = io.StringIO(read_text(path), newline="")  # csv wants endings untranslated
    for lineno, record in enumerate(csv.reader(lines), start=1):
        if not record:
            continue
        try:
            values = [float(v) for v in record]
        except ValueError:
            raise ConfigurationError(
                f"{path}: line {lineno}: non-numeric field") from None
        if width is None:
            width = len(values)
            if width < 2:
                raise ConfigurationError(
                    f"{path}: line {lineno}: need a label and at least one feature")
        elif len(values) != width:
            raise ConfigurationError(
                f"{path}: line {lineno}: expected {width} fields, got {len(values)}")
        if not all(np.isfinite(values)):
            raise ConfigurationError(f"{path}: line {lineno}: non-finite field")
        rows.append(values)
    if not rows:
        raise ConfigurationError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    labels = data[:, 0]
    _check_labels(labels, family, where=str(path))
    feats = np.hstack([np.ones((data.shape[0], 1)), data[:, 1:]])
    return RegressionDataset(features=feats, labels=labels)
