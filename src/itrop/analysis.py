"""Ensemble statistics, sequence metrics, and empirical checks of the
assumptions under which randomized fixed-point iteration is trustworthy."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (ConfigurationError, DivergenceError, ExactOperatorHandle,
                   RandomOperatorFactory, RngStream, as_point, iterate_ensemble, row_norm,
                   write_atomic)

VERDICT_CONSISTENT = "consistent"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"

ASSUMPTION_IDS = ("A2-sup-prob", "A3-monotone", "A4-composite-lipschitz",
                  "A5-contraction-log")

_CSV_HEADER = "k,mean,variance,std_error,min,max,count"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass(frozen=True)
class Box:
    """Axis-aligned box used for sampling test points and membership checks."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise ConfigurationError("box bounds must be matching nonempty vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ConfigurationError("box bounds must be finite")
        if np.any(lo > hi):
            raise ConfigurationError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        return np.all((p >= self.lower) & (p <= self.upper), axis=-1)

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        if isinstance(shape, int):
            shape = (shape,)
        u = rng.random(tuple(shape) + (self.dim,))
        return self.lower + u * (self.upper - self.lower)

    @classmethod
    def around(cls, points, inflation: float = 0.2) -> "Box":
        """Bounding box of the rows of `points`, inflated per coordinate."""
        p = np.asarray(points, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] == 0:
            raise ConfigurationError("need a nonempty (K, d) array of points")
        lo, hi = p.min(axis=0), p.max(axis=0)
        pad = inflation * np.maximum(hi - lo, 1e-12)
        return cls(lower=lo - pad, upper=hi + pad)


@dataclass(frozen=True)
class EnsembleSummary:
    """Per-step statistics of a scalar curve across independent runs."""

    metric_name: str
    mean: np.ndarray
    variance: np.ndarray
    std_error: np.ndarray
    min: np.ndarray
    max: np.ndarray
    count: int

    def to_csv(self, path) -> None:
        lines = [_CSV_HEADER]
        for k in range(self.mean.size):
            lines.append(",".join([
                str(k),
                repr(float(self.mean[k])),
                repr(float(self.variance[k])),
                repr(float(self.std_error[k])),
                repr(float(self.min[k])),
                repr(float(self.max[k])),
                str(self.count),
            ]))
        write_atomic(path, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path, metric_name: str = "distance") -> "EnsembleSummary":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
        if not lines or lines[0] != _CSV_HEADER:
            raise ConfigurationError(f"{path}: expected header {_CSV_HEADER!r}")
        cols = {name: [] for name in _CSV_HEADER.split(",")}
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            if len(parts) != 7:
                raise ConfigurationError(f"{path}: line {lineno}: expected 7 fields")
            try:
                values = [float(v) for v in parts]
            except ValueError:
                raise ConfigurationError(
                    f"{path}: line {lineno}: non-numeric field") from None
            for name, v in zip(cols, values):
                cols[name].append(v)
        counts = set(cols["count"])
        if len(counts) != 1:
            raise ConfigurationError(f"{path}: inconsistent count column")
        return cls(metric_name=metric_name,
                   mean=np.asarray(cols["mean"]),
                   variance=np.asarray(cols["variance"]),
                   std_error=np.asarray(cols["std_error"]),
                   min=np.asarray(cols["min"]),
                   max=np.asarray(cols["max"]),
                   count=int(counts.pop()))


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of one empirical assumption check."""

    assumption_id: str
    parameters: dict
    verdict: str
    evidence: list = field(default_factory=list)

    def __post_init__(self):
        if self.assumption_id not in ASSUMPTION_IDS:
            raise ConfigurationError(f"unknown assumption id {self.assumption_id!r}")
        if self.verdict not in (VERDICT_CONSISTENT, VERDICT_VIOLATED, VERDICT_INCONCLUSIVE):
            raise ConfigurationError(f"unknown verdict {self.verdict!r}")
        if self.verdict == VERDICT_VIOLATED and not self.evidence:
            raise ConfigurationError("a violated verdict needs recorded evidence")

    def to_dict(self) -> dict:
        return _jsonable({
            "assumption_id": self.assumption_id,
            "parameters": self.parameters,
            "verdict": self.verdict,
            "evidence": self.evidence,
        })

    def save(self, path) -> None:
        write_atomic(path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def orbit_curves(factory: RandomOperatorFactory, exact, target, stream: RngStream,
                 runs: int, norm: str = "l2"):
    """Move runs 0..runs-1 of stream as one block for len(exact) - 1 steps from
    exact[0]; return (distance, gap, dropped).  distance[k, r] = |z_k - exact[k]|
    and gap[k, r] = |mean(z_0..z_k) - target| for run r, (K+1, runs) each; a run
    in dropped (run -> step) is NaN from that step on."""
    exact, target = np.asarray(exact, dtype=np.float64), as_point(target)
    if exact.ndim != 2 or not len(exact) or exact.shape[1] != target.size:
        raise ConfigurationError(f"need a nonempty (K+1, {target.size}) orbit for a target "
                                 f"of dimension {target.size}, got shape {exact.shape}")
    horizon = len(exact) - 1
    distance = np.full((horizon + 1, runs), np.nan)
    gap = np.full((horizon + 1, runs), np.nan)
    total = np.zeros((runs, exact.shape[1]))

    def record(k, alive, z):
        cols = slice(None) if alive.size == runs else alive
        distance[k, cols] = row_norm(z - exact[k], norm)
        total[cols] += z
        gap[k, cols] = row_norm(total[cols] / (k + 1) - target, norm)

    dropped = iterate_ensemble(factory, exact[0], horizon, stream, range(runs), record)
    return distance, gap, dropped


def weighted_sequence_metric(a, b, norm: str = "l2") -> float:
    """Geometrically weighted distance between two equal-length point sequences:
    sum_k 2^-k * dist(a_k, b_k)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ConfigurationError("sequences must be (K, d) arrays of equal shape")
    per_step = row_norm(a - b, norm)
    weights = np.power(2.0, -np.arange(a.shape[0], dtype=np.float64))
    return float(weights @ per_step)


def ensemble(curves, metric_name: str = "distance") -> EnsembleSummary:
    """Pointwise mean/variance/std-error/min/max of curves from independent runs."""
    arr = np.asarray(curves, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigurationError("curves must form a (runs, K+1) array")
    runs = arr.shape[0]
    if runs < 2:
        raise ConfigurationError("need at least 2 runs for ensemble statistics")
    variance = arr.var(axis=0, ddof=1)
    return EnsembleSummary(metric_name=metric_name,
                           mean=arr.mean(axis=0),
                           variance=variance,
                           std_error=np.sqrt(variance / runs),
                           min=arr.min(axis=0),
                           max=arr.max(axis=0),
                           count=runs)


def occupation_measure(trajectory, region: Box) -> np.ndarray:
    """Running fraction of time spent in the region: entry k-1 is the fraction
    of trajectory points 0..k-1 inside, for k = 1..len(trajectory)."""
    traj = np.asarray(trajectory, dtype=np.float64)
    if traj.ndim != 2 or traj.shape[0] == 0:
        raise ConfigurationError("trajectory must be a nonempty (K+1, d) array")
    inside = region.contains(traj).astype(np.float64)
    return np.cumsum(inside) / np.arange(1, traj.shape[0] + 1)


def deviation_probability(samples, target, eps: float, norm: str = "l2"):
    """Fraction of sample points at distance > eps from target (the tail
    convention of check_sup_probability), with its binomial standard error."""
    pts = np.asarray(samples, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ConfigurationError("samples must be a nonempty (M, d) array")
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    dist = row_norm(pts - np.asarray(target, dtype=np.float64), norm)
    m = pts.shape[0]
    frac = float(np.mean(dist > eps))
    se = float(np.sqrt(frac * (1.0 - frac) / m))
    return frac, se


def _draw_pairs(box: Box, rng: np.random.Generator, pair_count: int) -> np.ndarray:
    pairs = box.sample(rng, (pair_count, 2))
    for _ in range(100):
        degenerate = np.all(pairs[:, 0, :] == pairs[:, 1, :], axis=1)
        if not np.any(degenerate):
            return pairs
        pairs[degenerate] = box.sample(rng, (int(degenerate.sum()), 2))
    raise ConfigurationError("box appears degenerate: cannot draw distinct pairs")


def _lipschitz_samples(factory: RandomOperatorFactory, depth: int, pair_count: int,
                       trials: int, box: Box, stream: RngStream, norm: str) -> np.ndarray:
    """Per trial t, the max-ratio Lipschitz estimate of the composition of the
    realizations from stream.child(t, 0..depth-1), over pair_count random
    pairs drawn from stream.child(t, depth); NaN ratios are skipped."""
    if pair_count < 2:
        raise ConfigurationError("pair_count must be >= 2")
    if trials < 2:
        raise ConfigurationError("trials must be >= 2")
    alphas = np.empty(trials)
    for t in range(trials):
        layers = [factory.realize(stream.child(t, j)) for j in range(depth)]
        pairs = _draw_pairs(box, stream.child(t, depth).generator(), pair_count)
        images = pairs
        for g in layers:
            images = g(images)
        ratios = (row_norm(images[:, 0] - images[:, 1], norm)
                  / row_norm(pairs[:, 0] - pairs[:, 1], norm))
        alphas[t] = np.fmax.reduce(ratios, initial=0.0)
    return alphas


def check_sup_probability(op: ExactOperatorHandle,
                          factories: Sequence[RandomOperatorFactory],
                          grid, eps: float, trials: int, stream: RngStream,
                          norm: str = "l2") -> AssumptionReport:
    """Estimate sup_x P(dist(random(x), exact(x)) > eps) over a finite grid,
    for a ladder of sample sizes; consistent when the ladder is non-increasing.

    The estimated max should shrink as sample sizes grow if the random
    operators concentrate on the exact one.
    """
    factories = list(factories)
    if not factories:
        raise ConfigurationError("need at least one factory")
    sizes = [f.sample_size for f in factories]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigurationError("factories must have strictly increasing sample sizes")
    if trials < 100:
        raise ConfigurationError("need trials >= 100 for stable probability estimates")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2 or not len(grid):
        raise ConfigurationError("grid must be a nonempty (G, d) array of points")
    exact = np.apply_along_axis(op.apply, 1, grid)  # exact operators take one point

    rows = []
    for i, factory in enumerate(factories):
        exceed = np.zeros(len(grid))
        for t in range(trials):
            exceed += row_norm(factory.realize(stream.child(i, t))(grid) - exact, norm) > eps
        probs = exceed / trials
        j_max = int(np.argmax(probs))
        p = float(probs[j_max])
        rows.append({
            "sample_size": factory.sample_size,
            "max_probability": p,
            "std_error": float(np.sqrt(p * (1.0 - p) / trials)),
            "grid_index": j_max,
        })

    verdict = VERDICT_CONSISTENT
    for lo, hi in zip(rows, rows[1:]):
        gap = hi["max_probability"] - lo["max_probability"]
        if gap <= 0:
            continue
        se = float(np.hypot(lo["std_error"], hi["std_error"]))
        if gap > 3.0 * se:
            verdict = VERDICT_VIOLATED
            break
        verdict = VERDICT_INCONCLUSIVE

    return AssumptionReport(
        assumption_id="A2-sup-prob",
        parameters={"eps": eps, "trials": trials, "grid_size": len(grid),
                    "sample_sizes": sizes, "norm": norm},
        verdict=verdict,
        evidence=rows)


def check_monotone(factory: RandomOperatorFactory, x0, pairs, trials: int,
                   stream: RngStream) -> AssumptionReport:
    """Check order preservation of the random operators, realization by realization.

    pairs is a (P, 2, d) array of ordered pairs (lo, hi).  For each trial one
    realization is drawn and must satisfy x0 <= f(x0) componentwise together
    with f(lo) <= f(hi) for every pair, all comparisons exact and all
    evaluations sharing the trial's draws.  Violations are listed by trial,
    then pair (-1 for x0).
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    x0 = np.asarray(x0, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.float64).reshape(len(pairs), 2, x0.size)
    unordered = np.flatnonzero(np.any(pairs[:, 0] > pairs[:, 1], axis=1))
    if unordered.size:
        raise ConfigurationError(f"pair {unordered[0]} is not ordered componentwise")

    points = np.concatenate([x0[None], pairs.reshape(-1, x0.size)])
    gaps = np.empty((trials, 1 + len(pairs)))  # column 0: x0, column 1 + j: pair j
    for t in range(trials):
        images = factory.realize(stream.child(t))(points)
        gaps[t, 0] = np.max(x0 - images[0])
        gaps[t, 1:] = np.max(images[1::2] - images[2::2], axis=1)
    trial, column = np.nonzero(gaps > 0.0)

    verdict = VERDICT_VIOLATED if trial.size else VERDICT_CONSISTENT
    return AssumptionReport(
        assumption_id="A3-monotone",
        parameters={"trials": trials, "num_pairs": len(pairs),
                    "violation_count": int(trial.size)},
        verdict=verdict,
        evidence=[{"trial": int(t), "pair": int(c) - 1, "max_violation": float(gaps[t, c])}
                  for t, c in zip(trial[:100], column[:100])])


def _log_alpha_stats(alphas: np.ndarray):
    logs = np.log(np.maximum(alphas, 1e-300))
    mean_log = float(np.mean(logs))
    se_log = float(np.std(logs, ddof=1) / np.sqrt(logs.size))
    return mean_log, se_log


def check_contraction_log(factory: RandomOperatorFactory, pair_count: int,
                          trials: int, box: Box, stream: RngStream,
                          norm: str = "l2") -> AssumptionReport:
    """Estimate the per-realization Lipschitz coefficient by random-pair max
    ratios; the iteration is stable when log-coefficients are negative on average.

    The max-ratio estimate is a lower bound on the true coefficient (more
    pairs can only raise it), so `consistent` is evidence, not proof.
    """
    alphas = _lipschitz_samples(factory, 1, pair_count, trials, box, stream, norm)
    mean = float(np.mean(alphas))
    se = float(np.std(alphas, ddof=1) / np.sqrt(trials))
    mean_log, se_log = _log_alpha_stats(alphas)
    if mean_log + 3.0 * se_log < 0.0:
        verdict = VERDICT_CONSISTENT
    elif mean_log - 3.0 * se_log > 0.0:
        verdict = VERDICT_VIOLATED
    else:
        verdict = VERDICT_INCONCLUSIVE

    return AssumptionReport(
        assumption_id="A5-contraction-log",
        parameters={"pair_count": pair_count, "trials": trials, "norm": norm,
                    "estimate_is_lower_bound": True},
        verdict=verdict,
        evidence=[{"mean_alpha_hat": mean, "se_alpha_hat": se,
                   "mean_log_alpha_hat": mean_log, "se_log_alpha_hat": se_log,
                   "min_alpha_hat": float(np.min(alphas)),
                   "max_alpha_hat": float(np.max(alphas))}])


def check_composite_lipschitz(factory: RandomOperatorFactory, depth: int,
                              pair_count: int, trials: int, box: Box,
                              stream: RngStream, norm: str = "l2",
                              eps_ladder: Sequence[float] = (0.5, 0.25, 0.1, 0.05),
                              ) -> AssumptionReport:
    """Max-ratio Lipschitz estimate for depth-fold compositions of fresh
    independent realizations, with tail estimates P(coefficient > 1 - eps)."""
    if depth < 1:
        raise ConfigurationError("depth must be >= 1")
    alphas = _lipschitz_samples(factory, depth, pair_count, trials, box, stream, norm)
    mean = float(np.mean(alphas))
    se = float(np.std(alphas, ddof=1) / np.sqrt(trials))
    rows = [{"eps": float(e),
             "prob_above": float(np.mean(alphas > 1.0 - e)),
             "std_error": float(np.sqrt(np.mean(alphas > 1.0 - e)
                                        * (1.0 - np.mean(alphas > 1.0 - e)) / trials))}
            for e in eps_ladder]

    if float(np.max(alphas)) <= 1.0 + 1e-12:
        verdict = VERDICT_CONSISTENT
    elif mean - 3.0 * se > 1.0:
        verdict = VERDICT_VIOLATED
    else:
        verdict = VERDICT_INCONCLUSIVE

    return AssumptionReport(
        assumption_id="A4-composite-lipschitz",
        parameters={"depth": depth, "pair_count": pair_count, "trials": trials,
                    "norm": norm, "estimate_is_lower_bound": True,
                    "mean_alpha_hat": mean, "se_alpha_hat": se,
                    "max_alpha_hat": float(np.max(alphas))},
        verdict=verdict,
        evidence=rows)


def _per_row(f: Callable[[np.ndarray], np.ndarray], block: np.ndarray) -> np.ndarray:
    values = np.asarray(f(block), dtype=np.float64)
    if values.shape != block.shape[:1]:
        raise ConfigurationError(f"f must map an (m, d) block to m values, got {values.shape}")
    return values


def mc_pushforward_mean(f: Callable[[np.ndarray], np.ndarray],
                        factory: RandomOperatorFactory, x, trials: int,
                        stream: RngStream):
    """Monte Carlo estimate of E f(random_op(x)) with its standard error; f
    maps the (trials, d) block of images to one value per row, in one call."""
    if trials < 2:
        raise ConfigurationError("trials must be >= 2")
    x = np.asarray(x, dtype=np.float64)
    images = np.stack([factory.realize(stream.child(t))(x) for t in range(trials)])
    values = _per_row(f, images)
    return float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(trials))


@dataclass(frozen=True)
class LlnReport:
    """Time averages of f along randomized orbits versus the ensemble tail mean."""

    time_averages: np.ndarray       # one per run, averaging f over steps 0..K-1
    time_average_ses: np.ndarray    # batch-means standard errors
    tail_mean: float                # mean of f at the final step across runs
    tail_se: float
    spread: float                   # max pairwise gap between time averages
    max_gap_to_tail: float

    def to_dict(self) -> dict:
        return _jsonable({
            "time_averages": self.time_averages,
            "time_average_ses": self.time_average_ses,
            "tail_mean": self.tail_mean,
            "tail_se": self.tail_se,
            "spread": self.spread,
            "max_gap_to_tail": self.max_gap_to_tail,
        })


def _batch_means_se(values: np.ndarray, num_batches: int = 20) -> np.ndarray:
    # Standard error of the mean of each row (a correlated series) via batch means.
    runs, length = values.shape
    b = min(num_batches, length)
    width = length // b
    means = values[:, :b * width].reshape(runs, b, width).mean(axis=2)
    return np.std(means, axis=1, ddof=1) / np.sqrt(b)


def lln_audit(factory: RandomOperatorFactory, x0, f: Callable[[np.ndarray], np.ndarray],
              horizon: int, runs: int, stream: RngStream) -> LlnReport:
    """Run several randomized orbits (runs 0..runs-1 of stream, moved as one
    block) and compare the time average of f on each with the cross-run mean
    of f at the final step.  f maps the (runs, d) block of one step to one
    value per run, in one call per step.

    Both estimate the same stationary expectation when the iteration is
    stable, so they should agree within sampling error.
    """
    if horizon < 2:
        raise ConfigurationError("horizon must be >= 2")
    if runs < 2:
        raise ConfigurationError("runs must be >= 2")
    values = np.empty((runs, horizon + 1))

    def record(k, alive, z):
        values[alive, k] = _per_row(f, z)

    dropped = iterate_ensemble(factory, x0, horizon, stream, range(runs), record)
    if dropped:
        raise DivergenceError(dropped[min(dropped)])
    time_avgs = values[:, :horizon].mean(axis=1)
    ses = _batch_means_se(values[:, :horizon])
    tails = values[:, horizon]
    tail_mean = float(np.mean(tails))
    tail_se = float(np.std(tails, ddof=1) / np.sqrt(runs))
    spread = float(np.max(time_avgs) - np.min(time_avgs))
    return LlnReport(time_averages=time_avgs,
                     time_average_ses=ses,
                     tail_mean=tail_mean,
                     tail_se=tail_se,
                     spread=spread,
                     max_gap_to_tail=float(np.max(np.abs(time_avgs - tail_mean))))
