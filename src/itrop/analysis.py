"""Ensemble statistics, sequence metrics, and empirical checks of the
assumptions under which randomized fixed-point iteration is trustworthy."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (ConfigurationError, DivergenceError, ExactOperatorHandle,
                   RandomOperatorFactory, RngStream, as_point, iterate_ensemble,
                   read_text, row_norm, write_atomic)

VERDICT_CONSISTENT = "consistent"
VERDICT_VIOLATED = "violated"
VERDICT_INCONCLUSIVE = "inconclusive"

ASSUMPTION_IDS = ("A2-sup-prob", "A3-monotone", "A4-composite-lipschitz",
                  "A5-contraction-log")

_CSV_HEADER = "k,mean,variance,std_error,min,max,count"


@dataclass(frozen=True)
class Box:
    """Axis-aligned box used for sampling test points."""

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

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        if isinstance(shape, int):
            shape = (shape,)
        u = rng.random(tuple(shape) + (self.dim,))
        return self.lower + u * (self.upper - self.lower)

    @classmethod
    def around(cls, points) -> "Box":
        """Bounding box of the rows of `points`, padded on each side by a fifth
        of its range per coordinate."""
        p = np.asarray(points, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] == 0:
            raise ConfigurationError("need a nonempty (K, d) array of points")
        lo, hi = p.min(axis=0), p.max(axis=0)
        pad = 0.2 * np.maximum(hi - lo, 1e-12)
        return cls(lower=lo - pad, upper=hi + pad)


@dataclass(frozen=True)
class EnsembleSummary:
    """Per-step statistics of a scalar curve across independent runs."""

    mean: np.ndarray
    variance: np.ndarray
    std_error: np.ndarray
    min: np.ndarray
    max: np.ndarray
    count: int

    def to_csv(self, path) -> None:
        columns = [np.asarray(c, dtype=np.float64).tolist()
                   for c in (self.mean, self.variance, self.std_error, self.min, self.max)]
        lines = [_CSV_HEADER]
        lines += [f"{k},{mean!r},{var!r},{se!r},{lo!r},{hi!r},{self.count}"
                  for k, (mean, var, se, lo, hi) in enumerate(zip(*columns))]
        write_atomic(path, "\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "EnsembleSummary":
        lines = [ln for ln in read_text(path).splitlines() if ln]
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
        return cls(mean=np.asarray(cols["mean"]),
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


def orbit_curves(factory: RandomOperatorFactory, exact, target, stream: RngStream,
                 runs: int):
    """Move runs 0..runs-1 of stream as one block for len(exact) - 1 steps from
    exact[0]; return (distance, gap, dropped).  distance[k, r] = |z_k - exact[k]|
    and gap[k, r] = |mean(z_0..z_k) - target| for run r, (K+1, runs) each, in
    factory.norm; a run in dropped (run -> step) is NaN from that step on.

    The engine hands over blocks of steps (iterate_ensemble), and each block
    is reduced at once, in place: its running totals are the sequential sums
    `total += z_k` (np.add.accumulate), so every value is the one a
    step-by-step reduction gives, bit for bit, for any block size.
    """
    exact, target = np.asarray(exact, dtype=np.float64), as_point(target)
    if exact.ndim != 2 or not len(exact) or exact.shape[1] != target.size:
        raise ConfigurationError(f"need a nonempty (K+1, {target.size}) orbit for a target "
                                 f"of dimension {target.size}, got shape {exact.shape}")
    if runs < 1:
        raise ConfigurationError(f"runs must be >= 1, got {runs}")
    horizon = len(exact) - 1
    distance = np.full((horizon + 1, runs), np.nan)
    gap = np.full((horizon + 1, runs), np.nan)
    total = np.zeros((runs, exact.shape[1]))

    def reduce_block(first, alive, z):
        k = slice(first, first + len(z))
        cols = slice(None) if alive.size == runs else alive
        distance[k, cols] = row_norm(z - exact[k, None], factory.norm)
        z[0] += total[cols]
        np.add.accumulate(z, axis=0, out=z)
        total[cols] = z[-1]
        z /= np.arange(first + 1, first + len(z) + 1, dtype=np.float64)[:, None, None]
        gap[k, cols] = row_norm(z - target, factory.norm)

    dropped = iterate_ensemble(factory, exact[0], horizon, stream, range(runs), reduce_block)
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


def ensemble(curves) -> EnsembleSummary:
    """Pointwise mean/variance/std-error/min/max of curves from independent runs."""
    arr = np.asarray(curves, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigurationError("curves must form a (runs, K+1) array")
    runs = arr.shape[0]
    if runs < 2:
        raise ConfigurationError("need at least 2 runs for ensemble statistics")
    variance = arr.var(axis=0, ddof=1)
    return EnsembleSummary(mean=arr.mean(axis=0),
                           variance=variance,
                           std_error=np.sqrt(variance / runs),
                           min=arr.min(axis=0),
                           max=arr.max(axis=0),
                           count=runs)


def _mean_se(values: np.ndarray) -> np.ndarray:
    """Standard error of the mean of independent values, along the last axis."""
    return np.std(values, axis=-1, ddof=1) / np.sqrt(values.shape[-1])


def _proportion_se(p: float, trials: int) -> float:
    """Binomial standard error of a proportion p estimated from trials."""
    return float(np.sqrt(p * (1.0 - p) / trials))


def _shared(points: np.ndarray):
    """start() for trials that all move the same (P, d) points."""
    return lambda part: np.broadcast_to(points, (part.stop - part.start,) + points.shape)


def _exceedances(factory: RandomOperatorFactory, grid: np.ndarray, exact: np.ndarray,
                 eps: float, trials: int, stream: RngStream) -> np.ndarray:
    """(trials, G) flags: trial t's image of grid point g lies farther than
    eps from exact[g] in factory.norm, the grid being moved by run t of stream."""
    return factory.reduce([stream], range(trials), len(grid), _shared(grid),
                          lambda _, images: row_norm(images - exact, factory.norm) > eps)


def _monotone_gaps(factory: RandomOperatorFactory, x0: np.ndarray, pairs: np.ndarray,
                   trials: int, stream: RngStream) -> np.ndarray:
    """(trials, 1 + P) largest order violations of trial t, run t of stream:
    column 0 is max(x0 - f(x0)), column 1 + j is max(f(lo_j) - f(hi_j))."""
    points = np.concatenate([x0[None], pairs.reshape(-1, x0.size)])

    def gaps(_, images):
        return np.concatenate([np.max(x0 - images[:, :1], axis=2),
                               np.max(images[:, 1::2] - images[:, 2::2], axis=2)], axis=1)

    return factory.reduce([stream], range(trials), len(points), _shared(points), gaps)


def _draw_pairs(box: Box, rng: np.random.Generator, pair_count: int) -> np.ndarray:
    pairs = box.sample(rng, (pair_count, 2))
    for _ in range(100):
        degenerate = np.all(pairs[:, 0, :] == pairs[:, 1, :], axis=1)
        if not np.any(degenerate):
            return pairs
        pairs[degenerate] = box.sample(rng, (int(degenerate.sum()), 2))
    raise ConfigurationError("box appears degenerate: cannot draw distinct pairs")


def _lipschitz_samples(factory: RandomOperatorFactory, depth: int, pair_count: int,
                       trials: int, box: Box, stream: RngStream) -> np.ndarray:
    """Per trial t, the max-ratio Lipschitz estimate, in factory.norm, of the
    composition of run t's realizations from stream.child(0..depth-1), over
    pair_count random pairs drawn from run t's part of stream.child(depth);
    NaN ratios are skipped.  A trial's first k pairs are the same for any
    pair_count >= k."""
    if pair_count < 2:
        raise ConfigurationError("pair_count must be >= 2")
    if trials < 2:
        raise ConfigurationError("trials must be >= 2")
    if box.dim != factory.dimension:
        raise ConfigurationError(f"box has dimension {box.dim}, the factory "
                                 f"{factory.dimension}")
    pair_stream = stream.child(depth)

    def pairs(part):
        return np.stack([_draw_pairs(box, rng, pair_count).reshape(-1, box.dim)
                         for rng in pair_stream.generators(range(trials)[part])])

    def max_ratios(points, images):
        ratios = (row_norm(images[:, 0::2] - images[:, 1::2], factory.norm)
                  / row_norm(points[:, 0::2] - points[:, 1::2], factory.norm))
        return np.fmax.reduce(ratios, axis=1, initial=0.0)

    return factory.reduce([stream.child(j) for j in range(depth)], range(trials),
                          2 * pair_count, pairs, max_ratios)


def _require_space(op: ExactOperatorHandle, factories) -> None:
    """ConfigurationError unless every factory shares op's dimension and norm."""
    if any(f.norm != op.norm or f.dimension != op.dimension for f in factories):
        raise ConfigurationError(f"factories must act on the operator's space: dimension "
                                 f"{op.dimension}, norm {op.norm!r}")


def check_sup_probability(op: ExactOperatorHandle,
                          factories: Sequence[RandomOperatorFactory],
                          grid, eps: float, trials: int, stream: RngStream) -> AssumptionReport:
    """Estimate sup_x P(dist(random(x), exact(x)) > eps) over a finite grid,
    for a ladder of sample sizes; consistent when the ladder is non-increasing.
    Distances are in op.norm, which every factory must share; eps must be
    positive and finite.

    The estimated max should shrink as sample sizes grow if the random
    operators concentrate on the exact one.
    """
    factories = list(factories)
    if not factories:
        raise ConfigurationError("need at least one factory")
    _require_space(op, factories)
    if not (np.isfinite(eps) and eps > 0):
        raise ConfigurationError(f"eps must be a positive finite number, got {eps!r}")
    sizes = [f.sample_size for f in factories]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigurationError("factories must have strictly increasing sample sizes")
    if trials < 100:
        raise ConfigurationError("need trials >= 100 for stable probability estimates")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2 or not len(grid) or grid.shape[1] != op.dimension:
        raise ConfigurationError(f"grid must be a nonempty (G, {op.dimension}) array of "
                                 f"points, got shape {grid.shape}")
    exact = np.apply_along_axis(op.apply, 1, grid)  # exact operators take one point

    rows = []
    for i, factory in enumerate(factories):
        probs = _exceedances(factory, grid, exact, eps, trials,
                             stream.child(i)).sum(axis=0) / trials
        j_max = int(np.argmax(probs))
        p = float(probs[j_max])
        rows.append({
            "sample_size": factory.sample_size,
            "max_probability": p,
            "std_error": _proportion_se(p, trials),
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
                    "sample_sizes": sizes, "norm": op.norm},
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
    d = factory.dimension
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (d,):
        raise ConfigurationError(f"x0 must have shape ({d},), got {x0.shape}")
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.ndim != 3 or pairs.shape[1:] != (2, d):
        raise ConfigurationError(f"pairs must have shape (P, 2, {d}), got {pairs.shape}")
    unordered = np.flatnonzero(np.any(pairs[:, 0] > pairs[:, 1], axis=1))
    if unordered.size:
        raise ConfigurationError(f"pair {unordered[0]} is not ordered componentwise")

    gaps = _monotone_gaps(factory, x0, pairs, trials, stream)
    trial, column = np.nonzero(gaps > 0.0)

    verdict = VERDICT_VIOLATED if trial.size else VERDICT_CONSISTENT
    return AssumptionReport(
        assumption_id="A3-monotone",
        parameters={"trials": trials, "num_pairs": len(pairs),
                    "violation_count": int(trial.size)},
        verdict=verdict,
        evidence=[{"trial": int(t), "pair": int(c) - 1, "max_violation": float(gaps[t, c])}
                  for t, c in zip(trial[:100], column[:100])])


def check_contraction_log(op: ExactOperatorHandle, factory: RandomOperatorFactory,
                          pair_count: int, trials: int, box: Box,
                          stream: RngStream) -> AssumptionReport:
    """Estimate the per-realization Lipschitz coefficient in op.norm by
    random-pair max ratios, factory sharing op's norm and dimension; the
    iteration is stable when log-coefficients are negative on average.

    The max ratios only bound the coefficients from below, so `consistent`
    also needs op.claimed_modulus (recorded as analytic_modulus) below 1.
    """
    _require_space(op, [factory])
    alphas = _lipschitz_samples(factory, 1, pair_count, trials, box, stream)
    logs = np.log(np.maximum(alphas, 1e-300))
    mean, se = float(np.mean(alphas)), float(_mean_se(alphas))
    mean_log, se_log = float(np.mean(logs)), float(_mean_se(logs))
    cert = op.claimed_modulus
    if mean_log + 3.0 * se_log < 0.0 and cert is not None and cert < 1.0:
        verdict = VERDICT_CONSISTENT
    elif mean_log - 3.0 * se_log > 0.0:
        verdict = VERDICT_VIOLATED
    else:
        verdict = VERDICT_INCONCLUSIVE

    return AssumptionReport(
        assumption_id="A5-contraction-log",
        parameters={"pair_count": pair_count, "trials": trials, "norm": op.norm,
                    "estimate_is_lower_bound": True, "analytic_modulus": cert},
        verdict=verdict,
        evidence=[{"mean_alpha_hat": mean, "se_alpha_hat": se,
                   "mean_log_alpha_hat": mean_log, "se_log_alpha_hat": se_log,
                   "min_alpha_hat": float(np.min(alphas)),
                   "max_alpha_hat": float(np.max(alphas))}])


def check_composite_lipschitz(factory: RandomOperatorFactory, depth: int,
                              pair_count: int, trials: int, box: Box,
                              stream: RngStream,
                              eps_ladder: Sequence[float] = (0.5, 0.25, 0.1, 0.05),
                              ) -> AssumptionReport:
    """Max-ratio Lipschitz estimate, in factory.norm, for depth-fold
    compositions of fresh independent realizations, with tail estimates
    P(coefficient > 1 - eps)."""
    if depth < 1:
        raise ConfigurationError("depth must be >= 1")
    alphas = _lipschitz_samples(factory, depth, pair_count, trials, box, stream)
    mean, se = float(np.mean(alphas)), float(_mean_se(alphas))
    above = [float(np.mean(alphas > 1.0 - e)) for e in eps_ladder]
    rows = [{"eps": float(e), "prob_above": p, "std_error": _proportion_se(p, trials)}
            for e, p in zip(eps_ladder, above)]

    if float(np.max(alphas)) <= 1.0 + 1e-12:
        verdict = VERDICT_CONSISTENT
    elif mean - 3.0 * se > 1.0:
        verdict = VERDICT_VIOLATED
    else:
        verdict = VERDICT_INCONCLUSIVE

    return AssumptionReport(
        assumption_id="A4-composite-lipschitz",
        parameters={"depth": depth, "pair_count": pair_count, "trials": trials,
                    "norm": factory.norm, "estimate_is_lower_bound": True,
                    "mean_alpha_hat": mean, "se_alpha_hat": se,
                    "max_alpha_hat": float(np.max(alphas))},
        verdict=verdict,
        evidence=rows)


@dataclass(frozen=True)
class LlnReport:
    """Time averages of f along randomized orbits versus the ensemble tail mean."""

    time_averages: np.ndarray       # one per run, averaging f over steps 0..K-1
    time_average_ses: np.ndarray    # batch-means standard errors
    tail_mean: float                # mean of f at the final step across runs
    tail_se: float
    spread: float                   # max pairwise gap between time averages
    max_gap_to_tail: float


def _batch_means_se(values: np.ndarray, num_batches: int = 20) -> np.ndarray:
    # Standard error of the mean of each row (a correlated series) via batch means.
    runs, length = values.shape
    b = min(num_batches, length)
    width = length // b
    return _mean_se(values[:, :b * width].reshape(runs, b, width).mean(axis=2))


def lln_audit(factory: RandomOperatorFactory, x0, f: Callable[[np.ndarray], np.ndarray],
              horizon: int, runs: int, stream: RngStream) -> LlnReport:
    """Run several randomized orbits (runs 0..runs-1 of stream, moved as one
    block) and compare the time average of f on each with the cross-run mean
    of f at the final step.  f maps the (runs, d) block of one step to one
    value per run, in one call per step; the engine's blocks of steps fill
    the (runs, horizon + 1) matrix of f, the same bytes for any block size.

    Both estimate the same stationary expectation when the iteration is
    stable, so they should agree within sampling error.
    """
    if horizon < 2:
        raise ConfigurationError("horizon must be >= 2")
    if runs < 2:
        raise ConfigurationError("runs must be >= 2")
    values = np.empty((runs, horizon + 1))

    def record(first, alive, block):
        for k, z in enumerate(block, first):
            row = np.asarray(f(z), dtype=np.float64)
            if row.shape != alive.shape:
                raise ConfigurationError(
                    f"f must map an (m, d) block to m values, got {row.shape}")
            values[alive, k] = row

    dropped = iterate_ensemble(factory, x0, horizon, stream, range(runs), record)
    if dropped:
        raise DivergenceError(min(dropped.values()))
    time_avgs = values[:, :horizon].mean(axis=1)
    ses = _batch_means_se(values[:, :horizon])
    tails = values[:, horizon]
    tail_mean = float(np.mean(tails))
    tail_se = float(_mean_se(tails))
    spread = float(np.max(time_avgs) - np.min(time_avgs))
    return LlnReport(time_averages=time_avgs,
                     time_average_ses=ses,
                     tail_mean=tail_mean,
                     tail_se=tail_se,
                     spread=spread,
                     max_gap_to_tail=float(np.max(np.abs(time_avgs - tail_mean))))
