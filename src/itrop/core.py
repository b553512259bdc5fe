"""Iteration engine: exact orbits, and randomized orbits of many runs moved as one block."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Any coordinate beyond this magnitude (or any NaN) aborts an iteration.
DIVERGENCE_LIMIT = 1e12

NORMS = ("l2", "sup")

# A block realization draws and applies the runs of one step in chunks whose
# temporaries stay under this many bytes, so memory does not grow with R.
CHUNK_BYTES = 1 << 20


class ConfigurationError(ValueError):
    """Bad inputs: shapes, ranges, unknown keys, malformed files."""


class DivergenceError(RuntimeError):
    """An orbit left the trusted numeric range."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"orbit diverged at step {step}")


class NonConvergenceError(RuntimeError):
    """An iterative solve hit its iteration cap before reaching tolerance."""


def as_point(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 vector."""
    p = np.asarray(x, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ConfigurationError(f"point must be a nonempty 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ConfigurationError("point has non-finite coordinates")
    return p


def row_norm(diff, norm: str = "l2") -> np.ndarray:
    """Norm ("l2" or "sup") of each row of diff, taken along its last axis."""
    diff = np.asarray(diff, dtype=np.float64)
    if norm == "l2":
        return np.linalg.norm(diff, axis=-1)
    if norm == "sup":
        return np.max(np.abs(diff), axis=-1, initial=0.0)
    raise ConfigurationError(f"unknown norm {norm!r}, expected one of {NORMS}")


def write_atomic(path, text: str) -> None:
    """Write text to path through a temporary file in the same directory, so a
    crash never leaves a partial file under the final name."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream.

    A stream is identified by a master seed plus a lineage of integer
    indices (purpose, sample size, step, ...).  Distinct lineages give
    statistically independent generators, and the same lineage always
    reproduces the same draws.  `run` selects the part of the lineage's
    stream that one run reads, so runs drawn together never share draws and
    a run's draws do not depend on which other runs are drawn with it.
    """

    master_seed: int
    lineage: tuple[int, ...] = ()
    run: int = 0

    def __post_init__(self):
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
            raise ConfigurationError("master_seed must be a nonnegative integer")
        if any((not isinstance(i, int)) or i < 0 for i in self.lineage):
            raise ConfigurationError("stream lineage indices must be nonnegative integers")
        if not isinstance(self.run, int) or self.run < 0:
            raise ConfigurationError("stream run must be a nonnegative integer")

    def child(self, *indices: int) -> "RngStream":
        """Derive a sub-stream by extending the lineage (the run is kept)."""
        return RngStream(self.master_seed, self.lineage + tuple(int(i) for i in indices),
                         self.run)

    def for_run(self, run: int) -> "RngStream":
        """The same lineage, read for another run."""
        return replace(self, run=int(run))

    def _bits(self) -> np.random.PCG64:
        return np.random.PCG64(np.random.SeedSequence(self.master_seed,
                                                      spawn_key=self.lineage))

    @cached_property
    def _start(self) -> tuple[np.random.PCG64, dict]:
        # One derivation per stream object: the chunks and runs of a step
        # restore this state instead of deriving the lineage again.
        bits = self._bits()
        return bits, bits.state

    def _bits_at(self, offset: int) -> np.random.PCG64:
        """The stream's own bit generator, `offset` draws into the lineage's
        stream; a stream object is not meant for concurrent use."""
        bits, start = self._start
        bits.state = start
        if offset:
            bits.advance(offset)
        return bits

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream's run; every call replays the same draws.

        Run r reads the r-th region of 2^64 draws, so any number of draws
        per run stays disjoint from the other runs.
        """
        bits = self._bits()
        if self.run:
            bits.advance(self.run << 64)
        return np.random.Generator(bits)

    def generators(self, runs) -> Iterator[np.random.Generator]:
        """generator() for each of runs in turn, sharing one derivation of the
        lineage; each generator is valid until the next one is taken."""
        for r in runs:
            yield np.random.Generator(self._bits_at(int(r) << 64))

    def uniforms(self, width: int, runs) -> np.ndarray:
        """(len(runs), width) uniforms in [0, 1) for fixed-width draws.

        Row i is the part of run runs[i] (ascending): the `width` draws that
        start runs[i] * width draws into the lineage's stream.
        """
        runs = np.asarray(runs, dtype=np.int64)
        first = int(runs[0])
        span = int(runs[-1]) - first + 1
        u = np.random.Generator(self._bits_at(first * width)).random((span, width))
        return u if span == runs.size else u[runs - first]


@dataclass(frozen=True)
class ExactOperatorHandle:
    """A deterministic self-map of R^dimension.

    claimed_modulus, when known, is an upper bound on the map's Lipschitz
    constant (sub-1 means the map is a contraction).
    """

    apply: Callable[[np.ndarray], np.ndarray]
    dimension: int
    claimed_modulus: float | None = None


@dataclass(frozen=True)
class RandomOperatorFactory:
    """Factory of i.i.d. random approximations of an exact operator.

    realize(stream) draws one realization, the one that run stream.run reads
    from stream: a deterministic map of any (..., dimension) array of points
    to one of the same shape, every row moved with the same drawn randomness.
    sample_size is the number of per-step samples the realization averages.

    step, when present, moves a block of runs at once: step(stream, runs, Z)
    returns the block whose row i is realize(stream.for_run(runs[i]))(Z[i]).
    Factories without it are stepped one run at a time through realize.
    """

    sample_size: int
    realize: Callable[[RngStream], Callable[[np.ndarray], np.ndarray]]
    dimension: int
    step: Callable[[RngStream, np.ndarray, np.ndarray], np.ndarray] | None = None


def block_factory(sample_size: int, dimension: int, draw, move,
                  row_bytes: int) -> RandomOperatorFactory:
    """Factory whose realizations are draw(stream, runs), the runs' draws from
    stream, followed by move(draws, Z), the block of points they move.

    row_bytes bounds the temporaries of one run; a step draws and moves
    chunks of at most CHUNK_BYTES // row_bytes runs.
    """
    chunk = max(1, CHUNK_BYTES // max(1, row_bytes))

    def realize(stream: RngStream):
        drawn = draw(stream, [stream.run])

        def apply(x):
            x = np.asarray(x, dtype=np.float64)
            if x.shape[-1:] != (dimension,):
                raise ConfigurationError(f"points must have shape (..., {dimension}), "
                                         f"got {x.shape}")
            return move(drawn, x.reshape(-1, dimension)).reshape(x.shape)

        return apply

    def step(stream: RngStream, runs: np.ndarray, z: np.ndarray) -> np.ndarray:
        if runs.size <= chunk:
            return move(draw(stream, runs), z)
        out = np.empty_like(z)
        for lo in range(0, runs.size, chunk):
            part = slice(lo, lo + chunk)
            out[part] = move(draw(stream, runs[part]), z[part])
        return out

    return RandomOperatorFactory(sample_size=sample_size, realize=realize,
                                 dimension=dimension, step=step)


def _check_start(x0, dimension: int, num_steps: int) -> np.ndarray:
    x0 = as_point(x0)
    if x0.shape != (dimension,):
        raise ConfigurationError(
            f"initial point has dimension {x0.size}, operator expects {dimension}")
    if num_steps < 0:
        raise ConfigurationError("num_steps must be >= 0")
    return x0


def _within_limit(block: np.ndarray, rows: int, dimension: int, step: int) -> np.ndarray:
    """Shape check, then which rows stay in the trusted range (one reduction)."""
    if block.shape != (rows, dimension):
        raise ConfigurationError(f"operator returned shape {block.shape[1:]} at step {step}, "
                                 f"expected ({dimension},)")
    return np.abs(block).max(axis=1) <= DIVERGENCE_LIMIT  # False for NaN


def iterate_exact(op: ExactOperatorHandle, y0, num_steps: int) -> np.ndarray:
    """Orbit y_0, T(y_0), T^2(y_0), ... as a (num_steps+1, d) array."""
    y = _check_start(y0, op.dimension, num_steps)
    out = np.empty((num_steps + 1, op.dimension))
    out[0] = y
    for k in range(1, num_steps + 1):
        y = np.asarray(op.apply(y), dtype=np.float64)
        if not _within_limit(y[None], 1, op.dimension, k)[0]:
            raise DivergenceError(k)
        out[k] = y
    return out


def _step_by_realize(factory: RandomOperatorFactory):
    def step(stream, runs, z):
        return [factory.realize(stream.for_run(r))(x) for r, x in zip(runs.tolist(), z)]

    return step


def iterate_ensemble(factory: RandomOperatorFactory, z0, num_steps: int,
                     stream: RngStream, runs, visit) -> dict[int, int]:
    """Move the given runs of the randomized orbit from z0 as one (m, d) block.

    Step k (1..num_steps) applies to each run its realization from
    stream.child(k - 1), so run r's orbit is the same whether it is moved
    alone or with others.  visit(k, runs, z) sees the block after every
    step and at k = 0: `runs` are the surviving runs (ascending), `z` their
    points.  A run whose point leaves the trusted range is dropped; the
    result maps each dropped run to the step where that happened.
    """
    z0 = _check_start(z0, factory.dimension, num_steps)
    runs = np.asarray(runs, dtype=np.int64)
    if runs.ndim != 1 or runs.size == 0 or runs[0] < 0 or np.any(np.diff(runs) <= 0):
        raise ConfigurationError("runs must be a nonempty ascending list of distinct run indices")
    step = factory.step or _step_by_realize(factory)
    z = np.tile(z0, (runs.size, 1))
    visit(0, runs, z)
    dropped: dict[int, int] = {}
    for k in range(1, num_steps + 1):
        z = np.asarray(step(stream.child(k - 1), runs, z), dtype=np.float64)
        ok = _within_limit(z, runs.size, factory.dimension, k)
        if not ok.all():
            dropped.update((r, k) for r in runs[~ok].tolist())
            runs, z = runs[ok], z[ok]
            if not runs.size:
                break
        visit(k, runs, z)
    return dropped


def iterate_random(factory: RandomOperatorFactory, z0, num_steps: int,
                   run: RngStream) -> np.ndarray:
    """Randomized orbit of the single run run.run, as a (num_steps+1, d) array.

    Step k applies the realization from run.child(k - 1); this is the
    ensemble engine with one run, so the orbit equals that run's row in any
    batch.
    """
    rows = []
    dropped = iterate_ensemble(factory, z0, num_steps, run, [run.run],
                               lambda k, runs, z: rows.append(z[0].copy()))
    if dropped:
        raise DivergenceError(dropped[run.run])
    return np.array(rows)


def fixed_point_residual(op: ExactOperatorHandle, x, norm: str = "l2") -> float:
    """How far x is from being a fixed point of op."""
    x = as_point(x)
    return float(row_norm(op.apply(x) - x, norm))
