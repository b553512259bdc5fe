"""Iteration engine: exact orbits, and randomized orbits of many runs moved as one block."""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, islice
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Any coordinate beyond this magnitude (or any NaN) aborts an iteration.
DIVERGENCE_LIMIT = 1e12

NORMS = ("l2", "sup")

# The engine and RandomOperatorFactory.reduce, the factory's block method, draw
# and move runs in chunks whose temporaries stay under this many bytes
# (RandomOperatorFactory.chunk), so memory does not grow with the runs or trials.
CHUNK_BYTES = 1 << 20

# The alias sampler draws next states this many at a time, into buffers each
# thread reuses, so its per-sample arrays stay in a core's cache.
SAMPLE_BLOCK = 3 << 13


class ConfigurationError(ValueError):
    """Bad inputs: shapes, ranges, unknown keys, malformed files."""


class DivergenceError(RuntimeError):
    """An orbit left the trusted numeric range."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"orbit diverged at step {step}")


class NonConvergenceError(RuntimeError):
    """An iterative solve hit its iteration cap before reaching tolerance."""


def as_finite(x, name: str) -> np.ndarray:
    """x as a float64 array; ConfigurationError naming `name` if an entry is not finite."""
    a = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ConfigurationError(f"{name} has non-finite entries")
    return a


def as_point(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 vector."""
    p = as_finite(x, "point")
    if p.ndim != 1 or p.size == 0:
        raise ConfigurationError(f"point must be a nonempty 1-D vector, got shape {p.shape}")
    return p


def _check_norm(norm) -> None:
    if norm not in NORMS:
        raise ConfigurationError(f"unknown norm {norm!r}, expected one of {NORMS}")


def row_norm(diff, norm: str = "l2") -> np.ndarray:
    """Norm ("l2" or "sup") of each row of diff, taken along its last axis."""
    diff = np.asarray(diff, dtype=np.float64)
    if norm == "l2":  # np.linalg.norm(diff, axis=-1), bit for bit, without its overhead
        return np.sqrt(np.add.reduce(diff * diff, axis=-1))
    if norm == "sup":
        return np.max(np.abs(diff), axis=-1, initial=0.0)
    _check_norm(norm)  # neither: raises


def write_atomic(path, text: str) -> None:
    """Write text to path through a temporary file in the same directory, so a
    crash never leaves a partial file under the final name; a path that
    cannot be written raises ConfigurationError naming it."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def read_text(path) -> str:
    """The text of a UTF-8 file, line endings untranslated; a file that cannot
    be read or decoded raises ConfigurationError naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc


def _plain(value):
    """json's default hook: a numpy array or scalar as the Python value it holds."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path, doc) -> None:
    """Write doc through write_atomic as JSON with sorted keys, a 2-space indent
    and a trailing newline.  numpy arrays and scalars are written as the
    Python values they hold: np.float64 is a float, so it is written as
    float's repr; any other value json cannot write raises TypeError."""
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True, default=_plain) + "\n")


def require_indexable(entries: int, message: str) -> None:
    """ConfigurationError(message) unless an array of `entries` float64 values
    can be indexed, so a size no array can take fails before any is made."""
    if entries * 8 > np.iinfo(np.intp).max:
        raise ConfigurationError(message)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path):
    """The document in a UTF-8 JSON file, parsed strictly (NaN and Infinity are
    rejected); a file that cannot be read or parsed raises ConfigurationError naming it."""
    text = read_text(path)
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError; nesting too deep
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (pcg64.h), with which _child_starts derives
# the states numpy would.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_WORD, _STATE = (1 << 32) - 1, (1 << 128) - 1
# generate_state(4, uint64) cycles the pool twice, hashing word i with the
# B-constant before and after its i-th multiplication
_B_HASH = [_INIT_B * pow(_MULT_B, i, 1 << 32) & _WORD for i in range(9)]
_B_XOR, _B_MUL = np.array(_B_HASH[:8], np.uint32), np.array(_B_HASH[1:], np.uint32)

# Steps whose streams RngStream.children derives at once.
_CHILD_BATCH = 256

# Each thread's one generator, which every stream read on the thread restarts.
_thread = threading.local()


def _word_count(n: int) -> int:
    """uint32 words SeedSequence splits the nonnegative integer n into."""
    return max(1, -(-n.bit_length() // 32))


def _child_starts(master_seed: int, prefix: tuple[int, ...], indices: list[int]) -> list[dict]:
    """The PCG64 state of each lineage prefix + (k,), k in indices: bit for bit
    PCG64(SeedSequence(master_seed, spawn_key=prefix + (k,))).state.

    numpy's SeedSequence mixes the shared entropy (master_seed, prefix) once.
    SeedSequence.mix_entropy then hashes each further word into every pool
    word; its hash constant depends only on how many words came before, so
    the words of k are mixed in for all k at once in uint32 arithmetic, one
    run of indices of equal word count at a time.  (The seed's zero padding,
    which numpy adds for a nonempty spawn key, leaves the pool of the prefix
    alone unchanged: the first pass hashes 0 in for missing words.)
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=prefix)
    words = max(4, _word_count(master_seed)) + sum(map(_word_count, prefix))
    hashes = 16 + 4 * (words - 4)  # hashmix calls made on the pool so far
    starts = []
    for count, run in groupby(indices, _word_count):
        run = list(run)
        pool = np.tile(seq.pool, (len(run), 1))
        const = _INIT_A * pow(_MULT_A, hashes, 1 << 32) & _WORD
        for shift in range(0, 32 * count, 32):
            word = np.array([k >> shift & _WORD for k in run], np.uint32)
            for i in range(4):  # hashmix(word), mixed into pool word i
                h = word ^ np.uint32(const)
                const = const * _MULT_A & _WORD
                h *= np.uint32(const)
                h ^= h >> 16
                x = pool[:, i] * np.uint32(_MIX_MULT_L) - h * np.uint32(_MIX_MULT_R)
                pool[:, i] = x ^ (x >> 16)
        starts += _pcg_states(pool)
    return starts


def _pcg_states(pools: np.ndarray) -> list[dict]:
    """PCG64(seq).state for the SeedSequence pool of each row of the (K, 4)
    uint32 pools: generate_state(4, uint64) gives the seed and increment, and
    pcg_setseq_128_srandom_r seeds the generator with them."""
    words = np.concatenate([pools, pools], axis=1) ^ _B_XOR
    words *= _B_MUL
    words ^= words >> 16
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in words.astype("<u4").view("<u8").tolist():
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _STATE
        state = (((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc) & _STATE
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream.

    A stream is a (master_seed, lineage) pair: a master seed plus a lineage
    of integer indices (purpose, sample size, step, ...).  Distinct lineages
    give statistically independent generators, and the same lineage always
    reproduces the same draws.  Each read names the runs it reads: a run has
    its own part of the lineage's stream, so runs drawn together never share
    draws and a run's draws do not depend on which other runs are drawn with
    it, nor on the thread that draws them: several threads may read one
    stream object at once (the engine draws multinomial next states ahead on
    the usable CPUs), and every read gives the same bytes as a serial one.
    """

    master_seed: int
    lineage: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
            raise ConfigurationError("master_seed must be a nonnegative integer")
        if any((not isinstance(i, int)) or i < 0 for i in self.lineage):
            raise ConfigurationError("stream lineage indices must be nonnegative integers")

    def child(self, *indices: int) -> "RngStream":
        """Derive a sub-stream by extending the lineage."""
        return RngStream(self.master_seed, self.lineage + tuple(int(i) for i in indices))

    def children(self, indices) -> Iterator["RngStream"]:
        """child(k) for each k of indices in turn, their start states derived
        _CHILD_BATCH at a time (see _child_starts)."""
        indices = iter(indices)
        while batch := [int(k) for k in islice(indices, _CHILD_BATCH)]:
            if min(batch) < 0:
                raise ConfigurationError("stream lineage indices must be nonnegative integers")
            for k, start in zip(batch, _child_starts(self.master_seed, self.lineage, batch)):
                # self's fields are checked, and so is k: fill in child(k) as
                # its constructor and _start would
                child = object.__new__(RngStream)
                child.__dict__.update(master_seed=self.master_seed, lineage=self.lineage + (k,),
                                      _start=start)
                yield child

    @cached_property
    def _start(self) -> dict:
        # One derivation per stream object: the chunks and runs of a step
        # restore this PCG64 state instead of deriving the lineage again.
        if not self.lineage:
            return _pcg_states(np.random.SeedSequence(self.master_seed).pool[None])[0]
        return _child_starts(self.master_seed, self.lineage[:-1], self.lineage[-1:])[0]

    def generator_at(self, offset: int) -> np.random.Generator:
        """This thread's generator, restarted `offset` draws into the
        lineage's stream."""
        try:
            generator = _thread.generator
        except AttributeError:
            generator = _thread.generator = np.random.Generator(np.random.PCG64(0))
        bits = generator.bit_generator
        bits.state = self._start
        if offset:
            bits.advance(offset)
        return generator

    def generator(self) -> np.random.Generator:
        """Run 0's generator, the lineage's stream from its start; every call
        replays the same draws.  The generator is valid until the same thread
        takes its next generator from any stream."""
        return self.generator_at(0)

    def generators(self, runs) -> Iterator[np.random.Generator]:
        """The generator of each of runs in turn: run r reads the r-th region
        of 2^64 draws, so any number of draws per run stays disjoint from the
        other runs.  Each generator is valid until the same thread takes its
        next generator from any stream."""
        for r in runs:
            yield self.generator_at(int(r) << 64)

    def uniforms(self, width: int, runs, out=None) -> np.ndarray:
        """(len(runs), width) uniforms in [0, 1) for fixed-width draws, into out if given.

        Row i is the part of run runs[i] (ascending): the `width` draws that
        start runs[i] * width draws into the lineage's stream.  Each block of
        consecutive runs is drawn from its own restart, so runs far apart
        draw nothing in between.
        """
        runs = np.asarray(runs, dtype=np.int64)
        first = int(runs[0])
        if int(runs[-1]) - first + 1 == runs.size:  # one block, as the engine's runs are
            return self.generator_at(first * width).random((runs.size, width), out=out)
        bounds = [0, *(np.flatnonzero(np.diff(runs) != 1) + 1).tolist(), runs.size]
        u = np.empty((runs.size, width)) if out is None else out
        for lo, hi in zip(bounds, bounds[1:]):
            self.generator_at(int(runs[lo]) * width).random(out=u[lo:hi])
        return u


@dataclass(frozen=True)
class ExactOperatorHandle:
    """A deterministic self-map of R^dimension, measured in `norm`.

    norm ("l2" or "sup", checked here) is the metric of the space the map
    acts on: claimed_modulus, when known, is an upper bound on the map's
    Lipschitz constant in that norm (a finite number >= 0, checked here;
    sub-1 means the map is a contraction), and solve_exact and the checkers
    measure distances in it.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    dimension: int
    claimed_modulus: float | None = None
    norm: str = "l2"

    def __post_init__(self):
        _check_norm(self.norm)
        modulus = self.claimed_modulus
        if modulus is not None and not (np.isfinite(modulus) and modulus >= 0):
            raise ConfigurationError(f"claimed_modulus must be None or a finite number >= 0, "
                                     f"got {modulus!r}")


@dataclass(frozen=True)
class RandomOperatorFactory:
    """Factory of i.i.d. random approximations of an exact operator.

    A realization is draw followed by move.  draw(stream, runs) draws the
    randomness of the given runs' realizations from stream, and
    move(draws, Z) moves row i of the (m, P, d) block Z with the draws of
    runs[i].  row_bytes bounds the temporaries of one run moving one point,
    and point_bytes those of each further point.  draws_ahead says that
    draw releases the GIL for most of its time, so draws() may draw coming
    chunks on worker threads.  sample_size is the number of per-step
    samples a realization averages.

    realize(stream, run=0) draws one realization, the one that run `run`
    reads from stream: a deterministic map of any (..., dimension) array of
    points to one of the same shape, every row moved with the same drawn
    randomness; a negative run is a ConfigurationError.  When not given it
    is draw and move with m = 1, so a realization, the engine's (m, d) step
    (P = 1) and reduce's (m, P, d) blocks all run the same move.  realize
    moves one run; reduce, the block method, moves many runs in chunks.

    norm ("l2" or "sup", checked here) is the metric of the space the
    realizations act on: orbit_curves and the checkers measure distances
    and Lipschitz ratios in it.
    """

    sample_size: int
    dimension: int
    draw: Callable[[RngStream, np.ndarray], object]
    move: Callable[[object, np.ndarray], np.ndarray]
    row_bytes: int
    point_bytes: int
    draws_ahead: bool = False
    realize: Callable[..., Callable[[np.ndarray], np.ndarray]] | None = None
    norm: str = "l2"

    def __post_init__(self):
        _check_norm(self.norm)
        # derived when not given, and derived anew when replace() copies it
        if (self.realize is None
                or getattr(self.realize, "__func__", None) is RandomOperatorFactory._realize):
            object.__setattr__(self, "realize", self._realize)

    def _realize(self, stream: RngStream, run: int = 0):
        drawn = self.draw(stream, check_runs([run]))

        def apply(x):
            x = np.asarray(x, dtype=np.float64)
            if x.shape[-1:] != (self.dimension,):
                raise ConfigurationError(f"points must have shape (..., {self.dimension}), "
                                         f"got {x.shape}")
            return self.move(drawn, x.reshape(1, -1, self.dimension)).reshape(x.shape)

        return apply

    def chunk(self, points: int = 1) -> int:
        """Runs drawn and moved at once when each run moves `points` points:
        as many as keep the temporaries under CHUNK_BYTES, at least one."""
        return max(1, CHUNK_BYTES // (self.row_bytes + (points - 1) * self.point_bytes))

    def draws(self, plan) -> Iterator:
        """draw(stream, runs) for each (stream, runs) chunk of plan, in plan order.

        Draws do not depend on the points they move, so when the factory
        draws_ahead and more than one CPU is usable, one worker thread per
        usable CPU draws the coming chunks while the caller moves the one
        yielded; each worker holds at most one chunk drawn ahead.  Otherwise
        a chunk is drawn on the calling thread when it is reached.  The plan
        is read ahead as far as the draws are.  Closing the generator cancels
        the draws not yet started and waits for the running ones.
        """
        workers = _usable_cpus() if self.draws_ahead else 0
        if workers < 2:
            for stream, runs in plan:
                yield self.draw(stream, runs)
            return
        pool = ThreadPoolExecutor(workers, "itrop-draw")
        pending = deque()
        try:
            for stream, runs in plan:
                pending.append(pool.submit(self.draw, stream, runs))
                if len(pending) > workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)

    def reduce(self, layers, runs, width: int, start, stat) -> np.ndarray:
        """The block method: stat(points, images) for the runs, in chunks of
        chunk(width) runs, its rows stacked in run order.  runs is an
        ascending range or array of distinct nonnegative run indices
        (anything else is a ConfigurationError, a range checked without
        listing it), sliced a chunk at a time as draws draws it (every layer
        of a chunk before the next); points = start(part) is the
        (m, width, d) block of runs[part], part a slice of positions, and
        images that block moved by each run's realization from every stream
        of layers in turn, bitwise as realize(layer, run) moves it.  The rows
        are allocated at the first chunk, so only they grow with the runs."""
        runs = check_runs(runs)
        total, size = len(runs), self.chunk(width)
        chunks = range(0, total, size)
        plan = ((layer, np.asarray(runs[lo:lo + size])) for lo in chunks for layer in layers)
        rows = None
        with closing(self.draws(plan)) as drawn:
            for lo in chunks:
                part = slice(lo, min(lo + size, total))
                points = images = start(part)
                for _ in layers:
                    images = self.move(next(drawn), images)
                reduced = stat(points, images)
                if rows is None:
                    rows = np.empty((total,) + reduced.shape[1:], reduced.dtype)
                rows[part] = reduced
        return rows


def check_runs(runs):
    """runs as an int64 array, or a range as it is, which must list distinct
    run indices in ascending order: the samplers read a block of runs as one
    span of their stream.  Run indices are integers (not bools) that int64
    holds; a range is checked without listing its runs."""
    if isinstance(runs, range):
        ok = bool(runs) and runs.start >= 0 and runs.step > 0 and runs[-1] < 2 ** 63
    else:
        runs = np.asarray(runs)
        ok = (runs.dtype.kind in "iu" and runs.ndim == 1 and runs.size > 0 and runs[0] >= 0
              and runs.max() < 2 ** 63 and not np.any(np.diff(runs.astype(np.int64)) <= 0))
    if not ok:
        raise ConfigurationError("runs must be a nonempty ascending list of distinct run indices")
    return runs if isinstance(runs, range) else runs.astype(np.int64, copy=False)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _check_start(x0, dimension: int, num_steps: int) -> np.ndarray:
    x0 = as_point(x0)
    if x0.shape != (dimension,):
        raise ConfigurationError(
            f"initial point has dimension {x0.size}, operator expects {dimension}")
    if num_steps < 0:
        raise ConfigurationError("num_steps must be >= 0")
    return x0


def _within_limit(block: np.ndarray, rows: int, dimension: int, step: int) -> np.ndarray | None:
    """Shape check, then None when every row stays in the trusted range, else
    each row's flag (False for NaN).  The common case costs one scalar
    reduction; the rows are looked at only when it fails."""
    if block.shape != (rows, dimension):
        raise ConfigurationError(f"operator returned shape {block.shape[1:]} at step {step}, "
                                 f"expected ({dimension},)")
    magnitude = np.abs(block)
    if magnitude.max() <= DIVERGENCE_LIMIT:  # False for NaN
        return None
    return magnitude.max(axis=1) <= DIVERGENCE_LIMIT


def iterate_exact(op: ExactOperatorHandle, y0, num_steps: int) -> np.ndarray:
    """Orbit y_0, T(y_0), T^2(y_0), ... as a (num_steps+1, d) array."""
    y = _check_start(y0, op.dimension, num_steps)
    out = np.empty((num_steps + 1, op.dimension))
    out[0] = y
    for k in range(1, num_steps + 1):
        y = np.asarray(op.apply(y), dtype=np.float64)
        if _within_limit(y[None], 1, op.dimension, k) is not None:
            raise DivergenceError(k)
        out[k] = y
    return out


def solve_exact(op: ExactOperatorHandle, tol: float = 1e-10,
                max_iterations: int = 10 ** 6) -> tuple[np.ndarray, int, float]:
    """(fixed point, iterations, last step ||Tx - x||) of the contraction op,
    by iteration from 0, every norm being op.norm; op.claimed_modulus, gamma,
    must lie in (0, 1) and bound op's Lipschitz constant in that norm.

    Stops once the step ||Tx - x|| shrinks below tol * (1 - gamma) / gamma;
    then ||Tx - x*|| <= gamma / (1 - gamma) * ||Tx - x|| <= tol, and Tx is
    returned.  A sweep that leaves the trusted range raises DivergenceError
    at once, as in iterate_exact; reaching max_iterations sweeps raises
    NonConvergenceError.
    """
    gamma = op.claimed_modulus
    if gamma is None or not 0.0 < gamma < 1.0:
        raise ConfigurationError(f"solve_exact needs a claimed modulus in (0, 1), got {gamma!r}")
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"tol must be a positive finite number, got {tol!r}")
    x = np.zeros(op.dimension)
    threshold = tol * (1.0 - gamma) / gamma
    for sweep in range(1, max_iterations + 1):
        nxt = np.asarray(op.apply(x), dtype=np.float64)
        if _within_limit(nxt[None], 1, op.dimension, sweep) is not None:
            raise DivergenceError(sweep)
        moved = float(row_norm(nxt - x, op.norm))
        if moved <= threshold:
            return nxt, sweep, moved
        x = nxt
    raise NonConvergenceError(
        f"reference solve did not converge: no fixed point to tolerance {tol} "
        f"within {max_iterations} sweeps")


def iterate_ensemble(factory: RandomOperatorFactory, z0, num_steps: int,
                     stream: RngStream, runs, visit) -> dict[int, int]:
    """Move the given runs of the randomized orbit from z0 as one (m, d) block.

    Step k (1..num_steps) applies to each run its realization from
    stream.child(k - 1) (derived by stream.children a batch of steps at a
    time), so run r's orbit is the same whether it is moved
    alone or with others.  A run whose point leaves the trusted range is
    dropped; the result maps each dropped run to the step where that happened.

    visit(first, runs, block) sees steps 0..num_steps in order, a block at a
    time: `runs` are the surviving runs (ascending) and block[i] their (m, d)
    points at step first + i.  A block ends at CHUNK_BYTES / 8 bytes (one
    step at least) and at a drop, where the survivors start the next.  The
    engine moves its own points, so a visit may write into its block, whose
    buffer is reused once visit returns.  Orbits are the same bytes for any
    block size.

    The runs are planned in epochs.  An epoch splits the runs alive at its
    start into chunks (RandomOperatorFactory.chunk) once, and factory.draws
    draws every coming step's chunks, multinomial ones ahead while this
    thread moves the current one.  A drop ends the epoch: the draws made
    ahead are discarded, and the next epoch plans the survivors from the next
    step.  The orbits are the same bytes for any number of CPUs.
    """
    z0 = _check_start(z0, factory.dimension, num_steps)
    runs = np.asarray(check_runs(runs), dtype=np.int64)
    size = factory.chunk()
    z = np.tile(z0, (runs.size, 1))
    # a block and a visit's norms over it stay in a core's cache (1 MiB blocks
    # cost orbit_curves twice the time per step and 2 MB more peak memory at R = 10, d = 20)
    block = np.empty((min(num_steps + 1, max(1, CHUNK_BYTES // 8 // z.nbytes)),) + z.shape)
    block[0], first, held = z, 0, 1  # block[:held] holds steps first.. of the runs
    dropped: dict[int, int] = {}
    done = 0
    while done < num_steps and runs.size:  # an epoch: steps done + 1.. of the runs alive
        starts = range(0, runs.size, size)
        parts = [runs[lo:lo + size] for lo in starts]
        plan = ((s, part) for s in stream.children(range(done, num_steps)) for part in parts)
        with closing(factory.draws(plan)) as drawn:
            for done in range(done + 1, num_steps + 1):
                if held == len(block):  # a full block is visited before the next step
                    visit(first, runs, block[:held, :runs.size])
                    first, held = done, 0
                moved = [np.asarray(factory.move(next(drawn), z[lo:lo + size, None]),
                                    dtype=np.float64).reshape(part.size, -1)
                         for lo, part in zip(starts, parts)]
                z = moved[0] if len(moved) == 1 else np.concatenate(moved)
                ok = _within_limit(z, runs.size, factory.dimension, done)
                if ok is not None:  # a drop ends the block and the epoch
                    if held:
                        visit(first, runs, block[:held, :runs.size])
                    first, held = done, 0
                    dropped.update((r, done) for r in runs[~ok].tolist())
                    runs, z = runs[ok], z[ok]
                block[held, :runs.size] = z
                held += 1
                if ok is not None:
                    break
    if runs.size:
        visit(first, runs, block[:held, :runs.size])
    return dropped
