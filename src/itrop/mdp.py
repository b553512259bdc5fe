"""Finite MDPs: exact and sampled Bellman operators for value and Q iteration."""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (SAMPLE_BLOCK, ConfigurationError, ExactOperatorHandle,
                   RandomOperatorFactory, RngStream, read_json, require_indexable,
                   write_json)

_ROW_SUM_TOL = 1e-12

# Sample sizes below ALIAS_CROSSOVER * sqrt(S) or ALIAS_PER_STATE * S draw next
# states from alias tables; larger ones draw counts from numpy's multinomial.
ALIAS_CROSSOVER = 35.0
ALIAS_PER_STATE = 7.5

# Bound on the int64 counts one multinomial call returns before they are
# divided into the kernel.
MULTINOMIAL_BLOCK_BYTES = 1 << 17

_buffers = threading.local()  # each thread's alias-draw buffers (see _alias_counts)


def _check_discount(discount) -> None:
    if not isinstance(discount, numbers.Real) or not 0.0 < discount < 1.0:
        raise ConfigurationError(f"discount must lie in (0, 1), got {discount!r}")


@dataclass(frozen=True)
class MdpModel:
    """Tabular MDP with transition kernel (S, A, S), cost table (S, A), discount in (0, 1)."""

    transition: np.ndarray
    cost: np.ndarray
    discount: float

    def __post_init__(self):
        try:
            t = np.asarray(self.transition, dtype=np.float64)
            c = np.asarray(self.cost, dtype=np.float64)
        except (TypeError, ValueError) as exc:  # ragged, or not numbers
            raise ConfigurationError(f"transition and cost must be numeric arrays: {exc}") from exc
        if t.ndim != 3 or t.shape[0] != t.shape[2]:
            raise ConfigurationError(f"transition must have shape (S, A, S), got {t.shape}")
        s, a, _ = t.shape
        if s < 1 or a < 1:
            raise ConfigurationError("need at least one state and one action")
        if c.shape != (s, a):
            raise ConfigurationError(f"cost must have shape ({s}, {a}), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ConfigurationError("cost table has non-finite entries")
        if np.any(t < 0):
            raise ConfigurationError("transition kernel has negative entries")
        sums = t.sum(axis=2)
        bad = np.argwhere(~(np.abs(sums - 1.0) <= _ROW_SUM_TOL))  # NaN rows included
        if bad.size:
            si, ai = bad[0]
            raise ConfigurationError(
                f"transition row (s={si}, a={ai}) sums to {sums[si, ai]!r}, not 1")
        _check_discount(self.discount)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "discount", float(self.discount))

    @cached_property
    def _sampler(self) -> "_NextStateSampler":
        """Sampling tables, built on first use; not part of set-up."""
        return _NextStateSampler(self)

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transition.shape[1]


def bellman_apply(model: MdpModel, v) -> np.ndarray:
    """One exact value-iteration sweep: min_a [ c(s,a) + discount * E v(s') ]."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (model.num_states,):
        raise ConfigurationError(
            f"value function must have shape ({model.num_states},), got {v.shape}")
    return (model.cost + model.discount * (model.transition @ v)).min(axis=1)


def q_apply(model: MdpModel, q) -> np.ndarray:
    """One exact Q-iteration sweep: c(s,a) + discount * E min_a' q(s', a')."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (model.num_states, model.num_actions):
        raise ConfigurationError(
            f"q table must have shape ({model.num_states}, {model.num_actions}), got {q.shape}")
    w = q.min(axis=1)
    return model.cost + model.discount * (model.transition @ w)


def _alias_tables(p: np.ndarray):
    """Walker/Vose alias tables for every row of p (rows, k), built in lockstep.

    Each pass finalizes one column per row: the current donor once it has
    dropped below 1, otherwise the next column in ascending order.  Returns
    prob (rows, k), the chance that column j keeps its own draw, and alias
    (rows, k), the flat index r*k + (the column drawn instead).
    """
    rows, k = p.shape
    q = p * k
    order = np.argsort(q, axis=1, kind="stable")
    prob = np.ones((rows, k))
    alias = np.tile(np.arange(k), (rows, 1))
    lo = np.zeros(rows, dtype=np.int64)
    hi = np.full(rows, k - 1)
    r = np.arange(rows)
    for _ in range(k - 1):
        donor = order[r, hi]
        spent = q[r, donor] < 1.0
        item = np.where(spent, donor, order[r, lo])
        new_donor = np.where(spent, order[r, hi - 1], donor)
        prob[r, item] = q[r, item]
        alias[r, item] = new_donor
        q[r, new_donor] -= 1.0 - q[r, item]
        lo += ~spent
        hi -= spent
    return prob, alias + k * r[:, None]


class _NextStateSampler:
    """A model's next-state sampling tables, shared by all its factories."""

    def __init__(self, model: MdpModel):
        s = model.num_states
        p = model.transition.reshape(-1, s)
        # Rows renormalized exactly to 1 so the multinomial sampler never
        # rejects a row whose float sum sits a few ulp away from 1.
        self.pvals = np.ascontiguousarray(p / p.sum(axis=1, keepdims=True))
        prob, alias = _alias_tables(self.pvals)
        self.prob = prob.ravel()
        self.alias_offset = (alias.ravel() - np.arange(alias.size)).astype(np.int32)  # < S
        self.row_start = np.arange(0, alias.size, s)[:, None]  # each row's first index
        self.below_s = np.nextafter(float(s), 0.0)


def uses_alias(num_states: int, sample_size: int) -> bool:
    """Whether a realization draws next states from alias tables (S*A*n
    uniforms per run, counted by bincount) rather than numpy's multinomial.

    The alias cost grows with n and the multinomial's with S.  Per run the
    two cost the same near n = 160 at S = 20, A = 5, and with both drawn
    ahead on 2 CPUs (A = 10) near n = 450, 900+ and 2,000 at S = 50, 100 and
    200; 7.5 * S stays under those, and under 35 * sqrt(S) up to S = 21.
    """
    return sample_size < max(ALIAS_CROSSOVER * math.sqrt(num_states),
                             ALIAS_PER_STATE * num_states)


def _alias_counts(model: MdpModel, n: int, stream: RngStream, runs) -> np.ndarray:
    """(len(runs), S*A, S) float64 counts of n next states per (s, a) and run,
    drawn from the alias tables.

    Blocks of at most SAMPLE_BLOCK samples (or one row) hold whole runs when
    a run's S*A*n fit, else rows of one run; their per-sample arrays go into
    this thread's buffers.  The bytes are those of all samples at once."""
    s = model.num_states
    rows = s * model.num_actions
    width, tables = rows * n, model._sampler
    runs = np.asarray(runs, dtype=np.int64)
    counts = np.empty((runs.size, rows, s))
    per_block = max(1, SAMPLE_BLOCK // width)  # whole runs in a block, or one run
    per_run = min(rows, max(1, SAMPLE_BLOCK // n))  # rows of a run in a block
    if getattr(_buffers, "size", 0) < (size := min(per_block, runs.size) * per_run * n):
        _buffers.size, gather = size, np.empty(size)  # grown to the largest block yet
        _buffers.arrays = (np.empty(size), np.empty(size, np.int64), gather,
                           gather.view(np.int32)[:size], np.empty(size, bool))
    u, col, threshold, jump, coin = _buffers.arrays  # jump: the gather as int32
    blocks = [(i, lo) for i in range(0, runs.size, per_block) for lo in range(0, rows, per_run)]
    for i, lo in blocks:
        k, h = min(per_block, runs.size - i), min(per_run, rows - lo)
        m = k * h * n
        uu, cc, tt, jj, co = u[:m], col[:m], threshold[:m], jump[:m], coin[:m]
        if h == rows:
            stream.uniforms(width, runs[i:i + k], out=uu.reshape(k, width))
        else:
            stream.generator_at(int(runs[i]) * width + lo * n).random(out=uu)
        uu *= tables.below_s  # the largest double under S, so no column reaches S
        cc[...] = uu  # the column, truncated
        uu -= cc  # the coin: uniform on [0, 1) given the column
        # the index into the block's rows' tables: the sample's bin in its run's part
        grid = cc.reshape(k, h, n)
        grid += tables.row_start[:h]
        prob, offset = tables.prob[lo * s:(lo + h) * s], tables.alias_offset[lo * s:(lo + h) * s]
        # where the coin fails, move to the alias ("clip": take fills out in place)
        np.greater_equal(uu, prob.take(cc, out=tt, mode="clip"), out=co)
        offset.take(cc, out=jj, mode="clip")
        jj *= co
        cc += jj
        if k > 1:  # each run's bins after those of the runs before it
            grid += np.arange(0, k * h * s, h * s)[:, None, None]
        counts[i:i + k, lo:lo + h] = np.bincount(cc, minlength=k * h * s).reshape(k, h, s)
    return counts


def _empirical_kernels(model: MdpModel, n: int, stream: RngStream, runs) -> np.ndarray:
    """(len(runs), S*A, S) empirical kernels per run: the counts of n sampled
    next states per (s, a), divided by n."""
    s = model.num_states
    if uses_alias(s, n):
        counts = _alias_counts(model, n, stream, runs)
        return np.divide(counts, n, out=counts)
    # blocks of consecutive rows continue one generator, so they draw the
    # same counts as all rows at once but hold only a block of them
    pvals = model._sampler.pvals
    block = max(1, MULTINOMIAL_BLOCK_BYTES // (8 * s))
    kernels = np.empty((len(runs),) + pvals.shape)
    for i, gen in enumerate(stream.generators(runs)):
        for lo in range(0, len(pvals), block):
            np.divide(gen.multinomial(n, pvals[lo:lo + block]), n,
                      out=kernels[i, lo:lo + block])
    return kernels


def _action_min(q: np.ndarray) -> np.ndarray:
    """q.min(axis=-1) as A - 1 elementwise minimums over the columns of q
    viewed as (rows, A): numpy's reduce over a short last axis costs about
    55 ns per output row, which dominates a sweep's block.  Bit for bit the
    reduce's result, except that a tie of 0.0 and -0.0 may give the other
    zero (the reduce orders its comparisons by SIMD lane)."""
    cols = q.reshape(-1, q.shape[-1])
    best = cols[:, 0].copy()
    for j in range(1, cols.shape[1]):
        np.minimum(best, cols[:, j], out=best)
    return best.reshape(q.shape[:-1])


def _sweep(model: MdpModel, kind: str, kernels: np.ndarray, z: np.ndarray):
    """Each point of row i of the (m, P, d) block z swept with the empirical
    kernel kernels[i] (S*A, S), one mat-vec per point.  c + discount * emp is
    formed in the product's own array: IEEE products and sums commute, so
    the bytes are those of the expression."""
    (m, p, _), s, a = z.shape, model.num_states, model.num_actions
    w = z if kind == "value" else _action_min(z.reshape(m, p, s, a))
    out = np.matmul(kernels[:, None], w[..., None]).reshape(m, p, s, a)
    del w  # the q kind's w is dead: free it before the cost's broadcast buffer
    out *= model.discount
    out += model.cost
    return _action_min(out) if kind == "value" else out.reshape(m, p, s * a)


def _empirical_factory(model: MdpModel, sample_size: int, kind: str) -> RandomOperatorFactory:
    if sample_size < 1:
        raise ConfigurationError("sample_size must be >= 1")
    s, a = model.num_states, model.num_actions
    row_bytes = 3 * 8 * s * a * s  # counts, kernel, and the sweep's product
    point_bytes = 3 * 8 * s * a  # loosely bounds each further point's product and image
    # numpy's multinomial releases the GIL, and so does an alias draw for most
    # of each full block; smaller alias draws hold it and stay on the caller
    ahead = not uses_alias(s, sample_size) or s * a * sample_size >= SAMPLE_BLOCK
    return RandomOperatorFactory(
        sample_size, s if kind == "value" else s * a,
        draw=lambda stream, runs: _empirical_kernels(model, sample_size, stream, runs),
        move=lambda kernels, z: _sweep(model, kind, kernels, z),
        row_bytes=row_bytes, point_bytes=point_bytes, draws_ahead=ahead, norm="sup")


def empirical_bellman_factory(model: MdpModel, sample_size: int) -> RandomOperatorFactory:
    """Sampled value-iteration operators.

    A realization draws, for every (s, a), the empirical distribution of
    sample_size i.i.d. next states; applying it replaces E v(s') by the
    sample mean.  All applications of one realization share its draws.
    The factory measures in sup norm, in which every realization is a
    discount-contraction.
    """
    return _empirical_factory(model, sample_size, "value")


def empirical_q_factory(model: MdpModel, sample_size: int) -> RandomOperatorFactory:
    """Sampled Q-iteration operators over flattened (S*A,) tables, measured
    in sup norm as empirical_bellman_factory's."""
    return _empirical_factory(model, sample_size, "q")


def bellman_operator(model: MdpModel) -> ExactOperatorHandle:
    """Exact value sweep as an operator handle (a discount-contraction in sup norm)."""
    return ExactOperatorHandle(apply=lambda v: bellman_apply(model, v),
                               dimension=model.num_states,
                               claimed_modulus=model.discount, norm="sup")


def q_operator(model: MdpModel) -> ExactOperatorHandle:
    """Exact Q sweep over flattened tables as an operator handle (a
    discount-contraction in sup norm)."""
    s, a = model.num_states, model.num_actions

    def apply(qflat):
        return q_apply(model, np.asarray(qflat).reshape(s, a)).ravel()

    return ExactOperatorHandle(apply=apply, dimension=s * a, claimed_modulus=model.discount,
                               norm="sup")


def random_mdp(num_states: int, num_actions: int, seed: int, discount: float = 0.9) -> MdpModel:
    """Seeded random instance: rows are normalized i.i.d. uniforms, costs uniform(0,1)."""
    if num_states < 1 or num_actions < 1:
        raise ConfigurationError("need at least one state and one action")
    require_indexable(num_states * num_actions * num_states,
                      f"an MDP of {num_states} states and {num_actions} actions needs "
                      f"arrays too large to index")
    _check_discount(discount)  # before the kernel is drawn
    rng = RngStream(seed).generator()
    raw = rng.random((num_states, num_actions, num_states))
    transition = raw / raw.sum(axis=2, keepdims=True)
    cost = rng.random((num_states, num_actions))
    return MdpModel(transition=transition, cost=cost, discount=discount)


def hoeffding_bound(num_states: int, num_actions: int, eps: float, sample_size: int,
                    radius: float) -> float:
    """Tail bound on P(sup-deviation of one sampled sweep > eps) for ||v||_inf <= radius.

    2*S*A*exp(-n*eps^2 / (2*radius^2)): Hoeffding for each (s, a) sample mean
    of values in a range of 2*radius, then a union bound.  A sweep moves by
    at most discount < 1 times the largest (s, a) deviation, so this holds
    for any discount.  May exceed 1, in which case it is vacuous.
    """
    if num_states < 1 or num_actions < 1:
        raise ConfigurationError("need at least one state and one action")
    for name, value in (("eps", eps), ("radius", radius)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    if sample_size < 1:
        raise ConfigurationError(f"sample_size must be >= 1, got {sample_size}")
    return float(2.0 * num_states * num_actions
                 * np.exp(-sample_size * eps ** 2 / (2.0 * radius ** 2)))


_MODEL_KEYS = {"num_states", "num_actions", "discount", "transition", "cost"}


def model_to_dict(model: MdpModel) -> dict:
    return {
        "num_states": model.num_states,
        "num_actions": model.num_actions,
        "discount": model.discount,
        "transition": model.transition.tolist(),
        "cost": model.cost.tolist(),
    }


def model_from_dict(data: dict) -> MdpModel:
    if not isinstance(data, dict):
        raise ConfigurationError("model document must be a JSON object")
    unknown = set(data) - _MODEL_KEYS
    if unknown:
        raise ConfigurationError(f"unknown model keys: {sorted(unknown)}")
    missing = _MODEL_KEYS - set(data)
    if missing:
        raise ConfigurationError(f"missing model keys: {sorted(missing)}")
    model = MdpModel(transition=data["transition"], cost=data["cost"], discount=data["discount"])
    if model.num_states != data["num_states"] or model.num_actions != data["num_actions"]:
        raise ConfigurationError("declared num_states/num_actions do not match array shapes")
    return model


def save_model(model: MdpModel, path) -> None:
    """Write the model as JSON; floats round-trip losslessly."""
    write_json(path, model_to_dict(model))


def load_model(path) -> MdpModel:
    return model_from_dict(read_json(path))
