"""Contract of the ensemble engine: a run's orbit does not depend on the block
it is moved in, and a diverging row is dropped without disturbing the rest."""

import dataclasses
import itertools
import math
import threading
import time

import numpy as np
import pytest

import itrop
from conftest import (block_fake, blow_up_factory, draw_threads, normal_draws, on_cpus,
                      run_alone)
from itrop.core import ConfigurationError

HORIZON = 12


def ensemble_orbits(factory, z0, runs, stream, horizon=HORIZON):
    """(runs, K+1, d) orbits collected from the engine, plus its dropped runs."""
    out = np.full((runs, horizon + 1, factory.dimension), np.nan)

    def keep(first, alive, block):
        for k, z in enumerate(block, first):
            out[alive, k] = z

    dropped = itrop.iterate_ensemble(factory, z0, horizon, stream, range(runs), keep)
    return out, dropped


def moved(factory, stream, runs, z):
    """reduce with the one layer stream and the identity stat: row i of the
    (m, P, d) block z moved by run runs[i]'s realization."""
    return factory.reduce([stream], runs, z.shape[1], lambda part: z[part],
                          lambda _, images: images)


def factories(mdp20, logistic_problem):
    n_sgd = logistic_problem.dataset.num_samples
    return {
        "evi-alias": itrop.empirical_bellman_factory(mdp20, 5),
        "evi-multinomial": itrop.empirical_bellman_factory(mdp20, 400),
        "qvi-alias": itrop.empirical_q_factory(mdp20, 5),
        "sgd-with": itrop.sgd_factory(logistic_problem, 16),
        "sgd-without": itrop.sgd_factory(logistic_problem, 16, "without_replacement"),
        "sgd-full": itrop.sgd_factory(logistic_problem, n_sgd, "without_replacement"),
    }


def test_crossover_puts_both_samplers_under_test(mdp20):
    assert itrop.uses_alias(20, 5) and not itrop.uses_alias(20, 400)


@pytest.mark.parametrize("name", ["evi-alias", "evi-multinomial", "qvi-alias",
                                  "sgd-with", "sgd-without", "sgd-full"])
@pytest.mark.parametrize("runs", [1, 3, 8])
def test_run_alone_equals_its_row_in_a_batch(mdp20, logistic_problem, name, runs):
    factory = factories(mdp20, logistic_problem)[name]
    stream = itrop.RngStream(31).child(7)
    z0 = np.linspace(0.0, 0.5, factory.dimension)
    batch, dropped = ensemble_orbits(factory, z0, runs, stream)
    assert dropped == {}
    for r in range(runs):
        alone = run_alone(factory, z0, HORIZON, stream, r)
        assert np.array_equal(alone, batch[r])
    if runs > 1 and name != "sgd-full":  # a full batch has no randomness
        assert not np.array_equal(batch[0], batch[1])


@pytest.mark.parametrize("name", ["evi-alias", "evi-multinomial", "sgd-with", "sgd-without",
                                  "sgd-full"])
def test_chunking_over_runs_does_not_change_orbits(mdp20, logistic_problem, monkeypatch,
                                                    name):
    stream = itrop.RngStream(32).child(1)
    z0 = np.zeros(factories(mdp20, logistic_problem)[name].dimension)
    whole, _ = ensemble_orbits(factories(mdp20, logistic_problem)[name], z0, 5, stream)
    monkeypatch.setattr(itrop.core, "CHUNK_BYTES", 1)
    chunked, _ = ensemble_orbits(factories(mdp20, logistic_problem)[name], z0, 5, stream)
    assert np.array_equal(whole, chunked)


def test_realize_reads_the_same_draws_as_the_engine(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 5)
    stream = itrop.RngStream(33).child(2)
    x = np.linspace(-1.0, 1.0, 20)
    orbits, dropped = ensemble_orbits(factory, x, 4, stream, horizon=1)
    assert dropped == {}
    for r in range(4):  # step 1 draws from stream.child(0)
        assert np.array_equal(factory.realize(stream.child(0), r)(x), orbits[r, 1])


@pytest.mark.parametrize("name", ["evi-alias", "evi-multinomial", "qvi-alias",
                                  "sgd-with", "sgd-without", "sgd-full"])
@pytest.mark.parametrize("chunk_bytes", [1 << 20, 1])
def test_step_moves_a_block_of_points_per_run(mdp20, logistic_problem, monkeypatch, name,
                                              chunk_bytes):
    # reduce's (m, P, d) block: row i is run runs[i]'s realization of Z[i]
    monkeypatch.setattr(itrop.core, "CHUNK_BYTES", chunk_bytes)
    factory = factories(mdp20, logistic_problem)[name]
    stream = itrop.RngStream(36).child(3)
    runs = np.array([0, 2, 3, 7])
    z = np.random.default_rng(37).normal(size=(4, 5, factory.dimension))
    block = moved(factory, stream, runs, z)
    assert block.shape == z.shape
    for i, r in enumerate(runs):
        assert np.array_equal(block[i], factory.realize(stream, r)(z[i]))
    # a broadcast block (the same points for every run) moves as its copy does
    shared = np.broadcast_to(z[0], z.shape)
    assert np.array_equal(moved(factory, stream, runs, shared),
                          moved(factory, stream, runs, np.ascontiguousarray(shared)))


@pytest.mark.parametrize("runs", [[], [2, 1], [1, 1], [-1, 0], np.zeros((1, 1), np.int64),
                                  range(0), range(-1, 2 ** 62), range(2 ** 62, 0, -1)],
                         ids=["empty", "unsorted", "duplicate", "negative", "2-d",
                              "empty-range", "negative-range", "descending-range"])
def test_reduce_checks_its_runs_before_the_first_draw(runs):
    # a range is checked without listing its runs: these would take 2**65 bytes
    calls = []

    def draw(stream, drawn):
        calls.append(drawn)
        return drawn

    factory = block_fake(1, lambda drawn, z: z, draw=draw)
    with pytest.raises(ConfigurationError, match="runs"):
        factory.reduce([itrop.RngStream(39)], runs, 1, lambda part: np.zeros((1, 1, 1)),
                       lambda _, images: images)
    assert calls == []


@pytest.mark.parametrize("name", ["evi-alias", "evi-multinomial", "qvi-alias",
                                  "sgd-with", "sgd-without", "sgd-full"])
@pytest.mark.parametrize("shape", [(7,), (4, 2)])
def test_realization_moves_a_block_as_it_moves_each_row(mdp20, logistic_problem, name,
                                                       shape):
    factory = factories(mdp20, logistic_problem)[name]
    d = factory.dimension
    block = np.random.default_rng(34).normal(size=shape + (d,))
    realization = factory.realize(itrop.RngStream(35).child(4), 2)
    rows = np.array([realization(x) for x in block.reshape(-1, d)])
    assert realization(block).shape == block.shape
    assert np.array_equal(realization(block), rows.reshape(block.shape))
    assert realization(block[(0,) * len(shape)]).shape == (d,)
    with pytest.raises(ConfigurationError, match="shape"):
        realization(np.zeros((2, d + 1)))


def test_engine_draws_a_step_once_for_its_runs():
    seen = []

    def draw(stream, runs):
        seen.append((stream.lineage, runs.tolist()))
        return normal_draws(1)(stream, runs)

    factory = block_fake(1, lambda shifts, z: z * 0.5 + shifts[:, None], draw=draw)
    stream = itrop.RngStream(5).child(9)
    batch, _ = ensemble_orbits(factory, [1.0], 3, stream, horizon=2)
    assert seen == [((9, 0), [0, 1, 2]), ((9, 1), [0, 1, 2])]
    for r in range(3):
        alone = run_alone(factory, [1.0], 2, stream, r)
        assert np.array_equal(alone, batch[r])


def test_engine_derives_its_step_streams_in_batches(monkeypatch):
    # numpy's SeedSequence mixes the shared lineage once per batch of steps,
    # not once per step
    built = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("spawn_key"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    steps, stream = 2000, itrop.RngStream(5).child(9)
    batch, _ = ensemble_orbits(block_fake(1, lambda shifts, z: z * 0.5 + shifts[:, None],
                                          draw=normal_draws(1)), [1.0], 3, stream, steps)
    assert 0 < len(built) <= math.ceil(steps / itrop.core._CHILD_BATCH) + 1
    assert set(built) == {(9,)}
    # and the draws are the ones each step's own SeedSequence gives
    for k in (1, 700, steps):
        shift = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(5, spawn_key=(9, k - 1)))).normal()
        assert batch[0, k] == batch[0, k - 1] * 0.5 + shift


def test_diverging_row_is_dropped_with_its_step_and_others_continue(monkeypatch):
    stream = itrop.RngStream(6).child(0)
    # runs that drop at two steps, at one step, and at the last step, moved in
    # one chunk and in one chunk per run
    for blow_up, chunk_bytes in itertools.product([{1: 3, 4: 7}, {1: 3, 4: 3}, {1: 3, 2: 10}],
                                                  [1 << 20, 1]):
        monkeypatch.setattr(itrop.core, "CHUNK_BYTES", chunk_bytes)
        factory = blow_up_factory(blow_up)
        visits = []

        def keep(first, alive, block):
            for k, _ in enumerate(block, first):
                visits.append((k, alive.tolist()))

        dropped = itrop.iterate_ensemble(factory, [1.0, 1.0], 10, stream, range(6), keep)
        assert dropped == blow_up
        # step k is visited with the runs that have not dropped by then
        assert visits == [(k, [r for r in range(6) if blow_up.get(r, 11) > k])
                          for k in range(11)]
        batch, _ = ensemble_orbits(factory, [1.0, 1.0], 6, stream, horizon=10)
        for r in range(6):
            if r not in blow_up:
                assert np.array_equal(batch[r, -1], np.full(2, 0.5 ** 10))
                continue
            assert np.all(np.isnan(batch[r, blow_up[r]:]))
            with pytest.raises(itrop.DivergenceError) as err:
                run_alone(factory, [1.0, 1.0], 10, stream, r)
            assert err.value.step == blow_up[r]


@pytest.mark.parametrize("name", ["evi-alias", "evi-multinomial", "sgd-with", "blow-up"])
@pytest.mark.parametrize("steps", [1, 4])
@pytest.mark.parametrize("chunks", ["one-chunk", "chunk-per-run"])
def test_a_visit_may_overwrite_the_block_it_is_given(mdp20, logistic_problem, monkeypatch,
                                                     name, steps, chunks):
    # orbit_curves rewrites its block into running means: the engine moves its
    # own points, so zeroing every block it hands over changes no orbit
    runs, blow_up = 3, {1: 3} if name == "blow-up" else {}
    factory = (blow_up_factory(blow_up) if name == "blow-up"
               else factories(mdp20, logistic_problem)[name])
    chunk_bytes = 8 * steps * runs * factory.dimension * 8  # blocks of `steps` steps
    monkeypatch.setattr(itrop.core, "CHUNK_BYTES", chunk_bytes)
    factory = dataclasses.replace(factory,
                                  row_bytes=chunk_bytes if chunks == "chunk-per-run" else 8)
    assert (factory.chunk() == 1) == (chunks == "chunk-per-run")
    stream = itrop.RngStream(34).child(5)
    z0 = np.linspace(0.5, 1.0, factory.dimension)
    out = np.full((runs, HORIZON + 1, factory.dimension), np.nan)
    sizes = []

    def keep_then_zero(first, alive, block):
        sizes.append(len(block))
        for k, z in enumerate(block, first):
            out[alive, k] = z
        block[...] = 0.0

    assert itrop.iterate_ensemble(factory, z0, HORIZON, stream, range(runs),
                                  keep_then_zero) == blow_up
    assert sum(sizes) == HORIZON + 1 and max(sizes) == steps
    for r in range(runs):
        if r in blow_up:
            assert np.all(np.isnan(out[r, blow_up[r]:]))
        else:
            assert np.array_equal(out[r], run_alone(factory, z0, HORIZON, stream, r))


def test_diverging_block_factory_rows_match_solo_runs(poisson_problem):
    # a step size far past 2/L blows every run up, at a step that depends on its batches
    problem = itrop.RegressionProblem(dataset=poisson_problem.dataset, family="poisson",
                                      lam=1.0, beta=50.0)
    factory = itrop.sgd_factory(problem, 4)
    stream = itrop.RngStream(8).child(3)
    dropped = itrop.iterate_ensemble(factory, np.zeros(8), 60, stream, range(5),
                                     lambda first, alive, block: None)
    assert sorted(dropped) == [0, 1, 2, 3, 4]
    for r, step in dropped.items():
        with pytest.raises(itrop.DivergenceError) as err:
            run_alone(factory, np.zeros(8), 60, stream, r)
        assert err.value.step == step


def test_engine_checks_shapes_and_runs():
    bad = block_fake(2, lambda runs, z: np.zeros(z.shape[:-1] + (3,)))
    with pytest.raises(ConfigurationError, match="shape"):
        itrop.iterate_ensemble(bad, [0.0, 0.0], 2, itrop.RngStream(0), [0, 1],
                               lambda first, alive, block: None)
    halving = blow_up_factory({})
    for runs in ([], [1, 1], [2, 1], [-1]):
        with pytest.raises(ConfigurationError, match="runs"):
            itrop.iterate_ensemble(halving, [0.0, 0.0], 2, itrop.RngStream(0), runs,
                                   lambda first, alive, block: None)


# ---------------------------------------------------------------- draws ahead

@pytest.mark.parametrize("kind", ["value", "q"])
@pytest.mark.parametrize("chunk_bytes", [1 << 20, 1])
def test_multinomial_orbits_are_the_same_bytes_on_one_and_two_cpus(mdp20, monkeypatch, kind,
                                                                   chunk_bytes):
    monkeypatch.setattr(itrop.core, "CHUNK_BYTES", chunk_bytes)
    factory = itrop.mdp._empirical_factory(mdp20, 400, kind)
    assert factory.draws_ahead
    stream = itrop.RngStream(38).child(400)
    z0 = np.linspace(0.0, 1.0, factory.dimension)
    orbits = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        traced, names = draw_threads(factory)
        orbits[cpus], dropped = ensemble_orbits(traced, z0, 5, stream)
        assert dropped == {}
        pooled = {name.startswith("itrop-draw") for name in names}
        assert pooled == {cpus > 1}
    assert orbits[1].tobytes() == orbits[2].tobytes()


@pytest.mark.parametrize("kind", ["value", "q"])
def test_multinomial_step_is_the_same_bytes_on_one_and_two_cpus(mdp20, monkeypatch, kind):
    monkeypatch.setattr(itrop.core, "CHUNK_BYTES", 1)  # one run per chunk
    factory = itrop.mdp._empirical_factory(mdp20, 400, kind)
    stream = itrop.RngStream(42).child(400)
    runs = np.array([0, 1, 3, 4, 8])
    z = np.random.default_rng(43).normal(size=(runs.size, 3, factory.dimension))
    blocks = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        traced, names = draw_threads(factory)
        blocks[cpus] = moved(traced, stream, runs, z)
        assert len(names) == runs.size
        assert {name.startswith("itrop-draw") for name in names} == {cpus > 1}
    assert blocks[1].tobytes() == blocks[2].tobytes()
    for i, r in enumerate(runs):
        assert np.array_equal(blocks[2][i], factory.realize(stream, r)(z[i]))
    assert not [t for t in threading.enumerate() if t.name.startswith("itrop-draw")]


def test_replacing_draw_or_move_rederives_realize(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 5)
    traced, names = draw_threads(factory)
    x = np.linspace(0.0, 1.0, 20)
    stream = itrop.RngStream(44)
    assert np.array_equal(traced.realize(stream, 3)(x), factory.realize(stream, 3)(x))
    assert len(names) == 1  # the realization drew through the replaced draw
    halved = dataclasses.replace(factory, move=lambda drawn, z: z / 2.0)
    assert np.array_equal(halved.realize(stream, 3)(x), x / 2.0)
    timed = dataclasses.replace(factory, realize=lambda s: (lambda y: y))
    assert timed.realize(stream)(x) is x  # a given realize is kept


def test_alias_and_sgd_draws_stay_on_the_calling_thread(mdp20, logistic_problem, monkeypatch):
    on_cpus(monkeypatch, 2)
    for name, factory in factories(mdp20, logistic_problem).items():
        assert factory.draws_ahead == (name == "evi-multinomial")
        if not factory.draws_ahead:
            traced, names = draw_threads(factory)
            ensemble_orbits(traced, np.zeros(factory.dimension), 3, itrop.RngStream(39))
            assert set(names) == {threading.current_thread().name}


def ahead_fake(fail_at=None):
    """An opt-in draw-ahead fake, one run per chunk: a step halves the point and
    adds a normal from the run's stream; the draws of step fail_at fail."""

    def draw(stream, runs):
        if stream.lineage[-1] + 1 == fail_at:
            raise RuntimeError("draw failed")
        return normal_draws(1)(stream, runs)

    return itrop.RandomOperatorFactory(1, 1, draw, lambda shifts, z: z * 0.5 + shifts[:, None],
                                       row_bytes=itrop.core.CHUNK_BYTES, point_bytes=8,
                                       draws_ahead=True)


def traced(factory, blow_up, drawn, moved, last_run=None):
    """factory whose draws record each (step, run) they drew in drawn, whose
    moves record each (step, run) they moved in moved, and whose run r
    multiplies its image by 1e30 at step blow_up[r].  Moving last_run at a
    drop step k first waits until a draw of step k + 1 has begun, as one does
    when worker threads draw ahead."""
    begun = [threading.Event() for _ in range(HORIZON + 2)]

    def draw(stream, runs):
        k = stream.lineage[-1] + 1
        begun[k].set()
        inner = factory.draw(stream, runs)
        drawn.extend((k, r) for r in runs.tolist())
        return k, runs, inner

    def move(draws, z):
        k, runs, inner = draws
        if runs[-1] == last_run and k in blow_up.values():
            assert begun[k + 1].wait(10)
        moved.extend((k, r) for r in runs.tolist())
        out = factory.move(inner, z)
        blows_up = np.array([blow_up.get(r) == k for r in runs.tolist()])
        return np.where(blows_up[:, None, None], out * 1e30, out)

    return dataclasses.replace(factory, draw=draw, move=move)


def test_a_dropped_run_s_drawn_ahead_rows_are_discarded(mdp20, monkeypatch):
    monkeypatch.setattr(itrop.core, "CHUNK_BYTES", 1)  # one run per chunk
    stream, runs = itrop.RngStream(40).child(0), 5
    # a fake and a real multinomial factory, with one and with two drops
    for factory, blow_up in itertools.product(
            [ahead_fake(), itrop.empirical_bellman_factory(mdp20, 400)], [{2: 3}, {2: 3, 4: 5}]):
        assert factory.draws_ahead
        z0 = np.linspace(0.5, 1.0, factory.dimension)
        survivors = [r for r in range(runs) if r not in blow_up]
        orbits = {}
        for cpus in (1, 2):
            on_cpus(monkeypatch, cpus)
            drawn, moved = [], []
            seen = traced(factory, blow_up, drawn, moved, runs - 1 if cpus > 1 else None)
            orbits[cpus], dropped = ensemble_orbits(seen, z0, runs, stream)
            assert dropped == blow_up
            # every step of a run up to its drop is moved once, and none after it
            assert sorted(moved) == sorted((k, r) for r in range(runs)
                                           for k in range(1, blow_up.get(r, HORIZON) + 1))
            # one chunk per worker is drawn ahead at most: not far enough into
            # the step after a drop to reach run 2 or 4
            assert not [(k, r) for k, r in drawn if k > blow_up.get(r, HORIZON)]
            # on two CPUs the survivors' next step was drawn ahead before the
            # drop, discarded with the dropped run's draws, and drawn again
            for k in blow_up.values():
                assert drawn.count((k + 1, survivors[0])) == (2 if cpus > 1 else 1)
        assert orbits[1].tobytes() == orbits[2].tobytes()
        for r, k in blow_up.items():
            assert np.all(np.isnan(orbits[2][r, k:]))
        for r in survivors:
            alone = run_alone(factory, z0, HORIZON, stream, r)
            assert np.array_equal(alone, orbits[2][r])


def test_a_failed_pooled_draw_propagates_and_leaves_no_worker_busy(monkeypatch):
    on_cpus(monkeypatch, 2)
    drawn = []
    with pytest.raises(RuntimeError, match="draw failed"):
        ensemble_orbits(traced(ahead_fake(fail_at=4), {}, drawn, []), [1.0], 3,
                        itrop.RngStream(41))
    assert not [t for t in threading.enumerate() if t.name.startswith("itrop-draw")]
    settled = len(drawn)
    time.sleep(0.05)
    assert len(drawn) == settled and max(k for k, _ in drawn) < HORIZON
