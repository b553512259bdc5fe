"""Contract of the ensemble engine: a run's orbit does not depend on the block
it is moved in, and a diverging row is dropped without disturbing the rest."""

import numpy as np
import pytest

import itrop
from itrop.core import ConfigurationError

HORIZON = 12


def ensemble_orbits(factory, z0, runs, stream, horizon=HORIZON):
    """(runs, K+1, d) orbits collected from the engine, plus its dropped runs."""
    out = np.full((runs, horizon + 1, factory.dimension), np.nan)

    def keep(k, alive, z):
        out[alive, k] = z

    dropped = itrop.iterate_ensemble(factory, z0, horizon, stream, range(runs), keep)
    return out, dropped


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
        alone = itrop.iterate_random(factory, z0, HORIZON, stream.for_run(r))
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
    block = factory.step(stream, np.arange(4), np.tile(x, (4, 1)))
    for r in range(4):
        assert np.array_equal(factory.realize(stream.for_run(r))(x), block[r])


@pytest.mark.parametrize("name", ["evi-alias", "evi-multinomial", "qvi-alias",
                                  "sgd-with", "sgd-without", "sgd-full"])
@pytest.mark.parametrize("shape", [(7,), (4, 2)])
def test_realization_moves_a_block_as_it_moves_each_row(mdp20, logistic_problem, name,
                                                       shape):
    factory = factories(mdp20, logistic_problem)[name]
    d = factory.dimension
    block = np.random.default_rng(34).normal(size=shape + (d,))
    realization = factory.realize(itrop.RngStream(35).child(4).for_run(2))
    rows = np.array([realization(x) for x in block.reshape(-1, d)])
    assert realization(block).shape == block.shape
    assert np.array_equal(realization(block), rows.reshape(block.shape))
    assert realization(block[(0,) * len(shape)]).shape == (d,)
    with pytest.raises(ConfigurationError, match="shape"):
        realization(np.zeros((2, d + 1)))


def test_realize_only_factories_share_the_engine():
    seen = []

    def realize(stream):
        seen.append((stream.lineage, stream.run))
        shift = stream.generator().normal()
        return lambda x: np.asarray(x) * 0.5 + shift

    factory = itrop.RandomOperatorFactory(sample_size=1, realize=realize, dimension=1)
    stream = itrop.RngStream(5).child(9)
    batch, _ = ensemble_orbits(factory, [1.0], 3, stream, horizon=2)
    assert seen == [((9, 0), 0), ((9, 0), 1), ((9, 0), 2),
                    ((9, 1), 0), ((9, 1), 1), ((9, 1), 2)]
    for r in range(3):
        alone = itrop.iterate_random(factory, [1.0], 2, stream.for_run(r))
        assert np.array_equal(alone, batch[r])


def blow_up_factory(run_to_step):
    """Halving map, except run r multiplies by 1e30 at step run_to_step[r]."""

    def realize(stream):
        step = stream.lineage[-1] + 1
        if run_to_step.get(stream.run) == step:
            return lambda x: np.asarray(x) * 1e30
        return lambda x: np.asarray(x) / 2.0

    return itrop.RandomOperatorFactory(sample_size=1, realize=realize, dimension=2)


def test_diverging_row_is_dropped_with_its_step_and_others_continue():
    factory = blow_up_factory({1: 3, 4: 7})
    stream = itrop.RngStream(6).child(0)
    visits = []

    def keep(k, alive, z):
        visits.append((k, alive.tolist()))

    dropped = itrop.iterate_ensemble(factory, [1.0, 1.0], 10, stream, range(6), keep)
    assert dropped == {1: 3, 4: 7}
    assert visits[2] == (2, [0, 1, 2, 3, 4, 5])
    assert visits[3] == (3, [0, 2, 3, 4, 5])
    assert visits[10] == (10, [0, 2, 3, 5])
    batch, _ = ensemble_orbits(factory, [1.0, 1.0], 6, stream, horizon=10)
    assert np.array_equal(batch[0, -1], np.full(2, 0.5 ** 10))
    with pytest.raises(itrop.DivergenceError) as err:
        itrop.iterate_random(factory, [1.0, 1.0], 10, stream.for_run(4))
    assert err.value.step == 7


def test_diverging_block_factory_rows_match_solo_runs(poisson_problem):
    # a step size far past 2/L blows every run up, at a step that depends on its batches
    problem = itrop.RegressionProblem(dataset=poisson_problem.dataset, family="poisson",
                                      lam=1.0, beta=50.0)
    factory = itrop.sgd_factory(problem, 4)
    stream = itrop.RngStream(8).child(3)
    dropped = itrop.iterate_ensemble(factory, np.zeros(8), 60, stream, range(5),
                                     lambda k, alive, z: None)
    assert sorted(dropped) == [0, 1, 2, 3, 4]
    for r, step in dropped.items():
        with pytest.raises(itrop.DivergenceError) as err:
            itrop.iterate_random(factory, np.zeros(8), 60, stream.for_run(r))
        assert err.value.step == step


def test_engine_checks_shapes_and_runs():
    bad = itrop.RandomOperatorFactory(sample_size=1, dimension=2,
                                      realize=lambda s: (lambda x: np.zeros(3)))
    with pytest.raises(ConfigurationError, match="shape"):
        itrop.iterate_ensemble(bad, [0.0, 0.0], 2, itrop.RngStream(0), [0, 1],
                               lambda k, alive, z: None)
    halving = blow_up_factory({})
    for runs in ([], [1, 1], [2, 1], [-1]):
        with pytest.raises(ConfigurationError, match="runs"):
            itrop.iterate_ensemble(halving, [0.0, 0.0], 2, itrop.RngStream(0), runs,
                                   lambda k, alive, z: None)
