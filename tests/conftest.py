import dataclasses
import threading

import numpy as np
import pytest

import itrop


@pytest.fixture(scope="session")
def ref_mdp2():
    """Two states, one action, identity transitions, costs (1, 2), discount 1/2.

    The exact fixed point solves a 2x2 linear system: v* = (2, 4).
    """
    transition = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    cost = np.array([[1.0], [2.0]])
    return itrop.MdpModel(transition=transition, cost=cost, discount=0.5)


@pytest.fixture(scope="session")
def mdp20():
    """The seeded 20-state, 5-action random instance used across tests."""
    return itrop.random_mdp(20, 5, seed=7, discount=0.9)


@pytest.fixture(scope="session")
def logistic_problem():
    ds = itrop.synth_dataset(200, 8, "logistic", seed=9)
    probe = itrop.RegressionProblem(dataset=ds, family="logistic", lam=5.0, beta=1.0)
    upper = itrop.eigen_bounds(probe).upper
    return itrop.RegressionProblem(dataset=ds, family="logistic", lam=5.0, beta=1.0 / upper)


@pytest.fixture(scope="session")
def poisson_problem():
    ds = itrop.synth_dataset(200, 8, "poisson", seed=9)
    probe = itrop.RegressionProblem(dataset=ds, family="poisson", lam=1.0, beta=1.0)
    upper = itrop.eigen_bounds(probe, region_radius=1.0).upper
    return itrop.RegressionProblem(dataset=ds, family="poisson", lam=1.0, beta=1.0 / upper)


def block_fake(dim: int, move, draw=lambda stream, runs: runs,
               sample_size: int = 1, norm: str = "l2") -> itrop.RandomOperatorFactory:
    """A test factory measured in `norm`: a step draws draw(stream, runs) (by
    default the run indices themselves) and moves the (m, P, d) block Z by
    move(draws, Z)."""
    return itrop.RandomOperatorFactory(sample_size, dim, draw, move,
                                       row_bytes=8 * dim, point_bytes=8 * dim, norm=norm)


def run_alone(factory, z0, num_steps: int, stream: itrop.RngStream, run: int = 0) -> np.ndarray:
    """The orbit of run `run` of stream moved alone by the engine, as a
    (num_steps+1, d) array; DivergenceError at the step where the engine drops it."""
    rows = []
    dropped = itrop.iterate_ensemble(factory, z0, num_steps, stream, [run],
                                     lambda k, runs, z: rows.append(z[0].copy()))
    if dropped:
        raise itrop.DivergenceError(dropped[run])
    return np.array(rows)


def blow_up_factory(run_to_step):
    """Halving map of R^2, except run r multiplies by 1e30 at step run_to_step[r]."""

    def draw(stream, runs):
        step = stream.lineage[-1] + 1
        return np.array([run_to_step.get(r) == step for r in runs.tolist()])

    return block_fake(2, lambda blows_up, z: np.where(blows_up[:, None, None], z * 1e30,
                                                      z / 2.0), draw=draw)


def normal_draws(size):
    """A draw of `size` standard normals per run, each from its own run's stream."""
    return lambda stream, runs: np.array([g.normal(size=size)
                                          for g in stream.generators(runs)])


def make_halving_factory(dim: int, sample_size: int = 1) -> itrop.RandomOperatorFactory:
    """A noise-free random operator: every realization is x -> x / 2."""
    return block_fake(dim, lambda runs, z: z / 2.0, sample_size=sample_size)


def make_shift_factory(dim: int, scale: float = 1.0,
                       sample_size: int = 1) -> itrop.RandomOperatorFactory:
    """An isometry-valued random operator: x -> x + (random shift)."""
    return block_fake(dim, lambda shifts, z: z + scale * shifts[:, None],
                      draw=normal_draws(dim), sample_size=sample_size)


def on_cpus(monkeypatch, cpus):
    """Make `cpus` CPUs look usable to the draw-ahead choice."""
    monkeypatch.setattr(itrop.core, "_usable_cpus", lambda: cpus)


def draw_threads(factory):
    """factory whose draws record the name of the thread that ran them."""
    names = []

    def draw(stream, runs):
        names.append(threading.current_thread().name)
        return factory.draw(stream, runs)

    return dataclasses.replace(factory, draw=draw), names
