import dataclasses
import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itrop
from itrop.core import ConfigurationError, DivergenceError

from conftest import block_fake, make_halving_factory, make_shift_factory, run_alone


def affine_op(a: float, dim: int) -> itrop.ExactOperatorHandle:
    return itrop.ExactOperatorHandle(apply=lambda x: a * np.asarray(x), dimension=dim,
                                     claimed_modulus=abs(a))


def identity_factory(dim: int, norm: str = "l2") -> itrop.RandomOperatorFactory:
    return block_fake(dim, lambda runs, z: z, norm=norm)


# ---------------------------------------------------------------- points / norms

def test_as_point_rejects_bad_shapes_and_values():
    with pytest.raises(ConfigurationError):
        itrop.core.as_point([[1.0, 2.0]])
    with pytest.raises(ConfigurationError):
        itrop.core.as_point([1.0, np.nan])
    with pytest.raises(ConfigurationError):
        itrop.core.as_point([])


# ---------------------------------------------------------------- streams

def test_stream_same_lineage_reproduces_draws():
    s = itrop.RngStream(42).child(3, 1)
    assert np.array_equal(s.generator().random(16), s.generator().random(16))


def test_stream_distinct_lineages_differ():
    base = itrop.RngStream(42)
    draws = {
        (0, 1): base.child(0, 1).generator().random(8).tobytes(),
        (1, 0): base.child(1, 0).generator().random(8).tobytes(),
        (1,): base.child(1).generator().random(8).tobytes(),
        (): base.generator().random(8).tobytes(),
    }
    assert len(set(draws.values())) == len(draws)


def test_stream_child_extends_lineage():
    s = itrop.RngStream(7).child(2).child(5, 1)
    assert s.lineage == (2, 5, 1)
    assert s.master_seed == 7


def test_stream_validation():
    with pytest.raises(ConfigurationError):
        itrop.RngStream(-1)
    with pytest.raises(ConfigurationError):
        itrop.RngStream(3).child(-2)


def test_stream_runs_read_disjoint_parts_of_one_stream():
    s = itrop.RngStream(42).child(3)
    whole = s.generator().random(12)
    # fixed-width parts: run r reads draws r*w .. r*w + w - 1
    u = s.uniforms(4, [0, 1, 2])
    assert np.array_equal(u.ravel(), whole)
    assert np.array_equal(s.uniforms(4, [2])[0], whole[8:])
    assert np.array_equal(s.uniforms(4, [0, 2]), u[[0, 2]])
    # variable-width parts: run r reads its own region of 2^64 draws
    bits = np.random.PCG64(np.random.SeedSequence(42, spawn_key=(3,)))
    bits.advance(3 << 64)
    assert np.array_equal(next(s.generators([3])).random(5),
                          np.random.Generator(bits).random(5))
    regions = [g.random(5) for g in s.generators([0, 3])]
    assert np.array_equal(regions[0], whole[:5])
    assert np.array_equal(regions[1], next(s.generators([3])).random(5))
    # a realization names its run, which must be a run index
    shifted = make_shift_factory(5).realize(s, 3)(np.zeros(5))
    assert np.array_equal(shifted, next(s.generators([3])).normal(size=5))
    with pytest.raises(ConfigurationError):
        make_shift_factory(5).realize(s, -1)


def seed_sequence_state(master, lineage):
    return np.random.PCG64(np.random.SeedSequence(master, spawn_key=lineage)).state


@pytest.mark.parametrize("master", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1])
@pytest.mark.parametrize("lineage", [(), (5,), (2 ** 32,), (0, 2 ** 32 - 1),
                                     (2 ** 32, 7), (3, 2 ** 40, 2 ** 64 + 5)])
def test_stream_states_are_the_seed_sequence_states(master, lineage):
    stream = itrop.RngStream(master, lineage)
    assert stream.generator().bit_generator.state == seed_sequence_state(master, lineage)


def test_stream_states_match_numpy_on_random_lineages():
    rng = np.random.default_rng(8)
    for _ in range(300):
        master = int(rng.integers(2 ** 63)) >> int(rng.integers(64))
        lineage = tuple(int(rng.integers(2 ** 63)) >> int(rng.integers(64))
                        for _ in range(rng.integers(4)))
        state = itrop.RngStream(master, lineage).generator().bit_generator.state
        assert state == seed_sequence_state(master, lineage), (master, lineage)


@pytest.mark.parametrize("prefix", [(), (1, 2 ** 33)], ids=["empty", "two-word"])
def test_children_states_span_a_change_of_word_count(prefix):
    # one batch holds step indices of one and of two 32-bit words, and the
    # steps run over more than one batch
    steps = range(2 ** 32 - 300, 2 ** 32 + 300)
    children = list(itrop.RngStream(2 ** 63 - 1, prefix).children(steps))
    assert [c.lineage for c in children] == [prefix + (k,) for k in steps]
    for child in children:
        assert child == itrop.RngStream(2 ** 63 - 1, prefix).child(child.lineage[-1])
        assert child.generator().bit_generator.state == seed_sequence_state(2 ** 63 - 1,
                                                                            child.lineage)
    with pytest.raises(ConfigurationError):
        list(itrop.RngStream(0).children([3, -1]))


def test_threads_reading_one_stream_get_the_serial_draws():
    # more threads than cores, switching often, read disjoint runs of one
    # stream object whose start state none of them has derived yet
    stream, threads, reps = itrop.RngStream(44).child(5), 4, 200
    serial = itrop.RngStream(44).child(5)
    expected = {r: (next(serial.generators([r])).random(6), serial.uniforms(3, [r])[0])
                for r in range(2 * threads)}
    mismatches, done = [], []

    def read(runs):
        for _ in range(reps):
            for r in runs:
                draws = [g.random(6) for g in stream.generators([r])][0]
                if not (np.array_equal(draws, expected[r][0])
                        and np.array_equal(stream.uniforms(3, [r])[0], expected[r][1])):
                    mismatches.append(r)
        done.append(runs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=read, args=([i, i + threads],))
                   for i in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert len(done) == threads and mismatches == []


def test_write_atomic_never_leaves_a_partial_file(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    itrop.core.write_atomic(path, "old\n")
    assert path.read_text() == "old\n"

    def crash(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(itrop.core.os, "replace", crash)
    with pytest.raises(ConfigurationError, match=f"cannot write {path}: disk gone"):
        itrop.core.write_atomic(path, "new\n")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_write_json_writes_numpy_values_as_the_python_values_they_hold(tmp_path):
    path = tmp_path / "doc.json"
    third = 1.0 / 3.0
    itrop.core.write_json(path, {"b": np.float64(third), "a": (np.int64(7), np.bool_(True)),
                                 "c": np.array([[0.1, 2.0]]), "d": [np.arange(2)]})
    expected = {"a": [7, True], "b": third, "c": [[0.1, 2.0]], "d": [[0, 1]]}
    assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    with pytest.raises(TypeError):
        itrop.core.write_json(path, {"e": {1, 2}})
    assert json.loads(path.read_text()) == expected  # the failed write left the file alone


def test_distance_hand_values():
    # one point gives a scalar: the distance of a and b is the norm of b - a
    a, b = np.array([0.0, 0.0]), np.array([3.0, 4.0])
    assert itrop.row_norm(b - a, "l2") == 5.0
    assert itrop.row_norm(b - a, "sup") == 4.0
    assert itrop.row_norm(b - a).shape == ()
    with pytest.raises(ConfigurationError):
        itrop.row_norm(b - a, "l1")


def test_row_norm_matches_distance():
    # a block's row norms are the one-point distances of its rows from 0
    diff = np.array([[3.0, -4.0], [0.0, 0.0], [-1.0, 0.5]])
    assert np.array_equal(itrop.row_norm(diff, "l2"), [5.0, 0.0, np.hypot(1.0, 0.5)])
    assert np.array_equal(itrop.row_norm(diff, "sup"), [4.0, 0.0, 1.0])
    for norm in itrop.core.NORMS:
        for row, value in zip(diff, itrop.row_norm(diff, norm)):
            assert itrop.row_norm(row, norm) == value
    with pytest.raises(ConfigurationError):
        itrop.row_norm(diff, "l1")


def test_row_norm_l2_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(5)
    blocks = [rng.normal(size=(7, 13)) * 10.0 ** rng.integers(-150, 150, size=(7, 1)),
              rng.normal(size=(3, 5, 33)),
              np.array([[np.inf, 1.0], [-np.inf, -np.inf], [np.nan, 0.0], [np.inf, np.nan]]),
              np.zeros((4, 9)), -np.zeros((2, 3))]
    for block in blocks:
        assert (itrop.row_norm(block, "l2").tobytes()
                == np.linalg.norm(block, axis=-1).tobytes())


def test_different_master_seeds_differ():
    a = itrop.RngStream(1).child(0).generator().random(8)
    b = itrop.RngStream(2).child(0).generator().random(8)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------- iterate_exact

def test_iterate_exact_identity_is_constant():
    op = affine_op(1.0, 3)
    traj = itrop.iterate_exact(op, [1.0, -2.0, 0.5], 5)
    assert traj.shape == (6, 3)
    assert np.all(traj == traj[0])


def test_iterate_exact_halving_matches_closed_form():
    # oracle: the orbit of x -> x/2 is 2^-k * x0
    op = affine_op(0.5, 2)
    x0 = np.array([8.0, -4.0])
    traj = itrop.iterate_exact(op, x0, 10)
    expected = np.array([x0 * 0.5 ** k for k in range(11)])
    assert np.array_equal(traj, expected)


def test_iterate_exact_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        itrop.iterate_exact(affine_op(0.5, 3), [1.0, 2.0], 4)


def test_iterate_exact_negative_steps():
    with pytest.raises(ConfigurationError):
        itrop.iterate_exact(affine_op(0.5, 1), [1.0], -1)


def test_iterate_exact_zero_steps():
    traj = itrop.iterate_exact(affine_op(0.5, 1), [3.0], 0)
    assert traj.shape == (1, 1) and traj[0, 0] == 3.0


def test_iterate_exact_reports_nan_step():
    def apply(x):
        return np.full_like(x, np.nan)

    op = itrop.ExactOperatorHandle(apply=apply, dimension=1)
    with pytest.raises(DivergenceError) as err:
        itrop.iterate_exact(op, [1.0], 5)
    assert err.value.step == 1


def test_solve_exact_stops_at_the_sweep_that_leaves_the_trusted_range():
    # a false certificate: the map doubles, so its orbit from 0 is 2^k - 1 and
    # passes the limit at step 40; without the guard the solve sweeps to its cap
    op = itrop.ExactOperatorHandle(lambda x: 2 * x + 1, 3, claimed_modulus=0.5)
    with pytest.raises(DivergenceError) as orbit:
        itrop.iterate_exact(op, np.zeros(3), 100)
    with pytest.raises(DivergenceError) as solve:
        itrop.solve_exact(op)
    assert orbit.value.step == solve.value.step == 40


def test_divergence_guard_step_matches_doubling_oracle():
    # oracle: first k with 2^k > limit
    expected = next(k for k in range(1, 100) if 2.0 ** k > itrop.DIVERGENCE_LIMIT)
    op = affine_op(2.0, 1)
    with pytest.raises(DivergenceError) as err:
        itrop.iterate_exact(op, [1.0], 100)
    assert err.value.step == expected


# ---------------------------------------------------------------- one run alone

def test_iterate_random_identity_factory_constant():
    traj = run_alone(identity_factory(2), [1.0, 2.0], 7, itrop.RngStream(0).child(0))
    assert np.all(traj == traj[0])


def test_iterate_random_bitwise_reproducible(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 5)
    run = itrop.RngStream(9).child(4)
    a = run_alone(factory, np.zeros(20), 30, run)
    b = run_alone(factory, np.zeros(20), 30, run)
    assert np.array_equal(a, b)


def test_iterate_random_distinct_runs_differ(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 5)
    a = run_alone(factory, np.zeros(20), 30, itrop.RngStream(9).child(0))
    b = run_alone(factory, np.zeros(20), 30, itrop.RngStream(9).child(1))
    assert not np.array_equal(a, b)


def test_iterate_random_uses_per_step_substreams():
    # step k draws from lineage + (k - 1), read for the orbit's run
    seen = []

    def draw(stream, runs):
        seen.append((stream.lineage, runs.tolist()))
        return runs

    factory = block_fake(1, lambda runs, z: z, draw=draw)
    run_alone(factory, [0.0], 4, itrop.RngStream(1).child(6), 2)
    assert seen == [((6, 0), [2]), ((6, 1), [2]), ((6, 2), [2]), ((6, 3), [2])]


def test_iterate_random_divergence_guard():
    factory = block_fake(1, lambda runs, z: 10.0 * z)
    with pytest.raises(DivergenceError):
        run_alone(factory, [1.0], 100, itrop.RngStream(0).child(0))


# ---------------------------------------------------------------- orbit curves

def test_run_paired_identical_routes_give_zero_distance():
    exact = itrop.iterate_exact(affine_op(0.5, 2), [4.0, 4.0], 6)
    halving = dataclasses.replace(make_halving_factory(2), norm="sup")
    dist, _, dropped = itrop.orbit_curves(halving, exact, [0.0, 0.0],
                                          itrop.RngStream(0).child(0), 2)
    assert np.array_equal(dist, np.zeros((7, 2))) and dropped == {}


def test_run_paired_zero_steps():
    exact = itrop.iterate_exact(affine_op(0.5, 1), [2.0], 0)
    dist, gap, dropped = itrop.orbit_curves(make_halving_factory(1), exact, [0.5],
                                            itrop.RngStream(0).child(0), 3)
    assert dist.tolist() == [[0.0, 0.0, 0.0]]
    assert gap.tolist() == [[1.5, 1.5, 1.5]]
    assert dropped == {}


def test_run_paired_dimension_mismatch():
    exact = itrop.iterate_exact(affine_op(0.5, 2), [1.0, 1.0], 3)
    with pytest.raises(ConfigurationError):
        itrop.orbit_curves(make_halving_factory(3), exact, [0.0, 0.0],
                           itrop.RngStream(0).child(0), 2)


def test_run_paired_rejects_unknown_norm():
    # the norm is the operator's, so an unknown one fails where it is built
    with pytest.raises(ConfigurationError, match="manhattan"):
        dataclasses.replace(make_halving_factory(1), norm="manhattan")
    with pytest.raises(ConfigurationError, match="manhattan"):
        dataclasses.replace(affine_op(0.5, 1), norm="manhattan")


@pytest.mark.parametrize("norm", ["manhattan", "L2", None])
def test_operators_refuse_an_unknown_norm_where_they_are_built(norm):
    calls = []

    def draw(stream, runs):
        calls.append(runs)
        return runs

    with pytest.raises(ConfigurationError, match="norm"):
        itrop.RandomOperatorFactory(1, 2, draw, lambda runs, z: z, row_bytes=16,
                                    point_bytes=16, norm=norm)
    with pytest.raises(ConfigurationError, match="norm"):
        itrop.ExactOperatorHandle(apply=lambda x: x, dimension=2, norm=norm)
    assert calls == []


@pytest.mark.parametrize("modulus", [-1.0, -0.5, math.nan, math.inf])
def test_exact_handle_refuses_a_modulus_that_is_negative_or_not_finite(modulus):
    # a Lipschitz bound is a finite number >= 0; a negative one would certify A5
    with pytest.raises(ConfigurationError, match="claimed_modulus"):
        dataclasses.replace(affine_op(0.5, 2), claimed_modulus=modulus)
    for accepted in (None, 0.0, 0.5, 2.0):
        assert dataclasses.replace(affine_op(0.5, 2),
                                   claimed_modulus=accepted).claimed_modulus == accepted


def test_each_family_measures_in_the_norm_of_its_modulus(mdp20, logistic_problem):
    # the Bellman sweeps contract in sup norm, the gradient steps in l2
    assert {itrop.bellman_operator(mdp20).norm, itrop.q_operator(mdp20).norm,
            itrop.empirical_bellman_factory(mdp20, 5).norm,
            itrop.empirical_q_factory(mdp20, 400).norm} == {"sup"}
    assert {itrop.exact_gd_operator(logistic_problem).norm,
            itrop.sgd_factory(logistic_problem, 8).norm,
            itrop.sgd_factory(logistic_problem, 8, "without_replacement").norm} == {"l2"}
    # a custom operator keeps the l2 default, and replace() keeps the norm
    assert make_halving_factory(2).norm == "l2"
    factory = itrop.empirical_bellman_factory(mdp20, 5)
    assert dataclasses.replace(factory, realize=factory.realize).norm == "sup"


def test_time_average_matches_prefix_oracle():
    # gap[k] is the distance of the prefix mean of the random orbit from the target
    factory = make_shift_factory(4)
    stream = itrop.RngStream(5).child(0)
    target = np.random.default_rng(5).normal(size=4)
    exact = itrop.iterate_exact(affine_op(0.5, 4), np.ones(4), 12)
    _, gap, _ = itrop.orbit_curves(factory, exact, target, stream, 2)
    for r in range(2):
        traj = run_alone(factory, exact[0], 12, stream, r)
        # oracle: direct prefix means
        expected = np.array([traj[: k + 1].mean(axis=0) for k in range(13)])
        assert np.allclose(gap[:, r], itrop.row_norm(expected - target), rtol=0, atol=1e-12)
        assert gap[0, r] == itrop.row_norm(traj[0] - target)


def test_time_average_constant_orbit():
    exact = np.tile([2.0, -1.0], (6, 1))
    dist, gap, _ = itrop.orbit_curves(identity_factory(2, "sup"), exact, [0.0, 0.0],
                                      itrop.RngStream(0), 2)
    assert np.array_equal(dist, np.zeros((6, 2)))
    assert np.array_equal(gap, np.full((6, 2), 2.0))


def test_time_average_rejects_empty():
    with pytest.raises(ConfigurationError):
        itrop.orbit_curves(identity_factory(3), np.empty((0, 3)), np.zeros(3),
                           itrop.RngStream(0), 2)


# ---------------------------------------------------------------- properties

@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=2, max_size=6),
       st.floats(0.05, 0.95))
def test_contraction_orbit_decays_geometrically(coords, modulus):
    x0 = np.asarray(coords)
    op = affine_op(modulus, x0.size)
    traj = itrop.iterate_exact(op, x0, 12)
    d0 = itrop.row_norm(x0)
    # Absolute 1e-12 floor: the l2 norm squares its inputs, so distances below
    # ~1e-150 lose relative precision to subnormal underflow even though the
    # orbit itself is computed exactly.
    for k in range(13):
        dk = itrop.row_norm(traj[k])
        assert dk <= modulus ** k * d0 * (1.0 + 1e-12) + 1e-12
