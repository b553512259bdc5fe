import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itrop
from itrop.core import ConfigurationError, DivergenceError

from conftest import make_halving_factory, make_shift_factory


def affine_op(a: float, dim: int) -> itrop.ExactOperatorHandle:
    return itrop.ExactOperatorHandle(apply=lambda x: a * np.asarray(x), dimension=dim,
                                     claimed_modulus=abs(a))


def identity_factory(dim: int) -> itrop.RandomOperatorFactory:
    return itrop.RandomOperatorFactory(sample_size=1,
                                       realize=lambda stream: (lambda x: np.asarray(x)),
                                       dimension=dim)


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
    assert np.array_equal(s.for_run(3).generator().random(5),
                          np.random.Generator(bits).random(5))
    regions = [g.random(5) for g in s.generators([0, 3])]
    assert np.array_equal(regions[0], whole[:5])
    assert np.array_equal(regions[1], s.for_run(3).generator().random(5))
    assert s.for_run(3).child(1) == itrop.RngStream(42, (3, 1), run=3)
    with pytest.raises(ConfigurationError):
        itrop.RngStream(1, run=-1)


def test_write_atomic_never_leaves_a_partial_file(tmp_path, monkeypatch):
    path = tmp_path / "out.csv"
    itrop.core.write_atomic(path, "old\n")
    assert path.read_text() == "old\n"

    def crash(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(itrop.core.os, "replace", crash)
    with pytest.raises(OSError):
        itrop.core.write_atomic(path, "new\n")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


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


def test_divergence_guard_step_matches_doubling_oracle():
    # oracle: first k with 2^k > limit
    expected = next(k for k in range(1, 100) if 2.0 ** k > itrop.DIVERGENCE_LIMIT)
    op = affine_op(2.0, 1)
    with pytest.raises(DivergenceError) as err:
        itrop.iterate_exact(op, [1.0], 100)
    assert err.value.step == expected


# ---------------------------------------------------------------- iterate_random

def test_iterate_random_identity_factory_constant():
    traj = itrop.iterate_random(identity_factory(2), [1.0, 2.0], 7,
                                itrop.RngStream(0).child(0))
    assert np.all(traj == traj[0])


def test_iterate_random_bitwise_reproducible(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 5)
    run = itrop.RngStream(9).child(4)
    a = itrop.iterate_random(factory, np.zeros(20), 30, run)
    b = itrop.iterate_random(factory, np.zeros(20), 30, run)
    assert np.array_equal(a, b)


def test_iterate_random_distinct_runs_differ(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 5)
    a = itrop.iterate_random(factory, np.zeros(20), 30, itrop.RngStream(9).child(0))
    b = itrop.iterate_random(factory, np.zeros(20), 30, itrop.RngStream(9).child(1))
    assert not np.array_equal(a, b)


def test_iterate_random_uses_per_step_substreams():
    # step k realizes from lineage + (k - 1), read for the orbit's run
    seen = []

    def realize(stream):
        seen.append((stream.lineage, stream.run))
        return lambda x: np.asarray(x)

    factory = itrop.RandomOperatorFactory(sample_size=1, realize=realize, dimension=1)
    itrop.iterate_random(factory, [0.0], 4, itrop.RngStream(1).child(6).for_run(2))
    assert seen == [((6, 0), 2), ((6, 1), 2), ((6, 2), 2), ((6, 3), 2)]


def test_iterate_random_divergence_guard():
    def realize(stream):
        return lambda x: 10.0 * np.asarray(x)

    factory = itrop.RandomOperatorFactory(sample_size=1, realize=realize, dimension=1)
    with pytest.raises(DivergenceError):
        itrop.iterate_random(factory, [1.0], 100, itrop.RngStream(0).child(0))


# ---------------------------------------------------------------- orbit curves

def test_run_paired_identical_routes_give_zero_distance():
    exact = itrop.iterate_exact(affine_op(0.5, 2), [4.0, 4.0], 6)
    dist, _, dropped = itrop.orbit_curves(make_halving_factory(2), exact, [0.0, 0.0],
                                          itrop.RngStream(0).child(0), 2, norm="sup")
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
    exact = itrop.iterate_exact(affine_op(0.5, 1), [1.0], 3)
    with pytest.raises(ConfigurationError):
        itrop.orbit_curves(make_halving_factory(1), exact, [0.0],
                           itrop.RngStream(0).child(0), 2, norm="manhattan")


def test_time_average_matches_prefix_oracle():
    # gap[k] is the distance of the prefix mean of the random orbit from the target
    factory = make_shift_factory(4)
    stream = itrop.RngStream(5).child(0)
    target = np.random.default_rng(5).normal(size=4)
    exact = itrop.iterate_exact(affine_op(0.5, 4), np.ones(4), 12)
    _, gap, _ = itrop.orbit_curves(factory, exact, target, stream, 2)
    for r in range(2):
        traj = itrop.iterate_random(factory, exact[0], 12, stream.for_run(r))
        # oracle: direct prefix means
        expected = np.array([traj[: k + 1].mean(axis=0) for k in range(13)])
        assert np.allclose(gap[:, r], itrop.row_norm(expected - target), rtol=0, atol=1e-12)
        assert gap[0, r] == itrop.row_norm(traj[0] - target)


def test_time_average_constant_orbit():
    exact = np.tile([2.0, -1.0], (6, 1))
    dist, gap, _ = itrop.orbit_curves(identity_factory(2), exact, [0.0, 0.0],
                                      itrop.RngStream(0), 2, "sup")
    assert np.array_equal(dist, np.zeros((6, 2)))
    assert np.array_equal(gap, np.full((6, 2), 2.0))


def test_time_average_rejects_empty():
    with pytest.raises(ConfigurationError):
        itrop.orbit_curves(identity_factory(3), np.empty((0, 3)), np.zeros(3),
                           itrop.RngStream(0), 2)


# ---------------------------------------------------------------- residual

def test_fixed_point_residual_zero_at_fixed_point():
    op = itrop.ExactOperatorHandle(apply=lambda x: 0.5 * x + 1.0, dimension=2)
    # fixed point of x -> x/2 + 1 is 2
    assert itrop.fixed_point_residual(op, np.array([2.0, 2.0])) == 0.0
    assert itrop.fixed_point_residual(op, np.array([0.0, 0.0])) == pytest.approx(np.sqrt(2))


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
