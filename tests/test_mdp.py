import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itrop
from itrop.cli import main
from itrop.core import ConfigurationError, NonConvergenceError

value_lists = st.lists(st.floats(-5, 5), min_size=20, max_size=20)


def linear_system_fixed_point(model):
    """Independent oracle for single-action models: solve (I - a*P) v = c directly."""
    assert model.num_actions == 1
    p = model.transition[:, 0, :]
    c = model.cost[:, 0]
    return np.linalg.solve(np.eye(model.num_states) - model.discount * p, c)


# ---------------------------------------------------------------- model validation

def test_model_rejects_bad_rows():
    t = np.array([[[0.6, 0.3]], [[0.5, 0.5]]])  # first row sums to 0.9
    with pytest.raises(ConfigurationError, match=r"s=0"):
        itrop.MdpModel(transition=t, cost=np.zeros((2, 1)), discount=0.5)


def test_model_rejects_negative_probability():
    t = np.array([[[1.2, -0.2]], [[0.5, 0.5]]])
    with pytest.raises(ConfigurationError, match="negative"):
        itrop.MdpModel(transition=t, cost=np.zeros((2, 1)), discount=0.5)


def test_model_rejects_bad_discount():
    t = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    for bad in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ConfigurationError):
            itrop.MdpModel(transition=t, cost=np.zeros((2, 1)), discount=bad)


def test_model_rejects_nan_transition():
    t = np.array([[[1.0, 0.0]], [[np.nan, 1.0]]])  # the NaN row's sum is NaN, not 1
    with pytest.raises(ConfigurationError, match=r"s=1"):
        itrop.MdpModel(transition=t, cost=np.zeros((2, 1)), discount=0.5)


def test_model_rejects_nonfinite_cost():
    t = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    with pytest.raises(ConfigurationError):
        itrop.MdpModel(transition=t, cost=np.array([[np.inf], [0.0]]), discount=0.5)


# ---------------------------------------------------------------- exact sweeps

def test_bellman_of_zero_is_min_cost(mdp20):
    out = itrop.bellman_apply(mdp20, np.zeros(20))
    assert np.array_equal(out, mdp20.cost.min(axis=1))


def test_bellman_single_action_is_affine(ref_mdp2):
    v = np.array([3.0, -1.0])
    expected = ref_mdp2.cost[:, 0] + 0.5 * ref_mdp2.transition[:, 0, :] @ v
    assert np.array_equal(itrop.bellman_apply(ref_mdp2, v), expected)


def test_reference_fixed_point_matches_linear_solve(ref_mdp2):
    oracle = linear_system_fixed_point(ref_mdp2)
    assert np.allclose(oracle, [2.0, 4.0], rtol=0, atol=1e-14)
    v, sweeps, moved = itrop.solve_exact(itrop.bellman_operator(ref_mdp2), tol=1e-10)
    assert np.max(np.abs(v - oracle)) <= 1e-10
    # the last step met the stopping rule tol * (1 - discount) / discount = tol
    assert sweeps >= 1 and 0.0 <= moved <= 1e-10


def test_q_fixed_point_consistent_with_value(ref_mdp2):
    q_op = itrop.q_operator(ref_mdp2)
    q, _, _ = itrop.solve_exact(q_op, tol=1e-10)
    v, _, _ = itrop.solve_exact(itrop.bellman_operator(ref_mdp2), tol=1e-10)
    assert q.shape == (2,)  # flat (S*A,), as the Q handle iterates it
    assert np.max(np.abs(q.reshape(2, 1).min(axis=1) - v)) <= 1e-9
    # q* is a fixed point of the exact Q sweep
    assert np.max(np.abs(q_op.apply(q) - q)) <= 1e-9


def test_solve_exact_tolerance_semantics(ref_mdp2):
    oracle = linear_system_fixed_point(ref_mdp2)
    for tol in (1e-4, 1e-8, 1e-12):
        v, _, _ = itrop.solve_exact(itrop.bellman_operator(ref_mdp2), tol=tol)
        assert np.max(np.abs(v - oracle)) <= tol


def test_solve_exact_iteration_cap(mdp20):
    with pytest.raises(NonConvergenceError, match="reference solve did not converge"):
        itrop.solve_exact(itrop.bellman_operator(mdp20), tol=1e-10, max_iterations=3)


def test_solve_exact_refuses_a_tolerance_that_is_not_positive_and_finite(mdp20):
    # a NaN threshold passes no step, so the solve would sweep to its cap
    for tol in (np.nan, np.inf, 0.0, -1e-10):
        with pytest.raises(ConfigurationError, match="tol"):
            itrop.solve_exact(itrop.bellman_operator(mdp20), tol=tol, max_iterations=3)


def test_solve_exact_needs_a_contraction_certificate(ref_mdp2):
    # without a modulus in (0, 1) the stopping rule certifies nothing
    sweep = itrop.bellman_operator(ref_mdp2)
    for modulus in (None, 1.0, 2.0):
        op = itrop.ExactOperatorHandle(apply=sweep.apply, dimension=2, claimed_modulus=modulus)
        with pytest.raises(ConfigurationError, match="claimed modulus in \\(0, 1\\)"):
            itrop.solve_exact(op)


def test_bellman_shape_validation(mdp20):
    with pytest.raises(ConfigurationError):
        itrop.bellman_apply(mdp20, np.zeros(19))
    with pytest.raises(ConfigurationError):
        itrop.q_apply(mdp20, np.zeros((20, 4)))


# ---------------------------------------------------------------- sampled sweeps

def deterministic_mdp():
    """Identity transitions: every sampled sweep must equal the exact one."""
    t = np.zeros((3, 2, 3))
    for s in range(3):
        t[s, :, s] = 1.0
    cost = np.array([[0.1, 0.9], [0.5, 0.2], [0.7, 0.3]])
    return itrop.MdpModel(transition=t, cost=cost, discount=0.9)


@pytest.mark.parametrize("n", [1, 3, 16, 100])
def test_empirical_bellman_equals_exact_on_deterministic_kernel(n):
    model = deterministic_mdp()
    v = np.array([0.1, -2.0, 3.7])
    exact = itrop.bellman_apply(model, v)
    factory = itrop.empirical_bellman_factory(model, n)
    for t in range(5):
        assert np.array_equal(factory.realize(itrop.RngStream(8).child(t))(v), exact)


@pytest.mark.parametrize("n", [1, 4, 100])
def test_empirical_q_equals_exact_on_deterministic_kernel(n):
    model = deterministic_mdp()
    q = np.array([[0.3, 1.0], [-0.5, 0.1], [2.0, 0.0]])
    exact = itrop.q_apply(model, q)
    realization = itrop.empirical_q_factory(model, n).realize(itrop.RngStream(8).child(0))
    assert np.array_equal(realization(q.ravel()), exact.ravel())


@pytest.mark.parametrize("n", [3, 100])
def test_deterministic_kernel_block_step_is_exact_on_both_samplers(n):
    model = deterministic_mdp()
    assert itrop.uses_alias(3, n) == (n == 3)
    vs = np.array([[0.1, -2.0, 3.7], [1.0 / 3.0, 0.7, -0.2], [5.0, 5.0, -1e-3]])
    exact = np.array([itrop.bellman_apply(model, v) for v in vs])
    factory = itrop.empirical_bellman_factory(model, n)
    stream = itrop.RngStream(8).child(1)
    rows = np.array([factory.realize(stream, r)(v) for r, v in enumerate(vs)])
    assert np.array_equal(rows, exact)


def skewed_kernel_model():
    """Rows with zero-probability next states and very unequal weights."""
    rng = np.random.default_rng(17)
    t = rng.random((5, 2, 5)) ** 4
    t[rng.random((5, 2, 5)) < 0.35] = 0.0
    t[:, :, 2] += 0.05
    t /= t.sum(axis=2, keepdims=True)
    return itrop.MdpModel(transition=t, cost=np.zeros((5, 2)), discount=0.5)


def test_alias_tables_reproduce_each_row_exactly():
    model = skewed_kernel_model()
    tables = model._sampler
    s = model.num_states
    prob = tables.prob.reshape(-1, s)
    alias = (tables.alias_offset + np.arange(tables.prob.size)).reshape(-1, s) % s
    recon = prob / s
    for r in range(prob.shape[0]):
        np.add.at(recon[r], alias[r], (1.0 - prob[r]) / s)
    assert np.allclose(recon, tables.pvals, rtol=0, atol=1e-15)
    # a zero-probability column is never kept by its coin, nor an alias target
    zero = tables.pvals == 0.0
    assert np.all(prob[zero] == 0.0)
    targets = np.take_along_axis(tables.pvals, alias, axis=1)
    assert np.all(targets[prob < 1.0] > 0.0)


def test_alias_sampler_frequencies_match_rows():
    model = skewed_kernel_model()
    n, runs = 50, 2400  # 120000 next states per (s, a) row
    assert itrop.uses_alias(model.num_states, n)
    counts = itrop.mdp._alias_counts(model, n, itrop.RngStream(3).child(4),
                                     np.arange(runs)).sum(axis=0)
    draws = n * runs
    p = model._sampler.pvals
    freq = counts / draws
    se = np.sqrt(p * (1.0 - p) / draws)
    assert np.all(counts[p == 0.0] == 0)
    assert np.all(np.abs(freq - p) <= 5.0 * se + 1e-12)


def test_empirical_bellman_same_stream_shares_draws(mdp20):
    v = np.linspace(0.0, 2.0, 20)
    s = itrop.RngStream(3).child(1)
    factory = itrop.empirical_bellman_factory(mdp20, 7)
    assert np.array_equal(factory.realize(s)(v), factory.realize(s)(v))


@settings(max_examples=40, deadline=None)
@given(value_lists, value_lists, st.integers(0, 50), st.sampled_from([1, 5, 20]))
def test_empirical_bellman_realizations_contract(mdp20, v1, v2, trial, n):
    v1 = np.asarray(v1)
    v2 = np.asarray(v2)
    f = itrop.empirical_bellman_factory(mdp20, n).realize(itrop.RngStream(11).child(trial))
    lhs = np.max(np.abs(f(v1) - f(v2)))
    rhs = mdp20.discount * np.max(np.abs(v1 - v2))
    # Absolute 1e-12 floor: when the inputs differ by less than ~1e-4 the sweep
    # evaluates O(1) intermediates whose ulp-level rounding can exceed the
    # relative slack, even though the exact-arithmetic contraction is strict.
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


@settings(max_examples=25, deadline=None)
@given(value_lists, value_lists, st.integers(0, 50))
def test_empirical_q_realizations_contract(mdp20, w1, w2, trial):
    q1 = np.tile(np.asarray(w1)[:, None], (1, 5)).ravel()
    q2 = (np.tile(np.asarray(w2)[:, None], (1, 5))
          + np.outer(np.asarray(w1), np.linspace(0, 1, 5))).ravel()
    f = itrop.empirical_q_factory(mdp20, 5).realize(itrop.RngStream(12).child(trial))
    lhs = np.max(np.abs(f(q1) - f(q2)))
    rhs = mdp20.discount * np.max(np.abs(q1 - q2))
    # Same rounding floor as the value-sweep test above.
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-12


def test_empirical_bellman_monotone_under_coupling(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 4)
    rng = np.random.default_rng(0)
    for t in range(200):
        lo = rng.uniform(0.0, 2.0, 20)
        hi = lo + rng.uniform(0.0, 1.0, 20) * (rng.random(20) < 0.5)
        s = itrop.RngStream(21).child(t)
        f = factory.realize(s)
        assert np.all(f(lo) <= f(hi))


def test_empirical_bellman_zero_start_grows(mdp20):
    # costs are nonnegative, so one sampled sweep from 0 cannot go below 0
    factory = itrop.empirical_bellman_factory(mdp20, 4)
    for t in range(100):
        assert np.all(factory.realize(itrop.RngStream(22).child(t))(np.zeros(20)) >= 0.0)


def test_empirical_bellman_stays_in_absorbing_ball(mdp20):
    bound = np.max(mdp20.cost) / (1.0 - mdp20.discount)
    factory = itrop.empirical_bellman_factory(mdp20, 3)
    rng = np.random.default_rng(1)
    for t in range(100):
        v = rng.uniform(-bound, bound, 20)
        out = factory.realize(itrop.RngStream(23).child(t))(v)
        assert np.max(np.abs(out)) <= bound * (1.0 + 1e-12)


def test_empirical_bellman_jensen_direction(mdp20):
    # E min <= min E: the sampled sweep underestimates the exact one on average
    v = np.linspace(0.0, 3.0, 20)
    exact = itrop.bellman_apply(mdp20, v)
    trials = 3000
    factory = itrop.empirical_bellman_factory(mdp20, 2)
    acc = np.zeros((trials, 20))
    for t in range(trials):
        acc[t] = factory.realize(itrop.RngStream(24).child(t))(v)
    mean = acc.mean(axis=0)
    se = acc.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(mean <= exact + 3.0 * se)


def test_empirical_factories_validate_sample_size(mdp20):
    with pytest.raises(ConfigurationError):
        itrop.empirical_bellman_factory(mdp20, 0)
    with pytest.raises(ConfigurationError):
        itrop.empirical_q_factory(mdp20, -1)


# ---------------------------------------------------------------- random instances

def test_random_mdp_is_valid_and_deterministic():
    a = itrop.random_mdp(6, 3, seed=11)
    b = itrop.random_mdp(6, 3, seed=11)
    c = itrop.random_mdp(6, 3, seed=12)
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.cost, b.cost)
    assert not np.array_equal(a.transition, c.transition)
    assert np.allclose(a.transition.sum(axis=2), 1.0, rtol=0, atol=1e-12)
    assert np.all(a.transition >= 0)
    assert np.all((a.cost >= 0) & (a.cost < 1))
    assert a.discount == 0.9


# ---------------------------------------------------------------- tail bound

def test_hoeffding_bound_frozen_value():
    # oracle: direct evaluation of 2*S*A*exp(-n*eps^2/(2*r^2))
    expected = 200.0 * math.exp(-125.0)
    got = itrop.hoeffding_bound(20, 5, eps=0.5, sample_size=4000, radius=2.0)
    assert got == pytest.approx(expected, rel=1e-12)


def test_hoeffding_bound_decreases_in_sample_size():
    values = [itrop.hoeffding_bound(20, 5, 0.5, n, 2.0) for n in (1, 10, 100, 1000)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert itrop.hoeffding_bound(20, 5, 0.5, 1, 2.0) > 1.0  # vacuous regime exists


def test_hoeffding_bound_validation():
    with pytest.raises(ConfigurationError):
        itrop.hoeffding_bound(20, 5, -0.5, 10, 2.0)
    with pytest.raises(ConfigurationError):
        itrop.hoeffding_bound(20, 5, 0.5, 0, 2.0)


def test_hoeffding_bound_refuses_an_eps_or_radius_that_is_not_positive_and_finite():
    for bad in (np.nan, np.inf, 0.0):
        with pytest.raises(ConfigurationError, match="eps"):
            itrop.hoeffding_bound(20, 5, bad, 10, 2.0)
        with pytest.raises(ConfigurationError, match="radius"):
            itrop.hoeffding_bound(20, 5, 0.5, 10, bad)


def tail_frequency(model, v, eps, n, trials, stream):
    """Fraction of sampled sweeps at sup-distance > eps from the exact sweep,
    with a binomial standard error floored at one hit."""
    exact = itrop.bellman_apply(model, v)
    factory = itrop.empirical_bellman_factory(model, n)
    hits = sum(np.max(np.abs(factory.realize(stream.child(t))(v) - exact)) > eps
               for t in range(trials))
    freq = hits / trials
    return freq, math.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials)


def test_tail_bound_dominates_in_a_nonvacuous_regime(mdp20):
    # a noisy model and a bound below 1: the empirical frequency must stay
    # under bound + 3 binomial standard errors
    v = np.linspace(-1.0, 1.0, 20)
    n, eps = 200, 0.25
    bound = itrop.hoeffding_bound(20, 5, eps, n, 1.0)
    assert bound < 1.0
    freq, se = tail_frequency(mdp20, v, eps, n, 2000, itrop.RngStream(31))
    assert freq <= bound + 3.0 * se


def test_tail_bound_holds_at_small_eps(mdp20):
    # the exceedance frequency here is about 0.2 (0.195 over these trials); a
    # bound whose exponent is linear in eps reads 0.0091
    v = np.linspace(-1.0, 1.0, 20)
    n, eps = 20000, 0.01
    freq, se = tail_frequency(mdp20, v, eps, n, 400, itrop.RngStream(32))
    assert freq > 0.05
    assert freq <= min(1.0, itrop.hoeffding_bound(20, 5, eps, n, 1.0)) + 3.0 * se


# ---------------------------------------------------------------- serialization

def test_model_json_round_trip_is_lossless(tmp_path, mdp20):
    path = tmp_path / "model.json"
    itrop.save_model(mdp20, path)
    loaded = itrop.load_model(path)
    assert np.array_equal(loaded.transition, mdp20.transition)
    assert np.array_equal(loaded.cost, mdp20.cost)
    assert loaded.discount == mdp20.discount


def test_model_json_regeneration_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    itrop.save_model(itrop.random_mdp(5, 2, seed=3), p1)
    itrop.save_model(itrop.random_mdp(5, 2, seed=3), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_model_rejects_unknown_and_missing_keys(tmp_path, ref_mdp2):
    path = tmp_path / "model.json"
    doc = itrop.mdp.model_to_dict(ref_mdp2)
    doc["extra"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="extra"):
        itrop.load_model(path)
    doc.pop("extra")
    doc.pop("cost")
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="cost"):
        itrop.load_model(path)


def test_load_model_rejects_shape_mismatch(tmp_path, ref_mdp2):
    path = tmp_path / "model.json"
    doc = itrop.mdp.model_to_dict(ref_mdp2)
    doc["num_states"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="num_states"):
        itrop.load_model(path)


def test_load_model_rejects_invalid_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        itrop.load_model(path)


@pytest.mark.parametrize("key,value,fragment", [
    ("discount", [0.9], "discount"), ("discount", "0.9", "discount"),
    ("discount", True, "discount"),
    ("transition", [[[1.0, 0.0]], [[1.0]]], "transition"),  # ragged
    ("transition", "identity", "transition"),
    ("cost", [[1.0], ["two"]], "cost")])
def test_cli_run_on_a_malformed_model_exits_one(tmp_path, capsys, ref_mdp2, key, value,
                                                fragment):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**itrop.mdp.model_to_dict(ref_mdp2), key: value}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "evi", "master_seed": 0, "sample_sizes": [1],
                                  "runs": 2, "horizon": 3, "output_dir": str(tmp_path / "o"),
                                  "mdp": {"path": str(model)}}))
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and fragment in err


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_load_model_reads_strict_json(tmp_path, ref_mdp2, constant):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(itrop.mdp.model_to_dict(ref_mdp2)).replace("0.5", constant))
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}: invalid JSON")):
        itrop.load_model(path)
