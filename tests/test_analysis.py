import dataclasses
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itrop
from conftest import (block_fake, blow_up_factory, draw_threads, make_halving_factory,
                      make_shift_factory, normal_draws, on_cpus, run_alone)
from itrop.core import ConfigurationError

point_lists = st.lists(st.floats(-10, 10), min_size=3, max_size=3)


def constant_scale_factory(dim, scale):
    return block_fake(dim, lambda runs, z: scale * z)


def random_scale_factory(dim, lo, hi, sample_size=1):
    def draw(stream, runs):
        return np.array([g.uniform(lo, hi) for g in stream.generators(runs)])

    return block_fake(dim, lambda a, z: a[:, None, None] * z, draw=draw,
                      sample_size=sample_size)


def unit_box(dim):
    return itrop.Box(lower=-np.ones(dim), upper=np.ones(dim))


def recording_draws():
    """A draw that records each stream it is asked for, and the list it records in."""
    calls = []

    def draw(stream, runs):
        calls.append(stream)
        return runs

    return draw, calls


# ---------------------------------------------------------------- Box

def test_box_sample_respects_bounds_and_seed():
    box = itrop.Box(lower=[-1.0, 2.0], upper=[1.0, 3.0])
    pts = box.sample(np.random.default_rng(0), 500)
    assert pts.shape == (500, 2)
    assert np.all((pts >= box.lower) & (pts <= box.upper))
    again = box.sample(np.random.default_rng(0), 500)
    assert np.array_equal(pts, again)


def test_box_around_pads_by_a_fifth_of_the_range():
    pts = np.array([[0.0, 10.0], [1.0, 10.0]])
    box = itrop.Box.around(pts)
    assert np.allclose(box.lower, [-0.2, 10.0 - 0.2 * 1e-12], atol=1e-12)
    assert np.allclose(box.upper, [1.2, 10.0 + 0.2 * 1e-12], atol=1e-12)
    assert box.upper[1] > box.lower[1]  # flat coordinates still get width


def test_box_validation():
    with pytest.raises(ConfigurationError):
        itrop.Box(lower=[0.0, 0.0], upper=[1.0])
    with pytest.raises(ConfigurationError):
        itrop.Box(lower=[2.0], upper=[1.0])
    with pytest.raises(ConfigurationError):
        itrop.Box(lower=[np.inf], upper=[np.inf])
    with pytest.raises(ConfigurationError):
        itrop.Box.around(np.zeros((0, 2)))


# ---------------------------------------------------------------- orbit curves

def scale_op(dim, scale):
    """The exact map x -> scale * x, certified by its modulus |scale|."""
    return itrop.ExactOperatorHandle(apply=lambda x: scale * x, dimension=dim,
                                     claimed_modulus=abs(scale))


def halving_op(dim):
    return scale_op(dim, 0.5)


def test_distance_curve_zero_for_identical_routes():
    dim = 3
    exact = itrop.iterate_exact(halving_op(dim), np.ones(dim), 6)
    for norm in ("l2", "sup"):
        factory = dataclasses.replace(make_halving_factory(dim), norm=norm)
        dist, gap, dropped = itrop.orbit_curves(factory, exact, np.zeros(dim),
                                                itrop.RngStream(1).child(0), 4)
        assert dist.shape == gap.shape == (7, 4) and dropped == {}
        assert np.array_equal(dist, np.zeros((7, 4)))
        # every run averages the same orbit
        assert np.all(gap == gap[:, :1]) and np.all(gap > 0.0)


def test_distance_curve_hand_values_and_norm_override():
    # the random orbit rests at 0 while a hand-made "exact" orbit jumps to (3, 4)
    exact = np.array([[0.0, 0.0], [3.0, 4.0]])
    target = np.array([3.0, 4.0])
    identity, stream = constant_scale_factory(2, 1.0), itrop.RngStream(0)
    assert identity.norm == "l2"  # the default
    dist, gap, _ = itrop.orbit_curves(identity, exact, target, stream, 2)
    assert dist.tolist() == [[0.0, 0.0], [5.0, 5.0]]
    assert gap.tolist() == [[5.0, 5.0], [5.0, 5.0]]
    sup_identity = dataclasses.replace(identity, norm="sup")
    dist, gap, _ = itrop.orbit_curves(sup_identity, exact, target, stream, 2)
    assert dist.tolist() == [[0.0, 0.0], [4.0, 4.0]]
    assert gap.tolist() == [[4.0, 4.0], [4.0, 4.0]]
    with pytest.raises(ConfigurationError):
        dataclasses.replace(identity, norm="manhattan")


def test_orbit_curves_rejects_bad_inputs_before_the_first_step():
    calls = []

    def draw(stream, runs):
        calls.append(stream)
        return runs

    factory = block_fake(2, lambda runs, z: z, draw=draw)
    exact = np.zeros((4, 2))
    stream = itrop.RngStream(0)
    with pytest.raises(ConfigurationError, match="target"):
        itrop.orbit_curves(factory, exact, np.zeros(3), stream, 2)
    with pytest.raises(ConfigurationError, match="norm"):  # refused as it is built
        block_fake(2, lambda runs, z: z, draw=draw, norm="manhattan")
    with pytest.raises(ConfigurationError, match="nonempty"):
        itrop.orbit_curves(factory, np.empty((0, 2)), np.zeros(2), stream, 2)
    with pytest.raises(ConfigurationError, match="dimension"):  # orbit of the wrong operator
        itrop.orbit_curves(factory, np.zeros((4, 3)), np.zeros(3), stream, 2)
    assert calls == []


@pytest.mark.parametrize("runs", [-1, 0])
def test_orbit_curves_rejects_a_run_count_below_one_before_the_first_step(runs):
    draw, calls = recording_draws()
    factory = block_fake(2, lambda drawn, z: z, draw=draw)
    with pytest.raises(ConfigurationError, match="runs"):
        itrop.orbit_curves(factory, np.zeros((4, 2)), np.zeros(2), itrop.RngStream(0), runs)
    assert calls == []


@pytest.mark.parametrize("family", ["evi", "sgd"])
def test_orbit_curves_columns_are_the_runs_alone(family, mdp20, logistic_problem):
    # column r: the distance of run r's orbit, computed alone, from the exact one
    # (bitwise), and the distance of its prefix means from the target
    if family == "evi":
        op, norm = itrop.bellman_operator(mdp20), "sup"
        factory = itrop.empirical_bellman_factory(mdp20, 5)
        target, _, _ = itrop.solve_exact(op, tol=1e-10)
    else:
        op, norm = itrop.exact_gd_operator(logistic_problem), "l2"
        factory = itrop.sgd_factory(logistic_problem, 8)
        target, _, _ = itrop.solve_reference_minimizer(logistic_problem)
    horizon, runs = 30, 4
    exact = itrop.iterate_exact(op, np.zeros(op.dimension), horizon)
    stream = itrop.RngStream(17).child(5)
    assert factory.norm == op.norm == norm
    dist, gap, dropped = itrop.orbit_curves(factory, exact, target, stream, runs)
    assert dist.shape == gap.shape == (horizon + 1, runs) and dropped == {}
    for r in range(runs):
        traj = run_alone(factory, exact[0], horizon, stream, r)
        assert np.array_equal(dist[:, r], itrop.row_norm(traj - exact, norm))
        prefix_means = np.array([traj[:k + 1].mean(axis=0) for k in range(horizon + 1)])
        assert np.allclose(gap[:, r], itrop.row_norm(prefix_means - target, norm),
                           rtol=1e-12, atol=1e-14)


def noisy_blow_up_factory(run_to_step, dim=3, norm="l2"):
    """z -> z / 2 + normal noise, except that run r is multiplied by 1e30 at
    step run_to_step[r], which drops it; measured in `norm`."""

    def draw(stream, runs):
        step = stream.lineage[-1] + 1
        return (np.array([run_to_step.get(r) == step for r in runs.tolist()]),
                np.array([g.normal(size=dim) for g in stream.generators(runs)]))

    def move(drawn, z):
        blows_up, noise = drawn
        return np.where(blows_up[:, None, None], z * 1e30, z / 2.0 + noise[:, None])

    return block_fake(dim, move, draw=draw, norm=norm)


def curves_alone(factory, exact, target, stream, run, norm):
    """Run `run`'s distance and gap columns, reduced one step at a time."""
    distance, gap = np.full(len(exact), np.nan), np.full(len(exact), np.nan)
    total = np.zeros(exact.shape[1])

    def visit(first, _, block):
        nonlocal total
        for k, z in enumerate(block, first):
            distance[k] = itrop.row_norm(z[0] - exact[k], norm)
            total = total + z[0]
            gap[k] = itrop.row_norm(total / (k + 1) - target, norm)

    dropped = itrop.iterate_ensemble(factory, exact[0], len(exact) - 1, stream, [run], visit)
    return distance, gap, dropped


@pytest.mark.parametrize("held", [1, 4])
@pytest.mark.parametrize("norm", ["l2", "sup"])
@pytest.mark.parametrize("survivors", [True, False])
def test_orbit_curves_of_dropped_runs_are_the_runs_alone(monkeypatch, held, norm, survivors):
    # the engine hands over `held` steps per block: run 1 drops inside a block, run
    # 2 on a block boundary, run 3 at the step after one; without survivors
    # the last run drops too, so the last block ends with no run left
    runs, dim = 5, 3
    monkeypatch.setattr(itrop.core, "CHUNK_BYTES", 8 * held * runs * dim * 8)
    run_to_step = {1: held + 2, 2: 2 * held, 3: 3 * held + 1}
    if not survivors:
        run_to_step.update({0: 4 * held + 1, 4: 4 * held + 2})
    factory = noisy_blow_up_factory(run_to_step, dim, norm)
    horizon, target = 5 * held + 3, np.full(dim, 0.25)
    exact = np.random.default_rng(3).normal(size=(horizon + 1, dim))
    stream = itrop.RngStream(12).child(4)
    distance, gap, dropped = itrop.orbit_curves(factory, exact, target, stream, runs)
    assert dropped == run_to_step
    for r in range(runs):
        alone_distance, alone_gap, _ = curves_alone(factory, exact, target, stream, r, norm)
        assert np.array_equal(distance[:, r], alone_distance, equal_nan=True), r
        assert np.array_equal(gap[:, r], alone_gap, equal_nan=True), r
        assert np.isnan(distance[run_to_step.get(r, horizon + 1):, r]).all()


def test_distance_curve_obeys_stepwise_triangle_bound(mdp20):
    # d_k <= alpha * d_{k-1} + ||exact_step(y_{k-1}) - realization_k(y_{k-1})||
    op = itrop.bellman_operator(mdp20)
    factory = itrop.empirical_bellman_factory(mdp20, 5)
    stream = itrop.RngStream(19).child(2)
    exact = itrop.iterate_exact(op, np.zeros(20), 40)
    d, _, _ = itrop.orbit_curves(factory, exact, np.zeros(20), stream, 3)
    for r in range(3):
        for k in range(1, 41):
            f_k = factory.realize(stream.child(k - 1), r)
            noise = np.max(np.abs(op.apply(exact[k - 1]) - f_k(exact[k - 1])))
            assert d[k, r] <= mdp20.discount * d[k - 1, r] + noise + 1e-12


# ---------------------------------------------------------------- sequence metric

def test_weighted_sequence_metric_frozen_value():
    # four steps at constant sup-distance 1: 1 + 1/2 + 1/4 + 1/8
    a = np.zeros((4, 2))
    b = np.ones((4, 2))
    assert itrop.weighted_sequence_metric(a, b, norm="sup") == 1.875


def test_weighted_sequence_metric_shape_checks():
    with pytest.raises(ConfigurationError):
        itrop.weighted_sequence_metric(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ConfigurationError):
        itrop.weighted_sequence_metric(np.zeros(3), np.zeros(3))
    with pytest.raises(ConfigurationError):
        itrop.weighted_sequence_metric(np.zeros((3, 2)), np.zeros((3, 2)), norm="bad")


@settings(max_examples=50, deadline=None)
@given(st.lists(point_lists, min_size=2, max_size=5).map(np.array),
       st.lists(point_lists, min_size=2, max_size=5).map(np.array),
       st.lists(point_lists, min_size=2, max_size=5).map(np.array))
def test_weighted_sequence_metric_axioms(a, b, c):
    rows = min(len(a), len(b), len(c))
    a, b, c = a[:rows], b[:rows], c[:rows]
    dab = itrop.weighted_sequence_metric(a, b)
    assert dab >= 0.0
    assert dab == itrop.weighted_sequence_metric(b, a)
    assert itrop.weighted_sequence_metric(a, a) == 0.0
    dac = itrop.weighted_sequence_metric(a, c)
    dcb = itrop.weighted_sequence_metric(c, b)
    assert dab <= dac + dcb + 1e-12


# ---------------------------------------------------------------- ensembles

def test_ensemble_hand_values():
    s = itrop.ensemble(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert s.mean.tolist() == [1.0, 2.0]
    assert s.variance.tolist() == [2.0, 2.0]
    assert s.std_error.tolist() == [1.0, 1.0]
    assert s.min.tolist() == [0.0, 1.0]
    assert s.max.tolist() == [2.0, 3.0]
    assert s.count == 2


def test_ensemble_is_order_invariant():
    curves = np.random.default_rng(3).random((6, 9))
    a = itrop.ensemble(curves)
    b = itrop.ensemble(curves[::-1])
    # summation order differs, so mean/variance agree only to rounding
    assert np.allclose(a.mean, b.mean, rtol=1e-14, atol=0)
    assert np.allclose(a.variance, b.variance, rtol=1e-12, atol=1e-18)
    assert np.array_equal(a.min, b.min)
    assert np.array_equal(a.max, b.max)


def test_ensemble_validation():
    with pytest.raises(ConfigurationError):
        itrop.ensemble(np.zeros((1, 5)))
    with pytest.raises(ConfigurationError):
        itrop.ensemble(np.zeros(5))


def test_ensemble_csv_round_trip_is_lossless(tmp_path):
    curves = np.random.default_rng(5).random((7, 11)) * 1e-3
    summary = itrop.ensemble(curves)
    path = tmp_path / "summary.csv"
    summary.to_csv(path)
    text = path.read_text()
    assert text.startswith("k,mean,variance,std_error,min,max,count\n")
    assert text.endswith("\n") and "\r" not in text
    back = itrop.EnsembleSummary.from_csv(path)
    for name in ("mean", "variance", "std_error", "min", "max"):
        assert np.array_equal(getattr(back, name), getattr(summary, name)), name
    assert back.count == summary.count


def test_ensemble_csv_lines_pin_each_value_s_shortest_repr(tmp_path):
    values = np.array([np.nan, np.inf, -0.0, 5e-324, 1.0])
    columns = [np.roll(values, shift) for shift in range(5)]
    summary = itrop.EnsembleSummary(*columns, count=3)
    summary.to_csv(tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == (b"k,mean,variance,std_error,min,max,count\n"
                                                 b"0,nan,1.0,5e-324,-0.0,inf,3\n"
                                                 b"1,inf,nan,1.0,5e-324,-0.0,3\n"
                                                 b"2,-0.0,inf,nan,1.0,5e-324,3\n"
                                                 b"3,5e-324,-0.0,inf,nan,1.0,3\n"
                                                 b"4,1.0,5e-324,-0.0,inf,nan,3\n")


def test_ensemble_csv_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(ConfigurationError, match="header"):
        itrop.EnsembleSummary.from_csv(path)
    path.write_text("k,mean,variance,std_error,min,max,count\n0,1.0,0.0\n")
    with pytest.raises(ConfigurationError, match="line 2"):
        itrop.EnsembleSummary.from_csv(path)
    path.write_text("k,mean,variance,std_error,min,max,count\n0,x,0.0,0.0,0.0,0.0,2\n")
    with pytest.raises(ConfigurationError, match="non-numeric"):
        itrop.EnsembleSummary.from_csv(path)
    path.write_text("k,mean,variance,std_error,min,max,count\n"
                    "0,1.0,0.0,0.0,1.0,1.0,2\n1,1.0,0.0,0.0,1.0,1.0,3\n")
    with pytest.raises(ConfigurationError, match="count"):
        itrop.EnsembleSummary.from_csv(path)


# ---------------------------------------------------------------- reports

def test_assumption_report_guards():
    with pytest.raises(ConfigurationError):
        itrop.AssumptionReport(assumption_id="A9-unknown", parameters={},
                               verdict="consistent")
    with pytest.raises(ConfigurationError):
        itrop.AssumptionReport(assumption_id="A3-monotone", parameters={},
                               verdict="maybe")
    with pytest.raises(ConfigurationError, match="evidence"):
        itrop.AssumptionReport(assumption_id="A3-monotone", parameters={},
                               verdict="violated", evidence=[])


def test_assumption_report_save_round_trip(tmp_path):
    report = itrop.AssumptionReport(
        assumption_id="A3-monotone",
        parameters={"trials": 3, "sizes": np.array([1, 2])},
        verdict="consistent",
        evidence=[{"gap": np.float64(0.25)}])
    path = tmp_path / "report.json"
    itrop.core.write_json(path, dataclasses.asdict(report))
    doc = json.loads(path.read_text())
    assert doc == {"assumption_id": "A3-monotone", "parameters": {"trials": 3, "sizes": [1, 2]},
                   "verdict": "consistent", "evidence": [{"gap": 0.25}]}
    assert isinstance(doc["evidence"][0]["gap"], float)
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------- sup-probability check

def test_tail_convention_is_strict_in_both_estimators():
    # a point exactly at eps is not a deviation, one beyond it is
    op = itrop.ExactOperatorHandle(apply=lambda x: np.asarray(x), dimension=1)
    at_eps = block_fake(1, lambda runs, z: z + 2.0)
    report = itrop.check_sup_probability(op, [at_eps], [[0.0]], eps=2.0, trials=100,
                                         stream=itrop.RngStream(53))
    assert report.evidence[0]["max_probability"] == 0.0
    beyond = block_fake(1, lambda runs, z: z + 2.5)
    report = itrop.check_sup_probability(op, [beyond], [[0.0]], eps=2.0, trials=100,
                                         stream=itrop.RngStream(53))
    assert report.evidence[0]["max_probability"] == 1.0


def test_sup_probability_exact_factory_is_consistent():
    dim = 2
    op = itrop.ExactOperatorHandle(apply=lambda x: x / 2.0, dimension=dim)
    factories = [make_halving_factory(dim, sample_size=n) for n in (1, 4)]
    report = itrop.check_sup_probability(op, factories, grid=[np.ones(dim)],
                                         eps=1e-9, trials=100,
                                         stream=itrop.RngStream(50).child(0))
    assert report.verdict == "consistent"
    assert [row["max_probability"] for row in report.evidence] == [0.0, 0.0]
    assert [row["sample_size"] for row in report.evidence] == [1, 4]


def test_sup_probability_concentrating_ladder_is_consistent(mdp20):
    op = itrop.bellman_operator(mdp20)
    factories = [itrop.empirical_bellman_factory(mdp20, n) for n in (1, 16, 256)]
    grid = [np.zeros(20), np.linspace(0.0, 2.0, 20), np.full(20, 1.0)]
    report = itrop.check_sup_probability(op, factories, grid, eps=0.25, trials=150,
                                         stream=itrop.RngStream(51).child(0))
    probs = [row["max_probability"] for row in report.evidence]
    assert probs[0] > probs[-1]
    assert report.verdict == "consistent"
    assert report.parameters["sample_sizes"] == [1, 16, 256]


def test_sup_probability_diverging_ladder_is_violated():
    dim = 2
    op = itrop.ExactOperatorHandle(apply=lambda x: np.asarray(x), dimension=dim)

    def noisy(sample_size, magnitude):
        return block_fake(dim, lambda shifts, z: z + magnitude * shifts[:, None],
                          draw=normal_draws(dim), sample_size=sample_size)

    report = itrop.check_sup_probability(op, [noisy(1, 0.0), noisy(10, 5.0)],
                                         grid=[np.zeros(dim)], eps=0.5, trials=200,
                                         stream=itrop.RngStream(52).child(0))
    assert report.verdict == "violated"
    probs = [row["max_probability"] for row in report.evidence]
    assert probs[1] > probs[0]


def test_sup_probability_refuses_an_eps_no_distance_can_pass(mdp20):
    # sample sizes relabelled so that the noisiest factory comes last: a
    # ladder that grows noisier, which eps = 0 would read as consistent
    op = itrop.bellman_operator(mdp20)
    factories = [dataclasses.replace(itrop.empirical_bellman_factory(mdp20, n), sample_size=m)
                 for n, m in ((400, 1), (25, 25), (1, 400))]
    grid = [np.zeros(20), np.linspace(0.0, 2.0, 20), np.full(20, 1.0)]
    report = itrop.check_sup_probability(op, factories, grid, 0.25, 100, itrop.RngStream(54))
    assert report.verdict == "violated"
    for eps in (0.0, -0.25, np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="eps"):
            itrop.check_sup_probability(op, factories, grid, eps, 100, itrop.RngStream(54))


def test_sup_probability_refuses_factories_outside_the_operator_s_space(mdp20):
    draw, calls = recording_draws()
    sup = block_fake(20, lambda drawn, z: z, draw=draw, norm="sup")
    l2_op = itrop.ExactOperatorHandle(apply=lambda x: x, dimension=20)
    with pytest.raises(ConfigurationError, match="norm 'l2'"):
        itrop.check_sup_probability(l2_op, [sup], [np.zeros(20)], 0.25, 100, itrop.RngStream(0))
    with pytest.raises(ConfigurationError, match="norm 'l2'"):  # the real families
        itrop.check_sup_probability(l2_op, [itrop.empirical_bellman_factory(mdp20, 4)],
                                    [np.zeros(20)], 0.25, 100, itrop.RngStream(0))
    sup_op = itrop.ExactOperatorHandle(apply=lambda x: x, dimension=20, norm="sup")
    with pytest.raises(ConfigurationError, match="dimension 20"):
        itrop.check_sup_probability(sup_op, [block_fake(19, lambda drawn, z: z, norm="sup")],
                                    [np.zeros(19)], 0.25, 100, itrop.RngStream(0))
    with pytest.raises(ConfigurationError, match="grid"):
        itrop.check_sup_probability(sup_op, [sup], [np.zeros(19)], 0.25, 100,
                                    itrop.RngStream(0))
    assert calls == []


def test_sup_probability_validation(mdp20):
    op = itrop.bellman_operator(mdp20)
    f1 = itrop.empirical_bellman_factory(mdp20, 4)
    f2 = itrop.empirical_bellman_factory(mdp20, 4)
    stream = itrop.RngStream(0)
    with pytest.raises(ConfigurationError, match="increasing"):
        itrop.check_sup_probability(op, [f1, f2], [np.zeros(20)], 0.1, 100, stream)
    with pytest.raises(ConfigurationError, match="trials"):
        itrop.check_sup_probability(op, [f1], [np.zeros(20)], 0.1, 99, stream)
    with pytest.raises(ConfigurationError, match="factory"):
        itrop.check_sup_probability(op, [], [np.zeros(20)], 0.1, 100, stream)
    with pytest.raises(ConfigurationError, match="grid"):
        itrop.check_sup_probability(op, [f1], [], 0.1, 100, stream)


# ---------------------------------------------------------------- monotonicity check

def test_monotone_identity_factory_consistent():
    dim = 3
    factory = block_fake(dim, lambda runs, z: z)
    pairs = [(np.zeros(dim), np.ones(dim))]
    report = itrop.check_monotone(factory, np.zeros(dim), pairs, trials=5,
                                  stream=itrop.RngStream(60).child(0))
    assert report.verdict == "consistent"
    assert report.parameters["violation_count"] == 0
    assert report.evidence == []


def test_monotone_empirical_bellman_consistent(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 3)
    rng = np.random.default_rng(61)
    pairs = []
    for _ in range(20):
        lo = rng.uniform(0.0, 1.0, 20)
        pairs.append((lo, lo + rng.uniform(0.0, 1.0, 20)))
    report = itrop.check_monotone(factory, np.zeros(20), pairs, trials=50,
                                  stream=itrop.RngStream(62).child(0))
    assert report.verdict == "consistent"
    assert report.parameters["violation_count"] == 0


def test_monotone_sgd_step_violated(logistic_problem):
    dim = logistic_problem.dataset.dim
    factory = itrop.sgd_factory(logistic_problem, batch_size=8)
    hi = np.zeros(dim)
    hi_list = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 2.0
        hi_list.append((np.zeros(dim), e))
    report = itrop.check_monotone(factory, np.zeros(dim), hi_list, trials=40,
                                  stream=itrop.RngStream(63).child(0))
    assert report.verdict == "violated"
    assert report.parameters["violation_count"] > 0
    assert len(report.evidence) <= 100
    first = report.evidence[0]
    assert set(first) == {"trial", "pair", "max_violation"}
    assert first["max_violation"] > 0.0


def test_monotone_evidence_is_capped(logistic_problem):
    dim = logistic_problem.dataset.dim
    factory = itrop.sgd_factory(logistic_problem, batch_size=8)
    e = np.zeros(dim)
    e[1] = 2.0
    report = itrop.check_monotone(factory, np.zeros(dim), [(np.zeros(dim), e)],
                                  trials=150, stream=itrop.RngStream(64).child(0))
    assert report.parameters["violation_count"] >= 100
    assert len(report.evidence) == 100


def test_monotone_rejects_points_of_another_dimension_before_the_first_draw():
    draw, calls = recording_draws()
    factory = block_fake(2, lambda drawn, z: z, draw=draw)
    stream, pairs = itrop.RngStream(0), [(np.zeros(2), np.ones(2))]
    for x0 in (np.zeros(3), np.zeros(1), np.zeros((1, 2))):
        with pytest.raises(ConfigurationError, match="x0"):
            itrop.check_monotone(factory, x0, pairs, trials=5, stream=stream)
    for bad in ([(np.zeros(3), np.ones(3))], np.zeros((4, 2)), np.zeros((1, 3, 2)),
                np.zeros((2, 2, 1))):
        with pytest.raises(ConfigurationError, match="pairs"):
            itrop.check_monotone(factory, np.zeros(2), bad, trials=5, stream=stream)
    assert calls == []


def test_monotone_validation():
    factory = make_halving_factory(2)
    with pytest.raises(ConfigurationError, match="ordered"):
        itrop.check_monotone(factory, np.zeros(2),
                             [(np.ones(2), np.zeros(2))], trials=2,
                             stream=itrop.RngStream(0))
    with pytest.raises(ConfigurationError, match="trials"):
        itrop.check_monotone(factory, np.zeros(2), [], trials=0,
                             stream=itrop.RngStream(0))


# ---------------------------------------------------------------- contraction check

def test_contraction_log_halving_factory_exact_mean():
    box = unit_box(3)
    report = itrop.check_contraction_log(halving_op(3), make_halving_factory(3), pair_count=8,
                                         trials=10, box=box,
                                         stream=itrop.RngStream(70).child(0))
    assert report.verdict == "consistent"
    row = report.evidence[0]
    assert row["mean_alpha_hat"] == 0.5
    assert row["min_alpha_hat"] == 0.5 and row["max_alpha_hat"] == 0.5
    assert row["mean_log_alpha_hat"] == pytest.approx(math.log(0.5), rel=1e-12)
    assert report.parameters["estimate_is_lower_bound"] is True


def test_contraction_log_empirical_bellman_bounded_by_discount(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 4)
    report = itrop.check_contraction_log(itrop.bellman_operator(mdp20), factory, pair_count=8,
                                         trials=40, box=unit_box(20),
                                         stream=itrop.RngStream(71).child(0))
    assert report.verdict == "consistent"
    assert report.evidence[0]["max_alpha_hat"] <= mdp20.discount * (1 + 1e-12)


def test_contraction_log_isometry_is_not_consistent():
    # under a certificate of 1 and under one of 0.5, so that the ratio rule
    # alone must keep ratios of 1 from reading consistent
    for modulus in (1.0, 0.5):
        op = dataclasses.replace(scale_op(3, 1.0), claimed_modulus=modulus)
        report = itrop.check_contraction_log(op, make_shift_factory(3, scale=1.0),
                                             pair_count=4, trials=10, box=unit_box(3),
                                             stream=itrop.RngStream(72).child(0))
        assert report.verdict == "inconclusive"
        assert report.evidence[0]["mean_alpha_hat"] == pytest.approx(1.0, rel=1e-9)


def test_contraction_log_expanding_factory_violated():
    report = itrop.check_contraction_log(scale_op(3, 2.0), constant_scale_factory(3, 2.0),
                                         pair_count=4, trials=10, box=unit_box(3),
                                         stream=itrop.RngStream(73).child(0))
    assert report.verdict == "violated"


def test_contraction_log_more_pairs_raise_the_estimate(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 2)
    stream = itrop.RngStream(74).child(0)
    op = itrop.bellman_operator(mdp20)
    small = itrop.check_contraction_log(op, factory, pair_count=4, trials=30,
                                        box=unit_box(20), stream=stream)
    large = itrop.check_contraction_log(op, factory, pair_count=16, trials=30,
                                        box=unit_box(20), stream=stream)
    # the first 4 pairs of each trial coincide, so the 16-pair max dominates
    assert large.evidence[0]["mean_alpha_hat"] >= small.evidence[0]["mean_alpha_hat"]
    assert large.evidence[0]["max_alpha_hat"] >= small.evidence[0]["max_alpha_hat"]


def test_contraction_log_of_a_sampled_bellman_sweep_reads_its_discount(mdp20):
    # every sampled sweep is a discount-contraction in sup norm, the factory's
    # norm; measured in l2 the same trials read a max ratio of 1.019
    report = itrop.check_contraction_log(itrop.bellman_operator(mdp20),
                                         itrop.empirical_bellman_factory(mdp20, 1), 16, 200,
                                         itrop.Box([0.0] * 20, [10.0] * 20), itrop.RngStream(5))
    assert report.evidence[0]["max_alpha_hat"] <= mdp20.discount * (1 + 1e-12)
    assert report.parameters["norm"] == "sup"


def test_lipschitz_checks_reject_a_box_of_another_dimension_before_the_first_draw():
    draw, calls = recording_draws()
    factory = block_fake(2, lambda drawn, z: z / 2.0, draw=draw)
    for dim in (1, 3):
        with pytest.raises(ConfigurationError, match="box"):
            itrop.check_contraction_log(halving_op(2), factory, 4, 5, unit_box(dim),
                                        itrop.RngStream(0))
        with pytest.raises(ConfigurationError, match="box"):
            itrop.check_composite_lipschitz(factory, 2, 4, 5, unit_box(dim), itrop.RngStream(0))
    assert calls == []


def test_contraction_log_validation():
    factory = make_halving_factory(2)
    with pytest.raises(ConfigurationError, match="pair_count"):
        itrop.check_contraction_log(halving_op(2), factory, 1, 5, unit_box(2),
                                    itrop.RngStream(0))
    with pytest.raises(ConfigurationError, match="trials"):
        itrop.check_contraction_log(halving_op(2), factory, 4, 1, unit_box(2),
                                    itrop.RngStream(0))
    degenerate = itrop.Box(lower=[1.0], upper=[1.0])
    with pytest.raises(ConfigurationError, match="degenerate"):
        itrop.check_contraction_log(halving_op(1), make_halving_factory(1), 4, 5, degenerate,
                                    itrop.RngStream(0))


@pytest.mark.parametrize("modulus, verdict", [(0.5, "consistent"), (None, "inconclusive"),
                                              (1.0, "inconclusive")])
def test_contraction_log_reads_consistent_only_under_a_certificate_below_one(modulus, verdict):
    # every ratio reads 0.5, so the ratios alone would read consistent
    op = dataclasses.replace(halving_op(3), claimed_modulus=modulus)
    report = itrop.check_contraction_log(op, make_halving_factory(3), 8, 10, unit_box(3),
                                         itrop.RngStream(70).child(0))
    assert report.evidence[0]["max_alpha_hat"] == 0.5
    assert report.verdict == verdict
    assert report.parameters["analytic_modulus"] == modulus


def test_contraction_log_needs_three_standard_errors_under_a_certificate_below_one():
    # runs scale by 0.9 and 1.1 in turn: the mean log ratio, log(0.99) / 2, is
    # below 0 by far less than three standard errors, and so is not evidence
    factory = block_fake(3, lambda a, z: a[:, None, None] * z,
                         draw=lambda stream, runs: np.where(np.asarray(runs) % 2, 1.1, 0.9))
    report = itrop.check_contraction_log(halving_op(3), factory, 4, 10, unit_box(3),
                                         itrop.RngStream(76).child(0))
    row = report.evidence[0]
    assert row["mean_log_alpha_hat"] == pytest.approx(math.log(0.99) / 2, rel=1e-9)
    assert row["mean_log_alpha_hat"] + 3 * row["se_log_alpha_hat"] > 0
    assert report.verdict == "inconclusive"


@pytest.mark.parametrize("modulus", [0.5, None, 1.0])
def test_contraction_log_expanding_factory_is_violated_whatever_the_modulus(modulus):
    # a certificate, even a false one, cannot overrule ratios that show expansion
    op = dataclasses.replace(scale_op(3, 2.0), claimed_modulus=modulus)
    report = itrop.check_contraction_log(op, constant_scale_factory(3, 2.0), 4, 10,
                                         unit_box(3), itrop.RngStream(73).child(0))
    assert report.verdict == "violated"
    assert report.parameters["analytic_modulus"] == modulus


def test_contraction_log_refuses_a_factory_outside_the_operator_s_space(mdp20):
    draw, calls = recording_draws()
    l2_op = halving_op(20)
    with pytest.raises(ConfigurationError, match="norm 'l2'"):
        itrop.check_contraction_log(l2_op, block_fake(20, lambda drawn, z: z / 2.0, draw=draw,
                                                      norm="sup"),
                                    4, 5, unit_box(20), itrop.RngStream(0))
    with pytest.raises(ConfigurationError, match="norm 'l2'"):  # a real family
        itrop.check_contraction_log(l2_op, itrop.empirical_bellman_factory(mdp20, 4), 4, 5,
                                    unit_box(20), itrop.RngStream(0))
    with pytest.raises(ConfigurationError, match="dimension 20"):
        itrop.check_contraction_log(l2_op, block_fake(19, lambda drawn, z: z / 2.0, draw=draw),
                                    4, 5, unit_box(19), itrop.RngStream(0))
    assert calls == []


# ---------------------------------------------------------------- composite check

def test_composite_depth_one_matches_contraction_log(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 3)
    stream = itrop.RngStream(75).child(0)
    single = itrop.check_contraction_log(itrop.bellman_operator(mdp20), factory, pair_count=6,
                                         trials=20, box=unit_box(20), stream=stream)
    composite = itrop.check_composite_lipschitz(factory, depth=1, pair_count=6,
                                                trials=20, box=unit_box(20),
                                                stream=stream)
    assert composite.parameters["mean_alpha_hat"] == single.evidence[0]["mean_alpha_hat"]
    assert composite.parameters["max_alpha_hat"] == single.evidence[0]["max_alpha_hat"]


def test_composite_random_scale_products_stay_below_product_bound():
    factory = random_scale_factory(2, 0.3, 0.7)
    report = itrop.check_composite_lipschitz(factory, depth=2, pair_count=4,
                                             trials=30, box=unit_box(2),
                                             stream=itrop.RngStream(76).child(0))
    assert report.verdict == "consistent"
    assert report.parameters["max_alpha_hat"] <= 0.49 * (1 + 1e-12)
    assert report.parameters["mean_alpha_hat"] >= 0.09


def test_composite_empirical_bellman_decays_geometrically(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 3)
    report = itrop.check_composite_lipschitz(factory, depth=3, pair_count=4,
                                             trials=15, box=unit_box(20),
                                             stream=itrop.RngStream(77).child(0))
    assert report.verdict == "consistent"
    assert report.parameters["max_alpha_hat"] <= mdp20.discount ** 3 * (1 + 1e-12)


def test_composite_eps_ladder_tail_probabilities():
    report = itrop.check_composite_lipschitz(make_halving_factory(2), depth=2,
                                             pair_count=4, trials=10,
                                             box=unit_box(2),
                                             stream=itrop.RngStream(78).child(0),
                                             eps_ladder=(0.9, 0.5))
    # every composition has coefficient exactly 0.25
    by_eps = {row["eps"]: row["prob_above"] for row in report.evidence}
    assert by_eps[0.9] == 1.0  # 0.25 > 1 - 0.9
    assert by_eps[0.5] == 0.0  # 0.25 <= 1 - 0.5


def test_composite_expanding_factory_violated():
    report = itrop.check_composite_lipschitz(constant_scale_factory(2, 1.5),
                                             depth=1, pair_count=4, trials=10,
                                             box=unit_box(2),
                                             stream=itrop.RngStream(79).child(0))
    assert report.verdict == "violated"


def test_composite_validation():
    factory = make_halving_factory(2)
    with pytest.raises(ConfigurationError, match="depth"):
        itrop.check_composite_lipschitz(factory, 0, 4, 5, unit_box(2),
                                        itrop.RngStream(0))


# ---------------------------------------------------------------- trials as runs

CHECKED_FACTORIES = ["evi-alias", "evi-multinomial", "qvi-alias", "sgd-with", "sgd-without"]


def checked_factory(name, mdp20, logistic_problem):
    if name == "evi-alias":
        assert itrop.uses_alias(20, 5)
        return itrop.empirical_bellman_factory(mdp20, 5)
    if name == "evi-multinomial":
        assert not itrop.uses_alias(20, 400)
        return itrop.empirical_bellman_factory(mdp20, 400)
    if name == "qvi-alias":
        return itrop.empirical_q_factory(mdp20, 5)
    sampling = "with_replacement" if name == "sgd-with" else "without_replacement"
    return itrop.sgd_factory(logistic_problem, 8, sampling)


def per_trial_values(factory, stream, trials=12):
    """Each checker's per-trial statistic: A2 flags, A3 gaps, A5 and A4 max
    ratios, with the factory measured in sup norm for A2 and A4 and in l2 for A5."""
    d = factory.dimension
    rng = np.random.default_rng(95)
    grid = rng.uniform(-1.0, 1.0, (3, d))
    lo = rng.uniform(-1.0, 1.0, (4, d))
    pairs = np.stack([lo, lo + rng.uniform(0.0, 0.5, (4, d))], axis=1)
    # A2 measures from one realization's images, at a median distance, so flags vary
    exact = factory.realize(stream.child(9))(grid)
    eps = np.median(itrop.row_norm(factory.realize(stream.child(10))(grid) - exact, "sup"))
    an = itrop.analysis
    sup, l2 = (dataclasses.replace(factory, norm=norm) for norm in ("sup", "l2"))
    return {
        "A2": an._exceedances(sup, grid, exact, eps, trials, stream.child(0)),
        "A3": an._monotone_gaps(factory, np.zeros(d), pairs, trials, stream.child(1)),
        "A5": an._lipschitz_samples(l2, 1, 4, trials, unit_box(d), stream.child(2)),
        "A4": an._lipschitz_samples(sup, 2, 4, trials, unit_box(d), stream.child(3)),
    }, grid, pairs, exact, eps


@pytest.mark.parametrize("name", CHECKED_FACTORIES)
def test_checker_trials_do_not_depend_on_the_chunking(mdp20, logistic_problem, monkeypatch,
                                                      name):
    stream = itrop.RngStream(96)
    whole, *_ = per_trial_values(checked_factory(name, mdp20, logistic_problem), stream)
    monkeypatch.setattr(itrop.core, "CHUNK_BYTES", 1)  # one trial per chunk, one run per draw
    alone, *_ = per_trial_values(checked_factory(name, mdp20, logistic_problem), stream)
    for key in whole:
        assert whole[key].shape[0] == 12
        assert np.array_equal(whole[key], alone[key]), key


@pytest.mark.parametrize("name", CHECKED_FACTORIES)
def test_checker_trial_t_is_run_t_realized_alone(mdp20, logistic_problem, name):
    factory = checked_factory(name, mdp20, logistic_problem)
    d = factory.dimension
    stream = itrop.RngStream(97)
    values, grid, pairs, exact, eps = per_trial_values(factory, stream)
    points = np.concatenate([np.zeros((1, d)), pairs.reshape(-1, d)])
    box = unit_box(d)
    for t in range(12):
        images = factory.realize(stream.child(0), t)(grid)
        assert np.array_equal(values["A2"][t], itrop.row_norm(images - exact, "sup") > eps)
        images = factory.realize(stream.child(1), t)(points)
        assert np.array_equal(values["A3"][t], np.concatenate(
            [[np.max(-images[0])], np.max(images[1::2] - images[2::2], axis=1)]))
        for key, child, depth, norm in (("A5", 2, 1, "l2"), ("A4", 3, 2, "sup")):
            s = stream.child(child)
            before = itrop.analysis._draw_pairs(box, next(s.child(depth).generators([t])), 4)
            after = before
            for j in range(depth):
                after = factory.realize(s.child(j), t)(after)
            ratios = (itrop.row_norm(after[:, 0] - after[:, 1], norm)
                      / itrop.row_norm(before[:, 0] - before[:, 1], norm))
            assert values[key][t] == np.max(ratios)


def check_reports(mdp20, traced, out_dir, sizes=(5, 400), trials=100):
    """The four checkers on mdp20 at the given sample sizes, each factory's
    draws recorded by thread; (the bytes of the reports as written to files
    in out_dir, thread names per size)."""
    names = {}
    factories = []
    for n in sizes:
        factory, names[n] = traced(itrop.empirical_bellman_factory(mdp20, n))
        factories.append(factory)
    op, stream, box = itrop.bellman_operator(mdp20), itrop.RngStream(98), unit_box(20)
    grid = box.sample(np.random.default_rng(99), 3)
    pairs = np.sort(box.sample(np.random.default_rng(100), (4, 2)), axis=1)
    reports = [itrop.check_sup_probability(op, factories, grid, 0.25, trials, stream.child(0))]
    for i, factory in enumerate(factories):
        # the composite check measures the same realizations in l2
        l2 = dataclasses.replace(factory, norm="l2")
        reports += [
            itrop.check_monotone(factory, np.zeros(20), pairs, trials, stream.child(1, i)),
            itrop.check_contraction_log(op, factory, 4, trials, box, stream.child(2, i)),
            itrop.check_composite_lipschitz(l2, 2, 4, trials, box, stream.child(3, i)),
        ]
    out_dir.mkdir()
    for i, report in enumerate(reports):
        itrop.core.write_json(out_dir / f"{i}.json", dataclasses.asdict(report))
    return [(out_dir / f"{i}.json").read_bytes() for i in range(len(reports))], names


@pytest.mark.parametrize("chunk_bytes", [1 << 20, 1])
def test_checker_reports_are_the_same_bytes_on_one_and_two_cpus(mdp20, monkeypatch, tmp_path,
                                                                 chunk_bytes):
    monkeypatch.setattr(itrop.core, "CHUNK_BYTES", chunk_bytes)
    reports = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        reports[cpus], names = check_reports(mdp20, draw_threads, tmp_path / str(cpus))
        # the multinomial rung draws ahead on two CPUs, the alias rung never
        assert {name.startswith("itrop-draw") for name in names[400]} == {cpus > 1}
        assert set(names[5]) == {threading.current_thread().name}
    assert reports[1] == reports[2]
    assert not [t for t in threading.enumerate() if t.name.startswith("itrop-draw")]


def test_sgd_checks_draw_on_the_calling_thread(logistic_problem, monkeypatch):
    on_cpus(monkeypatch, 2)
    for sampling in ("with_replacement", "without_replacement"):
        factory, names = draw_threads(itrop.sgd_factory(logistic_problem, 8, sampling))
        box = unit_box(factory.dimension)
        itrop.check_contraction_log(itrop.exact_gd_operator(logistic_problem), factory, 4,
                                    100, box, itrop.RngStream(101))
        itrop.check_composite_lipschitz(factory, 2, 4, 100, box, itrop.RngStream(102))
        assert names and set(names) == {threading.current_thread().name}


# ---------------------------------------------------------------- LLN audit

def test_lln_audit_halving_orbit_closed_form():
    f = lambda z: np.max(np.abs(z), axis=1)
    horizon = 8
    report = itrop.lln_audit(make_halving_factory(1), [1.0], f, horizon=horizon,
                             runs=2, stream=itrop.RngStream(90).child(0))
    expected = sum(0.5 ** k for k in range(horizon)) / horizon
    assert np.allclose(report.time_averages, expected, rtol=1e-12, atol=0)
    assert report.tail_mean == pytest.approx(0.5 ** horizon, rel=1e-12)
    assert report.tail_se == 0.0
    assert report.spread == 0.0
    assert report.max_gap_to_tail == pytest.approx(expected - 0.5 ** horizon, rel=1e-12)


def test_lln_audit_constant_orbit_is_exact(tmp_path):
    factory = block_fake(2, lambda runs, z: z)
    f = lambda z: z[:, 0] + z[:, 1]
    report = itrop.lln_audit(factory, [1.0, 2.0], f, horizon=40, runs=3,
                             stream=itrop.RngStream(91).child(0))
    assert np.array_equal(report.time_averages, np.full(3, 3.0))
    assert report.tail_mean == 3.0 and report.tail_se == 0.0
    assert np.array_equal(report.time_average_ses, np.zeros(3))
    itrop.core.write_json(tmp_path / "lln.json", dataclasses.asdict(report))  # writable as-is
    assert json.loads((tmp_path / "lln.json").read_text())["time_averages"] == [3.0] * 3


def test_lln_audit_validation():
    factory = make_halving_factory(1)
    f = lambda p: 0.0
    with pytest.raises(ConfigurationError, match="horizon"):
        itrop.lln_audit(factory, [1.0], f, horizon=1, runs=2, stream=itrop.RngStream(0))
    with pytest.raises(ConfigurationError, match="runs"):
        itrop.lln_audit(factory, [1.0], f, horizon=4, runs=1, stream=itrop.RngStream(0))


def test_lln_audit_reports_the_first_divergence_step():
    # run 4 diverges first, at step 3, although run 1 is the lower-numbered one
    with pytest.raises(itrop.DivergenceError) as err:
        itrop.lln_audit(blow_up_factory({1: 9, 4: 3}), [1.0, 1.0], lambda z: z[:, 0],
                        horizon=12, runs=6, stream=itrop.RngStream(95).child(0))
    assert err.value.step == 3


def test_summaries_apply_f_once_to_a_block():
    blocks = []

    def f(z):
        blocks.append(z.shape)
        return z[:, 0]

    itrop.lln_audit(make_shift_factory(2), [0.0, 0.0], f, horizon=6, runs=3,
                    stream=itrop.RngStream(92).child(0))
    assert blocks == [(3, 2)] * 7  # one call per step 0..horizon


@pytest.mark.parametrize("kind", ["evi-alias", "sgd"])
def test_lln_audit_does_not_depend_on_the_block_size(mdp20, logistic_problem, monkeypatch,
                                                      kind):
    if kind == "sgd":
        factory = itrop.sgd_factory(logistic_problem, 8)
    else:
        assert itrop.uses_alias(20, 5)
        factory = itrop.empirical_bellman_factory(mdp20, 5)
    runs, horizon, sizes = 4, 30, []
    engine = itrop.analysis.iterate_ensemble

    def counted(factory, z0, num_steps, stream, runs, visit):
        def sized(first, alive, block):  # records the size of each block handed over
            sizes.append(len(block))
            visit(first, alive, block)

        return engine(factory, z0, num_steps, stream, runs, sized)

    monkeypatch.setattr(itrop.analysis, "iterate_ensemble", counted)
    reports = []
    for steps in (None, 1, 4):  # None: the default, one block for the whole orbit
        if steps:
            block_bytes = 8 * steps * runs * factory.dimension * 8
            monkeypatch.setattr(itrop.core, "CHUNK_BYTES", block_bytes)
        sizes.clear()
        reports.append(itrop.lln_audit(factory, np.linspace(0.0, 1.0, factory.dimension),
                                       lambda z: itrop.row_norm(z, factory.norm), horizon,
                                       runs, itrop.RngStream(96).child(3)))
        assert max(sizes) == (steps or horizon + 1) and sum(sizes) == horizon + 1
    for field in dataclasses.fields(itrop.LlnReport):
        values = [np.asarray(getattr(report, field.name)).tobytes() for report in reports]
        assert values[1] == values[0] and values[2] == values[0], field.name


def test_summaries_reject_f_without_one_value_per_row():
    # a per-point summary such as float(max |p|) would reduce the whole block
    f = lambda p: float(np.max(np.abs(p)))
    with pytest.raises(ConfigurationError, match="m values"):
        itrop.lln_audit(make_halving_factory(1), [1.0], f, horizon=4, runs=2,
                        stream=itrop.RngStream(0))


def test_batch_means_se_of_a_block_matches_each_row():
    def one_row(values, num_batches=20):
        b = min(num_batches, values.size)
        width = values.size // b
        means = values[:b * width].reshape(b, width).mean(axis=1)
        return float(np.std(means, ddof=1) / np.sqrt(b))

    rng = np.random.default_rng(94)
    for length in (2, 3, 19, 20, 41, 1000, 1003):
        block = rng.standard_exponential((25, length + 1)) * rng.uniform(1e-3, 1e3)
        got = itrop.analysis._batch_means_se(block[:, :length])
        assert got.tolist() == [one_row(row[:length]) for row in block]
