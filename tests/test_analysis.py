import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itrop
from conftest import make_halving_factory, make_shift_factory
from itrop.core import ConfigurationError

point_lists = st.lists(st.floats(-10, 10), min_size=3, max_size=3)


def constant_scale_factory(dim, scale):
    return itrop.RandomOperatorFactory(
        sample_size=1,
        realize=lambda stream: (lambda x: scale * np.asarray(x)),
        dimension=dim)


def random_scale_factory(dim, lo, hi, sample_size=1):
    def realize(stream):
        a = stream.generator().uniform(lo, hi)
        return lambda x: a * np.asarray(x)

    return itrop.RandomOperatorFactory(sample_size=sample_size, realize=realize,
                                       dimension=dim)


def unit_box(dim):
    return itrop.Box(lower=-np.ones(dim), upper=np.ones(dim))


# ---------------------------------------------------------------- Box

def test_box_contains_hand_values():
    box = itrop.Box(lower=[0.0, 0.0], upper=[1.0, 2.0])
    assert box.contains([0.5, 1.0])
    assert box.contains([0.0, 2.0])  # boundary counts
    assert not box.contains([1.5, 1.0])
    flags = box.contains([[0.5, 1.0], [-0.1, 0.0]])
    assert flags.tolist() == [True, False]


def test_box_sample_respects_bounds_and_seed():
    box = itrop.Box(lower=[-1.0, 2.0], upper=[1.0, 3.0])
    pts = box.sample(np.random.default_rng(0), 500)
    assert pts.shape == (500, 2)
    assert np.all(box.contains(pts))
    again = box.sample(np.random.default_rng(0), 500)
    assert np.array_equal(pts, again)


def test_box_around_pads_by_a_fifth_of_the_range():
    pts = np.array([[0.0, 10.0], [1.0, 10.0]])
    box = itrop.Box.around(pts, inflation=0.2)
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

def halving_op(dim):
    return itrop.ExactOperatorHandle(apply=lambda x: x / 2.0, dimension=dim)


def test_distance_curve_zero_for_identical_routes():
    dim = 3
    exact = itrop.iterate_exact(halving_op(dim), np.ones(dim), 6)
    for norm in ("l2", "sup"):
        dist, gap, dropped = itrop.orbit_curves(make_halving_factory(dim), exact,
                                                np.zeros(dim), itrop.RngStream(1).child(0),
                                                4, norm)
        assert dist.shape == gap.shape == (7, 4) and dropped == {}
        assert np.array_equal(dist, np.zeros((7, 4)))
        # every run averages the same orbit
        assert np.all(gap == gap[:, :1]) and np.all(gap > 0.0)


def test_distance_curve_hand_values_and_norm_override():
    # the random orbit rests at 0 while a hand-made "exact" orbit jumps to (3, 4)
    exact = np.array([[0.0, 0.0], [3.0, 4.0]])
    target = np.array([3.0, 4.0])
    identity, stream = constant_scale_factory(2, 1.0), itrop.RngStream(0)
    dist, gap, _ = itrop.orbit_curves(identity, exact, target, stream, 2, "l2")
    assert dist.tolist() == [[0.0, 0.0], [5.0, 5.0]]
    assert gap.tolist() == [[5.0, 5.0], [5.0, 5.0]]
    dist, gap, _ = itrop.orbit_curves(identity, exact, target, stream, 2, "sup")
    assert dist.tolist() == [[0.0, 0.0], [4.0, 4.0]]
    assert gap.tolist() == [[4.0, 4.0], [4.0, 4.0]]
    with pytest.raises(ConfigurationError):
        itrop.orbit_curves(identity, exact, target, stream, 2, "manhattan")


def test_orbit_curves_rejects_bad_inputs_before_the_first_step():
    calls = []

    def realize(stream):
        calls.append(stream)
        return lambda x: np.asarray(x)

    factory = itrop.RandomOperatorFactory(sample_size=1, realize=realize, dimension=2)
    exact = np.zeros((4, 2))
    stream = itrop.RngStream(0)
    with pytest.raises(ConfigurationError, match="target"):
        itrop.orbit_curves(factory, exact, np.zeros(3), stream, 2)
    with pytest.raises(ConfigurationError, match="norm"):
        itrop.orbit_curves(factory, exact, np.zeros(2), stream, 2, norm="manhattan")
    with pytest.raises(ConfigurationError, match="nonempty"):
        itrop.orbit_curves(factory, np.empty((0, 2)), np.zeros(2), stream, 2)
    with pytest.raises(ConfigurationError, match="dimension"):  # orbit of the wrong operator
        itrop.orbit_curves(factory, np.zeros((4, 3)), np.zeros(3), stream, 2)
    assert calls == []


@pytest.mark.parametrize("family", ["evi", "sgd"])
def test_orbit_curves_columns_are_the_runs_alone(family, mdp20, logistic_problem):
    # column r: the distance of run r's orbit, computed alone, from the exact one
    # (bitwise), and the distance of its prefix means from the target
    if family == "evi":
        op, norm = itrop.bellman_operator(mdp20), "sup"
        factory = itrop.empirical_bellman_factory(mdp20, 5)
        target = itrop.solve_exact(mdp20, "value", tol=1e-10)
    else:
        op, norm = itrop.exact_gd_operator(logistic_problem), "l2"
        factory = itrop.sgd_factory(logistic_problem, 8)
        target = itrop.solve_reference_minimizer(logistic_problem)
    horizon, runs = 30, 4
    exact = itrop.iterate_exact(op, np.zeros(op.dimension), horizon)
    stream = itrop.RngStream(17).child(5)
    dist, gap, dropped = itrop.orbit_curves(factory, exact, target, stream, runs, norm)
    assert dist.shape == gap.shape == (horizon + 1, runs) and dropped == {}
    for r in range(runs):
        traj = itrop.iterate_random(factory, exact[0], horizon, stream.for_run(r))
        assert np.array_equal(dist[:, r], itrop.row_norm(traj - exact, norm))
        prefix_means = np.array([traj[:k + 1].mean(axis=0) for k in range(horizon + 1)])
        assert np.allclose(gap[:, r], itrop.row_norm(prefix_means - target, norm),
                           rtol=1e-12, atol=1e-14)


def test_distance_curve_obeys_stepwise_triangle_bound(mdp20):
    # d_k <= alpha * d_{k-1} + ||exact_step(y_{k-1}) - realization_k(y_{k-1})||
    op = itrop.bellman_operator(mdp20)
    factory = itrop.empirical_bellman_factory(mdp20, 5)
    stream = itrop.RngStream(19).child(2)
    exact = itrop.iterate_exact(op, np.zeros(20), 40)
    d, _, _ = itrop.orbit_curves(factory, exact, np.zeros(20), stream, 3, "sup")
    for r in range(3):
        for k in range(1, 41):
            f_k = factory.realize(stream.child(k - 1).for_run(r))
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
    summary = itrop.ensemble(curves, metric_name="orbit_distance")
    path = tmp_path / "summary.csv"
    summary.to_csv(path)
    text = path.read_text()
    assert text.startswith("k,mean,variance,std_error,min,max,count\n")
    assert text.endswith("\n") and "\r" not in text
    back = itrop.EnsembleSummary.from_csv(path, metric_name="orbit_distance")
    for name in ("mean", "variance", "std_error", "min", "max"):
        assert np.array_equal(getattr(back, name), getattr(summary, name)), name
    assert back.count == summary.count


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


# ---------------------------------------------------------------- occupation / deviation

def test_occupation_measure_alternating_orbit():
    box = itrop.Box(lower=[0.0], upper=[1.0])
    traj = np.array([[0.5], [2.0], [0.5], [2.0], [0.5], [2.0]])
    got = itrop.occupation_measure(traj, box)
    inside = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    oracle = [sum(inside[:k]) / k for k in range(1, 7)]
    assert np.allclose(got, oracle, rtol=0, atol=1e-15)
    assert np.all((got >= 0.0) & (got <= 1.0))


def test_occupation_measure_validation():
    box = itrop.Box(lower=[0.0], upper=[1.0])
    with pytest.raises(ConfigurationError):
        itrop.occupation_measure(np.zeros((0, 1)), box)
    with pytest.raises(ConfigurationError):
        itrop.occupation_measure(np.zeros(4), box)


def test_deviation_probability_hand_value():
    frac, se = itrop.deviation_probability([[0.0], [3.0]], [0.0], eps=2.0)
    assert frac == 0.5
    assert se == pytest.approx(math.sqrt(0.25 / 2), rel=1e-12)


def test_tail_convention_is_strict_in_both_estimators():
    # a point exactly at eps is not a deviation, for either estimator
    frac, _ = itrop.deviation_probability([[0.0], [2.0], [2.5]], [0.0], eps=2.0)
    assert frac == pytest.approx(1.0 / 3.0, rel=1e-15)
    op = itrop.ExactOperatorHandle(apply=lambda x: np.asarray(x), dimension=1)
    at_eps = itrop.RandomOperatorFactory(
        sample_size=1, realize=lambda s: (lambda x: np.asarray(x) + 2.0), dimension=1)
    report = itrop.check_sup_probability(op, [at_eps], [[0.0]], eps=2.0, trials=100,
                                         stream=itrop.RngStream(53))
    assert report.evidence[0]["max_probability"] == 0.0
    beyond = itrop.RandomOperatorFactory(
        sample_size=1, realize=lambda s: (lambda x: np.asarray(x) + 2.5), dimension=1)
    report = itrop.check_sup_probability(op, [beyond], [[0.0]], eps=2.0, trials=100,
                                         stream=itrop.RngStream(53))
    assert report.evidence[0]["max_probability"] == 1.0


def test_deviation_probability_monotone_in_eps():
    pts = np.random.default_rng(8).normal(size=(400, 3))
    fracs = [itrop.deviation_probability(pts, np.zeros(3), eps=e)[0]
             for e in (0.5, 1.0, 2.0, 4.0)]
    assert all(b <= a for a, b in zip(fracs, fracs[1:]))


def test_deviation_probability_validation():
    with pytest.raises(ConfigurationError):
        itrop.deviation_probability([[0.0]], [0.0], eps=0.0)
    with pytest.raises(ConfigurationError):
        itrop.deviation_probability(np.zeros((0, 1)), [0.0], eps=1.0)
    with pytest.raises(ConfigurationError):
        itrop.deviation_probability([[0.0]], [0.0], eps=1.0, norm="bad")


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
    report.save(path)
    doc = json.loads(path.read_text())
    assert doc == report.to_dict()
    assert doc["parameters"]["sizes"] == [1, 2]
    assert isinstance(doc["evidence"][0]["gap"], float)


# ---------------------------------------------------------------- sup-probability check

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
                                         stream=itrop.RngStream(51).child(0),
                                         norm="sup")
    probs = [row["max_probability"] for row in report.evidence]
    assert probs[0] > probs[-1]
    assert report.verdict == "consistent"
    assert report.parameters["sample_sizes"] == [1, 16, 256]


def test_sup_probability_diverging_ladder_is_violated():
    dim = 2
    op = itrop.ExactOperatorHandle(apply=lambda x: np.asarray(x), dimension=dim)

    def noisy(sample_size, magnitude):
        def realize(stream):
            shift = magnitude * stream.generator().normal(size=dim)
            return lambda x: np.asarray(x) + shift

        return itrop.RandomOperatorFactory(sample_size=sample_size,
                                           realize=realize, dimension=dim)

    report = itrop.check_sup_probability(op, [noisy(1, 0.0), noisy(10, 5.0)],
                                         grid=[np.zeros(dim)], eps=0.5, trials=200,
                                         stream=itrop.RngStream(52).child(0))
    assert report.verdict == "violated"
    probs = [row["max_probability"] for row in report.evidence]
    assert probs[1] > probs[0]


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
    factory = itrop.RandomOperatorFactory(
        sample_size=1, realize=lambda s: (lambda x: np.asarray(x)), dimension=dim)
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
    report = itrop.check_contraction_log(make_halving_factory(3), pair_count=8,
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
    report = itrop.check_contraction_log(factory, pair_count=8, trials=40,
                                         box=unit_box(20),
                                         stream=itrop.RngStream(71).child(0),
                                         norm="sup")
    assert report.verdict == "consistent"
    assert report.evidence[0]["max_alpha_hat"] <= mdp20.discount * (1 + 1e-12)


def test_contraction_log_isometry_is_not_consistent():
    report = itrop.check_contraction_log(make_shift_factory(3, scale=1.0),
                                         pair_count=4, trials=10, box=unit_box(3),
                                         stream=itrop.RngStream(72).child(0))
    assert report.verdict == "inconclusive"
    assert report.evidence[0]["mean_alpha_hat"] == pytest.approx(1.0, rel=1e-9)


def test_contraction_log_expanding_factory_violated():
    report = itrop.check_contraction_log(constant_scale_factory(3, 2.0),
                                         pair_count=4, trials=10, box=unit_box(3),
                                         stream=itrop.RngStream(73).child(0))
    assert report.verdict == "violated"


def test_contraction_log_more_pairs_raise_the_estimate(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 2)
    stream = itrop.RngStream(74).child(0)
    small = itrop.check_contraction_log(factory, pair_count=4, trials=30,
                                        box=unit_box(20), stream=stream, norm="sup")
    large = itrop.check_contraction_log(factory, pair_count=16, trials=30,
                                        box=unit_box(20), stream=stream, norm="sup")
    # the first 4 pairs of each trial coincide, so the 16-pair max dominates
    assert large.evidence[0]["mean_alpha_hat"] >= small.evidence[0]["mean_alpha_hat"]
    assert large.evidence[0]["max_alpha_hat"] >= small.evidence[0]["max_alpha_hat"]


def test_contraction_log_validation():
    factory = make_halving_factory(2)
    with pytest.raises(ConfigurationError, match="pair_count"):
        itrop.check_contraction_log(factory, 1, 5, unit_box(2), itrop.RngStream(0))
    with pytest.raises(ConfigurationError, match="trials"):
        itrop.check_contraction_log(factory, 4, 1, unit_box(2), itrop.RngStream(0))
    degenerate = itrop.Box(lower=[1.0], upper=[1.0])
    with pytest.raises(ConfigurationError, match="degenerate"):
        itrop.check_contraction_log(make_halving_factory(1), 4, 5, degenerate,
                                    itrop.RngStream(0))


# ---------------------------------------------------------------- composite check

def test_composite_depth_one_matches_contraction_log(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 3)
    stream = itrop.RngStream(75).child(0)
    single = itrop.check_contraction_log(factory, pair_count=6, trials=20,
                                         box=unit_box(20), stream=stream, norm="sup")
    composite = itrop.check_composite_lipschitz(factory, depth=1, pair_count=6,
                                                trials=20, box=unit_box(20),
                                                stream=stream, norm="sup")
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
                                             stream=itrop.RngStream(77).child(0),
                                             norm="sup")
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


# ---------------------------------------------------------------- pushforward / averages

def test_mc_pushforward_mean_deterministic_factory():
    f = lambda z: np.max(np.abs(z), axis=1)
    mean, se = itrop.mc_pushforward_mean(f, make_halving_factory(1), [2.0],
                                         trials=5, stream=itrop.RngStream(80).child(0))
    assert mean == 1.0 and se == 0.0


def test_mc_pushforward_mean_tracks_expectation():
    factory = make_shift_factory(2, scale=0.5)
    f = lambda z: z[:, 0]
    mean, se = itrop.mc_pushforward_mean(f, factory, [1.0, 0.0], trials=400,
                                         stream=itrop.RngStream(81).child(0))
    assert abs(mean - 1.0) <= 4.0 * se
    with pytest.raises(ConfigurationError):
        itrop.mc_pushforward_mean(f, factory, [1.0, 0.0], trials=1,
                                  stream=itrop.RngStream(0))


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


def test_lln_audit_constant_orbit_is_exact():
    factory = itrop.RandomOperatorFactory(
        sample_size=1, realize=lambda s: (lambda x: np.asarray(x)), dimension=2)
    f = lambda z: z[:, 0] + z[:, 1]
    report = itrop.lln_audit(factory, [1.0, 2.0], f, horizon=40, runs=3,
                             stream=itrop.RngStream(91).child(0))
    assert np.array_equal(report.time_averages, np.full(3, 3.0))
    assert report.tail_mean == 3.0 and report.tail_se == 0.0
    assert np.array_equal(report.time_average_ses, np.zeros(3))
    json.dumps(report.to_dict())  # serializable as-is


def test_lln_audit_validation():
    factory = make_halving_factory(1)
    f = lambda p: 0.0
    with pytest.raises(ConfigurationError, match="horizon"):
        itrop.lln_audit(factory, [1.0], f, horizon=1, runs=2, stream=itrop.RngStream(0))
    with pytest.raises(ConfigurationError, match="runs"):
        itrop.lln_audit(factory, [1.0], f, horizon=4, runs=1, stream=itrop.RngStream(0))


def test_summaries_apply_f_once_to_a_block():
    blocks = []

    def f(z):
        blocks.append(z.shape)
        return z[:, 0]

    itrop.lln_audit(make_shift_factory(2), [0.0, 0.0], f, horizon=6, runs=3,
                    stream=itrop.RngStream(92).child(0))
    assert blocks == [(3, 2)] * 7  # one call per step 0..horizon
    blocks.clear()
    itrop.mc_pushforward_mean(f, make_shift_factory(2), [1.0, 0.0], trials=5,
                              stream=itrop.RngStream(93).child(0))
    assert blocks == [(5, 2)]


def test_summaries_reject_f_without_one_value_per_row():
    # a per-point summary such as float(max |p|) would reduce the whole block
    f = lambda p: float(np.max(np.abs(p)))
    with pytest.raises(ConfigurationError, match="m values"):
        itrop.lln_audit(make_halving_factory(1), [1.0], f, horizon=4, runs=2,
                        stream=itrop.RngStream(0))
    with pytest.raises(ConfigurationError, match="m values"):
        itrop.mc_pushforward_mean(f, make_halving_factory(1), [2.0], trials=3,
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
