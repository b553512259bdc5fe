import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import itrop
from itrop.core import ConfigurationError, NonConvergenceError
from itrop.experiments import ExperimentConfig, build_family, run_experiment
from itrop.regression import SAMPLING_MODES, _check_labels


def one_sample_problem(features, label, family, lam=0.0, beta=0.1):
    ds = itrop.RegressionDataset(features=np.array([features]),
                                 labels=np.array([float(label)]))
    return itrop.RegressionProblem(dataset=ds, family=family, lam=lam, beta=beta)


# ---------------------------------------------------------------- dataset validation

def test_dataset_requires_constant_first_column():
    with pytest.raises(ConfigurationError, match="constant 1"):
        itrop.RegressionDataset(features=np.array([[0.5, 1.0]]), labels=np.array([0.0]))


def test_dataset_rejects_shape_and_nonfinite():
    with pytest.raises(ConfigurationError):
        itrop.RegressionDataset(features=np.ones((3, 2)), labels=np.zeros(2))
    with pytest.raises(ConfigurationError):
        itrop.RegressionDataset(features=np.array([[1.0, np.nan]]), labels=np.zeros(1))


def test_label_codomain_checks_name_the_sample():
    with pytest.raises(ConfigurationError, match="sample 1"):
        _check_labels(np.array([0.0, 0.5]), "logistic")
    with pytest.raises(ConfigurationError, match="sample 0"):
        _check_labels(np.array([-1.0, 2.0]), "poisson")
    with pytest.raises(ConfigurationError, match="sample 0"):
        _check_labels(np.array([1.5]), "poisson")
    _check_labels(np.array([0.0, 2.0, 7.0]), "poisson")  # integer-valued floats pass


def test_problem_validation():
    ds = itrop.RegressionDataset(features=np.array([[1.0]]), labels=np.array([1.0]))
    with pytest.raises(ConfigurationError):
        itrop.RegressionProblem(dataset=ds, family="logistic", lam=-1.0, beta=0.1)
    with pytest.raises(ConfigurationError):
        itrop.RegressionProblem(dataset=ds, family="logistic", lam=0.0, beta=0.0)
    with pytest.raises(ConfigurationError):
        itrop.RegressionProblem(dataset=ds, family="huber", lam=0.0, beta=0.1)
    with pytest.raises(ConfigurationError):  # poisson label under logistic family
        itrop.RegressionProblem(
            dataset=itrop.RegressionDataset(features=np.array([[1.0]]),
                                            labels=np.array([2.0])),
            family="logistic", lam=0.0, beta=0.1)


@pytest.mark.parametrize("lam, beta, name", [(np.inf, 0.1, "lam"), (np.nan, 0.1, "lam"),
                                             (0.0, np.inf, "beta"), (0.0, np.nan, "beta")])
def test_problem_refuses_a_lam_or_beta_that_is_not_finite(lam, beta, name):
    ds = itrop.RegressionDataset(features=np.array([[1.0]]), labels=np.array([1.0]))
    with pytest.raises(ConfigurationError, match=name):
        itrop.RegressionProblem(dataset=ds, family="logistic", lam=lam, beta=beta)


# ---------------------------------------------------------------- loss hand values

def test_logistic_loss_at_zero_is_log_two():
    problem = one_sample_problem([1.0], 0.0, "logistic")
    assert itrop.loss(problem, np.zeros(1)) == pytest.approx(math.log(2.0), rel=1e-15)


def test_logistic_loss_hand_value_margin_two():
    problem = one_sample_problem([1.0, 1.0], 1.0, "logistic")
    got = itrop.loss(problem, np.array([1.0, 1.0]))  # margin t = 2
    assert got == pytest.approx(math.log1p(math.exp(-2.0)), rel=1e-14)


def test_poisson_loss_at_zero_is_one():
    problem = one_sample_problem([1.0, 2.0], 3.0, "poisson")
    assert itrop.loss(problem, np.zeros(2)) == 1.0


def test_ridge_term_is_additive():
    ds = itrop.synth_dataset(20, 4, "logistic", seed=5)
    base = itrop.RegressionProblem(dataset=ds, family="logistic", lam=0.0, beta=0.1)
    ridged = itrop.RegressionProblem(dataset=ds, family="logistic", lam=3.0, beta=0.1)
    x = np.array([0.3, -1.0, 0.5, 2.0])
    assert itrop.loss(ridged, x) == itrop.loss(base, x) + 0.5 * 3.0 * float(x @ x)
    g_gap = itrop.gradient(ridged, x) - itrop.gradient(base, x)
    assert np.allclose(g_gap, 3.0 * x, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- gradient oracle

@pytest.mark.parametrize("family,lam", [("logistic", 2.0), ("poisson", 1.0)])
def test_gradient_matches_central_differences(family, lam):
    ds = itrop.synth_dataset(30, 5, family, seed=17)
    problem = itrop.RegressionProblem(dataset=ds, family=family, lam=lam, beta=0.1)
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 5)
        g = itrop.gradient(problem, x)
        fd = np.empty(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd[i] = (itrop.loss(problem, x + e) - itrop.loss(problem, x - e)) / (2 * h)
        denom = max(1.0, float(np.linalg.norm(g)))
        assert np.linalg.norm(g - fd) / denom <= 1e-5


def test_single_sample_gradient_closed_form():
    problem = one_sample_problem([1.0, 2.0], 1.0, "logistic", lam=0.5)
    x = np.array([0.2, -0.1])
    t = 1.0 * 0.2 + 2.0 * (-0.1)
    sig = 1.0 / (1.0 + math.exp(-t))
    expected = (sig - 1.0) * np.array([1.0, 2.0]) + 0.5 * x
    assert np.allclose(itrop.gradient(problem, x), expected, rtol=1e-14, atol=0)


# ---------------------------------------------------------------- subset semantics

def test_subset_selects_rows(logistic_problem):
    x = np.linspace(-0.2, 0.2, logistic_problem.dataset.dim)
    idx = np.array([3, 7, 11])
    per = [itrop.gradient(logistic_problem, x, subset=[i]) for i in idx]
    merged = itrop.gradient(logistic_problem, x, subset=idx)
    assert np.allclose(merged, np.mean(per, axis=0), rtol=1e-13, atol=1e-15)
    # a repeated index is an honest duplicate, not a set
    dup = itrop.gradient(logistic_problem, x, subset=[3, 3])
    assert np.allclose(dup, per[0], rtol=1e-13, atol=1e-15)


def test_subset_validation(logistic_problem):
    x = np.zeros(logistic_problem.dataset.dim)
    with pytest.raises(ConfigurationError):
        itrop.gradient(logistic_problem, x, subset=[])
    with pytest.raises(ConfigurationError):
        itrop.gradient(logistic_problem, x, subset=[logistic_problem.dataset.num_samples])
    with pytest.raises(ConfigurationError):
        itrop.gradient(logistic_problem, x, subset=[-1])
    with pytest.raises(ConfigurationError):
        itrop.loss(logistic_problem, x, subset=[[0, 1]])


# ---------------------------------------------------------------- GD closed form

def test_gd_iterates_follow_closed_form_on_balanced_line():
    # two poisson samples with identical features and labels {0, 2}: on the line
    # x = (a, -a) the data terms cancel and the step is x -> (1 - beta*lam) x
    ds = itrop.RegressionDataset(features=np.array([[1.0, 1.0], [1.0, 1.0]]),
                                 labels=np.array([0.0, 2.0]))
    problem = itrop.RegressionProblem(dataset=ds, family="poisson", lam=0.5, beta=0.1)
    op = itrop.exact_gd_operator(problem)
    x0 = np.array([1.5, -1.5])
    traj = itrop.iterate_exact(op, x0, 20)
    ratios = (1.0 - 0.1 * 0.5) ** np.arange(21)
    assert np.allclose(traj, np.outer(ratios, x0), rtol=1e-13, atol=0)


# ---------------------------------------------------------------- SGD factory

def test_full_batch_without_replacement_is_exact_gd(logistic_problem):
    n = logistic_problem.dataset.num_samples
    factory = itrop.sgd_factory(logistic_problem, batch_size=n,
                                sampling="without_replacement")
    op = itrop.exact_gd_operator(logistic_problem)
    x = np.linspace(-1.0, 1.0, logistic_problem.dataset.dim)
    for t in range(5):
        f = factory.realize(itrop.RngStream(40).child(t))
        assert np.array_equal(f(x), op.apply(x))


def test_single_sample_dataset_degenerates_to_exact_gd():
    problem = one_sample_problem([1.0, 0.5], 1.0, "logistic", lam=1.0, beta=0.2)
    op = itrop.exact_gd_operator(problem)
    x = np.array([0.7, -0.3])
    for sampling in itrop.regression.SAMPLING_MODES:
        factory = itrop.sgd_factory(problem, batch_size=1, sampling=sampling)
        f = factory.realize(itrop.RngStream(41).child(0))
        assert np.array_equal(f(x), op.apply(x))


def test_sgd_realization_reuses_its_batch(logistic_problem):
    factory = itrop.sgd_factory(logistic_problem, batch_size=8)
    f = factory.realize(itrop.RngStream(42).child(3))
    x = np.zeros(logistic_problem.dataset.dim)
    assert np.array_equal(f(x), f(x))


def test_sgd_batch_consumption_is_predictable(logistic_problem):
    # a realization reads exactly batch_size uniforms u and uses floor(u * N),
    # and its step is the subset gradient step, bit for bit
    n = logistic_problem.dataset.num_samples
    x = np.linspace(0.0, 0.5, logistic_problem.dataset.dim)
    for t in range(4):
        stream = itrop.RngStream(43).child(t)
        expected = np.floor(stream.generator().random(8) * n).astype(np.int64)
        batch = itrop.sample_batches(n, 8, "with_replacement", stream, [0])[0]
        assert np.array_equal(batch, expected)
        f = itrop.sgd_factory(logistic_problem, batch_size=8).realize(stream)
        manual = x - logistic_problem.beta * itrop.gradient(
            logistic_problem, x, subset=expected)
        assert np.array_equal(f(x), manual)


def test_sgd_without_replacement_batch_has_distinct_indices(logistic_problem):
    # the batch is the 16 samples with the smallest of N uniform keys, ascending
    n = logistic_problem.dataset.num_samples
    stream = itrop.RngStream(44).child(0)
    expected = np.sort(np.argsort(stream.generator().random(n))[:16])
    batch = itrop.sample_batches(n, 16, "without_replacement", stream, [0])[0]
    assert np.array_equal(batch, expected)
    assert len(set(expected.tolist())) == 16
    runs = itrop.sample_batches(n, 150, "without_replacement", stream, np.arange(50))
    assert all(len(set(row.tolist())) == 150 for row in runs)
    f = itrop.sgd_factory(logistic_problem, batch_size=16,
                          sampling="without_replacement").realize(stream)
    x = np.zeros(logistic_problem.dataset.dim)
    manual = x - logistic_problem.beta * itrop.gradient(
        logistic_problem, x, subset=expected)
    assert np.array_equal(f(x), manual)


@pytest.mark.parametrize("batch", [16, 200])
def test_sgd_without_replacement_batches_are_ascending(batch):
    num_samples = 200
    idx = itrop.sample_batches(num_samples, batch, "without_replacement",
                               itrop.RngStream(45).child(2), np.arange(40))
    assert idx.shape == (40, batch)
    assert np.all(np.diff(idx, axis=1) > 0)


def test_sample_batches_refuses_an_unknown_sampling_mode():
    with pytest.raises(ConfigurationError, match=re.escape(str(SAMPLING_MODES))):
        itrop.sample_batches(10, 2, "bogus", itrop.RngStream(0), [0])


@pytest.mark.parametrize("sampling, batch_size", [("with_replacement", 0),
                                                  ("with_replacement", -3),
                                                  ("without_replacement", 0),
                                                  ("without_replacement", 11)])
def test_sample_batches_refuses_a_batch_size_it_cannot_draw(sampling, batch_size):
    stream = itrop.RngStream(0)
    with pytest.raises(ConfigurationError, match=f"batch_size must .*, got {batch_size}$"):
        itrop.sample_batches(10, batch_size, sampling, stream, [0, 1])
    # a batch may exceed N only with replacement
    assert itrop.sample_batches(10, 20, "with_replacement", stream, [0, 1]).shape == (2, 20)
    assert itrop.sample_batches(10, 10, "without_replacement", stream, [0, 1]).shape == (2, 10)


@pytest.mark.parametrize("sampling", SAMPLING_MODES)
@pytest.mark.parametrize("runs", [[0, 3, 2], [-1, 0], [1, 1], []],
                         ids=["unordered", "negative", "repeated", "empty"])
def test_sample_batches_refuses_runs_that_are_not_ascending_and_distinct(sampling, runs):
    # unchecked, [0, 3, 2] would label run 1's batch as run 3's, [-1, 0] would
    # read before the stream's start and [1, 1] would give one batch twice
    with pytest.raises(ConfigurationError, match="ascending list of distinct run indices"):
        itrop.sample_batches(10, 3, sampling, itrop.RngStream(0), runs)
    spread = itrop.sample_batches(10, 3, sampling, itrop.RngStream(0), [0, 2, 5])
    alone = [itrop.sample_batches(10, 3, sampling, itrop.RngStream(0), [r])[0]
             for r in (0, 2, 5)]
    assert np.array_equal(spread, alone)


@pytest.mark.parametrize("sampling", SAMPLING_MODES)
def test_sample_batches_draws_nothing_between_runs_far_apart(sampling):
    # 2**60 runs apart: a sampler that drew the whole span would ask for
    # exabytes and fail on any host
    stream = itrop.RngStream(0)
    far = itrop.sample_batches(10, 3, sampling, stream, [0, 2**60])
    alone = [itrop.sample_batches(10, 3, sampling, stream, [r])[0] for r in (0, 2**60)]
    assert np.array_equal(far, alone)


@pytest.mark.parametrize("sampling", ["with_replacement", "without_replacement"])
def test_sgd_indices_are_uniform_over_samples(sampling):
    num_samples, batch, runs = 40, 10, 20000
    idx = itrop.sample_batches(num_samples, batch, sampling, itrop.RngStream(48).child(1),
                               np.arange(runs))
    assert idx.shape == (runs, batch)
    assert idx.min() >= 0 and idx.max() < num_samples
    counts = np.bincount(idx.ravel(), minlength=num_samples)
    draws = batch * runs
    p = 1.0 / num_samples
    assert np.all(np.abs(counts / draws - p) <= 5.0 * np.sqrt(p * (1.0 - p) / draws))


def test_sgd_streams_decorrelate_batches(logistic_problem):
    factory = itrop.sgd_factory(logistic_problem, batch_size=8)
    x = np.full(logistic_problem.dataset.dim, 0.25)
    a = factory.realize(itrop.RngStream(45).child(0))(x)
    b = factory.realize(itrop.RngStream(45).child(1))(x)
    assert not np.array_equal(a, b)


def test_sgd_factory_validation(logistic_problem):
    n = logistic_problem.dataset.num_samples
    with pytest.raises(ConfigurationError):
        itrop.sgd_factory(logistic_problem, batch_size=0)
    with pytest.raises(ConfigurationError):
        itrop.sgd_factory(logistic_problem, batch_size=n + 1)
    with pytest.raises(ConfigurationError):
        itrop.sgd_factory(logistic_problem, batch_size=4, sampling="bootstrap")


def test_sgd_step_is_unbiased_for_full_gradient(logistic_problem):
    x = np.linspace(-0.4, 0.4, logistic_problem.dataset.dim)
    full = itrop.gradient(logistic_problem, x)
    factory = itrop.sgd_factory(logistic_problem, batch_size=8)
    trials = 20000
    est = np.empty((trials, x.size))
    for t in range(trials):
        f = factory.realize(itrop.RngStream(46).child(t))
        est[t] = (x - f(x)) / logistic_problem.beta
    mean = est.mean(axis=0)
    se = est.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.all(np.abs(mean - full) <= 3.0 * se)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=8, max_size=8),
       st.lists(st.floats(-2, 2), min_size=8, max_size=8),
       st.integers(0, 400))
def test_shared_batch_step_contracts(logistic_problem, x1, x2, trial):
    bounds = itrop.eigen_bounds(logistic_problem)
    alpha = itrop.contraction_coefficient(bounds, logistic_problem.beta)
    assert alpha < 1.0
    f = itrop.sgd_factory(logistic_problem, batch_size=8).realize(
        itrop.RngStream(47).child(trial))
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)
    lhs = np.linalg.norm(f(x1) - f(x2))
    rhs = alpha * np.linalg.norm(x1 - x2)
    # Absolute 1e-12 floor: separations below gradient rounding resolution
    # (~1e-14 here) leave the two gradients bitwise equal, so the step acts as
    # the identity on the gap even though the exact map contracts it.
    assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


# ---------------------------------------------------------------- curvature bounds

def test_eigen_bounds_logistic_hand_value():
    problem = one_sample_problem([1.0, 0.0], 0.0, "logistic", lam=5.0)
    b = itrop.eigen_bounds(problem)
    assert b.lower == 5.0
    assert b.upper == 5.25


def test_eigen_bounds_poisson_radius_form():
    problem = one_sample_problem([1.0, 0.0], 2.0, "poisson", lam=1.0)
    b = itrop.eigen_bounds(problem, region_radius=2.0)
    assert b.lower == 1.0
    assert b.upper == pytest.approx(1.0 + math.exp(2.0), rel=1e-15)
    wider = itrop.eigen_bounds(problem, region_radius=3.0)
    assert wider.upper > b.upper


def test_eigen_bounds_need_positive_ridge():
    problem = one_sample_problem([1.0], 0.0, "logistic", lam=0.0)
    with pytest.raises(ConfigurationError, match="lam > 0"):
        itrop.eigen_bounds(problem)
    poisson = one_sample_problem([1.0], 1.0, "poisson", lam=1.0)
    with pytest.raises(ConfigurationError, match="region_radius"):
        itrop.eigen_bounds(poisson, region_radius=0.0)


def test_eigen_bounds_validation():
    with pytest.raises(ConfigurationError):
        itrop.EigenBounds(lower=0.0, upper=1.0)
    with pytest.raises(ConfigurationError):
        itrop.EigenBounds(lower=2.0, upper=1.0)


@pytest.mark.parametrize("upper", [np.inf, np.nan])
def test_eigen_bounds_refuse_an_upper_bound_that_is_not_finite(upper):
    with pytest.raises(ConfigurationError, match="upper"):
        itrop.EigenBounds(lower=1.0, upper=upper)


def test_contraction_coefficient_minimizer():
    m, big = 5.0, 5.25
    bounds = itrop.EigenBounds(lower=m, upper=big)
    best_beta = 2.0 / (m + big)
    best_value = (big - m) / (big + m)
    assert itrop.contraction_coefficient(bounds, best_beta) == pytest.approx(
        best_value, rel=1e-12)
    # grid scan oracle: the scanned minimum sits at the analytic optimum
    betas = np.linspace(1e-3, 0.5, 4000)
    values = [itrop.contraction_coefficient(bounds, b) for b in betas]
    i = int(np.argmin(values))
    spacing = betas[1] - betas[0]
    assert abs(betas[i] - best_beta) <= spacing
    assert values[i] >= best_value - 1e-12


def test_contraction_coefficient_unit_boundary():
    bounds = itrop.EigenBounds(lower=1.0, upper=4.0)
    assert itrop.contraction_coefficient(bounds, 2.0 / 4.0) == pytest.approx(1.0, abs=1e-12)
    assert itrop.contraction_coefficient(bounds, 0.51) > 1.0
    for beta in (0.05, 0.2, 0.4, 0.49):
        assert itrop.contraction_coefficient(bounds, beta) < 1.0
    with pytest.raises(ConfigurationError):
        itrop.contraction_coefficient(bounds, 0.0)


def test_contraction_coefficient_refuses_a_beta_that_is_not_positive_and_finite():
    bounds = itrop.EigenBounds(lower=1.0, upper=4.0)
    for beta in (np.nan, np.inf, 0.0, -0.1):
        with pytest.raises(ConfigurationError, match="beta"):
            itrop.contraction_coefficient(bounds, beta)


# ---------------------------------------------------------------- reference solve

def test_reference_minimizer_has_small_gradient(logistic_problem):
    x, steps, gnorm = itrop.solve_reference_minimizer(logistic_problem, tol=1e-8)
    assert gnorm == float(np.linalg.norm(itrop.gradient(logistic_problem, x))) <= 1e-8
    assert 1 <= steps <= 50
    # fixed point of the exact GD step, up to beta * tol
    op = itrop.exact_gd_operator(logistic_problem)
    assert np.linalg.norm(op.apply(x) - x) <= logistic_problem.beta * 1e-8


def test_reference_minimizer_tolerances_agree(logistic_problem):
    loose, _, _ = itrop.solve_reference_minimizer(logistic_problem, tol=1e-6)
    tight, _, _ = itrop.solve_reference_minimizer(logistic_problem, tol=1e-10)
    # strong convexity: ||x - x*|| <= ||grad(x)|| / lam
    gap = (1e-6 + 1e-10) / logistic_problem.lam
    assert np.linalg.norm(loose - tight) <= gap


def test_reference_minimizer_validation(logistic_problem, poisson_problem):
    flat = one_sample_problem([1.0], 1.0, "logistic", lam=0.0)
    with pytest.raises(ConfigurationError):
        itrop.solve_reference_minimizer(flat)
    with pytest.raises(ConfigurationError):
        itrop.solve_reference_minimizer(logistic_problem, tol=0.0)
    with pytest.raises(NonConvergenceError):
        itrop.solve_reference_minimizer(poisson_problem, tol=1e-12, max_iterations=2)


def test_reference_minimizer_refuses_a_tolerance_that_is_not_positive_and_finite(
        logistic_problem):
    # a NaN tolerance would stop the solve at its start point, as if converged
    for tol in (np.nan, np.inf, 0.0, -1e-8):
        with pytest.raises(ConfigurationError, match="tol"):
            itrop.solve_reference_minimizer(logistic_problem, tol=tol)


@pytest.mark.parametrize("fixture", ["logistic_problem", "poisson_problem"])
def test_reference_minimizer_agrees_with_gradient_descent(request, fixture):
    problem = request.getfixturevalue(fixture)
    tol = 1e-8
    x, _, _ = itrop.solve_reference_minimizer(problem, tol=tol)
    # oracle: the exact GD step at beta = 1/upper, iterated to the same tolerance
    op = itrop.exact_gd_operator(problem)
    y = np.zeros(problem.dataset.dim)
    for _ in range(10 ** 5):
        if np.linalg.norm(itrop.gradient(problem, y)) <= tol:
            break
        y = op.apply(y)
    else:
        pytest.fail("gradient-descent oracle did not converge")
    # each lies within tol / lam of the minimizer (strong convexity)
    assert np.linalg.norm(x - y) <= 2 * tol / problem.lam


@pytest.mark.parametrize("family, dim, lam, tol", [("logistic", 40, 0.5, 1e-4),
                                                   ("poisson", 20, 1.0, 1e-4),
                                                   ("logistic", 20, 5.0, 1e-6)])
def test_solve_exact_certifies_a_gradient_step_in_its_l2_norm(family, dim, lam, tol):
    # the step's modulus is an l2 bound, so the stopping rule measures the
    # step in l2; a sup-norm step stops early, up to 3 tol from the minimizer
    ds = itrop.synth_dataset(1000, dim, family, seed=11)
    probe = itrop.RegressionProblem(dataset=ds, family=family, lam=lam, beta=1.0)
    bounds = itrop.eigen_bounds(probe)
    problem = itrop.RegressionProblem(dataset=ds, family=family, lam=lam,
                                      beta=1.0 / bounds.upper)
    op = itrop.exact_gd_operator(problem, bounds)
    assert op.claimed_modulus < 1.0
    x, _, moved = itrop.solve_exact(op, tol=tol)
    minimizer, _, _ = itrop.solve_reference_minimizer(problem, tol=1e-13)
    assert np.linalg.norm(x - minimizer) <= tol
    assert op.norm == "l2"
    assert moved <= tol * (1.0 - op.claimed_modulus) / op.claimed_modulus


def test_reference_solve_with_a_wrong_gradient_fails_the_certificate(
        logistic_problem, monkeypatch):
    true_gradient = itrop.gradient
    offset = np.full(logistic_problem.dataset.dim, 1e-3)
    monkeypatch.setattr(itrop.regression, "gradient",
                        lambda problem, x, subset=None: true_gradient(problem, x, subset)
                        + offset)
    try:
        x, _, _ = itrop.solve_reference_minimizer(logistic_problem, tol=1e-8)
    except NonConvergenceError:
        return
    assert np.linalg.norm(true_gradient(logistic_problem, x)) > 1e-8


@pytest.mark.parametrize("experiment", ["sgd-logistic", "sgd-poisson"])
def test_meta_certifies_the_reference_solve(tmp_path, experiment):
    config = ExperimentConfig.from_dict({
        "experiment": experiment, "master_seed": 7, "runs": 2, "horizon": 5,
        "sample_sizes": [4], "output_dir": str(tmp_path),
        "regression": {"num_samples": 60, "dim": 4, "seed": 1}})
    run_experiment(config)
    solve = json.loads((tmp_path / "meta.json").read_text())["reference_solve"]
    problem, bounds = config.regression.build()
    target = build_family(config).target
    gnorm = float(np.linalg.norm(itrop.gradient(problem, target)))
    assert solve["method"] == "damped-newton"
    assert 1 <= solve["iterations"] < 10
    assert solve["residual"] == gnorm <= 1e-8
    assert solve["certified_bound"] == gnorm / problem.lam
    assert solve["beta"] == problem.beta == 1.0 / bounds.upper
    assert solve["claimed_modulus"] == itrop.contraction_coefficient(bounds, problem.beta)


# ---------------------------------------------------------------- synthetic data

def test_synth_dataset_deterministic_and_valid():
    a = itrop.synth_dataset(50, 6, "logistic", seed=13)
    b = itrop.synth_dataset(50, 6, "logistic", seed=13)
    c = itrop.synth_dataset(50, 6, "logistic", seed=14)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, c.labels) or not np.array_equal(
        a.features, c.features)
    assert np.all((a.labels == 0.0) | (a.labels == 1.0))
    assert np.all(a.features[:, 0] == 1.0)
    assert np.all((a.features[:, 1:] >= 0.0) & (a.features[:, 1:] < 1.0))


def test_synth_dataset_poisson_codomain():
    d = itrop.synth_dataset(80, 4, "poisson", seed=2)
    assert np.all(d.labels >= 0)
    assert np.array_equal(d.labels, np.floor(d.labels))


def test_synth_dataset_validation():
    with pytest.raises(ConfigurationError):
        itrop.synth_dataset(0, 4, "logistic", seed=1)
    with pytest.raises(ConfigurationError):
        itrop.synth_dataset(5, 1, "logistic", seed=1)
    with pytest.raises(ConfigurationError):
        itrop.synth_dataset(5, 4, "probit", seed=1)


# ---------------------------------------------------------------- CSV round trip

def test_csv_round_trip_is_lossless(tmp_path):
    ds = itrop.synth_dataset(40, 5, "poisson", seed=21)
    path = tmp_path / "data.csv"
    itrop.save_csv_dataset(ds, path)
    loaded = itrop.load_csv_dataset(path, "poisson")
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)


def test_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0.5\nx,0.5\n")
    with pytest.raises(ConfigurationError, match="line 2"):
        itrop.load_csv_dataset(path, "logistic")
    path.write_text("1.0,0.5\n0.0,0.5,0.7\n")
    with pytest.raises(ConfigurationError, match="line 2"):
        itrop.load_csv_dataset(path, "logistic")
    path.write_text("1.0,0.5\n0.0,inf\n")
    with pytest.raises(ConfigurationError, match="line 2"):
        itrop.load_csv_dataset(path, "logistic")


def test_csv_load_validates_labels_and_shape(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2.0,0.5\n")
    with pytest.raises(ConfigurationError, match="sample 0"):
        itrop.load_csv_dataset(path, "logistic")
    path.write_text("1.0\n")
    with pytest.raises(ConfigurationError, match="at least one feature"):
        itrop.load_csv_dataset(path, "logistic")
    path.write_text("")
    with pytest.raises(ConfigurationError, match="no data rows"):
        itrop.load_csv_dataset(path, "logistic")
    with pytest.raises(ConfigurationError, match="family"):
        itrop.load_csv_dataset(path, "gamma")


def test_csv_load_skips_blank_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1.0,0.25\n\n0.0,0.75\n")
    ds = itrop.load_csv_dataset(path, "logistic")
    assert ds.num_samples == 2
    assert np.array_equal(ds.labels, [1.0, 0.0])
