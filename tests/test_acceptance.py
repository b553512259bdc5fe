"""End-to-end acceptance checks.

Each test prints exactly one `acceptance NN <name>: PASS|FAIL` line and
asserts it.  The statistical criteria use fixed seeds, so the whole module
is deterministic; the two long studies (orbit ordering, long-run averages)
dominate the runtime at a few minutes total.
"""

import json
import math
import time

import numpy as np
import pytest

import itrop
from itrop.cli import main
from itrop.experiments import ExperimentConfig, run_experiment

R_RUNS = 200
HORIZON = 1000
EVI_LADDER = (1, 25, 400)
WINDOW = slice(500, 1001)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _sup(a, axis=None):
    return np.max(np.abs(a), axis=axis)


# ---------------------------------------------------------------- shared studies

@pytest.fixture(scope="module")
def vstar20(mdp20):
    return itrop.solve_exact(itrop.bellman_operator(mdp20), tol=1e-10)[0]


@pytest.fixture(scope="module")
def evi_study(mdp20, vstar20):
    """R=200 randomized value-iteration runs at K=1000 for n in {1, 25, 400},
    moved as one block per n.

    Per run and sample size: the mean orbit distance over k in [500, 1000],
    and the time-average gap to v* at k = 50 and k = 1000.
    """
    op = itrop.bellman_operator(mdp20)
    x0 = np.zeros(20)
    exact = itrop.iterate_exact(op, x0, HORIZON)
    stream = itrop.RngStream(2026)
    study = {}
    t0 = time.perf_counter()
    for n in EVI_LADDER:
        window = np.zeros(R_RUNS)
        total = np.zeros((R_RUNS, 20))
        gaps = {}

        def visit(first, runs, block):
            for k, z in enumerate(block, first):
                if WINDOW.start <= k < WINDOW.stop:
                    window[:] += _sup(exact[k] - z, axis=1)
                total[:] += z
                if k in (50, HORIZON):
                    gaps[k] = _sup(total / (k + 1) - vstar20, axis=1)

        dropped = itrop.iterate_ensemble(itrop.empirical_bellman_factory(mdp20, n), x0,
                                         HORIZON, stream.child(n), range(R_RUNS), visit)
        assert dropped == {}
        study[n] = {"window": window / (WINDOW.stop - WINDOW.start),
                    "ta50": gaps[50], "ta_end": gaps[HORIZON]}
    study["elapsed"] = time.perf_counter() - t0
    return study


@pytest.fixture(scope="module")
def big_logistic():
    """Ridge-regularized logistic problem at the experiment scale (N=1000, d=20)."""
    ds = itrop.synth_dataset(1000, 20, "logistic", seed=11)
    probe = itrop.RegressionProblem(dataset=ds, family="logistic", lam=5.0, beta=1.0)
    bounds = itrop.eigen_bounds(probe)
    problem = itrop.RegressionProblem(dataset=ds, family="logistic", lam=5.0,
                                      beta=1.0 / bounds.upper)
    return problem, bounds


@pytest.fixture(scope="module")
def sgd_study(big_logistic):
    """R=200 minibatch-SGD runs (n=16, K=1000), moved as one block:
    time-average gap at k=50, 1000."""
    problem, _ = big_logistic
    target, _, _ = itrop.solve_reference_minimizer(problem, tol=1e-8)
    factory = itrop.sgd_factory(problem, batch_size=16)
    x0 = np.zeros(problem.dataset.dim)
    total = np.zeros((R_RUNS, problem.dataset.dim))
    gaps = {}

    def visit(first, runs, block):
        for k, z in enumerate(block, first):
            total[:] += z
            if k in (50, HORIZON):
                gaps[k] = np.linalg.norm(total / (k + 1) - target, axis=1)

    dropped = itrop.iterate_ensemble(factory, x0, HORIZON, itrop.RngStream(2027).child(16),
                                     range(R_RUNS), visit)
    assert dropped == {}
    return {"ta50": gaps[50], "ta_end": gaps[HORIZON]}


# ---------------------------------------------------------------- criteria

def test_criterion_01_contraction_decay(mdp20, vstar20):
    t0 = time.perf_counter()
    traj = itrop.iterate_exact(itrop.bellman_operator(mdp20), np.zeros(20), 200)
    gaps = _sup(traj - vstar20, axis=1)
    bound = 0.9 ** np.arange(201) * gaps[0] + 1e-9
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(gaps <= bound)) and elapsed < 1.0
    _report(1, "exact-orbit-geometric-decay", ok,
            f"max excess {float(np.max(gaps - bound)):.2e}, {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_02_orbit_distance_ordering(evi_study):
    means, ses = {}, {}
    for n in EVI_LADDER:
        w = evi_study[n]["window"]
        means[n] = float(w.mean())
        ses[n] = float(w.std(ddof=1) / math.sqrt(R_RUNS))
    ok = True
    gaps = []
    for a, b in zip(EVI_LADDER, EVI_LADDER[1:]):
        gap = means[a] - means[b]
        need = 3.0 * math.hypot(ses[a], ses[b])
        gaps.append(f"n{a}->n{b}: gap {gap:.4f} vs 3se {need:.4f}")
        ok = ok and gap > need
    ok = ok and evi_study["elapsed"] < 300.0
    _report(2, "orbit-distance-shrinks-with-sample-size", ok,
            "; ".join(gaps) + f"; {evi_study['elapsed']:.0f}s")


@pytest.mark.slow
def test_criterion_03_time_average_variance_reduction(evi_study, sgd_study):
    rows = []
    ok = True
    for label, study in (("evi-n25", evi_study[25]), ("sgd-n16", sgd_study)):
        v50 = float(np.var(study["ta50"], ddof=1))
        v_end = float(np.var(study["ta_end"], ddof=1))
        rows.append(f"{label}: var@{HORIZON} {v_end:.3e} vs 0.5*var@50 {0.5 * v50:.3e}")
        ok = ok and v_end <= 0.5 * v50
    _report(3, "time-average-variance-reduction", ok, "; ".join(rows))


def test_criterion_04_shared_batch_contraction(big_logistic):
    problem, bounds = big_logistic
    alpha = itrop.contraction_coefficient(bounds, problem.beta)
    factory = itrop.sgd_factory(problem, batch_size=16)
    rng = np.random.default_rng(404)
    stream = itrop.RngStream(404)
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    for t in range(1000):
        f = factory.realize(stream.child(t))
        x1, x2 = rng.uniform(-2.0, 2.0, (2, problem.dataset.dim))
        lhs = float(np.linalg.norm(f(x1) - f(x2)))
        rhs = alpha * float(np.linalg.norm(x1 - x2))
        worst = max(worst, lhs / rhs)
        if lhs > rhs * (1.0 + 1e-10):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and alpha < 1.0 and elapsed < 10.0
    _report(4, "per-realization-sgd-contraction", ok,
            f"alpha {alpha:.4f}, worst ratio/alpha {worst:.6f}, "
            f"{violations} violations, {elapsed:.1f}s")


def test_criterion_05_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for family, lam in (("logistic", 2.0), ("poisson", 1.0)):
        ds = itrop.synth_dataset(80, 5, family, seed=31)
        problem = itrop.RegressionProblem(dataset=ds, family=family, lam=lam, beta=0.1)
        rng = np.random.default_rng(32)
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, 5)
            g = itrop.gradient(problem, x)
            fd = np.empty(5)
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd[i] = (itrop.loss(problem, x + e)
                         - itrop.loss(problem, x - e)) / (2 * h)
            rel = float(np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-12))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 1.0
    _report(5, "analytic-gradient-oracle", ok,
            f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_06_hoeffding_tail_dominance(mdp20):
    # r = 1 and eps = 0.5 put every rung's bound below 1 (0.386, 7.5e-4,
    # 2.8e-9), so each rung can fail
    v = np.linspace(-1.0, 1.0, 20)
    assert _sup(v) == 1.0
    exact = itrop.bellman_apply(mdp20, v)
    trials = 10 ** 4
    stream = itrop.RngStream(606)
    t0 = time.perf_counter()
    rows = []
    ok = True
    for n in (50, 100, 200):
        # trial t is run t of the rung's stream
        sweeps = itrop.empirical_bellman_factory(mdp20, n).step(
            stream.child(n), np.arange(trials), np.broadcast_to(v, (trials, 20)))
        hits = int(np.count_nonzero(_sup(sweeps - exact, axis=1) > 0.5))
        freq = hits / trials
        bound = itrop.hoeffding_bound(20, 5, eps=0.5, sample_size=n, radius=1.0)
        se = math.sqrt(freq * (1.0 - freq) / trials)
        ceiling = bound + 3.0 * se
        rows.append(f"n={n}: freq {freq:.4f} <= {ceiling:.4g}")
        ok = ok and bound < 1.0 and freq <= ceiling
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(6, "tail-frequency-under-hoeffding-bound", ok,
            "; ".join(rows) + f"; {elapsed:.0f}s")


def test_criterion_07_monotonicity_suite(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 10)
    rng = np.random.default_rng(707)
    pairs = []
    for _ in range(100):
        lo = rng.uniform(0.0, 5.0, 20)
        gap = rng.uniform(0.0, 2.0, 20) * (rng.random(20) < 0.5)
        pairs.append((lo, lo + gap))
    report = itrop.check_monotone(factory, np.zeros(20), pairs, trials=1000,
                                  stream=itrop.RngStream(708).child(0))
    ok = (report.verdict == "consistent"
          and report.parameters["violation_count"] == 0)
    _report(7, "coupled-monotonicity-zero-violations", ok,
            f"violations {report.parameters['violation_count']} "
            f"over 1000 trials x 100 pairs")


def test_criterion_08_sampled_sweep_sits_below_exact_mean(mdp20):
    rng = np.random.default_rng(808)
    stream = itrop.RngStream(809)
    trials = 10 ** 4
    factory = itrop.empirical_bellman_factory(mdp20, 10)
    ok = True
    worst = -np.inf
    for rep in range(5):
        v = rng.uniform(-1.0, 3.0, 20)
        exact = itrop.bellman_apply(mdp20, v)
        # trial t is run t of the rung's stream
        draws = factory.step(stream.child(rep), np.arange(trials),
                             np.broadcast_to(v, (trials, 20)))
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(trials)
        excess = np.max((mean - exact) / np.where(se > 0, se, np.inf))
        worst = max(worst, float(excess))
        ok = ok and bool(np.all(mean <= exact + 3.0 * se))
    _report(8, "averaging-noise-only-lowers-minima", ok,
            f"worst standardized excess {worst:.2f} (limit 3)")


@pytest.mark.slow
def test_criterion_09_time_average_vs_ensemble_tail(mdp20):
    factory = itrop.empirical_bellman_factory(mdp20, 25)
    f = lambda z: _sup(z, axis=1)
    report = itrop.lln_audit(factory, np.zeros(20), f, horizon=10 ** 4,
                             runs=R_RUNS, stream=itrop.RngStream(909).child(25))
    ta = report.time_averages
    se = report.time_average_ses
    pair_gap = abs(float(ta[0] - ta[1]))
    pair_limit = 5.0 * math.hypot(se[0], se[1])
    ok = pair_gap <= pair_limit
    details = [f"run gap {pair_gap:.4f} <= {pair_limit:.4f}"]
    for i in (0, 1):
        gap = abs(float(ta[i] - report.tail_mean))
        limit = 5.0 * math.hypot(se[i], report.tail_se)
        details.append(f"run{i} vs tail {gap:.4f} <= {limit:.4f}")
        ok = ok and gap <= limit
    _report(9, "time-averages-agree-with-ensemble-tail", ok, "; ".join(details))


def test_criterion_10_reference_fixed_point(ref_mdp2):
    p = ref_mdp2.transition[:, 0, :]
    c = ref_mdp2.cost[:, 0]
    direct = np.linalg.solve(np.eye(2) - ref_mdp2.discount * p, c)
    v, _, _ = itrop.solve_exact(itrop.bellman_operator(ref_mdp2), tol=1e-10)
    gap = float(_sup(v - direct))
    _report(10, "iterative-solve-matches-linear-solve", gap <= 1e-8,
            f"sup gap {gap:.2e}")


def test_criterion_11_rerun_determinism(tmp_path):
    configs = {
        "evi": {
            "experiment": "evi", "master_seed": 42, "runs": 4, "horizon": 40,
            "sample_sizes": [1, 5],
            "mdp": {"num_states": 6, "num_actions": 3, "seed": 2, "discount": 0.8},
        },
        "sgd": {
            "experiment": "sgd-logistic", "master_seed": 7, "runs": 3, "horizon": 30,
            "sample_sizes": [4, 8],
            "regression": {"num_samples": 60, "dim": 4, "seed": 1},
        },
    }
    ok = True
    details = []
    for label, data in configs.items():
        dirs = [tmp_path / f"{label}_{i}" for i in (0, 1)]
        for d in dirs:
            cfg = ExperimentConfig.from_dict({**data, "output_dir": str(d)})
            assert run_experiment(cfg).exit_code == 0
        csvs = sorted(p.name for p in dirs[0].glob("*.csv"))
        same = bool(csvs) and all(
            (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
            for name in csvs)
        metas = [json.loads((d / "meta.json").read_text()) for d in dirs]
        for m in metas:
            m.pop("wall_time_seconds")
            m["config"].pop("output_dir")
        same = same and metas[0] == metas[1]
        # a second run into the same directory overwrites byte-identically
        first = (dirs[0] / csvs[0]).read_bytes()
        cfg = ExperimentConfig.from_dict({**data, "output_dir": str(dirs[0])})
        assert run_experiment(cfg).exit_code == 0
        same = same and (dirs[0] / csvs[0]).read_bytes() == first
        details.append(f"{label}: {len(csvs)} csvs byte-identical")
        ok = ok and same
    _report(11, "rerun-byte-determinism", ok, "; ".join(details))
