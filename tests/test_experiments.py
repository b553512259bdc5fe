import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

import itrop
from itrop.cli import main
from itrop.core import ConfigurationError
from itrop.experiments import ExperimentConfig, build_family, run_experiment


def evi_config(out_dir, **overrides):
    data = {
        "experiment": "evi",
        "master_seed": 42,
        "runs": 4,
        "horizon": 30,
        "sample_sizes": [1, 5],
        "output_dir": str(out_dir),
        "mdp": {"num_states": 6, "num_actions": 3, "seed": 2, "discount": 0.8},
    }
    data.update(overrides)
    return data


def sgd_config(out_dir, **overrides):
    data = {
        "experiment": "sgd-logistic",
        "master_seed": 7,
        "runs": 3,
        "horizon": 25,
        "sample_sizes": [4, 16],
        "output_dir": str(out_dir),
        "regression": {"num_samples": 60, "dim": 4, "seed": 1},
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------- config parsing

def test_config_minimal_evi_defaults(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "evi", "master_seed": 0, "sample_sizes": [1]})
    assert cfg.runs == 200 and cfg.horizon == 1000
    assert cfg.output_dir == "out"
    assert cfg.mdp.num_states == 20 and cfg.mdp.num_actions == 5
    assert cfg.check.trials == 200
    assert cfg.family_name() == "evi"


@pytest.mark.parametrize("patch,fragment", [
    ({"experiment": "policy-iteration"}, "experiment"),
    ({"typo_key": 1}, "typo_key"),
    ({"master_seed": None}, "master_seed"),
    ({"master_seed": -1}, "master_seed"),
    ({"master_seed": True}, "master_seed"),
    ({"sample_sizes": []}, "sample_sizes"),
    ({"sample_sizes": [4, 2]}, "increasing"),
    ({"sample_sizes": [1, 1]}, "increasing"),
    ({"sample_sizes": [1, True]}, "sample_sizes"),
    ({"sample_sizes": [1.5]}, "sample_sizes"),
    ({"runs": 0}, "runs"),
    ({"horizon": 0}, "horizon"),
    ({"jobs": 0}, "jobs"),
    ({"output_dir": ""}, "output_dir"),
    ({"family": "evi"}, "family"),
    ({"regression": {}}, "regression"),
    ({"mdp": {"num_states": 0}}, "num_states"),
    ({"mdp": {"discount": 1.0}}, "discount"),
    ({"mdp": {"path": "m.json", "num_states": 3}}, "num_states"),
    ({"check": {"trials": 99}}, "trials"),
    ({"check": {"surprise": 1}}, "surprise"),
])
def test_config_rejections_name_the_problem(tmp_path, patch, fragment):
    data = evi_config(tmp_path)
    data.update(patch)
    if patch.get("master_seed", 0) is None:
        data.pop("master_seed")
    with pytest.raises(ConfigurationError, match=fragment):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("patch,fragment", [
    ({"regression": {"num_samples": 60, "dim": 4, "seed": 1, "lambda": -1}}, "lambda"),
    ({"regression": {"num_samples": 60, "dim": 4, "seed": 1, "beta": 0}}, "beta"),
    ({"regression": {"num_samples": 60, "dim": 4, "seed": 1, "beta": True}}, "beta"),
    ({"regression": {"num_samples": 60, "dim": 4, "seed": 1, "sampling": "iid"}}, "sampling"),
    ({"regression": {"num_samples": 60, "dim": 4, "seed": 1, "region_radius": 0}},
     "region_radius"),
    ({"regression": {"path": "d.csv", "num_samples": 9}}, "num_samples"),
    ({"regression": {"dim": 1}}, "dim"),
    ({"mdp": {"num_states": 3}}, "mdp"),
])
def test_regression_config_rejections(tmp_path, patch, fragment):
    data = sgd_config(tmp_path)
    data.update(patch)
    with pytest.raises(ConfigurationError, match=fragment):
        ExperimentConfig.from_dict(data)


def test_assumptions_config_requires_family(tmp_path):
    data = {"experiment": "assumptions", "master_seed": 0, "sample_sizes": [1]}
    with pytest.raises(ConfigurationError, match="family"):
        ExperimentConfig.from_dict(data)
    data["family"] = "assumptions"
    with pytest.raises(ConfigurationError, match="family"):
        ExperimentConfig.from_dict(data)
    data["family"] = "qvi"
    cfg = ExperimentConfig.from_dict(data)
    assert cfg.family_name() == "qvi"


def test_config_to_dict_is_stable_under_reparse(tmp_path):
    for data in (evi_config(tmp_path), sgd_config(tmp_path),
                 {"experiment": "lln", "family": "sgd-poisson", "master_seed": 1,
                  "sample_sizes": [2, 8], "regression": {"num_samples": 30, "dim": 3,
                                                         "seed": 0}}):
        once = ExperimentConfig.from_dict(data).to_dict()
        twice = ExperimentConfig.from_dict(once).to_dict()
        assert once == twice


def test_config_overrides(tmp_path):
    cfg = ExperimentConfig.from_dict(evi_config(tmp_path))
    assert cfg.with_overrides() is cfg
    out = cfg.with_overrides(seed=9, output_dir="elsewhere")
    assert (out.master_seed, out.output_dir) == (9, "elsewhere")
    assert out.runs == cfg.runs
    with pytest.raises(ConfigurationError, match="--seed"):
        cfg.with_overrides(seed=-2)


def test_config_from_json_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigurationError, match="cannot read"):
        ExperimentConfig.from_json(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        ExperimentConfig.from_json(bad)


DESK_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", DESK_CONFIGS, ids=lambda p: p.name)
def test_desk_configs_parse(path):
    assert ExperimentConfig.from_json(path).experiment in itrop.experiments.EXPERIMENTS


def test_mdp_spec_path_round_trip(tmp_path):
    model_path = tmp_path / "model.json"
    itrop.save_model(itrop.random_mdp(4, 2, seed=6), model_path)
    cfg = ExperimentConfig.from_dict(evi_config(tmp_path, mdp={"path": str(model_path)}))
    model = cfg.mdp.build()
    assert model.num_states == 4 and model.num_actions == 2
    assert cfg.to_dict()["mdp"] == {"path": str(model_path)}


# ---------------------------------------------------------------- family bundles

def test_build_family_shapes(tmp_path):
    evi = build_family(ExperimentConfig.from_dict(evi_config(tmp_path)))
    assert evi.norm == "sup" and evi.op.dimension == 6
    assert itrop.fixed_point_residual(evi.op, evi.target, "sup") <= 1e-9

    qvi = build_family(ExperimentConfig.from_dict(
        evi_config(tmp_path, experiment="qvi")))
    assert qvi.op.dimension == 18  # states x actions, flattened

    sgd = build_family(ExperimentConfig.from_dict(sgd_config(tmp_path)))
    assert sgd.norm == "l2" and sgd.op.dimension == 4
    assert sgd.op.claimed_modulus is not None and sgd.op.claimed_modulus < 1.0
    assert itrop.fixed_point_residual(sgd.op, sgd.target) <= 1e-7


def test_build_family_without_target_skips_solves(tmp_path):
    data = sgd_config(tmp_path, regression={"num_samples": 60, "dim": 4, "seed": 1,
                                            "lambda": 0, "beta": 0.05})
    cfg = ExperimentConfig.from_dict(data)
    bundle = build_family(cfg, need_target=False)
    assert bundle.target is None
    assert bundle.op.claimed_modulus is None  # no curvature certificate at lam=0
    with pytest.raises(ConfigurationError):  # the default path still solves
        build_family(cfg)


def test_auto_beta_matches_curvature_bound(tmp_path):
    cfg = ExperimentConfig.from_dict(sgd_config(tmp_path))
    problem, bounds = cfg.regression.build("logistic")
    assert bounds == itrop.eigen_bounds(problem)
    assert problem.beta == 1.0 / bounds.upper
    assert problem.lam == 5.0  # family default when omitted
    assert build_family(cfg).op.claimed_modulus == itrop.contraction_coefficient(
        bounds, problem.beta)


def test_unregularized_problem_has_no_curvature_bounds(tmp_path):
    source = {"num_samples": 60, "dim": 4, "seed": 1, "lambda": 0}
    explicit = ExperimentConfig.from_dict(sgd_config(tmp_path,
                                                     regression={**source, "beta": 0.05}))
    problem, bounds = explicit.regression.build("logistic")
    assert bounds is None and problem.beta == 0.05 and problem.lam == 0.0
    auto = ExperimentConfig.from_dict(sgd_config(tmp_path, regression=source))
    with pytest.raises(ConfigurationError, match="lam > 0"):
        auto.regression.build("logistic")


# ---------------------------------------------------------------- orchestration

def test_run_experiment_emits_expected_files(tmp_path):
    cfg = ExperimentConfig.from_dict(evi_config(tmp_path / "out"))
    result = run_experiment(cfg)
    assert result.exit_code == 0
    assert result.divergent_run_count == 0
    names = sorted(p.name for p in result.output_files)
    assert names == ["distance_n1.csv", "distance_n5.csv", "meta.json",
                     "timeavg_n1.csv", "timeavg_n5.csv"]
    for p in result.output_files:
        assert p.exists()

    summary = itrop.EnsembleSummary.from_csv(tmp_path / "out" / "distance_n5.csv")
    assert summary.count == cfg.runs
    assert summary.mean.size == cfg.horizon + 1
    assert summary.mean[0] == 0.0  # shared start point
    assert np.all(summary.min <= summary.mean) and np.all(summary.mean <= summary.max)

    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["schema_version"] == 1
    assert meta["code_version"] == itrop.__version__
    assert meta["divergent_run_count"] == 0
    assert meta["config"]["experiment"] == "evi"
    assert meta["config"]["sample_sizes"] == [1, 5]
    assert meta["wall_time_seconds"] >= 0.0


def test_run_experiment_is_deterministic_across_directories(tmp_path):
    a = run_experiment(ExperimentConfig.from_dict(evi_config(tmp_path / "a")))
    b = run_experiment(ExperimentConfig.from_dict(evi_config(tmp_path / "b")))
    assert a.exit_code == b.exit_code == 0
    for name in ("distance_n1.csv", "distance_n5.csv", "timeavg_n1.csv",
                 "timeavg_n5.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    meta_a = json.loads((tmp_path / "a" / "meta.json").read_text())
    meta_b = json.loads((tmp_path / "b" / "meta.json").read_text())
    meta_a.pop("wall_time_seconds")
    meta_b.pop("wall_time_seconds")
    meta_a["config"].pop("output_dir")
    meta_b["config"].pop("output_dir")
    assert meta_a == meta_b


def test_run_experiment_chunking_does_not_change_results(tmp_path, monkeypatch):
    # one run per chunk against the whole block at once: the same bytes
    run_experiment(ExperimentConfig.from_dict(evi_config(tmp_path / "block")))
    monkeypatch.setattr(itrop.core, "CHUNK_BYTES", 1)
    run_experiment(ExperimentConfig.from_dict(evi_config(tmp_path / "chunked")))
    for name in ("distance_n1.csv", "distance_n5.csv", "timeavg_n1.csv", "timeavg_n5.csv"):
        assert ((tmp_path / "block" / name).read_bytes()
                == (tmp_path / "chunked" / name).read_bytes())


def test_old_config_with_jobs_fails_fast(tmp_path, capsys):
    cfg = write_config(tmp_path, evi_config(tmp_path / "o", jobs=2))
    assert main(["run", cfg]) == 1
    assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    with pytest.raises(SystemExit):
        main(["run", write_config(tmp_path, evi_config(tmp_path / "o"), "ok.json"),
              "--jobs", "2"])


def test_run_experiment_sgd_poisson_families(tmp_path):
    data = sgd_config(tmp_path / "p", experiment="sgd-poisson",
                      regression={"num_samples": 40, "dim": 3, "seed": 5})
    result = run_experiment(ExperimentConfig.from_dict(data))
    assert result.exit_code == 0
    summary = itrop.EnsembleSummary.from_csv(tmp_path / "p" / "timeavg_n16.csv")
    # averaged orbit should approach the reference minimizer, not wander
    assert summary.mean[-1] < summary.mean[1]


def test_run_experiment_single_run_fails_at_ensemble(tmp_path):
    data = evi_config(tmp_path / "solo", runs=1)
    with pytest.raises(ConfigurationError, match="2 runs"):
        run_experiment(ExperimentConfig.from_dict(data))


def test_run_experiment_single_step_horizon_works(tmp_path):
    data = evi_config(tmp_path / "short", horizon=1)
    assert run_experiment(ExperimentConfig.from_dict(data)).exit_code == 0
    summary = itrop.EnsembleSummary.from_csv(tmp_path / "short" / "distance_n1.csv")
    assert summary.mean.size == 2


def patch_unstable_family(monkeypatch, runs_that_diverge):
    """Swap in a dimension-1 halving family whose designated runs blow up."""
    op = itrop.ExactOperatorHandle(apply=lambda x: np.asarray(x) / 2.0, dimension=1)

    def realize(stream):
        # the engine realizes run r of step stream (RUN, n, k-1) as stream.for_run(r)
        if stream.run in runs_that_diverge:
            return lambda x: np.asarray(x) * 1e13
        return lambda x: np.asarray(x) / 2.0

    def fake_build_family(config, need_target=True):
        factory_for = lambda n: itrop.RandomOperatorFactory(
            sample_size=n, realize=realize, dimension=1)
        return itrop.experiments.FamilyBundle(
            op=op, factory_for=factory_for,
            target=np.zeros(1), x0=np.ones(1), norm="sup")

    monkeypatch.setattr(itrop.experiments, "build_family", fake_build_family)


def test_divergent_runs_are_dropped_and_counted(tmp_path, monkeypatch):
    patch_unstable_family(monkeypatch, runs_that_diverge={1, 3})
    data = evi_config(tmp_path / "div", runs=8, horizon=10)
    result = run_experiment(ExperimentConfig.from_dict(data))
    # 4 of 16 runs diverged: far beyond the 1% budget
    assert result.exit_code == 2
    assert result.divergent_run_count == 4
    meta = json.loads((tmp_path / "div" / "meta.json").read_text())
    assert meta["divergent_run_count"] == 4
    assert {(d["sample_size"], d["run"]) for d in meta["divergent_runs"]} == {
        (1, 1), (1, 3), (5, 1), (5, 3)}
    assert all(d["step"] == 1 for d in meta["divergent_runs"])
    # surviving runs still produced full ensembles
    summary = itrop.EnsembleSummary.from_csv(tmp_path / "div" / "distance_n1.csv")
    assert summary.count == 6


@pytest.mark.parametrize("diverging, count", [(set(), 80), ({1, 3}, 62)])
def test_meta_counts_the_realizations_each_sample_size_drew(tmp_path, monkeypatch, caplog,
                                                            diverging, count):
    # 8 runs of 10 steps; a run dropped at step 1 never draws for steps 2..10
    patch_unstable_family(monkeypatch, runs_that_diverge=diverging)
    data = evi_config(tmp_path / "count", runs=8, horizon=10)
    with caplog.at_level(logging.INFO, logger="itrop"):
        run_experiment(ExperimentConfig.from_dict(data))
    meta = json.loads((tmp_path / "count" / "meta.json").read_text())
    assert meta["realizations_drawn"] == [{"sample_size": 1, "count": count},
                                          {"sample_size": 5, "count": count}]
    # the wall-clock rate goes to the log only
    for n in (1, 5):
        assert re.search(rf"n={n}: 8 runs, {len(diverging)} diverged, {count} "
                         rf"realizations, \d+/s", caplog.text)


@pytest.mark.parametrize("experiment", ["evi", "qvi"])
def test_meta_certifies_the_value_iteration_solve(tmp_path, experiment):
    data = evi_config(tmp_path / "run", experiment=experiment, runs=2, horizon=3)
    config = ExperimentConfig.from_dict(data)
    run_experiment(config)
    solve = json.loads((tmp_path / "run" / "meta.json").read_text())["reference_solve"]
    # oracle: sweep the exact operator from 0 until its sup-norm step is below
    # tol * (1 - gamma) / gamma, counting sweeps
    model = config.mdp.build()
    gamma = model.discount
    op = itrop.bellman_operator(model) if experiment == "evi" else itrop.q_operator(model)
    x, sweeps = np.zeros(op.dimension), 0
    while True:
        nxt, sweeps = op.apply(x), sweeps + 1
        step = float(np.max(np.abs(nxt - x)))
        if step <= 1e-10 * (1.0 - gamma) / gamma:
            break
        x = nxt
    assert solve == {"method": "value-iteration", "iterations": sweeps, "residual": step,
                     "certified_bound": gamma / (1.0 - gamma) * step,
                     "claimed_modulus": gamma}
    assert solve["certified_bound"] <= 1e-10
    assert np.array_equal(build_family(config).target, nxt)


@pytest.mark.parametrize("experiment", ["lln", "assumptions"])
def test_runs_without_a_solve_record_none(tmp_path, experiment):
    data = evi_config(tmp_path / "run", experiment=experiment, family="evi", runs=2,
                      horizon=3, check={"trials": 100, "pair_count": 2, "grid_size": 1})
    run_experiment(ExperimentConfig.from_dict(data))
    assert "reference_solve" not in json.loads((tmp_path / "run" / "meta.json").read_text())


def test_orbit_curves_of_a_dropped_run_are_nan_from_its_drop_step(tmp_path, monkeypatch):
    patch_unstable_family(monkeypatch, runs_that_diverge={1, 3})
    bundle = itrop.experiments.build_family(
        ExperimentConfig.from_dict(evi_config(tmp_path, runs=5, horizon=6)))
    exact = itrop.iterate_exact(bundle.op, bundle.x0, 6)
    dist, gap, dropped = itrop.orbit_curves(bundle.factory_for(1), exact, bundle.target,
                                            itrop.RngStream(0).child(0, 1), 5, bundle.norm)
    assert dropped == {1: 1, 3: 1}
    for curve in (dist, gap):
        assert np.all(np.isfinite(curve[0]))
        assert np.all(np.isnan(curve[1:, [1, 3]]))
        assert np.all(np.isfinite(curve[:, [0, 2, 4]]))


def test_divergence_within_budget_still_succeeds(tmp_path, monkeypatch):
    patch_unstable_family(monkeypatch, runs_that_diverge={0})
    data = evi_config(tmp_path / "ok", runs=150, horizon=4, sample_sizes=[1])
    result = run_experiment(ExperimentConfig.from_dict(data))
    # 1 of 150 runs is within the 1% budget
    assert result.exit_code == 0
    assert result.divergent_run_count == 1


def test_too_few_survivors_is_fatal(tmp_path, monkeypatch):
    patch_unstable_family(monkeypatch, runs_that_diverge={0, 1, 2})
    data = evi_config(tmp_path / "dead", runs=4, horizon=4, sample_sizes=[1])
    with pytest.raises(itrop.DivergenceError, match="fewer than 2"):
        run_experiment(ExperimentConfig.from_dict(data))


def test_run_and_a2_draw_from_disjoint_keys(tmp_path, monkeypatch):
    # every use of a master seed roots its lineage at its own purpose tag
    keys = []
    op = itrop.ExactOperatorHandle(apply=lambda x: np.asarray(x) / 2.0, dimension=1)

    def realize(stream):
        keys.append((stream.lineage, stream.run))
        return lambda x: np.asarray(x) / 2.0

    def fake_build_family(config, need_target=True):
        factory_for = lambda n: itrop.RandomOperatorFactory(
            sample_size=n, realize=realize, dimension=1)
        return itrop.experiments.FamilyBundle(
            op=op, factory_for=factory_for, target=np.zeros(1),
            x0=np.ones(1), norm="sup")

    monkeypatch.setattr(itrop.experiments, "build_family", fake_build_family)
    run_experiment(ExperimentConfig.from_dict(
        evi_config(tmp_path / "run", runs=3, horizon=4, sample_sizes=[1])))
    run_keys, keys[:] = set(keys), []
    run_experiment(ExperimentConfig.from_dict(
        {"experiment": "assumptions", "family": "evi", "master_seed": 42, "horizon": 4,
         "sample_sizes": [1, 2], "output_dir": str(tmp_path / "chk"),
         "check": {"trials": 100, "pair_count": 2, "grid_size": 1}}))
    a2_keys = {key for key in keys if key[0][0] == itrop.experiments.Purpose.A2}
    assert len(run_keys) == 3 * 4 and len(a2_keys) == 2 * 100
    assert run_keys.isdisjoint(a2_keys)
    assert {lineage[0] for lineage, _ in keys} == {
        itrop.experiments.Purpose.A2, itrop.experiments.Purpose.A3,
        itrop.experiments.Purpose.A5}


def test_lln_experiment_emits_reports(tmp_path):
    data = {"experiment": "lln", "family": "evi", "master_seed": 3,
            "runs": 4, "horizon": 60, "sample_sizes": [2, 8],
            "output_dir": str(tmp_path / "lln"),
            "mdp": {"num_states": 5, "num_actions": 2, "seed": 1, "discount": 0.7}}
    result = run_experiment(ExperimentConfig.from_dict(data))
    assert result.exit_code == 0
    names = sorted(p.name for p in result.output_files)
    assert names == ["lln_n2.json", "lln_n8.json", "meta.json"]
    doc = json.loads((tmp_path / "lln" / "lln_n8.json").read_text())
    assert len(doc["time_averages"]) == 4
    assert doc["spread"] >= 0.0
    assert doc["max_gap_to_tail"] >= 0.0


def test_assumption_suite_evi_all_consistent(tmp_path):
    data = {"experiment": "assumptions", "family": "evi", "master_seed": 11,
            "runs": 2, "horizon": 40, "sample_sizes": [2, 8],
            "output_dir": str(tmp_path / "chk"),
            "mdp": {"num_states": 5, "num_actions": 2, "seed": 1, "discount": 0.7},
            "check": {"trials": 120, "pair_count": 8, "grid_size": 3}}
    result = run_experiment(ExperimentConfig.from_dict(data))
    assert result.exit_code == 0
    assert result.verdicts == {"A2-sup-prob": "consistent",
                               "A3-monotone": "consistent",
                               "A5-contraction-log": "consistent"}
    a5 = json.loads((tmp_path / "chk" / "assumption_A5-contraction-log.json").read_text())
    assert a5["parameters"]["analytic_modulus"] == 0.7
    meta = json.loads((tmp_path / "chk" / "meta.json").read_text())
    assert meta["verdicts"]["A3-monotone"] == "consistent"


def test_assumption_suite_unregularized_sgd_downgrades_a5(tmp_path):
    data = {"experiment": "assumptions", "family": "sgd-logistic", "master_seed": 5,
            "runs": 2, "horizon": 40, "sample_sizes": [8, 32],
            "output_dir": str(tmp_path / "chk0"),
            "regression": {"num_samples": 80, "dim": 4, "seed": 3,
                           "lambda": 0, "beta": 0.05},
            "check": {"trials": 100, "pair_count": 8, "grid_size": 3}}
    result = run_experiment(ExperimentConfig.from_dict(data))
    assert result.verdicts["A5-contraction-log"] in ("inconclusive", "violated")
    a5 = json.loads((tmp_path / "chk0" / "assumption_A5-contraction-log.json").read_text())
    assert a5["parameters"]["analytic_modulus"] is None


# ---------------------------------------------------------------- CLI

def test_cli_run_evi(tmp_path, capsys):
    cfg = write_config(tmp_path, evi_config(tmp_path / "out"))
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "distance_n1.csv" in out and "meta.json" in out
    assert (tmp_path / "out" / "timeavg_n5.csv").exists()


def test_cli_flag_overrides_take_effect(tmp_path):
    cfg = write_config(tmp_path, evi_config(tmp_path / "ignored"))
    override = tmp_path / "flagged"
    assert main(["run", cfg, "--output-dir", str(override), "--seed", "99"]) == 0
    meta = json.loads((override / "meta.json").read_text())
    assert meta["config"]["master_seed"] == 99
    assert "jobs" not in meta["config"]
    assert not (tmp_path / "ignored").exists()


def test_cli_rerun_into_same_directory_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, evi_config(tmp_path / "out"))
    assert main(["run", cfg]) == 0
    first = (tmp_path / "out" / "distance_n5.csv").read_bytes()
    assert main(["run", cfg]) == 0
    assert (tmp_path / "out" / "distance_n5.csv").read_bytes() == first


def test_cli_config_errors_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["run", missing]) == 1
    bad = write_config(tmp_path, evi_config(tmp_path / "o", typo_key=1), "bad.json")
    assert main(["run", bad]) == 1
    err = capsys.readouterr().err
    assert "typo_key" in err


def test_cli_divergence_exits_two(tmp_path, capsys):
    # a deliberately huge step size: the Newton reference solve does not use
    # beta and converges, but the exact gradient-descent orbit blows up
    data = sgd_config(tmp_path / "d", experiment="sgd-poisson",
                      regression={"num_samples": 40, "dim": 3, "seed": 5,
                                  "beta": 1e6})
    cfg = write_config(tmp_path, data)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "runtime failure: orbit diverged at step" in err
    assert "reference solve" not in err


def test_cli_reference_solve_failure_exits_two(tmp_path, capsys, monkeypatch):
    # the 60 x 4 logistic problem needs 2 Newton steps; allow 1
    newton = itrop.experiments._newton_minimizer
    monkeypatch.setattr(itrop.experiments, "_newton_minimizer",
                        lambda problem, tol: newton(problem, tol, max_iterations=1))
    cfg = write_config(tmp_path, sgd_config(tmp_path / "d"))
    assert main(["run", cfg]) == 2
    assert "runtime failure: reference solve did not converge" in capsys.readouterr().err


def test_cli_check_evi_exits_zero(tmp_path, capsys):
    data = {"experiment": "assumptions", "family": "evi", "master_seed": 11,
            "runs": 2, "horizon": 40, "sample_sizes": [2, 8],
            "output_dir": str(tmp_path / "chk"),
            "mdp": {"num_states": 5, "num_actions": 2, "seed": 1, "discount": 0.7},
            "check": {"trials": 120, "pair_count": 8, "grid_size": 3}}
    assert main(["check", write_config(tmp_path, data)]) == 0
    out = capsys.readouterr().out
    assert "A2-sup-prob: consistent" in out
    assert "A5-contraction-log: consistent" in out


def test_cli_check_sgd_monotonicity_violation_exits_three(tmp_path, capsys):
    data = {"experiment": "assumptions", "family": "sgd-logistic", "master_seed": 5,
            "runs": 2, "horizon": 30, "sample_sizes": [8],
            "output_dir": str(tmp_path / "chk"),
            "regression": {"num_samples": 80, "dim": 4, "seed": 3},
            "check": {"trials": 100, "pair_count": 8, "grid_size": 3}}
    assert main(["check", write_config(tmp_path, data)]) == 3
    assert "A3-monotone: violated" in capsys.readouterr().out


def test_cli_gen_mdp_is_reproducible(tmp_path, capsys):
    out1, out2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    args = ["gen", "mdp", "--num-states", "4", "--num-actions", "2",
            "--seed", "3", "--out"]
    assert main(args + [out1]) == 0
    assert main(args + [out2]) == 0
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
    model = itrop.load_model(out1)
    assert model.num_states == 4
    assert out1 in capsys.readouterr().out


def test_cli_gen_dataset_is_reproducible(tmp_path):
    out1, out2 = str(tmp_path / "d1.csv"), str(tmp_path / "d2.csv")
    args = ["gen", "dataset", "--family", "poisson", "--num-samples", "30",
            "--dim", "4", "--seed", "8", "--out"]
    assert main(args + [out1]) == 0
    assert main(args + [out2]) == 0
    assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()
    ds = itrop.load_csv_dataset(out1, "poisson")
    assert ds.num_samples == 30 and ds.dim == 4


def test_cli_gen_invalid_params_exit_one(tmp_path, capsys):
    out = str(tmp_path / "m.json")
    assert main(["gen", "mdp", "--num-states", "0", "--num-actions", "2",
                 "--seed", "3", "--out", out]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_run_lln_config(tmp_path, capsys):
    data = {"experiment": "lln", "family": "evi", "master_seed": 3,
            "runs": 3, "horizon": 40, "sample_sizes": [4],
            "output_dir": str(tmp_path / "lln"),
            "mdp": {"num_states": 5, "num_actions": 2, "seed": 1, "discount": 0.7}}
    assert main(["run", write_config(tmp_path, data)]) == 0
    assert (tmp_path / "lln" / "lln_n4.json").exists()
