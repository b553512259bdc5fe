import json
import logging
import math
import re
import runpy
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import itrop
from conftest import block_fake, on_cpus
from itrop.cli import main
from itrop.core import ConfigurationError
from itrop.experiments import (ExperimentConfig, build_family, run_assumption_suite,
                               run_experiment)


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
    ({"horizon": 10 ** 20}, "horizon"),
    ({"sample_sizes": [10 ** 20]}, "sample_sizes"),
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
    bad.write_bytes(bytes(range(128, 256)))  # not UTF-8
    with pytest.raises(ConfigurationError, match="cannot read"):
        ExperimentConfig.from_json(bad)


def test_config_nested_too_deep_is_invalid_json(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ConfigurationError, match=re.escape(f"{deep}: invalid JSON")):
        ExperimentConfig.from_json(deep)

@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("section,key", [("regression", "beta"), ("regression", "lambda"),
                                         ("regression", "region_radius"), ("check", "eps"),
                                         ("mdp", "discount")])
def test_config_rejects_non_finite_numbers(tmp_path, section, key, value):
    data = evi_config(tmp_path) if section != "regression" else sgd_config(tmp_path)
    data[section] = {**data.get(section, {}), key: value}
    with pytest.raises(ConfigurationError, match=key):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "1e999"])
def test_cli_rejects_a_non_finite_config_number(tmp_path, capsys, text):
    data = sgd_config(tmp_path / "o", regression={"num_samples": 30, "dim": 3,
                                                  "region_radius": "X"})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data).replace('"X"', text))
    assert main(["run", str(path)]) == 1
    # the strict reader names the file; 1e999 overflows to inf, and the table names the key
    expected = ("key 'region_radius' must be a finite number, got inf" if text == "1e999"
                else f"{path}: invalid JSON ({text} is not a JSON number")
    assert capsys.readouterr().err.startswith(f"config error: {expected}")
    assert not (tmp_path / "o").exists()


def test_output_dir_override_is_checked_like_the_config(tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_dict(sgd_config(tmp_path))
    assert cfg.with_overrides(seed=9, output_dir="x") == replace(cfg, master_seed=9,
                                                                 output_dir="x")
    with pytest.raises(ConfigurationError, match="'output_dir' must be a string"):
        cfg.with_overrides(output_dir="")
    path = write_config(tmp_path, evi_config(tmp_path / "o", runs=2, horizon=3))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", path, "--output-dir", ""]) == 1
    assert list(cwd.iterdir()) == []


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DESK_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


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
    assert evi.op.norm == "sup" and evi.op.dimension == 6
    assert [f.norm for f in evi.factories] == ["sup"] * len(evi.factories)
    assert itrop.row_norm(evi.op.apply(evi.target) - evi.target, "sup") <= 1e-9

    qvi = build_family(ExperimentConfig.from_dict(
        evi_config(tmp_path, experiment="qvi")))
    assert qvi.op.dimension == 18  # states x actions, flattened
    assert {qvi.op.norm} | {f.norm for f in qvi.factories} == {"sup"}

    sgd = build_family(ExperimentConfig.from_dict(sgd_config(tmp_path)))
    assert sgd.op.norm == "l2" and sgd.op.dimension == 4
    assert [f.norm for f in sgd.factories] == ["l2"] * len(sgd.factories)
    assert sgd.op.claimed_modulus is not None and sgd.op.claimed_modulus < 1.0
    assert itrop.row_norm(sgd.op.apply(sgd.target) - sgd.target, "l2") <= 1e-7


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
    problem, bounds = cfg.regression.build()
    assert bounds == itrop.eigen_bounds(problem)
    assert problem.beta == 1.0 / bounds.upper
    assert problem.lam == 5.0  # family default when omitted
    assert build_family(cfg).op.claimed_modulus == itrop.contraction_coefficient(
        bounds, problem.beta)


def test_regression_spec_holds_its_family_and_resolved_lambda(tmp_path):
    for experiment, lam in (("sgd-logistic", 5.0), ("sgd-poisson", 1.0)):
        spec = ExperimentConfig.from_dict({**sgd_config(tmp_path),
                                           "experiment": experiment}).regression
        assert (spec.family, spec.lam) == (experiment.split("-")[1], lam)
        assert spec.to_dict()["lambda"] == lam
        assert spec.build()[0].family == spec.family
    lln = ExperimentConfig.from_dict({"experiment": "lln", "family": "sgd-poisson",
                                      "master_seed": 1, "sample_sizes": [2],
                                      "regression": {"lambda": 0.5}})
    assert (lln.regression.family, lln.regression.lam) == ("poisson", 0.5)


def test_unregularized_problem_has_no_curvature_bounds(tmp_path):
    source = {"num_samples": 60, "dim": 4, "seed": 1, "lambda": 0}
    explicit = ExperimentConfig.from_dict(sgd_config(tmp_path,
                                                     regression={**source, "beta": 0.05}))
    problem, bounds = explicit.regression.build()
    assert bounds is None and problem.beta == 0.05 and problem.lam == 0.0
    auto = ExperimentConfig.from_dict(sgd_config(tmp_path, regression=source))
    with pytest.raises(ConfigurationError, match="lam > 0"):
        auto.regression.build()


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
    """Swap in a dimension-1 halving family, measured in sup norm, whose
    designated runs blow up."""
    op = itrop.ExactOperatorHandle(apply=lambda x: np.asarray(x) / 2.0, dimension=1,
                                   norm="sup")

    def move(runs, z):
        # the engine draws the runs of step stream (RUN, n, k-1); the fake's draws are the runs
        blows_up = np.isin(runs, list(runs_that_diverge))[:, None, None]
        return np.where(blows_up, z * 1e13, z / 2.0)

    def fake_build_family(config, need_target=True):
        factories = tuple(block_fake(1, move, sample_size=n, norm="sup")
                          for n in config.sample_sizes)
        return itrop.experiments.FamilyBundle(
            op=op, factories=factories, target=np.zeros(1), x0=np.ones(1))

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
    dist, gap, dropped = itrop.orbit_curves(bundle.factories[0], exact, bundle.target,
                                            itrop.RngStream(0).child(0, 1), 5)
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
    op = itrop.ExactOperatorHandle(apply=lambda x: np.asarray(x) / 2.0, dimension=1,
                                   norm="sup")

    def draw(stream, runs):
        keys.extend((stream.lineage, r) for r in runs.tolist())
        return runs

    def fake_build_family(config, need_target=True):
        factories = tuple(block_fake(1, lambda runs, z: z / 2.0, draw=draw, sample_size=n,
                                     norm="sup")
                          for n in config.sample_sizes)
        return itrop.experiments.FamilyBundle(
            op=op, factories=factories, target=np.zeros(1), x0=np.ones(1))

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


def unregularized_sgd_checks(out_dir):
    """An assumptions config of an SGD family without a contraction certificate."""
    return {"experiment": "assumptions", "family": "sgd-logistic", "master_seed": 5,
            "runs": 2, "horizon": 40, "sample_sizes": [8, 32],
            "output_dir": str(out_dir),
            "regression": {"num_samples": 80, "dim": 4, "seed": 3,
                           "lambda": 0, "beta": 0.05},
            "check": {"trials": 100, "pair_count": 8, "grid_size": 3}}


def test_assumption_suite_unregularized_sgd_downgrades_a5(tmp_path):
    data = unregularized_sgd_checks(tmp_path / "chk0")
    result = run_experiment(ExperimentConfig.from_dict(data))
    assert result.verdicts["A5-contraction-log"] in ("inconclusive", "violated")
    a5 = json.loads((tmp_path / "chk0" / "assumption_A5-contraction-log.json").read_text())
    assert a5["parameters"]["analytic_modulus"] is None


@pytest.mark.parametrize("family, code", [("assumptions_evi", 0), ("unregularized_sgd", 3)])
def test_a5_report_of_the_library_is_the_one_itrop_check_writes(tmp_path, family, code):
    # the desk family's certificate reads consistent; the SGD family has none
    # (and an SGD step is not monotone, so A3 exits 3)
    if family == "assumptions_evi":
        data = json.loads((CONFIG_DIR / "assumptions_evi.json").read_text())
        data["output_dir"] = str(tmp_path / "cli")
    else:
        data = unregularized_sgd_checks(tmp_path / "cli")
    assert main(["check", write_config(tmp_path, data)]) == code
    # the A5 call as the suite makes it
    config = ExperimentConfig.from_dict(data)
    bundle = build_family(config, need_target=False)
    box = itrop.Box.around(itrop.iterate_exact(bundle.op, bundle.x0, config.horizon))
    report = itrop.check_contraction_log(
        bundle.op, bundle.factories[0], config.check.pair_count, config.check.trials, box,
        itrop.RngStream(config.master_seed).child(itrop.experiments.Purpose.A5))
    itrop.core.write_json(tmp_path / "library.json", asdict(report))
    assert ((tmp_path / "library.json").read_bytes()
            == (tmp_path / "cli" / "assumption_A5-contraction-log.json").read_bytes())


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


def test_cli_lln_divergence_exits_two(tmp_path, capsys):
    # a step size far past 2/L blows the randomized orbits up
    data = {"experiment": "lln", "family": "sgd-poisson", "master_seed": 3,
            "runs": 3, "horizon": 60, "sample_sizes": [4], "output_dir": str(tmp_path / "lln"),
            "regression": {"num_samples": 200, "dim": 8, "seed": 9, "beta": 50}}
    assert main(["run", write_config(tmp_path, data)]) == 2
    assert "runtime failure: orbit diverged at step" in capsys.readouterr().err
    assert not (tmp_path / "lln" / "lln_n4.json").exists()


def test_cli_reference_solve_failure_exits_two(tmp_path, capsys, monkeypatch):
    # the 60 x 4 logistic problem needs 2 Newton steps; allow 1
    newton = itrop.experiments.solve_reference_minimizer
    monkeypatch.setattr(itrop.experiments, "solve_reference_minimizer",
                        lambda problem, tol: newton(problem, tol, max_iterations=1))
    cfg = write_config(tmp_path, sgd_config(tmp_path / "d"))
    assert main(["run", cfg]) == 2
    assert "runtime failure: reference solve did not converge" in capsys.readouterr().err


def test_cli_value_iteration_failure_exits_two(tmp_path, capsys, monkeypatch):
    # the 6-state model at discount 0.8 needs about a hundred sweeps; allow 1
    solve = itrop.experiments.solve_exact
    monkeypatch.setattr(itrop.experiments, "solve_exact",
                        lambda op, tol: solve(op, tol, max_iterations=1))
    cfg = write_config(tmp_path, evi_config(tmp_path / "d"))
    assert main(["run", cfg]) == 2
    assert "runtime failure: reference solve did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["evi", "sgd-logistic"])
@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
def test_cli_unreadable_data_file_is_a_config_error(tmp_path, capsys, family, kind):
    source = tmp_path / "data"
    if kind == "directory":
        source.mkdir()
    elif kind == "binary":
        source.write_bytes(bytes(range(128, 256)))
    if family == "evi":
        data = evi_config(tmp_path / "o", mdp={"path": str(source)})
    else:
        data = sgd_config(tmp_path / "o", regression={"path": str(source)})
    assert main(["run", write_config(tmp_path, data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {source}")


LLN_EVI = {"experiment": "lln", "family": "evi", "master_seed": 3, "runs": 3, "horizon": 40,
           "sample_sizes": [4],
           "mdp": {"num_states": 5, "num_actions": 2, "seed": 1, "discount": 0.7}}
CHECK_EVI = {"experiment": "assumptions", "family": "evi", "master_seed": 11, "runs": 2,
             "horizon": 40, "sample_sizes": [2, 8],
             "mdp": {"num_states": 5, "num_actions": 2, "seed": 1, "discount": 0.7},
             "check": {"trials": 120, "pair_count": 8, "grid_size": 3}}


@pytest.mark.parametrize("kind", ["empty", "missing-directory", "under-a-file",
                                  "output-dir-is-a-file", "lln-output-dir-is-a-file",
                                  "check-output-dir-is-a-file"])
def test_cli_unwritable_output_path_is_a_config_error(tmp_path, capsys, monkeypatch, kind):
    # every experiment kind makes its output directory before any work
    monkeypatch.setattr(itrop.experiments, "build_family",
                        lambda *args, **kwargs: pytest.fail("work began before the "
                                                            "output directory was made"))
    (tmp_path / "file").write_text("")
    target = {"empty": "", "missing-directory": str(tmp_path / "absent" / "m.json"),
              "under-a-file": str(tmp_path / "file" / "m.json")}.get(kind, str(tmp_path / "file"))
    if kind == "output-dir-is-a-file":
        args = ["run", write_config(tmp_path, evi_config(target))]
    elif kind == "lln-output-dir-is-a-file":
        args = ["run", write_config(tmp_path, {**LLN_EVI, "output_dir": target})]
    elif kind == "check-output-dir-is-a-file":
        args = ["check", write_config(tmp_path, {**CHECK_EVI, "output_dir": target})]
    else:
        args = ["gen", "mdp", "--num-states", "4", "--num-actions", "2", "--seed", "3",
                "--out", target]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot write {Path(target)}")


@pytest.mark.parametrize("sizes", [{"horizon": 2 ** 62}, {"runs": 2 ** 62, "horizon": 1}],
                         ids=["horizon", "runs"])
def test_cli_arrays_too_large_to_index_are_a_config_error(tmp_path, capsys, sizes):
    data = evi_config(tmp_path / "o", **{"runs": 2, "mdp": {"num_states": 3, "num_actions": 2},
                                         **sizes})
    assert main(["run", write_config(tmp_path, data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: 'horizon'") and "'runs'" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("key", ["grid_size", "pair_count", "trials"])
def test_cli_check_arrays_too_large_to_index_are_a_config_error(tmp_path, capsys, monkeypatch,
                                                                key):
    # refused before the exact orbit and before any checker runs
    monkeypatch.setattr(itrop.experiments, "iterate_exact", None)
    data = evi_config(tmp_path / "o", runs=2, horizon=3, check={key: 2 ** 62},
                      mdp={"num_states": 3, "num_actions": 2})
    assert main(["check", write_config(tmp_path, data)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: 'check.{key}' {2 ** 62} needs arrays too large to index\n"


SYNTHETIC_TOO_LARGE = {
    "gen-mdp": ["gen", "mdp", "--num-states", str(10 ** 10), "--num-actions", "1"],
    "gen-dataset": ["gen", "dataset", "--family", "logistic", "--num-samples", "10",
                    "--dim", str(2 ** 62)],
    "run-mdp": {"mdp": {"num_states": 10 ** 10, "num_actions": 1}},
    "run-regression": {"experiment": "sgd-logistic", "mdp": None,
                       "regression": {"num_samples": 10, "dim": 2 ** 62}},
}


@pytest.mark.parametrize("case", sorted(SYNTHETIC_TOO_LARGE))
def test_cli_synthetic_inputs_too_large_to_index_are_a_config_error(tmp_path, capsys,
                                                                    monkeypatch, case):
    # refused before the seeded generator draws anything
    monkeypatch.setattr(itrop.mdp, "RngStream", None)
    monkeypatch.setattr(itrop.regression, "RngStream", None)
    given = SYNTHETIC_TOO_LARGE[case]
    if case.startswith("gen"):
        args = given + ["--seed", "0", "--out", str(tmp_path / "asset")]
    else:
        data = {k: v for k, v in {**evi_config(tmp_path / "o"), **given}.items()
                if v is not None}
        args = ["run", write_config(tmp_path, data)]
    assert main(args) == 1
    err = capsys.readouterr().err
    sizes = ("an MDP of 10000000000 states and 1 actions" if "mdp" in case
             else f"a dataset of 10 samples of dimension {2 ** 62}")
    assert err == f"config error: {sizes} needs arrays too large to index\n"
    assert not (tmp_path / "asset").exists()


@pytest.mark.parametrize("experiment", ["sgd-logistic", "lln"])
def test_cli_sample_size_above_the_dataset_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                                 experiment):
    # every rung's factory is built before the reference solve and before the
    # first rung runs, so no rung's files are written
    monkeypatch.setattr(itrop.experiments, "solve_reference_minimizer", None)
    monkeypatch.setattr(itrop.experiments, "iterate_exact", None)
    data = sgd_config(tmp_path / "o", sample_sizes=[4, 16, 100])
    if experiment == "lln":
        data.update(experiment="lln", family="sgd-logistic")
    assert main(["run", write_config(tmp_path, data)]) == 1
    assert capsys.readouterr().err == "config error: batch_size must lie in [1, 60], got 100\n"
    assert not list((tmp_path / "o").iterdir())


def test_cli_run_refuses_a_single_run_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(itrop.experiments, "build_family", None)
    assert main(["run", write_config(tmp_path, evi_config(tmp_path / "o", runs=1))]) == 1
    err = capsys.readouterr().err
    assert err == "config error: need at least 2 runs for ensemble statistics\n"
    assert not list((tmp_path / "o").iterdir())


@pytest.mark.parametrize("key", ["runs", "horizon"])
def test_cli_lln_refuses_a_single_run_or_step_before_any_work(tmp_path, capsys, monkeypatch,
                                                             key):
    monkeypatch.setattr(itrop.experiments, "build_family", None)
    data = evi_config(tmp_path / "o", experiment="lln", family="evi", **{key: 1})
    assert main(["run", write_config(tmp_path, data)]) == 1
    assert capsys.readouterr().err == f"config error: {key} must be >= 2\n"
    assert not list((tmp_path / "o").iterdir())


@pytest.mark.parametrize("discount", ["0", "1", "2", "nan"])
def test_cli_gen_mdp_checks_the_discount_before_drawing(tmp_path, capsys, monkeypatch, discount):
    monkeypatch.setattr(itrop.mdp, "RngStream", None)
    args = ["gen", "mdp", "--num-states", "1500", "--num-actions", "5", "--discount", discount,
            "--seed", "0", "--out", str(tmp_path / "m.json")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"config error: discount must lie in (0, 1), got {float(discount)!r}\n"
    assert not (tmp_path / "m.json").exists()


def test_cli_check_trials_no_memory_holds_exit_two_at_once(tmp_path, capsys):
    # the checkers plan their chunks as they draw them, so the first array
    # sized by trials is the first checker's rows: (2**55, 5) flags, which no
    # address space holds, whatever the host's overcommit
    data = evi_config(tmp_path / "o", runs=2, horizon=3, check={"trials": 2 ** 55},
                      mdp={"num_states": 3, "num_actions": 2})
    begun = time.perf_counter()
    assert main(["check", write_config(tmp_path, data)]) == 2
    assert time.perf_counter() - begun < 5
    assert capsys.readouterr().err.startswith("runtime failure: Unable to allocate")


@pytest.mark.parametrize("message,shown", [("Unable to allocate 24.0 TiB",
                                            "Unable to allocate 24.0 TiB"),
                                           ("", "out of memory")], ids=["numpy", "bare"])
def test_cli_out_of_memory_is_a_runtime_failure(tmp_path, capsys, monkeypatch, message, shown):
    # the allocation is faked: whether a real one fails depends on the host's overcommit
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(itrop.experiments, "iterate_exact", exhausted)
    data = evi_config(tmp_path / "o", runs=2, horizon=2 ** 40,
                      mdp={"num_states": 3, "num_actions": 2})
    assert main(["run", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"runtime failure: {shown}\n"


def test_check_of_a_trajectory_config_matches_the_assumptions_route(tmp_path, capsys):
    # `itrop check` on an evi config and `itrop run` on the same family's
    # assumptions config run one suite
    trajectory = {k: v for k, v in CHECK_EVI.items() if k != "family"}
    routes = {"check": write_config(tmp_path, {**trajectory, "experiment": "evi",
                                               "output_dir": str(tmp_path / "check")}, "c.json"),
              "run": write_config(tmp_path, {**CHECK_EVI, "output_dir": str(tmp_path / "run")},
                                  "r.json")}
    for command, cfg in routes.items():
        assert main([command, cfg]) == 0
    reports = sorted(p.name for p in (tmp_path / "run").glob("assumption_*.json"))
    assert len(reports) == 3
    assert sorted(p.name for p in (tmp_path / "check").glob("assumption_*.json")) == reports
    for name in reports:
        assert (tmp_path / "check" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
    verdicts = [json.loads((tmp_path / route / "meta.json").read_text())["verdicts"]
                for route in routes]
    assert verdicts[0] == verdicts[1] and set(verdicts[0].values()) == {"consistent"}


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


AUDIT_LADDER = [1, 16, 256]  # the audit-evi benchmark's shapes: S=20, A=5, 16 pairs, grid 5


def audit_config(out_dir, model_path, trials):
    return {"experiment": "assumptions", "family": "evi", "master_seed": 17,
            "horizon": 200, "sample_sizes": AUDIT_LADDER, "output_dir": str(out_dir),
            "mdp": {"path": str(model_path)},
            "check": {"trials": trials, "eps": 0.25, "pair_count": 16, "grid_size": 5}}


@pytest.mark.parametrize("trials", [100, 1000])
def test_assumption_suite_derives_one_stream_per_checker(tmp_path, monkeypatch, trials):
    # the grid, the A3 pairs, A2 per sample size, A3, and A5's realization and
    # pairs: trial t reads run t of its checker's stream, so the count does not
    # grow with trials (the model comes from a file and draws no stream), nor
    # with the threads that draw the n=256 rung ahead
    model_path = tmp_path / "model.json"
    itrop.save_model(itrop.random_mdp(20, 5, seed=4), model_path)
    built = []

    class CountingSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("spawn_key"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        built.clear()
        result = run_experiment(ExperimentConfig.from_dict(
            audit_config(tmp_path / f"chk{cpus}", model_path, trials)))
        assert "violated" not in result.verdicts.values()
        assert len(built) <= len(AUDIT_LADDER) + 5


def test_check_meta_counts_the_realizations_each_checker_drew(tmp_path):
    model_path = tmp_path / "model.json"
    itrop.save_model(itrop.random_mdp(20, 5, seed=4), model_path)
    trials = 100
    run_experiment(ExperimentConfig.from_dict(audit_config(tmp_path / "chk", model_path,
                                                           trials)))
    meta = json.loads((tmp_path / "chk" / "meta.json").read_text())
    assert meta["realizations_drawn"] == (
        [{"assumption_id": "A2-sup-prob", "sample_size": n, "count": trials}
         for n in AUDIT_LADDER]
        + [{"assumption_id": "A3-monotone", "sample_size": 1, "count": trials},
           {"assumption_id": "A5-contraction-log", "sample_size": 1, "count": trials}])
    # the figure the benchmark's realizations_per_s divides by
    total = sum(entry["count"] for entry in meta["realizations_drawn"])
    assert total == trials * len(AUDIT_LADDER) + 2 * trials


def test_lln_meta_counts_runs_times_horizon(tmp_path):
    data = {"experiment": "lln", "family": "evi", "master_seed": 3,
            "runs": 3, "horizon": 40, "sample_sizes": [2, 8],
            "output_dir": str(tmp_path / "lln"),
            "mdp": {"num_states": 5, "num_actions": 2, "seed": 1, "discount": 0.7}}
    run_experiment(ExperimentConfig.from_dict(data))
    meta = json.loads((tmp_path / "lln" / "meta.json").read_text())
    assert meta["realizations_drawn"] == [{"sample_size": 2, "count": 120},
                                          {"sample_size": 8, "count": 120}]


def test_summarize_run_prints_a_check_s_verdicts_and_counts(tmp_path, monkeypatch, capsys):
    # a check by either route (an assumptions config, or `check` on an evi
    # config), then an lln audit
    script = Path(__file__).resolve().parent.parent / "scripts" / "summarize_run.py"
    trajectory = {k: v for k, v in CHECK_EVI.items() if k != "family"}
    for name, data in (("chk", CHECK_EVI), ("chk-evi", {**trajectory, "experiment": "evi"}),
                       ("lln", LLN_EVI)):
        config = ExperimentConfig.from_dict({**data, "output_dir": str(tmp_path / name)})
        (run_experiment if name == "lln" else run_assumption_suite)(config)
        monkeypatch.setattr("sys.argv", ["summarize_run.py", str(tmp_path / name)])
        runpy.run_path(str(script), run_name="__main__")
        out = capsys.readouterr().out
        if name == "lln":
            audit = json.loads((tmp_path / "lln" / "lln_n4.json").read_text())
            assert (f"lln n=4: tail mean {audit['tail_mean']:.4g}+/-{audit['tail_se']:.1g}  "
                    f"spread {audit['spread']:.4g}  max gap to tail "
                    f"{audit['max_gap_to_tail']:.4g}") in out
            continue
        assert "runs=" not in out  # a check draws no orbits
        assert "check family=evi trials=120" in out
        for line in ("A2-sup-prob: consistent", "A3-monotone: consistent",
                     "A5-contraction-log: consistent",
                     "A2-sup-prob n=2: 120", "A2-sup-prob n=8: 120", "A3-monotone n=2: 120",
                     "A5-contraction-log n=2: 120"):
            assert line in out, (name, line)


def test_run_all_desk_prints_each_config_s_exit_code_and_wall_seconds(tmp_path, monkeypatch,
                                                                      capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_all_desk.py"
    desk = runpy.run_path(str(script))
    (tmp_path / "evi.json").write_text(json.dumps(evi_config(tmp_path / "out", runs=2,
                                                             horizon=3)))
    desk["JOBS"][:] = [("run", "evi.json")]
    monkeypatch.setattr("sys.argv", ["run_all_desk.py", "--configs", str(tmp_path)])
    assert desk["main"]() == 0
    assert re.search(r"^== exit 0  wall \d+\.\d\d s$", capsys.readouterr().out, re.MULTILINE)


def test_full_scale_configs_parse_with_the_run_count_asked_for(tmp_path, monkeypatch, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "full_scale_configs.py"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", ["full_scale_configs.py", "--out", "tmp", "--runs", "3"])
    runpy.run_path(str(script), run_name="__main__")
    emitted = capsys.readouterr().out.split()
    assert sorted(emitted) == sorted(str(p) for p in Path("tmp").glob("*.json"))
    assert len(emitted) == 4
    for path in emitted:
        assert ExperimentConfig.from_json(path).runs == 3
        # each full config is its desk config at full scale
        full = json.loads(Path(path).read_text())
        desk = json.loads((script.parent.parent / "configs" / Path(path).name.replace(
            "_full", "_desk")).read_text())
        scale = {"runs": 3, "horizon": 1000, "output_dir": f"out/{Path(path).stem}"}
        assert full == {**desk, **scale}
    # without --runs every config asks for 1000 runs
    monkeypatch.setattr("sys.argv", ["full_scale_configs.py", "--out", "default"])
    runpy.run_path(str(script), run_name="__main__")
    assert len(capsys.readouterr().out.split()) == 4
    assert {json.loads(p.read_text())["runs"] for p in Path("default").glob("*.json")} == {1000}
    # run needs two runs: fewer is a usage error, and no config is written
    for runs in ("1", "0", "-3"):
        monkeypatch.setattr("sys.argv", ["full_scale_configs.py", "--out", "few", "--runs", runs])
        with pytest.raises(SystemExit) as refused:
            runpy.run_path(str(script), run_name="__main__")
        assert refused.value.code == 2
        assert f"error: --runs must be >= 2, got {runs}\n" in capsys.readouterr().err
        assert not Path("few").exists()
