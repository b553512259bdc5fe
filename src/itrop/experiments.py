"""Experiment configuration, orchestration, and file emission for the CLI."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field, replace
from enum import IntEnum
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .analysis import (AssumptionReport, Box, VERDICT_INCONCLUSIVE, VERDICT_CONSISTENT,
                       VERDICT_VIOLATED, check_contraction_log, check_monotone,
                       check_sup_probability, ensemble, lln_audit, orbit_curves)
from .core import (ConfigurationError, DivergenceError, ExactOperatorHandle,
                   RandomOperatorFactory, RngStream, iterate_exact, row_norm, write_atomic)
from .mdp import (MdpModel, _value_iteration, bellman_operator, empirical_bellman_factory,
                  empirical_q_factory, load_model, q_operator, random_mdp)
from .regression import (EigenBounds, RegressionProblem, _newton_minimizer, eigen_bounds,
                         exact_gd_operator, load_csv_dataset, sgd_factory, synth_dataset)

log = logging.getLogger("itrop")

SCHEMA_VERSION = 1

FAMILY_EXPERIMENTS = ("evi", "qvi", "sgd-logistic", "sgd-poisson")
EXPERIMENTS = FAMILY_EXPERIMENTS + ("assumptions", "lln")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGENCE = 2
EXIT_ASSUMPTION = 3

# Runs are dropped (and counted) when their orbit diverges; beyond this
# fraction the whole experiment is reported as divergent.
DIVERGENCE_BUDGET = 0.01


class Purpose(IntEnum):
    """First index of every stream lineage an experiment draws from: each use
    has its own tag, so no two uses of one master seed share draws."""

    RUN = 0        # (RUN, n, step), read per run
    LLN = 1        # (LLN, n, step), read per run
    GRID = 2       # the assumption grid
    A2 = 3         # (A2, factory, trial)
    A3_PAIRS = 4   # the ordered pairs of the monotonicity check
    A3 = 5         # (A3, trial)
    A5 = 6         # (A5, trial, 0 | 1)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigurationError(message)


def _int_field(data: dict, key: str, default=None, minimum: int | None = None):
    value = data.get(key, default)
    _require(value is not None, f"missing required key {key!r}")
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"key {key!r} must be an integer, got {value!r}")
    if minimum is not None:
        _require(value >= minimum, f"key {key!r} must be >= {minimum}, got {value}")
    return value


def _float_field(data: dict, key: str, default=None):
    value = data.get(key, default)
    _require(value is not None, f"missing required key {key!r}")
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"key {key!r} must be a number, got {value!r}")
    return float(value)


def _check_keys(data: dict, allowed: set, where: str) -> None:
    unknown = set(data) - allowed
    _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")


@dataclass(frozen=True)
class MdpSpec:
    """Where the MDP comes from: a JSON file, or a seeded random instance."""

    path: str | None = None
    num_states: int = 20
    num_actions: int = 5
    discount: float = 0.9
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "MdpSpec":
        _require(isinstance(data, dict), "'mdp' must be an object")
        if "path" in data:
            _check_keys(data, {"path"}, "mdp")
            _require(isinstance(data["path"], str), "'mdp.path' must be a string")
            return cls(path=data["path"])
        _check_keys(data, {"num_states", "num_actions", "discount", "seed"}, "mdp")
        spec = cls(num_states=_int_field(data, "num_states", default=20, minimum=1),
                   num_actions=_int_field(data, "num_actions", default=5, minimum=1),
                   discount=_float_field(data, "discount", default=0.9),
                   seed=_int_field(data, "seed", default=0, minimum=0))
        _require(0.0 < spec.discount < 1.0, "'mdp.discount' must lie in (0, 1)")
        return spec

    def build(self) -> MdpModel:
        if self.path is not None:
            return load_model(self.path)
        return random_mdp(self.num_states, self.num_actions, self.seed, self.discount)

    def to_dict(self) -> dict:
        if self.path is not None:
            return {"path": self.path}
        return {"num_states": self.num_states, "num_actions": self.num_actions,
                "discount": self.discount, "seed": self.seed}


@dataclass(frozen=True)
class RegressionSpec:
    """Where the dataset comes from plus loss and step-size parameters."""

    path: str | None = None
    num_samples: int = 1000
    dim: int = 20
    seed: int = 0
    lam: float | None = None           # default depends on the family
    beta: float | str = "auto"         # "auto" resolves to 1 / upper curvature bound
    sampling: str = "with_replacement"
    region_radius: float = 1.0

    _SOURCE_KEYS = {"num_samples", "dim", "seed"}
    _PARAM_KEYS = {"lambda", "beta", "sampling", "region_radius"}

    @classmethod
    def from_dict(cls, data: dict) -> "RegressionSpec":
        _require(isinstance(data, dict), "'regression' must be an object")
        if "path" in data:
            _check_keys(data, {"path"} | cls._PARAM_KEYS, "regression")
            _require(isinstance(data["path"], str), "'regression.path' must be a string")
            source = {"path": data["path"]}
        else:
            _check_keys(data, cls._SOURCE_KEYS | cls._PARAM_KEYS, "regression")
            source = {"num_samples": _int_field(data, "num_samples", default=1000, minimum=1),
                      "dim": _int_field(data, "dim", default=20, minimum=2),
                      "seed": _int_field(data, "seed", default=0, minimum=0)}
        lam = None
        if "lambda" in data:
            lam = _float_field(data, "lambda")
            _require(lam >= 0, "'regression.lambda' must be >= 0")
        beta = data.get("beta", "auto")
        if beta != "auto":
            _require(isinstance(beta, (int, float)) and not isinstance(beta, bool)
                     and beta > 0, "'regression.beta' must be 'auto' or a positive number")
            beta = float(beta)
        sampling = data.get("sampling", "with_replacement")
        _require(sampling in ("with_replacement", "without_replacement"),
                 f"'regression.sampling' invalid: {sampling!r}")
        radius = _float_field(data, "region_radius", default=1.0)
        _require(radius > 0, "'regression.region_radius' must be positive")
        return cls(lam=lam, beta=beta, sampling=sampling,
                   region_radius=radius, **source)

    def resolved_lam(self, family: str) -> float:
        if self.lam is not None:
            return self.lam
        return 5.0 if family == "logistic" else 1.0

    def build(self, family: str) -> tuple[RegressionProblem, EigenBounds | None]:
        """The problem and its curvature bounds; lam == 0 gives none (no
        contraction certificate), which beta "auto" cannot resolve."""
        if self.path is not None:
            dataset = load_csv_dataset(self.path, family)
        else:
            dataset = synth_dataset(self.num_samples, self.dim, family, self.seed)
        auto = self.beta == "auto"
        problem = RegressionProblem(dataset=dataset, family=family,
                                    lam=self.resolved_lam(family),
                                    beta=1.0 if auto else self.beta)
        if problem.lam == 0.0 and not auto:
            return problem, None
        bounds = eigen_bounds(problem, self.region_radius)  # raises at lam == 0
        if auto:
            problem = replace(problem, beta=1.0 / bounds.upper)
        return problem, bounds

    def to_dict(self, family: str) -> dict:
        source = ({"path": self.path} if self.path is not None
                  else {"num_samples": self.num_samples, "dim": self.dim, "seed": self.seed})
        return {**source, "lambda": self.resolved_lam(family), "beta": self.beta,
                "sampling": self.sampling, "region_radius": self.region_radius}


@dataclass(frozen=True)
class CheckSpec:
    """Knobs for the assumption checkers."""

    trials: int = 200
    eps: float = 0.25
    pair_count: int = 16
    grid_size: int = 5

    @classmethod
    def from_dict(cls, data: dict) -> "CheckSpec":
        _require(isinstance(data, dict), "'check' must be an object")
        _check_keys(data, {"trials", "eps", "pair_count", "grid_size"}, "check")
        spec = cls(trials=_int_field(data, "trials", default=200, minimum=100),
                   eps=_float_field(data, "eps", default=0.25),
                   pair_count=_int_field(data, "pair_count", default=16, minimum=2),
                   grid_size=_int_field(data, "grid_size", default=5, minimum=1))
        _require(spec.eps > 0, "'check.eps' must be positive")
        return spec

    def to_dict(self) -> dict:
        return {"trials": self.trials, "eps": self.eps,
                "pair_count": self.pair_count, "grid_size": self.grid_size}


_TOP_KEYS = {"experiment", "master_seed", "runs", "horizon", "sample_sizes",
             "output_dir", "family", "mdp", "regression", "check"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (parsed from strict JSON)."""

    experiment: str
    master_seed: int
    sample_sizes: tuple[int, ...]
    runs: int = 200
    horizon: int = 1000
    output_dir: str = "out"
    family: str | None = None
    mdp: MdpSpec | None = None
    regression: RegressionSpec | None = None
    check: CheckSpec = field(default_factory=CheckSpec)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _require(isinstance(data, dict), "config must be a JSON object")
        _check_keys(data, _TOP_KEYS, "config")
        experiment = data.get("experiment")
        _require(experiment in EXPERIMENTS,
                 f"'experiment' must be one of {EXPERIMENTS}, got {experiment!r}")

        sizes = data.get("sample_sizes")
        _require(isinstance(sizes, list) and sizes, "'sample_sizes' must be a nonempty list")
        for v in sizes:
            _require(isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                     f"'sample_sizes' entries must be integers >= 1, got {v!r}")
        _require(all(b > a for a, b in zip(sizes, sizes[1:])),
                 "'sample_sizes' must be strictly increasing")

        family = data.get("family")
        if experiment in FAMILY_EXPERIMENTS:
            _require(family is None, "'family' is only valid for assumptions/lln configs")
            family = experiment
        else:
            _require(family in FAMILY_EXPERIMENTS,
                     f"'family' must name one of {FAMILY_EXPERIMENTS}, got {family!r}")

        mdp_spec = None
        reg_spec = None
        if family in ("evi", "qvi"):
            _require("regression" not in data, "'regression' is not valid for MDP families")
            mdp_spec = MdpSpec.from_dict(data.get("mdp", {}))
        else:
            _require("mdp" not in data, "'mdp' is not valid for regression families")
            reg_spec = RegressionSpec.from_dict(data.get("regression", {}))

        output_dir = data.get("output_dir", "out")
        _require(isinstance(output_dir, str) and output_dir, "'output_dir' must be a string")

        return cls(
            experiment=experiment,
            master_seed=_int_field(data, "master_seed", minimum=0),
            sample_sizes=tuple(sizes),
            # R = 1 or K = 1 is a valid description; operations that need more
            # (ensemble variance, the lln audit) raise their own errors.
            runs=_int_field(data, "runs", default=200, minimum=1),
            horizon=_int_field(data, "horizon", default=1000, minimum=1),
            output_dir=output_dir,
            family=None if experiment in FAMILY_EXPERIMENTS else family,
            mdp=mdp_spec,
            regression=reg_spec,
            check=CheckSpec.from_dict(data.get("check", {})),
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(data)

    def with_overrides(self, seed: int | None = None,
                       output_dir: str | None = None) -> "ExperimentConfig":
        changes = {}
        if seed is not None:
            _require(seed >= 0, "--seed must be nonnegative")
            changes["master_seed"] = seed
        if output_dir is not None:
            changes["output_dir"] = output_dir
        if not changes:
            return self
        return replace(self, **changes)

    def family_name(self) -> str:
        return self.experiment if self.experiment in FAMILY_EXPERIMENTS else self.family

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "master_seed": self.master_seed,
            "runs": self.runs,
            "horizon": self.horizon,
            "sample_sizes": list(self.sample_sizes),
            "output_dir": self.output_dir,
            "check": self.check.to_dict(),
        }
        if self.family is not None:
            out["family"] = self.family
        if self.mdp is not None:
            out["mdp"] = self.mdp.to_dict()
        if self.regression is not None:
            out["regression"] = self.regression.to_dict(self.family_name().split("-")[-1])
        return out


@dataclass(frozen=True)
class FamilyBundle:
    """Everything an experiment needs about one operator family; `solve`
    certifies how the target was computed (None when it was not)."""

    op: ExactOperatorHandle
    factory_for: Callable[[int], RandomOperatorFactory]
    target: np.ndarray | None
    x0: np.ndarray
    norm: str
    solve: dict | None = None


def build_family(config: ExperimentConfig, need_target: bool = True) -> FamilyBundle:
    """Construct the operator pair, fixed point, and start point for a config.

    The fixed-point solve is skipped (target=None) when not requested; the
    assumption suite and the long-run audit work on families whose reference
    point is unavailable, e.g. unregularized regression.  The solve's
    certificate bounds the target's distance to the true fixed point: in sup
    norm by discount / (1 - discount) times the last value-iteration step, in
    l2 by the final gradient norm over lam (strong convexity).
    """
    name = config.family_name()
    target = solve = None
    if name in ("evi", "qvi"):
        model = config.mdp.build()
        if name == "evi":
            op, kind = bellman_operator(model), "value"
            factory_for = lambda n: empirical_bellman_factory(model, n)
        else:
            op, kind = q_operator(model), "q"
            factory_for = lambda n: empirical_q_factory(model, n)
        if need_target:
            fixed, sweeps, moved = _value_iteration(model, kind, tol=1e-10)
            target = fixed.ravel()
            gamma = model.discount
            solve = {"method": "value-iteration", "iterations": sweeps, "residual": moved,
                     "certified_bound": gamma / (1.0 - gamma) * moved,
                     "claimed_modulus": op.claimed_modulus}
        return FamilyBundle(op=op, factory_for=factory_for, target=target,
                            x0=np.zeros(op.dimension), norm="sup", solve=solve)

    family = name.split("-")[-1]
    problem, bounds = config.regression.build(family)
    op = exact_gd_operator(problem, bounds)
    if need_target:
        target, steps, gnorm = _newton_minimizer(problem, tol=1e-8)
        solve = {"method": "damped-newton", "iterations": steps, "residual": gnorm,
                 "certified_bound": gnorm / problem.lam, "beta": problem.beta,
                 "claimed_modulus": op.claimed_modulus}
    factory_for = lambda n: sgd_factory(problem, n, config.regression.sampling)
    return FamilyBundle(op=op, factory_for=factory_for, target=target,
                        x0=np.zeros(op.dimension), norm="l2", solve=solve)


@dataclass
class RunResult:
    """What an orchestrated run produced, and how it should exit."""

    exit_code: int
    output_files: list
    divergent_run_count: int = 0
    verdicts: dict = field(default_factory=dict)


def _write_json(path: Path, doc: dict) -> None:
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_meta(config: ExperimentConfig, out_dir: Path, divergent: list,
                wall_time: float, extra: dict | None = None) -> Path:
    meta = {
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "config": config.to_dict(),
        "divergent_run_count": len(divergent),
        "divergent_runs": divergent,
        "wall_time_seconds": wall_time,
    }
    if extra:
        meta.update(extra)
    path = out_dir / "meta.json"
    _write_json(path, meta)
    return path


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run a trajectory (or lln) experiment and emit its files.

    Trajectory experiments write, per sample size n: distance_n<n>.csv
    (distance between exact and randomized orbits) and timeavg_n<n>.csv
    (distance of the running orbit average to the fixed point), plus meta.json,
    which records the realizations drawn per sample size and the reference
    solve's certificate (FamilyBundle.solve).
    """
    if config.experiment == "assumptions":
        return run_assumption_suite(config)
    if config.experiment == "lln":
        return _run_lln(config)

    started = time.perf_counter()
    bundle = build_family(config)
    stream = RngStream(config.master_seed).child(Purpose.RUN)
    exact_traj = iterate_exact(bundle.op, bundle.x0, config.horizon)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    divergent = []
    drawn = []

    for n in config.sample_sizes:
        begun = time.perf_counter()
        dist, gap, dropped = orbit_curves(bundle.factory_for(n), exact_traj, bundle.target,
                                          stream.child(n), config.runs, bundle.norm)
        seconds = time.perf_counter() - begun
        divergent.extend({"sample_size": n, "run": r, "step": dropped[r]}
                         for r in sorted(dropped))
        # a run dropped at step k drew the realizations of steps 1..k only
        count = config.runs * config.horizon - sum(config.horizon - k
                                                   for k in dropped.values())
        drawn.append({"sample_size": n, "count": count})
        log.info("n=%d: %d runs, %d diverged, %d realizations, %.0f/s",
                 n, config.runs, len(dropped), count, count / seconds)
        alive = np.setdiff1d(np.arange(config.runs), list(dropped))
        if alive.size < 2 and alive.size < config.runs:
            raise DivergenceError(0, f"fewer than 2 runs survived at sample size {n}")
        dist_path = out_dir / f"distance_n{n}.csv"
        ta_path = out_dir / f"timeavg_n{n}.csv"
        ensemble(dist[:, alive].T, "orbit_distance").to_csv(dist_path)
        ensemble(gap[:, alive].T, "time_average_gap").to_csv(ta_path)
        files.extend([dist_path, ta_path])

    total_runs = config.runs * len(config.sample_sizes)
    files.append(_write_meta(config, out_dir, divergent, time.perf_counter() - started,
                             extra={"realizations_drawn": drawn,
                                    "reference_solve": bundle.solve}))
    code = EXIT_DIVERGENCE if len(divergent) > DIVERGENCE_BUDGET * total_runs else EXIT_OK
    return RunResult(exit_code=code, output_files=files,
                     divergent_run_count=len(divergent))


def _run_lln(config: ExperimentConfig) -> RunResult:
    """Long-run audit: time averages of the orbit's norm versus the ensemble tail."""
    started = time.perf_counter()
    bundle = build_family(config, need_target=False)
    stream = RngStream(config.master_seed).child(Purpose.LLN)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for n in config.sample_sizes:
        report = lln_audit(bundle.factory_for(n), bundle.x0, lambda z: row_norm(z, bundle.norm),
                           config.horizon, config.runs, stream.child(n))
        path = out_dir / f"lln_n{n}.json"
        _write_json(path, report.to_dict())
        files.append(path)
        log.info("lln n=%d done", n)
    files.append(_write_meta(config, out_dir, [], time.perf_counter() - started))
    return RunResult(exit_code=EXIT_OK, output_files=files)


def _ordered_pairs(box: Box, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 2, d) componentwise-ordered pairs (lo, hi) with sparse nonnegative gaps."""
    lo = box.sample(rng, count)
    width = box.upper - box.lower
    mask = rng.random((count, box.dim)) < 0.5
    bump = rng.random((count, box.dim)) * width * 0.5 * mask
    return np.stack([lo, lo + bump], axis=1)


def run_assumption_suite(config: ExperimentConfig) -> RunResult:
    """Run the stability checks for the configured family and emit one JSON
    report per assumption; exit code flags any violated verdict."""
    started = time.perf_counter()
    bundle = build_family(config, need_target=False)
    stream = RngStream(config.master_seed)
    check = config.check

    exact_traj = iterate_exact(bundle.op, bundle.x0, config.horizon)
    box = Box.around(exact_traj, inflation=0.2)
    grid = box.sample(stream.child(Purpose.GRID).generator(), check.grid_size)

    factories = [bundle.factory_for(n) for n in config.sample_sizes]
    report_a2 = check_sup_probability(bundle.op, factories, grid, check.eps,
                                      check.trials, stream.child(Purpose.A2), bundle.norm)

    pairs = _ordered_pairs(box, stream.child(Purpose.A3_PAIRS).generator(), check.pair_count)
    report_a3 = check_monotone(factories[0], bundle.x0, pairs, check.trials,
                               stream.child(Purpose.A3))

    report_a5 = check_contraction_log(factories[0], check.pair_count, check.trials, box,
                                      stream.child(Purpose.A5), bundle.norm)
    # An empirical "consistent" is only a lower-bound statement; without an
    # analytic contraction certificate it cannot be upgraded past inconclusive.
    cert = bundle.op.claimed_modulus
    params = dict(report_a5.parameters)
    params["analytic_modulus"] = cert
    verdict = report_a5.verdict
    if verdict == VERDICT_CONSISTENT and (cert is None or cert >= 1.0):
        verdict = VERDICT_INCONCLUSIVE
    report_a5 = AssumptionReport(assumption_id=report_a5.assumption_id,
                                 parameters=params, verdict=verdict,
                                 evidence=report_a5.evidence)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    verdicts = {}
    for report in (report_a2, report_a3, report_a5):
        path = out_dir / f"assumption_{report.assumption_id}.json"
        report.save(path)
        files.append(path)
        verdicts[report.assumption_id] = report.verdict
    files.append(_write_meta(config, out_dir, [], time.perf_counter() - started,
                             extra={"verdicts": verdicts}))
    code = EXIT_ASSUMPTION if VERDICT_VIOLATED in verdicts.values() else EXIT_OK
    return RunResult(exit_code=code, output_files=files, verdicts=verdicts)
