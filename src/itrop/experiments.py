"""Experiment configuration, orchestration, and file emission for the CLI."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from enum import IntEnum
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .analysis import (Box, VERDICT_VIOLATED, check_contraction_log, check_monotone,
                       check_sup_probability, ensemble, lln_audit, orbit_curves)
from .core import (ConfigurationError, DivergenceError, ExactOperatorHandle,
                   RandomOperatorFactory, RngStream, iterate_exact, read_json,
                   require_indexable, row_norm, solve_exact, write_json)
from .mdp import (MdpModel, bellman_operator, empirical_bellman_factory, empirical_q_factory,
                  load_model, q_operator, random_mdp)
from .regression import (SAMPLING_MODES, EigenBounds, RegressionProblem, eigen_bounds,
                         exact_gd_operator, load_csv_dataset, sgd_factory,
                         solve_reference_minimizer, synth_dataset)

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
    A2 = 3         # (A2, factory), trial t read as run t
    A3_PAIRS = 4   # the ordered pairs of the monotonicity check
    A3 = 5         # (A3,), trial t read as run t
    A5 = 6         # (A5, 0) the realization and (A5, 1) the pairs, trial t read as run t


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigurationError(message)


def _key(kind, default=MISSING, **entry):
    """A config field and its table entry: kind (int, float, str, or None when
    code sets it), default, JSON `key` if not the field name, lower bound
    (`minimum`, or `positive`), `choices` (a str field's only values, a float
    field's strings), and `synthetic` (not read or written beside a `path`)."""
    return field(default=default, metadata={"kind": kind, **entry})


def _checked(entry: dict, key: str, value, prefix: str):
    """A JSON value checked against its field's kind and bound."""
    kind, low, choices = entry["kind"], entry.get("minimum"), entry.get("choices", ())
    name = f"'{prefix}{key}'"
    if kind is str:
        _require(not choices or value in choices, f"{name} invalid: {value!r}")
        _require(isinstance(value, str) and value, f"{name} must be a string")
        return value
    if isinstance(value, str) and value in choices:
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        _require(number and isinstance(value, int), f"key {key!r} must be an integer, got {value!r}")
        _require(low is None or value >= low, f"key {key!r} must be >= {low}, got {value}")
        _require(value < 2 ** 63, f"key {key!r} must be <= 2**63 - 1, got {value}")
        return value
    bounded = number and (low is None or value >= low) and not (entry.get("positive")
                                                                 and value <= 0)
    if choices:
        _require(bounded, f"{name} must be {choices[0]!r} or a positive number")
    _require(number, f"key {key!r} must be a number, got {value!r}")
    _require(math.isfinite(value), f"key {key!r} must be a finite number, got {value!r}")
    _require(bounded, f"{name} must be {'positive' if entry.get('positive') else f'>= {low}'}")
    return float(value)


def _parse(cls, data, where: str, **given):
    """The `cls` section read from the JSON object `data` by its field table:
    unknown keys are rejected and absent ones defaulted.  `given` holds the
    values that code sets, and defaults it computes (lambda per loss family)."""
    _require(isinstance(data, dict), f"'{where}' must be an object")
    table = {f.metadata.get("key", f.name): f for f in fields(cls)
             if f.metadata and not (f.metadata.get("synthetic") and "path" in data)}
    unknown = set(data) - set(table)
    _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")
    prefix = "" if where == "config" else f"{where}."
    values = dict(given)
    for key, f in table.items():
        if key in data and f.metadata["kind"] is not None:
            values[f.name] = _checked(f.metadata, key, data[key], prefix)
        _require(f.name in values or f.default is not MISSING, f"missing required key {key!r}")
    return cls(**values)


class _Section:
    """A config section whose fields carry their table entries (`_key`)."""

    def to_dict(self) -> dict:
        """The section as JSON: its keyed fields that are not None (nor synthetic beside a path)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata and value is not None and not (f.metadata.get("synthetic")
                                                         and self.path is not None):
                out[f.metadata.get("key", f.name)] = (
                    value.to_dict() if isinstance(value, _Section)
                    else list(value) if isinstance(value, tuple) else value)
        return out


@dataclass(frozen=True)
class MdpSpec(_Section):
    """Where the MDP comes from: a JSON file, or a seeded random instance."""

    path: str | None = _key(str, None)
    num_states: int = _key(int, 20, minimum=1, synthetic=True)
    num_actions: int = _key(int, 5, minimum=1, synthetic=True)
    discount: float = _key(float, 0.9, synthetic=True)   # in (0, 1), checked by from_dict
    seed: int = _key(int, 0, minimum=0, synthetic=True)

    def build(self) -> MdpModel:
        if self.path is not None:
            return load_model(self.path)
        return random_mdp(self.num_states, self.num_actions, self.seed, self.discount)


@dataclass(frozen=True)
class RegressionSpec(_Section):
    """Where the dataset comes from plus loss family ("logistic" or
    "poisson") and step-size parameters."""

    family: str
    lam: float = _key(float, key="lambda", minimum=0)  # default per loss family: from_dict
    path: str | None = _key(str, None)
    num_samples: int = _key(int, 1000, minimum=1, synthetic=True)
    dim: int = _key(int, 20, minimum=2, synthetic=True)
    seed: int = _key(int, 0, minimum=0, synthetic=True)
    # "auto" resolves to 1 / upper curvature bound
    beta: float | str = _key(float, "auto", positive=True, choices=("auto",))
    sampling: str = _key(str, "with_replacement", choices=SAMPLING_MODES)
    region_radius: float = _key(float, 1.0, positive=True)

    def build(self) -> tuple[RegressionProblem, EigenBounds | None]:
        """The problem and its curvature bounds; lam == 0 gives none (no
        contraction certificate), which beta "auto" cannot resolve."""
        if self.path is not None:
            dataset = load_csv_dataset(self.path, self.family)
        else:
            dataset = synth_dataset(self.num_samples, self.dim, self.family, self.seed)
        auto = self.beta == "auto"
        problem = RegressionProblem(dataset=dataset, family=self.family, lam=self.lam,
                                    beta=1.0 if auto else self.beta)
        if problem.lam == 0.0 and not auto:
            return problem, None
        bounds = eigen_bounds(problem, self.region_radius)  # raises at lam == 0
        if auto:
            problem = replace(problem, beta=1.0 / bounds.upper)
        return problem, bounds


@dataclass(frozen=True)
class CheckSpec(_Section):
    """Knobs for the assumption checkers."""

    trials: int = _key(int, 200, minimum=100)
    eps: float = _key(float, 0.25, positive=True)
    pair_count: int = _key(int, 16, minimum=2)
    grid_size: int = _key(int, 5, minimum=1)


@dataclass(frozen=True)
class ExperimentConfig(_Section):
    """Validated experiment description (parsed from strict JSON)."""

    experiment: str = _key(None)
    master_seed: int = _key(int, minimum=0)
    sample_sizes: tuple[int, ...] = _key(None)
    # R = 1 or K = 1 is a valid description; `run` refuses R = 1 before any work
    # (_orbits: ensemble variance needs 2 runs), lln_audit R = 1 or K = 1.
    runs: int = _key(int, 200, minimum=1)
    horizon: int = _key(int, 1000, minimum=1)
    output_dir: str = _key(str, "out")
    family: str | None = _key(None, None)
    mdp: MdpSpec | None = _key(None, None)
    regression: RegressionSpec | None = _key(None, None)
    check: CheckSpec = _key(None, CheckSpec())

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _require(isinstance(data, dict), "config must be a JSON object")
        experiment = data.get("experiment")
        _require(experiment in EXPERIMENTS,
                 f"'experiment' must be one of {EXPERIMENTS}, got {experiment!r}")

        sizes = data.get("sample_sizes")
        _require(isinstance(sizes, list) and sizes, "'sample_sizes' must be a nonempty list")
        for v in sizes:
            _require(isinstance(v, int) and not isinstance(v, bool) and 1 <= v < 2 ** 63,
                     f"'sample_sizes' entries must be integers in [1, 2**63 - 1], got {v!r}")
        _require(all(b > a for a, b in zip(sizes, sizes[1:])),
                 "'sample_sizes' must be strictly increasing")

        family = data.get("family")
        if experiment in FAMILY_EXPERIMENTS:
            _require(family is None, "'family' is only valid for assumptions/lln configs")
        else:
            _require(family in FAMILY_EXPERIMENTS,
                     f"'family' must name one of {FAMILY_EXPERIMENTS}, got {family!r}")

        mdp_spec = reg_spec = None
        name = family or experiment
        if name in ("evi", "qvi"):
            _require("regression" not in data, "'regression' is not valid for MDP families")
            mdp_spec = _parse(MdpSpec, data.get("mdp", {}), "mdp")
            _require(0.0 < mdp_spec.discount < 1.0, "'mdp.discount' must lie in (0, 1)")
        else:
            _require("mdp" not in data, "'mdp' is not valid for regression families")
            loss = name.split("-")[-1]
            reg_spec = _parse(RegressionSpec, data.get("regression", {}), "regression",
                              family=loss, lam=5.0 if loss == "logistic" else 1.0)

        return _parse(cls, data, "config", experiment=experiment, sample_sizes=tuple(sizes),
                      family=family, mdp=mdp_spec, regression=reg_spec,
                      check=_parse(CheckSpec, data.get("check", {}), "check"))

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path))

    def with_overrides(self, seed: int | None = None,
                       output_dir: str | None = None) -> "ExperimentConfig":
        """The config with the CLI's overrides, checked as the config's own keys."""
        changes = {}
        if seed is not None:
            _require(seed >= 0, "--seed must be nonnegative")
            changes["master_seed"] = seed
        if output_dir is not None:
            changes["output_dir"] = output_dir
        if not changes:
            return self
        return self.from_dict({**self.to_dict(), **changes})

    def family_name(self) -> str:
        return self.family or self.experiment


@dataclass(frozen=True)
class FamilyBundle:
    """Everything an experiment needs about one operator family: one factory
    per sample size, in `sample_sizes` order, and `solve`, which certifies
    how the target was computed (None when it was not).  The metric is the
    operator's: op.norm, which every factory shares (sup for MDP families,
    l2 for SGD)."""

    op: ExactOperatorHandle
    factories: tuple[RandomOperatorFactory, ...]
    target: np.ndarray | None
    x0: np.ndarray
    solve: dict | None = None


def build_family(config: ExperimentConfig, need_target: bool = True) -> FamilyBundle:
    """Construct the operator pair, fixed point, and start point for a config.

    The fixed-point solve is skipped (target=None) when not requested; the
    assumption suite and the long-run audit work on families whose reference
    point is unavailable, e.g. unregularized regression.  The solve's
    certificate bounds the target's distance to the true fixed point: in sup
    norm by discount / (1 - discount) times the last value-iteration step, in
    l2 by the final gradient norm over lam (strong convexity).  Before the
    solve, a config whose (horizon + 1, max(runs, dimension)) float arrays
    could not be indexed is a ConfigurationError; so is a sample size the
    family cannot serve (a batch above the dataset size), every sample
    size's factory being built first.
    """
    name = config.family_name()
    mdp = name in ("evi", "qvi")
    target = solve = None
    if mdp:
        model = config.mdp.build()
        make_op, make_factory = ((bellman_operator, empirical_bellman_factory) if name == "evi"
                                 else (q_operator, empirical_q_factory))
        op = make_op(model)
        factories = tuple(make_factory(model, n) for n in config.sample_sizes)
    else:
        problem, bounds = config.regression.build()
        op = exact_gd_operator(problem, bounds)
        factories = tuple(sgd_factory(problem, n, config.regression.sampling)
                          for n in config.sample_sizes)
    require_indexable((config.horizon + 1) * max(config.runs, op.dimension),
                      f"'horizon' {config.horizon} and 'runs' {config.runs} need arrays too "
                      f"large to index for dimension {op.dimension}")
    if need_target and mdp:
        target, sweeps, moved = solve_exact(op, tol=1e-10)
        gamma = op.claimed_modulus
        solve = {"method": "value-iteration", "iterations": sweeps, "residual": moved,
                 "certified_bound": gamma / (1.0 - gamma) * moved, "claimed_modulus": gamma}
    elif need_target:
        target, steps, gnorm = solve_reference_minimizer(problem, tol=1e-8)
        solve = {"method": "damped-newton", "iterations": steps, "residual": gnorm,
                 "certified_bound": gnorm / problem.lam, "beta": problem.beta,
                 "claimed_modulus": op.claimed_modulus}
    return FamilyBundle(op=op, factories=factories, target=target,
                        x0=np.zeros(op.dimension), solve=solve)


@dataclass
class RunResult:
    """What an orchestrated run produced, and how it should exit."""

    exit_code: int
    output_files: list
    divergent_run_count: int = 0
    verdicts: dict = field(default_factory=dict)


def _run(config: ExperimentConfig, body: Callable[[ExperimentConfig, Path], tuple]) -> RunResult:
    """The one driver of every experiment kind: make the output directory
    before any work, call body(config, out_dir) -> (files, divergent runs,
    extra meta keys), write meta.json, and pick the exit code: 3 on a violated
    verdict, 2 when more runs diverged than DIVERGENCE_BUDGET allows, else 0."""
    started = time.perf_counter()
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {out_dir}: {exc}") from exc
    files, divergent, extra = body(config, out_dir)
    files.append(out_dir / "meta.json")
    write_json(files[-1], {"schema_version": SCHEMA_VERSION, "code_version": __version__,
                           "config": config.to_dict(), "divergent_run_count": len(divergent),
                           "divergent_runs": divergent,
                           "wall_time_seconds": time.perf_counter() - started, **extra})
    verdicts = extra.get("verdicts", {})
    if VERDICT_VIOLATED in verdicts.values():
        code = EXIT_ASSUMPTION
    elif len(divergent) > DIVERGENCE_BUDGET * config.runs * len(config.sample_sizes):
        code = EXIT_DIVERGENCE
    else:
        code = EXIT_OK
    return RunResult(exit_code=code, output_files=files, divergent_run_count=len(divergent),
                     verdicts=verdicts)


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run a trajectory, lln or assumptions experiment and emit its files.

    Every kind goes through one driver, which makes the output directory
    before any work (an unwritable one is a ConfigurationError), writes
    meta.json and sets the exit code.  Trajectory experiments write, per
    sample size n: distance_n<n>.csv (distance between exact and randomized
    orbits) and timeavg_n<n>.csv (distance of the running orbit average to the
    fixed point), plus meta.json, which records the realizations drawn per
    sample size and the reference solve's certificate (FamilyBundle.solve).
    An lln experiment writes lln_n<n>.json audits; assumptions configs run
    run_assumption_suite.
    """
    if config.experiment == "assumptions":
        return run_assumption_suite(config)
    return _run(config, _lln if config.experiment == "lln" else _orbits)


def _orbits(config: ExperimentConfig, out_dir: Path):
    _require(config.runs >= 2, "need at least 2 runs for ensemble statistics")
    bundle = build_family(config)
    stream = RngStream(config.master_seed).child(Purpose.RUN)
    exact_traj = iterate_exact(bundle.op, bundle.x0, config.horizon)
    files, divergent, drawn = [], [], []
    for n, factory in zip(config.sample_sizes, bundle.factories):
        begun = time.perf_counter()
        dist, gap, dropped = orbit_curves(factory, exact_traj, bundle.target,
                                          stream.child(n), config.runs)
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
        files += [out_dir / f"distance_n{n}.csv", out_dir / f"timeavg_n{n}.csv"]
        ensemble(dist[:, alive].T).to_csv(files[-2])
        ensemble(gap[:, alive].T).to_csv(files[-1])
    return files, divergent, {"realizations_drawn": drawn, "reference_solve": bundle.solve}


def _lln(config: ExperimentConfig, out_dir: Path):
    """Long-run audit: time averages of the orbit's norm versus the ensemble tail."""
    # lln_audit's own checks, made before the family is built
    _require(config.horizon >= 2, "horizon must be >= 2")
    _require(config.runs >= 2, "runs must be >= 2")
    bundle = build_family(config, need_target=False)
    stream = RngStream(config.master_seed).child(Purpose.LLN)
    files = []
    for n, factory in zip(config.sample_sizes, bundle.factories):
        report = lln_audit(factory, bundle.x0, lambda z: row_norm(z, factory.norm),
                           config.horizon, config.runs, stream.child(n))
        files.append(out_dir / f"lln_n{n}.json")
        write_json(files[-1], asdict(report))
        log.info("lln n=%d done", n)
    # lln_audit raises on any dropped run, so every run drew every step
    return files, [], {"realizations_drawn": [{"sample_size": n, "count": config.runs
                                               * config.horizon} for n in config.sample_sizes]}


def _ordered_pairs(box: Box, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 2, d) componentwise-ordered pairs (lo, hi) with sparse nonnegative gaps."""
    lo = box.sample(rng, count)
    width = box.upper - box.lower
    mask = rng.random((count, box.dim)) < 0.5
    bump = rng.random((count, box.dim)) * width * 0.5 * mask
    return np.stack([lo, lo + bump], axis=1)


def run_assumption_suite(config: ExperimentConfig) -> RunResult:
    """Run the stability checks for the configured family (of any experiment
    kind) through the same driver as run_experiment: the output directory is
    made first, then one JSON report is written per assumption, exactly as
    its checker returns it (A5 judges against the family's exact handle and
    its certificate), and the exit code flags any violated verdict.
    meta.json records the verdicts and the realizations each checker drew
    per sample size."""
    return _run(config, _checks)


def _checks(config: ExperimentConfig, out_dir: Path):
    bundle = build_family(config, need_target=False)
    stream = RngStream(config.master_seed)
    check = config.check
    # the box samples, then the checkers' (trials, grid_size) and (trials, 1 + pair_count) rows
    for key, entries in (("grid_size", check.grid_size * bundle.op.dimension),
                         ("pair_count", 2 * check.pair_count * bundle.op.dimension),
                         ("trials", check.trials * max(check.grid_size, 1 + check.pair_count))):
        require_indexable(entries, f"'check.{key}' {getattr(check, key)} needs arrays too "
                                   f"large to index")

    exact_traj = iterate_exact(bundle.op, bundle.x0, config.horizon)
    box = Box.around(exact_traj)
    grid = box.sample(stream.child(Purpose.GRID).generator(), check.grid_size)

    report_a2 = check_sup_probability(bundle.op, bundle.factories, grid, check.eps,
                                      check.trials, stream.child(Purpose.A2))

    pairs = _ordered_pairs(box, stream.child(Purpose.A3_PAIRS).generator(), check.pair_count)
    report_a3 = check_monotone(bundle.factories[0], bundle.x0, pairs, check.trials,
                               stream.child(Purpose.A3))

    report_a5 = check_contraction_log(bundle.op, bundle.factories[0], check.pair_count,
                                      check.trials, box, stream.child(Purpose.A5))

    reports = (report_a2, report_a3, report_a5)
    files = [out_dir / f"assumption_{report.assumption_id}.json" for report in reports]
    for report, path in zip(reports, files):
        write_json(path, asdict(report))
    # one realization per trial: A2 at every sample size, A3 and A5 at the first
    drawn = ([{"assumption_id": report_a2.assumption_id, "sample_size": n,
               "count": check.trials} for n in config.sample_sizes]
             + [{"assumption_id": report.assumption_id, "sample_size": config.sample_sizes[0],
                 "count": check.trials} for report in (report_a3, report_a5)])
    return files, [], {"verdicts": {report.assumption_id: report.verdict for report in reports},
                       "realizations_drawn": drawn}
