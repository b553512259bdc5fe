"""Span timers wrapped around public itrop functions, and the per-layer
metrics computed from the spans.

The wrappers are installed from outside the program: a function is replaced
where ``itrop.cli``, ``itrop.experiments`` or ``itrop.analysis`` looks it up,
and the random-operator factories are wrapped where ``itrop.experiments``
imports them, so their realizations and the maps those return are timed
too.  A name that a later version no longer has is skipped, and its metrics
read 0 calls.

A span is ``[name index, start, end, parent span index, invocation id, n]``;
spans live in memory and are written out once, after the workload.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import defaultdict

from workloads import MDP_SIZES, REGRESSION_SIZES

SETUP_SPANS = ("cli.import", "experiments.from_json", "experiments.build_family",
               "core.exact")

CHECKERS = ("check_sup_probability", "check_monotone", "check_contraction_log",
            "lln_audit")


class Tracer:
    """In-memory span recorder; one per workload process."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.invocation = -1
        self._stack: list[int] = []

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller (no parent)."""
        self.spans.append([self._code(name), start, end, -1, self.invocation, None])

    def wrap(self, name: str, fn, n: int | None = None):
        """fn with a span around every call."""
        code = self._code(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def timed(*args, **kwargs):
            rec = [code, clock(), 0.0, stack[-1] if stack else -1, self.invocation, n]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return timed

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": dict(self.counters)}, fh)


def _patch(tracer: Tracer, module, attr: str, name: str) -> None:
    fn = getattr(module, attr, None)
    if fn is not None:
        setattr(module, attr, tracer.wrap(name, fn))


def _wrap_factory(tracer: Tracer, layer: str, make, bytes_per_realization=None):
    """make(...) -> RandomOperatorFactory whose realize and realizations are timed."""

    def wrapped(*args, **kwargs):
        factory = make(*args, **kwargs)
        n = factory.sample_size
        timed_realize = tracer.wrap(f"{layer}.realize", factory.realize, n)
        apply_code = f"{layer}.apply"
        if bytes_per_realization is not None:
            size = bytes_per_realization(*args, **kwargs)
            if size:
                tracer.counters[f"{layer}.realize.bytes_per.{n}"] = size

        def realize(stream):
            return tracer.wrap(apply_code, timed_realize(stream), n)

        return dataclasses.replace(factory, realize=realize)

    return wrapped


def _mdp_realization_bytes(model, *args, **kwargs) -> int:
    # Counts (S*A, S) as int64 plus weights (S*A, S) as float64, as computed
    # from the model shape; cache effects are not measured.
    try:
        s, a = int(model.num_states), int(model.num_actions)
    except AttributeError:
        return 0
    return 2 * s * a * s * 8


def install(tracer: Tracer, full: bool) -> None:
    """Wrap the set-up calls always, and every layer boundary when full."""
    import itrop.analysis as an
    import itrop.cli as cli
    import itrop.core as core
    import itrop.experiments as ex

    config_cls = getattr(ex, "ExperimentConfig", None)
    if config_cls is not None and hasattr(config_cls, "from_json"):
        timed_from_json = tracer.wrap("experiments.from_json", config_cls.from_json)
        config_cls.from_json = classmethod(lambda cls, *a, **k: timed_from_json(*a, **k))
    _patch(tracer, ex, "build_family", "experiments.build_family")
    _patch(tracer, ex, "iterate_exact", "core.exact")
    if not full:
        return

    for module in (cli, ex):
        _patch(tracer, module, "run_experiment", "experiments.run")
        _patch(tracer, module, "run_assumption_suite", "experiments.run")

    stream_cls = getattr(core, "RngStream", None)
    if stream_cls is not None and hasattr(stream_cls, "generator"):
        stream_cls.generator = tracer.wrap("core.stream", stream_cls.generator)

    for module in (ex, an):
        fn = getattr(module, "iterate_random", None)
        if fn is None:
            continue
        timed = tracer.wrap("core.engine", fn)

        def engine(*args, _timed=timed, **kwargs):
            steps = kwargs.get("num_steps", args[2] if len(args) > 2 else 0)
            tracer.counters["core.engine.steps"] += int(steps)
            return _timed(*args, **kwargs)

        setattr(module, "iterate_random", engine)

    for attr in ("empirical_bellman_factory", "empirical_q_factory"):
        if hasattr(ex, attr):
            setattr(ex, attr, _wrap_factory(tracer, "mdp", getattr(ex, attr),
                                            _mdp_realization_bytes))
    if hasattr(ex, "sgd_factory"):
        ex.sgd_factory = _wrap_factory(tracer, "regression", ex.sgd_factory)

    _patch(tracer, ex, "random_mdp", "mdp.setup")
    _patch(tracer, ex, "solve_exact", "mdp.setup")
    for attr in ("synth_dataset", "eigen_bounds", "solve_reference_minimizer"):
        _patch(tracer, ex, attr, "regression.setup")

    _patch(tracer, ex, "ensemble", "analysis.ensemble")
    summary_cls = getattr(an, "EnsembleSummary", None)
    if summary_cls is not None and hasattr(summary_cls, "to_csv"):
        timed_to_csv = tracer.wrap("analysis.csv_write", summary_cls.to_csv)

        def to_csv(self, path, *args, **kwargs):
            out = timed_to_csv(self, path, *args, **kwargs)
            tracer.counters["analysis.csv_bytes"] += os.path.getsize(path)
            return out

        summary_cls.to_csv = to_csv
    for attr in CHECKERS:
        _patch(tracer, ex, attr, f"analysis.{attr}")


class SpanTotals:
    """Durations, self times and call counts per (span name, n)."""

    def __init__(self, dump: dict):
        names, spans = dump["names"], dump["spans"]
        children = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                children[s[3]] += s[2] - s[1]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        for i, s in enumerate(spans):
            key = (names[s[0]], s[5])
            duration = s[2] - s[1]
            self.total[key] += duration
            self.self_time[key] += duration - children[i]
            self.calls[key] += 1
        self.counters = dump.get("counters", {})

    def _sum(self, table, name, n=None) -> float:
        return sum(v for (k, kn), v in table.items()
                   if k == name and (n is None or kn == n))

    def tot(self, name, n=None) -> float:
        return self._sum(self.total, name, n)

    def own(self, name, n=None) -> float:
        return self._sum(self.self_time, name, n)

    def count(self, name, n=None) -> int:
        return int(self._sum(self.calls, name, n))

    def self_by_name(self) -> dict[str, float]:
        out = defaultdict(float)
        for (name, _n), v in self.self_time.items():
            out[name] += v
        return dict(out)


def _per(value: float, count: float, scale: float = 1.0) -> float:
    return value / count * scale if count else 0.0


def setup_seconds(totals: SpanTotals) -> float:
    return sum(totals.tot(name) for name in SETUP_SPANS)


def layer_metrics(totals: SpanTotals) -> dict[str, float]:
    """Per-layer metrics of one traced workload process (all but the ones the
    caller supplies: experiments.divergent_runs and trace.overhead_frac)."""
    t = totals
    m = {"cli.import_s": t.tot("cli.import"),
         "experiments.build_family_s": t.tot("experiments.build_family"),
         "experiments.self_s": t.own("experiments.run"),
         "core.stream.calls": t.count("core.stream"),
         "core.stream.us_per_call": _per(t.tot("core.stream"), t.count("core.stream"), 1e6)}
    steps = t.counters.get("core.engine.steps", 0)
    m["core.engine.steps"] = steps
    m["core.engine.self_us_per_step"] = _per(t.own("core.engine"), steps, 1e6)
    m["core.exact_s"] = t.tot("core.exact")
    for n in MDP_SIZES:
        calls = t.count("mdp.realize", n)
        m[f"mdp.realize.calls.n{n}"] = calls
        m[f"mdp.realize.self_us_per_call.n{n}"] = _per(t.own("mdp.realize", n), calls, 1e6)
        m[f"mdp.realize.bytes_computed.n{n}"] = (
            t.counters.get(f"mdp.realize.bytes_per.{n}", 0) if calls else 0)
    applies, realizes = t.count("mdp.apply"), t.count("mdp.realize")
    m["mdp.apply.calls"] = applies
    m["mdp.apply.us_per_call"] = _per(t.tot("mdp.apply"), applies, 1e6)
    m["mdp.applies_per_realization"] = _per(applies, realizes)
    m["mdp.setup_s"] = t.tot("mdp.setup")
    for n in REGRESSION_SIZES:
        calls = t.count("regression.realize", n)
        m[f"regression.realize.calls.n{n}"] = calls
        m[f"regression.realize.self_us_per_call.n{n}"] = _per(
            t.own("regression.realize", n), calls, 1e6)
        m[f"regression.apply.us_per_call.n{n}"] = _per(
            t.tot("regression.apply", n), t.count("regression.apply", n), 1e6)
    m["regression.setup_s"] = t.tot("regression.setup")
    m["analysis.ensemble_s"] = t.tot("analysis.ensemble")
    m["analysis.csv_write_s"] = t.tot("analysis.csv_write")
    m["analysis.csv_bytes"] = t.counters.get("analysis.csv_bytes", 0)
    for c in CHECKERS:
        m[f"analysis.{c}.self_s"] = t.own(f"analysis.{c}")
    return m


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    empty = SpanTotals({"names": [], "spans": []})
    return list(layer_metrics(empty)) + ["experiments.divergent_runs",
                                         "trace.overhead_frac"]


def cross_check(totals: SpanTotals) -> dict[str, float]:
    """Figures comparable with the layer costs in ROADMAP's baseline, where a
    realization's cost includes deriving its stream."""
    out = {"core.stream.us_per_call": _per(totals.tot("core.stream"),
                                           totals.count("core.stream"), 1e6)}
    for n in (1, 25, 400):
        out[f"mdp.realize.us_per_call.n{n}"] = _per(
            totals.tot("mdp.realize", n), totals.count("mdp.realize", n), 1e6)
    return out
