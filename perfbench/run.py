"""itrop benchmark: realization throughput per operator family, measured
from outside the program, and per-layer times from a traced run.

    python3 perfbench/run.py --workload evi-paper --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run generates the workload's configs
from --seed, then starts one fresh workload process at a time (``itrop.cli.main``
on those configs) until --seconds have passed, checks every process's
outputs, and reports the median of each metric.  With --trace 1 it
alternates untraced and traced processes and reports the per-layer metrics
of the traced ones.  ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count workload
processes.  The full record of the run, with the seed, machine and every
process, is written under --results-dir; compare two such directories with
perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import validate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Single-threaded BLAS, fixed for every run: the workloads' matrices are
# small, and a second BLAS thread would compete with the other core.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

MIN_PROCESSES = 3
MIN_TRACED_PAIRS = 2
# Every run, set-up included, must end well inside three minutes.
HARD_LIMIT_S = 150.0

E2E_EXTRA_UNITS = {"divergent_frac": "fraction", "failed_frac": "fraction"}


def machine_info() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"]}


def code_version() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _median(values):
    return statistics.median(values) if values else 0.0


class WorkloadRun:
    """Repeated workload processes for one (workload, seed) in a work directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.commands = workloads.commands(workload, seed)
        work.mkdir(parents=True)
        plan = []
        for i, (subcommand, config) in enumerate(self.commands):
            path = work / f"config{i}.json"
            path.write_text(json.dumps(config, indent=2), encoding="utf-8")
            plan.append([subcommand, path.name])
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        self.realizations = sum(workloads.realizations(s, c) for s, c in self.commands)
        self.runs_attempted = sum(workloads.runs_attempted(s, c) for s, c in self.commands)
        self.env = {**os.environ, **BLAS_ENV, "PYTHONHASHSEED": "0"}
        self.reference_digest = None

    def warm_up(self) -> None:
        """Compile and page in itrop once, untimed: users do not pay that per run."""
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, sys.argv[1]); import itrop.cli",
                        str(ROOT / "src")], env=self.env, cwd=self.work, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)

    def invoke(self, traced: bool, timeout: float) -> dict:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        for name in ("result.json", "spans.json"):
            (self.work / name).unlink(missing_ok=True)
        argv = [sys.executable, str(WORKER), "plan.json", "result.json", "spans.json",
                "--trace", str(int(traced))]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except BaseException as exc:
            proc.kill()
            _, stderr = proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            stderr += b"\nworkload process killed after the time limit"
        wall = time.perf_counter() - start
        rec = {"traced": traced, "wall_s": wall, "exit_code": proc.returncode,
               "errors": []}
        if proc.returncode != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
            codes = ""
            if (self.work / "result.json").is_file():
                with open(self.work / "result.json", encoding="utf-8") as fh:
                    codes = f" (itrop exit codes {json.load(fh)['exit_codes']})"
            rec["errors"].append(f"exit code {proc.returncode}{codes}: {' | '.join(tail)}")
            return rec
        with open(self.work / "result.json", encoding="utf-8") as fh:
            worker = json.load(fh)
        with open(self.work / "spans.json", encoding="utf-8") as fh:
            totals = tracing.SpanTotals(json.load(fh))

        divergent = 0
        for subcommand, config in self.commands:
            errors, div = validate.check(self.work / config["output_dir"], subcommand,
                                         config)
            rec["errors"] += errors
            divergent += div
        rec["digest"] = validate.digest(self.work / "out")
        if self.reference_digest is None:
            self.reference_digest = rec["digest"]
        elif rec["digest"] != self.reference_digest:
            rec["errors"].append("output bytes differ from the run's first process")

        setup = tracing.setup_seconds(totals)
        rec.update(setup_s=setup, dump_s=worker["dump_s"],
                   peak_rss_mb=worker["maxrss_kb"] / 1024.0,
                   realizations_per_s=self.realizations / (wall - setup),
                   divergent_runs=divergent,
                   divergent_frac=divergent / self.runs_attempted
                   if self.runs_attempted else 0.0)
        if traced:
            rec["layers"] = tracing.layer_metrics(totals)
            rec["layers"]["experiments.divergent_runs"] = divergent
            rec["self_s_by_span"] = totals.self_by_name()
            if self.workload == "evi-paper":
                rec["cross_check"] = tracing.cross_check(totals)
        return rec

    def measure(self, seconds: float, trace: bool) -> list[dict]:
        kinds = [False, True] if trace else [False]
        minimum = 2 * MIN_TRACED_PAIRS if trace else MIN_PROCESSES
        records: list[dict] = []
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if len(records) % len(kinds) == 0 and len(records) >= minimum:
                typical = _median([r["wall_s"] for r in records])
                if elapsed + typical * len(kinds) > seconds:
                    break
            if elapsed > HARD_LIMIT_S:
                break
            rec = self.invoke(kinds[len(records) % len(kinds)],
                              timeout=max(5.0, HARD_LIMIT_S - elapsed))
            records.append(rec)
        return records


def summarize(records: list[dict], trace: bool) -> dict:
    ok = [r for r in records if not r["errors"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    failed = len(records) - len(ok)
    e2e = {name: _median([r[name] for r in plain])
           for name in ("realizations_per_s", "wall_s", "setup_s", "peak_rss_mb")}
    e2e["divergent_frac"] = _median([r["divergent_frac"] for r in plain])
    e2e["failed_frac"] = failed / len(records) if records else 1.0
    summary = {"attempted": len(records), "failed": failed,
               "untraced_processes": len(plain), "traced_processes": len(traced),
               "end_to_end": e2e,
               "errors": sorted({e for r in records for e in r["errors"]})}
    if trace:
        layers = {name: _median([r["layers"][name] for r in traced])
                  for name in (traced[0]["layers"] if traced else {})}
        overhead = _median([r["wall_s"] - r["dump_s"] for r in traced])
        layers["trace.overhead_frac"] = (overhead / e2e["wall_s"] - 1.0
                                         if traced and plain else 0.0)
        summary["per_layer"] = layers
        spans = {}
        for r in traced:
            for name, v in r["self_s_by_span"].items():
                spans.setdefault(name, []).append(v)
        summary["self_s_by_span"] = {k: _median(v) for k, v in spans.items()}
        summary["cross_check"] = {k: _median([r["cross_check"][k] for r in traced])
                                  for k in (traced[0].get("cross_check", {})
                                            if traced else {})}
    summary["correct"] = (failed == 0 and bool(plain) and (bool(traced) or not trace))
    return summary


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_summary(workload: str, seed: int, summary: dict, units: dict) -> None:
    """Human-readable report; units maps every metric name to its unit."""
    print(f"== {workload}  seed {seed}  processes {summary['attempted']} "
          f"(untraced {summary['untraced_processes']}, "
          f"traced {summary['traced_processes']}, failed {summary['failed']})")
    n = summary["untraced_processes"]
    for name, value in summary["end_to_end"].items():
        unit = units.get(name) or E2E_EXTRA_UNITS[name]
        basis = (f"of {summary['attempted']} processes" if name == "failed_frac"
                 else f"median of {n}")
        print(f"   {name:<22} {_fmt(value):>14} {unit:<9} {basis}")
    for name, value in summary.get("per_layer", {}).items():
        print(f"   {name:<40} {_fmt(value):>14} {units[name]}")
    if summary.get("self_s_by_span"):
        top = sorted(summary["self_s_by_span"].items(), key=lambda kv: -kv[1])[:5]
        print("   largest self time: " + ", ".join(f"{k} {v:.3g} s" for k, v in top))
    if summary.get("cross_check"):
        print("   cross-check (reported, not gated; ROADMAP baseline: stream 25 us, "
              "realize n1/n25/n400 56/132/342 us): "
              + ", ".join(f"{k} {v:.3g}" for k, v in summary["cross_check"].items()))
    for error in summary["errors"]:
        print(f"   FAILED: {error}")


def load_contract() -> tuple[dict, dict]:
    """Metric names and units from BENCHMARK.json, checked against this code."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    known_e2e = {"realizations_per_s", "wall_s", "setup_s", "peak_rss_mb"}
    if set(e2e) - known_e2e or set(layers) != set(tracing.per_layer_names()):
        raise SystemExit("BENCHMARK.json metrics do not match perfbench/tracing.py")
    return e2e, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WHY) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=".perfbench/results",
                        help="where the full record of each run goes, "
                             "relative to the checkout root")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "itrop" / "__init__.py").is_file():
        print(f"no itrop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_contract()

    names = list(workloads.WHY) if args.workload == "all" else [args.workload]
    machine, version = machine_info(), code_version()
    print(f"machine: {json.dumps(machine)}  code {version}")
    results_dir = ROOT / args.results_dir
    results_dir.mkdir(parents=True, exist_ok=True)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        work = ROOT / ".perfbench" / f"work-{os.getpid()}-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            run = WorkloadRun(workload, args.seed, work)
            run.warm_up()
            records = run.measure(args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        summary = summarize(records, bool(args.trace))
        print_summary(workload, args.seed, summary, {**e2e_units, **layer_units})
        record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "code_version": version, "machine": machine,
                  "why": workloads.WHY[workload], "commands": run.commands,
                  "summary": summary, "processes": records}
        stamp = f"{workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
        (results_dir / stamp).write_text(json.dumps(record, indent=1), encoding="utf-8")

        if args.trace:
            values = summary["per_layer"]
            units = layer_units
        else:
            values = summary["end_to_end"]
            units = e2e_units
        prefix = f"{workload}/" if args.workload == "all" else ""
        for name, unit in units.items():
            final["metrics"][prefix + name] = {"value": values.get(name, 0.0), "unit": unit}
        final["correct"] = final["correct"] and summary["correct"]
        final["attempted"] += summary["attempted"]
        final["failed"] += summary["failed"]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
