"""Compare two result sets of the benchmark, one (metric, workload) pair at a time.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that perfbench/run.py wrote with
--trace 0 (``--results-dir``).  Runs of the two sets are paired by workload
and seed; run them alternating which side goes first.  For each end-to-end
metric of BENCHMARK.json the verdict is:

- improved: at least ten pairs, the change wins at least 9/10 of them (ties
  count for neither), and the medians differ by more than the parent's
  interquartile range;
- regressed: the change's median is worse than the parent's by more than
  the metric's bound;
- unresolved: the parent's spread (IQR / median) is wider than the bound,
  and not every change run reads better than every parent run;
- unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{workload: {seed: result}} for the untraced results in a directory;
    a later run of the same workload and seed replaces an earlier one."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") == 0:
            out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, pairs, higher_better: bool, bound: float) -> str:
    sign = 1.0 if higher_better else -1.0
    better = lambda a, b: sign * (a - b) > 0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    wins = sum(better(c, p) for p, c in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and better(med_c, med_p) \
            and abs(med_c - med_p) > iqr:
        return "improved"
    if sign * (med_p - med_c) > bound * abs(med_p):
        return "regressed"
    all_better = all(better(c, p) for c in change for p in parent)
    if iqr > bound * abs(med_p) and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load(args.parent), load(args.change)

    machines = {json.dumps(r["machine"], sort_keys=True)
                for side in (parent, change) for runs in side.values()
                for r in runs.values()}
    if len(machines) > 1:
        print("warning: the result sets come from different machine settings:")
        for m in sorted(machines):
            print(f"  {m}")

    regressed = False
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        same_bytes = sum(p_runs[s]["processes"][0].get("digest")
                         == c_runs[s]["processes"][0].get("digest") for s in seeds)
        cells = []
        for m in metrics:
            name = m["name"]
            pv = [r["summary"]["end_to_end"][name] for r in p_runs.values()]
            cv = [r["summary"]["end_to_end"][name] for r in c_runs.values()]
            if not pv or not cv:
                cells.append(f"{name} unresolved (no runs)")
                continue
            pairs = [(p_runs[s]["summary"]["end_to_end"][name],
                      c_runs[s]["summary"]["end_to_end"][name]) for s in seeds]
            v = verdict(pv, cv, pairs, m["better"] == "higher", m["bound"])
            regressed = regressed or v == "regressed"
            q1, q3 = quartiles(pv)
            cells.append(f"{name} {v} (parent {statistics.median(pv):.4g} "
                         f"[{q1:.4g}, {q3:.4g}] n={len(pv)}, change "
                         f"{statistics.median(cv):.4g} n={len(cv)}, "
                         f"{len(pairs)} pairs)")
        print(f"{workload}: " + "; ".join(cells)
              + f"; identical outputs on {same_bytes}/{len(seeds)} seeds")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
