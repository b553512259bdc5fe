"""One workload process: import itrop from the checkout's src/ and run each
command of a plan through the public CLI entry ``itrop.cli.main``.

Usage (from the benchmark, with the work directory as cwd):

    python3 perfbench/worker.py PLAN.json RESULT.json SPANS.json --trace 0|1

PLAN.json is a list of [subcommand, config path].  Set-up calls are always
timed; with --trace 1 every layer boundary is.  The spans are written to
SPANS.json after the workload; RESULT.json gets the exit codes, peak RSS
and how long that write took.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("spans")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    from tracing import Tracer, install

    tracer = Tracer()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import itrop.cli
    tracer.record("cli.import", start, time.perf_counter())
    install(tracer, full=bool(args.trace))

    codes = []
    for i, (subcommand, config) in enumerate(plan):
        tracer.invocation = i
        codes.append(itrop.cli.main([subcommand, config]))

    dump_start = time.perf_counter()
    tracer.dump(args.spans)
    dump_s = time.perf_counter() - dump_start
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"exit_codes": codes, "dump_s": dump_s,
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss},
                  fh)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
