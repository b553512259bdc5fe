"""Emit the full-scale experiment configs (hours of compute, not for CI).

Each full config is a desk config from configs/ with the full run count and
horizon (1000 each) and its own output directory.  Pipe the results through
scripts/summarize_run.py.
"""

import argparse
import json
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DESK = ("evi", "qvi", "sgd_logistic", "sgd_poisson")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="configs/full", help="where to write the configs")
    parser.add_argument("--runs", type=int, default=1000,
                        help="the run count (at least 2, which run needs; default 1000)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error(f"--runs must be >= 2, got {args.runs}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in DESK:
        with open(CONFIG_DIR / f"{name}_desk.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.update(runs=args.runs, horizon=1000, output_dir=f"out/{name}_full")
        path = out_dir / f"{name}_full.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(path)


if __name__ == "__main__":
    main()
