"""Run every desk-scale config in configs/ and report exit codes.

These finish in seconds and regenerate the out/ directories deterministically.
"""

import argparse
import sys
from pathlib import Path

from itrop.cli import main as cli_main

# (subcommand, config file) pairs in run order
JOBS = [
    ("run", "evi_desk.json"),
    ("run", "qvi_desk.json"),
    ("run", "sgd_logistic_desk.json"),
    ("run", "sgd_poisson_desk.json"),
    ("run", "lln_evi.json"),
    ("check", "assumptions_evi.json"),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", default=None,
                        help="config directory (default: configs/ next to this script)")
    args = parser.parse_args()

    config_dir = Path(args.configs) if args.configs else Path(__file__).resolve().parent.parent / "configs"
    failures = 0
    for cmd, name in JOBS:
        argv = [cmd, str(config_dir / name)]
        print(f"== itrop {' '.join(argv)}")
        code = cli_main(argv)
        print(f"== exit {code}")
        if code != 0:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
