"""Command-line front end: run experiments, check assumptions, generate assets."""

from __future__ import annotations

import argparse
import logging
import sys

from .core import ConfigurationError, DivergenceError, NonConvergenceError
from .experiments import (EXIT_CONFIG, EXIT_DIVERGENCE, ExperimentConfig,
                          run_assumption_suite, run_experiment)
from .mdp import random_mdp, save_model
from .regression import synth_dataset, save_csv_dataset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itrop",
        description="Simulate iterated random operators that approximate "
                    "contraction maps, and audit their stability.")
    parser.add_argument("--verbose", action="store_true",
                        help="log one line per sample size")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment described by a JSON config")
    check_p = sub.add_parser("check", help="run the assumption checks for a config")
    for p in (run_p, check_p):
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--output-dir", default=None, help="override the config output_dir")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")

    gen_p = sub.add_parser("gen", help="generate a reproducible input asset")
    gen_sub = gen_p.add_subparsers(dest="kind", required=True)

    mdp_p = gen_sub.add_parser("mdp", help="random MDP model as JSON")
    mdp_p.add_argument("--num-states", type=int, required=True)
    mdp_p.add_argument("--num-actions", type=int, required=True)
    mdp_p.add_argument("--discount", type=float, default=0.9)
    mdp_p.add_argument("--seed", type=int, required=True)
    mdp_p.add_argument("--out", required=True)

    data_p = gen_sub.add_parser("dataset", help="synthetic regression dataset as CSV")
    data_p.add_argument("--family", choices=("logistic", "poisson"), required=True)
    data_p.add_argument("--num-samples", type=int, required=True)
    data_p.add_argument("--dim", type=int, required=True)
    data_p.add_argument("--seed", type=int, required=True)
    data_p.add_argument("--out", required=True)
    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config)
    return cfg.with_overrides(seed=args.seed, output_dir=args.output_dir)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(message)s")
    try:
        if args.command == "run":
            result = run_experiment(_load_config(args))
            for path in result.output_files:
                print(path)
            if result.divergent_run_count:
                print(f"divergent runs: {result.divergent_run_count}", file=sys.stderr)
            for aid, verdict in result.verdicts.items():
                print(f"{aid}: {verdict}")
            return result.exit_code
        if args.command == "check":
            result = run_assumption_suite(_load_config(args))
            for aid, verdict in result.verdicts.items():
                print(f"{aid}: {verdict}")
            return result.exit_code
        if args.command == "gen":
            if args.kind == "mdp":
                model = random_mdp(args.num_states, args.num_actions, args.seed,
                                   args.discount)
                save_model(model, args.out)
            else:
                dataset = synth_dataset(args.num_samples, args.dim, args.family,
                                        args.seed)
                save_csv_dataset(dataset, args.out)
            print(args.out)
            return 0
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, NonConvergenceError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
