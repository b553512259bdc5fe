"""Benchmark workloads: fixed operator shapes, inputs drawn from the workload seed.

Each workload is a list of ``itrop`` commands, each with a config that the
benchmark generates from ``--seed``.  The shapes (S, A, n, N, d, trials) are
fixed; the seed picks the master seed and the model or dataset seed only.
R (runs) and K (horizon) are sized so that one workload process takes a few
seconds on a 2-core machine, which lets a run of ``--seconds`` seconds
repeat it several times and report medians.  No config sets ``jobs``.
"""

from __future__ import annotations

import random

# Sample-size ladders, one per command; the per-layer metric names are built
# from their union, so a size that a workload does not use reports 0 calls.
EVI_LADDER = [1, 25, 400]
QVI_LADDER = [25, 400]
SGD_LADDER = [64, 256, 1024]
AUDIT_LADDER = [1, 16, 256]
LLN_LADDER = [25]

MDP_SIZES = sorted(set(EVI_LADDER + QVI_LADDER + AUDIT_LADDER + LLN_LADDER))
REGRESSION_SIZES = list(SGD_LADDER)

WHY = {
    "evi-paper": "the paper's EVI ladder (S=20, A=5, n=1/25/400): per-step overhead "
                 "dominates at small n and the multinomial at n=400",
    "qvi-wide": "QVI at S=100, A=10 (1.6 MB per realization): mdp.realize dominates, so "
                "it bypasses per-step-overhead changes and covers the qvi apply path "
                "and model size",
    "sgd-poisson": "the only regression workload (N=2000, d=20, n=64/256/1024); "
                   "no mdp code runs and the reference solve is the largest set-up",
    "audit-evi": "assumption checkers (trials 1000) plus the lln audit: the only "
                 "workload for the analysis checkers, which apply each realization "
                 "~16 times",
}


def _seeds(workload: str, seed: int) -> tuple[int, int]:
    rng = random.Random(f"{workload}/{seed}")
    return rng.randrange(2 ** 31), rng.randrange(2 ** 31)


def _mdp(num_states: int, num_actions: int, seed: int) -> dict:
    return {"num_states": num_states, "num_actions": num_actions,
            "discount": 0.9, "seed": seed}


def commands(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The (subcommand, config) pairs one workload process runs, in order."""
    master, model_seed = _seeds(workload, seed)
    if workload == "evi-paper":
        return [("run", {"experiment": "evi", "master_seed": master,
                         "runs": 10, "horizon": 500, "sample_sizes": EVI_LADDER,
                         "output_dir": "out/evi", "mdp": _mdp(20, 5, model_seed)})]
    if workload == "qvi-wide":
        return [("run", {"experiment": "qvi", "master_seed": master,
                         "runs": 3, "horizon": 100, "sample_sizes": QVI_LADDER,
                         "output_dir": "out/qvi", "mdp": _mdp(100, 10, model_seed)})]
    if workload == "sgd-poisson":
        return [("run", {"experiment": "sgd-poisson", "master_seed": master,
                         "runs": 10, "horizon": 1000, "sample_sizes": SGD_LADDER,
                         "output_dir": "out/sgd",
                         "regression": {"num_samples": 2000, "dim": 20,
                                        "seed": model_seed, "lambda": 1.0,
                                        "beta": "auto",
                                        "sampling": "with_replacement"}})]
    if workload == "audit-evi":
        mdp = _mdp(20, 5, model_seed)
        return [("check", {"experiment": "assumptions", "family": "evi",
                           "master_seed": master, "horizon": 200,
                           "sample_sizes": AUDIT_LADDER, "output_dir": "out/check",
                           "mdp": mdp,
                           "check": {"trials": 1000, "eps": 0.25,
                                     "pair_count": 16, "grid_size": 5}}),
                ("run", {"experiment": "lln", "family": "evi", "master_seed": master,
                         "runs": 5, "horizon": 1000, "sample_sizes": LLN_LADDER,
                         "output_dir": "out/lln", "mdp": mdp})]
    raise KeyError(workload)


def realizations(subcommand: str, config: dict) -> int:
    """Random-operator realizations a command's config requires.

    Counted from the config, not from calls, so the figure stays comparable
    when an engine changes how it draws them.
    """
    ladder = len(config["sample_sizes"])
    if subcommand == "check":
        trials = config["check"]["trials"]
        return trials * ladder + 2 * trials
    return config["runs"] * config["horizon"] * ladder


def runs_attempted(subcommand: str, config: dict) -> int:
    """Randomized runs a command attempts; the check draws no orbits."""
    return 0 if subcommand == "check" else config["runs"] * len(config["sample_sizes"])
