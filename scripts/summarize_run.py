"""Print a compact table from an experiment output directory.

Shows, per sample size, the mean orbit distance and time-average gap at a few
checkpoints, plus the run count, any divergence, the realizations drawn per
sample size and the reference solve's certificate recorded in meta.json.  For
a check (an assumptions config, or `itrop check` on any config) it shows the
trials, each assumption's verdict and the realizations each checker drew per
sample size.  For an lln audit it shows, per sample size, the tail mean and
its standard error, the spread of the runs' time averages and their largest
gap to the tail mean.
"""

import argparse
import json
import re
from pathlib import Path

from itrop import EnsembleSummary


def checkpoints(size):
    marks = [1, 10, 50, 100, 500, 1000]
    return [k for k in marks if k < size] + [size - 1]


def sample_size(path):
    return int(re.search(r"_n(\d+)$", path.stem).group(1))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", help="directory written by `itrop run`")
    args = parser.parse_args()
    out = Path(args.out_dir)

    meta = json.loads((out / "meta.json").read_text())
    config = meta["config"]
    if "verdicts" in meta:
        print(f"check family={config.get('family', config['experiment'])} "
              f"trials={config['check']['trials']}")
        for assumption, verdict in meta["verdicts"].items():
            print(f"  {assumption}: {verdict}")
    else:
        print(f"experiment={config['experiment']} runs={config['runs']} "
              f"divergent={meta['divergent_run_count']}")
    drawn = meta.get("realizations_drawn", [])
    if drawn:
        print("realizations drawn: " + "  ".join(
            (f"{d['assumption_id']} " if "assumption_id" in d else "")
            + f"n={d['sample_size']}: {d['count']}" for d in drawn))
    solve = meta.get("reference_solve")
    if solve:
        print(f"reference solve: {solve['method']}, {solve['iterations']} iterations, "
              f"residual {solve['residual']:.3g}, distance to the fixed point "
              f"<= {solve['certified_bound']:.3g}"
              + (f", beta {solve['beta']:.6g}" if "beta" in solve else "")
              + f", claimed modulus {solve['claimed_modulus']:.6g}")

    for path in sorted(out.glob("lln_n*.json"), key=sample_size):
        audit = json.loads(path.read_text())
        print(f"lln n={sample_size(path)}: tail mean {audit['tail_mean']:.4g}"
              f"+/-{audit['tail_se']:.1g}  spread {audit['spread']:.4g}  "
              f"max gap to tail {audit['max_gap_to_tail']:.4g}")

    for kind, label in (("distance", "orbit distance"), ("timeavg", "time-average gap")):
        paths = sorted(out.glob(f"{kind}_n*.csv"), key=sample_size)
        if not paths:
            continue
        print(f"\n{label} (mean +/- std_error)")
        for path in paths:
            s = EnsembleSummary.from_csv(path)
            cells = [f"k={k}: {s.mean[k]:.4g}+/-{s.std_error[k]:.1g}"
                     for k in checkpoints(s.mean.size)]
            print(f"  n={sample_size(path):>5}  " + "  ".join(cells))


if __name__ == "__main__":
    main()
