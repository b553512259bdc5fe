"""Print a compact table from an experiment output directory.

Shows, per sample size, the mean orbit distance and time-average gap at a few
checkpoints, plus the run count, any divergence, the realizations drawn per
sample size and the reference solve's certificate recorded in meta.json.
"""

import argparse
import json
import re
from pathlib import Path

from itrop import EnsembleSummary


def checkpoints(size):
    marks = [1, 10, 50, 100, 500, 1000]
    return [k for k in marks if k < size] + [size - 1]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", help="directory written by `itrop run`")
    args = parser.parse_args()
    out = Path(args.out_dir)

    meta = json.loads((out / "meta.json").read_text())
    print(f"experiment={meta['config']['experiment']} runs={meta['config']['runs']} "
          f"divergent={meta['divergent_run_count']}")
    drawn = meta.get("realizations_drawn", [])
    if drawn:
        print("realizations drawn: " + "  ".join(f"n={d['sample_size']}: {d['count']}"
                                                 for d in drawn))
    solve = meta.get("reference_solve")
    if solve:
        print(f"reference solve: {solve['method']}, {solve['iterations']} iterations, "
              f"residual {solve['residual']:.3g}, distance to the fixed point "
              f"<= {solve['certified_bound']:.3g}"
              + (f", beta {solve['beta']:.6g}" if "beta" in solve else "")
              + f", claimed modulus {solve['claimed_modulus']:.6g}")

    for kind, label in (("distance", "orbit distance"), ("timeavg", "time-average gap")):
        paths = sorted(out.glob(f"{kind}_n*.csv"),
                       key=lambda p: int(re.search(r"n(\d+)", p.stem).group(1)))
        if not paths:
            continue
        print(f"\n{label} (mean +/- std_error)")
        for path in paths:
            s = EnsembleSummary.from_csv(path)
            n = re.search(r"n(\d+)", path.stem).group(1)
            cells = [f"k={k}: {s.mean[k]:.4g}+/-{s.std_error[k]:.1g}"
                     for k in checkpoints(s.mean.size)]
            print(f"  n={n:>5}  " + "  ".join(cells))


if __name__ == "__main__":
    main()
