"""Turn raw training CSVs into smoothed learning-curve tables.

Reads every train_seed*.csv in a run directory, applies the trailing moving
average, and writes curves.csv with per-seed smoothed returns plus the
cross-seed mean and standard error per episode.

Usage:
    python3 scripts/learning_curves.py --dir runs/platform_desk [--window 5000]
"""

import argparse
import glob
import math
import os

import numpy as np

from pamdp.cli import _at_least
from pamdp.harness import csv_line, read_csv, smooth


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--dir", required=True)
    parser.add_argument("--window", type=_at_least(1), default=5000)
    parser.add_argument("--out", help="output CSV (default: <dir>/curves.csv)")
    args = parser.parse_args()

    paths = sorted(glob.glob(os.path.join(args.dir, "train_seed*.csv")))
    if not paths:
        raise SystemExit(f"no train_seed*.csv files under {args.dir}")
    seeds, curves = [], []
    for path in paths:
        rows = read_csv(path)
        if not rows:  # the run failed in its first episode
            raise SystemExit(f"{path} holds no episode")
        seeds.append(rows[0]["seed"])
        curves.append(smooth([float(r["return"]) for r in rows], args.window))
    n = min(len(c) for c in curves)
    stacked = np.stack([c[:n] for c in curves])
    mean = stacked.mean(axis=0)
    stderr = (
        stacked.std(axis=0, ddof=1) / math.sqrt(len(curves))
        if len(curves) > 1
        else np.zeros(n)
    )

    out = args.out or os.path.join(args.dir, "curves.csv")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(csv_line(["episode", *(f"seed_{s}" for s in seeds), "mean", "stderr"]))
        for i in range(n):
            fh.write(csv_line([i, *(c[i] for c in curves), mean[i], stderr[i]]))
    print(f"wrote {out} ({n} episodes x {len(curves)} seeds, window {args.window})")


if __name__ == "__main__":
    main()
