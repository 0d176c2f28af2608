"""Train the golden runs and print the SHA-256 of each training CSV,
checkpoint and greedy evaluation CSV, or check them against a JSON file of
expected values.

The golden runs are seed 0 of every algorithm at its config's own episode
count: `configs/platform_desk.conf` with mixed targets off and on, and
`configs/bandit_oracle.conf`: 12 runs, about a minute and a half on one
core. Each run's checkpoint is then evaluated greedily for
`EVAL_EPISODES` episodes (`harness.evaluate_checkpoint`), so the acting
path, which training with exploration reaches only in part, is pinned too.
The bits depend on the CPU's OpenBLAS kernel as well as on the code, so a
mismatch on another machine is not by itself a fault; compare a change
with its parent on one machine.

Usage:
    PYTHONPATH=src python3 scripts/golden_hashes.py > hashes.json
    PYTHONPATH=src python3 scripts/golden_hashes.py --check scripts/golden_hashes.json
"""

import os

# one BLAS thread, as the benchmark uses; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from pamdp import harness

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RUNS = (("platform_desk", (False, True)), ("bandit_oracle", (False,)))
EVAL_EPISODES = 100
KINDS = ("csv", "checkpoint", "eval")


def golden_runs():
    """(name, RunConfig) of every golden run."""
    for config, mixed in RUNS:
        cfg = harness.load_config(str(CONFIGS / f"{config}.conf"))
        for algorithm in harness.ALGORITHMS:
            for on in mixed:
                name = f"{config}/{algorithm}" + ("/mixed" if on else "")
                yield name, replace(cfg, algorithm=algorithm, seeds=(0,), mixed_targets=on)


def sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", metavar="JSON",
                        help="compare with this file's hashes; exit 1 on a mismatch")
    args = parser.parse_args()

    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, cfg) in enumerate(golden_runs()):
            paths = harness.train_seed(cfg, 0, os.path.join(tmp, str(i)))
            eval_csv = os.path.join(tmp, f"{i}-eval.csv")
            harness.evaluate_checkpoint(paths["checkpoint"], EVAL_EPISODES, eval_csv)
            hashes[name] = {"csv": sha256(paths["csv"]), "checkpoint": sha256(paths["checkpoint"]),
                            "eval": sha256(eval_csv)}
            print(f"{name}: " + " ".join(f"{kind} {hashes[name][kind][:16]}…" for kind in KINDS),
                  file=sys.stderr)
    if args.check is None:
        print(json.dumps(hashes, indent=1, sort_keys=True))
        return
    expected = json.loads(Path(args.check).read_text(encoding="utf-8"))
    wrong = [f"{name} {kind}" for name in sorted(expected.keys() | hashes.keys())
             for kind in KINDS
             if expected.get(name, {}).get(kind) != hashes.get(name, {}).get(kind)]
    print("mismatches: " + (", ".join(wrong) if wrong else "none"))
    sys.exit(1 if wrong else 0)


if __name__ == "__main__":
    main()
