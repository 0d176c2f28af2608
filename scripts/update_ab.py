"""Time one agent update of a git revision against the working tree's.

Both copies of the package run in one process: the revision's `src/pamdp`
is extracted with `git archive` into a temporary directory under a second
package name (every import inside the package is relative), and the working
tree's is imported from `src/`. Per config and algorithm the script

1. warms up one agent of the working tree's package (60 episodes on the
   desk Platform config, 300 on the bandit), saves it, and loads the
   checkpoint with both packages, so the two agents start from the same
   bits;
2. draws one minibatch from the warmed agent's replay and runs 5 updates
   on it with each agent, then compares every checkpoint array and both
   losses bit for bit;
3. times alternating blocks of `--updates` updates on that batch, the
   working tree first in even blocks and the revision first in odd ones,
   and counts the Python-level function calls of one update with
   `sys.setprofile`.

It prints one CSV line per config and algorithm (`harness.csv_line`), for
the algorithms of `--algorithms`, by default all of `harness.ALGORITHMS`: the working tree's time over the revision's, as the
median and quartiles of the per-pair ratios, each side's median ms per
update and calls per update, and whether the bits were equal. It exits with status 1 if any were not.

Usage:
    PYTHONPATH=src python3 scripts/update_ab.py --rev HEAD
    PYTHONPATH=src python3 scripts/update_ab.py --rev HEAD --configs bandit --blocks 3 --updates 5
    PYTHONPATH=src python3 scripts/update_ab.py --rev HEAD --configs platform --algorithms pdqn-separate
"""

import os

# one BLAS thread, as the benchmark uses; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from pamdp import checkpoint, envs, harness, replay

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = {"platform": ("platform_desk", 60), "bandit": ("bandit_oracle", 300)}
BIT_CHECK_UPDATES = 5
HEADER = ["config", "algorithm", "bits_equal", "ratio_median", "ratio_q1", "ratio_q3",
          "ms_new", "ms_old", "calls_new", "calls_old"]


def import_revision(rev: str, into: str, name: str = "pamdp_rev"):
    """The package as of ``rev``, imported as ``name`` from under ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src/pamdp"], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    os.rename(os.path.join(into, "src", "pamdp"), os.path.join(into, name))
    sys.path.insert(0, into)
    return importlib.import_module(f"{name}.checkpoint")


def warmed_checkpoint(config: str, algorithm: str, episodes: int, path: str):
    """Train ``episodes`` episodes of seed 0, save the agent to ``path``,
    and return a minibatch drawn from its replay."""
    cfg = replace(harness.load_config(str(ROOT / "configs" / f"{config}.conf")),
                  algorithm=algorithm)
    rng = harness.seed_stream(0)
    env = envs.make_env(cfg.env, cfg.env_overrides)
    agent = harness.build_agent(cfg, env.spec, rng)
    for episode in range(episodes):
        agent.begin_episode(episode)
        _, transitions, _ = harness.run_episode(env, agent, rng, True, cfg.max_episode_steps)
        replay.finalize_episode(agent.replay, transitions, agent, cfg.beta_mix)
    batch = agent._sample_batch(rng)
    checkpoint.save_checkpoint(path, agent, cfg.env, cfg.env_overrides)
    return batch


def same_bits(new, old, old_checkpoint, batch) -> bool:
    """Whether ``BIT_CHECK_UPDATES`` updates leave equal losses and arrays."""
    for _ in range(BIT_CHECK_UPDATES):
        if new.update(batch) != old.update(batch):
            return False
    pairs = zip(checkpoint._agent_arrays(new), old_checkpoint._agent_arrays(old), strict=True)
    return all(a.tobytes() == b.tobytes() for (_, a), (_, b) in pairs)


def calls_per_update(agent, batch, updates: int = 5) -> float:
    """Function calls of one update, Python and C, as cProfile counts them."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        for _ in range(updates):
            agent.update(batch)
    finally:
        sys.setprofile(None)
    return count / updates


def block_ms(agent, batch, updates: int) -> float:
    start = time.perf_counter()
    for _ in range(updates):
        agent.update(batch)
    return (time.perf_counter() - start) * 1e3 / updates


def compare(config: str, algorithm: str, episodes: int, old_checkpoint, blocks: int,
            updates: int, tmp: str) -> list:
    path = os.path.join(tmp, f"{config}-{algorithm}.ckpt")
    batch = warmed_checkpoint(config, algorithm, episodes, path)
    new, _ = checkpoint.load_checkpoint(path)
    old, _ = old_checkpoint.load_checkpoint(path)
    equal = same_bits(new, old, old_checkpoint, batch)
    calls = [calls_per_update(agent, batch) for agent in (new, old)]
    times = {"new": [], "old": []}
    for i in range(blocks):
        for side in (("new", "old") if i % 2 == 0 else ("old", "new")):
            times[side].append(block_ms(new if side == "new" else old, batch, updates))
    ratios = [a / b for a, b in zip(times["new"], times["old"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return [config, algorithm, equal, median, q1, q3, statistics.median(times["new"]),
            statistics.median(times["old"]), *calls]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="the git revision to compare against")
    parser.add_argument("--configs", nargs="+", choices=sorted(CONFIGS),
                        default=["platform", "bandit"])
    parser.add_argument("--algorithms", nargs="+", choices=harness.ALGORITHMS,
                        default=list(harness.ALGORITHMS))
    parser.add_argument("--blocks", type=int, default=21, help="timed blocks per side")
    parser.add_argument("--updates", type=int, default=100, help="updates per block")
    args = parser.parse_args()
    if args.blocks < 1 or args.updates < 1:
        parser.error("--blocks and --updates must be >= 1")
    all_equal = True
    sys.stdout.write(harness.csv_line(HEADER))
    with tempfile.TemporaryDirectory() as tmp:
        old_checkpoint = import_revision(args.rev, tmp)
        for name in args.configs:
            config, episodes = CONFIGS[name]
            for algorithm in args.algorithms:
                row = compare(config, algorithm, episodes, old_checkpoint, args.blocks,
                              args.updates, tmp)
                all_equal &= row[2]
                sys.stdout.write(harness.csv_line(row))
                sys.stdout.flush()
    return 0 if all_equal else 1


if __name__ == "__main__":
    sys.exit(main())
