"""Train the three Q-architectures and the relaxed-continuous baseline on
Platform with shared seeds and the hyperparameters of
configs/platform_desk.conf, then print the evaluation table (mean +/- std
over seeds, exploration-free).

Usage:
    python3 scripts/platform_comparison.py [--episodes N] [--seeds a,b,...]
                                           [--out runs/comparison]
"""

import argparse
from dataclasses import replace
from pathlib import Path

from pamdp.harness import (
    ALGORITHMS,
    CONFIG_KEYS,
    evaluate_run,
    format_summary,
    load_config,
    train,
    write_summary_csv,
)

DESK = Path(__file__).resolve().parents[1] / "configs" / "platform_desk.conf"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--episodes", type=int, default=300)
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--eval-episodes", type=int, default=100)
    parser.add_argument("--out", default="runs/comparison")
    args = parser.parse_args()
    if args.eval_episodes < 1:
        parser.error("--eval-episodes must be >= 1")

    base = replace(
        load_config(str(DESK)),
        episodes=args.episodes,
        seeds=CONFIG_KEYS["seeds"](args.seeds),
        eval_episodes=args.eval_episodes,
        out_dir=args.out,
    )
    summaries = []
    for algorithm in ALGORITHMS:
        cfg = replace(base, algorithm=algorithm, out_dir=f"{args.out}/{algorithm}")
        print(f"training {algorithm} ({args.episodes} episodes x {len(cfg.seeds)} seeds)")
        train(cfg)
        summary = evaluate_run(cfg, episodes=args.eval_episodes)
        summaries.append(summary)
        print(f"  {algorithm}: {format_summary(summary.mean, summary.std)}")

    summaries.sort(key=lambda s: s.mean, reverse=True)
    write_summary_csv(f"{args.out}/comparison.csv", summaries)
    print(f"\nfinal ranking (written to {args.out}/comparison.csv):")
    for s in summaries:
        print(f"  {s.algorithm:16s} {format_summary(s.mean, s.std)} (stderr {s.stderr:.3f})")


if __name__ == "__main__":
    main()
