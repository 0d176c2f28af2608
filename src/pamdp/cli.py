"""Command-line entry points: train, eval, sweep, sweep-report and the
action-parameter sensitivity diagnostic."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import harness
from .agent import PADDPGAgent
from .checkpoint import load_checkpoint
from .envs import make_env
from .harness import format_summary, load_config, seed_stream, write_sensitivity_csv
from .qfunction import q_sensitivity_sweep


def _config(path: str):
    """The config at ``path``; a config that does not load exits with its error."""
    try:
        return load_config(path)
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}") from None


def _cmd_train(args):
    cfg = _config(args.config)
    if cfg.grid:
        raise SystemExit(f"{args.config}: sets sweep.* keys; run its grid with pamdp sweep")
    if args.seeds is not None:
        cfg = replace(cfg, seeds=args.seeds)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    paths = harness.train(cfg)
    for entry in paths:
        print(f"wrote {entry['csv']} and {entry['checkpoint']}")


def _cmd_eval(args):
    returns, steps, header = harness.evaluate_checkpoint(
        args.checkpoint, args.episodes, out_csv=args.out
    )
    mean, std, stderr = harness.summarize(returns)
    print(f"algorithm={header['algorithm']} env={header['env_id']} episodes={args.episodes}")
    print(f"return {format_summary(mean, std)} (stderr {stderr:.4f})")
    print(f"mean steps {np.mean(steps):.2f}")


def _cmd_sweep(args):
    cfg = _config(args.config)
    if not cfg.grid:
        raise SystemExit(f"{args.config}: sets no sweep.* key, so there is no grid to sweep")
    results = harness.sweep(cfg)
    for row in results:
        print(f"#{row['rank']} {row['cell']}: {format_summary(row['mean'], row['std'])}")


def _cmd_sweep_report(args):
    for row in harness.sweep_report(args.dir):
        print(
            f"#{row['rank']} {row['cell']}: "
            f"{format_summary(float(row['mean']), float(row['std']))} "
            f"(n={row['n_seeds']})"
        )


def _cmd_diagnose(args):
    """Sweep one action's parameter and log all K Q-values per grid point.

    The probed state is the one visited at decision step `state-index` of a
    greedy rollout from reset; the probed parameter vector is the actor's
    output there.
    """
    agent, header = load_checkpoint(args.checkpoint)
    if isinstance(agent, PADDPGAgent):
        raise SystemExit(
            f"the sensitivity sweep needs a P-DQN checkpoint; {args.checkpoint} holds "
            f"a {header['algorithm']} agent"
        )
    num_actions = agent.space.num_actions
    if not 0 <= args.action < num_actions:
        raise SystemExit(f"--action must lie in [0, {num_actions}) for {args.checkpoint}, "
                         f"got {args.action}")
    width = agent.space.param_dims[args.action]
    if not 0 <= args.coordinate < width:
        raise SystemExit(f"--coordinate must lie in [0, {width}) for action {args.action} "
                         f"of {args.checkpoint}, got {args.coordinate}")
    env = make_env(header["env_id"], header["env_overrides"])
    # one step past the index, so the probed state is the first of a transition
    _, transitions, _ = harness.run_episode(
        env, agent, seed_stream(0), False, args.state_index + 1
    )
    if len(transitions) <= args.state_index:
        raise SystemExit(f"greedy episode ended before reaching state index {args.state_index}")
    s = transitions[args.state_index].s
    qf = agent.qf_target if args.use_target else agent.qf
    x = agent.actor.forward(np.asarray(s)[None, :])[0]
    sl = agent.space.block(args.action)
    lo, hi = agent.space.bounds[sl.start + args.coordinate]
    grid = np.linspace(lo, hi, args.points)
    table = q_sensitivity_sweep(qf, s, x, args.action, grid, args.coordinate)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_sensitivity_csv(fh, grid, table)
    else:
        write_sensitivity_csv(sys.stdout, grid, table)


def _at_least(minimum: int):
    """An argparse type: an int no smaller than ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


def _seed_list(text: str) -> tuple[int, ...]:
    """An argparse type: comma-separated seeds, checked as a config's are."""
    try:
        seeds = harness.CONFIG_KEYS["seeds"](text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    try:
        return harness.checked_seeds(seeds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pamdp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train every configured seed")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=_seed_list,
                   help="comma-separated override of the config's seed list")
    p.add_argument("--out", help="override the config's output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="exploration-free evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--episodes", type=_at_least(1), default=1000)
    p.add_argument("--out", help="optional CSV path for per-episode results")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="grid search over sweep.* config keys")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sweep-report", help="print the ranked cells of a finished sweep")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=_cmd_sweep_report)

    p = sub.add_parser(
        "diagnose-sensitivity",
        help="CSV of all Q-values while one action-parameter sweeps its range",
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--state-index", type=_at_least(0), default=0, dest="state_index")
    p.add_argument("--action", type=int, required=True)
    p.add_argument("--coordinate", type=int, default=0)
    p.add_argument("--points", type=_at_least(1), default=101)
    p.add_argument("--use-target", action="store_true", dest="use_target")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_diagnose)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except FileNotFoundError as exc:
        raise SystemExit(f"pamdp {args.command}: no such file or directory: "
                         f"{exc.filename}") from None


if __name__ == "__main__":
    main()
