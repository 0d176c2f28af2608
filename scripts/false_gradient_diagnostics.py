"""Show how the joint-input architecture couples every action value to every
action-parameter while the multi-pass and separate variants do not.

Prints the cross-gradient matrix G[i][j] = |dQ_i/dx_j| for a shared random
network under each variant, then searches for a state where sweeping one
unrelated parameter flips the joint variant's greedy action.

Usage:
    python3 scripts/false_gradient_diagnostics.py [--seed N] [--out sweep.csv]
"""

import argparse

import numpy as np

from pamdp.harness import write_sensitivity_csv
from pamdp.nncore import DenseNet
from pamdp.qfunction import (
    ActionSpaceSpec,
    QFunction,
    cross_gradient_matrix,
    q_joint,
    q_sensitivity_sweep,
)

SPACE = ActionSpaceSpec(state_dim=9, param_dims=(1, 1, 1))


def print_matrix(label, g):
    print(f"\n{label}")
    for row in g:
        print("   " + "  ".join(f"{v:8.4f}" for v in row))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="CSV path for the joint-variant sweep table")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    net = DenseNet.create(SPACE.state_dim + SPACE.joint_dim, (128,), 3, rng)
    sep = QFunction.create("separate", SPACE, (128,), rng)
    s = rng.standard_normal(SPACE.state_dim)
    x = rng.uniform(-1, 1, SPACE.joint_dim)

    for label, qf in (
        ("joint-input variant", QFunction("joint", SPACE, [net])),
        ("multi-pass variant (same network)", QFunction("multipass", SPACE, [net])),
        ("separate networks", sep),
    ):
        print_matrix(label, cross_gradient_matrix(qf, s, x))

    joint = QFunction("joint", SPACE, [net])
    grid = np.linspace(-1, 1, 41)
    for probe in range(200):
        s = rng.standard_normal(SPACE.state_dim)
        x = rng.uniform(-1, 1, SPACE.joint_dim)
        base = int(np.argmax(q_joint(joint, s, x)))
        for j in range(3):
            if j == base:
                continue
            table = q_sensitivity_sweep(joint, s, x, j, grid)
            winners = set(np.argmax(table, axis=1).tolist())
            if len(winners) > 1:
                print(
                    f"\ngreedy-action flip: sweeping action {j}'s parameter "
                    f"moves argmax over {sorted(winners)} (probe {probe})"
                )
                if args.out:
                    with open(args.out, "w", encoding="utf-8") as fh:
                        write_sensitivity_csv(fh, grid, table)
                    print(f"sweep table written to {args.out}")
                return
    print("\nno flip found (unusually smooth draw); rerun with another --seed")


if __name__ == "__main__":
    main()
