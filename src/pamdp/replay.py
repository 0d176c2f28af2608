"""Transition storage: FIFO ring buffer with uniform sampling.

The buffer holds ``Transition`` objects; sampling is i.i.d. uniform with
replacement over the filled slots. Episodes are pushed whole through
``finalize_episode``, which attaches each transition's Monte Carlo return
when the agent trains on mixed targets; updates mix it with a one-step
target bootstrapped from the target networks of the moment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Transition:
    s: np.ndarray
    k: int
    x_joint: np.ndarray  # action vector as emitted at act time, noise included
    r: float
    s_next: np.ndarray
    terminal: bool
    mc_return: float | None = None  # set at episode end for mixed targets only


class ReplayBuffer:
    """Fixed-capacity ring; oldest transition is overwritten first."""

    def __init__(
        self,
        capacity: int,
        state_dim: int | None = None,
        action_dim: int | None = None,
        num_actions: int | None = None,
        bounds: np.ndarray | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.num_actions = num_actions
        self.bounds = None if bounds is None else np.asarray(bounds, dtype=np.float64)
        self._data: list[Transition] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._data)

    def _validate(self, t: Transition):
        s = np.asarray(t.s)
        s2 = np.asarray(t.s_next)
        x = np.asarray(t.x_joint)
        if not (np.isfinite(s).all() and np.isfinite(s2).all() and np.isfinite(x).all()):
            raise ValueError("transition contains non-finite values")
        if not np.isfinite(t.r):
            raise ValueError("non-finite reward")
        if self.state_dim is not None and (s.shape != (self.state_dim,) or s2.shape != (self.state_dim,)):
            raise ValueError("state dimension mismatch")
        if self.action_dim is not None and x.shape != (self.action_dim,):
            raise ValueError("action vector dimension mismatch")
        if self.num_actions is not None and not 0 <= t.k < self.num_actions:
            raise ValueError(f"action index {t.k} out of range")
        if self.bounds is not None:
            eps = 1e-12
            if (x < self.bounds[:, 0] - eps).any() or (x > self.bounds[:, 1] + eps).any():
                raise ValueError("action vector outside bounds")

    def push(self, t: Transition):
        self._validate(t)
        if len(self._data) < self.capacity:
            self._data.append(t)
        else:
            self._data[self._cursor] = t
            self._cursor = (self._cursor + 1) % self.capacity

    def sample_indices(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        # with-replacement sampling needs only a non-empty buffer, so a
        # single stored transition can fill any batch
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not self._data:
            raise ValueError("cannot sample from an empty buffer")
        return rng.integers(0, len(self._data), size=batch_size)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        return [self._data[i] for i in self.sample_indices(batch_size, rng)]

    def contents(self) -> list[Transition]:
        """Stored transitions, oldest first."""
        return self._data[self._cursor :] + self._data[: self._cursor]


def finalize_episode(buf: ReplayBuffer, transitions: list[Transition], agent, beta: float):
    """Store a complete episode.

    With the agent's ``mixed_targets`` on, each transition first gets its
    Monte Carlo return, fixed here for the trajectory; updates mix it with
    ``beta_mix`` from the agent's config. ``beta`` must lie in [0, 1].
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if transitions and agent.config.mixed_targets:
        for t, g in zip(transitions, agent.monte_carlo_returns(transitions)):
            t.mc_return = float(g)
    for t in transitions:
        buf.push(t)
