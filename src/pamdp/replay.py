"""Transition storage: FIFO ring of row arrays with uniform sampling.

This module owns the batch layout: the fields of a transition, in the order
``(s, k, x, r, s2, term, mc)`` — the state, the action index, the emitted
action vector, the reward, the next state, the terminal flag and the Monte
Carlo return — their dtypes (``_DTYPES``: float64 but for int64 ``k`` and
bool ``term``) and ``mc`` as NaN where a transition has none.
``_stack_batch`` stacks ``Transition`` objects into that layout, and
``_transitions`` reads it back.

The buffer stores each field in its own ring array of ``capacity`` rows,
allocated at the first push, with row shapes from the declared dimensions
or, without them, from that push. Sampling is i.i.d. uniform with
replacement over the filled slots. ``sample`` gathers the drawn rows into a
``Sample``: stacked arrays, which is what updates train on, that read as
``Transition`` objects when iterated; ``contents`` rebuilds the stored
transitions the same way. Episodes are pushed whole through
``finalize_episode``, which attaches each transition's Monte Carlo return
when the agent trains on mixed targets; updates mix it with a one-step
target bootstrapped from the target networks of the moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qfunction import action_index

_DTYPES = (np.float64, np.int64, np.float64, np.float64, np.float64, bool, np.float64)


@dataclass
class Transition:
    s: np.ndarray
    k: int
    x_joint: np.ndarray  # action vector as emitted at act time, noise included
    r: float
    s_next: np.ndarray
    terminal: bool
    mc_return: float | None = None  # set at episode end for mixed targets only


def _fields(t: Transition) -> tuple:
    """A transition's fields in the batch layout, ``mc`` NaN where it has none."""
    return (t.s, t.k, t.x_joint, t.r, t.s_next, t.terminal,
            np.nan if t.mc_return is None else t.mc_return)


def _transitions(batch: tuple) -> list[Transition]:
    s, k, x, r, s2, term, mc = batch
    return [
        Transition(*row[:6], None if math.isnan(row[6]) else row[6])
        for row in zip(s, k.tolist(), x, r.tolist(), s2, term.tolist(), mc.tolist())
    ]


class Sample:
    """Rows drawn from a buffer, stacked in the batch layout as ``arrays``;
    iteration reads them as ``Transition`` objects."""

    def __init__(self, arrays: tuple):
        self.arrays = arrays

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __iter__(self):
        return iter(_transitions(self.arrays))


def _stack_batch(transitions: list[Transition] | Sample) -> tuple:
    """Transitions stacked in the batch layout. A ``Sample`` is stacked
    already and comes back as its arrays."""
    if isinstance(transitions, Sample):
        return transitions.arrays
    columns = zip(*map(_fields, transitions))
    return tuple(np.array(c, dtype) for c, dtype in zip(columns, _DTYPES))


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
        if self.bounds is not None:
            # the bounds widened by a rounding allowance, one column each
            self._low = self.bounds[:, 0] - 1e-12
            self._high = self.bounds[:, 1] + 1e-12
        # (s, k, x, r, s_next, terminal, mc_return), allocated at the first push
        self._rows: tuple[np.ndarray, ...] | None = None
        self._size = 0
        self._cursor = 0  # the slot the next push writes

    def __len__(self) -> int:
        return self._size

    def _row(self, t: Transition) -> tuple:
        """The transition as one row of the ring arrays, or ValueError."""
        s, k, x, r, s2, terminal, mc = _fields(t)
        s, s2, x = np.asarray(s, np.float64), np.asarray(s2, np.float64), np.asarray(x, np.float64)
        # one finiteness test over the three arrays, whatever their shapes (the
        # ufunc reductions are .all() and .any() without their Python dispatch)
        if not np.logical_and.reduce(np.isfinite(np.concatenate((s, s2, x), axis=None))):
            raise ValueError("transition contains non-finite values")
        if not math.isfinite(r):
            raise ValueError("non-finite reward")
        if self._rows is not None:
            state_shape, action_shape = self._rows[0].shape[1:], self._rows[2].shape[1:]
        else:
            state_shape = s.shape if self.state_dim is None else (self.state_dim,)
            action_shape = x.shape if self.action_dim is None else (self.action_dim,)
        if s.shape != state_shape or s2.shape != state_shape:
            raise ValueError("state dimension mismatch")
        if x.shape != action_shape:
            raise ValueError("action vector dimension mismatch")
        k = action_index(k)
        if self.num_actions is not None and not 0 <= k < self.num_actions:
            raise ValueError(f"action index {k} out of range")
        if self.bounds is not None and np.logical_or.reduce(
                (x < self._low) | (x > self._high), axis=None):
            raise ValueError("action vector outside bounds")
        return s, k, x, float(r), s2, bool(terminal), float(mc)

    def push(self, t: Transition):
        row = self._row(t)
        if self._rows is None:
            self._rows = tuple(np.empty((self.capacity, *np.shape(v)), dtype)
                               for v, dtype in zip(row, _DTYPES))
        for a, v in zip(self._rows, row):
            a[self._cursor] = v
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample_indices(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        # with-replacement sampling needs only a non-empty buffer, so a
        # single stored transition can fill any batch
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        return rng.integers(0, self._size, size=batch_size)

    def _gather(self, idx: np.ndarray) -> tuple:
        # take copies the same rows as a[idx], in half the time at 128 rows
        return tuple(a.take(idx, axis=0) for a in self._rows)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Sample:
        """The rows at the ``sample_indices`` draw from ``rng``."""
        return Sample(self._gather(self.sample_indices(batch_size, rng)))

    def contents(self) -> list[Transition]:
        """Stored transitions, oldest first."""
        if not self._size:
            return []
        # the cursor equals the size until the ring is full, so this is
        # 0..size-1 before the first wrap and starts at the cursor after it
        order = (self._cursor + np.arange(self._size)) % self._size
        return _transitions(self._gather(order))


def finalize_episode(buf: ReplayBuffer, transitions: list[Transition], agent, beta: float):
    """Store a complete episode.

    With the agent's ``mixed_targets`` on, each transition first gets its
    Monte Carlo return, fixed here for the trajectory; updates mix it with
    ``beta_mix`` from the agent's config. ``beta`` must lie in [0, 1].

    ``beta`` is only range-checked, yet kept: the acceptance tests pass it.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if transitions and agent.config.mixed_targets:
        for t, g in zip(transitions, agent.monte_carlo_returns(transitions)):
            t.mc_return = float(g)
    for t in transitions:
        buf.push(t)
