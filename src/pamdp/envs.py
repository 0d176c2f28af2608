"""Environments with parameterised actions behind a uniform reset/step API.

All environments consume action-parameters already scaled to [-1, 1]; the
Platform domain converts them internally to its native displacement ranges.
``step(k, x_k)`` advances one whole decision (an action carried to its
landing or stop), returns ``(state, reward, terminal)``, and raises if
called again after a terminal transition without an intervening reset.

``Env.step`` checks every action before an environment sees it: the
terminal guard, the action index, the block's dimension, and each
parameter against its bounds, which ``Env.__init__`` stores once per action
as Python floats. A parameter that is NaN or infinite is rejected too. The
checks and the dynamics are scalar Python: a decision is one small action,
and numpy's per-call cost would outweigh its arithmetic.

The Platform geometry, displacement laws and reward are declared defaults of
this implementation: return is normalized forward progress, so the
undiscounted return of any successful trajectory is exactly 1.0 and dying
scores 0 for the fatal step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .qfunction import ActionSpaceSpec, action_index


class Env:
    """reset/step interface with a terminal guard and the action checks.

    A subclass implements ``_reset()`` and ``_step(k, x)``, where ``x``
    is action k's parameter block as a list of Python floats that passed
    every check.
    """

    def __init__(self, spec: ActionSpaceSpec):
        self.spec = spec
        # per action, the (low, high) pair of each parameter in its block
        self._block_bounds = tuple(
            tuple(map(tuple, spec.bounds[spec.block(k)].tolist()))
            for k in range(spec.num_actions)
        )
        self._terminal = True

    def reset(self) -> np.ndarray:
        self._terminal = False
        return self._reset()

    def step(self, k: int, x_k: np.ndarray) -> tuple[np.ndarray, float, bool]:
        if self._terminal:
            raise RuntimeError("step called on a terminal environment; reset first")
        k = action_index(k)
        if not 0 <= k < len(self._block_bounds):
            raise ValueError(f"action index {k} out of range")
        bounds = self._block_bounds[k]
        x_k = np.atleast_1d(np.asarray(x_k, dtype=np.float64))
        if x_k.shape != (len(bounds),):
            raise ValueError("action parameter has wrong dimension")
        x = x_k.tolist()
        for value, (lo, hi) in zip(x, bounds):
            if not math.isfinite(value):
                raise ValueError(f"action parameter {value} is not finite")
            if not lo <= value <= hi:
                raise ValueError("action parameter outside bounds")
        state, reward, terminal = self._step(k, x)
        self._terminal = bool(terminal)
        return state, float(reward), self._terminal

    def _reset(self):
        raise NotImplementedError

    def _step(self, k, x):
        raise NotImplementedError


@dataclass(frozen=True)
class PlatformConfig:
    """Geometry and physics constants for the platformer.

    Displacement laws are (base, span) pairs: displacement = base + span * p
    with p in [0, 1] derived from the scaled parameter. Enemies patrol each
    non-final platform between its edges inset by ``enemy_inset``, advancing
    ``enemy_speed`` per decision step.
    """

    length: float = 100.0
    platforms: tuple[tuple[float, float], ...] = ((0.0, 30.0), (38.0, 68.0), (74.0, 100.0))
    enemy_speed: float = 1.0
    enemy_inset: float = 2.0
    run_law: tuple[float, float] = (3.0, 12.0)
    hop_law: tuple[float, float] = (5.0, 15.0)
    leap_law: tuple[float, float] = (20.0, 15.0)

    def __post_init__(self):
        plats = tuple((float(a), float(b)) for a, b in self.platforms)
        for f in fields(self):
            value = plats if f.name == "platforms" else getattr(self, f.name)
            if not np.isfinite(value).all():
                raise ValueError(f"{f.name} must be finite, got {value}")
        if len(plats) < 1 or any(a >= b for a, b in plats):
            raise ValueError("platforms must be non-empty intervals")
        for (_, b1), (a2, _) in zip(plats, plats[1:]):
            if a2 <= b1:
                raise ValueError("platforms must be disjoint, ordered, with positive gaps")
        if plats[-1][1] != self.length or plats[0][0] != 0.0:
            raise ValueError("platforms must span from 0 to the total length")
        for law in (self.run_law, self.hop_law, self.leap_law):
            if law[1] <= 0:
                raise ValueError("displacement laws must be strictly increasing in p")
        if self.enemy_speed < 0 or self.enemy_inset < 0:
            raise ValueError("invalid enemy constants")
        for a, b in plats[:-1]:
            if a + self.enemy_inset >= b - self.enemy_inset:
                raise ValueError("enemy patrol range collapses; reduce enemy_inset")
        object.__setattr__(self, "platforms", plats)

    @property
    def gaps(self) -> tuple:
        return tuple(
            (b1, a2) for (_, b1), (a2, _) in zip(self.platforms, self.platforms[1:])
        )

    @property
    def laws(self) -> tuple:
        return (self.run_law, self.hop_law, self.leap_law)

    @property
    def max_displacement(self) -> float:
        return max(a + b for a, b in self.laws)


RUN, HOP, LEAP = 0, 1, 2


class Platform(Env):
    """Run/hop/leap platformer over gaps and patrolling enemies.

    Rules per decision:
      - displacement d = base + span * p, p = (x + 1) / 2;
      - reaching position >= length is success (position capped at length);
      - run and hop die when ending beyond the current platform's right
        edge (neither clears a gap); leap dies only if it lands strictly
        inside a gap;
      - a run also dies when its ground path touches the local enemy's swept
        interval; hop and leap fly over enemies;
      - every enemy advances one patrol step per decision, bouncing at the
        ends of its range;
      - reward is (new position - old position) / length on survival and on
        the successful final step, 0 on death.

    What the dynamics derive from the frozen config (the laws, gaps, patrol
    ranges and the features that depend on the platform alone) is derived
    once, at construction. A step computes on Python floats up to the one
    feature array it returns.
    """

    def __init__(self, config: PlatformConfig | None = None):
        super().__init__(ActionSpaceSpec(state_dim=9, param_dims=(1, 1, 1)))
        cfg = self.config = config or PlatformConfig()
        self._platforms = cfg.platforms
        self._laws = cfg.laws
        self._gaps = cfg.gaps
        self._max_disp = cfg.max_displacement
        # one patrol per platform but the last
        self._patrols = tuple(
            (a + cfg.enemy_inset, b - cfg.enemy_inset) for a, b in cfg.platforms[:-1]
        )
        # per platform: its start and width, the next gap's width and the
        # next platform's width, all over the length
        length = cfg.length
        ahead = [((b1 - a1) / length, (b2 - a2) / length)
                 for (a1, b1), (a2, b2) in zip(cfg.gaps, cfg.platforms[1:])]
        self._static = tuple(
            (a / length, (b - a) / length, *gap_next)
            for (a, b), gap_next in zip(cfg.platforms, [*ahead, (0.0, 0.0)])
        )
        self._agent_x = 0.0
        self._last_disp = 0.0
        self._platform = 0
        self._enemies: list[list[float]] = []  # [position, direction] per patrol

    def _reset(self):
        self._agent_x = 0.0
        self._last_disp = 0.0
        self._platform = 0
        self._enemies = [[hi, -1.0] for _, hi in self._patrols]
        return self._features()

    def _platform_of(self, x: float) -> int | None:
        for i, (a, b) in enumerate(self._platforms):
            if a <= x <= b:
                return i
        return None

    def _advance_enemy(self, i: int) -> tuple[float, float]:
        """New (position, direction) after one patrol step, without commit."""
        lo, hi = self._patrols[i]
        pos, direction = self._enemies[i]
        new = pos + direction * self.config.enemy_speed
        if new < lo:
            new = lo + (lo - new)
            direction = 1.0
        elif new > hi:
            new = hi - (new - hi)
            direction = -1.0
        return new, direction

    def _step(self, k, x):
        length = self.config.length
        base, span = self._laws[k]
        d = base + span * ((x[0] + 1.0) / 2.0)
        old_x = self._agent_x
        new_x = old_x + d

        enemy_moves = [self._advance_enemy(i) for i in range(len(self._enemies))]

        final = self._platform == len(self._platforms) - 1
        right_edge = self._platforms[self._platform][1]
        dead = False
        if k in (RUN, HOP) and not final and new_x > right_edge:
            dead = True  # low trajectories cannot clear a gap
        if not dead and any(a < new_x < b for a, b in self._gaps):
            dead = True
        if not dead and k == RUN and self._platform < len(self._enemies):
            e_old = self._enemies[self._platform][0]
            e_new = enemy_moves[self._platform][0]
            lo_e, hi_e = min(e_old, e_new), max(e_old, e_new)
            if new_x >= lo_e and old_x <= hi_e:
                dead = True

        if dead:
            terminal = True
            reward = 0.0
        elif new_x >= length:
            new_x = length
            reward = (new_x - old_x) / length
            terminal = True
        else:
            terminal = False
            reward = (new_x - old_x) / length

        for i, move in enumerate(enemy_moves):
            self._enemies[i][0], self._enemies[i][1] = move
        if not terminal or reward > 0.0:
            self._agent_x = new_x
            self._last_disp = d
            plat = self._platform_of(new_x)
            if plat is not None:
                self._platform = plat
        return self._features(), reward, terminal

    def _features(self) -> np.ndarray:
        """9 features, each within [-1, 1]."""
        length, x, i = self.config.length, self._agent_x, self._platform
        if i < len(self._enemies):
            e_pos, e_dir = self._enemies[i]
            rel_enemy = min(max((e_pos - x) / length, -1.0), 1.0)
        else:
            rel_enemy, e_dir = 1.0, 0.0
        return np.array([
            x / length,
            self._last_disp / self._max_disp,
            rel_enemy,
            e_dir,
            *self._static[i],
            (self._platforms[i][1] - x) / length,
        ])


class ParamBandit(Env):
    """One-step, two-action bandit with quadratic parameter payoffs.

    r(first, x) = 1 - (x - 0.3)^2 and r(second, x) = 0.8 - 2 (x + 0.5)^2,
    so the optimum is the first action at x = 0.3 with value 1.
    """

    VERTICES = (0.3, -0.5)

    def __init__(self):
        super().__init__(ActionSpaceSpec(state_dim=1, param_dims=(1, 1)))

    def _reset(self):
        return np.zeros(1)

    def reward(self, k: int, x: float) -> float:
        if k == 0:
            return 1.0 - (x - 0.3) ** 2
        return 0.8 - 2.0 * (x + 0.5) ** 2

    def _step(self, k, x):
        return np.zeros(1), self.reward(k, x[0]), True


MOVE, STOP = 0, 1


class ChainPAMDP(Env):
    """Three-state chain: move(x) advances with a quadratic reward peaking at
    a per-state target (-0.5 then +0.5); stop(x) ends the episode with 0.2;
    the far state is terminal and worth nothing further."""

    GOALS = (-0.5, 0.5)
    STOP_REWARD = 0.2

    def __init__(self):
        super().__init__(ActionSpaceSpec(state_dim=3, param_dims=(1, 1)))
        self._pos = 0

    def _encode(self) -> np.ndarray:
        s = np.zeros(3)
        s[self._pos] = 1.0
        return s

    def _reset(self):
        self._pos = 0
        return self._encode()

    def _step(self, k, x):
        if k == STOP:
            return self._encode(), self.STOP_REWARD, True
        r = 1.0 - (x[0] - self.GOALS[self._pos]) ** 2
        self._pos += 1
        return self._encode(), r, self._pos >= 2


def oracle_q(env: Env, gamma: float):
    """Closed-form optimal Q for the synthetic environments.

    Returns a callable (state_vector, k, x) -> Q*(s, k, x). Raises TypeError
    for environments without an analytic solution.
    """
    if isinstance(env, ParamBandit):

        def bandit_q(s, k, x):
            return env.reward(k, float(np.atleast_1d(x)[0]))

        return bandit_q
    if isinstance(env, ChainPAMDP):
        # Backward induction: the move reward peaks at 1 in every state, and
        # 1 + gamma * V(next) always beats the 0.2 stop payoff.
        v = [0.0, 0.0, 0.0]
        for i in (1, 0):
            v[i] = max(1.0 + gamma * v[i + 1], ChainPAMDP.STOP_REWARD)

        def chain_q(s, k, x):
            pos = int(np.argmax(np.asarray(s)))
            if k == STOP:
                return ChainPAMDP.STOP_REWARD
            if pos >= 2:
                raise ValueError("no actions available in the terminal state")
            x = float(np.atleast_1d(x)[0])
            return 1.0 - (x - ChainPAMDP.GOALS[pos]) ** 2 + gamma * v[pos + 1]

        return chain_q
    raise TypeError(f"no analytic oracle for {type(env).__name__}")


def make_env(env_id: str, overrides: dict | None = None) -> Env:
    """Environment factory used by the harness and checkpoint loader."""
    overrides = overrides or {}
    if env_id == "platform":
        return Platform(PlatformConfig(**overrides))
    others = {"bandit": ParamBandit, "chain": ChainPAMDP}
    if env_id not in others:
        raise ValueError(f"unknown environment {env_id!r}; expected one of "
                         f"{('platform', *others)}")
    if overrides:
        raise ValueError(f"{env_id} takes no overrides")
    return others[env_id]()
