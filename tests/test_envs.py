import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamdp.envs import (
    HOP,
    LEAP,
    MOVE,
    RUN,
    STOP,
    ChainPAMDP,
    ParamBandit,
    Platform,
    PlatformConfig,
    make_env,
    oracle_q,
)

# completes the default geometry: run up to the enemy, hop over it, run to
# x=29, then leap the two gaps and the final stretch
SCRIPTED = [
    *[(RUN, -1.0)] * 6,  # x: 0 -> 18 in steps of 3
    (HOP, -1.0),  # over the enemy at 21..22, lands at 23
    (RUN, -0.5),  # d=6, lands at 29, enemy now behind
    (LEAP, -1.0),  # d=20, clears the first gap, lands at 49
    (LEAP, -0.2),  # d=26, clears the second gap, lands at 75
    (LEAP, 1.0),  # d=35, reaches the goal
]


class TestPlatformBasics:
    def test_reset_feature_vector(self):
        env = Platform()
        s = env.reset(seed=0)
        assert s.shape == (9,)
        assert s[0] == 0.0  # agent at the origin
        expected = [0.0, 0.0, 0.28, -1.0, 0.0, 0.3, 0.08, 0.3, 0.3]
        assert np.allclose(s, expected)

    def test_reset_deterministic(self):
        a = Platform().reset(seed=3)
        b = Platform().reset(seed=3)
        assert (a == b).all()

    def test_trajectory_deterministic(self):
        def roll():
            env = Platform()
            env.reset(seed=1)
            states = []
            for k, x in SCRIPTED:
                s, r, t = env.step(k, np.array([x]))
                states.append((s, r, t))
            return states

        for (s1, r1, t1), (s2, r2, t2) in zip(roll(), roll()):
            assert (s1 == s2).all() and r1 == r2 and t1 == t2

    def test_step_after_terminal_rejected(self):
        env = ParamBandit()
        env.reset()
        env.step(0, np.array([0.0]))
        with pytest.raises(RuntimeError):
            env.step(0, np.array([0.0]))

    def test_parameter_out_of_bounds_rejected(self):
        env = Platform()
        env.reset()
        with pytest.raises(ValueError):
            env.step(RUN, np.array([1.5]))

    @pytest.mark.parametrize("env_type", [Platform, ParamBandit, ChainPAMDP])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, env_type, value):
        """NaN fails both bound comparisons, so it needs its own check."""
        env = env_type()
        env.reset()
        with pytest.raises(ValueError, match="not finite"):
            env.step(0, np.array([value]))
        # a rejected action leaves the episode where it was
        s, r, _ = env.step(0, np.array([0.0]))
        assert np.isfinite(s).all() and math.isfinite(r)

    def test_bad_index_and_dimension_rejected(self):
        env = Platform()
        env.reset()
        for k in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                env.step(k, np.array([0.0]))
        for x in (np.zeros(2), np.zeros((1, 1)), np.zeros(0)):
            with pytest.raises(ValueError, match="wrong dimension"):
                env.step(RUN, x)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            PlatformConfig(platforms=((0.0, 40.0), (30.0, 100.0)))
        with pytest.raises(ValueError):
            PlatformConfig(platforms=((0.0, 30.0), (38.0, 90.0)))  # must end at length


class TestPlatformDynamics:
    def test_scripted_policy_succeeds_with_unit_return(self):
        env = Platform()
        env.reset()
        total = 0.0
        terminal = False
        for k, x in SCRIPTED:
            assert not terminal, "episode ended early"
            _, r, terminal = env.step(k, np.array([x]))
            total += r
        assert terminal
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_run_crossing_gap_edge_dies(self):
        env = Platform()
        env.reset()
        for k, x in SCRIPTED[:8]:  # brings the agent to x=29
            env.step(k, np.array([x]))
        _, r, terminal = env.step(RUN, np.array([-0.5]))  # d=6 ends at 35, inside the gap
        assert terminal and r == 0.0

    def test_leap_landing_in_gap_dies(self):
        env = Platform()
        env.reset()
        _, r, terminal = env.step(LEAP, np.array([0.6]))  # d=32 lands strictly inside (30, 38)
        assert terminal and r == 0.0

    def test_hop_cannot_clear_a_gap(self):
        env = Platform()
        env.reset()
        for k, x in SCRIPTED[:8]:
            env.step(k, np.array([x]))
        # from 29 a max hop reaches 49, beyond the platform edge at 30
        _, r, terminal = env.step(HOP, np.array([1.0]))
        assert terminal and r == 0.0

    def test_run_through_enemy_dies(self):
        env = Platform()
        env.reset()
        _, r, terminal = env.step(RUN, np.array([1.0]))  # to 15, enemy 28 -> 27
        assert not terminal and r == pytest.approx(0.15)
        _, r, terminal = env.step(RUN, np.array([1.0]))  # path [15, 30] meets sweep [26, 27]
        assert terminal and r == 0.0

    def test_hop_passes_over_enemy(self):
        env = Platform()
        env.reset()
        for k, x in SCRIPTED[:6]:
            env.step(k, np.array([x]))
        # agent at 18, enemy sweeping [21, 22]: a run dies, the scripted hop does not
        probe = Platform()
        probe.reset()
        for k, x in SCRIPTED[:6]:
            probe.step(k, np.array([x]))
        _, r, terminal = probe.step(RUN, np.array([0.0]))  # d=9 runs through the enemy
        assert terminal and r == 0.0
        _, r, terminal = env.step(HOP, np.array([-1.0]))
        assert not terminal and r == pytest.approx(0.05)

    @given(st.lists(st.tuples(st.integers(0, 2), st.floats(-1, 1)), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_return_bounded_and_features_normalized(self, actions):
        env = Platform()
        s = env.reset()
        total = 0.0
        success = False
        for k, x in actions:
            s, r, terminal = env.step(k, np.array([x]))
            assert (s >= -1.0).all() and (s <= 1.0).all()
            total += r
            if terminal:
                success = env._agent_x >= env.config.length
                break
        assert total <= 1.0 + 1e-12
        if success:
            assert total == pytest.approx(1.0, rel=1e-12)


EXACT_PARAMETERS = np.array([-1.0, 0.0, 1.0])


def platform_trajectory_digest(env: Platform, steps: int, seed: int) -> str:
    """SHA-256 over a seeded stream of random actions, a quarter of them at
    exactly -1, 0 or 1: each reset state, then per step the state bytes, the
    reward as a little-endian double and the terminal flag."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    terminal = True
    for _ in range(steps):
        if terminal:
            h.update(env.reset().tobytes())
        k = int(rng.integers(3))
        x = EXACT_PARAMETERS[rng.integers(3)] if rng.random() < 0.25 else rng.uniform(-1.0, 1.0)
        s, r, terminal = env.step(k, np.array([x]))
        h.update(s.tobytes())
        h.update(struct.pack("<d?", r, terminal))
    return h.hexdigest()


# recorded when the dynamics still ran on numpy arrays (unscale_params,
# np.clip); no BLAS call is involved, so they hold on any machine
@pytest.mark.parametrize("overrides, seed, digest", [
    ({}, 0, "fca128a883014ae0ccb54a3d1819ed7793350085493cd2fe2767ce215d5c01c6"),
    ({"enemy_speed": 2.5, "enemy_inset": 4.0}, 1,
     "c0c489b88b54cbe4f0e2fb9d974669830d644fca7eab87909ce2a231f53d3caa"),
])
def test_platform_trajectory_hash(overrides, seed, digest):
    """20,000 random decisions (about 6,000 episodes, some 850 of them
    successful on the default geometry) give the recorded states, rewards
    and terminals to the bit."""
    assert platform_trajectory_digest(Platform(PlatformConfig(**overrides)), 20_000, seed) == digest


class TestParamBandit:
    def test_first_action_vertex(self):
        env = ParamBandit()
        env.reset()
        _, r, terminal = env.step(0, np.array([0.3]))
        assert r == 1.0 and terminal

    def test_second_action_vertex(self):
        env = ParamBandit()
        env.reset()
        _, r, terminal = env.step(1, np.array([-0.5]))
        assert r == 0.8 and terminal


class TestChain:
    def test_optimal_path(self):
        env = ChainPAMDP()
        s = env.reset()
        assert s.tolist() == [1.0, 0.0, 0.0]
        s, r1, t1 = env.step(MOVE, np.array([-0.5]))
        assert r1 == 1.0 and not t1 and s.tolist() == [0.0, 1.0, 0.0]
        s, r2, t2 = env.step(MOVE, np.array([0.5]))
        assert r2 == 1.0 and t2 and s.tolist() == [0.0, 0.0, 1.0]

    def test_stop_reward(self):
        env = ChainPAMDP()
        env.reset()
        _, r, terminal = env.step(STOP, np.array([0.9]))
        assert r == 0.2 and terminal


class TestOracle:
    def test_bandit_optimum(self):
        env = ParamBandit()
        q = oracle_q(env, gamma=0.9)
        assert q(np.zeros(1), 0, 0.3) == 1.0
        assert q(np.zeros(1), 1, -0.5) == 0.8

    def test_chain_closed_form(self):
        env = ChainPAMDP()
        q = oracle_q(env, gamma=0.9)
        s0 = np.array([1.0, 0.0, 0.0])
        s1 = np.array([0.0, 1.0, 0.0])
        assert q(s0, MOVE, -0.5) == pytest.approx(1.9)
        assert q(s1, MOVE, 0.5) == pytest.approx(1.0)
        assert q(s0, STOP, 0.0) == 0.2

    def test_no_oracle_for_platform(self):
        with pytest.raises(TypeError):
            oracle_q(Platform(), gamma=0.9)

    def test_bandit_oracle_matches_grid_enumeration(self):
        grid = np.linspace(-1.0, 1.0, 20001)
        env = ParamBandit()
        q = oracle_q(env, gamma=0.9)
        for k in (0, 1):
            rewards = []
            for x in grid:
                env.reset()
                rewards.append(env.step(k, np.array([x]))[1])
            rewards = np.asarray(rewards)
            direct = np.array([q(np.zeros(1), k, x) for x in grid])
            assert np.abs(rewards - direct).max() < 1e-12
        assert abs(rewards.max() - 0.8) < 1e-8  # k=1 peak from enumeration

    def test_chain_oracle_matches_grid_backward_induction(self):
        gamma = 0.9
        grid = np.linspace(-1.0, 1.0, 20001)
        env = ChainPAMDP()

        def move_reward(pos, x):
            env.reset()
            if pos == 1:
                env.step(MOVE, np.array([-0.5]))
            return env.step(MOVE, np.array([x]))[1]

        env.reset()
        stop_reward = env.step(STOP, np.array([0.0]))[1]

        # grid dynamic programming from the terminal state backwards
        v2 = 0.0
        q1 = np.array([move_reward(1, x) for x in grid]) + gamma * v2
        v1 = max(q1.max(), stop_reward)
        q0 = np.array([move_reward(0, x) for x in grid]) + gamma * v1

        q = oracle_q(ChainPAMDP(), gamma)
        s0 = np.array([1.0, 0.0, 0.0])
        s1 = np.array([0.0, 1.0, 0.0])
        direct0 = np.array([q(s0, MOVE, x) for x in grid])
        direct1 = np.array([q(s1, MOVE, x) for x in grid])
        assert np.abs(q1 - direct1).max() < 1e-7
        assert np.abs(q0 - direct0).max() < 1e-7
        assert abs(grid[np.argmax(q0)] - -0.5) < 1e-4
        assert abs(grid[np.argmax(q1)] - 0.5) < 1e-4


class TestFactory:
    def test_known_ids(self):
        assert isinstance(make_env("platform"), Platform)
        assert isinstance(make_env("bandit"), ParamBandit)
        assert isinstance(make_env("chain"), ChainPAMDP)

    def test_platform_overrides(self):
        env = make_env("platform", {"length": 50.0, "platforms": ((0.0, 20.0), (25.0, 50.0))})
        assert env.config.length == 50.0

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            make_env("cartpole")
        with pytest.raises(ValueError):
            make_env("bandit", {"length": 2.0})
