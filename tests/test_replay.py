import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamdp.agent import AgentConfig, PDQNAgent, _stack_batch
from pamdp.qfunction import ActionSpaceSpec
from pamdp.replay import ReplayBuffer, Transition, finalize_episode

SPACE = ActionSpaceSpec(state_dim=2, param_dims=(1, 1))


def make_transition(r, terminal=False, k=0):
    return Transition(
        s=np.zeros(2), k=k, x_joint=np.zeros(2), r=float(r), s_next=np.ones(2),
        terminal=terminal,
    )


class TestRingBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=2)
        for r in (1.0, 2.0, 3.0):
            buf.push(make_transition(r))
        assert [t.r for t in buf.contents()] == [2.0, 3.0]

    def test_sampling_closed_over_contents(self):
        buf = ReplayBuffer(capacity=4)
        buf.push(make_transition(7.0))
        rng = np.random.default_rng(0)
        for _ in range(20):
            (t,) = buf.sample(1, rng)
            assert t.r == 7.0

    def test_single_slot_oversampling(self):
        buf = ReplayBuffer(capacity=4)
        buf.push(make_transition(5.0))
        batch = buf.sample(3, np.random.default_rng(1))
        assert [t.r for t in batch] == [5.0, 5.0, 5.0]

    def test_empty_buffer_rejected(self):
        buf = ReplayBuffer(capacity=4)
        with pytest.raises(ValueError):
            buf.sample(1, np.random.default_rng(2))

    def test_fixed_seed_reproducible_indices(self):
        buf = ReplayBuffer(capacity=8)
        for r in range(8):
            buf.push(make_transition(r))
        a = buf.sample_indices(16, np.random.default_rng(3))
        b = buf.sample_indices(16, np.random.default_rng(3))
        assert (a == b).all()

    @given(st.integers(1, 10), st.integers(0, 30))
    @settings(max_examples=60)
    def test_holds_last_capacity_in_insertion_order(self, capacity, extra):
        n = capacity + extra
        buf = ReplayBuffer(capacity=capacity)
        for r in range(n):
            buf.push(make_transition(r))
        assert [t.r for t in buf.contents()] == list(range(n - capacity, n))

    def test_malformed_transitions_rejected(self):
        buf = ReplayBuffer(capacity=4, state_dim=2, action_dim=2, num_actions=2,
                           bounds=np.tile([-1.0, 1.0], (2, 1)))
        good = make_transition(0.0)
        buf.push(good)
        bad_nan = make_transition(np.nan)
        with pytest.raises(ValueError):
            buf.push(bad_nan)
        with pytest.raises(ValueError):
            buf.push(Transition(np.zeros(3), 0, np.zeros(2), 0.0, np.zeros(2), False))
        with pytest.raises(ValueError):
            buf.push(Transition(np.zeros(2), 5, np.zeros(2), 0.0, np.zeros(2), False))
        with pytest.raises(ValueError):
            buf.push(Transition(np.zeros(2), 0, np.array([2.0, 0.0]), 0.0, np.zeros(2), False))


def constant_value_agent(bias, gamma=0.9, mixed_targets=True, beta_mix=0.25):
    """Agent whose target nets output fixed Q-values: zero weights, set bias."""
    cfg = AgentConfig(gamma=gamma, batch_size=2, replay_capacity=16, initial_fill=2,
                      hidden=(4,), epsilon_horizon=1, mixed_targets=mixed_targets,
                      beta_mix=beta_mix)
    agent = PDQNAgent(SPACE, "multipass", cfg, np.random.default_rng(0))
    for net in agent.qf_target.nets + [agent.actor_target.net]:
        for layer in net.layers:
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
    agent.qf_target.nets[0].layers[-1].biases[:] = bias
    return agent


def finalized(agent, episode, beta=0.25):
    buf = ReplayBuffer(capacity=8)
    finalize_episode(buf, episode, agent, beta)
    return buf.contents()


class TestFinalizeEpisode:
    def test_terminal_single_transition_is_its_reward(self):
        agent = constant_value_agent([3.0, 1.0])
        (stored,) = finalized(agent, [make_transition(0.7, terminal=True)], beta=0.75)
        assert stored.mc_return == 0.7
        # without mixed targets no return is computed or stored
        agent = constant_value_agent([3.0, 1.0], mixed_targets=False)
        (stored,) = finalized(agent, [make_transition(0.7, terminal=True)], beta=0.75)
        assert stored.mc_return is None

    def test_beta_zero_equals_one_step_targets(self):
        agent = constant_value_agent([3.0, 1.0], gamma=0.9, beta_mix=0.0)
        stored = finalized(agent, [make_transition(0.5), make_transition(1.0, terminal=True)])
        assert [t.mc_return for t in stored] == pytest.approx([0.5 + 0.9 * 1.0, 1.0])
        # the update targets mix in no return at beta_mix 0: r + gamma * max(bias)
        targets = agent._targets(_stack_batch(stored))
        assert targets.tolist() == pytest.approx([0.5 + 0.9 * 3.0, 1.0])

    def test_hand_mixed_three_step_episode(self):
        rewards = (0.1, 0.2, 1.0)
        episode = [
            make_transition(rewards[0]),
            make_transition(rewards[1]),
            make_transition(rewards[2], terminal=True),
        ]
        g2 = 1.0
        g1 = 0.2 + 0.9 * g2
        g0 = 0.1 + 0.9 * g1
        y0 = 0.1 + 0.9 * 2.0
        y1 = 0.2 + 0.9 * 2.0
        y2 = 1.0
        agent = constant_value_agent([2.0, -1.0], gamma=0.9, beta_mix=0.25)
        stored = finalized(agent, episode)
        assert [t.mc_return for t in stored] == pytest.approx([g0, g1, g2])
        expected = [0.75 * y + 0.25 * g for y, g in zip((y0, y1, y2), (g0, g1, g2))]
        assert agent._targets(_stack_batch(stored)).tolist() == pytest.approx(expected)
        # mixed targets off: nothing stored, and updates use the one-step targets
        for t in episode:
            t.mc_return = None
        agent = constant_value_agent([2.0, -1.0], gamma=0.9, mixed_targets=False)
        stored = finalized(agent, episode)
        assert [t.mc_return for t in stored] == [None, None, None]
        assert agent._targets(_stack_batch(stored)).tolist() == pytest.approx([y0, y1, y2])

    def test_beta_out_of_range_rejected(self):
        agent = constant_value_agent([0.0, 0.0])
        with pytest.raises(ValueError):
            finalize_episode(ReplayBuffer(4), [make_transition(0.0, True)], agent, beta=1.5)
