from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamdp import harness
from pamdp.agent import AgentConfig, PDQNAgent, _stack_batch
from pamdp.qfunction import ActionSpaceSpec
from pamdp.replay import ReplayBuffer, Transition, finalize_episode

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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


def random_transition(rng, mc_share=0.5):
    """Random row; its Monte Carlo return is set with probability mc_share."""
    mc = float(rng.normal()) if rng.random() < mc_share else None
    return Transition(rng.normal(size=3), int(rng.integers(2)), rng.uniform(-1, 1, 2),
                      float(rng.normal()), rng.normal(size=3), bool(rng.random() < 0.3), mc)


class ObjectRing:
    """The replay as a list of the pushed objects: append until full, then
    overwrite the slot under a cursor, so slot i holds what row i holds."""

    def __init__(self, capacity, transitions=()):
        self.capacity, self.items, self.cursor = capacity, [], 0
        for t in transitions:
            self.push(t)

    def push(self, t):
        if len(self.items) < self.capacity:
            self.items.append(t)
        else:
            self.items[self.cursor] = t
            self.cursor = (self.cursor + 1) % self.capacity


def assert_same_batch(a, b):
    assert len(a) == len(b) == 7
    for got, want in zip(a, b):
        assert got.dtype == want.dtype and got.shape == want.shape
    for got, want in zip(a[:6], b[:6]):
        assert np.array_equal(got, want)
    assert np.array_equal(a[6], b[6], equal_nan=True)


class TestSample:
    @pytest.mark.parametrize("capacity, pushes, mc_share", [
        (50, 173, 0.5),    # wrapped more than three times
        (1000, 65, 0.5),   # partly filled, never wrapped
        (300, 300, 0.5),   # exactly full, cursor back at slot 0
        (300, 301, 0.5),   # wrapped by one row
        (40, 90, 0.0),     # no Monte Carlo returns
        (40, 90, 1.0),     # every return set
    ])
    def test_gather_equals_restacked_transitions(self, capacity, pushes, mc_share):
        rng = np.random.default_rng(capacity + pushes)
        pushed = [random_transition(rng, mc_share) for _ in range(pushes)]
        buf = ReplayBuffer(capacity)
        for t in pushed:
            buf.push(t)
        ring = ObjectRing(capacity, pushed).items
        for seed in range(5):
            sample = buf.sample(257, np.random.default_rng(seed))
            assert _stack_batch(sample) is sample.arrays
            # the Transition views, restacked as a list
            assert_same_batch(sample.arrays, _stack_batch(list(sample)))
            idx = np.random.default_rng(seed).integers(0, len(ring), 257)
            assert_same_batch(sample.arrays, _stack_batch([ring[i] for i in idx]))
        # the views read a missing return back as None
        stored = [t.mc_return for t in buf.contents()]
        assert (None in stored) == (mc_share < 1)
        assert any(isinstance(m, float) for m in stored) == (mc_share > 0)
        assert_same_batch(_stack_batch(buf.contents()),
                          _stack_batch(pushed[-capacity:]))

    def test_views_carry_python_scalars(self):
        buf = ReplayBuffer(capacity=4)
        for r in (1.0, 2.0, 3.0):
            buf.push(make_transition(r, terminal=r == 2.0, k=int(r) % 2))
        sample = buf.sample(6, np.random.default_rng(4))
        assert len(sample) == len(list(sample)) == 6
        for t in sample:
            assert type(t.k) is int and type(t.r) is float and type(t.terminal) is bool
            assert (t.k, t.terminal) == (int(t.r) % 2, t.r == 2.0) and t.mc_return is None


class TestDimensionlessBuffer:
    def test_first_push_fixes_row_shapes(self):
        buf = ReplayBuffer(capacity=8)
        first = Transition(np.arange(3.0), 1, np.array([0.5, -0.5]), 1.0, np.ones(3), False)
        buf.push(first)
        assert buf._rows[0].shape == (8, 3) and buf._rows[2].shape == (8, 2)
        before = _stack_batch(buf.contents())
        # without the check each of these would broadcast into the stored
        # row or fail halfway through writing it
        for bad in (
            Transition(np.zeros(1), 0, np.zeros(2), 0.0, np.zeros(3), False),
            Transition(np.zeros(3), 0, np.zeros(2), 0.0, np.zeros(1), False),
            Transition(np.zeros(3), 0, np.zeros(1), 0.0, np.zeros(3), False),
            Transition(np.zeros(3), 0, np.zeros((2, 2)), 0.0, np.zeros(3), False),
            Transition(np.zeros(4), 0, np.zeros(2), 0.0, np.zeros(4), False),
        ):
            with pytest.raises(ValueError, match="dimension mismatch"):
                buf.push(bad)
            assert len(buf) == 1
            assert_same_batch(_stack_batch(buf.contents()), before)
        buf.push(Transition(np.ones(3), 0, np.zeros(2), 2.0, np.zeros(3), True))
        assert [t.r for t in buf.contents()] == [1.0, 2.0]

    def test_first_push_needs_matching_state_shapes(self):
        buf = ReplayBuffer(capacity=8)
        with pytest.raises(ValueError, match="state dimension mismatch"):
            buf.push(Transition(np.zeros(3), 0, np.zeros(2), 0.0, np.zeros(2), False))
        assert len(buf) == 0 and buf.contents() == []


@pytest.mark.parametrize("config, episodes", [("bandit_oracle", 200), ("platform_desk", 60)])
@pytest.mark.parametrize("algorithm", ["pdqn-multipass", "pdqn-joint", "pdqn-separate", "paddpg"])
def test_training_bytes_match_restacked_sampling(tmp_path, monkeypatch, config, episodes,
                                                 algorithm):
    """Training on the gathered rows writes the CSV that restacking the
    pushed objects writes, drawn from a list ring with the same indices, on
    whatever machine both run. Platform updates start after about 40
    episodes for the slower-filling algorithms."""
    cfg = replace(harness.load_config(str(CONFIGS / f"{config}.conf")),
                  algorithm=algorithm, episodes=episodes, seeds=(0,))
    gathered = harness.train_seed(cfg, 0, str(tmp_path / "gathered"))["csv"]
    assert any(r["q_loss"] != "nan" for r in harness.read_csv(gathered)), "no update ran"

    push = ReplayBuffer.push

    def push_and_keep(self, t):
        push(self, t)
        self.__dict__.setdefault("objects", ObjectRing(self.capacity)).push(t)

    def restacked_objects(self, rng):
        buf = self.replay
        if len(buf) < max(self.config.initial_fill, self.config.batch_size):
            return None
        idx = buf.sample_indices(self.config.batch_size, rng)
        return _stack_batch([buf.objects.items[i] for i in idx])

    monkeypatch.setattr(ReplayBuffer, "push", push_and_keep)
    monkeypatch.setattr(PDQNAgent, "_sample_batch", restacked_objects)
    objects = harness.train_seed(cfg, 0, str(tmp_path / "objects"))["csv"]
    assert Path(objects).read_bytes() == Path(gathered).read_bytes()


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
