import copy
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamdp import agent as agent_module
from pamdp import harness, nncore
from pamdp.agent import AgentConfig, PADDPGAgent, PDQNAgent, ParameterisedAction, _stack_batch
from pamdp.checkpoint import _agent_arrays, load_checkpoint, save_checkpoint
from pamdp.qfunction import ActionSpaceSpec, cross_gradient_matrix
from pamdp.replay import Transition
from conftest import assert_back_to_back, checkpoint_arrays, patch_everywhere, zero_nets

SPACE = ActionSpaceSpec(state_dim=2, param_dims=(1, 1))
SPACE3 = ActionSpaceSpec(state_dim=4, param_dims=(1, 2, 1))


def small_config(**kwargs):
    defaults = dict(
        gamma=0.9, batch_size=4, replay_capacity=64, initial_fill=4,
        lr_q=0.01, lr_actor=0.005, hidden=(8,), epsilon_horizon=10,
        ou_sigma=0.1,
    )
    defaults.update(kwargs)
    return AgentConfig(**defaults)


def params(*nets):
    """A copy of the networks' parameters, back to back."""
    return np.concatenate([net.flat for net in nets])


def make_agent(variant="multipass", space=SPACE, seed=0, **cfg):
    return PDQNAgent(space, variant, small_config(**cfg), np.random.default_rng(seed))


def make_transition(space, rng, terminal=True, r=None, k=None):
    return Transition(
        s=rng.standard_normal(space.state_dim),
        k=int(rng.integers(space.num_actions)) if k is None else k,
        x_joint=rng.uniform(-1, 1, space.joint_dim),
        r=float(rng.uniform(-1, 1)) if r is None else r,
        s_next=rng.standard_normal(space.state_dim),
        terminal=terminal,
    )


class TestSelectAction:
    def test_greedy_is_deterministic_and_noise_free(self):
        agent = make_agent(seed=1)
        rng = np.random.default_rng(2)
        s = np.array([0.3, -0.7])
        a1 = agent.select_action(s, False, rng)
        a2 = agent.select_action(s, False, rng)
        assert a1.k == a2.k and (a1.x_joint == a2.x_joint).all()
        q = agent.q_values(s, a1.x_joint)
        assert a1.k == int(np.argmax(q))
        assert (a1.x_k == a1.x_joint[agent.space.block(a1.k)]).all()

    def test_full_exploration_is_uniform(self):
        agent = make_agent(seed=3)
        agent.epsilon.current = 1.0
        rng = np.random.default_rng(4)
        n = 100_000
        counts = np.zeros(2)
        s = np.zeros(2)
        for _ in range(n):
            counts[agent.select_action(s, True, rng).k] += 1
        freq = counts / n
        sigma = np.sqrt(0.5 * 0.5 / n)
        assert np.abs(freq - 0.5).max() < 3 * sigma

    def test_exact_ties_pick_lowest_index(self):
        agent = make_agent(seed=5)
        zero_nets(*agent.qf.nets)  # all Q equal zero
        a = agent.select_action(np.array([0.1, 0.2]), False, np.random.default_rng(6))
        assert a.k == 0


class TestQUpdate:
    def test_zero_residual_keeps_parameters(self):
        agent = make_agent(seed=9)
        zero_nets(*agent.qf.nets)
        rng = np.random.default_rng(10)
        batch = [make_transition(SPACE, rng, terminal=True, r=0.0) for _ in range(4)]
        before = params(*agent.qf.nets)
        assert agent.q_update(_stack_batch(batch)) == 0.0
        assert (params(*agent.qf.nets) == before).all()

    @pytest.mark.parametrize("variant", ["joint", "multipass", "separate"])
    def test_descends_frozen_minibatch(self, variant):
        agent = make_agent(variant, seed=11)
        rng = np.random.default_rng(12)
        batch = [make_transition(SPACE, rng, terminal=True) for _ in range(8)]
        losses = [agent.q_update(_stack_batch(batch)) for _ in range(100)]
        assert losses[-1] < losses[0]


class TestActorUpdate:
    def test_constant_q_leaves_actor_unchanged(self):
        agent = make_agent("joint", seed=17)
        zero_nets(*agent.qf.nets)  # Q constant in x
        before = params(agent.actor.net)
        agent.actor_update(np.random.default_rng(18).standard_normal((4, 2)))
        assert (params(agent.actor.net) == before).all()


class TestInvariants:
    def test_multipass_updates_preserve_independence(self):
        agent = make_agent("multipass", seed=21)
        rng = np.random.default_rng(22)
        for t in [make_transition(SPACE, rng) for _ in range(8)]:
            agent.replay.push(t)
        for _ in range(30):
            agent.update_from_replay(rng)
        for seed in range(10):
            r2 = np.random.default_rng(100 + seed)
            s = r2.standard_normal(2)
            x = r2.uniform(-1, 1, 2)
            g = cross_gradient_matrix(agent.qf, s, x)
            assert np.abs(g[~np.eye(2, dtype=bool)]).max() <= 1e-12

    def test_joint_and_multipass_identical_at_zero_params(self):
        joint = make_agent("joint", seed=23)
        multi = make_agent("multipass", seed=23)
        s = np.array([0.4, -0.9])
        x = np.zeros(2)
        assert (joint.q_values(s, x) == multi.q_values(s, x)).all()

    def test_targets_move_only_through_polyak(self):
        agent = make_agent("multipass", seed=24)
        rng = np.random.default_rng(25)
        batch = [make_transition(SPACE, rng) for _ in range(4)]
        before, actor_before = params(*agent.qf_target.nets), params(agent.actor_target.net)
        agent.q_update(_stack_batch(batch))
        agent.actor_update(np.stack([t.s for t in batch]))
        assert (params(*agent.qf_target.nets) == before).all()
        assert (params(agent.actor_target.net) == actor_before).all()
        agent.sync_targets()
        assert (params(*agent.qf_target.nets) != before).any()


SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_row_max_is_the_reduction(k, rows, seed, special_share):
    """The bootstrap's column chain against ``np.maximum.reduce``: the same
    values, NaN, infinities and denormals included, and over 1 to 3
    columns the same bits, signed zeros included."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((rows, k))
    special = rng.random((rows, k)) < special_share
    q[special] = rng.choice(SPECIALS, special.sum())
    got, expected = agent_module._row_max(q), np.maximum.reduce(q, axis=1)
    assert np.array_equal(got, expected, equal_nan=True)
    assert k > 3 or got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
def test_reused_workspaces_match_a_fresh_agent(algorithm):
    """After updates whose targets bootstrap on 128 and then 97 live rows, and
    a 1-row greedy forward, an update writes the bits that an agent with new
    working arrays, input rows and gradient buffers writes: no stale row or
    buffer reaches it."""
    space, rng = SPACE3, np.random.default_rng(45)
    agent = agent_module.make_agent(algorithm, space, small_config(batch_size=128, replay_capacity=128),
                                    np.random.default_rng(46))

    def batch(live):
        stacked = _stack_batch([make_transition(space, rng, terminal=i >= live)
                                for i in range(128)])
        if algorithm == "paddpg":
            wide = rng.uniform(-1, 1, (128, space.num_actions + space.joint_dim))
            stacked = (*stacked[:2], wide, *stacked[3:])
        return stacked

    agent.update(batch(128))
    agent.update(batch(97))
    agent.select_action(rng.standard_normal(space.state_dim), False, rng)
    fresh = copy.deepcopy(agent)
    assert fresh.qf.nets[0]._grad is None and fresh.qf.nets[0]._arrays.rows == 0
    final = batch(128)
    assert agent.update(final) == fresh.update(final)
    for (name, a), (_, b) in zip(_agent_arrays(agent), _agent_arrays(fresh), strict=True):
        assert a.tobytes() == b.tobytes(), name


def assert_one_buffer(qf):
    """The Q-function's networks' parameters, and their gradient buffers if
    made, are views that fill its parameter and gradient buffers in order."""
    assert_back_to_back([net.flat for net in qf.nets], qf.flat)
    if qf._grad is not None:
        assert_back_to_back([net.gradient_buffer() for net in qf.nets], qf._grad)


class TestFlatBuffers:
    """Each update step passes one buffer per optimizer to Adam, the clip and
    Polyak averaging: the actor's, and the Q-function's, whose networks'
    parameters and gradients are views of it."""

    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_update_passes_one_buffer_per_optimizer(self, monkeypatch, algorithm):
        space = SPACE3
        agent = agent_module.make_agent(algorithm, space, small_config(), np.random.default_rng(31))
        calls = []
        for name in ("adam_step", "clip_grad_norm", "polyak_update"):
            original = getattr(nncore, name)

            def record(*args, name=name, original=original):
                calls.append((name, args))
                return original(*args)

            patch_everywhere(monkeypatch, nncore, name, record)
        rng = np.random.default_rng(32)
        batch = _stack_batch([make_transition(space, rng) for _ in range(6)])
        if algorithm == "paddpg":
            batch = (batch[0], batch[1], rng.uniform(-1, 1, (6, 3 + space.joint_dim)), *batch[3:])
        agent.update(batch)

        qf, actor = agent.qf, agent.actor.net
        assert len(qf.nets) == (3 if algorithm == "pdqn-separate" else 1)
        assert qf.layout == sum((net.layout for net in qf.nets), ())
        assert_one_buffer(qf)
        assert [name for name, _ in calls] == [
            "clip_grad_norm", "adam_step", "clip_grad_norm", "adam_step",
            "polyak_update", "polyak_update"]
        (_, (q_grads, _, q_layouts)), (_, q_adam), (_, (a_grads, _, a_layouts)), (_, a_adam) = (
            calls[:4])
        for grads, layouts, owner in ((q_grads, q_layouts, qf), (a_grads, a_layouts, actor)):
            assert layouts == [owner.layout]
            assert [id(g) for g in grads] == [id(owner.gradient_buffer())]
        for (params, _, state), owner, opt in ((q_adam, qf, agent.q_opt),
                                               (a_adam, actor, agent.actor_opt)):
            assert [id(p) for p in params] == [id(owner.flat)]
            assert state is opt and len(state.m) == len(state.v) == 1
            assert state.m[0].shape == owner.flat.shape
        (_, q_polyak), (_, a_polyak) = calls[4:]
        assert [id(t) for t in q_polyak[0]] == [id(agent.qf_target.flat)]
        assert [id(o) for o in q_polyak[1]] == [id(qf.flat)]
        assert [id(t) for t in a_polyak[0]] == [id(agent.actor_target.net.flat)]
        assert [id(o) for o in a_polyak[1]] == [id(actor.flat)]

    @pytest.mark.parametrize("how", ["deepcopy", "pickle", "checkpoint"])
    def test_copies_keep_one_buffer_per_optimizer(self, tmp_path, how):
        """A copied, pickled or loaded separate agent keeps each Q-function's
        networks' parameters and gradient buffers as views of one buffer and
        its Adam moments as one buffer each, with the original's values and
        next update; so does ``QFunction.copy``."""
        agent = agent_module.make_agent("pdqn-separate", SPACE3, small_config(),
                                        np.random.default_rng(35))
        rng = np.random.default_rng(36)
        batch = _stack_batch([make_transition(SPACE3, rng) for _ in range(6)])
        agent.update(batch)
        if how == "checkpoint":
            save_checkpoint(tmp_path / "agent.ckpt", agent, "chain", {})
            twin, _ = load_checkpoint(tmp_path / "agent.ckpt")
        else:
            twin = (copy.deepcopy(agent) if how == "deepcopy"
                    else pickle.loads(pickle.dumps(agent)))
        for qf, original in ((twin.qf, agent.qf), (twin.qf_target, agent.qf_target),
                             (agent.qf.copy(), agent.qf)):
            assert not np.shares_memory(qf.flat, original.flat)
            assert qf.flat.tobytes() == original.flat.tobytes()
            qf.gradient_buffer()
            assert_one_buffer(qf)
        (m,), (v,) = twin.q_opt.m, twin.q_opt.v
        assert m.shape == v.shape == twin.qf.flat.shape
        s, x = rng.standard_normal(SPACE3.state_dim), rng.uniform(-1, 1, SPACE3.joint_dim)
        assert twin.q_values(s, x).tobytes() == agent.q_values(s, x).tobytes()
        assert twin.update(batch) == agent.update(batch)
        assert twin.qf.flat.tobytes() == agent.qf.flat.tobytes()
        assert_one_buffer(twin.qf)

    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_loaded_checkpoint_fills_the_buffers(self, tmp_path, algorithm):
        agent = agent_module.make_agent(algorithm, SPACE3, small_config(), np.random.default_rng(33))
        rng = np.random.default_rng(34)
        for _ in range(8):
            t = make_transition(SPACE3, rng)
            if algorithm == "paddpg":
                t.x_joint = rng.uniform(-1, 1, 3 + SPACE3.joint_dim)
            agent.replay.push(t)
        for _ in range(3):
            agent.update_from_replay(rng)
        path = tmp_path / "agent.ckpt"
        save_checkpoint(path, agent, "chain", {})
        loaded, _ = load_checkpoint(path)
        payload = payload_arrays(path)

        def held(prefix):
            return np.concatenate([a for name, a in payload.items()
                                   if name.startswith(f"{prefix}/layer")])

        if algorithm == "paddpg":
            q, q_target = ["critic"], ["critic_target"]
        else:
            q = [f"q/net{i}" for i in range(len(agent.qf.nets))]
            q_target = [f"q_target/net{i}" for i in range(len(agent.qf.nets))]
        for prefixes, nets in ((q, loaded.qf.nets), (q_target, loaded.qf_target.nets),
                               (["actor"], [loaded.actor.net]),
                               (["actor_target"], [loaded.actor_target.net])):
            for prefix, net in zip(prefixes, nets, strict=True):
                assert np.array_equal(net.flat, held(prefix))
                assert all(np.shares_memory(p, net.flat)
                           for layer in net.layers for p in (layer.weights, layer.biases))
        for name, opt, twin, nets in (("q_opt", agent.q_opt, loaded.q_opt, agent.qf.nets),
                                      ("actor_opt", agent.actor_opt, loaded.actor_opt,
                                       [agent.actor.net])):
            assert [m.shape for m in twin.m] == [m.shape for m in opt.m]
            # the format's names and order: m<i>, v<i> per parameter array
            shapes = [shape for net in nets for shape in net.layout]
            assert [(n, a.size) for n, a in payload.items() if n.startswith(f"{name}/")] == [
                (f"{name}/{k}{i}", math.prod(shape)) for i, shape in enumerate(shapes)
                for k in "mv"]
            for moment in ("m", "v"):
                stored = [a for n, a in payload.items() if n.startswith(f"{name}/{moment}")]
                buffers = getattr(twin, moment)
                assert np.array_equal(np.concatenate(buffers), np.concatenate(stored))
                assert np.array_equal(np.concatenate(buffers),
                                      np.concatenate(getattr(opt, moment)))
                assert np.concatenate(buffers).any()


def payload_arrays(path) -> dict:
    """The arrays of a checkpoint file by name."""
    data = Path(path).read_bytes()
    return {name: np.frombuffer(data, "<f8", math.prod(shape), offset)
            for name, (offset, shape) in checkpoint_arrays(data).items()}


class TestMixedTargets:
    def test_undiscounted_monte_carlo_endpoint(self):
        agent = PDQNAgent(SPACE, "multipass", small_config(gamma=1.0),
                          np.random.default_rng(28))
        rng = np.random.default_rng(29)
        episode = [
            make_transition(SPACE, rng, terminal=False, r=0.0),
            make_transition(SPACE, rng, terminal=False, r=0.0),
            make_transition(SPACE, rng, terminal=True, r=1.0),
        ]
        got = agent.nstep_mixed_target(episode, beta=1.0)
        assert got.tolist() == [1.0, 1.0, 1.0]

    def test_hand_mixed_two_step_episode(self):
        agent = make_agent(seed=30)
        zero_nets(*agent.qf_target.nets, agent.actor_target.net)
        agent.qf_target.nets[0].layers[-1].biases[:] = [0.5, -2.0]
        rng = np.random.default_rng(31)
        episode = [
            make_transition(SPACE, rng, terminal=False, r=0.2),
            make_transition(SPACE, rng, terminal=True, r=1.0),
        ]
        got = agent.nstep_mixed_target(episode, beta=0.25)
        g1 = 1.0
        g0 = 0.2 + 0.9 * g1
        y0 = 0.2 + 0.9 * 0.5
        y1 = 1.0
        assert got[0] == pytest.approx(0.75 * y0 + 0.25 * g0)
        assert got[1] == pytest.approx(0.75 * y1 + 0.25 * g1)

    @pytest.mark.parametrize("family", ["pdqn", "paddpg"])
    def test_truncated_tail_discounted_once(self, family):
        # one truncated step, r = 0, V(s') = 2, gamma = 0.5: the return is 1
        agent = (make_agent if family == "pdqn" else make_paddpg)(seed=43, gamma=0.5)
        zero_nets(*agent.qf_target.nets, agent.actor_target.net)
        agent.qf_target.nets[0].layers[-1].biases[:] = 2.0
        episode = [make_transition(SPACE, np.random.default_rng(44), terminal=False, r=0.0)]
        assert agent.monte_carlo_returns(episode).tolist() == [1.0]

    def test_beta_out_of_range_rejected(self):
        agent = make_agent(seed=32)
        with pytest.raises(ValueError):
            agent.nstep_mixed_target([], beta=-0.1)


def make_paddpg(seed=0, **cfg):
    return PADDPGAgent(SPACE, small_config(**cfg), np.random.default_rng(seed))


class TestPADDPG:
    def test_greedy_argmax_over_selection_scores(self):
        agent = make_paddpg(seed=33)
        zero_nets(agent.actor.net)
        agent.actor.net.layers[-1].biases[:] = [0.9, -0.2, 0.0, 0.0]
        a = agent.select_action(np.zeros(2), False, np.random.default_rng(34))
        assert a.k == 0
        assert a.emitted.shape == (4,)
        assert (a.x_joint == a.emitted[2:]).all()

    def test_full_exploration_uniform(self):
        agent = make_paddpg(seed=35)
        agent.epsilon.current = 1.0
        rng = np.random.default_rng(36)
        n = 20_000
        counts = np.zeros(2)
        for _ in range(n):
            counts[agent.select_action(np.zeros(2), True, rng).k] += 1
        freq = counts / n
        assert np.abs(freq - 0.5).max() < 4 * np.sqrt(0.25 / n)

    def test_emitted_vector_clamped_after_noise(self):
        agent = make_paddpg(seed=37, ou_sigma=5.0)
        rng = np.random.default_rng(38)
        for _ in range(50):
            a = agent.select_action(np.zeros(2), True, rng)
            assert (a.emitted >= agent.bounds[:, 0]).all()
            assert (a.emitted <= agent.bounds[:, 1]).all()

    def test_constant_critic_leaves_actor_unchanged(self):
        agent = make_paddpg(seed=40)
        zero_nets(*agent.qf.nets, *agent.qf_target.nets)
        rng = np.random.default_rng(41)
        batch = [
            Transition(rng.standard_normal(2), 0, rng.uniform(-1, 1, 4), 0.0,
                       rng.standard_normal(2), True)
            for _ in range(4)
        ]
        before = params(agent.actor.net)
        agent.update(_stack_batch(batch))
        assert (params(agent.actor.net) == before).all()


class TestParameterisedAction:
    def test_block_consistency(self):
        x = np.array([0.1, 0.2, 0.3])
        a = ParameterisedAction(1, x[1:3], x)
        assert (a.x_k == a.x_joint[1:3]).all()
        assert a.emitted is x
