import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pamdp import agent as agent_module
from pamdp import harness, nncore
from pamdp.agent import AgentConfig, PADDPGAgent, PDQNAgent, ParameterisedAction, _stack_batch
from pamdp.checkpoint import load_checkpoint, save_checkpoint
from pamdp.nncore import backward, clip_grad_norm, forward, input_gradient
from pamdp.policy import invert_gradients
from pamdp.qfunction import ActionSpaceSpec, cross_gradient_matrix
from pamdp.replay import Transition
from conftest import adam_step_net, fd_scalar_grad, relative_error

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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


def zero_nets(*nets):
    for net in nets:
        for layer in net.layers:
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
        net.mark_updated()


def make_agent(variant="multipass", space=SPACE, seed=0, **cfg):
    return PDQNAgent(space, variant, small_config(**cfg), np.random.default_rng(seed))


def one_step_target(agent, r, s_next, terminal):
    return agent._bootstrap_targets(np.array([r]), s_next[None, :], np.array([terminal]))[0]


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


def hand_set_agent():
    """Joint-variant agent with single linear layers and hand-set weights."""
    space = ActionSpaceSpec(state_dim=1, param_dims=(1, 1))
    agent = PDQNAgent(space, "joint", small_config(hidden=(), batch_size=1, initial_fill=1),
                      np.random.default_rng(0))
    w = np.array([[0.1, -0.2], [0.3, 0.4], [0.5, -0.6]])
    b = np.array([0.05, -0.05])
    for qf in (agent.qf, agent.qf_target):
        qf.nets[0].layers[0].weights[:] = w
        qf.nets[0].layers[0].biases[:] = b
        qf.nets[0].mark_updated()
    a_w = np.array([[0.7, -0.3]])
    a_b = np.array([0.1, 0.2])
    for actor in (agent.actor, agent.actor_target):
        actor.net.layers[0].weights[:] = a_w
        actor.net.layers[0].biases[:] = a_b
        actor.net.mark_updated()
    return agent


class TestQTarget:
    def test_terminal_is_reward(self):
        agent = make_agent(seed=7)
        assert one_step_target(agent, 1.0, np.zeros(2), True) == 1.0

    def test_gamma_zero_is_reward(self):
        agent = make_agent(seed=8, gamma=0.0)
        assert one_step_target(agent, 0.37, np.ones(2), False) == 0.37

    def test_hand_set_two_action_network(self):
        agent = hand_set_agent()
        s_next = np.array([0.5])
        # actor_target: x = (0.45, 0.05); Q columns hand-evaluated below
        q0 = 0.5 * 0.1 + 0.45 * 0.3 + 0.05 * 0.5 + 0.05
        q1 = 0.5 * -0.2 + 0.45 * 0.4 + 0.05 * -0.6 - 0.05
        expected = 0.0 + 0.9 * max(q0, q1)
        assert one_step_target(agent, 0.0, s_next, False) == pytest.approx(expected, rel=1e-12)


class TestQUpdate:
    def test_zero_residual_keeps_parameters(self):
        agent = make_agent(seed=9)
        zero_nets(*agent.qf.nets)
        rng = np.random.default_rng(10)
        batch = [make_transition(SPACE, rng, terminal=True, r=0.0) for _ in range(4)]
        before = [p.copy() for p in agent.qf.parameters()]
        loss = agent.q_update(_stack_batch(batch))
        assert loss == 0.0
        for p, q in zip(agent.qf.parameters(), before):
            assert (p == q).all()

    def test_single_sample_hand_loss(self):
        agent = hand_set_agent()
        t = Transition(np.array([0.5]), 0, np.array([0.45, 0.05]), 1.0, np.array([0.0]), True)
        pred = 0.5 * 0.1 + 0.45 * 0.3 + 0.05 * 0.5 + 0.05  # = 0.26
        expected_loss = 0.5 * (pred - 1.0) ** 2
        assert agent.q_update(_stack_batch([t])) == pytest.approx(expected_loss, rel=1e-12)

    @pytest.mark.parametrize("variant", ["joint", "multipass", "separate"])
    def test_descends_frozen_minibatch(self, variant):
        agent = make_agent(variant, seed=11)
        rng = np.random.default_rng(12)
        batch = [make_transition(SPACE, rng, terminal=True) for _ in range(8)]
        losses = [agent.q_update(_stack_batch(batch)) for _ in range(100)]
        assert losses[-1] < losses[0]

    def test_only_executed_action_head_gets_signal(self):
        # with every sample executing action 0, the separate-variant network
        # for action 1 must not move
        agent = make_agent("separate", seed=13)
        rng = np.random.default_rng(14)
        batch = [make_transition(SPACE, rng, terminal=True, k=0) for _ in range(4)]
        before = [p.copy() for p in agent.qf.nets[1].parameters()]
        agent.q_update(_stack_batch(batch))
        for p, q in zip(agent.qf.nets[1].parameters(), before):
            assert (p == q).all()


class TestActorUpdate:
    @pytest.mark.parametrize("variant", ["joint", "multipass", "separate"])
    def test_gradient_matches_finite_differences(self, variant):
        from pamdp.qfunction import sum_q_gradient

        agent = make_agent(variant, SPACE3, seed=15)
        rng = np.random.default_rng(16)
        states = rng.standard_normal((3, 4))
        x = agent.actor.forward(states)
        grad, _ = sum_q_gradient(agent.qf, states, x)
        for b in range(3):
            def total(xv, b=b):
                return float(agent.qf.evaluate(states[b][None, :], xv[None, :]).sum())

            fd = fd_scalar_grad(total, x[b])
            assert relative_error(grad[b], fd) < 1e-5
            if variant in ("multipass", "separate"):
                # block j feels only its own action's value
                for j in range(3):
                    sl = agent.space.block(j)

                    def own(xv, b=b, j=j):
                        return float(
                            agent.qf.evaluate(states[b][None, :], xv[None, :])[0, j]
                        )

                    fd_own = fd_scalar_grad(own, x[b])[sl]
                    assert relative_error(grad[b][sl], fd_own) < 1e-5

    def test_constant_q_leaves_actor_unchanged(self):
        agent = make_agent("joint", seed=17)
        zero_nets(*agent.qf.nets)  # Q constant in x
        before = [p.copy() for p in agent.actor.net.parameters()]
        agent.actor_update(np.random.default_rng(18).standard_normal((4, 2)))
        for p, q in zip(agent.actor.net.parameters(), before):
            assert (p == q).all()

    def test_passthrough_weights_never_change(self):
        from pamdp.policy import Passthrough

        passthrough = Passthrough(np.full((2, 2), 0.25), np.zeros(2))
        agent = PDQNAgent(SPACE, "multipass", small_config(), np.random.default_rng(19),
                          passthrough)
        snapshot = passthrough.weights.copy()
        rng = np.random.default_rng(20)
        for t in [make_transition(SPACE, rng) for _ in range(8)]:
            agent.replay.push(t)
        for _ in range(20):
            agent.update_from_replay(rng)
        assert (passthrough.weights == snapshot).all()


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
        before = [p.copy() for p in agent.qf_target.parameters()]
        before_actor = [p.copy() for p in agent.actor_target.net.parameters()]
        agent.q_update(_stack_batch(batch))
        agent.actor_update(np.stack([t.s for t in batch]))
        for p, q in zip(agent.qf_target.parameters(), before):
            assert (p == q).all()
        for p, q in zip(agent.actor_target.net.parameters(), before_actor):
            assert (p == q).all()
        agent.sync_targets()
        moved = any(
            (p != q).any() for p, q in zip(agent.qf_target.parameters(), before)
        )
        assert moved


class TestFlatBuffers:
    """Each update step passes one buffer per network to Adam, the clip and
    Polyak averaging."""

    @pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
    def test_update_passes_one_buffer_per_network(self, monkeypatch, algorithm):
        space = SPACE3
        agent = agent_module.make_agent(algorithm, space, small_config(), np.random.default_rng(31))
        calls = []
        for name in ("adam_step", "clip_grad_norm", "polyak_update"):
            original = getattr(nncore, name)

            def record(*args, name=name, original=original):
                calls.append((name, args))
                return original(*args)

            monkeypatch.setattr(nncore, name, record)
            monkeypatch.setattr(agent_module, name, record, raising=False)
        rng = np.random.default_rng(32)
        batch = _stack_batch([make_transition(space, rng) for _ in range(6)])
        if algorithm == "paddpg":
            batch = (batch[0], batch[1], rng.uniform(-1, 1, (6, 3 + space.joint_dim)), *batch[3:])
        agent.update(batch)

        q_nets, actor = agent.qf.nets, agent.actor.net
        assert len(q_nets) == (3 if algorithm == "pdqn-separate" else 1)
        assert [name for name, _ in calls] == [
            "clip_grad_norm", "adam_step", "clip_grad_norm", "adam_step",
            "polyak_update", "polyak_update"]
        (_, (q_grads, _)), (_, q_adam), (_, (a_grads, _)), (_, a_adam) = calls[:4]
        for grads, nets in ((q_grads, q_nets), (a_grads, [actor])):
            assert [g.shapes for g in grads] == [net.flat.shapes for net in nets]
            assert all(g.ndim == 1 for g in grads)
        for (params, _, state), nets, opt in ((q_adam, q_nets, agent.q_opt),
                                              (a_adam, [actor], agent.actor_opt)):
            assert [id(p) for p in params] == [id(net.flat) for net in nets]
            assert state is opt and len(state.m) == len(state.v) == len(nets)
        (_, q_polyak), (_, a_polyak) = calls[4:]
        assert [id(t) for t in q_polyak[0]] == [id(net.flat) for net in agent.qf_target.nets]
        assert [id(o) for o in q_polyak[1]] == [id(net.flat) for net in q_nets]
        assert [id(t) for t in a_polyak[0]] == [id(agent.actor_target.net.flat)]
        assert [id(o) for o in a_polyak[1]] == [id(actor.flat)]

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
        save_checkpoint(path, agent, algorithm, "chain", {})
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
                assert all(np.shares_memory(p, net.flat) for p in net.parameters())
        for name, opt, twin in (("q_opt", agent.q_opt, loaded.q_opt),
                                ("actor_opt", agent.actor_opt, loaded.actor_opt)):
            assert [m.shapes for m in twin.m] == [m.shapes for m in opt.m]
            # the format's names and order: m<i>, v<i> per parameter array
            shapes = [shape for m in opt.m for shape in m.shapes]
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
    """The arrays of a checkpoint file by name, read with the header's
    manifest."""
    data = Path(path).read_bytes()
    size = int.from_bytes(data[8:16], "little")
    offset = 16 + size
    arrays = {}
    for entry in json.loads(data[16:offset])["arrays"]:
        count = math.prod(entry["shape"])
        arrays[entry["name"]] = np.frombuffer(data, "<f8", count, offset)
        offset += 8 * count
    return arrays


class TestMixedTargets:
    def test_beta_zero_equals_one_step(self):
        agent = make_agent(seed=26)
        rng = np.random.default_rng(27)
        episode = [make_transition(SPACE, rng, terminal=False) for _ in range(3)]
        episode[-1].terminal = True
        s, k, x, r, s2, term = (
            np.stack([t.s for t in episode]),
            None,
            None,
            np.array([t.r for t in episode]),
            np.stack([t.s_next for t in episode]),
            np.array([t.terminal for t in episode]),
        )
        expected = agent._bootstrap_targets(r, s2, term)
        got = agent.nstep_mixed_target(episode, beta=0.0)
        assert np.allclose(got, expected, atol=1e-15)

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
        if family == "pdqn":
            agent = make_agent(seed=43, gamma=0.5)
            target_nets = [*agent.qf_target.nets, agent.actor_target.net]
            value_net = agent.qf_target.nets[0]
        else:
            agent = make_paddpg(seed=43, gamma=0.5)
            target_nets = [agent.qf_target.net, agent.actor_target.net]
            value_net = agent.qf_target.net
        zero_nets(*target_nets)
        value_net.layers[-1].biases[:] = 2.0
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

    def test_terminal_critic_target_is_reward(self):
        agent = make_paddpg(seed=39)
        r = np.array([0.7])
        y = agent._bootstrap_targets(r, np.zeros((1, 2)), np.array([True]))
        assert y[0] == 0.7

    def test_constant_critic_leaves_actor_unchanged(self):
        agent = make_paddpg(seed=40)
        zero_nets(agent.qf.net, agent.qf_target.net)
        rng = np.random.default_rng(41)
        batch = [
            Transition(rng.standard_normal(2), 0, rng.uniform(-1, 1, 4), 0.0,
                       rng.standard_normal(2), True)
            for _ in range(4)
        ]
        before = [p.copy() for p in agent.actor.net.parameters()]
        agent.update(_stack_batch(batch))
        for p, q in zip(agent.actor.net.parameters(), before):
            assert (p == q).all()

    def test_hand_set_linear_update(self):
        space = ActionSpaceSpec(state_dim=1, param_dims=(1, 1))
        agent = PADDPGAgent(space, small_config(hidden=(), batch_size=1, initial_fill=1,
                                                lr_q=0.01, lr_actor=0.01, tau_q=0.5,
                                                tau_actor=0.5),
                            np.random.default_rng(42))
        w = np.array([[0.1], [0.2], [-0.3], [0.4], [0.5]])
        agent.qf.net.layers[0].weights[:] = w
        agent.qf.net.layers[0].biases[:] = 0.0
        agent.qf_target.net.layers[0].weights[:] = w
        agent.qf_target.net.layers[0].biases[:] = 0.0
        a_w = np.array([[0.2, -0.1, 0.3, 0.05]])
        agent.actor.net.layers[0].weights[:] = a_w
        agent.actor.net.layers[0].biases[:] = 0.0
        for net in (agent.qf.net, agent.qf_target.net, agent.actor.net):
            net.mark_updated()

        u = np.array([0.5, -0.5, 0.2, -0.2])
        t = Transition(np.array([1.0]), 0, u, 0.7, np.array([0.0]), True)
        critic_loss, actor_loss = agent.update(_stack_batch([t]))

        # critic: pred = [1, u] . w = 0.33, resid = -0.37
        pred = 0.1 + 0.5 * 0.2 + -0.5 * -0.3 + 0.2 * 0.4 + -0.2 * 0.5
        resid = pred - 0.7
        assert critic_loss == pytest.approx(0.5 * resid**2, rel=1e-12)
        # fresh Adam: each parameter moves by lr * g / (|g| + eps)
        g_w = resid * np.array([1.0, 0.5, -0.5, 0.2, -0.2])
        expected_w = w[:, 0] - 0.01 * g_w / (np.abs(g_w) + 1e-8)
        assert np.allclose(agent.qf.net.layers[0].weights[:, 0], expected_w, atol=1e-12)
        # critic target after one tau=0.5 Polyak step
        expected_target = 0.5 * expected_w + 0.5 * w[:, 0]
        assert np.allclose(
            agent.qf_target.net.layers[0].weights[:, 0], expected_target, atol=1e-12
        )
        # actor: ascent gradient = updated critic action weights, inverted
        # against the actor output a = (0.2, -0.1, 0.3, 0.05) at s = 1
        a = np.array([0.2, -0.1, 0.3, 0.05])
        g_a = agent.qf.net.layers[0].weights[1:, 0]
        scale = np.where(g_a > 0, (1.0 - a) / 2.0, (a + 1.0) / 2.0)
        adjusted = g_a * scale
        expected_actor = a_w[0] - 0.01 * -adjusted / (np.abs(adjusted) + 1e-8)
        assert np.allclose(agent.actor.net.layers[0].weights[0], expected_actor, atol=1e-12)


def inline_paddpg_update(self, batch):
    """PA-DDPG's step written out on its scalar critic, as before it ran as
    P-DQN over the relaxed space: critic regression on state ++ executed
    vector, then the actor step through the critic's input gradient."""
    critic, k = self.qf.net, self.space.num_actions
    bounds = np.vstack([np.tile([-1.0, 1.0], (k, 1)), self.space.bounds])
    s, _, u = batch[:3]
    b = s.shape[0]
    y = self._targets(batch)
    out, cache = forward(critic, np.hstack([s, u]))
    resid = out[:, 0] - y
    grads, _ = backward(critic, cache, (resid / b)[:, None])
    adam_step_net(critic, clip_grad_norm(grads, self.config.clip_grad), self.q_opt)
    critic_loss = float(np.mean(0.5 * resid**2))

    a, actor_cache = self.actor.forward_training(s)
    out, cache = forward(critic, np.hstack([s, a]))
    grad_a = input_gradient(critic, cache, np.ones((b, 1)))[:, s.shape[1]:]
    adjusted = invert_gradients(grad_a, a, bounds)
    agrads, _ = backward(self.actor.net, actor_cache, -adjusted / b)
    adam_step_net(self.actor.net, clip_grad_norm(agrads, self.config.clip_grad), self.actor_opt)
    self.sync_targets()
    return critic_loss, float(-np.mean(out[:, 0]))


def inline_paddpg_targets(self, r, s_next, terminal):
    """y = r + gamma * critic_target(s', actor_target(s')), 0 tail on
    terminal transitions."""
    y = r.copy()
    live = ~terminal
    if live.any():
        s2 = s_next[live]
        a2 = self.actor_target.forward(s2)
        y[live] += self.config.gamma * forward(self.qf_target.net, np.hstack([s2, a2]))[0][:, 0]
    return y


@pytest.mark.parametrize("mixed_targets", [False, True])
@pytest.mark.parametrize("config, episodes", [("bandit_oracle", 200), ("platform_desk", 60)])
def test_paddpg_training_bytes_match_inline_critic(tmp_path, monkeypatch, config, episodes,
                                                   mixed_targets):
    """PA-DDPG run as P-DQN over the one-action relaxed space writes the
    training CSV of the inline scalar-critic step. Platform updates start
    after about 40 episodes."""
    cfg = replace(harness.load_config(str(CONFIGS / f"{config}.conf")), algorithm="paddpg",
                  episodes=episodes, seeds=(0,), mixed_targets=mixed_targets)
    shared = harness.train_seed(cfg, 0, str(tmp_path / "shared"))["csv"]
    assert any(r["q_loss"] != "nan" for r in harness.read_csv(shared)), "no update ran"

    monkeypatch.setattr(PADDPGAgent, "update", inline_paddpg_update)
    monkeypatch.setattr(PADDPGAgent, "_bootstrap_targets", inline_paddpg_targets)
    inline = harness.train_seed(cfg, 0, str(tmp_path / "inline"))["csv"]
    assert Path(inline).read_bytes() == Path(shared).read_bytes()


class TestParameterisedAction:
    def test_block_consistency(self):
        x = np.array([0.1, 0.2, 0.3])
        a = ParameterisedAction(1, x[1:3], x)
        assert (a.x_k == a.x_joint[1:3]).all()
        assert a.emitted is x
