"""Learning agents over parameterised action spaces.

``PDQNAgent`` couples a Q-architecture (any of the three variants) for
discrete selection with a deterministic actor emitting all action-parameters
at once. The Q-network regresses one-step bootstrapped targets computed from
target copies of both networks; the actor descends the negative sum of all K
action values, with the value gradients routed through inverting gradients
before they reach the network. Under the joint variant that gradient at
block j accumulates every action's sensitivity to x_j; under the multipass
and separate variants only the own-action term survives.

``PADDPGAgent`` is the relaxed-continuous baseline: the actor emits K
discrete-selection scores in [-1, 1] next to the joint parameter vector, and
a scalar critic scores the whole continuous action.

Both agents perform one gradient step per environment step once the replay
buffer holds an initial fill, and move their target networks only through
Polyak averaging after each update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nncore
from .nncore import AdamState, DenseNet, adam_step_net, backward, clip_grad_norm, forward, input_gradient
from .policy import Actor, EpsilonSchedule, OUNoise, Passthrough, invert_gradients
from .qfunction import (
    JOINT,
    MULTIPASS,
    SEPARATE,
    ActionSpaceSpec,
    QFunction,
    basis_mask,
    sum_q_gradient,
)
from .replay import ReplayBuffer, Transition


@dataclass
class AgentConfig:
    """Hyperparameters shared by both agent families."""

    gamma: float = 0.9
    batch_size: int = 128
    replay_capacity: int = 10000
    initial_fill: int = 128
    lr_q: float = 1e-3
    lr_actor: float = 1e-4
    tau_q: float = 0.1
    tau_actor: float = 0.001
    clip_grad: float = 10.0
    hidden: tuple[int, ...] = (128,)
    activation: str = "relu"
    leaky_slope: float = 0.01
    epsilon_start: float = 1.0
    epsilon_end: float = 0.01
    epsilon_horizon: int = 1000
    ou_theta: float = 0.15
    ou_sigma: float = 0.0001
    ou_mu: float = 0.0
    ou_dt: float = 1.0
    mixed_targets: bool = False
    beta_mix: float = 0.25

    def __post_init__(self):
        # gamma = 1 is allowed for undiscounted episodic use
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.batch_size < 1 or self.replay_capacity < self.batch_size:
            raise ValueError("replay capacity must cover the batch size")
        if self.lr_q <= 0 or self.lr_actor <= 0 or self.clip_grad <= 0:
            raise ValueError("learning rates and clip norm must be positive")
        if not (0 < self.tau_q <= 1 and 0 < self.tau_actor <= 1):
            raise ValueError("tau values must lie in (0, 1]")
        if not 0.0 <= self.beta_mix <= 1.0:
            raise ValueError("beta_mix must lie in [0, 1]")
        self.hidden = tuple(int(h) for h in self.hidden)


@dataclass
class ParameterisedAction:
    """Discrete index k plus its parameter block and the full joint vector.

    ``emitted`` is the vector stored in replay: the joint parameter vector
    for the P-DQN family, the whole (selection scores ++ parameters) vector
    for the relaxed-continuous baseline.
    """

    k: int
    x_k: np.ndarray
    x_joint: np.ndarray
    emitted: np.ndarray = None

    def __post_init__(self):
        if self.emitted is None:
            self.emitted = self.x_joint


def _stack_batch(transitions: list[Transition]):
    s = np.stack([np.asarray(t.s, dtype=np.float64) for t in transitions])
    k = np.array([t.k for t in transitions], dtype=np.int64)
    x = np.stack([np.asarray(t.x_joint, dtype=np.float64) for t in transitions])
    r = np.array([t.r for t in transitions], dtype=np.float64)
    s2 = np.stack([np.asarray(t.s_next, dtype=np.float64) for t in transitions])
    term = np.array([t.terminal for t in transitions], dtype=bool)
    mc = np.array(
        [np.nan if t.mc_return is None else t.mc_return for t in transitions],
        dtype=np.float64,
    )
    return s, k, x, r, s2, term, mc


class PDQNAgent:
    """Q-over-parameterised-actions learner; `variant` picks the architecture."""

    def __init__(
        self,
        space: ActionSpaceSpec,
        variant: str,
        config: AgentConfig,
        rng: np.random.Generator,
        passthrough: Passthrough | None = None,
    ):
        self.space = space
        self.variant = variant
        self.config = config
        act, slope = config.activation, config.leaky_slope
        self.qf = QFunction.create(variant, space, config.hidden, rng, act, slope)
        self.qf_target = self.qf.copy()
        actor_net = DenseNet.create(
            space.state_dim, config.hidden, space.joint_dim, rng, act, slope
        )
        self.actor = Actor(actor_net, space.bounds, passthrough)
        self.actor_target = self.actor.copy()
        self.q_opt = AdamState.for_params(self.qf.parameters(), config.lr_q)
        self.actor_opt = AdamState.for_params(self.actor.net.parameters(), config.lr_actor)
        self.replay = ReplayBuffer(
            config.replay_capacity,
            state_dim=space.state_dim,
            action_dim=space.joint_dim,
            num_actions=space.num_actions,
            bounds=space.bounds,
        )
        self.epsilon = EpsilonSchedule(
            config.epsilon_start, config.epsilon_end, max(config.epsilon_horizon, 1)
        )
        self.noise = OUNoise(
            space.joint_dim, config.ou_theta, config.ou_sigma, config.ou_mu, config.ou_dt
        )

    def begin_episode(self, episode: int) -> float:
        self.noise.reset()
        self.epsilon.current = self.epsilon.value(episode)
        return self.epsilon.current

    # -- acting ---------------------------------------------------------

    def select_action(
        self, s: np.ndarray, explore: bool, rng: np.random.Generator
    ) -> ParameterisedAction:
        """Greedy over Q at the actor's (noisy) parameters; eps-uniform k.

        Ties in the Q-values resolve to the lowest action index.
        """
        x = self.actor.forward(np.asarray(s)[None, :])[0]
        if explore:
            x = np.clip(
                x + self.noise.step(rng), self.space.bounds[:, 0], self.space.bounds[:, 1]
            )
        if explore and rng.random() < self.epsilon.current:
            k = int(rng.integers(self.space.num_actions))
        else:
            k = int(np.argmax(self.q_values(s, x)))
        sl = self.space.block(k)
        return ParameterisedAction(k, x[sl].copy(), x)

    def q_values(self, s: np.ndarray, x: np.ndarray, target: bool = False) -> np.ndarray:
        qf = self.qf_target if target else self.qf
        return qf.evaluate(np.asarray(s)[None, :], np.asarray(x)[None, :])[0]

    # -- targets --------------------------------------------------------

    def _bootstrap_targets(
        self, r: np.ndarray, s_next: np.ndarray, terminal: np.ndarray
    ) -> np.ndarray:
        """y = r + gamma * max_k Q_target(s', k, actor_target(s')), 0 tail on
        terminal transitions."""
        y = r.copy()
        live = ~terminal
        if live.any():
            x2 = self.actor_target.forward(s_next[live])
            q2 = self.qf_target.evaluate(s_next[live], x2)
            y[live] += self.config.gamma * q2.max(axis=1)
        return y

    def q_target(self, r: float, s_next: np.ndarray, terminal: bool) -> float:
        return float(
            self._bootstrap_targets(
                np.array([r]), np.asarray(s_next)[None, :], np.array([terminal])
            )[0]
        )

    def monte_carlo_returns(self, transitions: list[Transition]) -> np.ndarray:
        """Discounted return from each step to the episode's end.

        A truncated (non-terminal) final transition bootstraps its tail from
        the target networks.
        """
        n = len(transitions)
        g = np.zeros(n)
        last = transitions[-1]
        acc = 0.0 if last.terminal else self.q_target(0.0, last.s_next, False)
        for i in reversed(range(n)):
            acc = transitions[i].r + self.config.gamma * acc
            g[i] = acc
        return g

    def nstep_mixed_target(self, transitions: list[Transition], beta: float) -> np.ndarray:
        """(1 - beta) * one-step bootstrapped target + beta * Monte Carlo return."""
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        s, k, x, r, s2, term, _ = _stack_batch(transitions)
        y = self._bootstrap_targets(r, s2, term)
        return (1.0 - beta) * y + beta * self.monte_carlo_returns(transitions)

    # -- updates --------------------------------------------------------

    def _update_targets(self, batch):
        s, k, x, r, s2, term, mc = batch
        y = self._bootstrap_targets(r, s2, term)
        if self.config.mixed_targets:
            if np.isnan(mc).any():
                raise ValueError("mixed targets requested but transitions lack returns")
            y = (1.0 - self.config.beta_mix) * y + self.config.beta_mix * mc
        return y

    def q_update(self, transitions: list[Transition]) -> float:
        """Half mean-squared error on the executed action's value only."""
        batch = _stack_batch(transitions)
        s, k, x, r, s2, term, _ = batch
        y = self._update_targets(batch)
        b = s.shape[0]
        sd = self.space.state_dim

        if self.variant in (JOINT, MULTIPASS):
            if self.variant == JOINT:
                rows = np.hstack([s, x])
            else:
                masked = np.zeros_like(x)
                for i in range(self.space.num_actions):
                    sel = k == i
                    if sel.any():
                        sl = self.space.block(i)
                        masked[np.ix_(sel, np.arange(sl.start, sl.stop))] = x[sel][:, sl]
                rows = np.hstack([s, masked])
            out, cache = forward(self.qf.net, rows)
            pred = out[np.arange(b), k]
            resid = pred - y
            upstream = np.zeros_like(out)
            upstream[np.arange(b), k] = resid / b
            grads, _ = backward(self.qf.net, cache, upstream)
            grads = clip_grad_norm(grads, self.config.clip_grad)
            nncore.adam_step(self.qf.parameters(), grads, self.q_opt)
            for net in self.qf.nets:
                net.mark_updated()
        else:
            pred = np.zeros(b)
            grads = [np.zeros_like(p) for p in self.qf.parameters()]
            per_net = 2 * len(self.qf.nets[0].layers)
            for i, net in enumerate(self.qf.nets):
                sel = k == i
                if not sel.any():
                    continue
                sl = self.space.block(i)
                out, cache = forward(net, np.hstack([s[sel], x[sel][:, sl]]))
                pred[sel] = out[:, 0]
                resid_i = (pred[sel] - y[sel]) / b
                g, _ = backward(net, cache, resid_i[:, None])
                grads[i * per_net : (i + 1) * per_net] = g
            resid = pred - y
            grads = clip_grad_norm(grads, self.config.clip_grad)
            nncore.adam_step(self.qf.parameters(), grads, self.q_opt)
            for net in self.qf.nets:
                net.mark_updated()
        return float(np.mean(0.5 * resid**2))

    def actor_update(self, states: np.ndarray) -> float:
        """Descend the negative sum of action values at the actor's output.

        Value gradients flow only through the emitted parameters (the
        Q-networks stay frozen) and pass through invert_gradients first.
        """
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        b = states.shape[0]
        x, cache, _ = self.actor.forward_training(states)
        grad_x, q = sum_q_gradient(self.qf, states, x)
        adjusted = invert_gradients(grad_x, x, self.space.bounds)
        upstream = -adjusted / b
        grads, _ = backward(self.actor.net, cache, upstream)
        grads = clip_grad_norm(grads, self.config.clip_grad)
        adam_step_net(self.actor.net, grads, self.actor_opt)
        return float(-np.mean(q.sum(axis=1)))

    def sync_targets(self):
        nncore.polyak_update(
            self.qf_target.parameters(), self.qf.parameters(), self.config.tau_q
        )
        for net in self.qf_target.nets:
            net.mark_updated()
        nncore.polyak_update_net(
            self.actor_target.net, self.actor.net, self.config.tau_actor
        )

    def update_from_replay(self, rng: np.random.Generator):
        """One Q step and one actor step, then a soft target sync.

        No-op until the buffer holds the initial fill. Returns
        (q_loss, actor_loss) or None when skipped.
        """
        threshold = max(self.config.initial_fill, self.config.batch_size)
        if len(self.replay) < threshold:
            return None
        batch = self.replay.sample(self.config.batch_size, rng)
        q_loss = self.q_update(batch)
        actor_loss = self.actor_update(np.stack([t.s for t in batch]))
        self.sync_targets()
        return q_loss, actor_loss


class PADDPGAgent:
    """DDPG on the relaxed continuous action space.

    The actor maps the state to K discrete-selection scores followed by the
    joint parameter vector; all K + M slots are bounded, explored with OU
    noise, and updated through inverting gradients against a scalar critic.
    """

    def __init__(
        self,
        space: ActionSpaceSpec,
        config: AgentConfig,
        rng: np.random.Generator,
        passthrough: Passthrough | None = None,
    ):
        self.space = space
        self.config = config
        k, m, sd = space.num_actions, space.joint_dim, space.state_dim
        self.action_dim = k + m
        self.bounds = np.vstack([np.tile([-1.0, 1.0], (k, 1)), space.bounds])
        act, slope = config.activation, config.leaky_slope
        self.critic = DenseNet.create(sd + self.action_dim, config.hidden, 1, rng, act, slope)
        self.critic_target = self.critic.copy()
        actor_net = DenseNet.create(sd, config.hidden, self.action_dim, rng, act, slope)
        if passthrough is not None and passthrough.weights.shape == (sd, m):
            # parameter-only passthrough: pad with zero rows for the K scores
            passthrough = Passthrough(
                np.hstack([np.zeros((sd, k)), passthrough.weights]),
                np.concatenate([np.zeros(k), passthrough.bias]),
            )
        self.actor = Actor(actor_net, self.bounds, passthrough)
        self.actor_target = self.actor.copy()
        self.critic_opt = AdamState.for_params(self.critic.parameters(), config.lr_q)
        self.actor_opt = AdamState.for_params(self.actor.net.parameters(), config.lr_actor)
        self.replay = ReplayBuffer(
            config.replay_capacity,
            state_dim=sd,
            action_dim=self.action_dim,
            num_actions=k,
            bounds=self.bounds,
        )
        self.epsilon = EpsilonSchedule(
            config.epsilon_start, config.epsilon_end, max(config.epsilon_horizon, 1)
        )
        self.noise = OUNoise(
            self.action_dim, config.ou_theta, config.ou_sigma, config.ou_mu, config.ou_dt
        )

    def begin_episode(self, episode: int) -> float:
        self.noise.reset()
        self.epsilon.current = self.epsilon.value(episode)
        return self.epsilon.current

    def select_action(
        self, s: np.ndarray, explore: bool, rng: np.random.Generator
    ) -> ParameterisedAction:
        u = self.actor.forward(np.asarray(s)[None, :])[0]
        if explore:
            u = np.clip(u + self.noise.step(rng), self.bounds[:, 0], self.bounds[:, 1])
        k_count = self.space.num_actions
        if explore and rng.random() < self.epsilon.current:
            k = int(rng.integers(k_count))
        else:
            k = int(np.argmax(u[:k_count]))
        x_joint = u[k_count:]
        sl = self.space.block(k)
        return ParameterisedAction(k, x_joint[sl].copy(), x_joint.copy(), emitted=u)

    def _critic_value(self, states, actions, target=False):
        net = self.critic_target if target else self.critic
        return forward(net, np.hstack([states, actions]))[0][:, 0]

    def monte_carlo_returns(self, transitions: list[Transition]) -> np.ndarray:
        n = len(transitions)
        g = np.zeros(n)
        last = transitions[-1]
        if last.terminal:
            tail = 0.0
        else:
            s2 = np.asarray(last.s_next)[None, :]
            tail = float(self._critic_value(s2, self.actor_target.forward(s2), target=True)[0])
        acc = tail
        for i in reversed(range(n)):
            acc = transitions[i].r + self.config.gamma * acc
            g[i] = acc
        return g

    def nstep_mixed_target(self, transitions: list[Transition], beta: float) -> np.ndarray:
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        s, k, u, r, s2, term, _ = _stack_batch(transitions)
        y = self._bootstrap_targets(r, s2, term)
        return (1.0 - beta) * y + beta * self.monte_carlo_returns(transitions)

    def _bootstrap_targets(self, r, s_next, terminal):
        y = r.copy()
        live = ~terminal
        if live.any():
            a2 = self.actor_target.forward(s_next[live])
            y[live] += self.config.gamma * self._critic_value(s_next[live], a2, target=True)
        return y

    def update(self, transitions: list[Transition]) -> tuple[float, float]:
        """Critic regression on the executed continuous vector, then actor
        ascent on the critic with inverting gradients."""
        batch = _stack_batch(transitions)
        s, k, u, r, s2, term, mc = batch
        b = s.shape[0]
        y = self._bootstrap_targets(r, s2, term)
        if self.config.mixed_targets:
            if np.isnan(mc).any():
                raise ValueError("mixed targets requested but transitions lack returns")
            y = (1.0 - self.config.beta_mix) * y + self.config.beta_mix * mc

        out, cache = forward(self.critic, np.hstack([s, u]))
        resid = out[:, 0] - y
        grads, _ = backward(self.critic, cache, (resid / b)[:, None])
        grads = clip_grad_norm(grads, self.config.clip_grad)
        adam_step_net(self.critic, grads, self.critic_opt)
        critic_loss = float(np.mean(0.5 * resid**2))

        a, actor_cache, _ = self.actor.forward_training(s)
        out, cache = forward(self.critic, np.hstack([s, a]))
        in_grads = input_gradient(self.critic, cache, np.ones((b, 1)))
        grad_a = in_grads[:, s.shape[1] :]
        adjusted = invert_gradients(grad_a, a, self.bounds)
        agrads, _ = backward(self.actor.net, actor_cache, -adjusted / b)
        agrads = clip_grad_norm(agrads, self.config.clip_grad)
        adam_step_net(self.actor.net, agrads, self.actor_opt)
        actor_loss = float(-np.mean(out[:, 0]))

        nncore.polyak_update_net(self.critic_target, self.critic, self.config.tau_q)
        nncore.polyak_update_net(self.actor_target.net, self.actor.net, self.config.tau_actor)
        return critic_loss, actor_loss

    def update_from_replay(self, rng: np.random.Generator):
        threshold = max(self.config.initial_fill, self.config.batch_size)
        if len(self.replay) < threshold:
            return None
        return self.update(self.replay.sample(self.config.batch_size, rng))
