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
a scalar critic scores the whole continuous action. That critic is the joint
Q-function of a relaxed space with one action whose parameter block is the
whole (K + M)-vector, so ``PADDPGAgent`` subclasses ``PDQNAgent`` and keeps
only that space, acting by the argmax of the selection scores, and updating
with every sample on the one relaxed action.

Both agents perform one gradient step per environment step once the replay
buffer holds an initial fill, and move their target networks only through
Polyak averaging after each update. The Q regression, the actor's
value-gradient step and the bootstrap target are each written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import nncore
from .nncore import AdamState, DenseNet, backward, clip_grad_norm, forward
from .policy import Actor, EpsilonSchedule, OUNoise, invert_gradients
from .qfunction import JOINT, ActionSpaceSpec, QFunction, sum_q_gradient
from .replay import ReplayBuffer, Transition, _stack_batch


@dataclass(frozen=True)
class AgentConfig:
    """Hyperparameters shared by both agent families.

    This is the one declaration of each hyperparameter: ``RunConfig``
    inherits these fields, and its config-file keys and the checkpoint
    header's ``config`` are derived from them.
    """

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
    epsilon_start: float = 1.0
    epsilon_end: float = 0.01
    epsilon_horizon: int = 0  # episodes; a run turns 0 into a tenth of its budget
    ou_theta: float = 0.15
    ou_sigma: float = 0.0001
    ou_dt: float = 1.0
    mixed_targets: bool = False
    beta_mix: float = 0.25

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
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
        if self.epsilon_horizon < 0:
            raise ValueError("epsilon_horizon must be non-negative")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if min(self.hidden, default=1) < 1:
            raise ValueError(f"hidden layer widths must be >= 1, got {self.hidden}")
        # the agent's schedule and noise check their own parameters
        self.epsilon_schedule()
        OUNoise(1, self.ou_theta, self.ou_sigma, self.ou_dt)

    def epsilon_schedule(self) -> EpsilonSchedule:
        """The agent's schedule; a horizon of 0 decays over 1 episode."""
        return EpsilonSchedule(self.epsilon_start, self.epsilon_end, max(self.epsilon_horizon, 1))


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


def _row_max(q: np.ndarray) -> np.ndarray:
    """``np.maximum.reduce(q, axis=1)`` as a chain of ``np.maximum`` over the
    columns, without the cost of a reduction over a short axis: the same
    values, NaN included, and over up to 3 columns, every config's width, the
    same bits. Over more, numpy's SIMD reduction (from 9 columns with
    AVX-512) can give a zero maximum the other sign."""
    best = q[:, 0]
    for j in range(1, q.shape[1]):
        best = np.maximum(best, q[:, j])
    return best


def _mix(y: np.ndarray, mc: np.ndarray, beta: float) -> np.ndarray:
    """The mixed target (1 - beta) * one-step target + beta * Monte Carlo return."""
    return (1.0 - beta) * y + beta * mc


class PDQNAgent:
    """Q-over-parameterised-actions learner; `variant` picks the architecture.

    The agent holds the Q-function and its target, the bounded actor over
    the Q-function's joint vector and its target, the replay buffer, the
    epsilon schedule, OU noise over the emitted vector, both Adam states,
    Polyak averaging of the target networks, and the Monte Carlo and
    mixed-target bookkeeping.
    """

    def __init__(
        self,
        space: ActionSpaceSpec,
        variant: str,
        config: AgentConfig,
        rng: np.random.Generator,
    ):
        self.space = space
        self.config = config
        self.variant = variant
        # the Q-function's networks draw first, then the actor's
        self.qf = QFunction.create(variant, self._q_space(), config.hidden, rng)
        self.qf_target = self.qf.copy()
        self.bounds = self.qf.space.bounds
        sd, dim = space.state_dim, len(self.bounds)
        actor_net = DenseNet.create(sd, config.hidden, dim, rng)
        self.actor = Actor(actor_net, self.bounds)
        self.actor_target = self.actor.copy()
        self.q_opt = AdamState.for_params([self.qf.flat], config.lr_q)
        self.actor_opt = AdamState.for_params([actor_net.flat], config.lr_actor)
        self.replay = ReplayBuffer(
            config.replay_capacity,
            state_dim=sd,
            action_dim=dim,
            num_actions=space.num_actions,
            bounds=self.bounds,
        )
        self.epsilon = config.epsilon_schedule()
        self.noise = OUNoise(dim, config.ou_theta, config.ou_sigma, config.ou_dt)

    @property
    def algorithm(self) -> str:
        """The id ``make_agent`` builds this agent from."""
        return f"pdqn-{self.variant}"

    def _q_space(self) -> ActionSpaceSpec:
        """The action space the Q-function and the actor work in."""
        return self.space

    # -- acting ---------------------------------------------------------

    def begin_episode(self, episode: int) -> float:
        self.noise.reset()
        self.epsilon.current = self.epsilon.value(episode)
        return self.epsilon.current

    def _explore(self, s: np.ndarray, explore: bool, rng: np.random.Generator):
        """The actor's output at s, noisy and clamped when exploring, and the
        epsilon-uniform action index, or None where the greedy one is due."""
        u = self.actor.forward(np.asarray(s)[None, :])[0]
        if explore:
            u = self.actor.clamp(u + self.noise.step(rng))
        if explore and rng.random() < self.epsilon.current:
            return u, int(rng.integers(self.space.num_actions))
        return u, None

    def select_action(
        self, s: np.ndarray, explore: bool, rng: np.random.Generator
    ) -> ParameterisedAction:
        """Greedy over Q at the actor's (noisy) parameters; eps-uniform k.

        Ties in the Q-values resolve to the lowest action index.
        """
        x, k = self._explore(s, explore, rng)
        if k is None:
            k = int(self.q_values(s, x).argmax())
        return ParameterisedAction(k, x[self.space.block(k)].copy(), x)

    def q_values(self, s: np.ndarray, x: np.ndarray) -> np.ndarray:
        return self.qf.evaluate(np.asarray(s)[None, :], np.asarray(x)[None, :])[0]

    # -- targets --------------------------------------------------------

    def _bootstrap_targets(
        self, r: np.ndarray, s_next: np.ndarray, terminal: np.ndarray
    ) -> np.ndarray:
        """y = r + gamma * max_k Q_target(s', k, actor_target(s')), 0 tail on
        terminal transitions. Once any row is live, the target networks run
        on every row: a row's bits do not depend on its batch, and the live
        rows need no gather and no row count of their own."""
        y = r.copy()
        live = ~terminal
        if np.logical_or.reduce(live):
            q2 = self.qf_target.evaluate(s_next, self.actor_target.forward(s_next))
            y[live] += self.config.gamma * _row_max(q2)[live]
        return y

    def monte_carlo_returns(self, transitions: list[Transition]) -> np.ndarray:
        """Discounted return from each step to the episode's end.

        The last step's return is its one-step target, so a truncated
        (non-terminal) episode bootstraps its tail from the target networks.
        """
        last = transitions[-1]
        g = np.empty(len(transitions))
        g[-1] = self._bootstrap_targets(
            np.array([last.r]), np.asarray(last.s_next)[None, :], np.array([last.terminal])
        )[0]
        for i in reversed(range(len(transitions) - 1)):
            g[i] = transitions[i].r + self.config.gamma * g[i + 1]
        return g

    def nstep_mixed_target(self, transitions: list[Transition], beta: float) -> np.ndarray:
        """(1 - beta) * one-step bootstrapped target + beta * Monte Carlo return."""
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        _, _, _, r, s2, term, _ = _stack_batch(transitions)
        y = self._bootstrap_targets(r, s2, term)
        return _mix(y, self.monte_carlo_returns(transitions), beta)

    def _targets(self, batch) -> np.ndarray:
        """Regression targets of a stacked batch: one-step bootstrapped, mixed
        with the stored Monte Carlo returns when mixed targets are on."""
        _, _, _, r, s2, term, mc = batch
        y = self._bootstrap_targets(r, s2, term)
        if not self.config.mixed_targets:
            return y
        if np.isnan(mc).any():
            raise ValueError("mixed targets requested but transitions lack returns")
        return _mix(y, mc, self.config.beta_mix)

    # -- updates --------------------------------------------------------

    def q_update(self, batch) -> float:
        """Half mean-squared error on the executed action's value only.

        ``batch`` is a stacked minibatch as ``_stack_batch`` returns it.
        """
        s, k, x = batch[:3]
        y = self._targets(batch)
        b = y.shape[0]
        pred = np.empty(b)
        # one buffer; each network's gradient buffer is a view of it
        grads = self.qf.gradient_buffer()
        for net, rows, q_at, out_at, _, _ in self.qf.passes(s, x, k):
            if not len(rows):  # a separate network no sample executed
                net.gradient_buffer().fill(0.0)
                continue
            out, cache = forward(net, rows)
            pred[q_at] = out.take(out_at)
            upstream = np.zeros(out.shape)
            upstream.put(out_at, (pred[q_at] - y[q_at]) / b)
            backward(net, cache, upstream, out=net.gradient_buffer(), input_grads=False)
        self._step(self.qf, grads, self.q_opt)
        # np.mean's sum and division, without its Python-level dispatch
        return float(np.add.reduce(0.5 * (pred - y) ** 2) / b)

    def actor_update(self, states: np.ndarray) -> float:
        """Descend the negative sum of action values at the actor's output.

        Value gradients flow only through the emitted parameters (the
        Q-networks stay frozen) and pass through invert_gradients first.
        """
        x, cache = self.actor.forward_training(states)
        grad_x, q = sum_q_gradient(self.qf, states, x)
        b = x.shape[0]
        upstream = invert_gradients(grad_x, x, self.bounds)
        upstream /= -b  # -adjusted / b, to the bit
        net = self.actor.net
        grads = net.gradient_buffer()
        backward(net, cache, upstream, out=grads, input_grads=False)
        self._step(net, grads, self.actor_opt)
        return -float(np.add.reduce(np.add.reduce(q, axis=1))) / b

    def _step(self, owner, grads: np.ndarray, opt: AdamState):
        """Clip the gradient buffer of a network or a Q-function (``owner``),
        then one Adam step on its parameter buffer."""
        grads = clip_grad_norm([grads], self.config.clip_grad, [owner.layout])
        nncore.adam_step([owner.flat], grads, opt)
        owner.mark_updated()

    def sync_targets(self):
        """Polyak-average the target Q-function and actor toward their online
        twins, one buffer each."""
        for target, online, tau in (
            (self.qf_target, self.qf, self.config.tau_q),
            (self.actor_target.net, self.actor.net, self.config.tau_actor),
        ):
            nncore.polyak_update([target.flat], [online.flat], tau)
            target.mark_updated()

    def update(self, batch) -> tuple[float, float]:
        """One Q step and one actor step on a stacked minibatch, then a soft
        target sync. Returns (q_loss, actor_loss)."""
        q_loss = self.q_update(batch)
        actor_loss = self.actor_update(batch[0])
        self.sync_targets()
        return q_loss, actor_loss

    def _sample_batch(self, rng: np.random.Generator):
        """A stacked minibatch, or None until the buffer holds the initial fill."""
        if len(self.replay) < max(self.config.initial_fill, self.config.batch_size):
            return None
        return _stack_batch(self.replay.sample(self.config.batch_size, rng))

    def update_from_replay(self, rng: np.random.Generator):
        """``update`` on a replay minibatch; None, and no update, until the
        buffer holds the initial fill."""
        batch = self._sample_batch(rng)
        return None if batch is None else self.update(batch)


class PADDPGAgent(PDQNAgent):
    """DDPG on the relaxed continuous action space.

    The actor maps the state to K discrete-selection scores followed by the
    joint parameter vector; all K + M slots are bounded, explored with OU
    noise, and updated through inverting gradients against a scalar critic.
    That critic is the joint Q-function of a space with one action whose
    parameter block is the whole (K + M)-vector, so the Q regression, the
    actor step and the bootstrap target are P-DQN's.
    """

    algorithm = "paddpg"

    def __init__(self, space: ActionSpaceSpec, config: AgentConfig, rng: np.random.Generator):
        super().__init__(space, JOINT, config, rng)

    def _q_space(self) -> ActionSpaceSpec:
        """One action over K selection scores in [-1, 1] ++ the joint vector."""
        k, space = self.space.num_actions, self.space
        bounds = np.vstack([np.tile([-1.0, 1.0], (k, 1)), space.bounds])
        return ActionSpaceSpec(space.state_dim, (k + space.joint_dim,), bounds)

    def select_action(
        self, s: np.ndarray, explore: bool, rng: np.random.Generator
    ) -> ParameterisedAction:
        """Greedy over the actor's (noisy) selection scores; eps-uniform k."""
        u, k = self._explore(s, explore, rng)
        n = self.space.num_actions
        if k is None:
            k = int(u[:n].argmax())
        x = u[n:]
        return ParameterisedAction(k, x[self.space.block(k)].copy(), x.copy(), emitted=u)

    def update(self, batch) -> tuple[float, float]:
        """The P-DQN update with every sample on the relaxed space's one
        action: critic regression on the executed (K + M)-vector, then actor
        ascent on the critic with inverting gradients."""
        s, k, *rest = batch
        return super().update((s, np.zeros_like(k), *rest))

    # the benchmark's tracer looks these up in this class's own namespace
    update_from_replay = PDQNAgent.update_from_replay
    _bootstrap_targets = PDQNAgent._bootstrap_targets


def make_agent(
    algorithm: str,
    space: ActionSpaceSpec,
    config: AgentConfig,
    rng: np.random.Generator,
):
    """The agent an algorithm id names: ``paddpg`` or ``pdqn-<variant>``."""
    if algorithm == "paddpg":
        return PADDPGAgent(space, config, rng)
    if algorithm.startswith("pdqn-"):
        return PDQNAgent(space, algorithm.removeprefix("pdqn-"), config, rng)
    raise ValueError(f"unknown algorithm {algorithm!r}")
