"""A slow, plain reference for one update of each algorithm.

Written from the equations of P-DQN and MP-DQN (arXiv 1905.04388) and of
PA-DDPG with inverting gradients (arXiv 1511.04143), one sample at a time.
It copies a ``pamdp`` agent's arrays and hyperparameters and calls none of
its numerics; Adam, the clip and Polyak averaging run per parameter array.
"""

import math

import numpy as np


class Net:
    """A copy of a ``pamdp`` network: per layer ``relu(x @ W + b)``, the
    last layer linear."""

    def __init__(self, net):
        self.W = [layer.weights.copy() for layer in net.layers]
        self.b = [layer.biases.copy() for layer in net.layers]

    def params(self) -> list:
        return [p for pair in zip(self.W, self.b) for p in pair]

    def forward(self, x):
        """The output for one sample, and per layer its input and pre-activation."""
        inputs, zs = [], []
        for i, (W, b) in enumerate(zip(self.W, self.b)):
            inputs.append(x)
            zs.append(x @ W + b)
            z = zs[-1]
            x = z if i == len(self.W) - 1 else np.where(z > 0, z, 0.0)
        return x, (inputs, zs)

    def backward(self, cache, d):
        """For one sample, the gradients of ``d . output`` per parameter array,
        and with respect to the input."""
        inputs, zs = cache
        grads = []
        for i in reversed(range(len(self.W))):
            if i < len(self.W) - 1:
                d = d * np.where(zs[i] > 0, 1.0, 0.0)
            grads[:0] = [np.outer(inputs[i], d), d]
            d = self.W[i] @ d
        return grads, d


def adam(params, grads, m, v, t, alpha, beta1, beta2, eps):
    """Adam's step number ``t``, with bias correction, on each array in place."""
    for p, g, mi, vi in zip(params, grads, m, v):
        mi[...] = beta1 * mi + (1 - beta1) * g
        vi[...] = beta2 * vi + (1 - beta2) * g**2
        p -= alpha * (mi / (1 - beta1**t)) / (np.sqrt(vi / (1 - beta2**t)) + eps)


def clip(grads, max_norm):
    """Gradients rescaled to a global L2 norm of at most ``max_norm``: one
    sum of squares per array, added in order."""
    norm = math.sqrt(sum(float(np.sum(np.square(g))) for g in grads))
    return list(grads) if norm <= max_norm else [g * (max_norm / norm) for g in grads]


def polyak(targets, onlines, tau):
    for t, o in zip(targets, onlines):
        t[...] = (1 - tau) * t + tau * o


class ListRing:
    """Replay as a list: append until full, then overwrite the oldest."""

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

    def sample(self, batch_size, rng):
        """Uniform draws with replacement, as ``rng.integers`` makes them."""
        return [self.items[i] for i in rng.integers(0, len(self.items), batch_size)]


class Optimizer:
    """A copy of an agent's Adam state over networks, per parameter array."""

    def __init__(self, opt, nets):
        def per_array(buffers):
            buffer, out, at = np.concatenate(buffers), [], 0
            for p in (p for net in nets for p in net.params()):
                out.append(buffer[at:at + p.size].reshape(p.shape).copy())
                at += p.size
            return out

        self.m, self.v, self.t = per_array(opt.m), per_array(opt.v), opt.t
        self.hyper = (opt.alpha, opt.beta1, opt.beta2, opt.eps)

    def step(self, nets, grads, max_norm):
        """Clip all the networks' gradients jointly, then one Adam step."""
        self.t += 1
        params = [p for net in nets for p in net.params()]
        adam(params, clip(grads, max_norm), self.m, self.v, self.t, *self.hyper)


class Agent:
    """One update of ``algorithm`` (``pdqn-<variant>`` or ``paddpg``) from a
    copy of a ``pamdp`` agent.

    P-DQN's Q_k(s, x) reads the state and the joint parameter vector x:
    ``joint`` feeds s ++ x to one network, ``multipass`` s ++ (x masked to
    block k), and ``separate`` s ++ x_k to network k. PA-DDPG's critic is
    ``joint`` with one action over u, the actor's K selection scores in
    [-1, 1] ++ x.
    """

    def __init__(self, agent, algorithm: str):
        cfg, space, k = agent.config, agent.space, agent.space.num_actions
        self.cfg = cfg
        self.variant = "joint" if algorithm == "paddpg" else algorithm.removeprefix("pdqn-")
        self.q, self.q_target, self.actor, self.actor_target = (
            [Net(net) for net in nets]
            for nets in (agent.qf.nets, agent.qf_target.nets, [agent.actor.net],
                         [agent.actor_target.net]))
        self.q_opt = Optimizer(agent.q_opt, self.q)
        self.actor_opt = Optimizer(agent.actor_opt, self.actor)
        if algorithm == "paddpg":
            self.bounds = np.vstack([np.tile([-1.0, 1.0], (k, 1)), space.bounds])
            self.masks = [np.ones(len(self.bounds), bool)]
        else:
            self.bounds = space.bounds
            owner = np.concatenate([[i] * m for i, m in enumerate(space.param_dims)])
            self.masks = [owner == i for i in range(k)]

    def _q(self, nets, k, s, x):
        """Q_k(s, x), the index of its network, that network's parameter
        gradients and the gradient with respect to x, for one sample."""
        mask, dx = self.masks[k], np.zeros(len(x))
        if self.variant == "separate":
            j, at, seen = k, 0, x[mask]
        else:
            j, at, seen = 0, k, np.where(mask, x, 0.0) if self.variant == "multipass" else x
        out, cache = nets[j].forward(np.concatenate([s, seen]))
        grads, d_input = nets[j].backward(cache, np.eye(len(out))[at])
        if self.variant == "separate":
            dx[mask] = d_input[len(s):]
        else:
            dx = d_input[len(s):] * (mask if self.variant == "multipass" else 1.0)
        return out[at], j, grads, dx

    def _act(self, actor, s):
        """The actor's output clamped into the bounds, and its cache."""
        u, cache = actor.forward(s)
        return np.clip(u, self.bounds[:, 0], self.bounds[:, 1]), cache

    def _target(self, r, s2, terminal, mc):
        """r + gamma * max_k Q_target(s', k, actor_target(s')), 0 tail when
        terminal, mixed with the Monte Carlo return when mixed targets are on."""
        y = r
        if not terminal:
            x2 = self._act(self.actor_target[0], s2)[0]
            y += self.cfg.gamma * max(self._q(self.q_target, k, s2, x2)[0]
                                      for k in range(len(self.masks)))
        if self.cfg.mixed_targets:
            y = (1 - self.cfg.beta_mix) * y + self.cfg.beta_mix * mc
        return y

    def update(self, batch) -> tuple[float, float]:
        """A Q step, an actor step and the target averaging on a stacked
        batch ``(s, k, x, r, s2, terminal, mc)``; returns both losses."""
        s, actions, x, r, s2, terminal, mc = batch
        b = len(r)
        y = [self._target(*row) for row in zip(r, s2, terminal, mc)]

        # half the mean squared error of the executed action's value
        grads = [[np.zeros_like(p) for p in net.params()] for net in self.q]
        q_loss = 0.0
        for i in range(b):
            q, j, g, _ = self._q(self.q, actions[i] if len(self.masks) > 1 else 0, s[i], x[i])
            q_loss += 0.5 * (q - y[i]) ** 2 / b
            for acc, gi in zip(grads[j], g):
                acc += gi * (q - y[i]) / b
        self.q_opt.step(self.q, [g for net_grads in grads for g in net_grads], self.cfg.clip_grad)

        # descend -sum_k Q_k(s, x) at the actor's clamped output, the clamp
        # passed through, the value gradient bounded by inverting gradients
        actor, (lo, hi) = self.actor[0], self.bounds.T
        grads = [np.zeros_like(p) for p in actor.params()]
        actor_loss = 0.0
        for i in range(b):
            u, cache = self._act(actor, s[i])
            values = [self._q(self.q, k, s[i], u) for k in range(len(self.masks))]
            actor_loss -= sum(q for q, *_ in values) / b
            dq = sum(dx for *_, dx in values)
            inverted = np.where(dq > 0, dq * (hi - u), dq * (u - lo)) / (hi - lo)
            for acc, g in zip(grads, actor.backward(cache, -inverted / b)[0]):
                acc += g
        self.actor_opt.step(self.actor, grads, self.cfg.clip_grad)

        for targets, onlines, tau in ((self.q_target, self.q, self.cfg.tau_q),
                                      (self.actor_target, self.actor, self.cfg.tau_actor)):
            for target, online in zip(targets, onlines):
                polyak(target.params(), online.params(), tau)
        return q_loss, actor_loss

    def arrays(self) -> list:
        """The arrays in a ``pamdp`` checkpoint's order: the networks'
        parameters, then each optimizer's moments, m and v per array."""
        nets = [*self.q, *self.q_target, *self.actor, *self.actor_target]
        out = [p for net in nets for p in net.params()]
        for opt in (self.q_opt, self.actor_opt):
            out += [a for pair in zip(opt.m, opt.v) for a in pair]
        return out
