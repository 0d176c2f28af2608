"""Deterministic actor over all action-parameters, plus exploration pieces.

The actor emits the full joint parameter vector for every state; bounding at
act time is a hard clamp, while update-time gradients are bounded by the
inverting-gradients rule instead (scale each dimension's gradient by its
remaining headroom toward the bound it pushes against, so saturated
dimensions stop moving outward but can always move back in).

An optional passthrough term adds a fixed affine map of the state to the
network output before clamping, encoding an initial parameter policy. Its
weights never change after construction, except that a checkpoint load
fills them in place. Like the network forward, it is batch-invariant: a
row's output bits do not depend on the batch around it. An all-zero
passthrough, such as Platform's, adds nothing and is skipped; that is
checked on every call, not recorded once, so a loaded passthrough is seen.

The clamp uses the lower and upper bounds as two contiguous arrays that the
actor stores once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nncore import DenseNet, ForwardCache, forward, padded_rows


@dataclass
class Passthrough:
    """Fixed affine state -> output map added to the actor network output.

    ``weights`` and ``bias`` are views of one array, ``affine`` = ``[W; b]``.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        bias = np.asarray(self.bias, dtype=np.float64)
        if weights.ndim != 2 or bias.shape != (weights.shape[1],):
            raise ValueError("passthrough weights must be (state_dim, out_dim) with matching bias")
        self.affine = np.vstack([weights, bias])
        self.weights, self.bias = self.affine[:-1], self.affine[-1]

    @classmethod
    def zeros(cls, state_dim: int, out_dim: int) -> "Passthrough":
        return cls(np.zeros((state_dim, out_dim)), np.zeros(out_dim))

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.affine)

    def apply(self, states: np.ndarray) -> np.ndarray:
        """``states @ weights + bias`` as one GEMM ``[states, 1] @ [W; b]`` on
        the rows rounded up to ``nncore.ROW_QUANTUM``, as ``nncore.forward``
        computes a layer, so a row's bits do not depend on its batch."""
        n = states.shape[0]
        rows = np.zeros((padded_rows(n), self.affine.shape[0]))
        rows[:n, :-1] = states
        rows[:, -1] = 1.0
        return (rows @ self.affine)[:n]


class Actor:
    """state -> bounded joint parameter vector."""

    def __init__(self, net: DenseNet, bounds: np.ndarray, passthrough: Passthrough | None = None):
        bounds = np.asarray(bounds, dtype=np.float64)
        if bounds.shape != (net.output_dim, 2):
            raise ValueError(f"bounds must be ({net.output_dim}, 2), got {bounds.shape}")
        if passthrough is not None and (
            passthrough.weights.shape != (net.input_dim, net.output_dim)
        ):
            raise ValueError("passthrough shape does not match the actor network")
        self.net = net
        self.bounds = bounds
        self.passthrough = passthrough
        # the clamp's bounds, contiguous
        self._lo, self._hi = bounds[:, 0].copy(), bounds[:, 1].copy()

    def forward(self, states: np.ndarray) -> np.ndarray:
        return self.forward_training(states)[0]

    def forward_training(self, states: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
        """Clamped output plus the network cache needed to backpropagate.

        The clamp is treated as pass-through during updates; bounding of the
        learning signal is the job of invert_gradients.
        """
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        out, cache = forward(self.net, states)
        pt = self.passthrough
        raw = out if pt is None or pt.is_zero() else out + pt.apply(states)
        # np.clip's bits, without its Python-level dispatch; ``out`` is the
        # cache's last pre-activation, so the clamp writes a new array
        clamped = np.maximum(raw, self._lo)
        np.minimum(clamped, self._hi, out=clamped)
        return clamped, cache

    def copy(self) -> "Actor":
        return Actor(self.net.copy(), self.bounds.copy(), self.passthrough)


def invert_gradients(grad: np.ndarray, x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Bound-aware rescaling of an ascent gradient on the parameters.

    Per dimension with range (lo, hi): a gradient suggesting an increase is
    scaled by (hi - x) / (hi - lo), a decrease by (x - lo) / (hi - lo). Signs
    are preserved, magnitudes never grow, and the scale hits exactly zero at
    a bound pushed outward. `x` must already lie within bounds.
    """
    grad = np.asarray(grad, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.float64)
    lo, hi = bounds[:, 0], bounds[:, 1]
    if (x < lo).any() or (x > hi).any():
        raise ValueError("x outside bounds")
    width = hi - lo
    up = (hi - x) / width
    down = (x - lo) / width
    return np.where(grad > 0.0, grad * up, grad * down)


class OUNoise:
    """Mean-reverting exploration noise shared across all parameter slots.

    n <- n + theta * (mu - n) * dt + sigma * sqrt(dt) * xi,  xi ~ N(0, I).
    """

    def __init__(
        self,
        dim: int,
        theta: float = 0.15,
        sigma: float = 0.0001,
        mu: float = 0.0,
        dt: float = 1.0,
    ):
        if dim < 1 or theta < 0 or sigma < 0 or dt <= 0:
            raise ValueError("invalid OU parameters")
        self.dim = dim
        self.theta = theta
        self.sigma = sigma
        self.mu = mu
        self.dt = dt
        self.state = np.full(dim, mu, dtype=np.float64)

    def reset(self):
        self.state = np.full(self.dim, self.mu, dtype=np.float64)

    def step(self, rng: np.random.Generator) -> np.ndarray:
        self.state = (
            self.state
            + self.theta * (self.mu - self.state) * self.dt
            + self.sigma * math.sqrt(self.dt) * rng.standard_normal(self.dim)
        )
        return self.state.copy()


class EpsilonSchedule:
    """Linear decay from start to end over `horizon` episodes, flat after."""

    def __init__(self, start: float = 1.0, end: float = 0.01, horizon: int = 1):
        if not (0.0 <= end <= start <= 1.0):
            raise ValueError("need 0 <= end <= start <= 1")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.start = start
        self.end = end
        self.horizon = horizon
        self.current = start

    def value(self, episode: int) -> float:
        if episode < 0:
            raise ValueError("episode must be >= 0")
        if episode >= self.horizon:
            return self.end
        return self.start + (self.end - self.start) * (episode / self.horizon)


def scale_params(x_env: np.ndarray, env_bounds: np.ndarray) -> np.ndarray:
    """Affine map from environment-native ranges onto [-1, 1] per dimension."""
    x_env = np.asarray(x_env, dtype=np.float64)
    env_bounds = np.asarray(env_bounds, dtype=np.float64)
    lo, hi = env_bounds[..., 0], env_bounds[..., 1]
    if (x_env < lo).any() or (x_env > hi).any():
        raise ValueError("value outside environment bounds")
    return 2.0 * (x_env - lo) / (hi - lo) - 1.0


def unscale_params(x_scaled: np.ndarray, env_bounds: np.ndarray) -> np.ndarray:
    """Inverse of scale_params."""
    x_scaled = np.asarray(x_scaled, dtype=np.float64)
    env_bounds = np.asarray(env_bounds, dtype=np.float64)
    if (x_scaled < -1.0).any() or (x_scaled > 1.0).any():
        raise ValueError("scaled value outside [-1, 1]")
    lo, hi = env_bounds[..., 0], env_bounds[..., 1]
    return lo + (x_scaled + 1.0) * (hi - lo) / 2.0
