"""Deterministic actor over all action-parameters, plus exploration pieces.

The actor emits the full joint parameter vector for every state; bounding at
act time is a hard clamp, while update-time gradients are bounded by the
inverting-gradients rule instead (scale each dimension's gradient by its
remaining headroom toward the bound it pushes against, so saturated
dimensions stop moving outward but can always move back in). The clamp is
``Actor.clamp``, against the lower and upper bounds as two contiguous arrays
that the actor stores once; greedy and exploring actions both go through it.
"""

from __future__ import annotations

import math

import numpy as np

from .nncore import DenseNet, ForwardCache, float_rows, forward


class Actor:
    """state -> bounded joint parameter vector."""

    def __init__(self, net: DenseNet, bounds: np.ndarray):
        bounds = np.asarray(bounds, dtype=np.float64)
        if bounds.shape != (net.output_dim, 2):
            raise ValueError(f"bounds must be ({net.output_dim}, 2), got {bounds.shape}")
        self.net = net
        self.bounds = bounds
        # the clamp's bounds, contiguous
        self._lo, self._hi = bounds[:, 0].copy(), bounds[:, 1].copy()

    def clamp(self, u: np.ndarray) -> np.ndarray:
        """``u`` clamped into the bounds, as a new array: np.clip's bits,
        without its Python-level dispatch."""
        clamped = np.maximum(u, self._lo)
        np.minimum(clamped, self._hi, out=clamped)
        return clamped

    def forward(self, states: np.ndarray) -> np.ndarray:
        return self.forward_training(states)[0]

    def forward_training(self, states: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
        """Clamped output plus the network cache needed to backpropagate.

        The clamp is treated as pass-through during updates; bounding of the
        learning signal is the job of invert_gradients.
        """
        out, cache = forward(self.net, float_rows(states))
        # ``out`` is the cache's last pre-activation; the clamp writes a new array
        return self.clamp(out), cache

    def copy(self) -> "Actor":
        return Actor(self.net.copy(), self.bounds.copy())


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
    # .any() without its Python-level dispatch
    if np.logical_or.reduce((x < lo) | (x > hi), axis=None):
        raise ValueError("x outside bounds")
    width = hi - lo
    up = (hi - x) / width
    down = (x - lo) / width
    return np.where(grad > 0.0, grad * up, grad * down)


class OUNoise:
    """Mean-reverting exploration noise shared across all parameter slots,
    with mean 0.

    n <- n - theta * n * dt + sigma * sqrt(dt) * xi,  xi ~ N(0, I).
    """

    def __init__(self, dim: int, theta: float = 0.15, sigma: float = 0.0001, dt: float = 1.0):
        if dim < 1 or theta < 0 or sigma < 0 or dt <= 0:
            raise ValueError("invalid OU parameters")
        self.dim = dim
        self.theta = theta
        self.sigma = sigma
        self.dt = dt
        self.state = np.zeros(dim)

    def reset(self):
        self.state = np.zeros(self.dim)

    def step(self, rng: np.random.Generator) -> np.ndarray:
        self.state = (
            self.state
            - self.theta * self.state * self.dt
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
