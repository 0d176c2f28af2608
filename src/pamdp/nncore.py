"""Dense-network numerics on float64 numpy arrays.

Hand-rolled forward and backward passes for small fully connected networks,
plus He initialization, Adam, global-norm gradient clipping and Polyak
averaging for target networks. Backward passes return exact analytic
gradients of ``sum(upstream * outputs)`` with respect to both parameters and
inputs; the test suite holds them against central finite differences. The
input gradients are what the actor updates consume, so they are first-class
outputs here rather than an afterthought: :func:`input_gradient` computes
them alone, without the parameter gradients.

Everything operates on plain ``np.ndarray`` in float64. Layer weights have
shape ``(fan_in, fan_out)``, activations act row-wise on ``(batch, dim)``
matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

RELU = "relu"
LEAKY_RELU = "leaky_relu"
LINEAR = "linear"
ACTIVATIONS = (RELU, LEAKY_RELU, LINEAR)


def he_init(fan_in: int, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Zero-mean normal draws with standard deviation sqrt(2 / fan_in)."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    return rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)


def _activate(z: np.ndarray, kind: str, slope: float) -> np.ndarray:
    if kind == RELU:
        return np.maximum(z, 0.0)
    if kind == LEAKY_RELU:
        return np.where(z > 0.0, z, slope * z)
    return z


def _activation_grad(z: np.ndarray, kind: str, slope: float) -> np.ndarray:
    # Subgradient at exactly 0 is 0 for relu and `slope` for leaky_relu.
    if kind == RELU:
        return (z > 0.0).astype(np.float64)
    if kind == LEAKY_RELU:
        return np.where(z > 0.0, 1.0, slope)
    return np.ones_like(z)


@dataclass
class Layer:
    """One affine-then-activation stage: ``act(x @ weights + biases)``."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str = LINEAR
    slope: float = 0.01

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("layer weights must be a 2-D matrix")
        if self.biases.shape != (self.weights.shape[1],):
            raise ValueError(
                f"bias shape {self.biases.shape} does not match fan_out {self.weights.shape[1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("layer parameters must be finite")


class DenseNet:
    """Feedforward stack of dense layers; the output layer is always linear.

    ``version`` counts in-place parameter updates so that a forward cache can
    be recognised as stale by :func:`backward` and :func:`input_gradient`.
    """

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("a network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.weights.shape[1] != b.weights.shape[0]:
                raise ValueError(
                    f"layer dimensions do not chain: {a.weights.shape} -> {b.weights.shape}"
                )
        if layers[-1].activation != LINEAR:
            raise ValueError("final layer must be linear")
        self.layers = layers
        self.version = 0

    @classmethod
    def create(
        cls,
        input_dim: int,
        hidden: tuple[int, ...],
        output_dim: int,
        rng: np.random.Generator,
        activation: str = RELU,
        slope: float = 0.01,
    ) -> "DenseNet":
        """He-initialised weights, zero biases, `activation` on hidden layers."""
        dims = (input_dim, *hidden, output_dim)
        layers = []
        for i in range(len(dims) - 1):
            fan_in, fan_out = dims[i], dims[i + 1]
            act = activation if i < len(dims) - 2 else LINEAR
            layers.append(
                Layer(
                    weights=he_init(fan_in, (fan_in, fan_out), rng),
                    biases=np.zeros(fan_out),
                    activation=act,
                    slope=slope,
                )
            )
        return cls(layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[0]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[1]

    def parameters(self) -> list[np.ndarray]:
        """Live parameter arrays, ordered [W0, b0, W1, b1, ...]."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.biases)
        return out

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def copy(self) -> "DenseNet":
        return DenseNet(
            [
                Layer(l.weights.copy(), l.biases.copy(), l.activation, l.slope)
                for l in self.layers
            ]
        )

    def mark_updated(self):
        self.version += 1


@dataclass
class ForwardCache:
    """Intermediate activations retained for one backward pass."""

    net_id: int
    version: int
    inputs: list  # input to each layer, inputs[0] is the batch itself
    preacts: list  # pre-activation z for each layer


def forward(net: DenseNet, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Evaluate the network on a ``(batch, input_dim)`` matrix.

    Pure: does not touch network state; identical inputs give bit-identical
    outputs.
    """
    batch = np.ascontiguousarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.input_dim:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with input_dim {net.input_dim}"
        )
    inputs, preacts = [], []
    a = batch
    for layer in net.layers:
        inputs.append(a)
        # a stacked product runs one vector-matrix BLAS call per row, so an
        # input row gives bit-identical outputs alone or inside any batch
        # (a single `a @ W` GEMM does not). The batch is C-contiguous: a
        # strided or Fortran-ordered one can take another kernel and other
        # bits than its contiguous copy
        z = (a[:, None, :] @ layer.weights)[:, 0] + layer.biases
        preacts.append(z)
        a = _activate(z, layer.activation, layer.slope)
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite values in network output")
    return a, ForwardCache(id(net), net.version, inputs, preacts)


def _layer_deltas(
    net: DenseNet, cache: ForwardCache, upstream: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Backpropagate `upstream` through the cached forward pass.

    Returns ``(dz, input_grads)``: dz[i] is the gradient with respect to
    layer i's pre-activation, input_grads the gradient with respect to the
    batch.
    """
    if cache.net_id != id(net):
        raise ValueError("cache does not belong to this network")
    if cache.version != net.version:
        raise ValueError("stale cache: network parameters were updated after forward")
    upstream = np.asarray(upstream, dtype=np.float64)
    expected = (cache.inputs[0].shape[0], net.output_dim)
    if upstream.shape != expected:
        raise ValueError(f"upstream shape {upstream.shape}, expected {expected}")

    dzs: list[np.ndarray] = [None] * len(net.layers)
    delta = upstream
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        # the activation gradient is a fresh array, so it takes the product
        # in place of a second array of the same size
        dzs[i] = _activation_grad(cache.preacts[i], layer.activation, layer.slope)
        dzs[i] *= delta
        delta = dzs[i] @ layer.weights.T
    return dzs, delta


def backward(
    net: DenseNet, cache: ForwardCache, upstream: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Exact gradients of ``sum(upstream * outputs)``.

    Returns ``(param_grads, input_grads)`` where param_grads matches the
    ordering of ``net.parameters()`` and input_grads has the batch's shape.
    The cache must come from a :func:`forward` call on this exact network
    with no parameter updates in between.
    """
    dzs, input_grads = _layer_deltas(net, cache, upstream)
    param_grads = []
    for a, dz in zip(cache.inputs, dzs):
        param_grads += [a.T @ dz, dz.sum(axis=0)]
    return param_grads, input_grads


def input_gradient(net: DenseNet, cache: ForwardCache, upstream: np.ndarray) -> np.ndarray:
    """``backward(net, cache, upstream)[1]`` without the parameter gradients.

    For callers that only need the gradient with respect to the batch, such
    as the actor's value gradient.
    """
    return _layer_deltas(net, cache, upstream)[1]


@dataclass
class AdamState:
    """Adam accumulators for a fixed list of parameter arrays."""

    m: list
    v: list
    t: int
    alpha: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: list[np.ndarray], alpha: float, **kwargs) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0,
            alpha=alpha,
            **kwargs,
        )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState):
    """One Adam update with bias correction, applied to `params` in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads and optimizer state must have equal lengths")
    for p, g, m in zip(params, grads, state.m):
        if p.shape != g.shape or p.shape != m.shape:
            raise ValueError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= state.alpha * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def global_grad_norm(grads: list[np.ndarray]) -> float:
    return math.sqrt(sum(float(np.sum(np.square(g))) for g in grads))


def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    """Rescale `grads` so the global L2 norm is at most `max_norm`.

    Direction-preserving: either the arrays are returned untouched or every
    entry is multiplied by the same factor, making the norm exactly max_norm.
    """
    if max_norm <= 0.0:
        raise ValueError("max_norm must be positive")
    for g in grads:
        if not np.isfinite(g).all():
            raise ValueError("non-finite gradient entries")
    norm = global_grad_norm(grads)
    if norm <= max_norm:
        return list(grads)
    scale = max_norm / norm
    return [g * scale for g in grads]


def polyak_update(target_params: list[np.ndarray], online_params: list[np.ndarray], tau: float):
    """In place: target <- tau * online + (1 - tau) * target."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if len(target_params) != len(online_params):
        raise ValueError("parameter lists differ in length")
    for t, o in zip(target_params, online_params):
        if t.shape != o.shape:
            raise ValueError(f"shape mismatch: {t.shape} vs {o.shape}")
        t *= 1.0 - tau
        t += tau * o


def adam_step_net(net: DenseNet, grads: list[np.ndarray], state: AdamState):
    """Adam on a network's live parameters; bumps the version counter."""
    adam_step(net.parameters(), grads, state)
    net.mark_updated()


def polyak_update_net(target: DenseNet, online: DenseNet, tau: float):
    polyak_update(target.parameters(), online.parameters(), tau)
    target.mark_updated()
