"""Q-architectures over parameterised actions.

A parameterised action pairs a discrete choice k with a continuous parameter
vector x_k; the joint vector x concatenates all K blocks in action order,
directly after the state in every network input. Three architectures share
one evaluation interface returning K action values:

``joint``
    One network fed state ++ full joint vector. Every Q_i depends on every
    parameter block, so updating one block's policy perturbs all action
    values and their gradients leak across actions.
``multipass``
    The same network topology, but evaluated K times on basis-masked copies
    of the joint vector: row k keeps block k and zeroes every other block.
    The K rows run as one batched pass and only the diagonal outputs
    Q_kk are kept, so Q_k depends on x_k alone and all cross-action
    gradients vanish identically.
``separate``
    K independent networks, each fed state ++ its own block. Same
    independence property, at the cost of duplicated parameters and no
    shared features.

``cross_gradient_matrix`` makes the distinction measurable: its entry (i, j)
is the gradient magnitude of Q_i with respect to block j, computed from
exact input gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nncore import RELU, DenseNet, forward, input_gradient

JOINT = "joint"
MULTIPASS = "multipass"
SEPARATE = "separate"
VARIANTS = (JOINT, MULTIPASS, SEPARATE)


@dataclass(frozen=True)
class ActionSpaceSpec:
    """Shape of a parameterised action space.

    ``param_dims[k]`` is the dimension m_k of action k's parameter block;
    ``bounds`` holds one (low, high) row per joint dimension, defaulting to
    (-1, 1) everywhere. Blocks are laid out in action order, so the joint
    vector and any replayed copy of it always align with the masks.
    """

    state_dim: int
    param_dims: tuple[int, ...]
    bounds: np.ndarray = None

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError("state_dim must be >= 1")
        if len(self.param_dims) < 1:
            raise ValueError("need at least one discrete action")
        if any(m < 1 for m in self.param_dims):
            raise ValueError("every action parameter dimension must be >= 1")
        object.__setattr__(self, "param_dims", tuple(int(m) for m in self.param_dims))
        m_total = sum(self.param_dims)
        if self.bounds is None:
            b = np.tile(np.array([-1.0, 1.0]), (m_total, 1))
        else:
            b = np.asarray(self.bounds, dtype=np.float64)
        if b.shape != (m_total, 2):
            raise ValueError(f"bounds must have shape ({m_total}, 2), got {b.shape}")
        if not (b[:, 0] < b[:, 1]).all():
            raise ValueError("each bound row needs min < max")
        object.__setattr__(self, "bounds", b)
        offsets = np.concatenate([[0], np.cumsum(self.param_dims)])
        object.__setattr__(self, "_offsets", offsets)

    @property
    def num_actions(self) -> int:
        return len(self.param_dims)

    @property
    def joint_dim(self) -> int:
        return int(self._offsets[-1])

    def block(self, k: int) -> slice:
        """Slice of the joint vector holding action k's parameters."""
        if not 0 <= k < self.num_actions:
            raise ValueError(f"action index {k} out of range [0, {self.num_actions})")
        return slice(int(self._offsets[k]), int(self._offsets[k + 1]))


def basis_mask(space: ActionSpaceSpec, params: np.ndarray, k: int) -> np.ndarray:
    """Joint vector(s) with every block except action k's set to zero."""
    params = np.asarray(params, dtype=np.float64)
    out = np.zeros_like(params)
    sl = space.block(k)
    out[..., sl] = params[..., sl]
    return out


class QFunction:
    """One of the three Q-architectures behind a common K-value interface."""

    def __init__(self, variant: str, space: ActionSpaceSpec, nets: list[DenseNet]):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        s, m, k = space.state_dim, space.joint_dim, space.num_actions
        if variant in (JOINT, MULTIPASS):
            if len(nets) != 1:
                raise ValueError(f"{variant} uses a single network")
            if nets[0].input_dim != s + m or nets[0].output_dim != k:
                raise ValueError(
                    f"{variant} network must map {s + m} -> {k}, "
                    f"got {nets[0].input_dim} -> {nets[0].output_dim}"
                )
        else:
            if len(nets) != k:
                raise ValueError("separate variant needs one network per action")
            for i, net in enumerate(nets):
                if net.input_dim != s + space.param_dims[i] or net.output_dim != 1:
                    raise ValueError(f"separate network {i} has wrong dimensions")
        self.variant = variant
        self.space = space
        self.nets = nets

    @classmethod
    def create(
        cls,
        variant: str,
        space: ActionSpaceSpec,
        hidden: tuple[int, ...],
        rng: np.random.Generator,
        activation: str = RELU,
        slope: float = 0.01,
    ) -> "QFunction":
        s, m, k = space.state_dim, space.joint_dim, space.num_actions
        if variant in (JOINT, MULTIPASS):
            nets = [DenseNet.create(s + m, hidden, k, rng, activation, slope)]
        elif variant == SEPARATE:
            nets = [
                DenseNet.create(s + mk, hidden, 1, rng, activation, slope)
                for mk in space.param_dims
            ]
        else:
            raise ValueError(f"unknown variant {variant!r}")
        return cls(variant, space, nets)

    @property
    def net(self) -> DenseNet:
        if self.variant == SEPARATE:
            raise ValueError("separate variant has one network per action")
        return self.nets[0]

    def parameters(self) -> list[np.ndarray]:
        out = []
        for net in self.nets:
            out.extend(net.parameters())
        return out

    def num_parameters(self) -> int:
        return sum(net.num_parameters() for net in self.nets)

    def copy(self) -> "QFunction":
        return QFunction(self.variant, self.space, [n.copy() for n in self.nets])

    def evaluate(self, states: np.ndarray, params: np.ndarray) -> np.ndarray:
        """All K action values for a batch: (B, state_dim), (B, M) -> (B, K)."""
        states, params = _check_batch(self.space, states, params)
        b, k = states.shape[0], self.space.num_actions
        if self.variant == JOINT:
            out, _ = forward(self.net, np.hstack([states, params]))
            return out
        if self.variant == MULTIPASS:
            rows = multipass_rows(self.space, states, params)
            out, _ = forward(self.net, rows)
            return out.reshape(b, k, k)[:, np.arange(k), np.arange(k)]
        q = np.empty((b, k))
        for i, net in enumerate(self.nets):
            out, _ = forward(net, np.hstack([states, params[:, self.space.block(i)]]))
            q[:, i] = out[:, 0]
        return q


def _check_batch(space, states, params):
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    params = np.atleast_2d(np.asarray(params, dtype=np.float64))
    if states.shape[1] != space.state_dim:
        raise ValueError(f"state width {states.shape[1]} != state_dim {space.state_dim}")
    if params.shape[1] != space.joint_dim:
        raise ValueError(f"param width {params.shape[1]} != joint dim {space.joint_dim}")
    if states.shape[0] != params.shape[0]:
        raise ValueError("states and params disagree on batch size")
    return states, params


def multipass_rows(space: ActionSpaceSpec, states: np.ndarray, params: np.ndarray) -> np.ndarray:
    """The K masked input rows per sample, sample-major: row b*K + k is
    state_b ++ (params_b masked to block k)."""
    b, k = states.shape[0], space.num_actions
    rows = np.zeros((b * k, space.state_dim + space.joint_dim))
    for i in range(k):
        sl = space.block(i)
        rows[i::k, : space.state_dim] = states
        rows[i::k, space.state_dim + sl.start : space.state_dim + sl.stop] = params[:, sl]
    return rows


def _single(qf: QFunction, expected_variant: str, s, x) -> np.ndarray:
    if qf.variant != expected_variant:
        raise ValueError(f"expected a {expected_variant} QFunction, got {qf.variant}")
    return qf.evaluate(np.asarray(s)[None, :], np.asarray(x)[None, :])[0]


def q_joint(qf: QFunction, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Single forward pass on state ++ joint vector; returns all K values."""
    return _single(qf, JOINT, s, x)


def q_multipass(qf: QFunction, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K basis-masked rows evaluated as one batch; returns the diagonal."""
    return _single(qf, MULTIPASS, s, x)


def q_separate(qf: QFunction, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-action networks, each fed only its own block."""
    return _single(qf, SEPARATE, s, x)


def sum_q_gradient(
    qf: QFunction, states: np.ndarray, params: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample gradient of sum_k Q_k with respect to the joint vector.

    Returns ``(grad, q)`` with shapes (B, M) and (B, K). For the joint
    variant the gradient at block j sums the cross terms dQ_k/dx_j over all
    k; for multipass and separate only the own-block terms dQ_j/dx_j
    survive, because the masked (or absent) input slots contribute zero by
    the chain rule.
    """
    states, params = _check_batch(qf.space, states, params)
    space = qf.space
    b, k, sd = states.shape[0], space.num_actions, space.state_dim
    if qf.variant == JOINT:
        out, cache = forward(qf.net, np.hstack([states, params]))
        in_grads = input_gradient(qf.net, cache, np.ones((b, k)))
        return in_grads[:, sd:], out
    grad = np.zeros((b, space.joint_dim))
    q = np.empty((b, k))
    if qf.variant == MULTIPASS:
        rows = multipass_rows(space, states, params)
        out, cache = forward(qf.net, rows)
        upstream = np.zeros((b * k, k))
        for i in range(k):
            upstream[i::k, i] = 1.0
        in_grads = input_gradient(qf.net, cache, upstream)
        for i in range(k):
            sl = space.block(i)
            q[:, i] = out[i::k, i]
            # chain rule through the mask: only block i of row i survives
            grad[:, sl] = in_grads[i::k, sd + sl.start : sd + sl.stop]
        return grad, q
    for i, net in enumerate(qf.nets):
        sl = space.block(i)
        out, cache = forward(net, np.hstack([states, params[:, sl]]))
        in_grads = input_gradient(net, cache, np.ones((b, 1)))
        q[:, i] = out[:, 0]
        grad[:, sl] = in_grads[:, sd:]
    return grad, q


def cross_gradient_matrix(qf: QFunction, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """G[i, j] = L2 norm of dQ_i / dx_block_j from exact input gradients.

    Off-diagonal blocks are exactly zero for multipass and separate
    variants; for the joint variant they are generically nonzero.
    """
    s = np.asarray(s, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    space = qf.space
    k, sd = space.num_actions, space.state_dim
    g = np.zeros((k, k))
    if qf.variant == JOINT:
        rows = np.hstack([np.tile(s, (k, 1)), np.tile(x, (k, 1))])
        _, cache = forward(qf.net, rows)
        in_grads = input_gradient(qf.net, cache, np.eye(k))
        for i in range(k):
            for j in range(k):
                sl = space.block(j)
                g[i, j] = np.linalg.norm(in_grads[i, sd + sl.start : sd + sl.stop])
        return g
    if qf.variant == MULTIPASS:
        rows = multipass_rows(space, s[None, :], x[None, :])
        _, cache = forward(qf.net, rows)
        in_grads = input_gradient(qf.net, cache, np.eye(k))
        for i in range(k):
            sl = space.block(i)
            g[i, i] = np.linalg.norm(in_grads[i, sd + sl.start : sd + sl.stop])
        return g
    for i, net in enumerate(qf.nets):
        sl = space.block(i)
        _, cache = forward(net, np.hstack([s, x[sl]])[None, :])
        in_grads = input_gradient(net, cache, np.ones((1, 1)))
        g[i, i] = np.linalg.norm(in_grads[0, sd:])
    return g


def q_sensitivity_sweep(
    qf: QFunction,
    s: np.ndarray,
    x: np.ndarray,
    sweep_action: int,
    grid,
    coordinate: int = 0,
) -> np.ndarray:
    """Q-values while one coordinate of one action's block sweeps a grid.

    Returns a (len(grid), K) table; row g is Q(s, x with slot
    (sweep_action, coordinate) replaced by grid[g]). Grid values outside the
    slot's bounds are rejected.
    """
    s = np.asarray(s, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-D sequence")
    sl = qf.space.block(sweep_action)
    if not 0 <= coordinate < qf.space.param_dims[sweep_action]:
        raise ValueError("coordinate out of range for swept action")
    dim = sl.start + coordinate
    lo, hi = qf.space.bounds[dim]
    if (grid < lo).any() or (grid > hi).any():
        raise ValueError(f"grid values outside bounds [{lo}, {hi}] of swept slot")
    states = np.tile(s, (grid.size, 1))
    params = np.tile(x, (grid.size, 1))
    params[:, dim] = grid
    return qf.evaluate(states, params)
