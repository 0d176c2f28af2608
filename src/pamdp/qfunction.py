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

``QFunction.passes`` is the one place that tells the variants apart: for a
batch and the actions asked for, it lists per network the input rows, the
output each requested value is read from, and the joint-vector columns each
row was fed. Evaluation, the actor's value gradient, the cross-gradient
diagnostic and the agent's Q update all run on that description.

``cross_gradient_matrix`` makes the distinction measurable: its entry (i, j)
is the gradient magnitude of Q_i with respect to block j, computed from
exact input gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nncore import RELU, DenseNet, forward, input_gradient

JOINT = "joint"
MULTIPASS = "multipass"
SEPARATE = "separate"
VARIANTS = (JOINT, MULTIPASS, SEPARATE)
_ALL = slice(None)


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
        offsets = np.concatenate([[0], np.cumsum(self.param_dims)]).tolist()
        object.__setattr__(self, "_blocks", tuple(map(slice, offsets, offsets[1:])))
        # the action whose block holds each joint-vector column, and per
        # action the columns of its block
        owner = np.repeat(np.arange(len(self.param_dims)), self.param_dims)
        object.__setattr__(self, "_owner", owner)
        object.__setattr__(self, "_basis", np.arange(len(self.param_dims))[:, None] == owner)

    @property
    def num_actions(self) -> int:
        return len(self.param_dims)

    @property
    def joint_dim(self) -> int:
        return self._blocks[-1].stop

    def block(self, k: int) -> slice:
        """Slice of the joint vector holding action k's parameters."""
        if not 0 <= k < len(self._blocks):
            raise ValueError(f"action index {k} out of range [0, {self.num_actions})")
        return self._blocks[k]


def basis_mask(space: ActionSpaceSpec, params: np.ndarray, k: int) -> np.ndarray:
    """Joint vector(s) with every block except action k's set to zero."""
    params = np.asarray(params, dtype=np.float64)
    out = np.zeros_like(params)
    sl = space.block(k)
    out[..., sl] = params[..., sl]
    return out


@dataclass
class Pass:
    """One network's share of a batch of Q-values.

    The network runs on ``rows`` and the values it contributes are
    ``q[q_at] = out[out_at]``. Each row feeds the network only some columns
    of its sample's joint vector; the gradient of those values with respect
    to them is ``grad[grad_at] = in_grad[in_at]``, where ``in_grad`` is the
    gradient with respect to the rows.
    """

    net: DenseNet
    rows: np.ndarray
    q_at: tuple
    out_at: tuple
    grad_at: tuple
    in_at: tuple

    def upstream(self, out: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The upstream gradient for ``out`` that is ``values`` at ``out_at``
        and zero elsewhere. Rows keep sample order, so where every output is
        read, ``values`` are the outputs in order and need no zero fill."""
        if np.size(values) == out.size:
            return np.reshape(values, out.shape)
        upstream = np.zeros(out.shape)
        upstream[self.out_at] = values
        return upstream


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
        self._indices: dict[int, tuple] = {}  # per batch size, see _index_arrays

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
        if variant == SEPARATE:
            nets = [
                DenseNet.create(s + mk, hidden, 1, rng, activation, slope)
                for mk in space.param_dims
            ]
            # the K networks have the same widths and run one at a time, so
            # they share one set of working arrays (and so do their copies)
            for net in nets[1:]:
                net._arrays = nets[0]._arrays
        else:  # joint and multipass share the K-output network; __init__ rejects the rest
            nets = [DenseNet.create(s + m, hidden, k, rng, activation, slope)]
        return cls(variant, space, nets)

    @property
    def net(self) -> DenseNet:
        if len(self.nets) != 1:
            raise ValueError(f"{self.variant} variant has one network per action")
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

    def passes(self, states: np.ndarray, params: np.ndarray, actions=None) -> list[Pass]:
        """The one description of each variant: which rows reach which
        network, and which outputs are read back.

        With ``actions`` None every sample asks for all K values, and ``q``
        is (B, K); otherwise sample b asks for action ``actions[b]`` only, and
        ``q`` is (B,). Rows keep sample order: a row's output bits do not
        depend on its batch, but GEMM sums over rows depend on their order.
        """
        space, b = self.space, states.shape[0]
        sd = space.state_dim
        params_in = (_ALL, slice(sd, None))
        if self.variant == SEPARATE:
            # network i sees state ++ block i for the samples asking for action i
            out = []
            for i, net in enumerate(self.nets):
                sl = space.block(i)
                mine = _ALL if actions is None else np.flatnonzero(actions == i)
                q_at = (_ALL, i) if actions is None else mine
                rows = np.concatenate((states[mine], params[mine, sl]), axis=1)
                out.append(Pass(net, rows, q_at, (_ALL, 0), (mine, sl), params_in))
            return out
        samples, diagonal, fed_by = self._index_arrays(b)
        if self.variant == JOINT:
            # one row per sample feeds every column; action a is output column a
            rows = np.concatenate((states, params), axis=1)
            out_at = _ALL if actions is None else (samples, actions)
            return [Pass(self.net, rows, _ALL, out_at, _ALL, params_in)]
        # multipass: the row of (sample b, action a) keeps block a only and is
        # read at column a
        if actions is None:
            rows = multipass_rows(space, states, params)
            return [Pass(self.net, rows, _ALL, diagonal, _ALL, fed_by)]
        keep = space._basis[actions]
        rows = np.concatenate((states, np.where(keep, params, 0.0)), axis=1)
        rr, cols = np.nonzero(keep)
        out_at = (samples, actions)
        return [Pass(self.net, rows, _ALL, out_at, (rr, cols), (rr, sd + cols))]

    def _index_arrays(self, b: int) -> tuple:
        """``passes``' index arrays that depend on the batch size alone, made
        once per size: the sample indices, the multipass rows' diagonal
        outputs and the multipass row feeding each joint-vector column."""
        arrays = self._indices.get(b)
        if arrays is None:
            space, k = self.space, self.space.num_actions
            row = np.arange(b * k).reshape(b, k)
            # column j of sample b is fed by the row of the action owning j
            fed_by = (row[:, space._owner], space.state_dim + np.arange(space.joint_dim))
            arrays = (np.arange(b), (row, np.arange(k)), fed_by)
            for a in (arrays[0], *arrays[1], *fed_by):
                a.flags.writeable = False
            self._indices[b] = arrays
        return arrays

    def evaluate(self, states: np.ndarray, params: np.ndarray) -> np.ndarray:
        """All K action values for a batch: (B, state_dim), (B, M) -> (B, K)."""
        states, params = _check_batch(self.space, states, params)
        q = np.empty((states.shape[0], self.space.num_actions))
        for p in self.passes(states, params):
            q[p.q_at] = forward(p.net, p.rows)[0][p.out_at]
        return q


def _check_batch(space, states, params):
    states, params = np.atleast_2d(
        np.asarray(states, dtype=np.float64), np.asarray(params, dtype=np.float64)
    )
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
    b, k, sd = states.shape[0], space.num_actions, space.state_dim
    rows = np.zeros((b, k, sd + space.joint_dim))
    rows[:, :, :sd] = states[:, None, :]
    np.copyto(rows[:, :, sd:], params[:, None, :], where=space._basis)
    return rows.reshape(b * k, -1)


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
    weight = np.ones((states.shape[0], qf.space.num_actions))
    return _weighted_q_gradient(qf, states, params, weight)


def _weighted_q_gradient(qf: QFunction, states, params, weight):
    """Gradient of sum_k weight[:, k] * Q_k per sample, and the (B, K) values."""
    grad = np.zeros(params.shape)
    q = np.empty(weight.shape)
    for p in qf.passes(states, params):
        out, cache = forward(p.net, p.rows)
        q[p.q_at] = out[p.out_at]
        upstream = p.upstream(out, weight[p.q_at])
        grad[p.grad_at] = input_gradient(p.net, cache, upstream)[p.in_at]
    return grad, q


def cross_gradient_matrix(qf: QFunction, s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """G[i, j] = L2 norm of dQ_i / dx_block_j from exact input gradients.

    Off-diagonal blocks are exactly zero for multipass and separate
    variants; for the joint variant they are generically nonzero.
    """
    states, params = _check_batch(qf.space, s, x)
    k = qf.space.num_actions
    g = np.zeros((k, k))
    for i, weight in enumerate(np.eye(k)):
        grad, _ = _weighted_q_gradient(qf, states, params, weight[None, :])
        for j in range(k):
            g[i, j] = np.linalg.norm(grad[0, qf.space.block(j)])
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
