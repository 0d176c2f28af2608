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
    shared features. Their parameters lie back to back in one buffer, and
    every run of consecutive actions whose blocks have one width runs as one
    stack (``nncore.stacked``), so a pass over all K values is one stacked
    pass per run: one on every shipped environment, whose blocks all have
    width 1. Each slice keeps the bits of its network's own pass.

``QFunction.passes`` is the one place that tells the variants apart: for a
batch and the actions asked for, it gives per network the input rows, the
output each requested value is read from, and, when every sample asks for
all K values, the joint-vector columns each row was fed. Evaluation, the
actor's value gradient, the cross-gradient diagnostic and the agent's Q
update all run on that description. For one action per sample, a multipass
row is the joint row with the other actions' blocks zeroed, and each
separate network runs alone on its own samples' rows, so the Q regression
stays compact. Rows are written straight into the network's padded input
(``DenseNet.input_rows``).

``cross_gradient_matrix`` makes the distinction measurable: its entry (i, j)
is the gradient magnitude of Q_i with respect to block j, computed from
exact input gradients.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .nncore import DenseNet, _views, float_rows, forward, input_gradient, stacked

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
        object.__setattr__(self, "num_actions", len(self.param_dims))
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
    def joint_dim(self) -> int:
        return self._blocks[-1].stop

    def block(self, k: int) -> slice:
        """Slice of the joint vector holding action k's parameters."""
        if not 0 <= k < len(self._blocks):
            raise ValueError(f"action index {k} out of range [0, {self.num_actions})")
        return self._blocks[k]


def action_index(k) -> int:
    """``k`` as an int; a value that is not an integer, such as 1.5 or 1.0,
    raises a ValueError naming it. Integer numpy scalars are integers."""
    try:
        return operator.index(k)
    except TypeError:
        raise ValueError(f"action index {k!r} is not an integer") from None


def basis_mask(space: ActionSpaceSpec, params: np.ndarray, k: int) -> np.ndarray:
    """Joint vector(s) with every block except action k's set to zero."""
    params = np.asarray(params, dtype=np.float64)
    out = np.zeros_like(params)
    sl = space.block(k)
    out[..., sl] = params[..., sl]
    return out


class QFunction:
    """One of the three Q-architectures behind a common K-value interface.

    Its parameters are one buffer, ``flat``, laid out as ``layout``: the
    networks' buffers back to back, each network's ``flat`` a view of it. So
    an optimizer steps, clips and averages the Q-function as one buffer,
    with the bits of the per-network steps, as each is elementwise (and the
    clip's norm sums per parameter array, in order).
    """

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
        self.layout = sum((net.layout for net in nets), ())
        stops = np.cumsum([net.flat.size for net in nets]).tolist()
        self._spans = list(zip([0, *stops], stops))
        if len(nets) == 1:
            self.flat = nets[0].flat
        else:
            # the given networks' parameters, copied into views of one buffer
            self.flat = np.empty(stops[-1])
            nets = [DenseNet(net.layers, part, net._arrays)
                    for net, part in zip(nets, self._net_parts(self.flat))]
        self.nets = nets
        self._grad = None  # see gradient_buffer
        self._stacks = None  # see _stacked
        self._indices: dict[int, tuple] = {}  # per batch size, see _index_arrays

    @classmethod
    def create(
        cls,
        variant: str,
        space: ActionSpaceSpec,
        hidden: tuple[int, ...],
        rng: np.random.Generator,
    ) -> "QFunction":
        s, m, k = space.state_dim, space.joint_dim, space.num_actions
        if variant == SEPARATE:
            nets = [DenseNet.create(s + mk, hidden, 1, rng) for mk in space.param_dims]
            # the K networks have the same widths and run one at a time, so
            # they share one set of working arrays (and so do their copies
            # and their stacks' arrays)
            for net in nets[1:]:
                net._arrays = nets[0]._arrays
        else:  # joint and multipass share the K-output network; __init__ rejects the rest
            nets = [DenseNet.create(s + m, hidden, k, rng)]
        return cls(variant, space, nets)

    def copy(self) -> "QFunction":
        # __init__ copies several networks into a buffer of its own
        nets = self.nets if len(self.nets) > 1 else [self.nets[0].copy()]
        return QFunction(self.variant, self.space, nets)

    def __reduce__(self):
        # copy.deepcopy and pickle copy the networks, and __init__ lays them
        # out in one buffer again
        return QFunction, (self.variant, self.space, self.nets)

    def _net_parts(self, buffer: np.ndarray) -> list[np.ndarray]:
        """Per network, its view of a buffer laid out as ``flat``."""
        return [buffer[start:stop] for start, stop in self._spans]

    def parts(self, buffer: np.ndarray) -> list[np.ndarray]:
        """Per parameter array, in order, its view of a buffer laid out as ``flat``."""
        return _views(buffer, self.layout)

    def gradient_buffer(self) -> np.ndarray:
        """The reusable gradient buffer, laid out as ``flat``, made at the
        first call; each network's gradient buffer is its view of it."""
        if self._grad is None:
            self._grad = np.empty(self.flat.size)
            for net, part in zip(self.nets, self._net_parts(self._grad)):
                net.gradient_buffer(part)
        return self._grad

    def mark_updated(self):
        """``flat`` was written in place: outdate every network's caches (a
        stack works in the arrays of its first network)."""
        for net in self.nets:
            net.mark_updated()

    def _stacked(self) -> list:
        """Per run of consecutive separate networks of one layout (actions
        whose blocks have one width), ``(stack, actions, columns)``: the
        networks as one stack over their part of ``flat`` (nncore.stacked),
        and the slices of the actions and of their joint-vector columns.
        Made at first use."""
        if self._stacks is None:
            self._stacks, first = [], 0
            for _, group in itertools.groupby(self.nets, key=lambda net: (
                    net.layout, [l.activation for l in net.layers])):
                k = len(list(group))
                last = first + k - 1
                flat = self.flat[self._spans[first][0]:self._spans[last][1]].reshape(k, -1)
                cols = slice(self.space.block(first).start, self.space.block(last).stop)
                self._stacks.append((stacked(self.nets[first], flat), slice(first, last + 1), cols))
                first += k
        return self._stacks

    def passes(self, states: np.ndarray, params: np.ndarray, actions=None):
        """The one description of each variant: which rows reach which
        network, and which outputs are read back.

        Yields per network ``(net, rows, q_at, out_at, grad_at, in_at)``:
        ``q[q_at] = out.take(out_at)`` and, with ``actions`` None, ``grad[grad_at]
        = g``, or ``g.take(in_at)`` given an ``in_at``, for the rows' output and
        the input gradient g of their columns after the state. With ``actions``
        None ``q`` is (B, K); else it is (B,), sample b asking for ``actions[b]``,
        and the last two are None. Draw a pass only after using the last: their
        rows share the padded input. Rows keep sample order. The separate
        networks run one at a time on their samples' rows for given
        ``actions``, and else as stacks, one pass per stack (see ``_stacked``),
        on (k, B, state_dim + width) rows.
        """
        space, b = self.space, len(states)
        first, out_at, in_at, _ = self._index_arrays(b)
        if self.variant == SEPARATE:
            if actions is None:
                # slice j of a stack sees state ++ the block of its action j
                for i, (stack, acts, cols) in enumerate(self._stacked()):
                    shape = (b, *stack.lead, stack.input_dim - space.state_dim)
                    blocks = params[:, cols].reshape(shape).swapaxes(0, 1)
                    rows = _fill_rows(stack.input_rows(b), states, blocks)
                    yield stack, rows, (_ALL, acts), out_at[i], (_ALL, cols), in_at[i]
                return
            # network i sees state ++ block i for the samples asking for action i
            for i, net in enumerate(self.nets):
                mine = (actions == i).nonzero()[0]  # np.flatnonzero, undispatched
                rows = _fill_rows(net.input_rows(len(mine)), states[mine],
                                  params[mine, space.block(i)])
                yield net, rows, mine, first[:len(mine)], None, None
            return
        net = self.nets[0]
        if actions is not None:
            # one row per sample, read at its action's column; a multipass
            # row is the joint row with every other action's block zeroed
            mask = space._basis[actions] if self.variant == MULTIPASS else None
            rows = _fill_rows(net.input_rows(b), states, params, mask)
            yield net, rows, _ALL, first + actions, None, None
        elif self.variant == JOINT:
            # one row per sample feeds every column; action a is output column a
            rows = _fill_rows(net.input_rows(b), states, params)
            yield net, rows, _ALL, out_at[0], _ALL, None
        else:
            # multipass: the row of (sample b, action a) keeps block a only and
            # is read at column a
            rows = multipass_rows(space, states, params, net.input_rows(b * space.num_actions))
            yield net, rows, _ALL, out_at[0], _ALL, in_at[0]

    def _index_arrays(self, b: int) -> tuple:
        """``(first, out_at, in_at, ones)`` for b samples, read-only: each row's
        first output's flat index, and per pass of all K values its ``out_at``
        and upstream gradient of sum_k Q_k, and multipass's and each separate
        stack's ``in_at``."""
        consts = self._indices.get(b)
        if consts is None:
            space, k, m = self.space, self.space.num_actions, self.space.joint_dim
            if self.variant == SEPARATE:
                first = np.arange(b)
                out_at, in_at, shapes = [], [], []
                for stack, _, _ in self._stacked():
                    # slice j, row r of a stack's output and input gradient
                    # hold sample r's action j and its block's columns
                    (kj,), width = stack.lead, stack.input_dim - space.state_dim
                    out_at.append(first[:, None] + b * np.arange(kj))
                    in_at.append((width * out_at[-1][:, :, None] + np.arange(width))
                                 .reshape(b, kj * width))
                    shapes.append((kj, b, 1))
            else:
                first = np.arange(0, b * k, k)
                # the multipass row of (sample b, action a) is b * K + a, and
                # column j of sample b is fed by the row of the action owning j
                row = np.arange(b * k).reshape(b, k)
                if self.variant == JOINT:
                    out_at, in_at, shapes = [row], [], [(b, k)]
                else:
                    out_at, shapes = [row * k + np.arange(k)], [(b * k, k)]
                    in_at = [row[:, space._owner] * m + np.arange(m)]
            ones = [np.zeros(shape) for shape in shapes]
            for upstream, at in zip(ones, out_at):
                upstream.put(at, 1.0)
            consts = (first, out_at, in_at, ones)
            for a in (first, *out_at, *in_at, *ones):
                a.flags.writeable = False
            self._indices[b] = consts
        return consts

    def evaluate(self, states: np.ndarray, params: np.ndarray) -> np.ndarray:
        """All K action values for a batch: (B, state_dim), (B, M) -> (B, K)."""
        states, params = _check_batch(self.space, states, params)
        q = np.empty((len(states), self.space.num_actions))
        for net, rows, q_at, out_at, _, _ in self.passes(states, params):
            q[q_at] = forward(net, rows)[0].take(out_at)
        return q


def _check_batch(space, states, params):
    states, params = float_rows(states), float_rows(params)
    if states.shape[1] != space.state_dim:
        raise ValueError(f"state width {states.shape[1]} != state_dim {space.state_dim}")
    if params.shape[1] != space.joint_dim:
        raise ValueError(f"param width {params.shape[1]} != joint dim {space.joint_dim}")
    if states.shape[0] != params.shape[0]:
        raise ValueError("states and params disagree on batch size")
    return states, params


def _fill_rows(rows: np.ndarray, states, params, mask=None) -> np.ndarray:
    """``rows`` after writing state ++ params into it, params zeroed where ``mask`` is false."""
    sd = states.shape[-1]
    rows[..., :sd] = states
    if mask is None:
        rows[..., sd:] = params
    else:
        blocks = rows[..., sd:]
        blocks.fill(0.0)
        np.copyto(blocks, params, where=mask)
    return rows


def multipass_rows(space: ActionSpaceSpec, states: np.ndarray, params: np.ndarray,
                   rows: np.ndarray) -> np.ndarray:
    """Write the K masked input rows per sample into the (B * K, state_dim +
    M) array ``rows`` and return it; sample-major: row b*K + k is state_b ++
    (params_b masked to block k)."""
    b, k = len(states), space.num_actions
    # splitting the leading axis of a 2-D array always gives a view
    by_sample = rows.reshape(b, k, rows.shape[1])
    _fill_rows(by_sample, states[:, None, :], params[:, None, :], space._basis)
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
    return _q_gradient(qf, states, params)


def _q_gradient(qf: QFunction, states, params, weight=None):
    """Gradient of sum_k weight[:, k] * Q_k per sample, and the (B, K) values,
    on float64 arrays, unchecked; a weight of None weights every Q_k by 1."""
    grad, q = np.empty(params.shape), np.empty((len(states), qf.space.num_actions))
    ones = qf._index_arrays(len(states))[3]
    passes = qf.passes(states, params)
    for (net, rows, q_at, out_at, grad_at, in_at), upstream in zip(passes, ones):
        out, cache = forward(net, rows)
        q[q_at] = out.take(out_at)
        if weight is not None:
            upstream = np.zeros(out.shape)
            upstream.put(out_at, weight[q_at])
        g = input_gradient(net, cache, upstream, qf.space.state_dim)
        grad[grad_at] = g if in_at is None else g.take(in_at)
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
        grad, _ = _q_gradient(qf, states, params, weight[None, :])
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
