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

A forward pass computes each layer as one 2-D GEMM, ``np.matmul([a, 1],
[W; b], out=z)``, on the row count rounded up to ``ROW_QUANTUM``: each
layer's input carries a column of ones, so the GEMM adds the biases, and
the batch is copied into zeroed padding rows, whose results nobody reads.
That makes a row's output bits independent of its batch: in OpenBLAS's
double GEMM every row count that is a multiple of 4 gives each row the bits
it gets in any other such count, while a 1-row product takes the GEMV path
and other counts take the kernel's edge paths, which sum in another order.
The quantum is a property of the BLAS kernel that numpy's OpenBLAS selects
for the CPU at run time (its ``DYNAMIC_ARCH`` core, such as SkylakeX or
Haswell), not of numpy; another kernel may need another quantum.
``TestBatchInvariance`` in the test suite is the guard, and the suite's
header names the core it ran on. The backward pass, whose sums over rows
depend on the batch anyway, runs unpadded on the n rows; one GEMM on the
inputs with their ones gives a layer's weight and bias gradients.

Forward and backward passes allocate nothing as large as a hidden layer:
each network keeps its layers' pre-activations, activations and deltas in
arrays it reuses from call to call (and shares with its copies), grown to
the largest batch seen. Allocated per call, a 384 x 128 float64 array of a
multipass update lies above glibc's mmap threshold and would be mapped,
faulted in and unmapped on every update. So a forward cache lives until the
next forward of the same network or of a copy; using it later raises. What
a caller receives, the output and every gradient, is always a new array.

A network's parameters ``[W0, b0, W1, b1, ...]`` live back to back in one
1-D float64 buffer, ``DenseNet.flat`` (a :class:`FlatArrays`); each layer's
weights and biases are C-contiguous views of it. :func:`backward` writes the
parameter gradients into a new buffer of the same layout, and an agent's
Adam moments ``m`` and ``v`` are buffers of that layout too. So
:func:`adam_step`, :func:`clip_grad_norm` and :func:`polyak_update` run
once per network, not once per parameter array; as every operation is
elementwise, the bits are those of the per-array steps. The one sum,
the global gradient norm, still adds one sum of squares per parameter
array, in parameter order.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# the row count a forward GEMM is padded to a multiple of; see forward
ROW_QUANTUM = 4

RELU = "relu"
LEAKY_RELU = "leaky_relu"
LINEAR = "linear"
ACTIVATIONS = (RELU, LEAKY_RELU, LINEAR)


def he_init(fan_in: int, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Zero-mean normal draws with standard deviation sqrt(2 / fan_in)."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    return rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)


def _activate(z: np.ndarray, kind: str, slope: float, out: np.ndarray):
    """Write act(z) into `out`."""
    if kind == RELU:
        np.maximum(z, 0.0, out=out)
    elif kind == LEAKY_RELU:
        np.multiply(z, slope, out=out)
        np.putmask(out, z > 0.0, z)
    else:
        np.copyto(out, z)


def _scale_by_activation_grad(delta: np.ndarray, z: np.ndarray, kind: str, slope: float):
    """In place: delta *= act'(z), with subgradient 0 (relu) or `slope`
    (leaky_relu) at exactly 0."""
    if kind == RELU:
        np.multiply(delta, z > 0.0, out=delta)
    elif kind == LEAKY_RELU:
        np.multiply(delta, np.where(z > 0.0, 1.0, slope), out=delta)


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


class FlatArrays(np.ndarray):
    """A 1-D float64 buffer holding arrays of ``shapes`` back to back.

    ``parts()`` views them, C-contiguous and in order. A copy, an
    elementwise result, a deep copy and a pickle keep the layout; a slice of
    another length has none (``shapes`` None).
    """

    shapes = None

    def __new__(cls, shapes):
        shapes = tuple(tuple(s) for s in shapes)
        flat = super().__new__(cls, sum(math.prod(s) for s in shapes))
        flat.shapes = shapes
        return flat

    def __array_finalize__(self, obj):
        if obj is not None and obj.shape == self.shape:
            self.shapes = getattr(obj, "shapes", None)

    def __reduce__(self):
        rebuild, args, state = super().__reduce__()
        return rebuild, args, (state, self.shapes)

    def __setstate__(self, state):
        state, self.shapes = state
        super().__setstate__(state)

    def parts(self) -> list[np.ndarray]:
        """Plain-ndarray views of the held arrays, in order."""
        return _views(np.asarray(self), self.shapes)


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of a 1-D array shaped like ``shapes``."""
    return [flat[start:stop].reshape(shape) for start, stop, shape in _spans(shapes)]


def _affine_views(flat: FlatArrays) -> list[np.ndarray]:
    """Per layer, the (fan_in + 1, fan_out) view ``[W; b]`` of a buffer laid
    out as ``[W0, b0, W1, b1, ...]``: a layer's biases follow its weights."""
    return _views(np.asarray(flat), _affine_shapes(flat.shapes))


@functools.cache
def _affine_shapes(shapes: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int], ...]:
    return tuple((w[0] + 1, w[1]) for w in shapes[::2])


@functools.cache
def _spans(shapes: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """``(start, stop, shape)`` of each array in a buffer laid out as ``shapes``."""
    out, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        out.append((start, stop, shape))
        start = stop
    return tuple(out)


class _Hidden(NamedTuple):
    """One hidden layer's views of its reusable arrays for a call on n rows.

    The pre-activations z, the activations a and the deltas carry one more
    column: z and a a column of ones, so that ``a @ [W; b]`` adds the next
    layer's biases inside its GEMM (every activation maps 1 to 1), the
    deltas a column that nothing reads. Elementwise steps run on the whole
    rows, contiguous; the GEMMs write the first ``width`` columns.
    """

    gemm: np.ndarray  # padded rows of z without its ones: the GEMM output
    z: np.ndarray  # padded rows of z
    a: np.ndarray  # padded rows of a: the next GEMM's input
    preact: np.ndarray  # the first n rows of gemm
    input: np.ndarray  # the first n rows of a
    z_rows: np.ndarray  # the first n rows of z
    delta: np.ndarray  # the first n rows of the deltas
    dz: np.ndarray  # the same without the extra column: the GEMMs' side


class _Views(NamedTuple):
    """A call's views of a network's reusable arrays, made once per row
    count n. The GEMMs write the rows rounded up to ``ROW_QUANTUM``; the
    cache and the backward pass see the first n."""

    hidden: list  # per hidden layer, its _Hidden
    gemm: np.ndarray  # padded rows of the output layer's GEMM output
    out: np.ndarray  # their first n rows
    inputs: list  # the hidden layers' inputs, the cache's inputs after the batch's
    preacts: list  # the hidden layers' preacts


def padded_rows(n: int) -> int:
    """n rounded up to a multiple of ``ROW_QUANTUM``."""
    return -(-n // ROW_QUANTUM) * ROW_QUANTUM


def _mapped(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array in an anonymous memory map of its own.

    Long-lived arrays taken from the malloc heap sit between the short-lived
    ones and keep freed heap memory from going back to the OS; a map of its
    own is returned whole when the array is dropped.
    """
    count = math.prod(shape)
    if count == 0:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * count), dtype=np.float64).reshape(shape)


def _with_ones(shape: tuple[int, int]) -> np.ndarray:
    """A :func:`_mapped` array whose last column is ones."""
    a = _mapped(shape)
    a[:, -1] = 1.0
    return a


class _LayerArrays:
    """Reusable per-layer arrays of a network and of its copies.

    They hold up to ``rows`` rows, a multiple of ``ROW_QUANTUM``, and grow to
    the largest row count seen; a call on n rows works in leading-row
    views, made once per n. Every :meth:`take` bumps
    ``generation``, which outdates the caches of the forwards before it.
    The output layer keeps only its GEMM output here: what ``forward``
    returns is always a new array.
    """

    def __init__(self, widths: list[int]):
        self.widths = widths  # hidden widths, then the output width
        self.generation = 0
        self._allocate(0)

    def _allocate(self, rows: int):
        self.rows = rows
        hidden = self.widths[:-1]
        self._z = [_with_ones((rows, w + 1)) for w in hidden]
        self._a = [_with_ones((rows, w + 1)) for w in hidden]
        self._delta = [_mapped((rows, w + 1)) for w in hidden]
        self._out = _mapped((rows, self.widths[-1]))
        # copies of batches with a column of ones, per input width: networks
        # that share these arrays can differ in it
        self._input: dict[int, np.ndarray] = {}
        self._views: dict[int, _Views] = {}

    def views(self, n: int) -> _Views:
        """The views for n rows; n must not exceed ``rows``."""
        views = self._views.get(n)
        if views is None:
            padded = padded_rows(n)
            hidden = [
                _Hidden(z[:padded, :-1], z[:padded], a[:padded], z[:n, :-1], a[:n], z[:n],
                        d[:n], d[:n, :-1])
                for z, a, d in zip(self._z, self._a, self._delta)
            ]
            views = self._views[n] = _Views(
                hidden, self._out[:padded], self._out[:n],
                [h.input for h in hidden], [h.preact for h in hidden],
            )
        return views

    def take(self, n: int) -> tuple[int, _Views]:
        """The views for a forward on n rows and the generation it starts."""
        if n > self.rows:
            self._allocate(padded_rows(n))
        self.generation += 1
        return self.generation, self.views(n)

    def padded_input(self, n: int, width: int) -> np.ndarray:
        """Padded rows of ``width`` columns and a column of ones to copy an
        n-row batch into; n must not exceed ``rows``."""
        rows = self._input.get(width)
        if rows is None:
            rows = self._input[width] = _with_ones((self.rows, width + 1))
        return rows[:padded_rows(n)]

    def __reduce__(self):
        # copy.deepcopy and pickle start over with empty arrays: copied
        # views would no longer alias the arrays they view
        return _LayerArrays, (self.widths,)


class DenseNet:
    """Feedforward stack of dense layers; the output layer is always linear.

    The parameters are copied into one buffer, ``flat``, and the network's
    layers hold views of it (the given ``Layer`` objects are left alone).
    ``version`` counts in-place parameter updates so that a forward cache can
    be recognised as stale by :func:`backward` and :func:`input_gradient`.
    The layers' working arrays are reused from forward to forward and shared
    with :meth:`copy`, so a cache also goes stale at the next forward of this
    network or of a copy.
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
        arrays = [a for l in layers for a in (l.weights, l.biases)]
        self.flat = FlatArrays([a.shape for a in arrays])
        parts = self.flat.parts()
        for part, a in zip(parts, arrays):
            part[...] = a
        self.layers = [
            Layer(w, b, l.activation, l.slope) for l, w, b in zip(layers, parts[::2], parts[1::2])
        ]
        # per layer, its weights with its biases as one more row: [W; b]
        self._affine = _affine_views(self.flat)
        self.version = 0
        self._arrays = _LayerArrays([l.weights.shape[1] for l in layers])

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
        """Live parameter arrays, ordered [W0, b0, W1, b1, ...]: views of
        ``flat``."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.biases)
        return out

    def num_parameters(self) -> int:
        return self.flat.size

    def copy(self) -> "DenseNet":
        """Same parameters in a buffer of its own; the working arrays are
        shared, as a target network and its online network never hold a
        cache across each other's forward."""
        return _sharing(self.layers, self._arrays)

    def __reduce__(self):
        # copy.deepcopy and pickle rebuild the buffer, so the copied layers
        # view it again; networks that shared working arrays share the copy
        return _sharing, (self.layers, self._arrays)

    def mark_updated(self):
        self.version += 1


def _sharing(layers: list[Layer], arrays: _LayerArrays) -> DenseNet:
    """A network of these layers' parameters that works in ``arrays``."""
    net = DenseNet(layers)
    net._arrays = arrays
    return net


@dataclass
class ForwardCache:
    """Intermediate activations retained for one backward pass.

    Every entry but the output is a view of the network's reusable arrays,
    valid until the next forward of the network or of a copy sharing them
    (``generation`` tells).
    """

    net_id: int
    version: int
    generation: int
    inputs: list  # input to each layer and a column of ones; inputs[0] holds the batch
    preacts: list  # pre-activation z for each layer


def forward(net: DenseNet, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Evaluate the network on a ``(batch, input_dim)`` matrix.

    A row's output bits depend on the row alone, not on the batch around
    it. The output is a new array; the hidden layers are computed in the
    network's reusable arrays, so the returned cache serves backward passes
    only until the next forward of this network or of a copy of it.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.input_dim:
        raise ValueError(
            f"batch shape {batch.shape} incompatible with input_dim {net.input_dim}"
        )
    n = batch.shape[0]
    arrays = net._arrays
    generation, views = arrays.take(n)
    # each layer is one GEMM, ``[a, 1] @ [W; b]``, on the rows rounded up to
    # ROW_QUANTUM: with the BLAS kernel's row blocking every row then gets
    # the bits it gets alone or in any batch (a 1-row product takes the GEMV
    # path, other row counts the kernel's edge paths). The batch is copied
    # next to a column of ones, C-contiguous, and followed by zeroed padding
    # rows
    x = arrays.padded_input(n, batch.shape[1])
    x[:n, :-1] = batch
    x[n:, :-1] = 0.0
    inputs = [x[:n], *views.inputs]
    for affine, layer, h in zip(net._affine, net.layers, views.hidden):
        np.matmul(x, affine, out=h.gemm)
        _activate(h.z, layer.activation, layer.slope, h.a)
        x = h.a
    np.matmul(x, net._affine[-1], out=views.gemm)
    out = views.out.copy()
    # the sum of finite entries is finite unless it overflows, so the
    # elementwise test runs only then (np.add.reduce is out.sum() without
    # its Python-level dispatch)
    if not math.isfinite(np.add.reduce(out, axis=None)) and not np.isfinite(out).all():
        widths = "->".join(str(w) for w in (net.input_dim, *arrays.widths))
        raise FloatingPointError(
            f"non-finite values in the output of a {widths} network on {n} rows"
        )
    return out, ForwardCache(id(net), net.version, generation, inputs, [*views.preacts, out])


def _layer_deltas(
    net: DenseNet, cache: ForwardCache, upstream: np.ndarray, input_grads: bool = True
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Backpropagate `upstream` through the cached forward pass.

    Returns ``(dz, input_grads)``: dz[i] is the gradient with respect to
    layer i's pre-activation, input_grads the gradient with respect to the
    batch, or None, and its GEMM skipped, when ``input_grads`` is false. A
    hidden layer's dz lives in the network's reusable delta array.
    """
    if cache.net_id != id(net):
        raise ValueError("cache does not belong to this network")
    if cache.version != net.version:
        raise ValueError("stale cache: network parameters were updated after forward")
    if cache.generation != net._arrays.generation:
        raise ValueError("stale cache: a later forward reused the network's arrays")
    # the output layer's dz: contiguous, as the GEMMs on it must take the
    # kernels a fresh array takes
    upstream = np.ascontiguousarray(upstream, dtype=np.float64)
    n = cache.inputs[0].shape[0]
    if upstream.shape != (n, net.output_dim):
        raise ValueError(f"upstream shape {upstream.shape}, expected {(n, net.output_dim)}")

    layers, hidden = net.layers, net._arrays.views(n).hidden
    dz = upstream
    dzs = [*(h.dz for h in hidden), upstream]
    for i in range(len(hidden) - 1, -1, -1):
        h, layer = hidden[i], layers[i]
        np.matmul(dz, _transposed(layers[i + 1].weights), out=h.dz)
        # on the whole rows, the extra column included: contiguous
        _scale_by_activation_grad(h.delta, h.z_rows, layer.activation, layer.slope)
        dz = h.dz
    return dzs, (dz @ _transposed(layers[0].weights) if input_grads else None)


def _transposed(weights: np.ndarray) -> np.ndarray:
    """``weights.T`` in C order: with a batch of more than a few rows, its
    copy and a GEMM on it take less time than a GEMM on the transposed view."""
    return np.ascontiguousarray(weights.T)


def backward(
    net: DenseNet,
    cache: ForwardCache,
    upstream: np.ndarray,
    out: FlatArrays | None = None,
    input_grads: bool = True,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Exact gradients of ``sum(upstream * outputs)``.

    Returns ``(param_grads, input_grads)`` where param_grads matches the
    ordering of ``net.parameters()`` and input_grads has the batch's shape;
    a caller that discards the input gradients passes ``input_grads=False``
    and gets None in their place, without their GEMM. The parameter
    gradients are views of one buffer laid out like ``net.flat``: ``out`` if
    given, else a new one. The cache must come from a :func:`forward` call
    on this exact network with no parameter updates in between.
    """
    dzs, input_grads = _layer_deltas(net, cache, upstream, input_grads)
    if out is None:
        out = np.empty_like(net.flat)
    elif getattr(out, "shapes", None) != net.flat.shapes:
        raise ValueError(f"gradient buffer is not laid out as {net.flat.shapes}")
    # a layer's inputs carry a column of ones, so one GEMM gives its weight
    # gradients and, in the last row, its bias gradients
    for a, dz, affine in zip(cache.inputs, dzs, _affine_views(out)):
        np.matmul(a.T, dz, out=affine)
    return out.parts(), input_grads


def input_gradient(net: DenseNet, cache: ForwardCache, upstream: np.ndarray) -> np.ndarray:
    """``backward(net, cache, upstream)[1]`` without the parameter gradients.

    For callers that only need the gradient with respect to the batch, such
    as the actor's value gradient.
    """
    return _layer_deltas(net, cache, upstream)[1]


@dataclass
class AdamState:
    """Adam accumulators for a fixed list of parameter arrays.

    The moments are laid out like the parameters: an agent's hold one
    buffer per network, views of which name them per parameter array in a
    checkpoint. ``scratch`` holds a step's temporaries, two arrays per
    moment, made at the first step.
    """

    m: list
    v: list
    t: int
    alpha: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scratch: list = field(default_factory=list, init=False, repr=False, compare=False)

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
    if len(state.scratch) != len(state.m):
        state.scratch = [(np.empty(m.shape), np.empty(m.shape)) for m in state.m]
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p, g, m, v, (s1, s2) in zip(params, grads, state.m, state.v, state.scratch):
        p, g, m, v = np.asarray(p), np.asarray(g), np.asarray(m), np.asarray(v)
        # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g**2, then
        # p -= alpha * (m / bc1) / (sqrt(v / bc2) + eps), in this order
        m *= b1
        np.multiply(g, 1.0 - b1, out=s1)
        m += s1
        v *= b2
        np.square(g, out=s2)
        s2 *= 1.0 - b2
        v += s2
        np.divide(m, bc1, out=s1)
        s1 *= state.alpha
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += state.eps
        s1 /= s2
        p -= s1


def global_grad_norm(grads: list[np.ndarray]) -> float:
    """L2 norm over all arrays, from one sum of squares per array in order.
    A flat buffer counts as the arrays it holds, so a gradient has the same
    norm, to the bit, as one buffer or as its per-parameter arrays."""
    sums = []
    for g in grads:
        squares = np.square(np.asarray(g))
        shapes = getattr(g, "shapes", None)
        arrays = [squares] if shapes is None else _views(squares, shapes)
        # np.sum's own reduction, without its Python-level dispatch
        sums += [float(np.add.reduce(a, axis=None)) for a in arrays]
    return math.sqrt(sum(sums))


def clip_grad_norm(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    """Rescale `grads` so the global L2 norm is at most `max_norm`.

    Direction-preserving: either the arrays are returned untouched or every
    entry is multiplied by the same factor, making the norm exactly max_norm.
    """
    if max_norm <= 0.0:
        raise ValueError("max_norm must be positive")
    norm = global_grad_norm(grads)
    # the squares of finite entries sum to a finite total unless it
    # overflows, so the elementwise test runs only then
    if not math.isfinite(norm) and not all(np.isfinite(g).all() for g in grads):
        raise ValueError("non-finite gradient entries")
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
        t = np.asarray(t)
        t *= 1.0 - tau
        t += tau * np.asarray(o)
