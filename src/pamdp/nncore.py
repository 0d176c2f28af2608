"""Dense-network numerics on float64 numpy arrays.

Hand-rolled forward and backward passes for small fully connected networks,
plus He initialization, Adam, global-norm gradient clipping and Polyak
averaging for target networks. Backward passes return exact analytic
gradients of ``sum(upstream * outputs)`` with respect to both parameters and
inputs; the test suite holds them against central finite differences. The
input gradients are what the actor updates consume, so they are first-class
outputs here rather than an afterthought: :func:`input_gradient` computes
them alone, without the parameter gradients, and only for the trailing
input columns a caller reads.

Everything operates on plain ``np.ndarray`` in float64. Layer weights have
shape ``(fan_in, fan_out)``, activations act row-wise on ``(batch, dim)``
matrices.

A forward pass computes each layer as one 2-D GEMM, ``np.matmul([a, 1],
[W; b], out=z)``, on the row count rounded up to ``ROW_QUANTUM``: each
layer's input carries a column of ones, so the GEMM adds the biases, and
the batch is followed by zeroed padding rows, whose results nobody reads.
``forward`` copies the batch into the network's padded input, unless the
caller wrote it there, into the rows :meth:`DenseNet.input_rows` gives.
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
inputs with their ones gives a layer's weight and bias gradients. Through
a layer of width 1, ``dz @ W.T`` is an ``(n, 1) @ (1, fan_in)`` product,
which numpy computes outside BLAS; padded with zeros to ``[dz, 0] @ [W.T;
0]`` it is a GEMM with the same bits, as each entry is its one product
plus ``0 * 0`` and numpy's own loop adds that product to a zero start
(:func:`_width_one_backprop`).

K networks of one layout whose parameters lie back to back at one stride
in a buffer run as one stack (:func:`stacked`): ``forward`` and
``input_gradient`` take a leading axis of K, and each layer is one
``np.matmul`` over ``(K, fan_in + 1, fan_out)`` strided views of the
buffer, with one activation and one gradient mask over ``(K, rows, width
+ 1)`` arrays. A stacked ``np.matmul`` makes one BLAS call per slice with
the strides of the 2-D call, so every slice gets the bits of its
network's own pass, as long as every operand slice is BLAS-able: one unit
stride and no stride 0. The stack's parameter views, working arrays and
input rows are; a broadcast operand, such as a stride-0 batch shared by
all K, would send the whole product through numpy's own loop, with other
bits and times. ``TestStackedPass`` in the test suite is the guard.

Forward and backward passes allocate nothing as large as a hidden layer:
each network keeps its layers' pre-activations and activations in arrays
it reuses from call to call (and shares with its copies and their stacks),
grown to the largest batch and stack seen. Allocated per call, a 384 x 128
float64 array of a multipass update lies above glibc's mmap threshold and
would be mapped, faulted in and unmapped on every update. A gradient pass,
:func:`backward` or :func:`input_gradient`, writes each hidden layer's
deltas over its cached activations once they have given the layer's
parameter gradients. So a forward cache serves one gradient pass, before
the next forward of the same network or of a copy, taking of its input
rows, or ``mark_updated`` of either; using it later raises. ``forward``
returns a new array.

A network's parameters ``[W0, b0, W1, b1, ...]`` live back to back in one
plain float64 array, ``DenseNet.flat``, laid out as ``DenseNet.layout``,
the tuple of their shapes; each layer's weights and biases are views of it.
:func:`backward` writes the parameter gradients into a new buffer of that
layout, or into ``out``, such as the network's reusable
:meth:`DenseNet.gradient_buffer`, which an agent uses up within its update.
A network's ``flat`` can also be a view of a larger buffer that several
networks share, each laid out in turn. An agent's Adam moments are buffers
of the layout they step. So :func:`adam_step`, :func:`clip_grad_norm` and
:func:`polyak_update` run once per buffer; as every operation is
elementwise, the bits are those of the per-array steps. The one sum, the
global gradient norm, still adds one sum of squares per parameter array,
in order, from the layouts it is given.
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
# the column block and the largest product (in multiply-adds) of the BLAS
# kernel's small-matrix path; see _input_columns
COL_QUANTUM = 8
SMALL_GEMM = 100**3

RELU = "relu"
LINEAR = "linear"
ACTIVATIONS = (RELU, LINEAR)


def he_init(fan_in: int, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Zero-mean normal draws with standard deviation sqrt(2 / fan_in)."""
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    return rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)


def _activate(z: np.ndarray, kind: str, out: np.ndarray):
    """Write act(z) into `out`."""
    if kind == RELU:
        np.maximum(z, 0.0, out=out)
    else:
        np.copyto(out, z)


def _scale_by_activation_grad(delta: np.ndarray, z: np.ndarray, kind: str):
    """In place: delta *= act'(z), with relu's subgradient 0 at exactly 0."""
    if kind == RELU:
        np.multiply(delta, z > 0.0, out=delta)


@dataclass
class Layer:
    """One affine-then-activation stage: ``act(x @ weights + biases)``."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str = LINEAR

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim < 2:
            raise ValueError("layer weights must be a 2-D matrix, or a stack of them")
        if self.biases.shape != self.weights.shape[:-2] + self.weights.shape[-1:]:
            raise ValueError(
                f"bias shape {self.biases.shape} does not match fan_out {self.weights.shape[-1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("layer parameters must be finite")


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of a 1-D array shaped like ``shapes``; of a (K, size)
    array, the K views of each, stacked (each slice's last axes contiguous)."""
    lead = flat.shape[:-1]
    return [flat[..., start:stop].reshape(*lead, *shape) for start, stop, shape in _spans(shapes)]


def _affine_views(flat: np.ndarray, layout) -> list[np.ndarray]:
    """Per layer, the (fan_in + 1, fan_out) view ``[W; b]`` of a buffer laid
    out as ``[W0, b0, W1, b1, ...]``: a layer's biases follow its weights.
    Of a (K, size) buffer, the (K, fan_in + 1, fan_out) views."""
    return _views(flat, tuple((w[0] + 1, w[1]) for w in layout[::2]))


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

    The pre-activations z and the activations a carry a column of ones, so
    that ``a @ [W; b]`` adds the next layer's biases inside its GEMM (every
    activation maps 1 to 1). Elementwise steps run on the whole rows,
    contiguous; the GEMMs write the first ``width`` columns. A gradient pass
    writes the layer's deltas over a's first n rows, once the GEMM that
    reads a has run.
    """

    gemm: np.ndarray  # padded rows of z without its ones: the GEMM output
    z: np.ndarray  # padded rows of z
    a: np.ndarray  # padded rows of a: the next GEMM's input
    z_rows: np.ndarray  # the first n rows of z
    a_rows: np.ndarray  # the first n rows of a
    a_dz: np.ndarray  # the same without the ones: the deltas' GEMM side


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


def _with_ones(shape: tuple[int, ...]) -> np.ndarray:
    """A :func:`_mapped` array whose last column is ones."""
    a = _mapped(shape)
    a[..., -1] = 1.0
    return a


class _LayerArrays:
    """Reusable per-layer arrays of a network, of its copies and of stacks
    of them.

    Each array has a leading axis of ``depth`` slices: a network works in
    the first slice, a stack of k networks (``lead = (k,)``) in the first k,
    each slice C-contiguous. So a stack's pass and its networks' own passes
    reuse one memory, as passes of one network do. The arrays hold up to
    ``rows`` rows, a multiple of ``ROW_QUANTUM``, and grow to the largest
    row count and depth seen; a call on n rows works in leading-row views,
    made once per lead and n. Every :meth:`input` (so every forward), every
    gradient pass and every ``mark_updated`` of a network working here
    bumps ``generation``, which outdates the caches of earlier forwards.
    The output layer keeps only its GEMM output here: what ``forward``
    returns is always a new array.
    """

    def __init__(self, widths: list[int]):
        self.widths = widths  # hidden widths, then the output width
        self.generation = 0
        self._allocate(0, 1)

    def _allocate(self, rows: int, depth: int):
        self.rows, self.depth = rows, depth
        hidden = self.widths[:-1]
        self._z = [_with_ones((depth, rows, w + 1)) for w in hidden]
        self._a = [_with_ones((depth, rows, w + 1)) for w in hidden]
        self._out = _mapped((depth, rows, self.widths[-1]))
        # batches with a column of ones, per input width: networks that
        # share these arrays can differ in it
        self._input: dict[int, np.ndarray] = {}
        self._inputs: dict[tuple, tuple] = {}
        self._views: dict[tuple, _Views] = {}
        self._pads: dict[int, tuple] = {}  # per fan_in, see width_one
        self._width_one: dict[tuple, tuple] = {}

    @staticmethod
    def _slices(a: np.ndarray, lead: tuple) -> np.ndarray:
        """The slices of ``a`` that a network (lead ``()``) or a stack of k
        (lead ``(k,)``) works in."""
        return a[:lead[0]] if lead else a[0]

    def views(self, n: int, lead: tuple = ()) -> _Views:
        """The views for n rows; n must not exceed ``rows``."""
        views = self._views.get((lead, n))
        if views is None:
            p, at = padded_rows(n), functools.partial(self._slices, lead=lead)
            hidden = [
                _Hidden(z[..., :p, :-1], z[..., :p, :], a[..., :p, :], z[..., :n, :],
                        a[..., :n, :], a[..., :n, :-1])
                for z, a in zip(map(at, self._z), map(at, self._a))
            ]
            out = at(self._out)
            views = self._views[lead, n] = _Views(
                hidden, out[..., :p, :], out[..., :n, :], [h.a_rows for h in hidden],
                [h.z_rows[..., :-1] for h in hidden],
            )
        return views

    def input(self, n: int, width: int, lead: tuple = ()) -> tuple:
        """Views of the padded input for n rows of ``width`` columns: padded,
        the first n with and without the ones, and the padding without them
        or None. Its rows are about to be overwritten: a new generation."""
        depth = lead[0] if lead else 1
        if n > self.rows or depth > self.depth:
            self._allocate(max(padded_rows(n), self.rows), max(depth, self.depth))
        self.generation += 1
        views = self._inputs.get((lead, n, width))
        if views is None:
            whole = self._input.get(width)
            if whole is None:
                whole = self._input[width] = _with_ones((self.depth, self.rows, width + 1))
            p = padded_rows(n)
            x = self._slices(whole, lead)[..., :p, :]
            views = self._inputs[lead, n, width] = (
                x, x[..., :n, :], x[..., :n, :-1], x[..., n:, :-1] if p > n else None
            )
        return views

    def width_one(self, n: int, fan_in: int, lead: tuple = ()) -> tuple:
        """Scratch for :func:`_width_one_backprop` through a width-1 layer
        of ``fan_in`` inputs: n rows of ``[dz, 0]``, the (2, fan_in) ``[W.T;
        0]``, and the column and the row of them it writes, made at first
        use with their zeros."""
        views = self._width_one.get((lead, n, fan_in))
        if views is None:
            pads = self._pads.get(fan_in)
            if pads is None:
                pads = self._pads[fan_in] = (np.zeros((self.depth, self.rows, 2)),
                                             np.zeros((self.depth, 2, fan_in)))
            dz, w = self._slices(pads[0], lead)[..., :n, :], self._slices(pads[1], lead)
            views = self._width_one[lead, n, fan_in] = (dz, w, dz[..., :1], w[..., :1, :])
        return views

    def __reduce__(self):
        # copy.deepcopy and pickle start over with empty arrays: copied
        # views would no longer alias the arrays they view
        return _LayerArrays, (self.widths,)


class DenseNet:
    """Feedforward stack of dense layers; the output layer is always linear.

    The parameters are copied into one buffer, ``flat``, laid out as
    ``layout``, and the network's layers hold views of it (the given
    ``Layer`` objects are left alone). ``flat`` is a new buffer, or the
    given view of a larger one that several networks share. The layers'
    working arrays, new or the given ``arrays`` of other networks, are
    reused from forward to forward and shared with :meth:`copy`, so a
    forward cache goes stale at its gradient pass, or at the next forward
    or :meth:`mark_updated` of this network or of one sharing them.

    Layers whose weights carry a leading axis of K, over a (K, size)
    ``flat``, make a stack of K networks of one ``layout`` (see
    :func:`stacked`): its passes take (K, n, input_dim) batches and run each
    layer as one stacked GEMM.
    """

    def __init__(self, layers: list[Layer], flat: np.ndarray | None = None,
                 arrays: "_LayerArrays | None" = None):
        if not layers:
            raise ValueError("a network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.weights.shape[-1] != b.weights.shape[-2]:
                raise ValueError(
                    f"layer dimensions do not chain: {a.weights.shape} -> {b.weights.shape}"
                )
        if layers[-1].activation != LINEAR:
            raise ValueError("final layer must be linear")
        lead = layers[0].weights.shape[:-2]
        params = [a for l in layers for a in (l.weights, l.biases)]
        self.layout = tuple(a.shape[len(lead):] for a in params)
        size = sum(math.prod(shape) for shape in self.layout)
        if flat is None:
            flat = np.empty((*lead, size))
        elif flat.shape != (*lead, size) or flat.dtype != np.float64:
            raise ValueError(f"parameter buffer of shape {flat.shape}, expected {(*lead, size)}")
        self.flat = flat
        parts = self.parts(flat)
        for part, a in zip(parts, params):
            part[...] = a
        self.layers = [
            Layer(w, b, l.activation) for l, w, b in zip(layers, parts[::2], parts[1::2])
        ]
        # per layer, its weights with its biases as one more row: [W; b]
        self._affine = _affine_views(flat, self.layout)
        self.input_dim = layers[0].weights.shape[-2]
        self.output_dim = layers[-1].weights.shape[-1]
        self.lead = lead  # () for a network, (K,) for a stack of K
        self._grad = None  # see gradient_buffer
        if arrays is None:
            arrays = _LayerArrays([l.weights.shape[-1] for l in layers])
        self._arrays = arrays

    @classmethod
    def create(
        cls,
        input_dim: int,
        hidden: tuple[int, ...],
        output_dim: int,
        rng: np.random.Generator,
    ) -> "DenseNet":
        """He-initialised weights, zero biases, ReLU hidden layers."""
        dims = (input_dim, *hidden, output_dim)
        layers = []
        for i in range(len(dims) - 1):
            fan_in, fan_out = dims[i], dims[i + 1]
            act = RELU if i < len(dims) - 2 else LINEAR
            layers.append(
                Layer(
                    weights=he_init(fan_in, (fan_in, fan_out), rng),
                    biases=np.zeros(fan_out),
                    activation=act,
                )
            )
        return cls(layers)

    def parts(self, buffer: np.ndarray) -> list[np.ndarray]:
        """Per parameter array, in order, its view of a buffer laid out as ``flat``."""
        return _views(buffer, self.layout)

    def gradient_buffer(self, buffer: np.ndarray | None = None) -> np.ndarray:
        """The network's reusable gradient buffer, laid out as ``flat``, with
        the views :func:`backward` writes through: ``buffer`` once given,
        such as a network's view of a buffer it shares, else one made at the
        first call."""
        if buffer is not None or self._grad is None:
            if buffer is None:
                buffer = np.empty(self.flat.shape)
            self._grad = (buffer, _affine_views(buffer, self.layout), self.parts(buffer))
        return self._grad[0]

    def input_rows(self, n: int) -> np.ndarray:
        """The first n rows of the padded input, without the ones: an n-row
        batch written here and passed as this very array to :func:`forward`
        is not copied. Taking them outdates the caches of earlier forwards."""
        return self._arrays.input(n, self.input_dim, self.lead)[2]

    def copy(self) -> "DenseNet":
        """Same parameters in a buffer of its own; the working arrays are
        shared, as a target network and its online network never hold a
        cache across each other's forward."""
        return DenseNet(self.layers, arrays=self._arrays)

    def __reduce__(self):
        # copy.deepcopy and pickle rebuild the buffer, so the copied layers
        # view it again; networks that shared working arrays share the copy
        return DenseNet, (self.layers, None, self._arrays)

    def mark_updated(self):
        """The parameters were written in place: a new generation of the
        working arrays, which outdates every earlier forward cache."""
        self._arrays.generation += 1


def stacked(net: DenseNet, flat: np.ndarray) -> DenseNet:
    """The K networks laid out as ``net`` whose parameters lie back to back in
    ``flat``, a (K, size) view of their buffer, as one stack that views it.

    The stack works in the first K slices of ``net``'s working arrays, so it
    shares them with every network working there. Its passes give each slice
    the bits of that network's own pass (see the module docstring).
    """
    parts = _views(flat, net.layout)
    layers = [Layer(w, b, l.activation) for l, w, b in zip(net.layers, parts[::2], parts[1::2])]
    return DenseNet(layers, flat, net._arrays)


@dataclass
class ForwardCache:
    """Intermediate activations retained for one gradient pass.

    Every entry but the output is a view of the network's reusable arrays,
    valid while they stay in the cache's ``generation`` (see ``DenseNet``),
    which its gradient pass ends, writing its deltas over them."""

    net_id: int
    generation: int
    inputs: list  # input to each layer and a column of ones; inputs[0] holds the batch
    preacts: list  # pre-activation z for each layer


def float_rows(a) -> np.ndarray:
    """``np.atleast_2d(np.asarray(a, dtype=np.float64))``, without
    ``atleast_2d``'s Python-level dispatch."""
    a = np.asarray(a, dtype=np.float64)
    return a if a.ndim > 1 else a.reshape(1, -1)


def forward(net: DenseNet, batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Evaluate the network on a ``(batch, input_dim)`` matrix, or a stack of
    K networks on a ``(K, batch, input_dim)`` array, slice k on network k.

    A row's output bits depend on the row alone, not on the batch around
    it, nor on the stack. The output is a new array; the hidden layers are
    computed in the network's reusable arrays, so the returned cache serves
    one gradient pass, made before the next forward of this network or of
    a copy of it.
    """
    batch = np.asarray(batch, dtype=np.float64)
    arrays, lead = net._arrays, net.lead
    if (batch.ndim != len(lead) + 2 or batch.shape[-1] != net.input_dim
            or lead and batch.shape[0] != lead[0]):
        raise ValueError(
            f"batch shape {batch.shape} incompatible with input_dim {net.input_dim}"
        )
    n = batch.shape[-2]
    x, first, rows, padding = arrays.input(n, net.input_dim, lead)
    generation, views = arrays.generation, arrays.views(n, lead)
    # each layer is one GEMM, ``[a, 1] @ [W; b]``, on the rows rounded up to
    # ROW_QUANTUM: with the BLAS kernel's row blocking every row then gets
    # the bits it gets alone or in any batch. The batch lies next to a column
    # of ones, C-contiguous, and is followed by zeroed padding rows
    if batch is not rows:
        rows[...] = batch
    if padding is not None:
        padding.fill(0.0)
    inputs = [first, *views.inputs]
    for affine, layer, h in zip(net._affine, net.layers, views.hidden):
        np.matmul(x, affine, out=h.gemm)
        _activate(h.z, layer.activation, h.a)
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
    return out, ForwardCache(id(net), generation, inputs, [*views.preacts, out])


def _backprop(
    net: DenseNet, cache: ForwardCache, upstream: np.ndarray, input_start: int | None,
    affine: list | None = None,
) -> np.ndarray | None:
    """Backpropagate `upstream` through the cached forward pass, spending it.

    Returns the gradient with respect to the batch's columns from
    ``input_start`` on, or None, and its GEMM skipped, when ``input_start``
    is None; writes the parameter gradients into ``affine``, per layer the
    ``[W; b]`` view of a gradient buffer, if given. Each hidden layer's
    deltas go over its cached input once its parameter gradients have read
    it, so the pass touches no array of its own."""
    if cache.net_id != id(net):
        raise ValueError("cache does not belong to this network")
    if cache.generation != net._arrays.generation:
        raise ValueError("stale cache: a later forward, update or gradient pass reused its arrays")
    # the output layer's dz: contiguous, as the GEMMs on it must take the
    # kernels a fresh array takes
    upstream = np.ascontiguousarray(upstream, dtype=np.float64)
    layers, arrays, dz = net.layers, net._arrays, upstream
    n = cache.inputs[0].shape[-2]
    if upstream.shape != (*net.lead, n, net.output_dim):
        raise ValueError(f"upstream shape {upstream.shape}, expected "
                         f"{(*net.lead, n, net.output_dim)}")

    hidden = arrays.views(n, net.lead).hidden
    for i in range(len(hidden) - 1, -1, -1):
        h, weights = hidden[i], layers[i + 1].weights
        # a layer's inputs carry a column of ones, so one GEMM gives its
        # weight gradients and, in the last row, its bias gradients
        if affine is not None:
            np.matmul(h.a_rows.T, dz, out=affine[i + 1])
        if weights.shape[-1] == 1:
            _width_one_backprop(dz, weights, arrays, h.a_dz)
        else:
            np.matmul(dz, _transposed(weights), out=h.a_dz)
        # on the whole rows, the ones included: contiguous. The column of
        # ones stays 1, as act'(1) is 1
        _scale_by_activation_grad(h.a_rows, h.z_rows, layers[i].activation)
        dz = h.a_dz
    if affine is not None:
        np.matmul(cache.inputs[0].T, dz, out=affine[0])
    arrays.generation += 1
    if input_start is None:
        return None
    return _input_columns(dz, layers[0].weights, input_start, arrays)


def _input_columns(dz, weights, start: int, arrays: _LayerArrays) -> np.ndarray:
    """Columns ``start:`` of ``dz @ weights.T``, with their bits in the whole
    product. OpenBLAS's SkylakeX kernel gives a column the bits of its block
    of ``COL_QUANTUM`` columns, counted from the first, as long as the
    product stays on the small-matrix path (``SMALL_GEMM``) and is no GEMV
    (one row or column). So the product starts at the block holding
    ``start`` where it keeps to those, else at column 0.
    ``TestInputColumns`` is the guard, as ``TestBatchInvariance`` is for
    ``ROW_QUANTUM``."""
    n, (fan_in, fan_out) = dz.shape[-2], weights.shape[-2:]
    first = start - start % COL_QUANTUM
    if n < 2 or fan_in - first < 2 or n * fan_in * fan_out > SMALL_GEMM:
        first = 0
    if first:
        weights = weights[..., first:, :]
    if fan_out == 1:
        product = _width_one_backprop(dz, weights, arrays)
    else:
        product = dz @ _transposed(weights)
    return product[..., start - first:] if start > first else product


def _width_one_backprop(dz, weights, arrays: _LayerArrays, out=None) -> np.ndarray:
    """``dz @ weights.T`` for a width-1 layer, written into ``out`` if
    given, as the GEMM ``[dz, 0] @ [W.T; 0]``: numpy's bits, an exactly-zero
    product +0 as in numpy's loop, in a fraction of that loop's time."""
    dz_pad, w_pad, dz_col, w_row = arrays.width_one(
        dz.shape[-2], weights.shape[-2], dz.shape[:-2])
    dz_col[...] = dz
    w_row[...] = weights.swapaxes(-1, -2)
    return np.matmul(dz_pad, w_pad, out=out)


def _transposed(weights: np.ndarray) -> np.ndarray:
    """The transpose of ``weights`` (of each slice of a stack) in C order:
    with a batch of more than a few rows, its copy and a GEMM on it take
    less time than a GEMM on the transposed view."""
    return np.ascontiguousarray(weights.swapaxes(-1, -2))


def backward(
    net: DenseNet,
    cache: ForwardCache,
    upstream: np.ndarray,
    out: np.ndarray | None = None,
    input_grads: bool = True,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Exact gradients of ``sum(upstream * outputs)`` for a network (a
    stack's passes are ``forward`` and ``input_gradient``).

    Returns ``(param_grads, input_grads)``: param_grads in the order of
    ``net.layout``, ``[W0, b0, W1, b1, ...]``, and input_grads in the
    batch's shape. A caller that discards the input gradients passes
    ``input_grads=False`` and gets None in their place, without their GEMM.
    The parameter gradients are views of one buffer laid out like
    ``net.flat``: ``out`` if given, such as the network's
    :meth:`~DenseNet.gradient_buffer`, else a new one. The cache must come
    from a :func:`forward` call on this exact network with no parameter
    update or other gradient pass in between: the pass spends it.
    """
    if net._grad is not None and out is net._grad[0]:
        _, affine, parts = net._grad
    else:
        if out is None:
            out = np.empty(net.flat.size)
        elif out.shape != net.flat.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(f"gradient buffer is not laid out as {net.layout}")
        affine, parts = _affine_views(out, net.layout), net.parts(out)
    return parts, _backprop(net, cache, upstream, 0 if input_grads else None, affine)


def input_gradient(
    net: DenseNet, cache: ForwardCache, upstream: np.ndarray, start: int = 0
) -> np.ndarray:
    """Columns ``start:`` of ``backward(net, cache, upstream)[1]``, their
    bits, without the parameter gradients or, where the bits allow, the
    earlier columns: for the actor's value gradient, which reads the
    action-parameter columns after the state. It spends the cache."""
    return _backprop(net, cache, upstream, start)


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
    def for_params(cls, params: list[np.ndarray], alpha: float) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0,
            alpha=alpha,
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


def global_grad_norm(grads: list[np.ndarray], layouts=None) -> float:
    """L2 norm over all arrays, from one sum of squares per array in order.
    ``layouts[i]``, if given, lays out the arrays ``grads[i]`` holds back to
    back (a network's ``layout``): each counts as one, to the bit."""
    total = 0.0
    for i, g in enumerate(grads):
        squares = np.square(g)
        # np.sum's own reduction, without its Python-level dispatch
        if layouts is None:
            total += float(np.add.reduce(squares, axis=None))
        else:
            for start, stop, _ in _spans(layouts[i]):
                total += float(np.add.reduce(squares[start:stop]))
    return math.sqrt(total)


def clip_grad_norm(grads: list[np.ndarray], max_norm: float, layouts=None) -> list[np.ndarray]:
    """Rescale `grads` so the global L2 norm is at most `max_norm`; the norm
    reads ``layouts`` as :func:`global_grad_norm` does.

    Direction-preserving: either the arrays are returned untouched or every
    entry is multiplied by the same factor, making the norm exactly max_norm.
    """
    if max_norm <= 0.0:
        raise ValueError("max_norm must be positive")
    norm = global_grad_norm(grads, layouts)
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
        t *= 1.0 - tau
        t += tau * o
