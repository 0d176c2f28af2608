import copy
import math
import pickle
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamdp import harness, nncore
from pamdp.envs import make_env
from pamdp.nncore import (
    AdamState,
    DenseNet,
    FlatArrays,
    ForwardCache,
    Layer,
    ROW_QUANTUM,
    adam_step,
    backward,
    clip_grad_norm,
    forward,
    global_grad_norm,
    he_init,
    input_gradient,
    padded_rows,
    polyak_update,
)
from conftest import adam_step_net, fd_input_grads, fd_param_grads, make_safe_net, relative_error

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestHeInit:
    def test_sample_std_matches_fan_in(self):
        rng = np.random.default_rng(7)
        draws = he_init(2, (1000, 1000), rng)
        assert abs(draws.std() - 1.0) < 0.01  # sqrt(2/2) = 1

    def test_sample_mean_is_zero(self):
        rng = np.random.default_rng(8)
        draws = he_init(8, (1000, 1000), rng)
        sigma = math.sqrt(2.0 / 8)
        assert abs(draws.mean()) < 3 * sigma / math.sqrt(draws.size)

    def test_same_seed_bit_identical(self):
        a = he_init(4, (5, 3), np.random.default_rng(42))
        b = he_init(4, (5, 3), np.random.default_rng(42))
        assert (a == b).all()

    def test_zero_fan_in_rejected(self):
        with pytest.raises(ValueError):
            he_init(0, (2, 2), np.random.default_rng(0))


def linear_net(w, b):
    return DenseNet([Layer(np.array(w, dtype=float), np.array(b, dtype=float))])


class TestForward:
    def test_single_affine_layer(self):
        net = linear_net([[2.0]], [1.0])
        out, _ = forward(net, np.array([[3.0]]))
        assert out[0, 0] == 7.0

    def test_relu_layer(self):
        net = DenseNet(
            [
                Layer(np.eye(2), np.zeros(2), activation="relu"),
                Layer(np.eye(2), np.zeros(2)),
            ]
        )
        out, _ = forward(net, np.array([[-1.0, 2.0]]))
        assert out.tolist() == [[0.0, 2.0]]

    def test_leaky_relu_slope(self):
        net = DenseNet(
            [
                Layer(np.eye(1), np.zeros(1), activation="leaky_relu", slope=0.01),
                Layer(np.eye(1), np.zeros(1)),
            ]
        )
        out, _ = forward(net, np.array([[-1.0]]))
        assert out[0, 0] == -0.01

    def test_forward_is_pure(self):
        net, batch = make_safe_net(4, (8,), 3, seed=0)
        a, _ = forward(net, batch)
        b, _ = forward(net, batch)
        assert (a == b).all()

    def test_dimension_mismatch_rejected(self):
        net = linear_net([[1.0]], [0.0])
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 3)))

    def test_final_layer_must_be_linear(self):
        with pytest.raises(ValueError):
            DenseNet([Layer(np.eye(1), np.zeros(1), activation="relu")])

    def test_mismatched_chain_rejected(self):
        with pytest.raises(ValueError):
            DenseNet([Layer(np.ones((2, 3)), np.zeros(3)), Layer(np.ones((4, 1)), np.zeros(1))])


def training_shapes() -> list[tuple[int, ...]]:
    """Layer widths, input first, of every network the agents of all four
    algorithms build for the bandit and the desk Platform configs."""
    shapes = set()
    for config in ("bandit_oracle", "platform_desk"):
        cfg = harness.load_config(str(CONFIGS / f"{config}.conf"))
        spec = make_env(cfg.env, cfg.env_overrides).spec
        for algorithm in harness.ALGORITHMS:
            agent = harness.build_agent(
                replace(cfg, algorithm=algorithm), spec, np.random.default_rng(0)
            )
            for net in [*agent.qf.nets, agent.actor.net]:
                shapes.add((net.input_dim, *(l.weights.shape[1] for l in net.layers)))
    return sorted(shapes)


INVARIANCE_SHAPES = training_shapes()


def shape_id(widths):
    return "-".join(map(str, widths))


def net_of(widths, rng, activation="relu"):
    return DenseNet.create(widths[0], widths[1:-1], widths[-1], rng, activation)


class TestBatchInvariance:
    """A row's output bits depend on the row alone: not on the batch size,
    its position in the batch, or the memory layout of the batch."""

    def test_shapes_include_every_training_network(self):
        # the joint/multipass Q-net, the separate Q-nets, the PA-DDPG critic
        # and both actors on Platform; the bandit's Q-net and separate nets
        for widths in [(12, 128, 3), (10, 128, 1), (15, 128, 1), (9, 128, 3),
                       (9, 128, 6), (3, 64, 2), (2, 64, 1)]:
            assert widths in INVARIANCE_SHAPES

    @pytest.mark.parametrize("widths", INVARIANCE_SHAPES, ids=shape_id)
    def test_row_alone_equals_row_in_batch(self, widths):
        rng = np.random.default_rng(11)
        net = net_of(widths, rng)
        rows = rng.standard_normal((384, widths[0]))
        alone = np.vstack([forward(net, row[None, :])[0] for row in rows])
        for b in (3, 128, 384):
            batched, _ = forward(net, rows[:b])
            assert np.array_equal(batched, alone[:b]), f"batch of {b}"

    @pytest.mark.parametrize("widths", INVARIANCE_SHAPES, ids=shape_id)
    def test_every_row_count_around_the_quantum(self, widths):
        """Row counts 1 to 2 * ROW_QUANTUM + 1, at offsets 0 and 1 of a
        larger array: padded or not, each row gets the bits of its own
        1-row forward."""
        rng = np.random.default_rng(14)
        net = net_of(widths, rng)
        most = 2 * ROW_QUANTUM + 1
        rows = rng.standard_normal((most + 1, widths[0]))
        alone = np.vstack([forward(net, row[None, :])[0] for row in rows])
        for offset in (0, 1):
            for n in range(1, most + 1):
                batched, _ = forward(net, rows[offset:offset + n])
                assert np.array_equal(batched, alone[offset:offset + n]), (
                    f"{n} rows at offset {offset}")

    @pytest.mark.parametrize("widths", INVARIANCE_SHAPES, ids=shape_id)
    def test_layout_does_not_change_bits(self, widths):
        rng = np.random.default_rng(12)
        net = net_of(widths, rng)
        fan_in = widths[0]
        wide = rng.standard_normal((384, 2 * fan_in))
        for b in (3, 128, 384):
            strided = wide[:b, ::2]
            fortran = np.asfortranarray(wide[:b, :fan_in])
            for batch in (strided, fortran):
                expected, _ = forward(net, np.ascontiguousarray(batch))
                assert np.array_equal(forward(net, batch)[0], expected), f"batch of {b}"


class TestBackward:
    def test_linear_derivatives(self):
        net = linear_net([[2.0]], [1.0])
        x = np.array([[3.0]])
        _, cache = forward(net, x)
        grads, input_grads = backward(net, cache, np.ones((1, 1)))
        assert input_grads[0, 0] == 2.0  # dy/dx = w
        assert grads[0][0, 0] == 3.0  # dy/dw = x
        assert grads[1][0] == 1.0  # dy/db = 1

    def test_zero_upstream_zero_grads(self):
        net, batch = make_safe_net(3, (5,), 2, seed=1)
        _, cache = forward(net, batch)
        grads, input_grads = backward(net, cache, np.zeros((batch.shape[0], 2)))
        assert (input_grads == 0).all()
        assert all((g == 0).all() for g in grads)

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu"])
    def test_matches_finite_differences(self, activation):
        net, batch = make_safe_net(4, (6, 5), 3, seed=2, activation=activation)
        upstream = np.random.default_rng(3).standard_normal((batch.shape[0], 3))
        _, cache = forward(net, batch)
        grads, input_grads = backward(net, cache, upstream)
        input_only = input_gradient(net, cache, upstream)
        fd_inputs = fd_input_grads(net, batch, upstream)
        assert relative_error(input_grads, fd_inputs) < 1e-6
        assert relative_error(input_only, fd_inputs) < 1e-6
        assert np.array_equal(input_only, input_grads)
        for g, g_fd in zip(grads, fd_param_grads(net, batch, upstream)):
            assert relative_error(g, g_fd) < 1e-6

    def test_parameter_gradients_alone(self):
        """``input_grads=False`` skips the input gradient and leaves the
        parameter gradients' bits as they are."""
        net, batch = make_safe_net(4, (6, 5), 3, seed=6)
        upstream = np.random.default_rng(7).standard_normal((batch.shape[0], 3))
        _, cache = forward(net, batch)
        grads, _ = backward(net, cache, upstream)
        alone, input_grads = backward(net, cache, upstream, input_grads=False)
        assert input_grads is None
        assert all(np.array_equal(g, a) for g, a in zip(grads, alone))

    def test_mismatched_cache_rejected(self):
        net_a, batch = make_safe_net(3, (4,), 2, seed=4)
        net_b = net_a.copy()
        _, cache = forward(net_a, batch)
        for grad_fn in (backward, input_gradient):
            with pytest.raises(ValueError, match="belong"):
                grad_fn(net_b, cache, np.ones((batch.shape[0], 2)))

    def test_stale_cache_rejected(self):
        net, batch = make_safe_net(3, (4,), 2, seed=5)
        _, cache = forward(net, batch)
        state = AdamState.for_params([net.flat], alpha=0.01)
        grads = [np.ones_like(p) for p in net.parameters()]
        adam_step_net(net, grads, state)
        for grad_fn in (backward, input_gradient):
            with pytest.raises(ValueError, match="stale"):
                grad_fn(net, cache, np.ones((batch.shape[0], 2)))


def fresh_copy(net):
    """The same parameters in a network with working arrays of its own."""
    return DenseNet(
        [Layer(l.weights.copy(), l.biases.copy(), l.activation, l.slope) for l in net.layers]
    )


def allocating_forward(net, batch):
    """Reference: the forward pass that allocated every layer's arrays anew,
    one GEMM per layer, ``[a, 1] @ [W; b]``, on the batch padded with zero
    rows to a multiple of ROW_QUANTUM."""
    batch = np.ascontiguousarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.input_dim:
        raise ValueError(f"batch shape {batch.shape} incompatible with input_dim {net.input_dim}")
    n = batch.shape[0]
    a = np.zeros((padded_rows(n), net.input_dim))
    a[:n] = batch
    inputs, preacts = [], []
    for layer in net.layers:
        a = np.hstack([a, np.ones((a.shape[0], 1))])
        inputs.append(a[:n])
        z = a @ np.vstack([layer.weights, layer.biases])
        preacts.append(z[:n])
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        elif layer.activation == "leaky_relu":
            a = np.where(z > 0.0, z, layer.slope * z)
        else:
            a = z
    a = a[:n]
    if not np.isfinite(a).all():
        raise FloatingPointError("non-finite values in network output")
    return a, ForwardCache(id(net), net.version, None, inputs, preacts)


def allocating_layer_deltas(net, cache, upstream, input_grads=True):
    """Reference: backpropagation through fresh activation-gradient arrays."""
    if cache.net_id != id(net):
        raise ValueError("cache does not belong to this network")
    if cache.version != net.version:
        raise ValueError("stale cache: network parameters were updated after forward")
    upstream = np.asarray(upstream, dtype=np.float64)
    expected = (cache.inputs[0].shape[0], net.output_dim)
    if upstream.shape != expected:
        raise ValueError(f"upstream shape {upstream.shape}, expected {expected}")
    dzs = [None] * len(net.layers)
    delta = upstream
    for i in reversed(range(len(net.layers))):
        layer, z = net.layers[i], cache.preacts[i]
        if layer.activation == "relu":
            dzs[i] = (z > 0.0).astype(np.float64)
        elif layer.activation == "leaky_relu":
            dzs[i] = np.where(z > 0.0, 1.0, layer.slope)
        else:
            dzs[i] = np.ones_like(z)
        dzs[i] *= delta
        if i == 0 and not input_grads:
            return dzs, None
        # the transposed weights in C order, as nncore's backward GEMMs
        # take them
        delta = dzs[i] @ np.ascontiguousarray(layer.weights.T)
    return dzs, delta


def results_of(net, batch, upstream):
    """Everything a caller receives from forward, backward and
    input_gradient on one batch."""
    out, cache = forward(net, batch)
    grads, input_grads = backward(net, cache, upstream)
    return [out, input_grads, input_gradient(net, cache, upstream), *grads], cache


class TestReusedArrays:
    """Hidden layers are computed in arrays that a network reuses and shares
    with its copies; everything returned to a caller is a new array."""

    @pytest.mark.parametrize("later", ["same", "copy"])
    def test_later_forward_makes_cache_stale(self, later):
        net, batch = make_safe_net(3, (4, 5), 2, seed=6)
        _, cache = forward(net, batch)
        # a network with arrays of its own leaves the cache usable
        forward(fresh_copy(net), batch)
        backward(net, cache, np.ones((batch.shape[0], 2)))
        forward(net if later == "same" else net.copy(), batch[:1])
        for grad_fn in (backward, input_gradient):
            with pytest.raises(ValueError, match="stale"):
                grad_fn(net, cache, np.ones((batch.shape[0], 2)))

    def test_deep_copy_computes_like_the_original(self):
        net, batch = make_safe_net(3, (4, 5), 2, seed=8)
        forward(net, batch)
        twin = copy.deepcopy(net)
        upstream = np.ones((batch.shape[0], 2))
        for got, expected in zip(results_of(twin, batch, upstream)[0],
                                 results_of(net, batch, upstream)[0]):
            assert np.array_equal(got, expected)

    def test_successive_results_share_no_memory(self):
        net, batch = make_safe_net(3, (4, 5), 2, seed=7)
        upstream = np.ones((batch.shape[0], 2))
        first, _ = results_of(net, batch, upstream)
        second, cache = results_of(net, batch, upstream)
        reused = cache.inputs[1:] + cache.preacts[:-1]
        for a in first:
            for b in second + reused:
                assert not np.shares_memory(a, b)
        for i, a in enumerate(second):
            for b in second[i + 1:] + reused:
                assert not np.shares_memory(a, b)

    def test_padding_rows_do_not_leak(self):
        """Non-finite rows left in the reused arrays by an earlier forward
        become padding rows of a later, shorter one: nothing of them
        reaches its results, and no operation on them raises."""
        rng = np.random.default_rng(15)
        net = DenseNet.create(5, (8, 6), 2, rng, "leaky_relu")
        n = 2 * ROW_QUANTUM + 1
        assert n % ROW_QUANTUM
        for rows in (n + 2, padded_rows(n)):  # padded by forward, and not
            poisoned = rng.standard_normal((rows, 5))
            poisoned[n:] = [np.inf, np.nan, -np.inf, np.nan, np.inf]
            with pytest.raises(FloatingPointError, match=f"on {rows} rows"):
                forward(net, poisoned)
        batch = rng.standard_normal((n, 5))
        upstream = rng.standard_normal((n, 2))
        with np.errstate(all="raise"):
            got, _ = results_of(net, batch, upstream)
        fresh, _ = results_of(fresh_copy(net), batch, upstream)
        assert all(np.array_equal(g, f) for g, f in zip(got, fresh))
        # the padding rows were zeroed, so every padded row computed is finite
        views = net._arrays.views(n)
        assert all(np.isfinite(a).all() for a in [views.gemm, *(h.z for h in views.hidden)])

    @pytest.mark.parametrize("activation", ["relu", "leaky_relu", "linear"])
    def test_row_counts_in_any_order_match_fresh_network(self, activation):
        rng = np.random.default_rng(13)
        net = DenseNet.create(12, (64, 32), 3, rng, activation)
        rows = rng.standard_normal((384, 12))
        for b in (3, 384, 128, 1):
            upstream = rng.standard_normal((b, 3))
            got, cache = results_of(net, rows[:b], upstream)
            fresh, _ = results_of(fresh_copy(net), rows[:b], upstream)
            assert all(np.array_equal(g, f) for g, f in zip(got, fresh)), f"batch of {b}"
            # and bit for bit what the allocating passes computed
            out, ref_cache = allocating_forward(net, rows[:b])
            dzs, input_grads = allocating_layer_deltas(net, ref_cache, upstream)
            grads = []
            for a, dz in zip(ref_cache.inputs, dzs):
                # the inputs carry a column of ones, which gives the biases'
                # gradients as the last row
                weights_and_biases = a.T @ dz
                grads += [weights_and_biases[:-1], weights_and_biases[-1]]
            reference = [out, input_grads, input_grads, *grads]
            assert all(np.array_equal(g, r) for g, r in zip(got, reference)), f"batch of {b}"
            assert all(np.array_equal(z, r) for z, r in zip(cache.preacts, ref_cache.preacts))


def address(a):
    return a.__array_interface__["data"][0]


def assert_back_to_back(arrays, buffer=None):
    """The arrays are C-contiguous and follow each other in memory; with a
    `buffer`, they are views filling it in order."""
    at = address(arrays[0] if buffer is None else buffer)
    for a in arrays:
        assert a.flags.c_contiguous and address(a) == at
        assert buffer is None or np.shares_memory(a, buffer)
        at += a.nbytes
    assert buffer is None or at == address(buffer) + buffer.nbytes


class TestFlatLayout:
    """A network's parameters, its gradients and its Adam moments each live
    in one buffer per network, as views shaped like the per-array ones."""

    def test_parameters_and_gradients_view_one_buffer(self):
        net, batch = make_safe_net(3, (4, 5), 2, seed=9)
        assert_back_to_back(net.parameters(), net.flat)
        assert net.flat.shapes == tuple(p.shape for p in net.parameters())
        assert net.num_parameters() == net.flat.size
        _, cache = forward(net, batch)
        upstream = np.ones((batch.shape[0], 2))
        grads, _ = backward(net, cache, upstream)
        assert_back_to_back(grads)
        assert not any(np.shares_memory(g, net.flat) for g in grads)
        buffer = np.empty_like(net.flat)
        into_buffer, _ = backward(net, cache, upstream, out=buffer)
        assert_back_to_back(into_buffer, buffer)
        assert all(np.array_equal(a, b) for a, b in zip(into_buffer, grads))
        for wrong in (np.empty(net.flat.size), np.empty_like(net.copy().flat)[:-1]):
            with pytest.raises(ValueError, match="laid out"):
                backward(net, cache, upstream, out=wrong)

    def test_writes_to_the_buffer_reach_the_layers(self):
        net, batch = make_safe_net(3, (4,), 2, seed=10)
        net.flat[:] = 0.0
        net.flat[-2:] = [1.5, -2.0]  # the output biases
        assert forward(net, batch)[0].tolist() == [[1.5, -2.0]] * batch.shape[0]

    def test_given_layers_are_left_alone(self):
        layers = [Layer(np.ones((2, 3)), np.zeros(3), "relu"), Layer(np.ones((3, 1)), np.zeros(1))]
        weights = layers[0].weights
        net = DenseNet(layers)
        assert layers[0].weights is weights and not np.shares_memory(weights, net.flat)

    def test_copy_owns_its_buffer(self):
        net, batch = make_safe_net(3, (4,), 2, seed=11)
        twin = net.copy()
        assert not np.shares_memory(twin.flat, net.flat)
        assert np.array_equal(twin.flat, net.flat) and twin.flat.shapes == net.flat.shapes
        assert_back_to_back(twin.parameters(), twin.flat)
        net.flat += 1.0
        assert not np.array_equal(twin.flat, net.flat)

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copies_keep_the_views_aliased(self, how):
        net, batch = make_safe_net(3, (4, 5), 2, seed=12)
        target = net.copy()
        copy_of = copy.deepcopy if how == "deepcopy" else lambda x: pickle.loads(pickle.dumps(x))
        twin, twin_target = copy_of([net, target])
        for original, copied in ((net, twin), (target, twin_target)):
            assert np.array_equal(copied.flat, original.flat)
            assert copied.flat.shapes == original.flat.shapes
            assert not np.shares_memory(copied.flat, original.flat)
            assert_back_to_back(copied.parameters(), copied.flat)
        # the copies share working arrays as the originals do
        assert twin._arrays is twin_target._arrays and twin._arrays is not net._arrays
        twin.flat[:] = 0.0
        assert (forward(twin, batch)[0] == 0.0).all()
        assert (forward(net, batch)[0] != 0.0).any()

    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle", "scaled"])
    def test_buffer_copies_keep_the_layout(self, how):
        flat = FlatArrays([(2, 3), (3,)])
        flat[:] = np.arange(9.0)
        twin = {"copy": flat.copy, "deepcopy": lambda: copy.deepcopy(flat),
                "pickle": lambda: pickle.loads(pickle.dumps(flat)),
                "scaled": lambda: flat * 1.0}[how]()
        assert type(twin) is FlatArrays and twin.shapes == ((2, 3), (3,))
        assert [p.tolist() for p in twin.parts()] == [[[0, 1, 2], [3, 4, 5]], [6, 7, 8]]
        assert flat[:3].shapes is None

    def test_adam_moments_are_laid_out_like_the_parameters(self):
        net, _ = make_safe_net(3, (4,), 2, seed=13)
        state = AdamState.for_params([net.flat], alpha=0.01)
        for moments in (state.m, state.v):
            (buffer,) = moments
            assert type(buffer) is FlatArrays and buffer.shapes == net.flat.shapes
            assert not np.shares_memory(buffer, net.flat) and not buffer.any()

    @pytest.mark.parametrize("max_norm", [1e9, 1.0])
    def test_flat_step_matches_per_array_step_to_the_bit(self, max_norm):
        """Three Adam steps, clips and Polyak averages over the buffers
        compute the bits of the same steps over the per-parameter arrays."""
        # a clip that summed the whole buffer at once would fail this test.
        # In this buffer the per-array sums of squares are 1 and exactly
        # 2**-50, whose sum is exact; one sum over the buffer adds 2**-54
        # squares to about 1 and loses some of them
        witness = FlatArrays([(1,), (16,)])
        witness[:] = [1.0] + [2.0**-27] * 16
        whole = math.sqrt(float(np.sum(np.square(np.asarray(witness)))))
        assert whole != global_grad_norm([witness]) == math.sqrt(1.0 + 2.0**-50)
        flat_clip = clip_grad_norm([witness], 0.5)[0].parts()
        assert all(np.array_equal(f, r)
                   for f, r in zip(flat_clip, reference_clip(witness.parts(), 0.5)))
        assert not np.array_equal(flat_clip[1], witness.parts()[1] * (0.5 / whole))

        net, batch = make_safe_net(3, (16, 8), 2, seed=16)
        upstream = np.random.default_rng(17).standard_normal((batch.shape[0], 2))
        target, twin, twin_target = net.copy(), net.copy(), net.copy()
        flat_state = AdamState.for_params([net.flat], alpha=0.01)
        array_state = AdamState.for_params(twin.parameters(), alpha=0.01)
        for step in range(3):
            _, cache = forward(net, batch)
            grads = np.empty_like(net.flat)
            backward(net, cache, upstream, out=grads)
            clipped = clip_grad_norm([grads], max_norm)
            assert (clipped[0] is grads) == (max_norm == 1e9)
            adam_step([net.flat], clipped, flat_state)
            net.mark_updated()
            polyak_update([target.flat], [net.flat], 0.1)

            _, cache = forward(twin, batch)
            per_array, _ = backward(twin, cache, upstream)
            adam_step(twin.parameters(), reference_clip(per_array, max_norm), array_state)
            twin.mark_updated()
            polyak_update(twin_target.parameters(), twin.parameters(), 0.1)
        assert np.array_equal(net.flat, twin.flat)
        assert np.array_equal(target.flat, twin_target.flat)
        assert all(np.array_equal(m, a)
                   for m, a in zip(flat_state.m[0].parts() + flat_state.v[0].parts(),
                                   array_state.m + array_state.v))


def reference_clip(grads, max_norm):
    """The per-array clip: one sum of squares per array, added in order."""
    norm = math.sqrt(sum(float(np.sum(np.square(g))) for g in grads))
    if norm <= max_norm:
        return list(grads)
    return [g * (max_norm / norm) for g in grads]


@pytest.mark.parametrize("config, episodes", [("bandit_oracle", 200), ("platform_desk", 60)])
@pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
def test_training_bytes_match_allocating_passes(tmp_path, monkeypatch, config, episodes,
                                                algorithm):
    """Training with the reused arrays writes the CSV that the allocating
    forward and backward write, on whatever machine both run. Platform
    updates start after about 40 episodes for the slower-filling
    algorithms."""
    cfg = replace(harness.load_config(str(CONFIGS / f"{config}.conf")),
                  algorithm=algorithm, episodes=episodes, seeds=(0,))
    reused = harness.train_seed(cfg, 0, str(tmp_path / "reused"))["csv"]
    assert any(r["q_loss"] != "nan" for r in harness.read_csv(reused)), "no update ran"

    calls = {"forward": 0, "deltas": 0}

    def counted_forward(net, batch):
        calls["forward"] += 1
        return allocating_forward(net, batch)

    def counted_deltas(net, cache, upstream, input_grads=True):
        calls["deltas"] += 1
        return allocating_layer_deltas(net, cache, upstream, input_grads)

    # every module that imported forward by name calls it through its own
    # global
    for module in list(sys.modules.values()):
        if module.__name__.startswith("pamdp") and getattr(module, "forward", None) is forward:
            monkeypatch.setattr(module, "forward", counted_forward)
    monkeypatch.setattr(nncore, "_layer_deltas", counted_deltas)
    allocating = harness.train_seed(cfg, 0, str(tmp_path / "allocating"))["csv"]
    assert calls["forward"] > 0 and calls["deltas"] > 0
    assert Path(allocating).read_bytes() == Path(reused).read_bytes()


def per_array(buffers):
    """The per-parameter arrays a list of buffers holds, in order."""
    return [a for b in buffers for a in b.parts()]


def per_array_adam_step(params, grads, state):
    """Reference: Adam over each parameter array in turn, with fresh
    temporaries."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p, g, m, v in zip(per_array(params), per_array(grads), per_array(state.m),
                          per_array(state.v)):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= state.alpha * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def per_array_clip(grads, max_norm):
    """Reference: the clip over the per-parameter arrays, written back into
    buffers."""
    out = [np.empty_like(g) for g in grads]
    for dst, src in zip(per_array(out), reference_clip(per_array(grads), max_norm)):
        dst[...] = src
    return out


def per_array_polyak(targets, onlines, tau):
    """Reference: Polyak averaging of each parameter array in turn."""
    for t, o in zip(per_array(targets), per_array(onlines)):
        t *= 1.0 - tau
        t += tau * o


PER_ARRAY_CASES = [
    *((config, episodes, algorithm, False)
      for config, episodes in (("bandit_oracle", 200), ("platform_desk", 60))
      for algorithm in harness.ALGORITHMS),
    ("platform_desk", 60, "pdqn-separate", True),
]


@pytest.mark.parametrize("config, episodes, algorithm, mixed_targets", PER_ARRAY_CASES)
def test_training_bytes_match_per_array_steps(tmp_path, monkeypatch, config, episodes,
                                              algorithm, mixed_targets):
    """Adam, clipping and Polyak averaging over one buffer per network write
    the training CSV and the checkpoint that the per-array steps write."""
    cfg = replace(harness.load_config(str(CONFIGS / f"{config}.conf")), algorithm=algorithm,
                  episodes=episodes, seeds=(0,), mixed_targets=mixed_targets)
    flat = harness.train_seed(cfg, 0, str(tmp_path / "flat"))
    assert any(r["q_loss"] != "nan" for r in harness.read_csv(flat["csv"])), "no update ran"

    calls = {}

    def counted(name, fn):
        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return call

    references = {"adam_step": per_array_adam_step, "clip_grad_norm": per_array_clip,
                  "polyak_update": per_array_polyak}
    for name, reference in references.items():
        original = getattr(nncore, name)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("pamdp") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, reference))
    arrays = harness.train_seed(cfg, 0, str(tmp_path / "arrays"))
    assert set(calls) == set(references)
    for kind in ("csv", "checkpoint"):
        assert Path(arrays[kind]).read_bytes() == Path(flat[kind]).read_bytes(), kind


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        params = [np.array([1.0, -2.0])]
        state = AdamState.for_params(params, alpha=0.1)
        adam_step(params, [np.zeros(2)], state)
        assert params[0].tolist() == [1.0, -2.0]
        assert state.t == 1

    def test_first_iterate_hand_computed(self):
        # m_hat = v_hat = 1 after one step on g=1, so p' = p - a / (1 + eps)
        params = [np.array([1.0])]
        state = AdamState.for_params(params, alpha=0.1)
        adam_step(params, [np.array([1.0])], state)
        expected = 1.0 - 0.1 / (1.0 + state.eps)
        assert abs(params[0][0] - expected) < 1e-15
        assert abs(params[0][0] - 0.9) < 1e-8

    def test_default_moment_constants(self):
        state = AdamState.for_params([np.zeros(1)], alpha=0.1)
        assert state.beta1 == 0.9
        assert state.beta2 == 0.999
        assert state.eps == 1e-8

    def test_shape_mismatch_rejected(self):
        params = [np.zeros(2)]
        state = AdamState.for_params(params, alpha=0.1)
        with pytest.raises(ValueError):
            adam_step(params, [np.zeros(3)], state)

    def test_t_increments_once_per_step(self):
        params = [np.zeros(2)]
        state = AdamState.for_params(params, alpha=0.1)
        for expected in (1, 2, 3):
            adam_step(params, [np.ones(2)], state)
            assert state.t == expected


class TestClipGradNorm:
    def test_below_threshold_unchanged(self):
        grads = [np.array([3.0, 4.0])]  # norm 5
        out = clip_grad_norm(grads, 10.0)
        assert out[0] is grads[0]

    def test_above_threshold_scaled(self):
        grads = [np.array([12.0, 16.0])]  # norm 20
        out = clip_grad_norm(grads, 10.0)
        assert np.allclose(out[0], [6.0, 8.0])
        assert abs(global_grad_norm(out) - 10.0) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            clip_grad_norm([np.array([np.nan])], 1.0)
        with pytest.raises(ValueError):
            clip_grad_norm([np.array([np.inf])], 1.0)

    def test_non_finite_entry_of_a_buffer_rejected(self):
        flat = FlatArrays([(2, 2), (2,)])
        flat[:] = 1.0
        flat[4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            clip_grad_norm([np.ones(3), flat], 1.0)

    def test_overflowing_norm_scales_to_zero(self):
        # finite entries whose squares overflow: the norm is inf, the scale 0
        with np.errstate(over="ignore"):
            out = clip_grad_norm([np.array([1e200, 1.0])], 1.0)
        assert out[0].tolist() == [0.0, 0.0]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8), st.floats(0.01, 100))
    @settings(max_examples=100)
    def test_never_increases_norm_and_preserves_direction(self, values, max_norm):
        g = [np.array(values)]
        out = clip_grad_norm(g, max_norm)
        before, after = global_grad_norm(g), global_grad_norm(out)
        assert after <= before + 1e-9
        assert after <= max_norm + 1e-9
        if before > 0:
            scale = after / before
            assert np.allclose(out[0], g[0] * scale)


class TestPolyak:
    def test_tau_one_hard_copy(self):
        target = [np.array([5.0, -1.0])]
        online = [np.array([1.0, 2.0])]
        polyak_update(target, online, 1.0)
        assert target[0].tolist() == [1.0, 2.0]

    def test_convex_combination(self):
        target = [np.zeros(1)]
        online = [np.ones(1)]
        polyak_update(target, online, 0.1)
        assert abs(target[0][0] - 0.1) < 1e-15

    @pytest.mark.parametrize("tau", [0.0, -0.5, 1.5])
    def test_tau_out_of_range_rejected(self, tau):
        with pytest.raises(ValueError):
            polyak_update([np.zeros(1)], [np.ones(1)], tau)

    @given(st.floats(0.001, 1.0), st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=100)
    def test_interpolates_between_endpoints(self, tau, t0, o0):
        target = [np.array([t0])]
        polyak_update(target, [np.array([o0])], tau)
        assert abs(target[0][0] - (tau * o0 + (1 - tau) * t0)) < 1e-9
