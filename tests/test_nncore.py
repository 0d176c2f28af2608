import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from pamdp import harness, nncore
from pamdp.agent import AgentConfig, PDQNAgent, make_agent
from pamdp.envs import make_env
from pamdp.qfunction import ActionSpaceSpec
from pamdp.nncore import (
    AdamState,
    DenseNet,
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
from conftest import (
    CONFIGS,
    adam_step_net,
    assert_back_to_back,
    assert_training_bytes_unchanged,
    fd_input_grads,
    fd_param_grads,
    make_safe_net,
    relative_error,
)


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


@pytest.mark.parametrize("a", [3.0, [1, 2], np.arange(6.0).reshape(2, 3), np.empty(0),
                               np.arange(10.0)[::3], np.empty((0, 2)), np.arange(3)])
def test_float_rows_is_atleast_2d(a):
    rows, reference = nncore.float_rows(a), np.atleast_2d(np.asarray(a, dtype=np.float64))
    assert rows.shape == reference.shape and rows.dtype == np.float64
    assert np.array_equal(rows, reference)
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.size:
        assert np.shares_memory(rows, a)  # a view, as atleast_2d's


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


def net_of(widths, rng):
    return DenseNet.create(widths[0], widths[1:-1], widths[-1], rng)


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

    def test_matches_finite_differences(self):
        net, batch = make_safe_net(4, (6, 5), 3, seed=2)
        upstream = np.random.default_rng(3).standard_normal((batch.shape[0], 3))
        _, cache = forward(net, batch)
        grads, input_grads = backward(net, cache, upstream)
        input_only = input_gradient(net, forward(net, batch)[1], upstream)
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
        _, cache = forward(net, batch)
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
        grads = [np.ones(shape) for shape in net.layout]
        adam_step_net(net, grads, state)
        for grad_fn in (backward, input_gradient):
            with pytest.raises(ValueError, match="stale"):
                grad_fn(net, cache, np.ones((batch.shape[0], 2)))

    @pytest.mark.parametrize("kind", ["backward", "parameters", "input", "stack"])
    def test_a_gradient_pass_spends_its_cache(self, kind):
        """A cache serves one gradient pass, which writes its deltas over
        the cached activations: a second pass on it raises."""
        net, batch = make_safe_net(3, (4, 5), 2, seed=10)
        upstream = np.ones((batch.shape[0], 2))
        grad_fn = {"backward": backward, "input": input_gradient, "stack": input_gradient,
                   "parameters": lambda *args: backward(*args, input_grads=False)}[kind]
        if kind == "stack":
            net = nncore.stacked(net, np.stack([net.flat, net.flat]))
            batch, upstream = np.stack([batch, batch]), np.stack([upstream, upstream])
        _, cache = forward(net, batch)
        grad_fn(net, cache, upstream)
        with pytest.raises(ValueError, match="stale"):
            grad_fn(net, cache, upstream)


class TestWidthOneLayers:
    """``dz @ W.T`` through a width-1 layer runs as a BLAS GEMM padded with
    zeros, with the bits of numpy's own product."""

    @pytest.mark.parametrize("n", [1, 3, 4, 16, 43, 128, 384])
    @pytest.mark.parametrize("fan_in", [1, 7, 64, 128])
    def test_padded_product_has_numpy_bits(self, n, fan_in):
        rng = np.random.default_rng(n * 1000 + fan_in)
        arrays = nncore._LayerArrays([fan_in, 1])
        arrays.input(n, 3)  # rows for n
        for scale in (1e-300, 1e-8, 1.0, 1e150, 1e300):
            dz = rng.standard_normal((n, 1)) * scale
            dz[::3] = 0.0  # zero upstream rows
            dz[1::5] = -0.0
            weights = rng.standard_normal((fan_in, 1))
            weights[::4] = -0.0  # signed zero weights: exactly-zero products
            weights[1::4] = 0.0
            with np.errstate(over="ignore", under="ignore"):
                expected = dz @ np.ascontiguousarray(weights.T)
                out = np.empty((n, fan_in + 1))[:, :-1]  # as a hidden layer's deltas
                got = nncore._width_one_backprop(dz, weights, arrays, out)
                fresh = nncore._width_one_backprop(dz, weights, arrays)
            assert got is out and got.tobytes() == expected.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("algorithm", ["paddpg", "pdqn-separate"])
    @pytest.mark.parametrize("hidden", [(8,), (6, 5), ()])
    def test_updates_make_no_inner_dimension_of_one(self, monkeypatch, algorithm, hidden):
        """PA-DDPG's critic and each separate Q-net end in one output."""
        space = ActionSpaceSpec(4, (1, 2, 1))
        agent = make_agent(algorithm, space, AgentConfig(hidden=hidden), np.random.default_rng(5))
        rng = np.random.default_rng(6)
        lo, hi = agent.bounds[:, 0], agent.bounds[:, 1]
        batch = (rng.normal(size=(6, 4)), np.array([0, 1, 2, 0, 1, 2]),
                 rng.uniform(lo, hi, (6, len(lo))), rng.normal(size=6), rng.normal(size=(6, 4)),
                 np.zeros(6, bool), np.full(6, np.nan))
        inner = []

        class LoggedMatmul:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, a, b, **kwargs):
                inner.append(a.shape[-1])
                return np.matmul(a, b, **kwargs)

        monkeypatch.setattr(nncore, "np", LoggedMatmul())
        agent.update(batch)
        assert inner and 1 not in inner


class TestInputColumns:
    """``input_gradient`` from a start column has the whole input gradient's
    bits. (rows, first width, input width, start): each Platform, bandit and
    chain value gradient, then each bound of ``_input_columns``, width 1."""

    @pytest.mark.parametrize("shape", [
        (384, 128, 12, 9), (128, 128, 12, 9), (128, 128, 10, 9), (128, 128, 15, 9),
        (64, 64, 3, 1), (32, 64, 3, 1), (32, 64, 2, 1), (32, 64, 5, 1), (64, 64, 5, 3),
        (384, 256, 12, 9), (512, 128, 20, 9), (1, 128, 10, 9), (32, 64, 9, 8), (6, 1, 10, 9),
    ], ids=lambda shape: "x".join(map(str, shape)))
    def test_columns_have_the_whole_products_bits(self, shape):
        rows, width, fan_in, start = shape
        rng = np.random.default_rng(rows * width + fan_in)
        for _ in range(20):
            net = DenseNet.create(fan_in, (width,), 3, rng)
            batch, upstream = rng.standard_normal((rows, fan_in)), rng.standard_normal((rows, 3))
            whole = backward(net, forward(net, batch)[1], upstream)[1][:, start:]
            part = input_gradient(net, forward(net, batch)[1], upstream, start)
            assert part.tobytes() == whole.tobytes()


class TestStackedPass:
    """Each slice of a stack's forward output and input-gradient columns has
    the bits of its network's own 2-D pass: a stacked ``np.matmul`` makes
    one BLAS call per slice, with the 2-D call's strides. The stacks lie at
    a uniform stride, at an offset, in one buffer; the row counts cross the
    padding quantum and the single-row and large-product paths."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 4), rows=st.sampled_from([*range(1, 10), 128, 384]),
           hidden=st.sampled_from([(), (1,), (7,), (64,), (128,), (16, 8), (64, 32)]),
           input_dim=st.integers(2, 15), data=st.data())
    def test_slices_have_their_networks_bits(self, k, rows, hidden, input_dim, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        nets = [DenseNet.create(input_dim, hidden, 1, rng) for _ in range(k)]
        for net in nets:
            net.flat += rng.uniform(-0.1, 0.1, net.flat.size)  # nonzero biases
        size, offset = nets[0].flat.size, data.draw(st.integers(0, 3), "offset")
        buffer = np.full(offset + k * size + 2, np.nan)
        buffer[offset:offset + k * size] = np.concatenate([net.flat for net in nets])
        stack = nncore.stacked(nets[0], buffer[offset:offset + k * size].reshape(k, size))
        start = data.draw(st.integers(0, input_dim - 1), "start")
        batch = rng.standard_normal((k, rows, input_dim))
        upstream = rng.standard_normal((k, rows, 1))

        out, cache = forward(stack, batch)
        columns = input_gradient(stack, cache, upstream, start)
        assert out.shape == (k, rows, 1) and columns.shape == (k, rows, input_dim - start)
        for net, x, up, got, got_columns in zip(nets, batch, upstream, out, columns):
            own, own_cache = forward(net, x)
            assert got.tobytes() == own.tobytes()
            assert got_columns.tobytes() == input_gradient(net, own_cache, up, start).tobytes()

    def test_stack_views_the_buffer(self):
        rng = np.random.default_rng(50)
        nets = [DenseNet.create(5, (8,), 1, rng) for _ in range(3)]
        buffer = np.concatenate([net.flat for net in nets])
        stack = nncore.stacked(nets[0], buffer.reshape(3, -1))
        assert stack.lead == (3,) and stack.layout == nets[0].layout
        assert stack._arrays is nets[0]._arrays
        for layer, (weights, biases) in zip(stack.layers, ((0, 1), (2, 3))):
            assert np.shares_memory(layer.weights, buffer)
            assert np.array_equal(layer.weights, [net.parts(net.flat)[weights] for net in nets])
            assert np.array_equal(layer.biases, [net.parts(net.flat)[biases] for net in nets])
        with pytest.raises(ValueError, match="incompatible"):
            forward(stack, np.zeros((2, 4, 5)))  # two slices for a stack of three
        with pytest.raises(ValueError, match="incompatible"):
            forward(stack, np.zeros((4, 5)))


def fresh_copy(net):
    """The same parameters in a network with working arrays of its own."""
    return DenseNet(
        [Layer(l.weights.copy(), l.biases.copy(), l.activation) for l in net.layers]
    )


def results_of(net, batch, upstream):
    """Everything a caller receives from forward, backward and
    input_gradient on one batch, each pass on a forward of its own, and the
    last forward's cache."""
    out, cache = forward(net, batch)
    grads, input_grads = backward(net, cache, upstream)
    _, cache = forward(net, batch)
    return [out, input_grads, input_gradient(net, cache, upstream), *grads], cache


class TestInputRows:
    """A batch written into ``DenseNet.input_rows`` is taken where it lies."""

    def test_rows_written_in_place_match_a_copied_batch(self):
        net, _ = make_safe_net(3, (4, 5), 2, seed=40)
        batch = np.random.default_rng(41).standard_normal((5, 3))
        net.input_rows(8)[...] = np.nan  # stale rows after any 5-row batch
        rows = net.input_rows(5)
        rows[...] = batch
        out, cache = forward(net, rows)
        assert cache.inputs[0][:, :-1] is not batch
        assert out.tobytes() == forward(copy.deepcopy(net), batch)[0].tobytes()
        padded, first, same_rows, padding = net._arrays.input(5, 3)
        assert same_rows is rows and padding.shape == (3, 3) and not padding.any()
        assert (padded[:, -1] == 1.0).all()

    def test_taking_the_rows_outdates_earlier_caches(self):
        net, batch = make_safe_net(3, (4,), 2, seed=42)
        _, cache = forward(net, batch)
        net.input_rows(batch.shape[0])
        with pytest.raises(ValueError, match="stale"):
            backward(net, cache, np.ones((batch.shape[0], 2)))

    def test_reused_gradient_buffer_matches_a_new_one(self):
        net, batch = make_safe_net(3, (4, 5), 2, seed=43)
        upstream = np.random.default_rng(44).standard_normal((batch.shape[0], 2))
        buffer = net.gradient_buffer()
        assert net.gradient_buffer() is buffer and buffer.shape == net.flat.shape
        for rows in (batch[:1], batch):
            _, cache = forward(net, rows)
            fresh, _ = backward(net, cache, upstream[:len(rows)])
            _, cache = forward(net, rows)
            reused, _ = backward(net, cache, upstream[:len(rows)], out=buffer)
            assert all(np.shares_memory(r, buffer) for r in reused)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(reused, fresh))


class TestReusedArrays:
    """Hidden layers are computed in arrays that a network reuses and shares
    with its copies; everything returned to a caller is a new array."""

    @pytest.mark.parametrize("later", ["same", "copy"])
    def test_later_forward_makes_cache_stale(self, later):
        net, batch = make_safe_net(3, (4, 5), 2, seed=6)
        upstream = np.ones((batch.shape[0], 2))
        for grad_fn in (backward, input_gradient):
            _, cache = forward(net, batch)
            # a network with arrays of its own leaves the cache usable
            forward(fresh_copy(net), batch)
            grad_fn(net, cache, upstream)
            _, cache = forward(net, batch)
            forward(net if later == "same" else net.copy(), batch[:1])
            with pytest.raises(ValueError, match="stale"):
                grad_fn(net, cache, upstream)

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
        net = DenseNet.create(5, (8, 6), 2, rng)
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

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    def test_row_counts_in_any_order_match_fresh_network(self, activation):
        rng = np.random.default_rng(13)
        net = DenseNet.create(12, (64, 32), 3, rng)
        if activation == "linear":
            net = DenseNet([Layer(l.weights, l.biases) for l in net.layers])
        rows = rng.standard_normal((384, 12))
        for b in (3, 384, 128, 1):
            upstream = rng.standard_normal((b, 3))
            got, _ = results_of(net, rows[:b], upstream)
            fresh, _ = results_of(fresh_copy(net), rows[:b], upstream)
            assert all(np.array_equal(g, f) for g, f in zip(got, fresh)), f"batch of {b}"


def held(net):
    """The arrays the network's layers hold, [W0, b0, W1, b1, ...]."""
    return [a for layer in net.layers for a in (layer.weights, layer.biases)]


class TestFlatLayout:
    """A network's parameters, its gradients and its Adam moments each live
    in one buffer per network, as views shaped like the per-array ones."""

    def test_parameters_and_gradients_view_one_buffer(self):
        net, batch = make_safe_net(3, (4, 5), 2, seed=9)
        assert_back_to_back(held(net), net.flat)
        assert net.layout == tuple(p.shape for p in held(net))
        upstream = np.ones((batch.shape[0], 2))
        grads, _ = backward(net, forward(net, batch)[1], upstream)
        assert_back_to_back(grads)
        assert not any(np.shares_memory(g, net.flat) for g in grads)
        buffer = np.empty_like(net.flat)
        into_buffer, _ = backward(net, forward(net, batch)[1], upstream, out=buffer)
        assert_back_to_back(into_buffer, buffer)
        assert all(np.array_equal(a, b) for a, b in zip(into_buffer, grads))
        plain = np.empty(net.flat.size)
        assert all(np.array_equal(a, b) for a, b in
                   zip(backward(net, forward(net, batch)[1], upstream, out=plain)[0], grads))
        _, cache = forward(net, batch)
        for wrong in (np.empty(net.flat.size + 1), np.empty(net.flat.size, dtype=np.float32),
                      np.empty(2 * net.flat.size)[::2], np.empty_like(net.copy().flat)[:-1]):
            with pytest.raises(ValueError, match="laid out"):
                backward(net, cache, upstream, out=wrong)
        # a wrong buffer raises before the pass spends the cache
        backward(net, cache, upstream, out=buffer)

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
        assert np.array_equal(twin.flat, net.flat) and twin.layout == net.layout
        assert_back_to_back(held(twin), twin.flat)
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
            assert copied.layout == original.layout
            assert not np.shares_memory(copied.flat, original.flat)
            assert_back_to_back(held(copied), copied.flat)
        # the copies share working arrays as the originals do
        assert twin._arrays is twin_target._arrays and twin._arrays is not net._arrays
        twin.flat[:] = 0.0
        assert (forward(twin, batch)[0] == 0.0).all()
        assert (forward(net, batch)[0] != 0.0).any()

    def test_adam_moments_are_laid_out_like_the_parameters(self):
        net, _ = make_safe_net(3, (4,), 2, seed=13)
        state = AdamState.for_params([net.flat], alpha=0.01)
        for moments in (state.m, state.v):
            (buffer,) = moments
            assert type(buffer) is np.ndarray and buffer.shape == net.flat.shape
            assert not np.shares_memory(buffer, net.flat) and not buffer.any()

    @pytest.mark.parametrize("max_norm", [1e9, 1.0])
    def test_flat_step_matches_per_array_step_to_the_bit(self, max_norm):
        """Three Adam steps, clips and Polyak averages over the buffers
        compute the bits of the same steps over the per-parameter arrays."""
        # a clip that summed the whole buffer at once would fail this test.
        # In this buffer the per-array sums of squares are 1 and exactly
        # 2**-50, whose sum is exact; one sum over the buffer adds 2**-54
        # squares to about 1 and loses some of them
        layout = ((1,), (16,))
        witness = np.array([1.0] + [2.0**-27] * 16)
        parts = nncore._views(witness, layout)
        whole = math.sqrt(float(np.sum(np.square(witness))))
        assert whole != global_grad_norm([witness], [layout]) == math.sqrt(1.0 + 2.0**-50)
        assert global_grad_norm([witness]) == whole  # without a layout, one array
        flat_clip = nncore._views(clip_grad_norm([witness], 0.5, [layout])[0], layout)
        assert all(np.array_equal(f, r)
                   for f, r in zip(flat_clip, reference.clip(parts, 0.5)))
        assert not np.array_equal(flat_clip[1], parts[1] * (0.5 / whole))

        net, batch = make_safe_net(3, (16, 8), 2, seed=16)
        upstream = np.random.default_rng(17).standard_normal((batch.shape[0], 2))
        target, twin, twin_target = net.copy(), net.copy(), net.copy()
        flat_state = AdamState.for_params([net.flat], alpha=0.01)
        array_state = AdamState.for_params(held(twin), alpha=0.01)
        for step in range(3):
            _, cache = forward(net, batch)
            grads = np.empty_like(net.flat)
            backward(net, cache, upstream, out=grads)
            clipped = clip_grad_norm([grads], max_norm, [net.layout])
            assert (clipped[0] is grads) == (max_norm == 1e9)
            adam_step([net.flat], clipped, flat_state)
            net.mark_updated()
            polyak_update([target.flat], [net.flat], 0.1)

            _, cache = forward(twin, batch)
            per_array, _ = backward(twin, cache, upstream)
            adam_step(held(twin), reference.clip(per_array, max_norm), array_state)
            twin.mark_updated()
            polyak_update(held(twin_target), held(twin), 0.1)
        assert np.array_equal(net.flat, twin.flat)
        assert np.array_equal(target.flat, twin_target.flat)
        assert all(np.array_equal(m, a)
                   for m, a in zip(net.parts(flat_state.m[0]) + net.parts(flat_state.v[0]),
                                   array_state.m + array_state.v))


@pytest.mark.parametrize("config, episodes", [("bandit_oracle", 200), ("platform_desk", 60)])
@pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
def test_training_bytes_match_allocating_passes(tmp_path_factory, monkeypatch, config,
                                                episodes, algorithm):
    """Training with working arrays reused from call to call writes the CSV
    that passes allocating them anew at every forward write. Platform
    updates start after about 40 episodes for the slower-filling
    algorithms."""
    take_input = nncore._LayerArrays.input
    allocations = []

    def fresh_input(self, n, width, lead=()):
        allocations.append(n)
        self._allocate(padded_rows(n), lead[0] if lead else 1)
        return take_input(self, n, width, lead)

    assert_training_bytes_unchanged(
        tmp_path_factory, config,
        lambda: monkeypatch.setattr(nncore._LayerArrays, "input", fresh_input),
        algorithm=algorithm, episodes=episodes)
    assert allocations


@pytest.mark.parametrize("config, episodes, algorithm, mixed_targets", [
    *((config, episodes, algorithm, False)
      for config, episodes in (("bandit_oracle", 200), ("platform_desk", 60))
      for algorithm in harness.ALGORITHMS),
    ("platform_desk", 60, "pdqn-separate", True),
])
def test_training_bytes_match_per_array_steps(tmp_path_factory, monkeypatch, config,
                                              episodes, algorithm, mixed_targets):
    """The agent's clip, Adam step and Polyak averaging over one buffer per
    optimizer write the training CSV and the checkpoint that the reference's
    steps over each parameter array write."""
    def per_array_step(self, owner, grads, opt):
        (m,), (v,), parts = opt.m, opt.v, owner.parts
        opt.t += 1
        reference.adam(parts(owner.flat), reference.clip(parts(grads), self.config.clip_grad),
                       parts(m), parts(v), opt.t, opt.alpha, opt.beta1, opt.beta2, opt.eps)
        owner.mark_updated()

    def per_array_sync(self):
        for targets, onlines, tau in (
            (self.qf_target.nets, self.qf.nets, self.config.tau_q),
            ([self.actor_target.net], [self.actor.net], self.config.tau_actor),
        ):
            for target, online in zip(targets, onlines):
                reference.polyak(held(target), held(online), tau)
                target.mark_updated()

    def per_array_steps():
        monkeypatch.setattr(PDQNAgent, "_step", per_array_step)
        monkeypatch.setattr(PDQNAgent, "sync_targets", per_array_sync)

    assert_training_bytes_unchanged(tmp_path_factory, config, per_array_steps,
                                    ("csv", "checkpoint"),
                                    algorithm=algorithm, episodes=episodes,
                                    mixed_targets=mixed_targets)


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
        flat = np.ones(6)
        flat[4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            clip_grad_norm([np.ones(3), flat], 1.0, [((3,),), ((2, 2), (2,))])

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
