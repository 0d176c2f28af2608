import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamdp.nncore import (
    AdamState,
    DenseNet,
    Layer,
    adam_step,
    adam_step_net,
    backward,
    clip_grad_norm,
    forward,
    global_grad_norm,
    he_init,
    input_gradient,
    polyak_update,
)
from conftest import fd_input_grads, fd_param_grads, make_safe_net, relative_error


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


# shapes training uses: the Platform joint/multipass Q-net (12 -> 128 -> 3),
# the Platform PA-DDPG actor (9 -> 128 -> 6), the bandit Q-net (3 -> 64 -> 2)
INVARIANCE_SHAPES = [(12, 128, 3), (9, 128, 6), (3, 64, 2)]


class TestBatchInvariance:
    """A row's output bits depend on the row alone: not on the batch size,
    its position in the batch, or the memory layout of the batch."""

    @pytest.mark.parametrize("fan_in,hidden,fan_out", INVARIANCE_SHAPES)
    def test_row_alone_equals_row_in_batch(self, fan_in, hidden, fan_out):
        rng = np.random.default_rng(11)
        net = DenseNet.create(fan_in, (hidden,), fan_out, rng)
        rows = rng.standard_normal((384, fan_in))
        alone = np.vstack([forward(net, row[None, :])[0] for row in rows])
        for b in (3, 128, 384):
            batched, _ = forward(net, rows[:b])
            assert np.array_equal(batched, alone[:b]), f"batch of {b}"

    @pytest.mark.parametrize("fan_in,hidden,fan_out", INVARIANCE_SHAPES)
    def test_layout_does_not_change_bits(self, fan_in, hidden, fan_out):
        rng = np.random.default_rng(12)
        net = DenseNet.create(fan_in, (hidden,), fan_out, rng)
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
        state = AdamState.for_params(net.parameters(), alpha=0.01)
        grads = [np.ones_like(p) for p in net.parameters()]
        adam_step_net(net, grads, state)
        for grad_fn in (backward, input_gradient):
            with pytest.raises(ValueError, match="stale"):
                grad_fn(net, cache, np.ones((batch.shape[0], 2)))


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
