import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamdp.nncore import DenseNet, Layer
from pamdp.policy import Actor, EpsilonSchedule, OUNoise, invert_gradients

BOUNDS3 = np.tile([-1.0, 1.0], (3, 1))


def zero_net(in_dim, out_dim):
    return DenseNet([Layer(np.zeros((in_dim, out_dim)), np.zeros(out_dim))])


class TestActor:
    def test_hand_set_single_layer(self):
        net = DenseNet([Layer(np.array([[0.2], [0.3]]), np.array([-0.1]))])
        actor = Actor(net, np.array([[-1.0, 1.0]]))
        got = actor.forward(np.array([[2.0, -1.0]]))[0]
        assert abs(got[0] - (0.2 * 2.0 + 0.3 * -1.0 - 0.1)) < 1e-15

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_output_always_within_bounds(self, seed):
        rng = np.random.default_rng(seed)
        net = DenseNet.create(4, (8,), 3, rng)
        for layer in net.layers:  # exaggerate weights so clipping matters
            layer.weights *= 10.0
        actor = Actor(net, BOUNDS3)
        out = actor.forward(rng.standard_normal((5, 4)))
        assert (out >= -1.0).all() and (out <= 1.0).all()

    def test_clamp_gives_np_clip_bits_in_a_new_array(self):
        actor = Actor(zero_net(1, 3), np.array([[-1.0, 1.0], [0.0, 2.0], [-3.0, -2.0]]))
        u = np.array([-1.5, 2.5, -2.5])
        assert np.array_equal(actor.clamp(u), np.clip(u, actor.bounds[:, 0], actor.bounds[:, 1]))
        assert actor.clamp(u) is not u


class TestInvertGradients:
    def test_boundary_inward_gradient_full_strength(self):
        g = invert_gradients(np.array([-2.0]), np.array([1.0]), np.array([[-1.0, 1.0]]))
        assert g[0] == -2.0

    def test_midpoint_scales_both_directions_by_half(self):
        bounds = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        g = invert_gradients(np.array([2.0, -2.0]), np.zeros(2), bounds)
        assert np.allclose(g, [1.0, -1.0])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_agent_path_is_bit_equal_to_the_public_one(self, data):
        """The agent's path, ``invert_gradients`` on the actor's clamped
        output scaled in place by ``-1 / b``, has the bits of
        ``-invert_gradients(...) / b``, at a bound and for a gradient of 0
        or -0.0 too."""
        dim = data.draw(st.integers(1, 4))
        rows = data.draw(st.integers(1, 6))
        lo = np.array(data.draw(st.lists(st.floats(-5, 4), min_size=dim, max_size=dim)))
        width = np.array(data.draw(st.lists(st.floats(0.01, 5), min_size=dim, max_size=dim)))
        bounds = np.stack([lo, lo + width], axis=1)
        grad = np.array(data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 1.5, -2.0]) | st.floats(-1e3, 1e3),
            min_size=dim * rows, max_size=dim * rows))).reshape(rows, dim)
        where = data.draw(st.lists(st.sampled_from(["lo", "hi", "in"]),
                                   min_size=dim * rows, max_size=dim * rows))
        frac = np.array(data.draw(st.lists(st.floats(0, 1), min_size=dim * rows,
                                           max_size=dim * rows))).reshape(rows, dim)
        x = np.where(np.reshape(where, (rows, dim)) == "lo", bounds[:, 0],
                     np.where(np.reshape(where, (rows, dim)) == "hi", bounds[:, 1],
                              bounds[:, 0] + frac * (bounds[:, 1] - bounds[:, 0])))
        actor = Actor(zero_net(3, dim), bounds)
        x = actor.clamp(x)
        public = -invert_gradients(grad, x, bounds) / rows
        upstream = invert_gradients(grad, x, bounds)
        upstream /= -rows
        assert public.tobytes() == upstream.tobytes()

    def test_out_of_bounds_x_rejected(self):
        with pytest.raises(ValueError):
            invert_gradients(np.array([1.0]), np.array([1.5]), np.array([[-1.0, 1.0]]))


class TestOUNoise:
    def test_deterministic_mean_reversion(self):
        noise = OUNoise(1, theta=0.15, sigma=0.0)
        noise.state[:] = 1.0
        assert noise.step(np.random.default_rng(0))[0] == 0.85

    def test_reset_returns_to_mean(self):
        noise = OUNoise(3)
        noise.step(np.random.default_rng(1))
        noise.reset()
        assert (noise.state == 0.0).all()

    def test_geometric_convergence_without_volatility(self):
        noise = OUNoise(1, theta=0.2, sigma=0.0)
        noise.state[:] = 1.0
        rng = np.random.default_rng(2)
        values = [noise.step(rng)[0] for _ in range(50)]
        assert values[-1] == pytest.approx(0.8**50, rel=1e-9)

class TestEpsilonSchedule:
    def test_endpoints(self):
        sched = EpsilonSchedule(1.0, 0.1, horizon=100)
        assert sched.value(0) == 1.0
        assert sched.value(100) == 0.1
        assert sched.value(5000) == 0.1

    def test_midpoint_is_arithmetic_mean(self):
        sched = EpsilonSchedule(0.8, 0.2, horizon=10)
        assert sched.value(5) == pytest.approx(0.5)

    @given(st.integers(0, 500), st.integers(1, 500))
    @settings(max_examples=50)
    def test_monotone_non_increasing(self, episode, horizon):
        sched = EpsilonSchedule(1.0, 0.01, horizon=horizon)
        a = sched.value(episode)
        b = sched.value(episode + 1)
        assert 0.0 <= b <= a <= 1.0

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(0.5, 0.9, horizon=10)

