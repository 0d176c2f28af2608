import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamdp.nncore import DenseNet, Layer
from pamdp.policy import (
    Actor,
    EpsilonSchedule,
    OUNoise,
    Passthrough,
    invert_gradients,
    scale_params,
    unscale_params,
)

BOUNDS3 = np.tile([-1.0, 1.0], (3, 1))


def zero_net(in_dim, out_dim):
    return DenseNet([Layer(np.zeros((in_dim, out_dim)), np.zeros(out_dim))])


class TestActor:
    def test_zero_network_passes_through(self):
        p = Passthrough(np.array([[0.5, -2.0, 0.1]]), np.array([0.0, 0.0, 0.3]))
        actor = Actor(zero_net(1, 3), BOUNDS3, p)
        s = np.array([1.0])
        expected = np.clip(np.array([0.5, -2.0, 0.4]), -1.0, 1.0)
        assert np.allclose(actor.forward(s[None, :])[0], expected)

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

    def test_nonzero_passthrough_is_batch_invariant(self):
        """Each row gets the bits of its own 1-row call, in every batch."""
        rng = np.random.default_rng(21)
        p = Passthrough(rng.standard_normal((9, 3)), rng.standard_normal(3))
        net = DenseNet.create(9, (128,), 3, rng)
        wide = np.tile([-100.0, 100.0], (3, 1))  # no clamping to hide a difference
        actor = Actor(net, wide, p)
        states = rng.standard_normal((128, 9))
        alone = np.vstack([actor.forward(row[None, :]) for row in states])
        for n in (2, 3, 4, 5, 127, 128):
            assert np.array_equal(actor.forward(states[:n]), alone[:n]), f"batch of {n}"
        assert np.allclose(p.apply(states), states @ p.weights + p.bias, rtol=0, atol=1e-12)
        assert not np.array_equal(alone, Actor(net, wide).forward(states))

    def test_passthrough_filled_in_place_is_applied(self):
        """The zero test runs on every call: a passthrough built as zeros and
        filled afterwards, as a checkpoint load does, is not skipped."""
        p = Passthrough.zeros(1, 3)
        actor = Actor(zero_net(1, 3), BOUNDS3, p)
        s = np.array([[1.0]])
        assert p.is_zero() and (actor.forward(s) == 0.0).all()
        p.weights[...] = [[0.5, -0.25, 0.1]]
        p.bias[...] = [0.0, 0.0, 0.3]
        assert not p.is_zero()
        assert np.allclose(actor.forward(s)[0], [0.5, -0.25, 0.4], rtol=0, atol=1e-15)

    def test_passthrough_shape_checked(self):
        with pytest.raises(ValueError):
            Actor(zero_net(2, 3), BOUNDS3, Passthrough(np.zeros((3, 3)), np.zeros(3)))


class TestInvertGradients:
    def test_boundary_saturation_zeroes_outward_gradient(self):
        g = invert_gradients(np.array([2.0]), np.array([1.0]), np.array([[-1.0, 1.0]]))
        assert g[0] == 0.0

    def test_boundary_inward_gradient_full_strength(self):
        g = invert_gradients(np.array([-2.0]), np.array([1.0]), np.array([[-1.0, 1.0]]))
        assert g[0] == -2.0

    def test_midpoint_scales_both_directions_by_half(self):
        bounds = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        g = invert_gradients(np.array([2.0, -2.0]), np.zeros(2), bounds)
        assert np.allclose(g, [1.0, -1.0])

    def test_contraction_and_sign_over_random_draws(self):
        rng = np.random.default_rng(0)
        bounds = np.tile([-1.0, 1.0], (10_000, 1))
        g = rng.standard_normal(10_000) * 5
        x = rng.uniform(-1.0, 1.0, 10_000)
        adj = invert_gradients(g, x, bounds)
        assert (np.abs(adj) <= np.abs(g) + 1e-15).all()
        assert (np.sign(adj) == np.sign(g))[adj != 0.0].all()

    def test_out_of_bounds_x_rejected(self):
        with pytest.raises(ValueError):
            invert_gradients(np.array([1.0]), np.array([1.5]), np.array([[-1.0, 1.0]]))


class TestOUNoise:
    def test_deterministic_mean_reversion(self):
        noise = OUNoise(1, theta=0.15, sigma=0.0, mu=0.0)
        noise.state[:] = 1.0
        assert noise.step(np.random.default_rng(0))[0] == 0.85

    def test_reset_returns_to_mean(self):
        noise = OUNoise(3, mu=0.25)
        noise.step(np.random.default_rng(1))
        noise.reset()
        assert (noise.state == 0.25).all()

    def test_geometric_convergence_without_volatility(self):
        noise = OUNoise(1, theta=0.2, sigma=0.0)
        noise.state[:] = 1.0
        rng = np.random.default_rng(2)
        values = [noise.step(rng)[0] for _ in range(50)]
        assert values[-1] == pytest.approx(0.8**50, rel=1e-9)

    def test_stationary_variance_smoke(self):
        # full-size 1e6-step check lives in the acceptance suite
        noise = OUNoise(1, theta=0.15, sigma=0.3, dt=0.1)
        rng = np.random.default_rng(3)
        samples = np.array([noise.step(rng)[0] for _ in range(100_000)])
        target = 0.3**2 / (2 * 0.15)
        assert abs(samples[1000:].var() - target) / target < 0.15


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


class TestParamScaling:
    BOUNDS = np.array([[0.0, 100.0]])

    def test_midpoint_maps_to_zero(self):
        assert scale_params(np.array([50.0]), self.BOUNDS)[0] == 0.0

    def test_endpoint_maps_to_one(self):
        assert scale_params(np.array([100.0]), self.BOUNDS)[0] == 1.0

    def test_round_trip_identity(self):
        rng = np.random.default_rng(4)
        bounds = np.column_stack([rng.uniform(-5, 0, 10_000), rng.uniform(1, 9, 10_000)])
        x = rng.uniform(bounds[:, 0], bounds[:, 1])
        back = unscale_params(scale_params(x, bounds), bounds)
        assert np.abs(back - x).max() < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            scale_params(np.array([101.0]), self.BOUNDS)
        with pytest.raises(ValueError):
            unscale_params(np.array([1.01]), self.BOUNDS)
