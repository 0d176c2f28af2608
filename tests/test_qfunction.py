import numpy as np
import pytest

from pamdp import nncore
from pamdp.nncore import DenseNet, Layer, backward, forward, input_gradient
from pamdp.qfunction import (
    JOINT,
    MULTIPASS,
    SEPARATE,
    ActionSpaceSpec,
    QFunction,
    basis_mask,
    cross_gradient_matrix,
    multipass_rows,
    q_joint,
    q_multipass,
    q_sensitivity_sweep,
    q_separate,
    sum_q_gradient,
)
from conftest import fd_scalar_grad, patch_everywhere, relative_error, zero_nets

SPACE = ActionSpaceSpec(state_dim=4, param_dims=(1, 2, 1))


def make_qf(variant, space=SPACE, hidden=(16, 8), seed=0):
    return QFunction.create(variant, space, hidden, np.random.default_rng(seed))


def random_point(space, seed):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(space.state_dim)
    x = rng.uniform(space.bounds[:, 0], space.bounds[:, 1])
    return s, x


class TestActionSpaceSpec:
    def test_layout(self):
        assert SPACE.num_actions == 3
        assert SPACE.joint_dim == 4
        assert SPACE.block(1) == slice(1, 3)

    def test_default_bounds(self):
        assert (SPACE.bounds == np.tile([-1.0, 1.0], (4, 1))).all()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"state_dim": 0, "param_dims": (1,)},
            {"state_dim": 2, "param_dims": ()},
            {"state_dim": 2, "param_dims": (1, 0)},
            {"state_dim": 2, "param_dims": (1,), "bounds": np.array([[1.0, -1.0]])},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ActionSpaceSpec(**kwargs)


class TestJoint:
    def test_zero_weight_network_returns_biases(self):
        qf = make_qf(JOINT)
        zero_nets(qf.nets[0])
        qf.nets[0].layers[-1].biases[:] = [1.0, 2.0, 3.0]
        s, x = random_point(SPACE, 1)
        assert np.allclose(q_joint(qf, s, x), [1.0, 2.0, 3.0])

    def test_hand_set_single_hidden_unit(self):
        # relu(w1 . input) * w2 + b2, hand-evaluated
        space = ActionSpaceSpec(state_dim=1, param_dims=(1,))
        net = DenseNet(
            [
                Layer(np.array([[1.0], [2.0]]), np.array([0.5]), activation="relu"),
                Layer(np.array([[3.0]]), np.array([-1.0])),
            ]
        )
        qf = QFunction(JOINT, space, [net])
        got = q_joint(qf, np.array([2.0]), np.array([0.25]))
        hidden = max(0.0, 1.0 * 2.0 + 2.0 * 0.25 + 0.5)
        assert abs(got[0] - (hidden * 3.0 - 1.0)) < 1e-15

    def test_generic_cross_sensitivity(self):
        qf = make_qf(JOINT, seed=3)
        s, x = random_point(SPACE, 4)
        x2 = x.copy()
        x2[3] += 0.05  # block of action 2
        dq = q_joint(qf, s, x2) - q_joint(qf, s, x)
        assert np.abs(dq[:2]).max() > 0  # other actions moved too

    def test_wrong_variant_rejected(self):
        qf = make_qf(MULTIPASS)
        s, x = random_point(SPACE, 5)
        with pytest.raises(ValueError):
            q_joint(qf, s, x)


class TestMultipass:
    def test_unrelated_parameter_exactly_ignored(self):
        qf = make_qf(MULTIPASS, seed=6)
        s, x = random_point(SPACE, 7)
        x2 = x.copy()
        x2[SPACE.block(2)] += 0.3
        q1, q2 = q_multipass(qf, s, x), q_multipass(qf, s, x2)
        assert q1[0] == q2[0] and q1[1] == q2[1]

    def test_single_action_passes_are_joint_on_masked_params(self):
        """For one action per sample, the multipass pass is the joint pass on
        the basis-masked joint vectors: the same rows, read at the same
        outputs, with no gradient maps."""
        qf = make_qf(MULTIPASS, seed=10)
        qf_joint = QFunction(JOINT, SPACE, qf.nets)  # same network
        rng = np.random.default_rng(11)
        states = rng.standard_normal((6, SPACE.state_dim))
        params = rng.uniform(-1, 1, (6, SPACE.joint_dim))
        actions = rng.integers(SPACE.num_actions, size=6)
        masked = np.stack([basis_mask(SPACE, x, k) for x, k in zip(params, actions)])
        # both write their rows into the one network's input: copy them
        (mp,) = [(net, rows.copy(), *rest) for net, rows, *rest in
                 qf.passes(states, params, actions)]
        (joint,) = [(net, rows.copy(), *rest) for net, rows, *rest in
                    qf_joint.passes(states, masked, actions)]
        assert np.array_equal(mp[1], joint[1])
        assert mp[0] is joint[0] and mp[2] == joint[2]
        assert np.array_equal(mp[3], joint[3])
        assert mp[4:] == joint[4:] == (None, None)

    def test_rows_layout(self):
        s = np.arange(4.0)[None, :]
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        out = np.full((3, 8), np.nan)
        rows = multipass_rows(SPACE, s, x, out)
        assert rows is out
        assert rows[0].tolist() == [0, 1, 2, 3, 1, 0, 0, 0]
        assert rows[1].tolist() == [0, 1, 2, 3, 0, 2, 3, 0]
        assert rows[2].tolist() == [0, 1, 2, 3, 0, 0, 0, 4]


class TestSeparate:
    def test_unrelated_parameter_exactly_ignored(self):
        qf = make_qf(SEPARATE, seed=10)
        s, x = random_point(SPACE, 11)
        x2 = x.copy()
        x2[SPACE.block(0)] = -x2[SPACE.block(0)]
        q1, q2 = q_separate(qf, s, x), q_separate(qf, s, x2)
        assert (q1[1:] == q2[1:]).all()

    def test_single_action_equals_joint(self):
        space = ActionSpaceSpec(state_dim=3, param_dims=(2,))
        net = DenseNet.create(5, (8,), 1, np.random.default_rng(12))
        qf_sep = QFunction(SEPARATE, space, [net])
        qf_joint = QFunction(JOINT, space, [net])
        s, x = random_point(space, 13)
        assert (q_separate(qf_sep, s, x) == q_joint(qf_joint, s, x)).all()

    def test_networks_share_one_set_of_working_arrays(self):
        qf = make_qf(SEPARATE, seed=16)
        target = qf.copy()
        assert len({id(net._arrays) for net in qf.nets + target.nets}) == 1
        s, x = random_point(SPACE, 17)
        rows = [np.hstack([s, x[SPACE.block(i)]])[None, :] for i in range(3)]
        for i, j in ((0, 1), (2, 0), (1, 1)):
            _, cache = forward(qf.nets[i], rows[i])
            forward(target.nets[j], rows[j])
            for grad_fn in (backward, input_gradient):
                with pytest.raises(ValueError, match="stale cache"):
                    grad_fn(qf.nets[i], cache, np.ones((1, 1)))

    @pytest.mark.parametrize("param_dims, stacks", [
        ((1, 1, 1), 1), ((1, 2, 1), 3), ((2, 2, 1, 1, 3), 3), ((2,), 1)])
    def test_all_k_passes_run_one_stack_per_block_width(self, monkeypatch, param_dims, stacks):
        """Evaluation and the value gradient make one forward per run of
        equal-width blocks (one on Platform's (1, 1, 1)), and every value and
        gradient column has the bits of its network's own pass."""
        space = ActionSpaceSpec(state_dim=9, param_dims=param_dims)
        qf = make_qf(SEPARATE, space, hidden=(128,), seed=26)
        rng = np.random.default_rng(27)
        states = rng.standard_normal((5, space.state_dim))
        params = rng.uniform(-1, 1, (5, space.joint_dim))
        own_q, own_grad = np.empty((5, len(param_dims))), np.empty(params.shape)
        for i, net in enumerate(qf.nets):
            rows = np.hstack([states, params[:, space.block(i)]])
            out, cache = forward(net, rows)
            own_q[:, i] = out[:, 0]
            own_grad[:, space.block(i)] = input_gradient(net, cache, np.ones((5, 1)),
                                                         space.state_dim)
        calls = []

        def spy(net, batch):
            calls.append(batch.shape)
            return forward(net, batch)

        patch_everywhere(monkeypatch, nncore, "forward", spy)
        q = qf.evaluate(states, params)
        assert len(calls) == stacks and q.tobytes() == own_q.tobytes()
        calls.clear()
        grad, q = sum_q_gradient(qf, states, params)
        assert len(calls) == stacks and q.tobytes() == own_q.tobytes()
        assert grad.tobytes() == own_grad.tobytes()
        assert sum(shape[0] for shape in calls) == len(param_dims)

    def test_networks_of_one_layout_and_other_activations_are_not_stacked(self):
        """A stack runs every slice with its first network's activations, so
        a network with a linear hidden layer runs apart from a ReLU network
        of its layout, and each value is its own network's."""
        space = ActionSpaceSpec(state_dim=2, param_dims=(1, 1))
        rng = np.random.default_rng(28)
        relu, other = (DenseNet.create(3, (4,), 1, rng) for _ in range(2))
        linear = DenseNet([Layer(l.weights, l.biases) for l in other.layers])
        qf = QFunction(SEPARATE, space, [relu, linear])
        states, params = rng.standard_normal((5, 2)), rng.uniform(-1, 1, (5, 2))
        q = qf.evaluate(states, params)
        for i, net in enumerate((relu, linear)):
            own, _ = forward(net, np.hstack([states, params[:, i:i + 1]]))
            assert np.array_equal(q[:, i], own[:, 0])

    def test_parameter_count_exceeds_joint(self):
        space = ActionSpaceSpec(state_dim=9, param_dims=(1, 1, 1))
        joint = make_qf(JOINT, space, hidden=(128,), seed=14)
        sep = make_qf(SEPARATE, space, hidden=(128,), seed=15)
        # closed form: joint (12->128->3), separate 3 x (10->128->1)
        expected_joint = 12 * 128 + 128 + 128 * 3 + 3
        expected_sep = 3 * (10 * 128 + 128 + 128 * 1 + 1)
        assert sum(net.flat.size for net in joint.nets) == expected_joint
        assert sum(net.flat.size for net in sep.nets) == expected_sep > expected_joint


class TestCrossGradientMatrix:
    @pytest.mark.parametrize("variant", [MULTIPASS, SEPARATE])
    def test_matches_finite_differences(self, variant):
        # evaluate Q_i while perturbing block j only; compare the block norm
        # (acceptance criterion 3 does so for joint and off the diagonal)
        qf = make_qf(variant, seed=18)
        s = np.full(SPACE.state_dim, 0.37)
        x = np.array([0.21, -0.4, 0.55, 0.11])
        g = cross_gradient_matrix(qf, s, x)
        single = {MULTIPASS: q_multipass, SEPARATE: q_separate}[variant]
        for i in range(3):
            def q_i(xv, i=i):
                return float(single(qf, s, xv)[i])

            fd = fd_scalar_grad(q_i, x)
            for j in range(3):
                fd_norm = np.linalg.norm(fd[SPACE.block(j)])
                assert abs(g[i, j] - fd_norm) <= 1e-5 * max(1.0, fd_norm)


class TestSumQGradient:
    @pytest.mark.parametrize("variant", [JOINT, MULTIPASS, SEPARATE])
    def test_matches_finite_differences(self, variant):
        qf = make_qf(variant, seed=19)
        single = {JOINT: q_joint, MULTIPASS: q_multipass, SEPARATE: q_separate}[variant]
        rng = np.random.default_rng(20)
        states = rng.standard_normal((4, SPACE.state_dim))
        params = rng.uniform(-0.9, 0.9, (4, SPACE.joint_dim))
        grad, q = sum_q_gradient(qf, states, params)
        assert np.allclose(q, qf.evaluate(states, params))
        for b in range(4):
            def total(xv, b=b):
                return float(np.sum(single(qf, states[b], xv)))

            assert relative_error(grad[b], fd_scalar_grad(total, params[b])) < 1e-5


class TestEmptyBatch:
    @pytest.mark.parametrize("variant", [JOINT, MULTIPASS, SEPARATE])
    def test_zero_rows_give_empty_values_and_gradients(self, variant):
        qf = make_qf(variant, seed=21)
        states, params = np.empty((0, SPACE.state_dim)), np.empty((0, SPACE.joint_dim))
        assert qf.evaluate(states, params).shape == (0, SPACE.num_actions)
        grad, q = sum_q_gradient(qf, states, params)
        assert grad.shape == (0, SPACE.joint_dim) and q.shape == (0, SPACE.num_actions)
        # and the networks still serve a batch afterwards
        s, x = random_point(SPACE, 22)
        assert np.array_equal(qf.evaluate(s[None, :], x[None, :]), make_qf(variant, seed=21)
                              .evaluate(s[None, :], x[None, :]))


class TestBatchConstants:
    @pytest.mark.parametrize("variant", [JOINT, MULTIPASS, SEPARATE])
    def test_per_batch_constants_are_read_only(self, variant):
        qf = make_qf(variant, seed=23)
        rng = np.random.default_rng(24)
        sum_q_gradient(qf, rng.standard_normal((5, SPACE.state_dim)),
                       rng.uniform(-1, 1, (5, SPACE.joint_dim)))
        first, out_at, in_at, ones = qf._indices[5]
        # joint's gradient lies in place; multipass and each separate stack,
        # here one per block width (1, 2, 1), gather theirs
        assert len(in_at) == {JOINT: 0, MULTIPASS: 1, SEPARATE: 3}[variant]
        arrays = [first, *out_at, *in_at, *ones]
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            ones[0][0] = 2.0

    @pytest.mark.parametrize("variant", [JOINT, MULTIPASS, SEPARATE])
    def test_sum_q_upstream_weights_every_value_once(self, variant):
        """Each pass's constant upstream is 1 at the outputs read as values
        and 0 elsewhere, so the value gradient is that of sum_k Q_k."""
        qf = make_qf(variant, seed=25)
        first, out_at, _, ones = qf._index_arrays(3)
        for upstream, at in zip(ones, out_at, strict=True):
            expected = np.zeros(upstream.shape)
            expected.flat[at.ravel()] = 1.0
            assert np.array_equal(upstream, expected)


class TestArgmaxStability:
    def test_masked_variants_stable_when_perturbed_action_not_argmax(self):
        for variant in (MULTIPASS, SEPARATE):
            qf = make_qf(variant, seed=21)
            checked = 0
            for seed in range(50):
                s, x = random_point(SPACE, 400 + seed)
                q = qf.evaluate(s[None, :], x[None, :])[0]
                best = int(np.argmax(q))
                for j in range(3):
                    if j == best:
                        continue
                    x2 = x.copy()
                    sl = SPACE.block(j)
                    x2[sl] = np.clip(x2[sl] + 0.5, -1.0, 1.0)
                    q2 = qf.evaluate(s[None, :], x2[None, :])[0]
                    others = [i for i in range(3) if i != j]
                    if np.argmax(q2[others]) == others.index(best) and q2[best] >= q2.max():
                        checked += 1
                    assert (q2[others] == q[others]).all()
            assert checked > 0


class TestSensitivitySweep:
    def test_multipass_rows_vary_only_in_swept_column(self):
        qf = make_qf(MULTIPASS, seed=22)
        s, x = random_point(SPACE, 23)
        table = q_sensitivity_sweep(qf, s, x, sweep_action=0, grid=np.linspace(-1, 1, 7))
        assert table.shape == (7, 3)
        assert (table[:, 1] == table[0, 1]).all()
        assert (table[:, 2] == table[0, 2]).all()
        assert np.ptp(table[:, 0]) > 0

    def test_joint_some_other_column_varies(self):
        qf = make_qf(JOINT, seed=24)
        s, x = random_point(SPACE, 25)
        table = q_sensitivity_sweep(qf, s, x, sweep_action=0, grid=np.linspace(-1, 1, 7))
        assert max(np.ptp(table[:, 1]), np.ptp(table[:, 2])) > 0

    def test_degenerate_grid_matches_direct_evaluation(self):
        qf = make_qf(MULTIPASS, seed=26)
        s, x = random_point(SPACE, 27)
        table = q_sensitivity_sweep(qf, s, x, sweep_action=2, grid=[x[3]])
        assert (table[0] == q_multipass(qf, s, x)).all()

    def test_out_of_bounds_grid_rejected(self):
        qf = make_qf(MULTIPASS, seed=28)
        s, x = random_point(SPACE, 29)
        with pytest.raises(ValueError):
            q_sensitivity_sweep(qf, s, x, sweep_action=0, grid=[1.5])
