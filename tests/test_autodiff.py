"""Op-level forward values, hand oracles, and finite-difference checks."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dekws.autodiff as ad
from dekws.errors import InvalidInputError, InvalidShapeError, TrainingFaultError
from dekws.model import TcResNet8, TcResNet8Config


def tensor(data, grad=True, name=""):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad, name=name)


class TestConv1d:
    def test_identity_kernel_passes_input_through(self):
        rng = np.random.default_rng(0)
        x = tensor(rng.standard_normal((1, 3, 10)))
        w = np.zeros((3, 3, 1))
        for c in range(3):
            w[c, c, 0] = 1.0
        out = ad.conv1d(x, tensor(w), tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_cross_correlation(self):
        # (1,2,3) * (1,1) -> (1+2, 2+3) = (3, 5)
        x = tensor([[[1.0, 2.0, 3.0]]])
        w = tensor([[[1.0, 1.0]]])
        out = ad.conv1d(x, w, tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[[3.0, 5.0]]])

    def test_output_length_formula(self):
        x = tensor(np.zeros((1, 16, 98)))
        w = tensor(np.zeros((24, 16, 9)))
        out = ad.conv1d(x, w, tensor(np.zeros(24)), stride=2, padding=4)
        assert out.shape == (1, 24, 49)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidShapeError):
            ad.conv1d(tensor(np.zeros((1, 2, 8))), tensor(np.zeros((4, 3, 3))),
                      tensor(np.zeros(4)))
        with pytest.raises(InvalidShapeError):
            ad.conv1d(tensor(np.zeros((1, 3, 2))), tensor(np.zeros((4, 3, 5))),
                      tensor(np.zeros(4)))
        with pytest.raises(InvalidShapeError, match="N, C_in, L"):
            # An unbatched (C_in, L) input needs an explicit batch axis.
            ad.conv1d(tensor(np.zeros((3, 8))), tensor(np.zeros((4, 3, 3))),
                      tensor(np.zeros(4)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        x = tensor(rng.standard_normal((2, 3, 8)), name="x")
        w = tensor(rng.standard_normal((4, 3, 3)), name="w")
        b = tensor(rng.standard_normal(4), name="b")
        coeffs = ad.Tensor(rng.standard_normal((2, 4, 4)))
        report = ad.grad_check(
            lambda: ad.tsum(ad.mul(ad.conv1d(x, w, b, stride=2, padding=1), coeffs)),
            [x, w, b],
        )
        assert report.passed, report.per_input


class TestBatchNorm1d:
    def test_normalized_input_is_fixpoint(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3, 50))
        x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
        out = ad.batchnorm1d(
            tensor(x), tensor(np.ones(3)), tensor(np.zeros(3)),
            np.zeros(3), np.ones(3), training=True, eps=0.0,
        )
        np.testing.assert_allclose(out.data, x, atol=1e-6)
        # With the default eps the output is still the input up to the
        # variance floor's ~5e-6 relative shrink.
        out_eps = ad.batchnorm1d(
            tensor(x), tensor(np.ones(3)), tensor(np.zeros(3)),
            np.zeros(3), np.ones(3), training=True,
        )
        np.testing.assert_allclose(out_eps.data, x, atol=1e-4)

    def test_constant_channel_collapses_to_beta(self):
        x = np.full((2, 3, 5), 7.0)
        beta = np.array([0.5, -1.0, 2.0])
        out = ad.batchnorm1d(
            tensor(x), tensor(np.ones(3)), tensor(beta),
            np.zeros(3), np.ones(3), training=True,
        )
        np.testing.assert_allclose(out.data, np.broadcast_to(beta[None, :, None], x.shape),
                                   atol=1e-3)

    def test_running_stats_hand_computed(self):
        x = np.stack([
            np.stack([np.array([1.0, 2.0, 3.0]), np.array([4.0, 4.0, 4.0])]),
            np.stack([np.array([5.0, 6.0, 7.0]), np.array([0.0, 2.0, 2.0])]),
        ])  # (2, 2, 3)
        running_mean = np.array([0.5, 1.0])
        running_var = np.array([1.0, 2.0])
        batch_mean = x.mean(axis=(0, 2))
        batch_var = x.var(axis=(0, 2))
        expected_mean = 0.9 * np.array([0.5, 1.0]) + 0.1 * batch_mean
        expected_var = 0.9 * np.array([1.0, 2.0]) + 0.1 * batch_var
        ad.batchnorm1d(
            tensor(x), tensor(np.ones(2)), tensor(np.zeros(2)),
            running_mean, running_var, training=True, momentum=0.1,
        )
        np.testing.assert_allclose(running_mean, expected_mean, rtol=1e-12)
        np.testing.assert_allclose(running_var, expected_var, rtol=1e-12)

    def test_eval_mode_uses_running_stats(self):
        x = tensor(np.ones((1, 2, 2)))
        out = ad.batchnorm1d(
            x, tensor(np.ones(2)), tensor(np.zeros(2)),
            np.array([1.0, 0.0]), np.array([4.0, 1.0]), training=False, eps=0.0,
        )
        np.testing.assert_allclose(out.data[0, 0], 0.0)
        np.testing.assert_allclose(out.data[0, 1], 1.0)

    def test_single_element_batch_rejected_in_train_mode(self):
        with pytest.raises(InvalidInputError):
            ad.batchnorm1d(
                tensor(np.ones((1, 3, 1))), tensor(np.ones(3)), tensor(np.zeros(3)),
                np.zeros(3), np.ones(3), training=True,
            )

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        x = tensor(rng.standard_normal((3, 4, 5)), name="x")
        gamma = tensor(1 + 0.1 * rng.standard_normal(4), name="gamma")
        beta = tensor(rng.standard_normal(4), name="beta")
        coeffs = ad.Tensor(rng.standard_normal((3, 4, 5)))
        report = ad.grad_check(
            lambda: ad.tsum(ad.mul(
                ad.batchnorm1d(x, gamma, beta, np.zeros(4), np.ones(4), True), coeffs
            )),
            [x, gamma, beta],
        )
        assert report.passed, report.per_input


class TestRelu:
    def test_definition(self):
        out = ad.relu(tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_dead_region_zero_gradient(self):
        x = tensor([-3.0, -0.5, -10.0])
        out = ad.tsum(ad.relu(x))
        out.backward()
        np.testing.assert_array_equal(out.data, 0.0)
        np.testing.assert_array_equal(x.grad, np.zeros(3))

    def test_nan_propagates(self):
        # A NaN activation must reach the loss so the finite-loss check sees it.
        out = ad.relu(tensor([np.nan, -1.0, 2.0]))
        assert np.isnan(out.data[0])
        np.testing.assert_array_equal(out.data[1:], [0.0, 2.0])

    def test_gradient_matches_finite_differences_away_from_zero(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((4, 6))
        x = tensor(np.sign(raw) * (np.abs(raw) + 0.05), name="x")
        coeffs = ad.Tensor(rng.standard_normal((4, 6)))
        report = ad.grad_check(lambda: ad.tsum(ad.mul(ad.relu(x), coeffs)), [x])
        assert report.passed, report.per_input


class TestGlobalAvgPool:
    def test_constant_over_time(self):
        out = ad.global_avg_pool(tensor(np.full((2, 3, 7), 4.5)))
        np.testing.assert_allclose(out.data, np.full((2, 3), 4.5))

    def test_arithmetic_mean(self):
        out = ad.global_avg_pool(tensor([[[1.0, 3.0]]]))
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_backward_spreads_uniformly(self):
        x = tensor(np.zeros((1, 1, 4)))
        out = ad.tsum(ad.global_avg_pool(x))
        out.backward()
        np.testing.assert_array_equal(x.grad, np.full((1, 1, 4), 0.25))

    def test_empty_time_axis_rejected(self):
        with pytest.raises(InvalidShapeError):
            ad.global_avg_pool(tensor(np.zeros((1, 2, 0))))


class TestLinear:
    def test_identity(self):
        x = tensor([[1.0, -2.0], [0.5, 3.0]])
        out = ad.linear(x, tensor(np.eye(2)), tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_affine_map(self):
        out = ad.linear(
            tensor([[1.0, 2.0]]),
            tensor([[1.0, 1.0], [0.0, 1.0]]),
            tensor([0.0, 1.0]),
        )
        np.testing.assert_array_equal(out.data, [[3.0, 3.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidShapeError):
            ad.linear(tensor(np.zeros((2, 3))), tensor(np.zeros((4, 5))),
                      tensor(np.zeros(4)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        x = tensor(rng.standard_normal((3, 4)), name="x")
        w = tensor(rng.standard_normal((5, 4)), name="w")
        b = tensor(rng.standard_normal(5), name="b")
        coeffs = ad.Tensor(rng.standard_normal((3, 5)))
        report = ad.grad_check(
            lambda: ad.tsum(ad.mul(ad.linear(x, w, b), coeffs)), [x, w, b]
        )
        assert report.passed, report.per_input


class TestCrossEntropy:
    def test_uniform_logits_30_classes(self):
        logits = tensor(np.zeros((2, 30)))
        loss = ad.cross_entropy_loss(logits, np.array([0, 17]))
        assert loss.item() == pytest.approx(np.log(30.0), rel=1e-12)

    def test_saturated_true_class(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 20.0
        loss = ad.cross_entropy_loss(tensor(logits), np.array([1]))
        assert 0.0 < loss.item() < 1e-8

    def test_hand_two_class_case(self):
        loss = ad.cross_entropy_loss(tensor([[1.0, 2.0]]), np.array([1]))
        expected = -np.log(np.exp(2.0) / (np.exp(1.0) + np.exp(2.0)))
        assert loss.item() == pytest.approx(expected, rel=1e-12)
        assert loss.item() == pytest.approx(0.3133, abs=5e-5)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(InvalidInputError):
            ad.cross_entropy_loss(tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(InvalidInputError):
            ad.cross_entropy_loss(tensor(np.zeros((1, 3))), np.array([-1]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = tensor(rng.standard_normal((4, 7)), name="logits")
        labels = np.array([0, 3, 6, 2])
        report = ad.grad_check(lambda: ad.cross_entropy_loss(logits, labels), [logits])
        assert report.passed, report.per_input

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_nonnegative_on_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        logits = tensor(5 * rng.standard_normal((3, 6)))
        labels = rng.integers(0, 6, size=3)
        assert ad.cross_entropy_loss(logits, labels).item() >= 0.0


class TestMseLogitLoss:
    def test_identical_inputs_give_zero(self):
        z = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert ad.mse_logit_loss(tensor(z), tensor(z.copy())).item() == 0.0

    def test_unit_offset(self):
        stored = tensor(np.zeros((2, 3)))
        current = tensor(np.ones((2, 3)))
        assert ad.mse_logit_loss(stored, current).item() == 1.0

    def test_hand_case(self):
        loss = ad.mse_logit_loss(tensor([[0.0, 2.0]]), tensor([[1.0, 0.0]]))
        assert loss.item() == pytest.approx(2.5, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidShapeError):
            ad.mse_logit_loss(tensor(np.zeros((2, 3))), tensor(np.zeros((3, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        stored = tensor(rng.standard_normal((3, 5)), name="stored")
        current = tensor(rng.standard_normal((3, 5)), name="current")
        report = ad.grad_check(
            lambda: ad.mse_logit_loss(stored, current), [stored, current]
        )
        assert report.passed, report.per_input

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_nonnegative_on_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        a = tensor(rng.standard_normal((2, 4)))
        b = tensor(rng.standard_normal((2, 4)))
        assert ad.mse_logit_loss(a, b).item() >= 0.0


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = tensor([1.0, -2.0, 3.0])
        state = ad.init_adam([p], lr=0.1)
        before = p.data.copy()
        ad.adam_step([p], [np.zeros(3)], state)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_is_signed_lr(self):
        p = tensor([1.0, 1.0])
        state = ad.init_adam([p], lr=0.1)
        ad.adam_step([p], [np.array([0.5, -2.0])], state)
        np.testing.assert_allclose(p.data, [1.0 - 0.1, 1.0 + 0.1], rtol=1e-7)

    def test_two_steps_hand_unrolled(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        theta = 0.7
        m = v = 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p = tensor([0.7])
        state = ad.init_adam([p], lr=lr)
        ad.adam_step([p], [np.array([1.0])], state)
        ad.adam_step([p], [np.array([1.0])], state)
        assert p.data[0] == pytest.approx(theta, rel=1e-15)
        assert state.t == 2

    def test_zero_lr_is_bit_identical(self):
        rng = np.random.default_rng(9)
        p = tensor(rng.standard_normal(5))
        before = p.data.tobytes()
        state = ad.init_adam([p], lr=0.0)
        for _ in range(3):
            ad.adam_step([p], [rng.standard_normal(5)], state)
        assert p.data.tobytes() == before

    def test_non_finite_gradient_aborts_step(self):
        p = tensor([1.0])
        state = ad.init_adam([p], lr=0.1)
        with pytest.raises(TrainingFaultError):
            ad.adam_step([p], [np.array([np.nan])], state)
        assert state.t == 0
        assert p.data[0] == 1.0

    def test_moments_stay_float64_for_float32_params(self):
        p = ad.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        state = ad.init_adam([p], lr=0.01)
        ad.adam_step([p], [np.ones(3, dtype=np.float32)], state)
        assert state.m[0].dtype == np.float64
        assert state.v[0].dtype == np.float64
        assert p.data.dtype == np.float32


class TestGraphMechanics:
    def test_add_and_scalar_mul_compose(self):
        a = tensor([1.0, 2.0])
        b = tensor([3.0, 4.0])
        out = ad.tsum(ad.add(a, b) * 2.0)
        out.backward()
        assert out.item() == 20.0
        np.testing.assert_array_equal(a.grad, [2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_shared_node_accumulates(self):
        a = tensor([2.0])
        out = ad.tsum(ad.add(a, a))
        out.backward()
        np.testing.assert_array_equal(a.grad, [2.0])

    def test_add_shape_mismatch_rejected(self):
        with pytest.raises(InvalidShapeError):
            ad.add(tensor(np.zeros(2)), tensor(np.zeros(3)))

    def test_backward_requires_scalar(self):
        with pytest.raises(InvalidShapeError):
            tensor(np.zeros(3)).backward()

    def test_no_grad_builds_no_graph(self):
        x = tensor(np.ones((1, 4)))
        with ad.no_grad():
            out = ad.linear(x, tensor(np.eye(4)), tensor(np.zeros(4)))
        assert out._backward is None
        assert not out.requires_grad

    def test_forward_determinism_and_finiteness(self):
        rng = np.random.default_rng(10)
        x_data = rng.standard_normal((2, 3, 16))
        w = tensor(rng.standard_normal((4, 3, 5)))
        b = tensor(rng.standard_normal(4))

        def forward():
            h = ad.relu(ad.conv1d(tensor(x_data, grad=False), w, b, 2, 2))
            return ad.tsum(ad.global_avg_pool(h))

        first = forward()
        second = forward()
        assert first.data.tobytes() == second.data.tobytes()
        first.backward()
        assert np.isfinite(first.data).all()
        assert np.isfinite(w.grad).all() and np.isfinite(b.grad).all()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_small_graphs_are_finite(self, seed):
        rng = np.random.default_rng(seed)
        x = tensor(rng.standard_normal((2, 2, 6)))
        gamma = tensor(np.ones(2))
        beta = tensor(np.zeros(2))
        h = ad.batchnorm1d(x, gamma, beta, np.zeros(2), np.ones(2), True)
        loss = ad.cross_entropy_loss(
            ad.global_avg_pool(ad.relu(h)), rng.integers(0, 2, size=2)
        )
        loss.backward()
        assert np.isfinite(loss.item())
        for t in (x, gamma, beta):
            assert np.isfinite(t.grad).all()


class TestGraphRelease:
    def _graph(self):
        rng = np.random.default_rng(3)
        x = tensor(rng.standard_normal((2, 3, 8)), name="x")
        w = tensor(rng.standard_normal((4, 3, 3)), name="w")
        b = tensor(np.zeros(4), name="b")
        h = ad.conv1d(x, w, b, 1, 1)
        r = ad.relu(h)
        out = ad.tsum(ad.global_avg_pool(r))
        return (x, w, b), (h, r, out)

    def test_interior_nodes_are_released_and_leaves_keep_gradients(self):
        leaves, interior = self._graph()
        interior[-1].backward()
        for node in interior:
            assert node.grad is None and node.node.parents == ()
        for leaf in leaves:
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape

    def test_second_backward_on_the_same_root_raises(self):
        (x, w, b), (_, _, out) = self._graph()
        out.backward()
        grads = [t.grad.copy() for t in (x, w, b)]
        with pytest.raises(InvalidInputError, match="released"):
            out.backward()
        for t, g in zip((x, w, b), grads):
            np.testing.assert_array_equal(t.grad, g)

    def test_new_graph_over_a_released_node_raises(self):
        _, (_, r, out) = self._graph()
        out.backward()
        with pytest.raises(InvalidInputError, match="released"):
            ad.tsum(r).backward()

    @pytest.mark.parametrize("padding", [0, 1])
    def test_graph_holds_no_input_without_a_gradient(self, padding):
        rng = np.random.default_rng(4)
        x = tensor(rng.standard_normal((2, 3, 8)), grad=False, name="x")
        w = tensor(rng.standard_normal((4, 3, 3)), name="w")
        b = tensor(np.zeros(4), name="b")
        h = ad.conv1d(x, w, b, 1, padding)
        assert h.node.parents == (w.node, b.node)
        assert all(cell.cell_contents is not x for cell in h._backward.__closure__)
        stored = tensor(np.zeros((2, 4)), grad=False)
        loss = ad.mse_logit_loss(stored, ad.global_avg_pool(h))
        assert loss.node.parents[0] is not stored and len(loss.node.parents) == 1
        loss.backward()
        assert x.grad is None and w.grad is not None and b.grad is not None

    def test_values_stay_readable_after_release(self):
        _, (h, r, out) = self._graph()
        before = (h.data.copy(), out.item())
        out.backward()
        np.testing.assert_array_equal(h.data, before[0])
        assert out.item() == before[1]


class TestGraphHoldsNoValues:
    """A graph keeps nodes and the arrays its closures saved, never an op
    result's values: those live as long as the caller holds the result."""

    def _chain(self, keep_intermediates):
        rng = np.random.default_rng(6)
        x = tensor(rng.standard_normal((3, 2, 10)), name="x")
        w = tensor(0.5 * rng.standard_normal((4, 2, 3)), name="w")
        b = tensor(0.1 * rng.standard_normal(4), name="b")
        gamma = tensor(1.0 + 0.1 * rng.standard_normal(4), name="gamma")
        beta = tensor(0.1 * rng.standard_normal(4), name="beta")
        h = ad.conv1d(x, w, b, 1, 1)
        n = ad.batchnorm1d(h, gamma, beta, np.zeros(4), np.ones(4), True)
        pooled = ad.global_avg_pool(ad.relu(n))
        loss = ad.tsum(ad.mul(pooled, ad.Tensor(rng.standard_normal(pooled.shape))))
        arrays = [weakref.ref(a) for t in (h, n) for a in (t.data, t.data.base)]
        kept = (h, n) if keep_intermediates else ()
        del h, n, pooled
        return loss, arrays, kept, (x, w, b, gamma, beta)

    def test_unreferenced_intermediates_are_freed_while_the_graph_lives(self):
        loss, arrays, _, leaves = self._chain(keep_intermediates=False)
        assert all(ref() is None for ref in arrays)
        assert loss._backward is not None and loss.node.parents
        kept_loss, kept_arrays, kept, kept_leaves = self._chain(keep_intermediates=True)
        assert len(kept) == 2 and all(ref() is not None for ref in kept_arrays)
        loss.backward()
        kept_loss.backward()
        for got, want in zip(leaves, kept_leaves):
            assert got.grad.tobytes() == want.grad.tobytes(), got.name


class TestGraphNodes:
    """A tensor that takes a gradient owns a node; no other tensor has one."""

    def test_tensor_without_a_gradient_has_no_node(self):
        x = tensor(np.ones((2, 3)), grad=False)
        assert x.node is None and x.grad is None and not x.requires_grad
        with ad.no_grad():
            out = ad.relu(tensor(np.ones((2, 3))))
        assert out.node is None and out.grad is None and out._backward is None

    def test_leaf_node_has_no_parents_and_no_closure(self):
        x = tensor(np.ones(3))
        assert x.node.parents == () and x._backward is None and x.grad is None
        ad.tsum(ad.relu(x)).backward()
        np.testing.assert_array_equal(x.grad, np.ones(3))
        assert x.grad is x.node.grad

    def test_setting_backward_replaces_the_closure_the_walk_calls(self):
        # The benchmark tracer times each op's backward this way.
        x = tensor(np.array([1.0, -2.0, 3.0]))
        out = ad.relu(x)
        original = out._backward
        seen = []

        def doubled(g):
            seen.append(g.copy())
            original(2.0 * g)

        out._backward = doubled
        assert out.node.backward is doubled
        ad.tsum(out).backward()
        assert len(seen) == 1
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 2.0])

    def test_backward_from_a_tensor_outside_any_graph_rejected(self):
        with pytest.raises(InvalidInputError, match="takes a gradient"):
            tensor(np.ones(()), grad=False).backward()


# ---------------------------------------------------------------------------
# memory-order equivalence: results must not depend on how inputs are laid out


def channel_major(a):
    """Same values as a, stored channel-major: (N, C, L) view of a (C, N, L) array."""
    if a.ndim == 2:
        return np.asfortranarray(a)
    return np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)


def run_op(op, x_data, coeff_data, params):
    """Forward op on x, then backward from sum(out * coeffs)."""
    x = tensor(x_data)
    out = op(x, *params)
    ad.tsum(ad.mul(out, ad.Tensor(coeff_data))).backward()
    return out.data, [x.grad] + [p.grad for p in params if isinstance(p, ad.Tensor)]


def ref_conv1d(xd, wd, bd, stride, padding, g):
    """N-major im2col conv1d and its gradients, as a loop-built reference."""
    n, c_in, length = xd.shape
    c_out, _, k = wd.shape
    l_out = (length + 2 * padding - k) // stride + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding)))
    cols = np.stack(
        [xp[:, :, j : j + stride * l_out : stride] for j in range(k)], axis=2
    ).reshape(n, c_in * k, l_out)
    w2 = wd.reshape(c_out, c_in * k)
    out = np.matmul(w2, cols) + bd[None, :, None]
    grad_w = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(wd.shape)
    grad_cols = np.matmul(w2.T, g).reshape(n, c_in, k, l_out)
    grad_xp = np.zeros_like(xp)
    for j in range(k):
        grad_xp[:, :, j : j + stride * l_out : stride] += grad_cols[:, :, j, :]
    grad_x = grad_xp[:, :, padding : padding + length]
    return out, [grad_x, grad_w, g.sum(axis=(0, 2))]


def ref_batchnorm1d(xd, gamma, beta, running_mean, running_var, training, g, eps=1e-5):
    if training:
        mean, var = xd.mean(axis=(0, 2)), xd.var(axis=(0, 2))
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mean[None, :, None]) * inv_std[None, :, None]
    out = gamma[None, :, None] * xhat + beta[None, :, None]
    if training:
        dxhat = g * gamma[None, :, None]
        dx = inv_std[None, :, None] * (
            dxhat - dxhat.mean(axis=(0, 2), keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=(0, 2), keepdims=True)
        )
    else:
        dx = g * (gamma * inv_std)[None, :, None]
    return out, [dx, (g * xhat).sum(axis=(0, 2)), g.sum(axis=(0, 2))]


def assert_matches_reference(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestMemoryOrderEquivalence:
    @pytest.mark.parametrize(
        "x_shape, w_shape, stride, padding",
        [
            ((1, 3, 11), (4, 3, 3), 1, 1),  # a batch of one
            ((2, 3, 20), (5, 3, 9), 2, 4),
            ((3, 4, 9), (5, 4, 1), 2, 0),  # k = 1, the residual shortcut
            ((2, 3, 8), (4, 3, 3), 1, 0),
        ],
    )
    def test_conv1d(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(11)
        xd = rng.standard_normal(x_shape)
        wd, bd = rng.standard_normal(w_shape), rng.standard_normal(w_shape[0])
        length = x_shape[-1]
        l_out = (length + 2 * padding - w_shape[2]) // stride + 1
        coeffs = rng.standard_normal((x_shape[0], w_shape[0], l_out))
        want_out, want_grads = ref_conv1d(xd, wd, bd, stride, padding, coeffs)
        outs = []
        for layout in (np.ascontiguousarray, channel_major):
            out, grads = run_op(
                lambda x, w, b: ad.conv1d(x, w, b, stride=stride, padding=padding),
                layout(xd), layout(coeffs), [tensor(wd), tensor(bd)],
            )
            outs.append(out)
            assert_matches_reference(out, want_out)
            for got, want in zip(grads, want_grads):
                assert_matches_reference(got, want)
        assert outs[0].tobytes() == np.ascontiguousarray(outs[1]).tobytes()

    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm1d(self, training):
        rng = np.random.default_rng(12)
        xd = rng.standard_normal((3, 4, 13)) * 2.0 + 0.5
        gamma, beta = rng.standard_normal(4), rng.standard_normal(4)
        run_mean, run_var = rng.standard_normal(4), rng.uniform(0.5, 2.0, 4)
        coeffs = rng.standard_normal(xd.shape)
        want_out, want_grads = ref_batchnorm1d(
            xd, gamma, beta, run_mean, run_var, training, coeffs
        )
        outs, stats = [], []
        for layout in (np.ascontiguousarray, channel_major):
            rm, rv = run_mean.copy(), run_var.copy()
            out, grads = run_op(
                lambda x, g, b: ad.batchnorm1d(x, g, b, rm, rv, training),
                layout(xd), layout(coeffs), [tensor(gamma), tensor(beta)],
            )
            outs.append(out)
            stats.append((rm, rv))
            assert_matches_reference(out, want_out)
            for got, want in zip(grads, want_grads):
                assert_matches_reference(got, want)
        assert outs[0].tobytes() == np.ascontiguousarray(outs[1]).tobytes()
        assert stats[0][0].tobytes() == stats[1][0].tobytes()
        assert stats[0][1].tobytes() == stats[1][1].tobytes()

    def test_global_avg_pool(self):
        rng = np.random.default_rng(13)
        xd = rng.standard_normal((3, 5, 13))
        coeffs = rng.standard_normal((3, 5))
        outs = []
        for layout in (np.ascontiguousarray, channel_major):
            out, (grad_x,) = run_op(ad.global_avg_pool, layout(xd), coeffs, [])
            outs.append(out)
            assert_matches_reference(out, xd.mean(axis=2))
            assert_matches_reference(
                grad_x, np.repeat(coeffs[:, :, None] / 13, 13, axis=2)
            )
        assert outs[0].tobytes() == np.ascontiguousarray(outs[1]).tobytes()


# ---------------------------------------------------------------------------
# byte identity: the training kernels reproduce the bits of the kernels they
# replaced, which are kept here as references


# TC-ResNet-8's conv layers on 98 frames: (C_in, C_out, K, stride, padding, L).
TC_RESNET8_CONVS = [
    (40, 16, 3, 1, 1, 98),  # stem
    (16, 24, 9, 2, 4, 98), (24, 24, 9, 1, 4, 49), (16, 24, 1, 2, 0, 98),  # block 1
    (24, 32, 9, 2, 4, 49), (32, 32, 9, 1, 4, 25), (24, 32, 1, 2, 0, 49),  # block 2
    (32, 48, 9, 2, 4, 25), (48, 48, 9, 1, 4, 13), (32, 48, 1, 2, 0, 25),  # block 3
]


def previous_conv1d(xd, wd, bd, stride, padding, g):
    """conv1d as computed before position-major col2im: output, then the x,
    weight and bias gradients. The weight gradient is g2 @ cols2.T, and
    col2im adds each tap into a (C_in, N, L_pad) array."""
    n, c_in, length = xd.shape
    c_out, _, k = wd.shape
    l_pad = length + 2 * padding
    l_out = (l_pad - k) // stride + 1
    xp = np.zeros((c_in, n, l_pad), dtype=xd.dtype)
    xp[:, :, padding : padding + length] = xd.transpose(1, 0, 2)
    cols = np.stack([xp[:, :, j : j + stride * l_out : stride] for j in range(k)], axis=1)
    cols = cols.reshape(c_in * k, n, l_out)
    w2 = wd.reshape(c_out, c_in * k)
    out_c = np.empty((c_out, n, l_out), dtype=xd.dtype)
    np.matmul(w2, cols.transpose(1, 0, 2), out=out_c.transpose(1, 0, 2))
    out_c += bd[:, None, None]
    g2 = g.transpose(1, 0, 2).reshape(c_out, n * l_out)
    cols2 = cols.reshape(c_in * k, n * l_out)
    grad_cols = (w2.T @ g2).reshape(c_in, k, n, l_out)
    grad_xp = np.zeros((c_in, n, l_pad), dtype=xd.dtype)
    for j in range(k):
        grad_xp[:, :, j : j + stride * l_out : stride] += grad_cols[:, j]
    grad_x = grad_xp[:, :, padding : padding + length].transpose(1, 0, 2)
    return out_c.transpose(1, 0, 2), [grad_x, (g2 @ cols2.T).reshape(wd.shape),
                                      g2.sum(axis=1)]


def previous_batchnorm1d_train(xd, gamma, beta, running_mean, running_var, g,
                               momentum=0.1, eps=1e-5):
    """Train-mode batchnorm1d as computed before the one-copy statistics:
    output, then the x, gamma and beta gradients; updates the running stats."""
    n, c, length = xd.shape
    rows = xd.transpose(1, 0, 2).reshape(c, n * length)
    mean = rows.mean(axis=1, dtype=np.float64)
    sq_dev = np.subtract(rows, mean[:, None], dtype=np.float64)
    np.square(sq_dev, out=sq_dev)
    var = sq_dev.mean(axis=1)
    running_mean[:] = (1.0 - momentum) * running_mean + momentum * mean
    running_var[:] = (1.0 - momentum) * running_var + momentum * var
    inv_std = (1.0 / np.sqrt(var + eps)).astype(xd.dtype)
    xhat = np.subtract(rows, mean.astype(xd.dtype)[:, None])
    xhat *= inv_std[:, None]
    out = xhat * gamma[:, None] + beta[:, None]
    g2 = g.transpose(1, 0, 2).reshape(c, n * length)
    dxhat = g2 * gamma[:, None]
    mean_dxhat = dxhat.mean(axis=1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=1, keepdims=True)
    dx = ((dxhat - mean_dxhat) - xhat * mean_dxhat_xhat) * inv_std[:, None]
    return (out.reshape(c, n, length).transpose(1, 0, 2),
            [dx.reshape(c, n, length).transpose(1, 0, 2), (g2 * xhat).sum(axis=1),
             g2.sum(axis=1)])


def relu_like_gradient(rng, shape, dtype):
    """A channel-major upstream gradient with ReLU's zeros, -0.0 included."""
    g = rng.standard_normal(shape) * (rng.random(shape) > 0.3)
    return channel_major(g.astype(dtype))


def backward_through(out, g):
    """Backpropagate sum(out * g), which seeds out's gradient with g exactly."""
    ad.tsum(ad.mul(out, ad.Tensor(g))).backward()


def assert_same_bytes(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 16, 128, 144, 200])
@pytest.mark.parametrize("layer", TC_RESNET8_CONVS,
                         ids=[f"{c[0]}-{c[1]}-k{c[2]}-s{c[3]}" for c in TC_RESNET8_CONVS])
class TestTrainingKernelsAreByteIdentical:
    def test_conv1d(self, layer, n, dtype):
        c_in, c_out, k, stride, padding, length = layer
        l_out = (length + 2 * padding - k) // stride + 1
        rng = np.random.default_rng(21)
        xd = channel_major(rng.standard_normal((n, c_in, length)).astype(dtype))
        wd = (rng.standard_normal((c_out, c_in, k)) / np.sqrt(c_in * k)).astype(dtype)
        bd = rng.standard_normal(c_out).astype(dtype)
        g = relu_like_gradient(rng, (n, c_out, l_out), dtype)
        x, w, b = (ad.Tensor(a.copy(), requires_grad=True) for a in (xd, wd, bd))
        out = ad.conv1d(x, w, b, stride=stride, padding=padding)
        backward_through(out, g)
        want_out, want_grads = previous_conv1d(xd, wd, bd, stride, padding, g)
        assert_same_bytes(out.data, want_out)
        for got, want in zip((x.grad, w.grad, b.grad), want_grads):
            assert_same_bytes(got, want)

    def test_batchnorm1d_train_mode(self, layer, n, dtype):
        _, c, k, stride, padding, length = layer
        l_out = (length + 2 * padding - k) // stride + 1
        rng = np.random.default_rng(22)
        xd = channel_major((rng.standard_normal((n, c, l_out)) * 2.0 + 0.5).astype(dtype))
        gamma = (1.0 + 0.2 * rng.standard_normal(c)).astype(dtype)
        beta = (0.1 * rng.standard_normal(c)).astype(dtype)
        run_mean, run_var = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)
        g = relu_like_gradient(rng, (n, c, l_out), dtype)
        x, gm, bt = (ad.Tensor(a.copy(), requires_grad=True) for a in (xd, gamma, beta))
        rm, rv = run_mean.copy(), run_var.copy()
        out = ad.batchnorm1d(x, gm, bt, rm, rv, training=True)
        backward_through(out, g)
        want_rm, want_rv = run_mean.copy(), run_var.copy()
        want_out, want_grads = previous_batchnorm1d_train(
            xd, gamma, beta, want_rm, want_rv, g
        )
        assert_same_bytes(out.data, want_out)
        assert_same_bytes(rm, want_rm)
        assert_same_bytes(rv, want_rv)
        for got, want in zip((x.grad, gm.grad, bt.grad), want_grads):
            assert_same_bytes(got, want)


# ---------------------------------------------------------------------------
# no-grad conv1d: the forward without a graph (evaluation, batch-norm
# recalibration) gives the bits of the kernels it replaced as well


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 16, 128, 200, 500])
@pytest.mark.parametrize("layer", TC_RESNET8_CONVS,
                         ids=[f"{c[0]}-{c[1]}-k{c[2]}-s{c[3]}" for c in TC_RESNET8_CONVS])
def test_no_grad_conv1d_is_byte_identical(layer, n, dtype):
    c_in, c_out, k, stride, padding, length = layer
    l_out = (length + 2 * padding - k) // stride + 1
    rng = np.random.default_rng(23)
    xd = channel_major(rng.standard_normal((n, c_in, length)).astype(dtype))
    wd = (rng.standard_normal((c_out, c_in, k)) / np.sqrt(c_in * k)).astype(dtype)
    bd = rng.standard_normal(c_out).astype(dtype)
    x, w, b = (ad.Tensor(a.copy(), requires_grad=True) for a in (xd, wd, bd))
    with ad.no_grad():
        out = ad.conv1d(x, w, b, stride=stride, padding=padding)
    assert out._backward is None
    g = np.zeros((n, c_out, l_out), dtype=dtype)
    want_out, _ = previous_conv1d(xd, wd, bd, stride, padding, g)
    assert_same_bytes(out.data, want_out)


def previous_conv1d_forward(x, weight, bias, stride=1, padding=0):
    """Drop-in for ad.conv1d computing previous_conv1d's output, no graph."""
    n, _, length = x.shape
    c_out, _, k = weight.shape
    g = np.zeros((n, c_out, (length + 2 * padding - k) // stride + 1), dtype=x.dtype)
    out, _ = previous_conv1d(x.data, weight.data, bias.data, stride, padding, g)
    return ad.Tensor(out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 16, 128, 200, 500])
@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
def test_no_grad_model_forward_matches_previous_conv1d(monkeypatch, training, n, dtype):
    features = np.random.default_rng(24).standard_normal((n, 98, 40))
    nets = [TcResNet8(TcResNet8Config(num_classes=12), seed=5, dtype=dtype)
            for _ in range(2)]
    with ad.no_grad():
        got = nets[0].forward(features, training=training).data
        monkeypatch.setattr(ad, "conv1d", previous_conv1d_forward)
        want = nets[1].forward(features, training=training).data
    assert_same_bytes(got, want)
    for a, b in zip(nets[0].state_arrays().values(), nets[1].state_arrays().values()):
        assert_same_bytes(a, b)


# ---------------------------------------------------------------------------
# conv1d memory: the forward pads and builds its columns a chunk of examples
# at a time, and the graph keeps the input itself, not a padded copy


MiB = 1 << 20


def traced(fn):
    """(result, bytes still held after fn, peak bytes during fn), by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
        return result, current - base, peak - base
    finally:
        tracemalloc.stop()


def test_float32_training_graph_at_batch_128_stays_under_32_mib():
    net = TcResNet8(TcResNet8Config(num_classes=30), seed=0, dtype=np.float32)
    features = np.random.default_rng(25).standard_normal((128, 98, 40)).astype(np.float32)
    labels = np.arange(128) % 30
    loss, held, _ = traced(
        lambda: ad.cross_entropy_loss(net.forward(features, training=True), labels))
    assert held <= 32 * MiB, held / MiB
    loss.backward()  # the graph is still whole and walkable
    assert all(p.grad is not None for p in net.parameters)


def float32_training_graph_held_and_peak():
    """(bytes a float32 30-class graph at batch 128 holds, peak bytes of its
    forward and backward pass), by tracemalloc."""
    net = TcResNet8(TcResNet8Config(num_classes=30), seed=0, dtype=np.float32)
    features = np.random.default_rng(27).standard_normal((128, 98, 40)).astype(np.float32)
    labels = np.arange(128) % 30

    def step():
        loss = ad.cross_entropy_loss(net.forward(features, training=True), labels)
        held = tracemalloc.get_traced_memory()[0]
        loss.backward()
        return held

    held, _, peak = traced(step)
    return held, peak


def test_float32_training_graph_holds_no_result_values():
    # It holds 8.5 MiB and peaks at 12.0 MiB. A graph that kept the conv
    # and batch-norm outputs no closure reads would hold 24.9 and peak at 27.2
    # (measured while convs still saved padded copies of their inputs).
    held, peak = float32_training_graph_held_and_peak()
    assert held <= 16 * MiB, held / MiB
    assert peak <= 20 * MiB, peak / MiB


def test_float32_training_graph_holds_each_conv_input_once():
    # 8.5 MiB held and a 12.0 MiB peak; with a padded copy of every padded
    # conv input in the graph it held 12.9 MiB and peaked at 16.4 MiB.
    held, peak = float32_training_graph_held_and_peak()
    assert held <= 10 * MiB, held / MiB
    assert peak <= 14 * MiB, peak / MiB


def test_padded_conv1d_graph_holds_no_copy_of_its_input():
    # A (24, 128, 57) float32 padded copy of this input would take 700 KiB.
    rng = np.random.default_rng(28)
    x = ad.Tensor(channel_major(rng.standard_normal((128, 24, 49)).astype(np.float32)),
                  requires_grad=True)
    w = ad.Tensor(rng.standard_normal((32, 24, 9)).astype(np.float32), requires_grad=True)
    b = ad.Tensor(np.zeros(32, dtype=np.float32), requires_grad=True)
    out, held, _ = traced(lambda: ad.conv1d(x, w, b, stride=2, padding=4))
    assert out._backward is not None
    assert held - out.data.nbytes < 64 << 10, (held - out.data.nbytes) / 1024


@pytest.mark.parametrize("block", [0, 1, 2])
def test_block_graph_holds_its_input_once(block):
    # conv1 and the shortcut conv both read the block input; the graph may
    # hold its bytes once, plus the three batch norms' normalized rows,
    # conv2's input, both ReLU masks and the output. Saving conv1's padded
    # copy as well would add 1.1 times the input.
    net = TcResNet8(TcResNet8Config(num_classes=30), seed=0, dtype=np.float32)
    c_in, c_out = net.cfg.channels[block : block + 2]
    length = (98, 49, 25)[block]
    rng = np.random.default_rng(29)
    act = 128 * c_out * ((length - 1) // 2 + 1)

    def block_graph():
        x = ad.Tensor(channel_major(
            rng.standard_normal((128, c_in, length)).astype(np.float32)), requires_grad=True)
        return x, net.blocks[block](x, training=True)

    (x, out), held, _ = traced(block_graph)
    expected = x.data.nbytes + 5 * act * 4 + 2 * act
    assert held <= expected + (64 << 10), (held - expected) / 1024
    ad.tsum(out).backward()
    assert x.grad is not None


def test_float64_no_grad_forward_over_500_rows_peaks_under_55_mib():
    # The shape of the default-config batch-norm recalibration pass.
    net = TcResNet8(TcResNet8Config(num_classes=30), seed=0, dtype=np.float64)
    features = np.random.default_rng(26).standard_normal((500, 98, 40))

    def forward():
        with ad.no_grad():
            return net.forward(features, training=True)

    _, _, peak = traced(forward)
    assert peak <= 55 * MiB, peak / MiB
