"""Autodiff core: forward values against brute-force references, gradient
routing, and finite-difference checks."""

import tracemalloc

import numpy as np
import pytest

from stanseg import autodiff
from stanseg.autodiff import (
    ConvParams,
    GraphConsumedError,
    ShapeMismatchError,
    Tensor,
    backward,
    concat_channels,
    conv2d,
    deconv2d,
    maxpool2d,
    no_grad,
    relu,
    sigmoid,
)

from reference import (
    conv2d_grads_ref,
    conv2d_ref,
    deconv2d_grads_ref,
    deconv2d_ref,
    grad_check,
    maxpool2d_first_argmax_ref,
    maxpool2d_ref,
)


def make_params(rng, cout, cin, k, requires_grad=True):
    w = Tensor(rng.standard_normal((cout, cin, k, k)), requires_grad=requires_grad)
    b = Tensor(rng.standard_normal(cout), requires_grad=requires_grad)
    return ConvParams(w, b)


CONV_CASES = [
    ((1, 1, 4, 4), 2, 1),
    ((2, 3, 5, 6), 4, 3),
    ((1, 2, 7, 5), 3, 5),
    ((3, 1, 6, 6), 1, 3),
    # taps that run past the image on both sides, where a window on the
    # flat padded grid could wrap into the next row or image
    ((2, 2, 1, 3), 3, 5),
    ((1, 1, 3, 1), 2, 3),
    ((3, 2, 1, 1), 2, 3),
]


def conv_with_grads(shape, cout, k):
    """(x, params, g, out) with x.grad, weights.grad and bias.grad holding
    the gradients of sum(g * out)."""
    rng = np.random.default_rng(hash((shape, cout, k)) % 2**32)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    p = make_params(rng, cout, shape[1], k)
    g = rng.standard_normal((shape[0], cout) + shape[2:])
    out = conv2d(x, p)
    backward((out * Tensor(g)).sum())
    return x, p, g, out


def assert_matches_conv_refs(x, p, g, out):
    w, b = p.weights, p.bias
    np.testing.assert_allclose(out.data, conv2d_ref(x.data, w.data, b.data),
                               rtol=1e-12, atol=1e-12)
    for got, ref in zip((x.grad, w.grad, b.grad), conv2d_grads_ref(x.data, w.data, g)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


class TestConv2d:
    def test_all_ones_kernel_center_element(self):
        x = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
        p = ConvParams(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
        out = conv2d(x, p)
        assert out.data[0, 0, 1, 1] == 45.0

    def test_identity_1x1_kernel_is_bitwise_identity(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((2, 1, 5, 7)))
        p = ConvParams(Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1)))
        out = conv2d(x, p)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_input_yields_bias(self):
        rng = np.random.default_rng(12)
        p = make_params(rng, 3, 2, 3, requires_grad=False)
        out = conv2d(Tensor(np.zeros((1, 2, 4, 4))), p)
        expected = np.broadcast_to(p.bias.data[None, :, None, None], (1, 3, 4, 4))
        np.testing.assert_array_equal(out.data, expected)

    @pytest.mark.parametrize("shape,cout,k", CONV_CASES)
    def test_matches_nested_loop_reference(self, shape, cout, k):
        rng = np.random.default_rng(hash((shape, cout, k)) % 2**32)
        x = Tensor(rng.standard_normal(shape))
        p = make_params(rng, cout, shape[1], k, requires_grad=False)
        out = conv2d(x, p)
        ref = conv2d_ref(x.data, p.weights.data, p.bias.data)
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape,cout,k", CONV_CASES)
    def test_gradients_match_nested_loop_reference(self, shape, cout, k):
        assert_matches_conv_refs(*conv_with_grads(shape, cout, k))

    # Each pass cuts the flat grid, W+k//2 positions a row and H+k//2 rows an
    # image, into blocks of cap // (Cin*k*k) positions in the forward pass,
    # cap // (Cout*k*k) in the input gradient and cap // (Cin+Cout+1) in the
    # weight gradient, at least one. Cap 1 makes each position a block in all
    # three passes. Caps 12 to 1000 end blocks mid-row, and they make blocks
    # that cross from one image into the next: in the weight gradient of
    # (3, 1, 6, 6) at 12, in all three passes of (3, 1, 6, 6) at 40 and 150
    # and of (2, 3, 5, 6) at 150 and 648. At 3200 only the input gradient of
    # (1, 2, 7, 5) has two blocks, split at a row end.
    @pytest.mark.parametrize("cap", [1, 12, 40, 150, 648, 750, 1000, 3200])
    @pytest.mark.parametrize("shape,cout,k", CONV_CASES)
    def test_any_chunk_cap_matches_reference(self, monkeypatch, shape, cout, k, cap):
        monkeypatch.setattr(autodiff, "_CHUNK_ELEMENTS", cap)
        monkeypatch.setattr(autodiff, "_BLOCK_ELEMENTS", cap)
        assert_matches_conv_refs(*conv_with_grads(shape, cout, k))

    def test_no_grad_peak_memory_holds_one_chunk(self):
        # C32->16 k5 at 128px: the whole column matrix is 105 MB, one chunk
        # 32 MB, and the padded input, GEMM result and output 9 MB together
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((1, 32, 128, 128)))
        p = make_params(rng, 16, 32, 5, requires_grad=False)
        tracemalloc.start()
        try:
            with no_grad():
                conv2d(x, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 50 * 2**20

    @pytest.mark.parametrize("shape", [(1, 0, 4, 4), (1, 1, 0, 4), (1, 1, 4, 0)])
    def test_empty_channel_or_spatial_extent(self, shape):
        x = Tensor(np.zeros(shape), requires_grad=True)
        p = make_params(np.random.default_rng(18), 2, shape[1], 3)
        out = conv2d(x, p)
        expected = np.broadcast_to(p.bias.data[None, :, None, None], (1, 2) + shape[2:])
        np.testing.assert_array_equal(out.data, expected)
        backward(out.sum())
        assert x.grad.shape == shape
        np.testing.assert_array_equal(p.weights.grad, np.zeros(p.weights.shape))

    def test_preserves_spatial_shape(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((2, 3, 8, 12)))
        out = conv2d(x, make_params(rng, 5, 3, 5, requires_grad=False))
        assert out.shape == (2, 5, 8, 12)

    def test_channel_mismatch_names_axis(self):
        rng = np.random.default_rng(14)
        x = Tensor(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ShapeMismatchError, match="axis 1"):
            conv2d(x, make_params(rng, 1, 3, 3, requires_grad=False))

    def test_even_kernel_rejected(self):
        p = ConvParams(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros(1)))
        with pytest.raises(ShapeMismatchError, match="odd"):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), p)

    def test_non_4d_input_rejected(self):
        p = ConvParams(Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ShapeMismatchError, match="4-D"):
            conv2d(Tensor(np.zeros((1, 4, 4))), p)


class TestMaxPool2d:
    def test_single_window(self):
        out = maxpool2d(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.data.tolist() == [[[[4.0]]]]

    def test_constant_input(self):
        out = maxpool2d(Tensor(np.full((1, 2, 4, 4), 2.5)))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 2.5))

    def test_row_major_4x4(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = maxpool2d(x)
        assert out.data[0, 0].tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_matches_window_reference(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((2, 3, 8, 6)))
        np.testing.assert_array_equal(maxpool2d(x).data, maxpool2d_ref(x.data))

    def test_odd_extent_rejected(self):
        with pytest.raises(ShapeMismatchError, match="even"):
            maxpool2d(Tensor(np.zeros((1, 1, 3, 4))))

    def test_backward_routes_to_first_max_on_ties(self):
        # integer-valued input forces plenty of exact ties
        rng = np.random.default_rng(22)
        x = Tensor(rng.integers(0, 3, size=(2, 2, 6, 6)).astype(float),
                   requires_grad=True)
        backward(maxpool2d(x).sum())
        idx = maxpool2d_first_argmax_ref(x.data)
        expected = np.zeros_like(x.data)
        for n in range(2):
            for c in range(2):
                for i in range(3):
                    for j in range(3):
                        di, dj = divmod(idx[n, c, i, j], 2)
                        expected[n, c, 2 * i + di, 2 * j + dj] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_backward_one_element_per_window(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)), requires_grad=True)
        backward(maxpool2d(x).sum())
        per_window = x.grad.reshape(1, 3, 4, 2, 4, 2).transpose(0, 1, 2, 4, 3, 5)
        counts = (per_window.reshape(1, 3, 4, 4, 4) != 0).sum(axis=4)
        np.testing.assert_array_equal(counts, np.ones((1, 3, 4, 4), dtype=int))


class TestDeconv2d:
    def test_single_pixel_broadcast(self):
        p = ConvParams(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.zeros(1)))
        out = deconv2d(Tensor(np.full((1, 1, 1, 1), 3.0)), p)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 3.0))

    def test_zero_input_yields_bias(self):
        p = ConvParams(Tensor(np.ones((2, 1, 2, 2))), Tensor(np.array([1.5, -2.0])))
        out = deconv2d(Tensor(np.zeros((1, 1, 2, 2))), p)
        expected = np.broadcast_to(np.array([1.5, -2.0])[None, :, None, None],
                                   (1, 2, 4, 4))
        np.testing.assert_array_equal(out.data, expected)

    def test_scatter_positions(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        w = np.zeros((1, 1, 2, 2))
        w[0, 0, 0, 0] = 1.0
        out = deconv2d(x, ConvParams(Tensor(w), Tensor(np.zeros(1))))
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, ::2, ::2] = [[1.0, 2.0], [3.0, 4.0]]
        np.testing.assert_array_equal(out.data, expected)

    def test_matches_scatter_reference(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((2, 3, 4, 5)))
        p = make_params(rng, 4, 3, 2, requires_grad=False)
        out = deconv2d(x, p)
        ref = deconv2d_ref(x.data, p.weights.data, p.bias.data)
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
        assert out.shape == (2, 4, 8, 10)

    # B > 1 with H != W (3 -> 2 channels at 5x7, 4 -> 3 at 3x2) and a 1x1 input
    @pytest.mark.parametrize("shape,cout", [((2, 3, 5, 7), 2), ((3, 4, 3, 2), 3),
                                            ((2, 2, 1, 1), 4)])
    def test_gradients_match_nested_loop_reference(self, shape, cout):
        rng = np.random.default_rng(hash((shape, cout)) % 2**32)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        p = make_params(rng, cout, shape[1], 2)
        g = rng.standard_normal((shape[0], cout, 2 * shape[2], 2 * shape[3]))
        backward((deconv2d(x, p) * Tensor(g)).sum())
        refs = deconv2d_grads_ref(x.data, p.weights.data, g)
        for got, ref in zip((x.grad, p.weights.grad, p.bias.grad), refs):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_wrong_kernel_size_rejected(self):
        p = ConvParams(Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1)))
        with pytest.raises(ShapeMismatchError, match="kernel size"):
            deconv2d(Tensor(np.zeros((1, 1, 4, 4))), p)


class TestConcatChannels:
    def test_stacks_in_argument_order(self):
        rng = np.random.default_rng(41)
        a = Tensor(rng.standard_normal((1, 2, 3, 3)))
        b = Tensor(rng.standard_normal((1, 3, 3, 3)))
        out = concat_channels(a, b)
        assert out.shape == (1, 5, 3, 3)
        np.testing.assert_array_equal(out.data[:, :2], a.data)
        np.testing.assert_array_equal(out.data[:, 2:], b.data)

    def test_single_input_is_identity(self):
        a = Tensor(np.zeros((1, 2, 4, 4)))
        assert concat_channels(a) is a

    def test_gradient_slices_back(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        backward(concat_channels(a, b).sum())
        np.testing.assert_array_equal(a.grad, np.ones_like(a.data))
        np.testing.assert_array_equal(b.grad, np.ones_like(b.data))

    def test_spatial_mismatch_rejected(self):
        a = Tensor(np.zeros((1, 2, 4, 4)))
        b = Tensor(np.zeros((1, 2, 4, 5)))
        with pytest.raises(ShapeMismatchError):
            concat_channels(a, b)

    def test_three_inputs(self):
        xs = [Tensor(np.full((1, c, 2, 2), float(c))) for c in (1, 2, 3)]
        out = concat_channels(*xs)
        assert out.shape == (1, 6, 2, 2)
        assert out.data[0, 0, 0, 0] == 1.0 and out.data[0, 5, 0, 0] == 3.0


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Tensor([0.0], requires_grad=True)
        backward(relu(x).sum())
        assert x.grad.tolist() == [0.0]

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_symmetry(self):
        rng = np.random.default_rng(51)
        x = rng.standard_normal(100) * 5.0
        total = sigmoid(Tensor(x)).data + sigmoid(Tensor(-x)).data
        np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-15)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = sigmoid(Tensor([-1000.0, 1000.0])).data
        assert out[0] == 0.0 and out[1] == 1.0


class TestSavedArrays:
    def test_relu_keeps_no_mask_and_maxpool_byte_indices(self):
        # the graph of maxpool2d(relu(x)) holds relu's output (8 bytes per
        # input value), the pooled output (2) and one byte per pooled index
        # (0.25); a boolean relu mask would add 1, int64 indices 1.75
        x = Tensor(np.random.default_rng(17).standard_normal((1, 8, 256, 256)),
                   requires_grad=True)
        tracemalloc.start()
        try:
            y = maxpool2d(relu(x))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert y.node is not None
        assert held <= x.size * (8 + 2 + 0.25) + 2**16


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(61).standard_normal((3, 4)),
                   requires_grad=True)
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_square_gradient_is_2x(self):
        x = Tensor(np.random.default_rng(62).standard_normal(10),
                   requires_grad=True)
        backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, 2.0 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeMismatchError, match="scalar"):
            backward(x * x)

    def test_second_backward_on_same_graph_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        with pytest.raises(GraphConsumedError):
            backward(loss)

    def test_graph_built_on_a_consumed_intermediate_rejected(self):
        # backward released y's node, so a second graph through y has
        # nothing left to differentiate y by
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * x
        backward(y.sum())
        with pytest.raises(GraphConsumedError):
            backward((y * x).sum())

    def test_grads_overwritten_not_accumulated_across_graphs(self):
        x = Tensor(np.ones(3), requires_grad=True)
        backward((x * x).sum())
        first = x.grad.copy()
        backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, first)

    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        s = x.sum()
        backward(s + s)
        np.testing.assert_array_equal(x.grad, np.full(2, 2.0))

    def test_leaf_without_requires_grad_gets_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3))
        backward((x * y).sum())
        assert y.grad is None and x.grad is not None

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        with no_grad():
            out = maxpool2d(x)
        assert out.node is None

    def test_scalar_leaf_loss(self):
        x = Tensor(3.0, requires_grad=True)
        backward(x)
        assert float(x.grad) == 1.0

    def test_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(63)
        p = make_params(rng, 2, 1, 3, requires_grad=False)

        def f(x):
            return maxpool2d(relu(conv2d(x, p))).sum()

        x = Tensor(rng.standard_normal((1, 1, 6, 6)))
        assert grad_check(f, x) < 1e-5


class TestGradCheck:
    def test_linear_function_near_zero_error(self):
        x = Tensor(np.random.default_rng(71).standard_normal((4, 4)))
        assert grad_check(lambda t: t.sum(), x) < 1e-10

    def test_conv_weights_and_bias(self):
        rng = np.random.default_rng(72)
        x0 = Tensor(rng.standard_normal((2, 2, 5, 5)))
        b0 = Tensor(rng.standard_normal(3))
        w0 = Tensor(rng.standard_normal((3, 2, 3, 3)))

        def fw(w):
            return relu(conv2d(x0, ConvParams(w, b0))).sum()

        def fb(b):
            return relu(conv2d(x0, ConvParams(w0, b))).sum()

        assert grad_check(fw, w0) < 1e-5
        assert grad_check(fb, b0) < 1e-5

    def test_deconv_weights(self):
        rng = np.random.default_rng(73)
        x0 = Tensor(rng.standard_normal((1, 2, 3, 3)))
        b0 = Tensor(rng.standard_normal(2))

        def fw(w):
            return relu(deconv2d(x0, ConvParams(w, b0))).sum()

        assert grad_check(fw, Tensor(rng.standard_normal((2, 2, 2, 2)))) < 1e-5

    def test_sigmoid_chain(self):
        rng = np.random.default_rng(74)
        x = Tensor(rng.standard_normal((3, 3)))
        assert grad_check(lambda t: (sigmoid(t) * sigmoid(t)).sum(), x) < 1e-5

    def test_restores_requires_grad_flag(self):
        x = Tensor(np.ones(2))
        grad_check(lambda t: t.sum(), x)
        assert x.requires_grad is False


class TestDeterminism:
    def test_forward_bitwise_repeatable(self):
        rng = np.random.default_rng(81)
        x = Tensor(rng.standard_normal((2, 2, 8, 8)))
        p = make_params(rng, 3, 2, 3, requires_grad=False)
        a = maxpool2d(relu(conv2d(x, p))).data
        b = maxpool2d(relu(conv2d(x, p))).data
        np.testing.assert_array_equal(a, b)
