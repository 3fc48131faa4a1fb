"""Tests for repro.nn.functional: activations, softmax, conv/pool lowering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad


def _numeric_grad(func, array, index, eps=1e-6):
    perturbed = array.copy()
    perturbed[index] += eps
    high = func(perturbed)
    perturbed[index] -= 2 * eps
    low = func(perturbed)
    return (high - low) / (2 * eps)


class TestActivations:
    def test_relu_values(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        assert np.allclose(F.relu(x).data, [0.0, 0.0, 2.0])

    def test_relu_gradient(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        F.relu(x).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0])

    def test_leaky_relu_negative_slope(self):
        x = Tensor(np.array([-10.0]))
        assert F.leaky_relu(x, 0.1).data[0] == pytest.approx(-1.0)

    def test_elu_continuity_at_zero(self):
        left = F.elu(Tensor(np.array([-1e-9]))).data[0]
        right = F.elu(Tensor(np.array([1e-9]))).data[0]
        assert left == pytest.approx(right, abs=1e-8)

    def test_elu_gradient_matches_numeric(self):
        data = np.array([-0.7, 0.3])
        x = Tensor(data, requires_grad=True)
        F.elu(x).sum().backward()
        for index in range(2):
            numeric = _numeric_grad(lambda a: F.elu(Tensor(a)).data.sum(), data, (index,))
            assert x.grad[index] == pytest.approx(numeric, rel=1e-5)

    def test_gelu_known_values(self):
        # GELU(0) = 0 and GELU(x) ≈ x for large positive x.
        x = Tensor(np.array([0.0, 10.0]))
        out = F.gelu(x).data
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(10.0, rel=1e-6)

    def test_gelu_gradient_matches_numeric(self):
        data = np.array([-1.2, 0.4, 2.0])
        x = Tensor(data, requires_grad=True)
        F.gelu(x).sum().backward()
        for index in range(3):
            numeric = _numeric_grad(lambda a: F.gelu(Tensor(a)).data.sum(), data, (index,))
            assert x.grad[index] == pytest.approx(numeric, rel=1e-4)

    @given(st.floats(min_value=-5, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_gelu_bounded_by_relu(self, value):
        gelu_value = F.gelu(Tensor(np.array([value]))).data[0]
        assert gelu_value <= max(value, 0.0) + 1e-9
        assert gelu_value >= min(value, 0.0) - 0.2


class TestSoftmax:
    def test_softmax_sums_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 7)))
        probs = F.softmax(x).data
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(1).standard_normal((3, 5)))
        assert np.allclose(F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-10)

    def test_softmax_handles_large_logits(self):
        x = Tensor(np.array([[1000.0, 0.0]]))
        probs = F.softmax(x).data
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)


class TestLinearAndDropoutHelpers:
    def test_linear_matches_manual(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.full((4, 3), 2.0))
        b = Tensor(np.ones(4))
        out = F.linear(x, w, b)
        assert np.allclose(out.data, 7.0)

    def test_dropout_mask_zero_rate_is_ones(self):
        mask = F.dropout_mask((10, 10), 0.0, np.random.default_rng(0))
        assert np.all(mask == 1.0)

    def test_dropout_mask_scaling_preserves_mean(self):
        rng = np.random.default_rng(0)
        mask = F.dropout_mask((200, 200), 0.4, rng)
        assert mask.mean() == pytest.approx(1.0, rel=0.05)

    def test_one_hot_encoding(self):
        encoded = F.one_hot(np.array([0, 2]), 3)
        assert np.allclose(encoded, [[1, 0, 0], [0, 0, 1]])


class TestIm2Col:
    def test_roundtrip_counts_overlaps(self):
        data = np.arange(16.0).reshape(1, 1, 4, 4)
        cols, out_h, out_w = F.im2col(data, 2, 2, 1, 0)
        assert cols.shape == (1, 4, out_h * out_w)
        back = F.col2im(cols, data.shape, 2, 2, 1, 0, out_h, out_w)
        # Each interior pixel participates in several windows, so col2im
        # (a scatter-add) multiplies it by its window count.
        corner_count = back[0, 0, 0, 0] / data[0, 0, 0, 0] if data[0, 0, 0, 0] else 1
        assert back.shape == data.shape
        assert corner_count == pytest.approx(1.0)

    def test_output_spatial_size_with_padding(self):
        data = np.zeros((2, 3, 8, 8))
        _, out_h, out_w = F.im2col(data, 3, 3, 1, 1)
        assert (out_h, out_w) == (8, 8)

    def test_output_spatial_size_with_stride(self):
        data = np.zeros((1, 1, 8, 8))
        _, out_h, out_w = F.im2col(data, 2, 2, 2, 0)
        assert (out_h, out_w) == (4, 4)

    @staticmethod
    def _loop_im2col(data, kernel_h, kernel_w, stride, padding):
        """The window-by-window copy loop that the strided copy replaced."""
        n, c, h, w = data.shape
        out_h = (h + 2 * padding - kernel_h) // stride + 1
        out_w = (w + 2 * padding - kernel_w) // stride + 1
        data = np.pad(data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        columns = np.empty((n, c, kernel_h, kernel_w, out_h, out_w))
        for i in range(kernel_h):
            for j in range(kernel_w):
                columns[:, :, i, j] = data[:, :, i:i + stride * out_h:stride,
                                           j:j + stride * out_w:stride]
        return columns.reshape(n, c * kernel_h * kernel_w, out_h * out_w)

    @pytest.mark.parametrize("kernel_h,kernel_w,stride,padding", [
        (3, 3, 1, 1), (3, 3, 2, 1), (2, 3, 1, 0), (1, 1, 2, 0), (5, 4, 3, 2)])
    def test_strided_copies_match_the_copy_loop(self, kernel_h, kernel_w,
                                                stride, padding):
        # A transposed view: inputs need not be C-contiguous.
        data = np.random.default_rng(2).standard_normal((2, 9, 10, 3)).transpose(0, 3, 1, 2)
        expected = self._loop_im2col(data, kernel_h, kernel_w, stride, padding)
        columns, out_h, out_w = F.im2col(data, kernel_h, kernel_w, stride, padding)
        assert columns.flags.c_contiguous and np.array_equal(columns, expected)
        # The patch matrix is the same values, one row per output pixel.
        patches, *_ = F._patches(data, kernel_h, kernel_w, stride, padding)
        assert patches.flags.c_contiguous
        assert np.array_equal(patches, expected.transpose(0, 2, 1).reshape(
            2 * out_h * out_w, -1))


class TestConv2d:
    def test_identity_kernel_preserves_input(self):
        x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 5, 5)))
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, Tensor(kernel), padding=1)
        assert np.allclose(out.data, x.data)

    def test_matches_manual_convolution(self):
        x_data = np.arange(9.0).reshape(1, 1, 3, 3)
        kernel = np.ones((1, 1, 2, 2))
        out = F.conv2d(Tensor(x_data), Tensor(kernel))
        expected = np.array([[8.0, 12.0], [20.0, 24.0]])
        assert np.allclose(out.data[0, 0], expected)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.0, -1.0]))
        out = F.conv2d(x, w, b, padding=1)
        assert np.allclose(out.data[0, 0], 1.0)
        assert np.allclose(out.data[0, 1], -1.0)

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(0)
        x_data = rng.standard_normal((2, 2, 5, 5))
        w_data = rng.standard_normal((3, 2, 3, 3))
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        F.conv2d(x, w, stride=1, padding=1).sum().backward()

        def loss_wrt_w(array):
            return F.conv2d(Tensor(x_data), Tensor(array), stride=1, padding=1).data.sum()

        def loss_wrt_x(array):
            return F.conv2d(Tensor(array), Tensor(w_data), stride=1, padding=1).data.sum()

        for index in [(0, 0, 1, 1), (2, 1, 0, 2)]:
            assert w.grad[index] == pytest.approx(_numeric_grad(loss_wrt_w, w_data, index), rel=1e-5)
        for index in [(0, 0, 2, 2), (1, 1, 4, 0)]:
            assert x.grad[index] == pytest.approx(_numeric_grad(loss_wrt_x, x_data, index), rel=1e-5)

    def test_strided_output_shape(self):
        out = F.conv2d(Tensor(np.zeros((1, 1, 8, 8))), Tensor(np.zeros((4, 1, 3, 3))),
                       stride=2, padding=1)
        assert out.shape == (1, 4, 4, 4)


class TestTrialBatchedConv2d:
    """Under trial_batching, each trial's slice equals its own conv2d."""

    @pytest.mark.parametrize("stacked_weights", [True, False])
    @pytest.mark.parametrize("shared_input", [True, False])
    def test_slices_match_per_trial_convolutions(self, stacked_weights, shared_input):
        rng = np.random.default_rng(6)
        trials, rows = 3, 2
        batch = rng.standard_normal((trials * rows, 2, 7, 7))
        if shared_input:  # a first layer sees the same batch T times over
            batch = np.concatenate([batch[:rows]] * trials)
        weights = rng.standard_normal((trials, 4, 2, 3, 3))
        biases = rng.standard_normal((trials, 4))
        if not stacked_weights:
            weights = weights[0]
        with no_grad():
            with F.trial_batching(trials):
                out = F.conv2d(Tensor(batch), Tensor(weights), Tensor(biases),
                               stride=2, padding=1).data
            for index in range(trials):
                block = slice(index * rows, (index + 1) * rows)
                weight = weights[index] if stacked_weights else weights
                alone = F.conv2d(Tensor(batch[block]), Tensor(weight),
                                 Tensor(biases[index]), stride=2, padding=1).data
                assert out[block].tobytes() == np.ascontiguousarray(alone).tobytes()


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert F.max_pool2d(x, 2).data[0, 0, 0, 0] == 4.0

    def test_max_pool_gradient_routes_to_max(self):
        data = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        x = Tensor(data, requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        assert x.grad[0, 0, 1, 1] == 1.0
        assert x.grad.sum() == 1.0

    def test_max_pool_floors_ragged_input(self):
        # 7x7 with 2x2 windows drops the last row and column (floor).
        out = F.max_pool2d(Tensor(np.zeros((1, 1, 7, 7))), 2)
        assert out.shape == (1, 1, 3, 3)

    def test_avg_pool_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert F.avg_pool2d(x, 2).data[0, 0, 0, 0] == pytest.approx(2.5)

    def test_avg_pool_gradient_is_uniform(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        assert np.allclose(x.grad, 0.25)

    def test_adaptive_avg_pool_global(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.adaptive_avg_pool2d(x, 1)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == pytest.approx(7.5)

    def test_adaptive_avg_pool_rejects_other_sizes(self):
        with pytest.raises(NotImplementedError):
            F.adaptive_avg_pool2d(Tensor(np.zeros((1, 1, 4, 4))), 2)


def _pool_with_grad(data, kernel, stride=None, grad=None):
    """Max-pool output and input gradient for an upstream gradient."""
    x = Tensor(data, requires_grad=True)
    out = F.max_pool2d(x, kernel, stride)
    if grad is None:
        grad = np.random.default_rng(1).standard_normal(out.shape)
    (out * Tensor(grad)).sum().backward()
    return out.data, x.grad


def _general_path(data, kernel, grad):
    """The same pool through the general path: one extra row and column
    make H and W ragged, and floor division drops them again."""
    n, c, h, w = data.shape
    ragged = np.full((n, c, h + 1, w + 1), -np.inf)
    ragged[:, :, :h, :w] = data
    out, grad_input = _pool_with_grad(ragged, kernel, grad=grad)
    assert not grad_input[:, :, h, :].any() and not grad_input[:, :, :, w].any()
    return out, grad_input[:, :, :h, :w]


def _reference_pool(data, kernel, stride, grad):
    """Window-by-window max pool with ``np.argmax`` picking the element."""
    n, c, h, w = data.shape
    out_h, out_w = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    out = np.empty((n, c, out_h, out_w))
    grad_input = np.zeros_like(data)
    for index in np.ndindex(n, c, out_h, out_w):
        b, ch, row, col = index
        rows = slice(row * stride, row * stride + kernel)
        cols = slice(col * stride, col * stride + kernel)
        window = data[b, ch, rows, cols]
        i, j = np.unravel_index(np.argmax(window), window.shape)
        out[index] = window[i, j]
        grad_input[b, ch, row * stride + i, col * stride + j] += grad[index]
    return out, grad_input


def _same_bytes(left, right):
    return left.shape == right.shape and \
        np.ascontiguousarray(left).tobytes() == np.ascontiguousarray(right).tobytes()


class TestMaxPoolTiledPath:
    """Non-overlapping windows that tile a non-negative input take the
    view-based path; it must reproduce the general im2col/argmax path byte
    for byte."""

    @pytest.mark.parametrize("shape,kernel", [
        ((2, 3, 8, 8), 2), ((3, 2, 6, 9), 3), ((1, 4, 4, 12), 4), ((2, 2, 5, 10), 5)])
    def test_matches_general_path(self, shape, kernel):
        rng = np.random.default_rng(sum(shape) + kernel)
        data = np.abs(rng.standard_normal(shape))
        # Quantised values make exact ties, zeros included, common.
        data[0] = np.round(data[0] * 2) / 2
        grad = rng.standard_normal((shape[0], shape[1], shape[2] // kernel,
                                    shape[3] // kernel))
        out, grad_input = _pool_with_grad(data, kernel, grad=grad)
        general_out, general_grad = _general_path(data, kernel, grad)
        assert _same_bytes(out, general_out)
        assert _same_bytes(grad_input, general_grad)

    def test_matches_general_path_on_strided_input(self):
        # Convolution outputs are NHWC in memory; the pool sees that layout.
        data = np.abs(np.random.default_rng(3).standard_normal((2, 6, 6, 4)))
        data = data.transpose(0, 3, 1, 2)
        grad = np.random.default_rng(4).standard_normal((2, 4, 3, 3))
        out, grad_input = _pool_with_grad(data, 2, grad=grad)
        general_out, general_grad = _general_path(np.ascontiguousarray(data), 2, grad)
        assert _same_bytes(out, general_out)
        assert _same_bytes(grad_input, general_grad)

    def test_ties_send_the_gradient_to_the_first_element(self):
        data = np.ones((1, 2, 4, 4))
        data[0, 1, 2:, 2:] = [[0.0, 5.0], [5.0, 5.0]]
        grad = np.arange(1.0, 9.0).reshape(1, 2, 2, 2)
        out, grad_input = _pool_with_grad(data, 2, grad=grad)
        assert np.array_equal(out[0, 0], np.ones((2, 2)))
        assert out[0, 1, 1, 1] == 5.0
        # Every all-ones window routes to its top-left element...
        assert np.array_equal(grad_input[0, 0], [[1, 0, 2, 0], [0, 0, 0, 0],
                                                 [3, 0, 4, 0], [0, 0, 0, 0]])
        # ...and the tied 5s route to the first one in row-major order.
        assert np.array_equal(grad_input[0, 1, 2:, 2:], [[0, 8], [0, 0]])
        assert _same_bytes(grad_input, _general_path(data, 2, grad)[1])

    @pytest.mark.parametrize("position", range(9))
    def test_nan_propagates_and_takes_the_gradient(self, position):
        data = np.abs(np.random.default_rng(position).standard_normal((1, 1, 3, 3)))
        data.flat[position] = np.nan
        if position < 8:
            data.flat[8] = np.nan  # a later NaN never takes the gradient
        grad = np.array([[[[2.5]]]])
        out, grad_input = _pool_with_grad(data, 3, grad=grad)
        assert np.isnan(out).all()
        expected = np.zeros_like(data)
        expected.flat[position] = 2.5
        assert np.array_equal(grad_input, expected)
        general_out, general_grad = _general_path(data, 3, grad)
        assert _same_bytes(out, general_out)
        assert _same_bytes(grad_input, general_grad)

    def test_non_finite_gradients_stay_in_their_window(self):
        data = np.arange(16.0).reshape(1, 1, 4, 4)
        grad = np.array([[[[np.inf, np.nan], [-0.0, 1.0]]]])
        _, grad_input = _pool_with_grad(data, 2, grad=grad)
        assert _same_bytes(grad_input, _general_path(data, 2, grad)[1])
        assert np.count_nonzero(grad_input) == 3  # inf, nan and 1; -0.0 adds to +0.0

    @staticmethod
    def _forbid_tiled_path(monkeypatch):
        def tiled_path(*args):
            raise AssertionError("input must take the general path")

        monkeypatch.setattr(F, "_tiled_max_pool2d", tiled_path)

    @pytest.mark.parametrize("shape,kernel,stride", [
        ((2, 2, 7, 7), 3, 2),   # stride != kernel: overlapping windows
        ((2, 2, 6, 6), 2, 1),   # stride != kernel: overlapping windows
        ((2, 2, 6, 6), 2, 3),   # stride > kernel: gaps between windows
        ((2, 3, 7, 8), 2, 2),   # odd H
        ((2, 3, 8, 5), 2, 2),   # odd W
    ])
    def test_fallback_shapes_take_the_general_path(self, shape, kernel, stride,
                                                   monkeypatch):
        self._forbid_tiled_path(monkeypatch)
        rng = np.random.default_rng(kernel * 10 + stride)
        data = np.abs(np.round(rng.standard_normal(shape) * 2) / 2)
        out_shape = (shape[0], shape[1], (shape[2] - kernel) // stride + 1,
                     (shape[3] - kernel) // stride + 1)
        # Integer gradients sum exactly where windows overlap.
        grad = rng.integers(-4, 5, out_shape).astype(float)
        out, grad_input = _pool_with_grad(data, kernel, stride, grad)
        expected_out, expected_grad = _reference_pool(data, kernel, stride, grad)
        assert np.array_equal(out, expected_out)
        assert np.array_equal(grad_input, expected_grad)

    def test_signed_inputs_take_the_general_path(self, monkeypatch):
        self._forbid_tiled_path(monkeypatch)
        data = np.random.default_rng(0).standard_normal((2, 2, 4, 4))
        # A -0.0/+0.0 tie: argmax keeps the first zero, sign included.
        data[0, 0, :2, :2] = [[-0.0, 0.0], [-1.0, -2.0]]
        grad = np.random.default_rng(1).standard_normal((2, 2, 2, 2))
        out, grad_input = _pool_with_grad(data, 2, grad=grad)
        assert out[0, 0, 0, 0] == 0.0 and np.signbit(out[0, 0, 0, 0])
        expected_out, expected_grad = _reference_pool(data, 2, 2, grad)
        assert _same_bytes(out, expected_out)
        assert np.array_equal(grad_input, expected_grad)

    def test_tiling_shapes_take_the_tiled_path(self, monkeypatch):
        calls = []
        tiled = F._tiled_max_pool2d
        monkeypatch.setattr(F, "_tiled_max_pool2d",
                            lambda x, size: calls.append(size) or tiled(x, size))
        data = np.abs(np.random.default_rng(0).standard_normal((2, 2, 6, 6)))
        F.max_pool2d(Tensor(data), 2)
        F.max_pool2d(Tensor(data), 3, 3)
        assert calls == [2, 3]
        grad = np.ones((2, 2, 3, 3))
        assert _same_bytes(_pool_with_grad(data, 2, grad=grad)[1],
                           _reference_pool(data, 2, 2, grad)[1])
