"""Functional neural-network operations on :class:`~repro.nn.tensor.Tensor`.

These free functions implement the forward/backward math used by the layer
classes in :mod:`repro.nn.layers`.

Convolution kernels
-------------------
:func:`conv2d` lowers its input to a patch matrix, one row per output pixel
and one column per ``(channel, kH, kW)`` weight, with a single strided copy.
It then makes exactly the matmul calls that
``np.einsum(..., optimize=True)`` makes for the three convolution
contractions, with the same operand layouts:

* forward: ``patches (N*P, K) @ W.T``, viewed back as NCHW;
* weight gradient: ``ascontiguousarray(patches.T) (K, N*P) @ grad (N*P, O)``;
* input gradient: ``grad (N*P, O) @ W``, scattered back by :func:`col2im`.

The calls are matched, not only the contraction, because BLAS rounding
depends on operand shape and layout: a different but algebraically equal
GEMM changes trained weights in the last bits.  Matching them keeps the
bytes of every seeded result, and it is also what makes trial batching
exact (below).  :func:`max_pool2d` over non-overlapping windows that tile
a non-negative input (every max pool after a ReLU) works on reshape views
with ``np.maximum``; other inputs use :func:`im2col` with ``argmax``.  Both
pick the element ``argmax`` picks.

Trial batching
--------------
Monte-Carlo fault evaluation runs the *same* inputs through ``T``
independently drifted copies of the weights.  Inside a
:func:`trial_batching` context the weighted operations (:func:`linear`,
:func:`conv2d`, and the normalisation layers' affine step) accept
parameters stacked along a leading trial axis — ``(T, out, in)`` instead
of ``(out, in)`` — and an input batch tiled trial-major to ``T * N``
samples.  Everything *per-sample* (activations, pooling, the patch matrix,
softmax, per-sample normalisation statistics) runs once over the whole
``T * N`` batch, amortising numpy dispatch; the GEMMs themselves stay
per-trial.  Each trial's block of patch rows is exactly the unbatched
operand, and a stacked ``np.matmul`` runs the same GEMM on it that the
unbatched path runs, so a trial-batched forward is **bit-identical** to
``T`` separate forwards.  A first convolution sees the same batch ``T``
times over; it lowers that batch once and all ``T`` GEMMs read the one
patch matrix.  That equality is what lets the drift-sweep
engine treat ``trial_batch`` as a pure scheduling knob (see
:mod:`repro.inference`).
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import erf as _erf

from .tensor import Tensor, is_grad_enabled

__all__ = [
    "relu", "leaky_relu", "elu", "gelu", "softmax", "log_softmax",
    "conv2d", "max_pool2d", "avg_pool2d", "adaptive_avg_pool2d",
    "linear", "dropout_mask", "im2col", "col2im", "one_hot",
    "trial_batching", "trial_count",
]


# --------------------------------------------------------------------------- #
# Trial-batched inference context
# --------------------------------------------------------------------------- #
_TRIAL_COUNT = 1


@contextlib.contextmanager
def trial_batching(count: int):
    """Declare that the forward pass carries ``count`` stacked weight trials.

    Inside the context the input batch must be ``count`` trial-major copies
    of the evaluation batch, and installed parameters may carry a leading
    ``(count,)`` trial axis (parameters without one are shared across
    trials).  Inference-only: the trial-aware operations refuse to run with
    gradient recording enabled.
    """
    global _TRIAL_COUNT
    if count < 1:
        raise ValueError("trial_batching needs at least one trial")
    previous = _TRIAL_COUNT
    _TRIAL_COUNT = int(count)
    try:
        yield
    finally:
        _TRIAL_COUNT = previous


def trial_count() -> int:
    """Number of stacked trials in the active :func:`trial_batching` context."""
    return _TRIAL_COUNT


def _trial_rows(data: np.ndarray, trials: int) -> int:
    if is_grad_enabled():
        raise RuntimeError(
            "trial_batching is an inference-only context; wrap the forward "
            "pass in no_grad()")
    if data.shape[0] % trials:
        raise ValueError(
            f"trial_batching({trials}) needs the batch tiled trial-major to "
            f"a multiple of {trials} samples; got {data.shape[0]}")
    return data.shape[0] // trials


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    out_data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0))

    return Tensor._make(out_data, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with configurable negative slope."""
    out_data = np.where(x.data > 0, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * np.where(x.data > 0, 1.0, negative_slope))

    return Tensor._make(out_data, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit."""
    exp_term = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out_data = np.where(x.data > 0, x.data, exp_term)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            slope = np.where(x.data > 0, 1.0, exp_term + alpha)
            x._accumulate(grad * slope)

    return Tensor._make(out_data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (exact erf form, as in Hendrycks & Gimpel)."""
    cdf = 0.5 * (1.0 + _erf(x.data / math.sqrt(2.0)))
    out_data = x.data * cdf

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            pdf = np.exp(-0.5 * x.data ** 2) / math.sqrt(2.0 * math.pi)
            x._accumulate(grad * (cdf + x.data * pdf))

    return Tensor._make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


# --------------------------------------------------------------------------- #
# Linear / dropout helpers
# --------------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias`` (PyTorch weight layout).

    Inside a :func:`trial_batching` context ``weight``/``bias`` may carry a
    leading trial axis; each trial's slice of the tiled batch then sees its
    own weights through a per-trial GEMM with the exact operand shapes of
    the unbatched path (bit-identical results).
    """
    if _TRIAL_COUNT > 1:
        return _trial_linear(x, weight, bias)
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def _trial_linear(x: Tensor, weight: Tensor, bias: Tensor | None) -> Tensor:
    trials = _TRIAL_COUNT
    rows = _trial_rows(x.data, trials)
    weights = weight.data
    biases = None if bias is None else bias.data
    if weights.ndim == 3:
        # Stacked matmul runs the T per-trial GEMMs in one C-level call;
        # each slice is the same dgemm as the unbatched `x @ w.T`, so the
        # result stays bit-identical (unlike one big M-batched GEMM, whose
        # blocking depends on M).
        grouped = x.data.reshape((trials, rows) + x.data.shape[1:])
        out = np.matmul(grouped, weights.transpose(0, 2, 1))
        if biases is not None:
            out = out + (biases[:, None, :] if biases.ndim == 2 else biases)
        return Tensor(out.reshape((trials * rows,) + out.shape[2:]))
    blocks = []
    for index in range(trials):
        block = x.data[index * rows:(index + 1) * rows] @ weights.T
        if biases is not None:
            block = block + (biases[index] if biases.ndim == 2 else biases)
        blocks.append(block)
    return Tensor(np.concatenate(blocks, axis=0))


def dropout_mask(shape: tuple, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Sample an inverted-dropout mask: zeros with probability ``rate``.

    Surviving entries are scaled by ``1 / (1 - rate)`` so the expected
    activation is unchanged (the standard "inverted dropout" convention).
    """
    if rate <= 0.0:
        return np.ones(shape)
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Convert integer labels of shape ``(N,)`` to one-hot ``(N, num_classes)``."""
    labels = np.asarray(labels).astype(np.int64)
    encoded = np.zeros((labels.shape[0], num_classes))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


# --------------------------------------------------------------------------- #
# Strided patch lowering
# --------------------------------------------------------------------------- #
def _windows(data: np.ndarray, kernel_h: int, kernel_w: int,
             stride: int, padding: int) -> np.ndarray:
    """Every sliding window of an NCHW array as one read-only strided view.

    Returns a ``(N, C, out_h, out_w, kernel_h, kernel_w)`` view; nothing is
    copied except the zero-padded input when ``padding > 0``.
    """
    if padding > 0:
        n, c, h, w = data.shape
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
        padded[:, :, padding:-padding, padding:-padding] = data
        data = padded
    n, c, h, w = data.shape
    out_h = (h - kernel_h) // stride + 1
    out_w = (w - kernel_w) // stride + 1
    step_n, step_c, step_h, step_w = data.strides
    return as_strided(data, (n, c, out_h, out_w, kernel_h, kernel_w),
                      (step_n, step_c, step_h * stride, step_w * stride,
                       step_h, step_w), writeable=False)


def im2col(data: np.ndarray, kernel_h: int, kernel_w: int,
           stride: int, padding: int) -> tuple[np.ndarray, int, int]:
    """Lower an NCHW array into column form.

    Returns ``(columns, out_h, out_w)`` where ``columns`` has shape
    ``(N, C * kernel_h * kernel_w, out_h * out_w)``, built by one strided copy.
    """
    windows = _windows(data, kernel_h, kernel_w, stride, padding)
    n, c, out_h, out_w = windows.shape[:4]
    columns = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
    return columns.reshape(n, c * kernel_h * kernel_w, out_h * out_w), out_h, out_w


def _patches(data: np.ndarray, kernel_h: int, kernel_w: int,
             stride: int, padding: int) -> tuple[np.ndarray, int, int]:
    """Convolution patch matrix: one row per output pixel.

    Returns ``(patches, out_h, out_w)`` where ``patches`` is the C-contiguous
    ``(N * out_h * out_w, C * kernel_h * kernel_w)`` matrix, built by one
    strided copy.  It is exactly the left operand that
    ``einsum("ok,nkp->nop", w, im2col(...), optimize=True)`` hands to its
    matmul, so the GEMMs below are the ones einsum would have run.
    """
    windows = _windows(data, kernel_h, kernel_w, stride, padding)
    n, c, out_h, out_w = windows.shape[:4]
    patches = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    return patches.reshape(n * out_h * out_w, -1), out_h, out_w


def col2im(columns: np.ndarray, input_shape: tuple, kernel_h: int, kernel_w: int,
           stride: int, padding: int, out_h: int, out_w: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to NCHW.

    Windows are added in ``(i, j)`` kernel order, which fixes the summation
    order where windows overlap.
    """
    n, c, h, w = input_shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    columns = columns.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += columns[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over an NCHW tensor.

    ``weight`` has shape ``(out_channels, in_channels, kH, kW)``; inside a
    :func:`trial_batching` context it may carry a leading trial axis (the
    patch matrix is built once over the tiled batch, the GEMM runs per
    trial — bit-identical to separate per-trial convolutions).
    """
    if _TRIAL_COUNT > 1:
        return _trial_conv2d(x, weight, bias, stride, padding)
    n, c, h, w = x.shape
    out_channels, in_channels, kernel_h, kernel_w = weight.shape
    if c != in_channels:
        raise ValueError(f"conv2d: input has {c} channels, weight expects {in_channels}")

    patches, out_h, out_w = _patches(x.data, kernel_h, kernel_w, stride, padding)
    weight_matrix = weight.data.reshape(out_channels, -1)
    # (N*P, K) @ (K, O), viewed back as NCHW without a copy.
    out_data = (patches @ weight_matrix.T).reshape(
        n, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    if bias is not None:
        out_data += bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        # (N*P, O): one row per output pixel, like the patch matrix.
        grad_rows = np.ascontiguousarray(
            grad.reshape(n, out_channels, -1).transpose(0, 2, 1)).reshape(-1, out_channels)
        if weight.requires_grad:
            # (K, N*P) @ (N*P, O) on a contiguous copy of the transposed
            # patches, as einsum("nop,nkp->ok") computes it.
            grad_weight = np.ascontiguousarray(patches.T) @ grad_rows
            weight._accumulate(grad_weight.T.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_patches = grad_rows @ weight_matrix
            grad_columns = grad_patches.reshape(n, out_h * out_w, -1).transpose(0, 2, 1)
            grad_input = col2im(grad_columns, (n, c, h, w), kernel_h, kernel_w,
                                stride, padding, out_h, out_w)
            x._accumulate(grad_input)

    return Tensor._make(out_data, parents, backward)


def _trial_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None,
                  stride: int, padding: int) -> Tensor:
    trials = _TRIAL_COUNT
    rows = _trial_rows(x.data, trials)
    weights = weight.data
    stacked = weights.ndim == 5
    out_channels, in_channels, kernel_h, kernel_w = weights.shape[-4:]
    if x.data.shape[1] != in_channels:
        raise ValueError(f"conv2d: input has {x.data.shape[1]} channels, "
                         f"weight expects {in_channels}")
    # One patch matrix over the whole tiled batch; each trial's block of
    # rows is exactly the unbatched operand, and its GEMM stays per trial.
    # The first convolution of a batched forward sees the same batch T times
    # over: then one batch is lowered and every trial's GEMM reads it.
    data = x.data
    first = data[:rows]
    shared = (np.array_equal(data[rows:2 * rows], first)
              and (data.reshape((trials,) + first.shape) == first).all())
    patches, out_h, out_w = _patches(first if shared else data,
                                     kernel_h, kernel_w, stride, padding)
    pixels = rows * out_h * out_w
    if shared:
        grouped = np.broadcast_to(patches, (trials,) + patches.shape)
    else:
        grouped = patches.reshape(trials, pixels, -1)
    biases = None if bias is None else bias.data
    if stacked:
        # A stacked matmul runs the T per-trial GEMMs in one C-level call;
        # each slice is the unbatched `patches @ w.T`.
        weight_matrix = weights.reshape(trials, out_channels, -1)
        out = np.matmul(grouped, weight_matrix.transpose(0, 2, 1))
        out = out.reshape(trials, rows, out_h * out_w, out_channels).transpose(0, 1, 3, 2)
        if biases is not None:
            if biases.ndim == 2:
                out += biases[:, None, :, None]
            else:
                out += biases[None, None, :, None]
        return Tensor(out.reshape(trials * rows, out_channels, out_h, out_w))
    weight_matrix = weights.reshape(out_channels, -1)
    blocks = []
    for index in range(trials):
        block = grouped[index] @ weight_matrix.T
        block = block.reshape(rows, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
        if biases is not None:
            b = biases[index] if biases.ndim == 2 else biases
            block += b.reshape(1, -1, 1, 1)
        blocks.append(block)
    return Tensor(np.concatenate(blocks, axis=0))


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling over an NCHW tensor with square windows.

    Follows ``argmax`` semantics: on ties the first window element wins, and
    a NaN propagates to the output and takes the gradient (the first NaN).
    """
    stride = stride or kernel_size
    n, c, h, w = x.shape
    if (stride == kernel_size and h % kernel_size == 0 and w % kernel_size == 0
            and not np.signbit(x.data).any()):
        return _tiled_max_pool2d(x, kernel_size)
    columns, out_h, out_w = im2col(x.data, kernel_size, kernel_size, stride, 0)
    columns = columns.reshape(n, c, kernel_size * kernel_size, out_h * out_w)
    argmax = columns.argmax(axis=2)
    out_data = np.take_along_axis(columns, argmax[:, :, None, :], axis=2)
    out_data = out_data.reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_cols = np.zeros((n, c, kernel_size * kernel_size, out_h * out_w))
        np.put_along_axis(grad_cols, argmax[:, :, None, :],
                          grad.reshape(n, c, 1, out_h * out_w), axis=2)
        grad_cols = grad_cols.reshape(n, c * kernel_size * kernel_size, out_h * out_w)
        grad_input = col2im(grad_cols, (n, c, h, w), kernel_size, kernel_size,
                            stride, 0, out_h, out_w)
        x._accumulate(grad_input)

    return Tensor._make(out_data, (x,), backward)


def _tiled_max_pool2d(x: Tensor, size: int) -> Tensor:
    """Max pooling over non-overlapping ``size x size`` tiles that cover x.

    Each window element is a reshape view of the input, so no window is
    copied.  The input must have no sign bit set (every max pool in
    :mod:`repro.models` follows a ReLU).  Then elements that tie are the
    same bits, so ``np.maximum``, which keeps the first NaN, returns exactly
    the element ``argmax`` picks; only a window holding both -0.0 and +0.0
    could tell the two apart.  The backward gives the gradient to the first
    view equal to the max, or to the first NaN, as ``argmax`` does.
    """
    n, c, h, w = x.shape
    offsets = [(i, j) for i in range(size) for j in range(size)]
    tiles = x.data.reshape(n, c, h // size, size, w // size, size)
    views = [tiles[:, :, :, i, :, j] for i, j in offsets]
    out_data = views[0].copy()
    for view in views[1:]:
        np.maximum(out_data, view, out=out_data)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # Each window's first element equal to the max (or NaN) claims it.
        unclaimed = np.ones(out_data.shape, dtype=bool)
        claims = []
        for view in views[:-1]:
            claims.append(unclaimed & ((view == out_data) | np.isnan(view)))
            unclaimed ^= claims[-1]
        claims.append(unclaimed)
        # Zero plus the gradient, as the general path's col2im adds it
        # (which turns a -0.0 gradient into +0.0).
        grad = grad + 0.0
        grad_input = np.empty((n, c, h, w))
        grad_tiles = grad_input.reshape(tiles.shape)
        for (i, j), claim in zip(offsets, claims):
            grad_tiles[:, :, :, i, :, j] = np.where(claim, grad, 0.0)
        x._accumulate(grad_input)

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Average pooling over an NCHW tensor with square windows."""
    stride = stride or kernel_size
    n, c, h, w = x.shape
    columns, out_h, out_w = im2col(x.data, kernel_size, kernel_size, stride, 0)
    columns = columns.reshape(n, c, kernel_size * kernel_size, out_h * out_w)
    out_data = columns.mean(axis=2).reshape(n, c, out_h, out_w)
    window = kernel_size * kernel_size

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_cols = np.broadcast_to(grad.reshape(n, c, 1, out_h * out_w) / window,
                                    (n, c, window, out_h * out_w)).copy()
        grad_cols = grad_cols.reshape(n, c * window, out_h * out_w)
        grad_input = col2im(grad_cols, (n, c, h, w), kernel_size, kernel_size,
                            stride, 0, out_h, out_w)
        x._accumulate(grad_input)

    return Tensor._make(out_data, (x,), backward)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Adaptive average pooling; only ``output_size == 1`` (global) is needed."""
    if output_size != 1:
        raise NotImplementedError("only global (1x1) adaptive pooling is supported")
    return x.mean(axis=(2, 3), keepdims=True)
