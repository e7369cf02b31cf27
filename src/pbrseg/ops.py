"""Deterministic differentiable tensor kernels.

Every forward function returns ``(output, cache)`` and has a matching
``*_backward`` that consumes the upstream gradient plus the cache and
returns gradients for each differentiable input. Tensors are plain numpy
arrays of shape (batch, channels, rows, cols); outputs take the
``np.result_type`` of the inputs, so float64 can be used for gradient
checking and float32 for training. No hidden state anywhere: same inputs
give bit-identical outputs.

Convolutions are unrolled into matrix products (im2col). ``conv2d`` copies
the zero-padded input of one image at a time into a C-contiguous column
buffer of shape (c*kh*kw, oh*ow), copied in runs along ow: row (ci, ki, kj)
holds the pixels that tap (ki, kj) of channel ci meets, in output order. The
product ``cols^T @ W^T`` of each image fills its rows of one (n*oh*ow, oc)
output, returned as an NCHW view, so the column buffer holds nine times one
image rather than nine times the batch. Two products stay whole, because
splitting them would change their sums: a single output channel (a
matrix-vector product, whose summation order follows its row count), and
one of at most ``SMALL_PRODUCT`` multiply-adds per image, which OpenBLAS
would give to its small-matrix kernel while the batch's product takes the
blocked one. The bias is added in place to that pixel-major product, so the
output costs no pass beyond the product itself. Backward rebuilds the
columns of the whole batch from the cached padded input: the weight gradient
is one product with them, the input gradient one product batched over the
kh*kw taps, folded back by kh*kw adds (col2im) into a channel-last
(n, hp, wp, c) buffer, where each tap's slice is a contiguous read, and
copied once into the NCHW padded gradient whose interior view it returns.
The non-overlapping 2x2 stride-2 transposed convolution is one product
batched over its four taps plus a reshape, both ways.

Caches hold only what backward cannot get more cheaply. Max pooling takes
the running max of the four stride-2 views and caches (input, pooled):
no argmax runs forward, and backward finds each window's first cell, in
row-major order, equal to the max, the cell argmax would pick. A relu caches
its output, whose positive cells are the input's, so no mask is built; the
U-Net applies it with ``relu_inplace`` on each conv's fresh output, and
``activation`` writes a new array for any other caller.

BLAS may pick its summation order by operand layout (always for a
single-column product, otherwise for small ones). A single output channel
therefore takes pixel-major rows, forward and backward, and so does a
weight gradient of at most ``SMALL_PRODUCT`` multiply-adds; a larger one
reads the column buffer through its transposed view, with no transposing
copy. The tap products take per-tap weight slices, as the tap-by-tap
reference in ``tests/test_ops.py`` does; on OpenBLAS the kernels equal that
reference bit for bit at every layer of the width-8 net, so trained weights
do not depend on which of the two computed them. Narrower nets have products
small enough for the transposed columns of the forward product to change
the last bits.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import expit

from .errors import ConfigError

DICE_EPS = 1e-6
SMALL_PRODUCT = 100 ** 3  # multiply-adds up to which OpenBLAS uses its small-matrix kernel


def _require_4d(x: np.ndarray, name: str) -> None:
    if x.ndim != 4:
        raise ConfigError(f"{name} must be 4-D (n,c,h,w), got shape {x.shape}")


# ---------------------------------------------------------------------------
# convolution


def _columns(xp, kh, kw, stride, oh, ow):
    """Column buffer (c*kh*kw, n*oh*ow) of a padded input: row (ci, ki, kj)
    holds the pixels that tap (ki, kj) of channel ci meets, in output order.
    The copy runs along ow, so it is one pass over contiguous memory."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    window = as_strided(xp, (c, kh, kw, n, oh, ow), (sc, sh, sw, sn, stride * sh, stride * sw),
                        writeable=False)
    return np.ascontiguousarray(window).reshape(c * kh * kw, n * oh * ow)


def conv2d(x, weight, bias, stride=1, padding=1):
    """Cross-correlation of x (n,c,h,w) with weight (oc,ic,kh,kw).

    Output spatial dims are floor((h + 2p - k)/s) + 1. The cache is
    (x.shape, padded shape, padded input, weight, stride, padding).
    """
    _require_4d(x, "conv2d input")
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ConfigError(f"conv2d channel mismatch: input has {c}, weight expects {ic}")
    if bias.shape != (oc,):
        raise ConfigError(f"conv2d bias must have shape ({oc},), got {bias.shape}")
    if stride < 1 or padding < 0:
        raise ConfigError(f"conv2d invalid stride/padding ({stride}, {padding})")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ConfigError(f"conv2d kernel {kh}x{kw} too large for input {h}x{w} (pad {padding})")
    dtype = np.result_type(x, weight, bias)
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    wm = weight.reshape(oc, -1).astype(dtype, copy=False)
    if oc == 1:
        # a matrix-vector product: its summation order follows the layout
        y = np.dot(np.ascontiguousarray(_columns(xp, kh, kw, stride, oh, ow).T), wm.T)
    else:
        # one image's columns at a time, unless its product is a small one
        step = 1 if oh * ow * oc * wm.shape[1] > SMALL_PRODUCT else n
        y = np.empty((n * oh * ow, oc), dtype=dtype)
        for i in range(0, n, step):
            np.dot(_columns(xp[i:i + step], kh, kw, stride, oh, ow).T, wm.T,
                   out=y[i * oh * ow:(i + step) * oh * ow])
    y += bias
    y = y.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2)
    # the padded input is a ninth of the columns, so it is what training keeps
    return y, (x.shape, xp.shape, xp, weight, stride, padding)


def conv2d_backward(gy, cache):
    """Gradients of conv2d w.r.t. (input, weight, bias)."""
    x_shape, xp_shape, xp, weight, stride, padding = cache
    n, c, h, w = x_shape
    oc, _, kh, kw = weight.shape
    oh, ow = gy.shape[2], gy.shape[3]
    gb = gy.sum(axis=(0, 2, 3))
    gym = gy.transpose(1, 0, 2, 3).reshape(oc, -1)
    rows = _columns(xp, kh, kw, stride, oh, ow).T  # pixel-major view of the columns
    if oc == 1 or gym.size * rows.shape[1] <= SMALL_PRODUCT:  # summation order follows layout
        rows = np.ascontiguousarray(rows)
    gw = np.dot(gym, rows).reshape(weight.shape)
    del rows  # nine times the padded input: not kept alive through the col2im
    taps = weight.transpose(2, 3, 0, 1).reshape(kh * kw, oc, c)
    gtaps = gy.transpose(0, 2, 3, 1).reshape(n * oh * ow, oc) @ taps  # (kh*kw, n*oh*ow, c)
    gtaps = gtaps.reshape(kh, kw, n, oh, ow, c)
    gxp = np.zeros((n, *xp_shape[2:], c), dtype=gtaps.dtype)  # channel-last
    for ki in range(kh):  # col2im: fold each tap's gradient back onto the input
        for kj in range(kw):
            gxp[:, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += gtaps[ki, kj]
    gxp = np.ascontiguousarray(gxp.transpose(0, 3, 1, 2))
    return gxp[:, :, padding:padding + h, padding:padding + w], gw, gb


# ---------------------------------------------------------------------------
# transposed convolution (fixed 2x2 kernel, stride 2: doubles h and w)


def transposed_conv2d(x, weight, bias):
    """Transposed convolution with weight (ic,oc,2,2), stride 2.

    Each output pixel receives exactly one kernel tap, so the output is
    2h x 2w with no overlap.
    """
    _require_4d(x, "transposed_conv2d input")
    n, c, h, w = x.shape
    ic, oc, kh, kw = weight.shape
    if (kh, kw) != (2, 2):
        raise ConfigError(f"transposed_conv2d kernel must be 2x2, got {kh}x{kw}")
    if ic != c:
        raise ConfigError(f"transposed_conv2d channel mismatch: input has {c}, weight expects {ic}")
    if bias.shape != (oc,):
        raise ConfigError(f"transposed_conv2d bias must have shape ({oc},), got {bias.shape}")
    taps = x.transpose(0, 2, 3, 1).reshape(n * h * w, ic) @ np.ascontiguousarray(
        weight.transpose(2, 3, 0, 1))
    # taps[ki, kj, (i, j), o] is output pixel (o, 2i + ki, 2j + kj)
    y = taps.reshape(2, 2, n, h, w, oc).transpose(2, 5, 3, 0, 4, 1).reshape(n, oc, 2 * h, 2 * w)
    y += bias[None, :, None, None]
    return y, (x, weight)


def transposed_conv2d_backward(gy, cache):
    x, weight = cache
    n, ic, h, w = x.shape
    oc = weight.shape[1]
    gb = gy.sum(axis=(0, 2, 3))
    gtaps = gy.reshape(n, oc, h, 2, w, 2).transpose(3, 5, 0, 2, 4, 1).reshape(2, 2, n * h * w, oc)
    gw = (x.transpose(1, 0, 2, 3).reshape(ic, -1) @ gtaps).transpose(2, 3, 0, 1)
    gx = (gtaps @ np.ascontiguousarray(weight.transpose(2, 3, 1, 0))).sum(axis=(0, 1))
    return gx.reshape(n, h, w, ic).transpose(0, 3, 1, 2), gw, gb


# ---------------------------------------------------------------------------
# max pooling


def maxpool2x2(x):
    """2x2 max pooling with stride 2; returns (pooled, cache).

    The pooled values are the running max of the four stride-2 views, taken
    in window order; the cache is (input, pooled).
    """
    _require_4d(x, "maxpool2x2 input")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ConfigError(f"maxpool2x2 requires even spatial dims, got {h}x{w}")
    y = np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2])
    np.maximum(y, x[:, :, 1::2, 0::2], out=y)
    np.maximum(y, x[:, :, 1::2, 1::2], out=y)
    return y, (x, y)


def maxpool2x2_backward(gy, cache, input_shape):
    """Route each window's gradient to the first of its cells, in row-major
    order, that equals the pooled max, so ties land on exactly one cell."""
    x, y = cache
    gx = np.zeros(input_shape, dtype=gy.dtype)
    free = np.ones(y.shape, dtype=bool)  # windows whose max cell is not yet found
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = free & (x[:, :, i::2, j::2] == y)
        np.copyto(gx[:, :, i::2, j::2], gy, where=hit)
        free &= ~hit
    return gx


# ---------------------------------------------------------------------------
# activations


def activation(x, kind):
    """Elementwise relu or sigmoid into a new array; returns (output, cache)."""
    if kind == "relu":
        return relu_inplace(x.copy())
    if kind == "sigmoid":
        y = expit(x)
        return y, ("sigmoid", y)
    raise ConfigError(f"unknown activation kind '{kind}'")


def relu_inplace(x):
    """Relu written over x, which must be an array the caller owns (such as
    a conv's fresh output); returns (x, cache) like ``activation``."""
    np.maximum(x, 0, out=x)
    return x, ("relu", x)


def activation_backward(gy, cache):
    kind, y = cache
    if kind == "relu":
        return gy * (y > 0)
    return gy * y * (1.0 - y)


# ---------------------------------------------------------------------------
# channel concatenation (skip connections)


def concat_channels(a, b):
    """Concatenate along channels, a first; returns (output, split point)."""
    _require_4d(a, "concat_channels a")
    _require_4d(b, "concat_channels b")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ConfigError(f"concat_channels spatial/batch mismatch: {a.shape} vs {b.shape}")
    return np.concatenate((a, b), axis=1), a.shape[1]


def concat_channels_backward(gy, split):
    return gy[:, :split], gy[:, split:]


# ---------------------------------------------------------------------------
# Dice loss


def dice_loss(pred, target):
    """The loss that ``dice_loss_grad`` returns, without its gradient."""
    return dice_loss_grad(pred, target)[0]


def dice_loss_grad(pred, target):
    """Dice loss 1 - (2*sum(pred*target) + eps) / (sum(pred) + sum(target) + eps)
    plus its gradient w.r.t. pred.

    pred is expected in [0,1] and target in {0,1}; the epsilon makes the
    all-empty case come out as loss 0.
    """
    if pred.shape != target.shape:
        raise ConfigError(f"dice_loss shape mismatch: {pred.shape} vs {target.shape}")
    inter = np.multiply(pred, target).sum(dtype=np.float64)
    num = 2.0 * inter + DICE_EPS
    den = pred.sum(dtype=np.float64) + target.sum(dtype=np.float64) + DICE_EPS
    grad = -(2.0 * target.astype(np.float64) * den - num) / (den * den)
    return float(1.0 - num / den), grad.astype(pred.dtype, copy=False)
