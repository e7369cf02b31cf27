"""Kernel-level checks: hand oracles, finite differences, adjoint identity."""

import types

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import correlate2d

from pbrseg import ops, unet
from pbrseg.errors import ConfigError

from conftest import check_grad, finite_diff_grad, rel_error


def scalar_loss(y, r):
    return float((y * r).sum())


# -- tap-by-tap reference kernels ---------------------------------------------
# One tensordot per kernel tap: slow, but the order in which they sum is the
# one ops.py keeps, so both must agree bit for bit on the width-8 net.

def ref_conv2d(x, weight, bias, stride=1, padding=1):
    kh, kw = weight.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    cols = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    y = np.tensordot(cols, weight, axes=((1, 4, 5), (1, 2, 3)))  # (n, oh, ow, oc)
    return y.transpose(0, 3, 1, 2) + bias[None, :, None, None], (x.shape, xp.shape, cols, weight,
                                                                 stride, padding)


def ref_conv2d_backward(gy, cache):
    x_shape, xp_shape, cols, weight, stride, padding = cache
    kh, kw = weight.shape[2:]
    oh, ow = gy.shape[2:]
    gw = np.tensordot(gy, cols, axes=((0, 2, 3), (0, 2, 3)))
    gxp = np.zeros(xp_shape, dtype=gy.dtype)
    for ki in range(kh):
        for kj in range(kw):
            t = np.tensordot(gy, weight[:, :, ki, kj], axes=((1,), (0,)))  # (n, oh, ow, ic)
            gxp[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += t.transpose(0, 3, 1, 2)
    h, w = x_shape[2:]
    return gxp[:, :, padding:padding + h, padding:padding + w], gw, gy.sum(axis=(0, 2, 3))


def ref_transposed_conv2d(x, weight, bias):
    n, _, h, w = x.shape
    y = np.empty((n, weight.shape[1], 2 * h, 2 * w), dtype=x.dtype)
    for ki in range(2):
        for kj in range(2):
            y[:, :, ki::2, kj::2] = np.tensordot(x, weight[:, :, ki, kj],
                                                 axes=((1,), (0,))).transpose(0, 3, 1, 2)
    return y + bias[None, :, None, None], (x, weight)


def ref_transposed_conv2d_backward(gy, cache):
    x, weight = cache
    gx, gw = np.zeros_like(x), np.zeros_like(weight)
    for ki in range(2):
        for kj in range(2):
            sub = gy[:, :, ki::2, kj::2]
            gx += np.tensordot(sub, weight[:, :, ki, kj], axes=((1,), (1,))).transpose(0, 3, 1, 2)
            gw[:, :, ki, kj] = np.tensordot(x, sub, axes=((0, 2, 3), (0, 2, 3)))
    return gx, gw, gy.sum(axis=(0, 2, 3))


def ref_maxpool2x2(x):
    # argmax over each window's four cells picks the first maximal one
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=4)
    return np.take_along_axis(win, idx[..., None], axis=4)[..., 0], idx


def ref_maxpool2x2_backward(gy, idx, input_shape):
    n, c, h, w = input_shape
    gwin = np.zeros((n, c, h // 2, w // 2, 4), dtype=gy.dtype)
    np.put_along_axis(gwin, idx[..., None], gy[..., None], axis=4)
    return gwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


def ref_relu(x):
    return np.maximum(x, 0), ("relu", x > 0)


REF_OPS = types.SimpleNamespace(**{**vars(ops), "conv2d": ref_conv2d,
                                   "conv2d_backward": ref_conv2d_backward,
                                   "transposed_conv2d": ref_transposed_conv2d,
                                   "transposed_conv2d_backward": ref_transposed_conv2d_backward,
                                   "maxpool2x2": ref_maxpool2x2,
                                   "maxpool2x2_backward": ref_maxpool2x2_backward,
                                   "relu_inplace": ref_relu})


@pytest.mark.parametrize("in_channels,n,h,w,train", [(1, 1, 64, 64, True), (3, 1, 64, 64, True),
                                                     (5, 1, 96, 80, True), (1, 8, 96, 80, False),
                                                     (1, 8, 48, 48, False)])
def test_width8_net_matches_tap_reference_bitwise(rng, monkeypatch, in_channels, n, h, w, train):
    # the shapes of training (batch 1) and of the batched three-view estimate;
    # at 48x48 the deepest convs have products small enough per image for
    # BLAS to sum them in another order
    net = unet.build_unet(unet.UNetConfig(in_channels, base_width=8), seed=3)
    x = rng.standard_normal((n, in_channels, h, w)).astype(np.float32)
    r = rng.standard_normal((n, 1, h, w)).astype(np.float32)
    results = []
    for kernels in (ops, REF_OPS):
        monkeypatch.setattr(unet, "ops", kernels)
        y = net.forward(x, train=train)
        grads = net.backward(r)[0] if train else {}
        results.append((y, grads))
    (y, grads), (y_ref, grads_ref) = results
    np.testing.assert_array_equal(y, y_ref)
    for name, g in grads_ref.items():
        np.testing.assert_array_equal(grads[name], g, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,c,oc,h,w,stride,padding", [
    (1, 8, 16, 32, 32, 2, 1), (1, 8, 16, 64, 64, 2, 1),  # stride 2, small and large gw product
    (3, 4, 4, 12, 10, 2, 0), (1, 16, 8, 64, 64, 1, 0),  # padding 0
    (3, 8, 16, 32, 32, 1, 1)])  # batch 3
def test_conv2d_backward_matches_tap_reference_bitwise(rng, dtype, n, c, oc, h, w, stride,
                                                       padding):
    # shapes the width-8 net never reaches, on both sides of SMALL_PRODUCT
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    weight = rng.standard_normal((oc, c, 3, 3)).astype(dtype)
    bias = rng.standard_normal(oc).astype(dtype)
    y, cache = ops.conv2d(x, weight, bias, stride, padding)
    _, ref_cache = ref_conv2d(x, weight, bias, stride, padding)
    gy = rng.standard_normal(y.shape).astype(dtype)
    for g, g_ref in zip(ops.conv2d_backward(gy, cache), ref_conv2d_backward(gy, ref_cache)):
        assert g.dtype == dtype and g.shape == g_ref.shape
        assert g.tobytes() == g_ref.tobytes()


# -- conv2d -----------------------------------------------------------------

def test_conv2d_all_ones_center():
    x = np.ones((1, 1, 3, 3))
    w = np.ones((1, 1, 3, 3))
    b = np.zeros(1)
    y, _ = ops.conv2d(x, w, b, stride=1, padding=1)
    assert y.shape == (1, 1, 3, 3)
    assert y[0, 0, 1, 1] == 9.0


def test_conv2d_hand_2x2():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    w = np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
    y, _ = ops.conv2d(x, w, np.zeros(1), stride=1, padding=0)
    assert y.shape == (1, 1, 1, 1)
    assert y[0, 0, 0, 0] == 5.0


def test_conv2d_matches_scipy_correlate(rng):
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    y, _ = ops.conv2d(x, w, b, stride=1, padding=1)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for n in range(2):
        for o in range(4):
            ref = sum(correlate2d(xp[n, c], w[o, c], mode="valid") for c in range(3)) + b[o]
            np.testing.assert_allclose(y[n, o], ref, rtol=1e-12, atol=1e-12)


def test_conv2d_stride2_matches_scipy(rng):
    x = rng.standard_normal((2, 2, 8, 8))
    w = rng.standard_normal((3, 2, 2, 2))
    b = rng.standard_normal(3)
    y, _ = ops.conv2d(x, w, b, stride=2, padding=0)
    assert y.shape == (2, 3, 4, 4)
    for n in range(2):
        for o in range(3):
            ref = sum(correlate2d(x[n, c], w[o, c], mode="valid") for c in range(2))[::2, ::2] + b[o]
            np.testing.assert_allclose(y[n, o], ref, rtol=1e-12, atol=1e-12)


def test_conv2d_gradients(rng):
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    r = rng.standard_normal((2, 4, 8, 8))

    def f():
        y, _ = ops.conv2d(x, w, b, stride=1, padding=1)
        return scalar_loss(y, r)

    _, cache = ops.conv2d(x, w, b, stride=1, padding=1)
    gx, gw, gb = ops.conv2d_backward(r, cache)
    check_grad(gx, f, x)
    check_grad(gw, f, w)
    check_grad(gb, f, b)


def test_conv2d_1x1_gradients(rng):
    x = rng.standard_normal((1, 4, 5, 5))
    w = rng.standard_normal((1, 4, 1, 1))
    b = rng.standard_normal(1)
    r = rng.standard_normal((1, 1, 5, 5))

    def f():
        y, _ = ops.conv2d(x, w, b, stride=1, padding=0)
        return scalar_loss(y, r)

    _, cache = ops.conv2d(x, w, b, stride=1, padding=0)
    gx, gw, gb = ops.conv2d_backward(r, cache)
    check_grad(gx, f, x)
    check_grad(gw, f, w)
    check_grad(gb, f, b)


def test_conv2d_channel_mismatch():
    with pytest.raises(ConfigError):
        ops.conv2d(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))


def test_conv2d_preserves_dtype(rng):
    x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
    w = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
    y, _ = ops.conv2d(x, w, np.zeros(2, dtype=np.float32))
    assert y.dtype == np.float32
    # float32 stays float32 and float64 stays float64 through every conv kernel
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((2, 3, 6, 6)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        for forward, backward, w in (
                (ops.conv2d, ops.conv2d_backward, rng.standard_normal((4, 3, 3, 3))),
                (ops.transposed_conv2d, ops.transposed_conv2d_backward,
                 rng.standard_normal((3, 4, 2, 2)))):
            y, cache = forward(x, w.astype(dtype), b)
            grads = backward(rng.standard_normal(y.shape).astype(dtype), cache)
            assert [a.dtype for a in (y, *grads)] == [dtype] * 4


def test_conv2d_stride2_padding1_gradients(rng):
    # col2im folds taps back with both a stride and a padding margin
    x = rng.standard_normal((2, 3, 7, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    r = rng.standard_normal((2, 4, 4, 4))

    def f():
        y, _ = ops.conv2d(x, w, b, stride=2, padding=1)
        return scalar_loss(y, r)

    _, cache = ops.conv2d(x, w, b, stride=2, padding=1)
    gx, gw, gb = ops.conv2d_backward(r, cache)
    check_grad(gx, f, x)
    check_grad(gw, f, w)
    check_grad(gb, f, b)


def test_conv2d_float32_batch_matches_scipy(rng):
    # the slice size and batch of the three-view estimate, in training dtype
    x = rng.standard_normal((8, 8, 96, 80)).astype(np.float32)
    w = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    y, _ = ops.conv2d(x, w, b, stride=1, padding=1)
    assert y.shape == (8, 8, 96, 80) and y.dtype == np.float32
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (1, 1), (1, 1)))
    w64 = w.astype(np.float64)
    ref = np.empty(y.shape)
    for n in range(8):
        for o in range(8):
            ref[n, o] = sum(correlate2d(xp[n, c], w64[o, c], mode="valid") for c in range(8)) + b[o]
    assert rel_error(y, ref) <= 1e-4


# -- transposed conv --------------------------------------------------------

def test_transposed_conv_broadcast():
    x = np.full((1, 1, 1, 1), 7.0)
    w = np.ones((1, 1, 2, 2))
    y, _ = ops.transposed_conv2d(x, w, np.zeros(1))
    assert y.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(y[0, 0], np.full((2, 2), 7.0))


def test_transposed_conv_naive_oracle(rng):
    x = rng.standard_normal((2, 3, 4, 5))
    w = rng.standard_normal((3, 2, 2, 2))
    b = rng.standard_normal(2)
    y, _ = ops.transposed_conv2d(x, w, b)
    ref = np.zeros((2, 2, 8, 10))
    for n in range(2):
        for o in range(2):
            for i in range(4):
                for j in range(5):
                    for ki in range(2):
                        for kj in range(2):
                            ref[n, o, 2 * i + ki, 2 * j + kj] += (
                                x[n, :, i, j] @ w[:, o, ki, kj])
            ref[n, o] += b[o]
    np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)


def test_conv_transposed_conv_adjoint(rng):
    # <conv(a; w), b> == <a, conv_t(b; w)>: the (oc,ic,..) conv weight reads
    # as (ic,oc,..) from the transposed side, so the same array ties them
    w = rng.standard_normal((4, 3, 2, 2))
    a = rng.standard_normal((2, 3, 8, 8))
    b = rng.standard_normal((2, 4, 4, 4))
    ya, _ = ops.conv2d(a, w, np.zeros(4), stride=2, padding=0)
    yb, _ = ops.transposed_conv2d(b, w, np.zeros(3))
    lhs = float((ya * b).sum())
    rhs = float((a * yb).sum())
    assert abs(lhs - rhs) <= 1e-5 * max(abs(lhs), abs(rhs), 1.0)


def test_transposed_conv_gradients(rng):
    x = rng.standard_normal((2, 3, 3, 4))
    w = rng.standard_normal((3, 2, 2, 2))
    b = rng.standard_normal(2)
    r = rng.standard_normal((2, 2, 6, 8))

    def f():
        y, _ = ops.transposed_conv2d(x, w, b)
        return scalar_loss(y, r)

    _, cache = ops.transposed_conv2d(x, w, b)
    gx, gw, gb = ops.transposed_conv2d_backward(r, cache)
    check_grad(gx, f, x)
    check_grad(gw, f, w)
    check_grad(gb, f, b)


def test_transposed_conv_rejects_bad_kernel():
    with pytest.raises(ConfigError):
        ops.transposed_conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))


# -- max pooling ------------------------------------------------------------

def test_maxpool_basic():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    y, idx = ops.maxpool2x2(x)
    assert y.shape == (1, 1, 1, 1)
    assert y[0, 0, 0, 0] == 4.0


def test_maxpool_matches_naive(rng):
    x = rng.standard_normal((2, 3, 6, 8))
    y, _ = ops.maxpool2x2(x)
    for n in range(2):
        for c in range(3):
            for i in range(3):
                for j in range(4):
                    assert y[n, c, i, j] == x[n, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()


def test_maxpool_tie_routes_to_first():
    x = np.ones((1, 1, 2, 2))
    y, idx = ops.maxpool2x2(x)
    assert y[0, 0, 0, 0] == 1.0
    gx = ops.maxpool2x2_backward(np.ones_like(y), idx, x.shape)
    np.testing.assert_array_equal(gx[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_maxpool_gradients_no_ties(rng):
    vals = rng.permutation(4 * 6 * 8).astype(np.float64)  # all distinct
    x = vals.reshape(1, 4, 6, 8)
    r = rng.standard_normal((1, 4, 3, 4))

    def f():
        y, _ = ops.maxpool2x2(x)
        return scalar_loss(y, r)

    _, idx = ops.maxpool2x2(x)
    gx = ops.maxpool2x2_backward(r, idx, x.shape)
    check_grad(gx, f, x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_ties_match_argmax_reference(rng, dtype):
    # few distinct values, so most windows hold a tie somewhere
    x = rng.integers(0, 3, (2, 3, 8, 6)).astype(dtype)
    x[0, 0, :2, :2] = [[-0.0, 0.0], [0.0, -0.0]]
    gy = rng.standard_normal((2, 3, 4, 3)).astype(dtype)
    y, cache = ops.maxpool2x2(x)
    y_ref, idx = ref_maxpool2x2(x)
    assert y.tobytes() == y_ref.tobytes()
    gx = ops.maxpool2x2_backward(gy, cache, x.shape)
    assert gx.tobytes() == ref_maxpool2x2_backward(gy, idx, x.shape).tobytes()


def test_maxpool_rejects_odd_dims():
    with pytest.raises(ConfigError):
        ops.maxpool2x2(np.zeros((1, 1, 3, 4)))


# -- activations ------------------------------------------------------------

def test_relu_values():
    y, _ = ops.activation(np.array([[[[-2.0, 3.0]]]]), "relu")
    np.testing.assert_array_equal(y, [[[[0.0, 3.0]]]])


def test_sigmoid_at_zero():
    y, _ = ops.activation(np.zeros((1, 1, 1, 1)), "sigmoid")
    assert y[0, 0, 0, 0] == 0.5


def test_relu_gradient_away_from_kink(rng):
    x = rng.standard_normal((2, 3, 4, 4))
    x[np.abs(x) < 0.1] += 0.2  # keep clear of the nondifferentiable point
    r = rng.standard_normal(x.shape)

    def f():
        y, _ = ops.activation(x, "relu")
        return scalar_loss(y, r)

    _, cache = ops.activation(x, "relu")
    gx = ops.activation_backward(r, cache)
    check_grad(gx, f, x)


def test_sigmoid_gradient(rng):
    x = rng.standard_normal((2, 2, 4, 4))
    r = rng.standard_normal(x.shape)

    def f():
        y, _ = ops.activation(x, "sigmoid")
        return scalar_loss(y, r)

    _, cache = ops.activation(x, "sigmoid")
    gx = ops.activation_backward(r, cache)
    check_grad(gx, f, x)


def test_activation_unknown_kind():
    with pytest.raises(ConfigError):
        ops.activation(np.zeros((1, 1, 1, 1)), "tanh")


# -- concat -----------------------------------------------------------------

def test_concat_shapes_and_content(rng):
    a = rng.standard_normal((2, 2, 4, 4))
    b = rng.standard_normal((2, 3, 4, 4))
    y, split = ops.concat_channels(a, b)
    assert y.shape == (2, 5, 4, 4)
    assert split == 2
    np.testing.assert_array_equal(y[:, 0], a[:, 0])
    np.testing.assert_array_equal(y[:, 2:], b)


def test_concat_backward_exact_split(rng):
    a = rng.standard_normal((1, 2, 3, 3))
    b = rng.standard_normal((1, 4, 3, 3))
    _, split = ops.concat_channels(a, b)
    gy = rng.standard_normal((1, 6, 3, 3))
    ga, gb = ops.concat_channels_backward(gy, split)
    np.testing.assert_array_equal(ga, gy[:, :2])
    np.testing.assert_array_equal(gb, gy[:, 2:])


def test_concat_spatial_mismatch():
    with pytest.raises(ConfigError):
        ops.concat_channels(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 5, 4)))


# -- dice loss --------------------------------------------------------------

def test_dice_loss_perfect_overlap():
    x = np.ones((1, 1, 4, 4))
    assert ops.dice_loss(x, x) == 0.0


def test_dice_loss_disjoint():
    pred = np.zeros((1, 1, 4, 4))
    target = np.ones((1, 1, 4, 4))
    loss = ops.dice_loss(pred, target)
    assert loss == pytest.approx(1.0, abs=1e-6)


def test_dice_loss_uniform_half():
    # uniform 0.5 against all ones: overlap 2*(0.5 N) / (0.5 N + N) = 2/3
    pred = np.full((1, 1, 8, 8), 0.5)
    target = np.ones((1, 1, 8, 8))
    assert ops.dice_loss(pred, target) == pytest.approx(1.0 / 3.0, abs=1e-7)


def test_dice_loss_both_empty_is_zero():
    z = np.zeros((1, 1, 4, 4))
    assert ops.dice_loss(z, z) == 0.0


def test_dice_loss_range(rng):
    for _ in range(20):
        pred = rng.uniform(size=(1, 1, 6, 6))
        target = (rng.uniform(size=(1, 1, 6, 6)) > 0.5).astype(np.float64)
        assert 0.0 <= ops.dice_loss(pred, target) <= 1.0


def test_dice_loss_gradient(rng):
    pred = rng.uniform(0.05, 0.95, size=(1, 1, 6, 6))
    target = (rng.uniform(size=(1, 1, 6, 6)) > 0.5).astype(np.float64)

    def f():
        return ops.dice_loss(pred, target)

    loss, grad = ops.dice_loss_grad(pred, target)
    assert loss == pytest.approx(ops.dice_loss(pred, target))
    check_grad(grad, f, pred)


def test_dice_loss_shape_mismatch():
    with pytest.raises(ConfigError):
        ops.dice_loss(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)))


def test_ops_deterministic(rng):
    x = rng.standard_normal((1, 2, 8, 8))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    y1, _ = ops.conv2d(x, w, b)
    y2, _ = ops.conv2d(x.copy(), w.copy(), b.copy())
    np.testing.assert_array_equal(y1, y2)
