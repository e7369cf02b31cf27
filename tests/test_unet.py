"""Network assembly, shape flow, and the end-to-end gradient check."""

import tracemalloc

import numpy as np
import pytest

from pbrseg import ops
from pbrseg.errors import ConfigError
from pbrseg.unet import (LayerSpec, UNet, UNetConfig, architecture_specs, build_unet,
                         forward_padded, pad_to_divisor)

from conftest import finite_diff_grad_at, rel_error


def test_output_shape_and_range(rng):
    net = build_unet(UNetConfig(in_channels=3, base_width=8), seed=0)
    x = rng.standard_normal((1, 3, 64, 64)).astype(np.float32)
    y = net.forward(x)
    assert y.shape == (1, 1, 64, 64)
    assert np.all(y > 0.0) and np.all(y < 1.0)


def test_param_count_matches_hand_enumeration():
    # doubling widths, two 3x3 convs per block, 2x2 up-convs, 1x1 head
    def conv(ic, oc, k):
        return oc * ic * k * k + oc

    def block(ic, oc):
        return conv(ic, oc, 3) + conv(oc, oc, 3)

    c, f = 1, 1
    expected = 0
    widths = [f, 2 * f, 4 * f, 8 * f]
    in_c = c
    for w in widths:
        expected += block(in_c, w)
        in_c = w
    expected += block(8 * f, 16 * f)
    up_in = 16 * f
    for w in reversed(widths):
        expected += up_in * w * 4 + w  # transposed conv 2x2
        expected += block(2 * w, w)
        up_in = w
    expected += conv(f, 1, 1)

    net = build_unet(UNetConfig(in_channels=c, base_width=f), seed=0)
    assert sum(p.size for p in net.params.values()) == expected


def test_rejects_indivisible_input():
    net = build_unet(UNetConfig(in_channels=3, base_width=2), seed=0)
    with pytest.raises(ConfigError):
        net.forward(np.zeros((1, 3, 60, 60), dtype=np.float32))


def test_pad_to_divisor(rng):
    x = rng.standard_normal((3, 1, 30, 17)).astype(np.float32)
    padded = pad_to_divisor(x)
    # 30 -> 32 pads (1, 1), 17 -> 32 pads (7, 8)
    assert padded.shape == (3, 1, 32, 32)
    np.testing.assert_array_equal(padded[:, :, 1:31, 7:24], x)
    assert padded[:, :, 0, :].sum() == 0.0 and padded[:, :, 31, :].sum() == 0.0
    assert padded[:, :, :, :7].sum() == 0.0 and padded[:, :, :, 24:].sum() == 0.0
    fits = x[:, :, :16, :16]
    assert pad_to_divisor(fits) is fits


def test_forward_padded_keeps_input_dims(rng):
    net = build_unet(UNetConfig(in_channels=3, base_width=2), seed=0)
    x = rng.standard_normal((2, 3, 50, 60)).astype(np.float32)
    y = forward_padded(net, x)
    assert y.shape == (2, 1, 50, 60)
    np.testing.assert_array_equal(y, net.forward(pad_to_divisor(x))[:, :, 7:57, 2:62])
    x16 = x[:, :, :48, :48]
    np.testing.assert_array_equal(forward_padded(net, x16), net.forward(x16))


def test_rejects_wrong_channels():
    net = build_unet(UNetConfig(in_channels=1, base_width=2), seed=0)
    with pytest.raises(ConfigError):
        net.forward(np.zeros((1, 3, 16, 16), dtype=np.float32))


def test_channel_swap_changes_only_first_conv():
    f = 4

    def count(c):
        net = build_unet(UNetConfig(in_channels=c, base_width=f), seed=0)
        return sum(p.size for p in net.params.values())
    assert count(3) - count(1) == 2 * f * 9


def test_spatial_dims_preserved(rng):
    net = build_unet(UNetConfig(in_channels=1, base_width=2), seed=0)
    for h, w in ((16, 16), (32, 16), (16, 48)):
        y = net.forward(rng.standard_normal((1, 1, h, w)).astype(np.float32))
        assert y.shape == (1, 1, h, w)


def test_build_deterministic():
    a = build_unet(UNetConfig(in_channels=1, base_width=4), seed=3)
    b = build_unet(UNetConfig(in_channels=1, base_width=4), seed=3)
    assert set(a.params) == set(b.params)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])


def test_forward_deterministic(rng):
    net = build_unet(UNetConfig(in_channels=1, base_width=4), seed=0)
    x = rng.standard_normal((2, 1, 16, 16)).astype(np.float32)
    np.testing.assert_array_equal(net.forward(x), net.forward(x.copy()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_and_inference_forwards_agree_bitwise(rng, dtype):
    # float64 follows the gradient checks, which cast weights and input alike
    net = build_unet(UNetConfig(in_channels=3, base_width=8), seed=1)
    net.params = {k: v.astype(dtype) for k, v in net.params.items()}
    x = rng.standard_normal((1, 3, 32, 48)).astype(dtype)
    y_train = net.forward(x, train=True)
    y = net.forward(x)
    assert y.dtype == y_train.dtype == dtype
    assert y.tobytes() == y_train.tobytes()


@pytest.mark.parametrize("train", [False, True])
def test_forward_leaves_input_unchanged(rng, train):
    net = build_unet(UNetConfig(in_channels=2, base_width=4), seed=0)
    x = rng.standard_normal((2, 2, 16, 32)).astype(np.float32)
    before = x.copy()
    net.forward(x, train=train)
    if train:
        net.backward(np.ones((2, 1, 16, 32), dtype=np.float32))
    assert x.tobytes() == before.tobytes()


def test_init_statistics():
    # fan-in scaled normal: std of a big conv tensor near sqrt(2/fan_in)
    net = build_unet(UNetConfig(in_channels=1, base_width=16), seed=0)
    w = net.params["mid.conv2.w"]  # 256x256x3x3, plenty of samples
    fan_in = w.shape[1] * 9
    assert abs(w.std() / np.sqrt(2.0 / fan_in) - 1.0) < 0.05
    assert np.allclose(net.params["mid.conv2.b"], 0.0)


def test_backward_covers_every_param(rng):
    net = build_unet(UNetConfig(in_channels=1, base_width=2), seed=0)
    x = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
    y = net.forward(x, train=True)
    grads, gx = net.backward(np.ones_like(y))
    assert set(grads) == set(net.params)
    assert gx.shape == x.shape


def test_backward_without_forward_rejected():
    net = build_unet(UNetConfig(in_channels=1, base_width=2), seed=0)
    with pytest.raises(ConfigError):
        net.backward(np.zeros((1, 1, 16, 16)))


def test_architecture_specs_align_with_params():
    config = UNetConfig(in_channels=3, base_width=4)
    net = build_unet(config)
    spec_names = {name for name, s in architecture_specs(config)
                  if s.kind in ("conv", "transposed-conv")}
    param_prefixes = {k.rsplit(".", 1)[0] for k in net.params}
    assert spec_names == param_prefixes


def test_tape_follows_architecture_specs(rng):
    """forward(train=True) records one entry per spec, under the spec's name
    and in spec order, and refuses a layer kind it has no branch for."""
    config = UNetConfig(in_channels=3, base_width=2)
    net = build_unet(config)
    specs = architecture_specs(config)
    x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
    net.forward(x, train=True)
    assert list(net._tape) == [name for name, _ in specs]
    assert {s.kind for _, s in specs} == {"conv", "relu", "maxpool", "transposed-conv",
                                          "concat", "sigmoid"}
    net.specs = specs + [("out.dropout", LayerSpec("dropout", 1, 1))]
    with pytest.raises(ConfigError, match="dropout"):
        net.forward(x)


def test_end_to_end_gradient_tiny_net(rng):
    """Finite differences through the whole net (F=2, 16x16) in float64.

    A smaller step than the per-op checks (1e-5 vs 1e-3) keeps the
    oracle's own truncation error (curvature plus relu kink crossings
    through 20+ composed layers) well below the 1e-3 agreement bar;
    float64 keeps roundoff near 1e-11.
    """
    net = build_unet(UNetConfig(in_channels=1, base_width=2), seed=11, dtype=np.float64)
    x = rng.standard_normal((1, 1, 16, 16))
    target = (rng.uniform(size=(1, 1, 16, 16)) > 0.7).astype(np.float64)

    def loss():
        return ops.dice_loss(net.forward(x), target)

    y = net.forward(x, train=True)
    _, gy = ops.dice_loss_grad(y, target)
    grads, gx = net.backward(gy)

    coord_rng = np.random.default_rng(99)
    for name in sorted(net.params):
        p = net.params[name]
        k = min(5, p.size)
        coords = coord_rng.choice(p.size, size=k, replace=False)
        numeric = finite_diff_grad_at(loss, p, coords, delta=1e-5)
        analytic = grads[name].reshape(-1)[coords]
        err = rel_error(analytic, numeric)
        assert err <= 1e-3, f"{name}: relative error {err:.2e}"
    coords = coord_rng.choice(x.size, size=8, replace=False)
    numeric = finite_diff_grad_at(loss, x, coords, delta=1e-5)
    analytic = gx.reshape(-1)[coords]
    assert rel_error(analytic, numeric) <= 1e-3


def test_checkpoint_roundtrip_preserves_forward(rng):
    net = build_unet(UNetConfig(in_channels=3, base_width=4), seed=2)
    blob = net.save()
    restored = UNet.load(blob)
    assert restored.config.in_channels == 3
    assert restored.config.base_width == 4
    x = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
    np.testing.assert_array_equal(net.forward(x), restored.forward(x))


def test_batch8_forward_memory_is_bounded(rng):
    """Conv columns are built one image at a time, so a batch-8 96x80 forward
    of the width-8 net stays under 25 MB of numpy buffers (the whole batch's
    columns took about 50 MB)."""
    net = build_unet(UNetConfig(in_channels=1, base_width=8), seed=0)
    x = rng.standard_normal((8, 1, 96, 80)).astype(np.float32)
    tracemalloc.start()
    try:
        net.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6, f"forward peak {peak / 1e6:.1f} MB"


def test_train_step_memory_is_bounded(rng):
    """One batch-1 64x64 training step of the width-8 net (forward with its
    caches, then backward) stays under 8.1 MB of numpy buffers, 3% above the
    7.85 MB it took while backward built pixel-major rows and folded the
    taps back in NCHW order: the channel-last col2im buffer adds no live
    copy per layer."""
    net = build_unet(UNetConfig(in_channels=1, base_width=8), seed=0)
    x = rng.standard_normal((1, 1, 64, 64)).astype(np.float32)
    r = rng.standard_normal((1, 1, 64, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        net.backward(net.forward(x, train=True) - r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.1e6, f"train step peak {peak / 1e6:.1f} MB"
