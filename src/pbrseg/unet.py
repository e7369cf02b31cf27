"""Encoder-decoder U-Net assembled from the hand-built kernels.

Four encoder blocks (two 3x3 conv + relu each, widths F, 2F, 4F, 8F)
with 2x2 max pooling between them, a 16F bottleneck, and four decoder
blocks that upsample with a 2x2 stride-2 transposed convolution, halve
the channel count, concatenate the matching encoder skip tensor, and
apply two more conv + relu pairs. A final 1x1 convolution plus sigmoid
produces a single-channel probability map at full input resolution.

``architecture_specs`` is the only statement of that layer sequence:
``UNet.forward`` walks it in order and ``UNet.backward`` in reverse, and
the weight shapes, initialisation and checkpoint checks are read from it.

``UNet.forward`` takes slices whose height and width divide by 16; callers
run any other size through ``forward_padded``, which pads and crops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, SchemaError

CONV_KERNEL = 3
UP_KERNEL = 2
LEVELS = 4
DIVISOR = 2 ** LEVELS  # every level halves the slice, so inputs must divide by this


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv | relu | maxpool | transposed-conv | concat | sigmoid
    in_channels: int
    out_channels: int
    kernel: int = 0


@dataclass(frozen=True)
class UNetConfig:
    """Everything a checkpoint header records about the architecture."""

    in_channels: int
    base_width: int = 8

    def __post_init__(self):
        if self.in_channels < 1 or self.base_width < 1:
            raise ConfigError(f"invalid channel/width config: {self}")


def _margins(n: int) -> tuple:
    extra = -n % DIVISOR
    return extra // 2, extra - extra // 2


def pad_to_divisor(x: np.ndarray) -> np.ndarray:
    """Zero-pad the last two axes up to multiples of DIVISOR, extra // 2
    before and the rest after; an array that already fits is not copied."""
    pads = [_margins(n) for n in x.shape[-2:]]
    if pads == [(0, 0), (0, 0)]:
        return x
    return np.pad(x, [(0, 0)] * (x.ndim - 2) + pads)


def forward_padded(net, x: np.ndarray) -> np.ndarray:
    """Inference on an (n, c, h, w) batch of any in-plane size: pad with
    ``pad_to_divisor``, run ``net.forward``, crop the output back to h x w."""
    h, w = x.shape[-2:]
    top, left = _margins(h)[0], _margins(w)[0]
    return net.forward(pad_to_divisor(x))[..., top:top + h, left:left + w]


def _block_specs(block, in_c, out_c):
    return [
        (f"{block}.conv1", LayerSpec("conv", in_c, out_c, CONV_KERNEL)),
        (f"{block}.relu1", LayerSpec("relu", out_c, out_c)),
        (f"{block}.conv2", LayerSpec("conv", out_c, out_c, CONV_KERNEL)),
        (f"{block}.relu2", LayerSpec("relu", out_c, out_c)),
    ]


def architecture_specs(config: UNetConfig):
    """Ordered (name, LayerSpec) pairs for the whole network."""
    F = config.base_width
    widths = [F * 2 ** i for i in range(LEVELS)]
    specs = []
    c = config.in_channels
    for i, w in enumerate(widths, start=1):
        specs += _block_specs(f"enc{i}", c, w)
        specs += [(f"pool{i}", LayerSpec("maxpool", w, w, 2))]
        c = w
    mid = F * 2 ** LEVELS
    specs += _block_specs("mid", c, mid)
    c = mid
    for i in range(LEVELS, 0, -1):
        w = widths[i - 1]
        specs += [(f"dec{i}.up", LayerSpec("transposed-conv", c, w, UP_KERNEL))]
        specs += [(f"dec{i}.concat", LayerSpec("concat", 2 * w, 2 * w))]
        specs += _block_specs(f"dec{i}", 2 * w, w)
        c = w
    specs += [("out", LayerSpec("conv", c, 1, 1))]
    specs += [("out.sigmoid", LayerSpec("sigmoid", 1, 1))]
    return specs


class UNet:
    """A built network: immutable architecture, mutable named weights.

    ``forward(x, train=True)`` records the caches needed by ``backward``;
    inference calls (``train=False``) keep nothing and are safe to run
    concurrently on the same instance.
    """

    def __init__(self, config: UNetConfig, params: dict):
        self.config = config
        self.params = params
        self.specs = architecture_specs(config)
        self._tape = None

    @property
    def in_channels(self) -> int:
        return self.config.in_channels

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ConfigError(
                f"expected input (n,{self.in_channels},h,w), got shape {tuple(x.shape)}")
        h, w = x.shape[2], x.shape[3]
        if h % DIVISOR or w % DIVISOR:
            raise ConfigError(
                f"input spatial dims must be divisible by {DIVISOR}, got {h}x{w}")
        tape = {} if train else None
        skips = []
        a = x
        for name, spec in self.specs:
            if spec.kind == "conv":
                a, cache = ops.conv2d(a, self.params[f"{name}.w"], self.params[f"{name}.b"],
                                      stride=1, padding=spec.kernel // 2)
            elif spec.kind == "relu":
                # every relu follows its conv, whose output is fresh, so relu may overwrite it
                a, cache = ops.relu_inplace(a)
            elif spec.kind == "maxpool":
                skips.append(a)
                a, cache = ops.maxpool2x2(a)
            elif spec.kind == "transposed-conv":
                a, cache = ops.transposed_conv2d(a, self.params[f"{name}.w"],
                                                 self.params[f"{name}.b"])
            elif spec.kind == "concat":
                a, cache = ops.concat_channels(a, skips.pop())
            elif spec.kind == "sigmoid":
                a, cache = ops.activation(a, "sigmoid")
            else:
                raise ConfigError(f"layer '{name}' has unknown kind '{spec.kind}'")
            if tape is not None:
                tape[name] = cache
        if tape is not None:
            self._tape = tape
        return a

    def backward(self, gy):
        """Backpropagate an output gradient; returns (grads, input grad).

        Requires a preceding ``forward(..., train=True)`` on the same
        instance.
        """
        tape = self._tape
        if tape is None:
            raise ConfigError("backward() called without forward(train=True)")
        grads: dict = {}
        skip_grads = []
        for name, spec in reversed(self.specs):
            cache = tape[name]
            if spec.kind in ("relu", "sigmoid"):
                gy = ops.activation_backward(gy, cache)
            elif spec.kind == "conv":
                gy, grads[f"{name}.w"], grads[f"{name}.b"] = ops.conv2d_backward(gy, cache)
            elif spec.kind == "transposed-conv":
                gy, grads[f"{name}.w"], grads[f"{name}.b"] = \
                    ops.transposed_conv2d_backward(gy, cache)
            elif spec.kind == "concat":
                gy, g_skip = ops.concat_channels_backward(gy, cache)
                skip_grads.append(g_skip)
            else:  # maxpool: its input also fed the skip, so both gradients meet here
                g_skip = skip_grads.pop()
                gy = ops.maxpool2x2_backward(gy, cache, g_skip.shape) + g_skip
        self._tape = None
        return grads, gy

    # -- serialization -----------------------------------------------------

    def save(self) -> bytes:
        return save_checkpoint(self.params, self.config.in_channels, self.config.base_width)

    @classmethod
    def load(cls, data: bytes) -> "UNet":
        cp = load_checkpoint(data)
        config = UNetConfig(in_channels=cp.in_channels, base_width=cp.base_width)
        shapes = param_shapes(config)
        if set(cp.params) != set(shapes):
            missing = sorted(set(shapes) - set(cp.params))
            extra = sorted(set(cp.params) - set(shapes))
            raise SchemaError(f"checkpoint arrays do not match architecture "
                              f"(missing {missing[:4]}, extra {extra[:4]})")
        for name, arr in cp.params.items():
            if arr.shape != shapes[name]:
                raise SchemaError(f"array '{name}' has shape {arr.shape}, "
                                  f"expected {shapes[name]}")
        return cls(config, {name: cp.params[name] for name in shapes})


def param_shapes(config: UNetConfig) -> dict:
    """Name -> shape of every weight and bias, in architecture order: the
    arrays ``build_unet`` fills and ``UNet.load`` requires."""
    shapes = {}
    for name, spec in architecture_specs(config):
        if spec.kind == "conv":
            shapes[f"{name}.w"] = (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
        elif spec.kind == "transposed-conv":
            shapes[f"{name}.w"] = (spec.in_channels, spec.out_channels, spec.kernel, spec.kernel)
        else:
            continue
        shapes[f"{name}.b"] = (spec.out_channels,)
    return shapes


def build_unet(config: UNetConfig, seed: int = 0, dtype=np.float32) -> UNet:
    """Instantiate a network with fan-in-scaled normal weights (seeded)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    specs = dict(architecture_specs(config))
    params: dict = {}
    for name, shape in param_shapes(config).items():
        layer, kind = name.rsplit(".", 1)
        if kind == "b":
            params[name] = np.zeros(shape, dtype=dtype)
            continue
        spec = specs[layer]
        # stride 2 means each output of a transposed conv sees in_channels taps, not in*k*k
        fan_in = spec.in_channels * (spec.kernel ** 2 if spec.kind == "conv" else 1)
        std = np.sqrt(2.0 / fan_in)
        params[name] = (rng.standard_normal(shape) * std).astype(dtype)
    return UNet(config, params)
