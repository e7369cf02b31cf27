"""Multi-channel hybrid samples and the bi-directional recurrent refinement.

Each slice t of a volume is paired with the probability maps of its d
neighbors on both sides, giving a (2d+1)-channel sample

    (p[t-d], ..., p[t-1], image[t], p[t+1], ..., p[t+d])

with out-of-range neighbors clamped to the border slice. Refinement walks
the slices forward then backward; every fresh prediction is averaged into
the stored map, so later samples in the same sweep see earlier updates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .pvol import MaskVolume, ProbVolume, Volume
from .unet import forward_padded
from .views import estimate_initial

DEPTHS = (1, 2, 3)  # the guidance depths d a primary net can be built and swept at


@dataclass(frozen=True)
class SweepConfig:  # the one statement of what each setting accepts
    depth: int = 1
    threshold: float = 0.5
    sweeps: str = "both"  # "both" or "forward"

    def __post_init__(self):
        if self.depth not in DEPTHS:
            raise ConfigError(f"guidance depth must be 1, 2 or 3, got {self.depth}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.sweeps not in ("both", "forward"):
            raise ConfigError(f"sweeps must be 'both' or 'forward', got {self.sweeps!r}")


@dataclass
class HybridStack:
    """Image plus a mutable probability map, sampled lazily per slice.

    Samples are built on demand from the current state of `prob`, so an
    update to slice t is automatically visible to every later sample that
    references t. That shared state is what carries context through a
    sweep.
    """

    image: np.ndarray
    prob: np.ndarray
    depth: int
    spacing: tuple = (1.0, 1.0, 1.0)

    @property
    def channels(self) -> int:
        return 2 * self.depth + 1

    def __len__(self) -> int:
        return self.image.shape[0]

    def sample(self, t: int) -> np.ndarray:
        m = len(self)
        if not 0 <= t < m:
            raise ConfigError(f"slice {t} outside volume of {m}")
        rows = np.arange(t - self.depth, t + self.depth + 1)  # "clip" clamps them to [0, m)
        sample = np.take(self.prob, rows, axis=0, mode="clip").astype(np.float32, copy=False)
        sample[self.depth] = self.image[t]
        return sample


def build_hybrid(v: Volume, p: ProbVolume, depth: int) -> HybridStack:
    """Pair a preprocessed volume with its probability map."""
    SweepConfig(depth=depth)  # refuses a depth no sweep takes
    if v.dims != p.dims:
        raise ConfigError(f"volume/map dims differ: {v.dims} vs {p.dims}")
    return HybridStack(v.data.astype(np.float32), p.data.astype(np.float32),
                       depth, v.spacing)


def update_map(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Average a fresh prediction into the stored map."""
    if old.shape != new.shape:
        raise ConfigError(f"map shapes differ: {old.shape} vs {new.shape}")
    return 0.5 * (old + new)


def _predict(net, sample: np.ndarray) -> np.ndarray:
    if hasattr(net, "forward"):
        return forward_padded(net, sample[None])[0, 0]
    return np.asarray(net(sample), dtype=np.float32)


def sweep(net, stack: HybridStack, direction: str) -> ProbVolume:
    """One sequential refinement pass over all slices.

    `net` is either a trained network or any callable mapping a (2d+1,h,w)
    sample to an (h,w) probability map. Must not be parallelized: slice
    t+1 of a forward sweep has to observe the update made at slice t.
    """
    if direction not in ("forward", "backward"):
        raise ConfigError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if hasattr(net, "in_channels") and net.in_channels != stack.channels:
        raise ConfigError(
            f"net takes {net.in_channels} channels, stack has {stack.channels}")
    order = range(len(stack)) if direction == "forward" else range(len(stack) - 1, -1, -1)
    for t in order:
        new = _predict(net, stack.sample(t))
        stack.prob[t] = update_map(stack.prob[t], new)
    return ProbVolume(stack.prob.copy(), stack.spacing)


def binarize(p: ProbVolume, threshold: float = SweepConfig.threshold) -> MaskVolume:
    """Threshold a probability volume; ties go to background."""
    SweepConfig(threshold=threshold)  # refuses a threshold outside (0, 1)
    return MaskVolume((p.data > threshold).astype(np.uint8), p.spacing)


@dataclass
class InferResult:
    mask: MaskVolume
    prob: ProbVolume
    initial: ProbVolume
    timings: list = field(default_factory=list)


def infer_pbr(init_nets: dict, primary_net, v: Volume,
              config: SweepConfig = SweepConfig()) -> InferResult:
    """Full refinement inference on one preprocessed volume.

    Initial estimation, hybrid construction, forward sweep, optional
    backward sweep, binarization; wall-clock seconds recorded per stage.
    """
    timings = []

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        timings.append((stage, time.perf_counter() - t0))
        return out

    initial = timed("estimate", estimate_initial, init_nets, v)
    stack = timed("hybrid", build_hybrid, v, initial, config.depth)
    prob = timed("forward", sweep, primary_net, stack, "forward")
    if config.sweeps == "both":
        prob = timed("backward", sweep, primary_net, stack, "backward")
    mask = timed("binarize", binarize, prob, config.threshold)
    return InferResult(mask, prob, initial, timings)
