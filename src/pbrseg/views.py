"""Multi-view slicing, per-view prediction, and probability fusion.

A volume is sliced along each anatomical axis (axial by z, coronal by y,
sagittal by x), every slice is run through the view's network, and the
per-view probability volumes are merged by voxelwise averaging. Slices of
any in-plane size work: ``unet.forward_padded`` pads them for the network
and crops its output back. The forwards of all views run on every core
(``parallel.run``); the fused map does not depend on how many.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import ConfigError
from .pvol import ProbVolume, Volume
from .unet import forward_padded

VIEWS = ("axial", "coronal", "sagittal")

_ORIENT = {"axial": (0, 1, 2), "coronal": (1, 0, 2), "sagittal": (2, 0, 1)}
_UNORIENT = {"axial": (0, 1, 2), "coronal": (1, 0, 2), "sagittal": (1, 2, 0)}


def orient(data: np.ndarray, view: str) -> np.ndarray:
    """Bring the slicing axis of `view` to the front."""
    return np.transpose(data, _ORIENT[view])


def unorient(data: np.ndarray, view: str) -> np.ndarray:
    """Inverse of orient."""
    return np.transpose(data, _UNORIENT[view])


@dataclass
class ViewStack:
    """All slices of one view as an (n, 1, h, w) batch."""

    view: str
    slices: np.ndarray
    spacing: tuple


def slice_views(v: Volume, views=VIEWS) -> dict:
    """Slice a volume along each requested view."""
    out = {}
    for view in views:
        if view not in _ORIENT:
            raise ConfigError(f"unknown view {view!r}")
        slices = orient(v.data, view)[:, None].astype(np.float32, order="C")
        out[view] = ViewStack(view, slices, v.spacing)
    return out


def _forward(job):
    net, slices = job
    return forward_padded(net, slices)[:, 0]


def _predict_views(pairs, batch: int) -> list:
    """Probability volumes, in original orientation, of (net, ViewStack)
    pairs. Every batch of slices of every view is an independent forward,
    so the batches run as jobs of ``parallel.run``. The batch stays fixed:
    the last bits of the single-channel output layer depend on it."""
    for net, _ in pairs:
        if net.in_channels != 1:
            raise ConfigError(f"view net must take 1 channel, has {net.in_channels}")
    jobs = [(net, stack.slices[i:i + batch]) for net, stack in pairs
            for i in range(0, len(stack.slices), batch)]
    probs = iter(parallel.run(_forward, jobs))
    out = []
    for _, stack in pairs:
        p = np.concatenate([next(probs) for _ in range(0, len(stack.slices), batch)])
        out.append(ProbVolume(unorient(p, stack.view).astype(np.float32), stack.spacing))
    return out


def predict_view(net, stack: ViewStack, batch: int = 8) -> ProbVolume:
    """Run the single-channel net over every slice of a view and reassemble
    the probabilities in original volume orientation."""
    return _predict_views([(net, stack)], batch)[0]


def fuse_views(*maps: ProbVolume) -> ProbVolume:
    """Voxelwise arithmetic mean of per-view probability volumes."""
    if not maps:
        raise ConfigError("fuse_views needs at least one map")
    dims = maps[0].dims
    for p in maps[1:]:
        if p.dims != dims:
            raise ConfigError(f"fused map dims differ: {p.dims} vs {dims}")
    acc = np.zeros(dims, dtype=np.float64)
    for p in maps:
        acc += p.data
    acc /= len(maps)
    return ProbVolume(acc.astype(np.float32), maps[0].spacing)


def estimate_initial(nets: dict, v: Volume, batch: int = 8) -> ProbVolume:
    """Initial probabilistic map: per-view predictions fused by averaging.

    `nets` maps view names to single-channel networks; any subset of the
    three views works (axial-only is the fast ablation mode).
    """
    used = [view for view in VIEWS if view in nets]
    if not used:
        raise ConfigError(f"no usable views in {sorted(nets)}")
    stacks = slice_views(v, views=used)
    return fuse_views(*_predict_views([(nets[view], stacks[view]) for view in used], batch))
