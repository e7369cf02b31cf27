"""Multi-view slicing and the fused initial probability estimate.

A volume is sliced along each anatomical axis (axial by z, coronal by y,
sagittal by x) by ``view_slices``, which training uses too. The initial
estimate runs every view's slices through that view's network, in batches
of ``BATCH``, and merges the per-view probability volumes by voxelwise
averaging. Slices of any in-plane size work: ``unet.forward_padded`` pads
them for the network and crops its output back. The forwards of all views
run on every core (``parallel.run``); the fused map does not depend on how
many.
"""

from __future__ import annotations

import numpy as np

from . import parallel
from .errors import ConfigError
from .pvol import ProbVolume, Volume
from .unet import forward_padded

VIEWS = ("axial", "coronal", "sagittal")
# Slices per forward of the initial estimate. It stays fixed: the last bits
# of the single-channel output layer depend on it.
BATCH = 8

_ORIENT = {"axial": (0, 1, 2), "coronal": (1, 0, 2), "sagittal": (2, 0, 1)}


def orient(data: np.ndarray, view: str) -> np.ndarray:
    """Bring the slicing axis of `view` to the front."""
    return np.transpose(data, _ORIENT[view])


def unorient(data: np.ndarray, view: str) -> np.ndarray:
    """Inverse of orient."""
    return np.transpose(data, np.argsort(_ORIENT[view]))


def view_slices(data: np.ndarray, view: str) -> np.ndarray:
    """All slices of `view` as a C-contiguous float32 (n, 1, h, w) batch."""
    if view not in _ORIENT:
        raise ConfigError(f"unknown view {view!r}")
    return orient(data, view)[:, None].astype(np.float32, order="C")


def _forward(job):
    net, slices = job
    return forward_padded(net, slices)[:, 0]


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


def estimate_initial(nets: dict, v: Volume) -> ProbVolume:
    """Initial probabilistic map: per-view predictions fused by averaging.

    `nets` maps view names to single-channel networks; any subset of the
    three views works (axial-only is the fast ablation mode). Every batch
    of slices of every view is an independent forward, so the batches run
    as jobs of ``parallel.run`` and come back in job order.
    """
    used = [view for view in VIEWS if view in nets]
    if not used:
        raise ConfigError(f"no usable views in {sorted(nets)}")
    for view in used:
        if nets[view].in_channels != 1:
            raise ConfigError(f"view net must take 1 channel, has {nets[view].in_channels}")
    slices = {view: view_slices(v.data, view) for view in used}
    jobs = [(nets[view], slices[view][i:i + BATCH]) for view in used
            for i in range(0, len(slices[view]), BATCH)]
    probs = iter(parallel.run(_forward, jobs))
    maps = []
    for view in used:
        p = np.concatenate([next(probs) for _ in range(0, len(slices[view]), BATCH)])
        maps.append(ProbVolume(unorient(p, view).astype(np.float32), v.spacing))
    return fuse_views(*maps)
