"""Multi-view slicing and the fused initial probability estimate.

A volume is sliced along each anatomical axis (axial by z, coronal by y,
sagittal by x) by ``view_slices``, which training uses too. The initial
estimate runs every view's slices through that view's network, in batches
of ``BATCH``, on every core (``parallel.run``). Each batch's output is added
into one float64 map where its slices came from, in view order and on the
calling thread, and the sum is divided by the number of views: the fused
map does not depend on the core count. Slices of any in-plane size work:
``unet.forward_padded`` pads them for the network and crops its output back.
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


def view_slices(data: np.ndarray, view: str) -> np.ndarray:
    """All slices of `view` as a C-contiguous float32 (n, 1, h, w) batch."""
    if view not in _ORIENT:
        raise ConfigError(f"unknown view {view!r}")
    return orient(data, view)[:, None].astype(np.float32, order="C")


def _forward(job):
    net, slices = job
    return forward_padded(net, slices)[:, 0]


def estimate_initial(nets: dict, v: Volume) -> ProbVolume:
    """Initial probabilistic map: per-view predictions fused by averaging.

    `nets` maps view names to single-channel networks; any subset of the
    three views works (axial-only is the fast ablation mode). The batches
    run as jobs of ``parallel.run``; their outputs are added here, in job
    order, as batches of different views share voxels: adds made in the
    pool would race, and each voxel's sum would depend on the schedule.
    """
    used = [view for view in VIEWS if view in nets]
    if not used:
        raise ConfigError(f"no usable views in {sorted(nets)}")
    for view in used:
        if nets[view].in_channels != 1:
            raise ConfigError(f"view net must take 1 channel, has {nets[view].in_channels}")
    acc = np.zeros(v.dims, dtype=np.float64)
    jobs, places = [], []  # places[k] is the writable view of acc that job k fills
    for view in used:
        slices = view_slices(v.data, view)
        for i in range(0, len(slices), BATCH):
            jobs.append((nets[view], slices[i:i + BATCH]))
            places.append(orient(acc, view)[i:i + BATCH])
    for place, prob in zip(places, parallel.run(_forward, jobs)):
        place += prob
    acc /= len(used)
    return ProbVolume(acc.astype(np.float32), v.spacing)
