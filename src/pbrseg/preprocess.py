"""Intensity preprocessing, mask-guided cropping, and 2-D augmentation."""

from __future__ import annotations

import warnings

import numpy as np
from scipy import ndimage

from .errors import ConfigError, DataError
from .pvol import MaskVolume, Volume

HU_LO = -100.0
HU_HI = 200.0

ROTATION_MAX_DEG = 25.0
SHEAR_MAX = 0.2


def preprocess(v: Volume) -> Volume:
    """Clamp intensities to [HU_LO, HU_HI], then normalize to zero mean, unit
    variance (per volume). A volume that is constant after clamping comes
    back as all zeros with a warning."""
    data = np.clip(v.data.astype(np.float64), HU_LO, HU_HI)
    mean = data.mean()
    std = data.std()
    if std < 1e-12:
        warnings.warn("constant volume after clamping; returning all zeros")
        return Volume(np.zeros(v.dims, dtype=np.float32), v.spacing)
    out = (data - mean) / std
    return Volume(out.astype(np.float32), v.spacing)


def crop_box(mask: MaskVolume, target_h: int, target_w: int) -> tuple:
    """Index of the in-plane (target_h, target_w) window centered on the
    mask bounding box and clamped to the volume bounds."""
    _, h, w = mask.dims
    if target_h > h or target_w > w:
        raise DataError(f"crop target ({target_h}, {target_w}) exceeds volume ({h}, {w})")
    fg = mask.data.any(axis=0)
    if fg.any():
        ys, xs = np.nonzero(fg)
        y0, y1 = int(ys.min()), int(ys.max())
        x0, x1 = int(xs.min()), int(xs.max())
        if y1 - y0 + 1 > target_h or x1 - x0 + 1 > target_w:
            raise DataError(
                f"mask support ({y1 - y0 + 1}, {x1 - x0 + 1}) does not fit crop "
                f"({target_h}, {target_w}); need at least that size")
        cy = (y0 + y1) // 2
        cx = (x0 + x1) // 2
    else:
        cy, cx = h // 2, w // 2
    top = min(max(cy - target_h // 2, 0), h - target_h)
    left = min(max(cx - target_w // 2, 0), w - target_w)
    return np.s_[:, top:top + target_h, left:left + target_w]


def _affine_matrix(angle_deg: float, shear: float) -> np.ndarray:
    """Output-to-input coordinate map for a rotation composed with an
    x-shear, both about the slice center."""
    a = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    sh = np.array([[1.0, shear], [0.0, 1.0]])
    fwd = rot @ sh
    return np.linalg.inv(fwd)


def augment(image: np.ndarray, mask: np.ndarray, seed: int):
    """Apply one random rotation (0..25 deg), x-shear (0..0.2), and
    horizontal/vertical mirroring to an image/mask slice pair.

    The image is interpolated bilinearly, the mask by nearest neighbor so
    it stays binary. ``image`` may be (h,w) or (c,h,w); the same geometric
    transform hits every channel. Deterministic per seed.
    """
    if image.shape[-2:] != mask.shape[-2:]:
        raise ConfigError(f"image/mask shapes differ: {image.shape} vs {mask.shape}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    angle = rng.uniform(0.0, ROTATION_MAX_DEG)
    shear = rng.uniform(0.0, SHEAR_MAX)
    flip_h = bool(rng.integers(0, 2))
    flip_v = bool(rng.integers(0, 2))

    img = image.astype(np.float32, copy=True)
    msk = mask.copy()
    if flip_h:
        img = img[..., ::-1]
        msk = msk[..., ::-1]
    if flip_v:
        img = np.flip(img, axis=-2)
        msk = np.flip(msk, axis=-2)

    matrix = _affine_matrix(angle, shear)
    center = (np.array(img.shape[-2:]) - 1) / 2.0
    offset = center - matrix @ center

    def warp(planes, order):
        """The transform of every (h, w) plane of an (h, w) or (c, h, w) array."""
        return np.stack([
            ndimage.affine_transform(plane, matrix, offset=offset, order=order,
                                     mode="constant", cval=0.0, prefilter=False)
            for plane in planes.reshape(-1, *planes.shape[-2:])]).reshape(planes.shape)

    return warp(img, order=1).astype(np.float32), warp(msk, order=0).astype(mask.dtype)
