"""Seeded synthetic tube phantoms with known ground-truth masks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigError, DataError
from .pvol import MaskVolume, Volume

MAX_STEP = 0.8  # the most the centerline moves per slice, in voxels


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for one phantom volume.

    The foreground is a tube along z with a smoothly wandering elliptical
    cross-section. Radii ramp from min_radius at both foreground ends up to
    max_radius over `taper` slices, so end slices are genuinely small
    targets. Distractor blobs are brighter than the foreground and never
    touch it.
    """

    seed: int = 0
    dims: tuple = (32, 64, 64)
    min_radius: float = 1.6
    max_radius: float = 12.0
    taper: int = 6
    contrast: float = 90.0
    noise_std: float = 18.0
    distractors: int = 3


def _center_bounds(spec: PhantomSpec) -> tuple:
    """Centerline (y, x) bounds that keep the widest ellipse inside the slice."""
    _, h, w = spec.dims
    max_semi = spec.max_radius * 1.25
    return max_semi + 2.0, [h - 3.0 - max_semi, w - 3.0 - max_semi]


def _validate(spec: PhantomSpec) -> None:
    m, _, _ = spec.dims
    for name in ("min_radius", "max_radius", "contrast", "noise_std"):
        if not np.isfinite(value := getattr(spec, name)):
            raise ConfigError(f"{name} must be finite, got {value}")
    if spec.min_radius <= 0 or spec.max_radius < spec.min_radius:
        raise ConfigError(f"bad radius profile [{spec.min_radius}, {spec.max_radius}]")
    if spec.taper < 1:
        raise ConfigError(f"taper must be >= 1, got {spec.taper}")
    if spec.noise_std < 0:
        raise ConfigError(f"noise_std must be >= 0, got {spec.noise_std}")
    lo, hi = _center_bounds(spec)
    if lo >= min(hi):
        raise DataError(f"dims {spec.dims} too small for max_radius {spec.max_radius}")
    if m < 2 * spec.taper + 10:
        raise DataError(f"{m} slices too few for taper {spec.taper}")


def _radius_profile(spec: PhantomSpec, nf: int) -> np.ndarray:
    k = np.arange(nf, dtype=np.float64)
    u = np.minimum(np.minimum(k, nf - 1 - k), spec.taper) / spec.taper
    return spec.min_radius + (spec.max_radius - spec.min_radius) * u


def _centerline(spec: PhantomSpec, rng: np.random.Generator, nf: int) -> np.ndarray:
    lo, hi = _center_bounds(spec)
    pos = (lo + np.array(hi)) / 2
    pos += rng.uniform(-2.0, 2.0, size=2)
    vel = np.zeros(2)
    out = np.empty((nf, 2))
    for k in range(nf):
        out[k] = pos
        kick = rng.uniform(-MAX_STEP, MAX_STEP, size=2)
        vel = 0.7 * vel + 0.3 * kick
        norm = np.hypot(*vel)
        if norm > MAX_STEP:
            vel *= MAX_STEP / norm
        pos = np.clip(pos + vel, lo, hi)
    return out


def _rasterize(spec: PhantomSpec, centers, radii, ey, ex, fg0) -> np.ndarray:
    m, h, w = spec.dims
    mask = np.zeros((m, h, w), dtype=np.uint8)
    yy, xx = np.mgrid[:h, :w].astype(np.float64)
    for k in range(len(radii)):
        cy, cx = centers[k]
        ry, rx = radii[k] * ey, radii[k] * ex
        inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        mask[fg0 + k] = inside
    return mask


def _add_distractors(spec: PhantomSpec, rng: np.random.Generator,
                     image: np.ndarray, mask: np.ndarray) -> None:
    m, h, w = spec.dims
    keepout = ndimage.binary_dilation(mask.astype(bool), np.ones((3, 3, 3)), iterations=3)
    zz, yy, xx = np.mgrid[:m, :h, :w].astype(np.float64)
    placed = 0
    for _ in range(50 * spec.distractors):
        if placed == spec.distractors:
            break
        r = rng.uniform(2.0, 4.0)
        cz = rng.uniform(r, m - 1 - r)
        cy = rng.uniform(r, h - 1 - r)
        cx = rng.uniform(r, w - 1 - r)
        blob = (zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        if (blob & keepout).any():
            continue
        image[blob] += spec.contrast + 70.0
        placed += 1


def gen_phantom(spec: PhantomSpec):
    """Generate one (Volume, MaskVolume) pair, bit-reproducible per seed."""
    _validate(spec)
    m, _, _ = spec.dims
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))

    fg0 = int(rng.integers(1, 4))
    fg1 = m - int(rng.integers(1, 4))
    nf = fg1 - fg0
    radii = _radius_profile(spec, nf)
    # fixed per-volume ellipticity keeps end slices the smallest
    ey = rng.uniform(0.85, 1.0)
    ex = rng.uniform(1.0, 1.2)
    centers = _centerline(spec, rng, nf)
    mask = _rasterize(spec, centers, radii, ey, ex, fg0)

    image = np.zeros(spec.dims, dtype=np.float64)
    image[mask.astype(bool)] += spec.contrast
    if spec.distractors > 0:
        _add_distractors(spec, rng, image, mask)
    image += rng.normal(0.0, spec.noise_std, size=spec.dims)

    return Volume(image.astype(np.float32)), MaskVolume(mask)


def volume_seed(base_seed: int, i: int) -> int:
    """The seed of volume i in a dataset drawn from base_seed."""
    return int(np.random.SeedSequence([base_seed, i]).generate_state(1)[0])


def gen_dataset(n: int, base_seed: int = 0, **overrides):
    """n phantoms with decorrelated per-volume seeds."""
    return [gen_phantom(PhantomSpec(seed=volume_seed(base_seed, i), **overrides))
            for i in range(n)]
