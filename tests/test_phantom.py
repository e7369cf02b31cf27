"""Synthetic phantom generator guarantees."""

import numpy as np
import pytest
from scipy import ndimage

from pbrseg.errors import ConfigError, DataError
from pbrseg.phantom import PhantomSpec, gen_dataset, gen_phantom
from pbrseg.pvol import MaskVolume, Volume


def _slice_iou(a, b):
    inter = np.logical_and(a, b).sum()
    union = np.logical_or(a, b).sum()
    return inter / union if union else 1.0


@pytest.fixture(scope="module")
def phantom1():
    return gen_phantom(PhantomSpec(seed=1))


def test_types_and_dims(phantom1):
    v, m = phantom1
    assert isinstance(v, Volume) and isinstance(m, MaskVolume)
    assert v.dims == (32, 64, 64) and m.dims == (32, 64, 64)
    assert v.data.dtype == np.float32 and m.data.dtype == np.uint8


def test_bit_identical_per_seed():
    va, ma = gen_phantom(PhantomSpec(seed=9))
    vb, mb = gen_phantom(PhantomSpec(seed=9))
    assert va.data.tobytes() == vb.data.tobytes()
    assert ma.data.tobytes() == mb.data.tobytes()


def test_seeds_differ():
    _, ma = gen_phantom(PhantomSpec(seed=1))
    _, mb = gen_phantom(PhantomSpec(seed=2))
    assert not np.array_equal(ma.data, mb.data)


def test_single_26_connected_component(phantom1):
    _, m = phantom1
    _, n = ndimage.label(m.data, structure=np.ones((3, 3, 3)))
    assert n == 1


def test_end_slices_are_smallest(phantom1):
    _, m = phantom1
    areas = m.data.sum(axis=(1, 2))
    fg = np.nonzero(areas)[0]
    interior_min = areas[fg[1]:fg[-1]].min()
    assert areas[fg[0]] < interior_min
    assert areas[fg[-1]] < interior_min
    assert areas[fg].max() > 10 * areas[fg[0]]


def test_empty_margin_slices(phantom1):
    _, m = phantom1
    areas = m.data.sum(axis=(1, 2))
    assert areas[0] == 0 and areas[-1] == 0


def test_adjacent_slice_overlap(phantom1):
    """Consecutive interior slices (outside the taper ramps) overlap by
    at least half, so slice-to-slice propagation has signal to work with."""
    _, m = phantom1
    areas = m.data.sum(axis=(1, 2))
    fg = np.nonzero(areas)[0]
    taper = PhantomSpec().taper
    interior = range(fg[0] + taper, fg[-1] - taper)
    ious = [_slice_iou(m.data[t], m.data[t + 1]) for t in interior]
    assert min(ious) >= 0.5


def test_distractors_bright_and_disjoint():
    v, m = gen_phantom(PhantomSpec(seed=3, noise_std=0.0))
    fg = m.data.astype(bool)
    # distractor voxels are strictly brighter than foreground contrast
    distract = v.data > PhantomSpec().contrast + 1.0
    assert distract.any()
    assert not (distract & fg).any()
    # and they keep a clear margin from the tube
    near = ndimage.binary_dilation(fg, np.ones((3, 3, 3)))
    assert not (distract & near).any()


def test_noise_free_background_is_zero():
    v, m = gen_phantom(PhantomSpec(seed=4, noise_std=0.0, distractors=0))
    assert np.all(v.data[~m.data.astype(bool)] == 0.0)
    assert np.all(v.data[m.data.astype(bool)] == PhantomSpec().contrast)


def test_dims_too_small():
    with pytest.raises(DataError):
        gen_phantom(PhantomSpec(dims=(32, 24, 24)))
    with pytest.raises(DataError):
        gen_phantom(PhantomSpec(dims=(12, 64, 64)))


def test_bad_config():
    with pytest.raises(ConfigError):
        gen_phantom(PhantomSpec(min_radius=0.0))
    with pytest.raises(ConfigError):
        gen_phantom(PhantomSpec(max_step=0.0))
    with pytest.raises(ConfigError):
        gen_phantom(PhantomSpec(taper=0))
    with pytest.raises(ConfigError):
        gen_phantom(PhantomSpec(noise_std=-1.0))
    for name in ("min_radius", "max_radius", "max_step", "contrast", "noise_std"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError, match=f"{name} must be finite, got {value}"):
                gen_phantom(PhantomSpec(**{name: value}))


def test_dataset_decorrelated_and_reproducible():
    a = gen_dataset(3, base_seed=5)
    b = gen_dataset(3, base_seed=5)
    for (va, ma), (vb, mb) in zip(a, b):
        assert va.data.tobytes() == vb.data.tobytes()
        assert ma.data.tobytes() == mb.data.tobytes()
    masks = [m.data for _, m in a]
    assert not np.array_equal(masks[0], masks[1])
    assert not np.array_equal(masks[1], masks[2])


def test_dataset_overrides():
    data = gen_dataset(1, base_seed=0, dims=(40, 64, 64), distractors=0)
    assert data[0][0].dims == (40, 64, 64)
