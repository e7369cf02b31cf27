"""View slicing, reassembly, and probability fusion."""

import numpy as np
import pytest

from pbrseg import parallel
from pbrseg.errors import ConfigError
from pbrseg.pvol import ProbVolume, Volume
from pbrseg.unet import UNetConfig, build_unet
from pbrseg.views import (VIEWS, estimate_initial, fuse_views, orient, unorient,
                          view_slices)


class _StubNet:
    """Fixed-output net: returns `value` everywhere, shape-preserving."""

    in_channels = 1

    def __init__(self, value=0.5):
        self.value = value
        self.calls = []

    def forward(self, x, train=False):
        self.calls.append(x.shape)
        return np.full((x.shape[0], 1) + x.shape[2:], self.value, dtype=np.float32)


class _EchoNet:
    """Returns the input plane unchanged, for voxel bookkeeping checks."""

    in_channels = 1

    def forward(self, x, train=False):
        return x.copy()


def test_orient_shapes():
    data = np.zeros((32, 64, 48))
    assert orient(data, "axial").shape == (32, 64, 48)
    assert orient(data, "coronal").shape == (64, 32, 48)
    assert orient(data, "sagittal").shape == (48, 32, 64)


def test_unorient_inverts_orient(rng):
    data = rng.standard_normal((5, 7, 9))
    for view in VIEWS:
        np.testing.assert_array_equal(unorient(orient(data, view), view), data)


def test_orient_voxel_correspondence(rng):
    """Voxel (z,y,x) shows up at the documented place in each view."""
    data = rng.standard_normal((4, 5, 6))
    z, y, x = 1, 2, 3
    assert orient(data, "axial")[z, y, x] == data[z, y, x]
    assert orient(data, "coronal")[y, z, x] == data[z, y, x]
    assert orient(data, "sagittal")[x, z, y] == data[z, y, x]


def test_view_slices_shapes(rng):
    data = rng.standard_normal((32, 64, 48))
    ax = view_slices(data, "axial")
    assert ax.shape == (32, 1, 64, 48)
    co = view_slices(data, "coronal")
    assert co.shape == (64, 1, 32, 48)
    sa = view_slices(data, "sagittal")
    # 32x64 planes sliced by x; both in-plane dims already divisible
    assert sa.shape == (48, 1, 32, 64)
    for s, view in ((ax, "axial"), (co, "coronal"), (sa, "sagittal")):
        assert s.dtype == np.float32 and s.flags.c_contiguous
        np.testing.assert_array_equal(s[:, 0], orient(data, view).astype(np.float32))


def test_estimate_initial_unpads_and_unorients(rng):
    """An identity net must reproduce the volume exactly through the
    slice / pad / unpad / reassemble pipeline, for every view."""
    data = rng.uniform(0.1, 0.9, size=(6, 30, 17)).astype(np.float32)
    v = Volume(data)
    for view in VIEWS:
        p = estimate_initial({view: _EchoNet()}, v)
        assert isinstance(p, ProbVolume)
        np.testing.assert_allclose(p.data, data, atol=1e-7)


def test_estimate_initial_constant_net(rng):
    v = Volume(rng.standard_normal((4, 32, 32)).astype(np.float32))
    p = estimate_initial({"coronal": _StubNet(0.25)}, v)
    assert p.dims == (4, 32, 32)
    np.testing.assert_array_equal(p.data, np.full((4, 32, 32), 0.25, dtype=np.float32))


def test_estimate_initial_batches(rng, monkeypatch):
    monkeypatch.setattr(parallel, "cores", lambda: 1)  # the stub records call order
    v = Volume(rng.standard_normal((10, 16, 16)).astype(np.float32))
    net = _StubNet()
    estimate_initial({"axial": net}, v)
    assert [s[0] for s in net.calls] == [8, 2]


def test_estimate_initial_rejects_multichannel_net(rng):
    net = _StubNet()
    net.in_channels = 3
    v = Volume(np.zeros((2, 16, 16), dtype=np.float32))
    with pytest.raises(ConfigError):
        estimate_initial({"axial": net}, v)


def test_fuse_views_mean():
    a = ProbVolume(np.full((2, 4, 4), 0.2, dtype=np.float32))
    b = ProbVolume(np.full((2, 4, 4), 0.4, dtype=np.float32))
    c = ProbVolume(np.full((2, 4, 4), 0.9, dtype=np.float32))
    fused = fuse_views(a, b, c)
    np.testing.assert_allclose(fused.data, 0.5, atol=1e-7)


def test_fuse_views_permutation_invariant(rng):
    maps = [ProbVolume(rng.uniform(size=(3, 5, 5)).astype(np.float32)) for _ in range(3)]
    f1 = fuse_views(*maps)
    f2 = fuse_views(maps[2], maps[0], maps[1])
    np.testing.assert_array_equal(f1.data, f2.data)


def test_fuse_single_map_identity(rng):
    p = ProbVolume(rng.uniform(size=(2, 3, 3)).astype(np.float32))
    np.testing.assert_allclose(fuse_views(p).data, p.data, atol=1e-7)


def test_fuse_dims_mismatch():
    a = ProbVolume(np.zeros((2, 4, 4), dtype=np.float32))
    b = ProbVolume(np.zeros((2, 4, 5), dtype=np.float32))
    with pytest.raises(ConfigError):
        fuse_views(a, b)
    with pytest.raises(ConfigError):
        fuse_views()


def test_estimate_initial_subset_of_views(rng):
    v = Volume(rng.standard_normal((4, 32, 32)).astype(np.float32))
    p = estimate_initial({"axial": _StubNet(0.2), "sagittal": _StubNet(0.8)}, v)
    np.testing.assert_allclose(p.data, 0.5, atol=1e-7)
    assert p.dims == v.dims


def test_estimate_initial_axial_only(rng):
    v = Volume(rng.standard_normal((4, 32, 32)).astype(np.float32))
    p = estimate_initial({"axial": _StubNet(0.7)}, v)
    np.testing.assert_allclose(p.data, 0.7, atol=1e-7)


def test_estimate_initial_same_bytes_on_one_and_two_threads(rng, monkeypatch):
    nets = {view: build_unet(UNetConfig(1, base_width=8), seed=i)
            for i, view in enumerate(VIEWS)}
    v = Volume(rng.standard_normal((20, 48, 40)).astype(np.float32))
    maps = []
    for n in (1, 2):
        monkeypatch.setattr(parallel, "cores", lambda n=n: n)
        maps.append(estimate_initial(nets, v).data.tobytes())
    assert maps[0] == maps[1]


def test_estimate_initial_no_views():
    v = Volume(np.zeros((2, 16, 16), dtype=np.float32))
    with pytest.raises(ConfigError):
        estimate_initial({"oblique": _StubNet()}, v)


def test_unknown_view_rejected():
    with pytest.raises(ConfigError):
        view_slices(np.zeros((2, 16, 16), dtype=np.float32), "diagonal")
