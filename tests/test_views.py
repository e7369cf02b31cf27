"""View slicing, reassembly, and probability fusion."""

import numpy as np
import pytest

from pbrseg import parallel, views
from pbrseg.errors import ConfigError
from pbrseg.pvol import ProbVolume, Volume
from pbrseg.unet import UNetConfig, build_unet, forward_padded
from pbrseg.views import BATCH, VIEWS, estimate_initial, orient, view_slices


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


def _per_view_reference(nets, v):
    """The estimate built view by view: each view's whole map, put back in
    (z, y, x) order and cast to float32, then summed in float64 in VIEWS
    order, divided by the number of views and cast to float32."""
    used = [view for view in VIEWS if view in nets]
    acc = np.zeros(v.dims, dtype=np.float64)
    for view in used:
        slices = view_slices(v.data, view)
        p = np.concatenate([forward_padded(nets[view], slices[i:i + BATCH])[:, 0]
                            for i in range(0, len(slices), BATCH)])
        acc += np.moveaxis(p, 0, VIEWS.index(view)).astype(np.float32)
    acc /= len(used)
    return acc.astype(np.float32)


@pytest.fixture(scope="module")
def three_nets():
    return {view: build_unet(UNetConfig(1, base_width=8), seed=i)
            for i, view in enumerate(VIEWS)}


@pytest.mark.parametrize("threads", (1, 2))
def test_estimate_initial_equals_the_per_view_sum(rng, monkeypatch, three_nets, threads):
    """Every view pads a 10x30x17 volume; the map must equal the per-view
    sum bit for bit, for every subset of views."""
    monkeypatch.setattr(parallel, "cores", lambda: threads)
    v = Volume(rng.standard_normal((10, 30, 17)).astype(np.float32))
    for used in (VIEWS, ("axial",), ("coronal", "sagittal")):
        nets = {view: three_nets[view] for view in used}
        assert estimate_initial(nets, v).data.tobytes() == _per_view_reference(nets, v).tobytes()


def test_estimate_initial_ignores_the_key_order_of_nets(rng, three_nets):
    v = Volume(rng.standard_normal((10, 30, 17)).astype(np.float32))
    reordered = dict(reversed(list(three_nets.items())))
    assert estimate_initial(reordered, v).data.tobytes() == \
        estimate_initial(three_nets, v).data.tobytes()


def test_estimate_initial_builds_one_prob_volume(rng, monkeypatch):
    """The batches add into one map, which is checked once as a ProbVolume."""
    built = []

    def counted(*args, **kwargs):
        built.append(args[0].shape)
        return ProbVolume(*args, **kwargs)

    monkeypatch.setattr(views, "ProbVolume", counted)
    v = Volume(rng.standard_normal((10, 30, 17)).astype(np.float32))
    p = estimate_initial({view: _StubNet(0.25) for view in VIEWS}, v)
    assert built == [(10, 30, 17)]
    np.testing.assert_array_equal(p.data, np.full((10, 30, 17), 0.25, dtype=np.float32))


def test_estimate_initial_no_views():
    v = Volume(np.zeros((2, 16, 16), dtype=np.float32))
    with pytest.raises(ConfigError):
        estimate_initial({"oblique": _StubNet()}, v)


def test_unknown_view_rejected():
    with pytest.raises(ConfigError):
        view_slices(np.zeros((2, 16, 16), dtype=np.float32), "diagonal")
