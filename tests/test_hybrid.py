"""Hybrid sample construction and the sequential refinement sweeps."""

import numpy as np
import pytest

from pbrseg.errors import ConfigError
from pbrseg.hybrid import (HybridStack, SweepConfig, binarize, build_hybrid,
                           infer_pbr, sweep, update_map)
from pbrseg.pvol import MaskVolume, ProbVolume, Volume


def _stack(m=5, h=4, w=4, depth=1, img=None, prob=None):
    if img is None:
        img = np.arange(m * h * w, dtype=np.float32).reshape(m, h, w)
    if prob is None:
        prob = np.linspace(0, 1, m, dtype=np.float32)[:, None, None] * np.ones((m, h, w), np.float32)
    return build_hybrid(Volume(img.astype(np.float32)),
                        ProbVolume(prob.astype(np.float32)), depth)


class _ConstNet:
    """Callable slice predictor returning a fixed plane."""

    def __init__(self, value, shape=(4, 4)):
        self.plane = np.full(shape, value, dtype=np.float32)
        self.seen = []

    def __call__(self, sample):
        self.seen.append(sample.copy())
        return self.plane


class TestSweepConfig:
    def test_defaults(self):
        c = SweepConfig()
        assert (c.depth, c.threshold, c.sweeps, c.inclusive) == (1, 0.5, "both", False)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(depth=0)
        with pytest.raises(ConfigError):
            SweepConfig(depth=4)
        with pytest.raises(ConfigError):
            SweepConfig(threshold=0.0)
        with pytest.raises(ConfigError):
            SweepConfig(threshold=1.0)
        with pytest.raises(ConfigError):
            SweepConfig(sweeps="backward")


class TestSampleChannels:
    @pytest.mark.parametrize("depth,channels", [(1, 3), (2, 5), (3, 7)])
    def test_channel_counts(self, depth, channels):
        st = _stack(m=7, depth=depth)
        assert st.channels == channels
        assert st.sample(3).shape == (channels, 4, 4)

    def test_channel_layout_depth1(self):
        st = _stack(m=5, depth=1)
        s = st.sample(2)
        np.testing.assert_array_equal(s[0], st.prob[1])
        np.testing.assert_array_equal(s[1], st.image[2])
        np.testing.assert_array_equal(s[2], st.prob[3])

    def test_center_channel_bit_exact(self):
        st = _stack(m=4)
        for t in range(4):
            assert st.sample(t)[st.depth].tobytes() == st.image[t].tobytes()

    def test_border_duplication_first_slice(self):
        """Out-of-range neighbors clamp to the border slice itself."""
        st = _stack(m=5, depth=1)
        s0 = st.sample(0)
        np.testing.assert_array_equal(s0[0], st.prob[0])
        np.testing.assert_array_equal(s0[2], st.prob[1])

    def test_border_duplication_last_slice(self):
        st = _stack(m=5, depth=1)
        s = st.sample(4)
        np.testing.assert_array_equal(s[0], st.prob[3])
        np.testing.assert_array_equal(s[2], st.prob[4])

    def test_border_duplication_depth2(self):
        st = _stack(m=6, depth=2)
        s1 = st.sample(1)  # neighbors at -2 and -1 both clamp toward 0
        np.testing.assert_array_equal(s1[0], st.prob[0])
        np.testing.assert_array_equal(s1[1], st.prob[0])
        np.testing.assert_array_equal(s1[3], st.prob[2])
        np.testing.assert_array_equal(s1[4], st.prob[3])
        s5 = st.sample(5)
        np.testing.assert_array_equal(s5[3], st.prob[5])
        np.testing.assert_array_equal(s5[4], st.prob[5])

    def test_depth1_three_slices_example(self):
        """Hand-enumerated channel sources for every t of a 3-slice volume."""
        st = _stack(m=3, depth=1)
        expect = {0: (0, 1), 1: (0, 2), 2: (1, 2)}
        for t, (lo, hi) in expect.items():
            s = st.sample(t)
            np.testing.assert_array_equal(s[0], st.prob[lo])
            np.testing.assert_array_equal(s[2], st.prob[hi])

    def test_sample_reflects_current_prob(self):
        st = _stack(m=4)
        st.prob[1] = 0.123
        np.testing.assert_allclose(st.sample(2)[0], 0.123, atol=1e-7)

    def test_out_of_range_slice(self):
        st = _stack(m=3)
        with pytest.raises(ConfigError):
            st.sample(3)
        with pytest.raises(ConfigError):
            st.sample(-1)

    def test_build_validation(self):
        v = Volume(np.zeros((3, 4, 4), dtype=np.float32))
        p = ProbVolume(np.zeros((3, 4, 5), dtype=np.float32))
        with pytest.raises(ConfigError):
            build_hybrid(v, p, 1)
        with pytest.raises(ConfigError):
            build_hybrid(v, ProbVolume(np.zeros((3, 4, 4), dtype=np.float32)), 0)

    def test_build_copies_prob(self):
        p = ProbVolume(np.zeros((3, 4, 4), dtype=np.float32))
        st = build_hybrid(Volume(np.zeros((3, 4, 4), dtype=np.float32)), p, 1)
        st.prob[0] = 1.0
        assert p.data[0].sum() == 0.0


class TestUpdateMap:
    def test_midpoint(self):
        old = np.full((2, 2), 0.4)
        new = np.full((2, 2), 0.8)
        np.testing.assert_allclose(update_map(old, new), 0.6, atol=1e-12)

    def test_idempotent_on_agreement(self, rng):
        p = rng.uniform(size=(3, 3))
        np.testing.assert_allclose(update_map(p, p), p, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            update_map(np.zeros((2, 2)), np.zeros((2, 3)))


class TestSweep:
    def test_forward_recurrence_hand_simulated(self):
        """A constant-k predictor turns each slice into (prev + k) / 2 in
        visit order; verify against an explicit recurrence."""
        m, k = 4, 1.0
        p0 = np.array([0.2, 0.4, 0.6, 0.8], dtype=np.float32)
        st = _stack(m=m, prob=np.broadcast_to(p0[:, None, None], (m, 4, 4)).copy())
        out = sweep(_ConstNet(k), st, "forward")
        expect = 0.5 * (p0 + k)
        for t in range(m):
            np.testing.assert_allclose(out.data[t], expect[t], atol=1e-6)

    def test_sequential_dependence_forward(self):
        """Slice t+1's sample must already contain the slice-t update."""
        m = 3
        p0 = np.zeros((m, 4, 4), dtype=np.float32)
        net = _ConstNet(1.0)
        st = _stack(m=m, prob=p0)
        sweep(net, st, "forward")
        # sample at t=1 (second call) carries prob[0] already updated to 0.5
        np.testing.assert_allclose(net.seen[1][0], 0.5, atol=1e-6)
        # sample at t=2 carries prob[1] updated to 0.5
        np.testing.assert_allclose(net.seen[2][0], 0.5, atol=1e-6)

    @staticmethod
    def _visits(direction):
        """Slices in the order the sweep sampled them: the image of `_stack`
        is an arange, so a sample's centre channel names its slice."""
        net = _ConstNet(0.5)
        sweep(net, _stack(m=4), direction)
        return [int(s[1, 0, 0]) // 16 for s in net.seen]

    def test_backward_visit_order(self):
        assert self._visits("backward") == [3, 2, 1, 0]

    def test_forward_visit_order(self):
        assert self._visits("forward") == [0, 1, 2, 3]

    def test_direction_validation(self):
        with pytest.raises(ConfigError):
            sweep(_ConstNet(0.5), _stack(), "sideways")

    def test_channel_count_validation(self):
        class Net:
            in_channels = 5

            def forward(self, x):
                return x[:, :1]

        with pytest.raises(ConfigError):
            sweep(Net(), _stack(depth=1), "forward")

    def test_probs_stay_in_range(self, rng):
        prob = rng.uniform(size=(5, 4, 4)).astype(np.float32)
        st = _stack(m=5, prob=prob)
        net = _ConstNet(1.0)
        out = sweep(net, st, "forward")
        out = sweep(net, st, "backward")
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_single_slice_forward_equals_backward(self):
        p0 = np.full((1, 4, 4), 0.3, dtype=np.float32)
        a = sweep(_ConstNet(0.9), _stack(m=1, prob=p0.copy()), "forward")
        b = sweep(_ConstNet(0.9), _stack(m=1, prob=p0.copy()), "backward")
        np.testing.assert_array_equal(a.data, b.data)

    def test_returns_copy(self):
        st = _stack(m=3)
        out = sweep(_ConstNet(0.5), st, "forward")
        st.prob[:] = 0.0
        assert out.data.any()


class TestBinarize:
    def test_strict_threshold_tie_is_background(self):
        p = ProbVolume(np.array([[[0.49, 0.5, 0.51]]], dtype=np.float32))
        m = binarize(p, 0.5)
        np.testing.assert_array_equal(m.data, [[[0, 0, 1]]])

    def test_inclusive_tie_is_foreground(self):
        p = ProbVolume(np.array([[[0.49, 0.5, 0.51]]], dtype=np.float32))
        m = binarize(p, 0.5, inclusive=True)
        np.testing.assert_array_equal(m.data, [[[0, 1, 1]]])

    def test_monotone_in_threshold(self, rng):
        p = ProbVolume(rng.uniform(size=(3, 8, 8)).astype(np.float32))
        sizes = [binarize(p, th).data.sum() for th in (0.2, 0.4, 0.6, 0.8)]
        assert sizes == sorted(sizes, reverse=True)

    def test_threshold_validation(self):
        p = ProbVolume(np.zeros((1, 2, 2), dtype=np.float32))
        with pytest.raises(ConfigError):
            binarize(p, 0.0)
        with pytest.raises(ConfigError):
            binarize(p, 1.0)

    def test_returns_mask_volume(self):
        p = ProbVolume(np.ones((1, 2, 2), dtype=np.float32), (2.0, 1.0, 1.0))
        m = binarize(p)
        assert isinstance(m, MaskVolume)
        assert m.spacing == (2.0, 1.0, 1.0)


class _ViewStub:
    in_channels = 1

    def __init__(self, value):
        self.value = value

    def forward(self, x, train=False):
        return np.full((x.shape[0], 1) + x.shape[2:], self.value, dtype=np.float32)


class _PrimaryStub:
    in_channels = 3

    def forward(self, x, train=False):
        # foreground where the image channel is positive
        return (x[:, 1:2] > 0).astype(np.float32)


class TestInferPbr:
    def _volume(self):
        img = np.zeros((4, 16, 16), dtype=np.float32)
        img[:, 4:10, 4:10] = 1.0
        return Volume(img)

    def test_stages_and_timings(self):
        res = infer_pbr({"axial": _ViewStub(0.4)}, _PrimaryStub(), self._volume())
        names = [n for n, _ in res.timings]
        assert names == ["estimate", "hybrid", "forward", "backward", "binarize"]
        assert all(t >= 0.0 for _, t in res.timings)

    def test_forward_only_skips_backward(self):
        cfg = SweepConfig(sweeps="forward")
        res = infer_pbr({"axial": _ViewStub(0.4)}, _PrimaryStub(), self._volume(), cfg)
        names = [n for n, _ in res.timings]
        assert "backward" not in names

    def test_mask_matches_stub_logic(self):
        res = infer_pbr({"axial": _ViewStub(0.0)}, _PrimaryStub(), self._volume())
        # initial 0.0, predictions 1.0 inside the square: after two sweeps
        # prob inside is 0.75 > 0.5, outside stays 0
        expected = (self._volume().data > 0).astype(np.uint8)
        np.testing.assert_array_equal(res.mask.data, expected)
        np.testing.assert_allclose(res.prob.data[res.mask.data > 0], 0.75, atol=1e-6)

    def test_initial_preserved(self):
        res = infer_pbr({"axial": _ViewStub(0.4)}, _PrimaryStub(), self._volume())
        np.testing.assert_allclose(res.initial.data, 0.4, atol=1e-6)

    def test_forward_only_differs_from_both(self):
        v = self._volume()
        both = infer_pbr({"axial": _ViewStub(0.0)}, _PrimaryStub(), v)
        fwd = infer_pbr({"axial": _ViewStub(0.0)}, _PrimaryStub(), v,
                        SweepConfig(sweeps="forward"))
        assert not np.array_equal(both.prob.data, fwd.prob.data)
