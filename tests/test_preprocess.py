"""Intensity normalization, cropping, and augmentation."""

import numpy as np
import pytest

from pbrseg.errors import ConfigError, DataError
from pbrseg.preprocess import augment, crop_box, preprocess
from pbrseg.pvol import MaskVolume, Volume


def _vol(arr, spacing=(1.0, 1.0, 1.0)):
    return Volume(np.asarray(arr, dtype=np.float32), spacing)


class TestPreprocess:
    def test_clamp_route(self):
        """Out-of-window values behave exactly like the window edges."""
        v = _vol(np.array([[[-500.0, 0.0, 500.0]]]))
        clamped = _vol(np.array([[[-100.0, 0.0, 200.0]]]))
        np.testing.assert_array_equal(preprocess(v).data, preprocess(clamped).data)

    def test_zero_mean_unit_std(self, rng):
        v = _vol(rng.uniform(-300, 400, size=(4, 16, 16)))
        out = preprocess(v).data.astype(np.float64)
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-6

    def test_oracle_small_case(self):
        """Hand-computed normalization of three in-window values."""
        v = _vol(np.array([[[-100.0, 0.0, 100.0]]]))
        expected = np.array([-100.0, 0.0, 100.0])
        expected = (expected - expected.mean()) / expected.std()
        np.testing.assert_allclose(preprocess(v).data[0, 0], expected, rtol=1e-6)

    def test_constant_volume_warns_and_zeros(self):
        v = _vol(np.full((2, 3, 3), 42.0))
        with pytest.warns(UserWarning):
            out = preprocess(v)
        assert not out.data.any()

    def test_all_below_window_is_constant(self):
        v = _vol(np.full((1, 2, 2), -1000.0) + np.arange(4).reshape(1, 2, 2))
        with pytest.warns(UserWarning):
            out = preprocess(v)
        assert not out.data.any()

    def test_idempotent_within_tolerance(self, rng):
        """Normalized output stays in window, so a second pass is a no-op."""
        v = _vol(rng.uniform(-300, 400, size=(3, 8, 8)))
        once = preprocess(v)
        twice = preprocess(once)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-6)

    def test_spacing_preserved(self):
        v = _vol(np.arange(8.0).reshape(2, 2, 2), spacing=(3.0, 0.5, 0.5))
        assert preprocess(v).spacing == (3.0, 0.5, 0.5)


class TestCrop:
    def test_centered_on_mask(self):
        msk = np.zeros((1, 10, 10), dtype=np.uint8)
        msk[0, 4:7, 5:8] = 1  # bbox rows 4-6, cols 5-7, center (5, 6)
        box = crop_box(MaskVolume(msk), 4, 4)
        assert box == np.s_[:, 3:7, 4:8]
        assert msk[box].sum() == msk.sum()

    def test_clamped_to_bounds(self):
        msk = np.zeros((1, 8, 8), dtype=np.uint8)
        msk[0, 0, 0] = 1  # bbox center at the corner; window must clamp
        box = crop_box(MaskVolume(msk), 4, 4)
        assert box == np.s_[:, 0:4, 0:4]
        assert msk[box][0, 0, 0] == 1

    def test_identity_when_full_size(self):
        msk = np.zeros((2, 6, 6), dtype=np.uint8)
        msk[1, 2, 3] = 1
        box = crop_box(MaskVolume(msk), 6, 6)
        np.testing.assert_array_equal(msk[box], msk)

    def test_empty_mask_center_crop(self):
        msk = np.zeros((1, 8, 8), dtype=np.uint8)
        assert crop_box(MaskVolume(msk), 4, 4) == np.s_[:, 2:6, 2:6]

    def test_mask_does_not_fit(self):
        msk = np.zeros((1, 10, 10), dtype=np.uint8)
        msk[0, 1:9, 1:9] = 1
        with pytest.raises(DataError):
            crop_box(MaskVolume(msk), 4, 4)

    def test_target_exceeds_volume(self):
        with pytest.raises(DataError):
            crop_box(MaskVolume(np.zeros((1, 4, 4), dtype=np.uint8)), 8, 8)


class TestAugment:
    def test_deterministic(self, rng):
        img = rng.standard_normal((16, 16)).astype(np.float32)
        msk = (rng.uniform(size=(16, 16)) > 0.6).astype(np.float32)
        a_img, a_msk = augment(img, msk, seed=5)
        b_img, b_msk = augment(img, msk, seed=5)
        np.testing.assert_array_equal(a_img, b_img)
        np.testing.assert_array_equal(a_msk, b_msk)

    def test_seeds_differ(self, rng):
        img = rng.standard_normal((16, 16)).astype(np.float32)
        msk = np.zeros((16, 16), dtype=np.float32)
        outs = [augment(img, msk, seed=s)[0] for s in range(4)]
        assert any(not np.array_equal(outs[0], o) for o in outs[1:])

    def test_mask_stays_binary(self, rng):
        img = rng.standard_normal((20, 20)).astype(np.float32)
        msk = np.zeros((20, 20), dtype=np.float32)
        msk[6:14, 6:14] = 1.0
        for s in range(8):
            _, out = augment(img, msk, seed=s)
            assert set(np.unique(out)) <= {0.0, 1.0}

    def test_same_transform_per_channel(self, rng):
        base = rng.standard_normal((12, 12)).astype(np.float32)
        img = np.stack([base, base, base])
        msk = np.zeros((12, 12), dtype=np.float32)
        out, _ = augment(img, msk, seed=3)
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[0], out[2])

    def test_stack_is_warped_plane_by_plane(self, rng):
        """A (c, h, w) stack comes out as the (h, w) augment of each plane."""
        img = rng.standard_normal((3, 12, 14)).astype(np.float32)
        msk = (rng.uniform(size=(3, 12, 14)) > 0.5).astype(np.uint8)
        for s in range(6):
            out_i, out_m = augment(img, msk, seed=s)
            for c in range(3):
                plane_i, plane_m = augment(img[c], msk[c], seed=s)
                np.testing.assert_array_equal(out_i[c], plane_i)
                np.testing.assert_array_equal(out_m[c], plane_m)

    def test_mask_foreground_roughly_preserved(self):
        """Centered blob survives rotation/shear/flips mostly intact."""
        img = np.zeros((32, 32), dtype=np.float32)
        msk = np.zeros((32, 32), dtype=np.float32)
        msk[12:20, 12:20] = 1.0
        for s in range(6):
            _, out = augment(img, msk, seed=s)
            assert 0.5 * msk.sum() <= out.sum() <= 1.5 * msk.sum()

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            augment(np.zeros((4, 4), dtype=np.float32),
                    np.zeros((5, 5), dtype=np.float32), seed=0)

    def test_output_dtypes(self, rng):
        img = rng.standard_normal((8, 8)).astype(np.float32)
        msk = np.zeros((8, 8), dtype=np.uint8)
        out_i, out_m = augment(img, msk, seed=1)
        assert out_i.dtype == np.float32
        assert out_m.dtype == np.uint8
