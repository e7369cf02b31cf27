"""Metric battery: hand-counted oracles, brute-force cross-checks,
reporting helpers."""

import csv
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from pbrseg import metrics
from pbrseg.errors import ConfigError, DataError, UndefinedMetricError
from pbrseg.metrics import (DSC_BUCKETS, AgreementReport, SliceReport, VolumeReport,
                            dsc, dsc_histogram, evaluate_slices, evaluate_volume,
                            hausdorff, iou, precision, read_columns, read_slice_csv,
                            recall, reliability_curve, rmse, small_target_report,
                            summarize, volume_agreement, write_csv)
from pbrseg.cli import main
from pbrseg.pvol import MaskVolume, Volume, read_pvol_file, write_pvol_file


def _mask(arr, spacing=(1.0, 1.0, 1.0)):
    return MaskVolume(np.asarray(arr, dtype=np.uint8), spacing)


def _pair(rng, shape=(3, 6, 6), p=0.3):
    a = (rng.uniform(size=shape) < p).astype(np.uint8)
    b = (rng.uniform(size=shape) < p).astype(np.uint8)
    return _mask(a), _mask(b)


def _brute_hausdorff(a, b, spacing, directed):
    """Quadratic reference: explicit max over min pairwise distances."""
    pa = np.argwhere(a.data) * np.asarray(spacing)
    pb = np.argwhere(b.data) * np.asarray(spacing)

    def d(src, dst):
        worst = 0.0
        for s in src:
            best = min(float(np.sqrt(((s - t) ** 2).sum())) for t in dst)
            worst = max(worst, best)
        return worst

    if directed:
        return d(pa, pb)
    return max(d(pa, pb), d(pb, pa))


class TestOverlap:
    def test_hand_counts(self):
        a = _mask([[[1, 1, 0], [0, 1, 0], [0, 0, 0]]])
        b = _mask([[[1, 0, 0], [0, 1, 1], [0, 0, 1]]])
        # |a|=3, |b|=4, inter=2, union=5
        assert dsc(a, b) == 2 * 2 / 7
        assert iou(a, b) == 2 / 5
        assert recall(a, b) == 2 / 4
        assert precision(a, b) == 2 / 3

    def test_perfect_and_disjoint(self):
        a = _mask([[[1, 1], [0, 0]]])
        assert dsc(a, a) == 1.0 and iou(a, a) == 1.0
        b = _mask([[[0, 0], [1, 1]]])
        assert dsc(a, b) == 0.0 and iou(a, b) == 0.0

    def test_dsc_iou_identity(self, rng):
        """dsc = 2 iou / (1 + iou) must hold pointwise."""
        for _ in range(50):
            a, b = _pair(rng)
            j = iou(a, b)
            assert abs(dsc(a, b) - 2 * j / (1 + j)) < 1e-12

    def test_recall_precision_duality(self, rng):
        for _ in range(20):
            a, b = _pair(rng)
            if b.data.any() and a.data.any():
                assert recall(a, b) == precision(b, a)

    def test_both_empty_conventions(self):
        e = _mask(np.zeros((1, 2, 2)))
        assert dsc(e, e) == 1.0
        assert iou(e, e) == 1.0
        assert recall(e, e) == 1.0
        assert precision(e, e) == 1.0

    def test_undefined_sides_warn_and_zero(self):
        e = _mask(np.zeros((1, 2, 2)))
        f = _mask([[[1, 0], [0, 0]]])
        with pytest.warns(UserWarning):
            assert recall(f, e) == 0.0
        with pytest.warns(UserWarning):
            assert precision(e, f) == 0.0

    def test_dims_mismatch(self):
        a = _mask(np.zeros((1, 2, 2)))
        with pytest.raises(ConfigError):
            dsc(a, _mask(np.zeros((1, 2, 3))))
        # every pair metric refuses masks on two grids: other dims, or the same
        # dims at another spacing, which would measure b in a's millimetres
        for b in (_mask(np.zeros((1, 2, 3))), _mask(np.zeros((1, 2, 2)), (2.0, 1.0, 1.0))):
            for fn in (dsc, iou, recall, precision, hausdorff, rmse, evaluate_volume,
                       evaluate_slices):
                with pytest.raises(ConfigError) as err:
                    fn(a, b)
                for part in (a.dims, b.dims, a.spacing, b.spacing):
                    assert str(part) in str(err.value), (fn.__name__, b, str(err.value))


class TestHausdorff:
    def test_3_4_5_triangle(self):
        a = np.zeros((1, 8, 8))
        b = np.zeros((1, 8, 8))
        a[0, 0, 0] = 1
        b[0, 3, 4] = 1
        assert hausdorff(_mask(a), _mask(b)) == 5.0

    def test_directed_subset_is_zero(self):
        big = np.zeros((2, 6, 6))
        big[0, 1:5, 1:5] = 1
        small = np.zeros((2, 6, 6))
        small[0, 2, 2] = 1
        assert hausdorff(_mask(small), _mask(big), mode="directed") == 0.0
        assert hausdorff(_mask(big), _mask(small), mode="directed") > 0.0

    def test_symmetric_is_max_of_directed(self, rng):
        a, b = _pair(rng, p=0.4)
        d_ab = hausdorff(a, b, mode="directed")
        d_ba = hausdorff(b, a, mode="directed")
        assert hausdorff(a, b) == max(d_ab, d_ba)

    def test_both_mode_matches_separate_calls(self, rng):
        a, b = _pair(rng, p=0.4)
        sub = _mask(a.data * b.data)  # inside b: directed 0, symmetric > 0
        for x, y in ((a, b), (sub, b)):
            assert hausdorff(x, y, mode="both") == (hausdorff(x, y, mode="directed"),
                                                    hausdorff(x, y))
        r = evaluate_volume(sub, b)
        assert (r.hd_directed, r.hd_symmetric) == hausdorff(sub, b, mode="both")
        assert r.hd_directed == 0.0 < r.hd_symmetric

    def test_spacing_scales_distances(self):
        a = np.zeros((3, 4, 4))
        b = np.zeros((3, 4, 4))
        a[0, 0, 0] = 1
        b[2, 0, 0] = 1
        assert hausdorff(_mask(a), _mask(b)) == 2.0
        assert hausdorff(_mask(a, (2.5, 1, 1)), _mask(b, (2.5, 1, 1))) == 5.0

    def test_empty_mask_undefined(self):
        e = _mask(np.zeros((1, 2, 2)))
        f = _mask([[[1, 0], [0, 0]]])
        with pytest.raises(UndefinedMetricError):
            hausdorff(e, f)
        with pytest.raises(UndefinedMetricError):
            hausdorff(f, e)

    def test_bad_mode(self):
        f = _mask([[[1, 0], [0, 0]]])
        with pytest.raises(ConfigError):
            hausdorff(f, f, mode="average")

    def test_brute_force_cross_check(self, rng):
        """Tree-based distances must match the quadratic scan exactly."""
        for k in range(60):
            spacing = (1.0, 1.0, 1.0) if k % 2 else (2.0, 0.7, 0.7)
            a, b = _pair(rng, shape=(3, 5, 5), p=0.25)
            if not a.data.any() or not b.data.any():
                continue
            a = _mask(a.data, spacing)
            b = _mask(b.data, spacing)
            assert abs(hausdorff(a, b, mode="directed")
                       - _brute_hausdorff(a, b, spacing, True)) < 1e-9
            assert abs(hausdorff(a, b)
                       - _brute_hausdorff(a, b, spacing, False)) < 1e-9


def _tree_hausdorff(a, b, mode):
    """All-voxel reference: one tree over every foreground voxel of each mask,
    queried with every foreground voxel of the other."""
    scale = np.asarray(a.spacing, dtype=np.float64)
    pa, pb = np.argwhere(a.data) * scale, np.argwhere(b.data) * scale
    d_ab = float(cKDTree(pb).query(pa)[0].max())
    d_sym = max(d_ab, float(cKDTree(pa).query(pb)[0].max()))
    return {"directed": d_ab, "symmetric": d_sym, "both": (d_ab, d_sym)}[mode]


def _exactness_pairs(rng, n):
    """Random mask pairs cycling through the cases a boundary-only tree could
    get wrong: subsets either way, equal masks, single voxels, masks on all
    six faces of the grid, and grids with an axis of length 1."""
    for k in range(n):
        shape = [int(d) for d in rng.integers(1, 10, size=3)]
        if k % 4 == 0:
            shape[k % 3] = 1
        spacing = tuple(rng.uniform(0.5, 3.0, size=3))
        a = rng.uniform(size=shape) < rng.uniform(0.05, 0.8)
        b = rng.uniform(size=shape) < rng.uniform(0.05, 0.8)
        case = k % 6
        if case == 1:
            a &= b
        elif case == 2:
            b &= a
        elif case == 3:
            b = a.copy()
        elif case == 4:
            a, b = np.zeros(shape, bool), np.zeros(shape, bool)
            a[tuple(rng.integers(0, shape))] = b[tuple(rng.integers(0, shape))] = True
        elif case == 5:
            b[[0, -1]] = True
            b[:, [0, -1]] = True
            b[..., [0, -1]] = True
        yield _mask(a, spacing), _mask(b, spacing)


class TestHausdorffFromBoundaries:
    """hausdorff queries only the voxels of one mask outside the other, against
    a tree over the other's boundary; it must equal the all-voxel tree."""

    def test_equals_the_all_voxel_tree(self, rng):
        checked = 0
        for a, b in _exactness_pairs(rng, 300):
            if not a.data.any() or not b.data.any():
                continue
            for mode in ("directed", "symmetric", "both"):
                assert hausdorff(a, b, mode=mode) == _tree_hausdorff(a, b, mode), \
                    (a.dims, a.spacing, mode)
            checked += 1
        assert checked >= 200

    def test_trees_only_where_a_mask_leaves_the_other(self, monkeypatch):
        built = []

        def counting(points, *args, **kwargs):
            built.append(len(points))
            return cKDTree(points, *args, **kwargs)

        monkeypatch.setattr(metrics, "cKDTree", counting)
        cube = np.zeros((5, 5, 5))
        cube[1:4, 1:4, 1:4] = 1  # 27 voxels, 26 on its boundary
        inside = np.zeros((5, 5, 5))
        inside[2, 2, 2] = 1
        assert hausdorff(_mask(inside), _mask(cube), mode="both") == (0.0, np.sqrt(3))
        assert built == [1]  # only cube -> inside, over inside's one voxel
        built.clear()
        assert hausdorff(_mask(cube), _mask(cube), mode="both") == (0.0, 0.0)
        assert built == []
        outside = np.zeros((5, 5, 5))
        outside[0, 0, 0] = 1
        hausdorff(_mask(outside), _mask(cube), mode="directed")
        assert built == [26]


class TestRmseAndVolume:
    def test_rmse_cases(self):
        a = _mask([[[1, 1], [0, 0]]])
        b = _mask([[[0, 0], [1, 1]]])
        assert rmse(a, a) == 0.0
        assert rmse(a, b) == 1.0
        c = _mask([[[1, 0], [0, 0]]])
        assert abs(rmse(a, c) - 0.5) < 1e-12  # 1 of 4 voxels differs

    def test_rmse_equals_the_float_formula(self, rng):
        """The disagreement count gives the float64 mean bit for bit."""
        for k in range(40):
            shape = (7, 33, 29) if k % 2 else (3, 6, 6)
            a, b = _pair(rng, shape=shape, p=rng.uniform(0.05, 0.95))
            for x, y in ((a, b), (a, a), (a, _mask(1 - a.data))):
                diff = x.data.astype(np.float64) - y.data.astype(np.float64)
                assert rmse(x, y) == float(np.sqrt(np.mean(diff * diff)))

    def test_eval_volumes_mm3_are_counts_times_spacing(self, rng, tmp_path):
        """eval's volumes.csv holds each mask's voxel count times its voxel
        volume, on a spacing of three different values."""
        data, run = tmp_path / "data", tmp_path / "run"
        gts, preds = {}, {}
        for vid in ("vol_0", "vol_1"):
            gts[vid], preds[vid] = (_mask(rng.uniform(size=(4, 9, 7)) < 0.4, (2.5, 0.7, 0.3))
                                    for _ in range(2))
            write_pvol_file(data / f"{vid}.pvol", Volume(rng.standard_normal((4, 9, 7))))
            write_pvol_file(data / f"{vid}_mask.pvol", gts[vid])
            write_pvol_file(run / "volumes" / f"pred_{vid}.pvol", preds[vid])
        assert main(["eval", "--data", str(data), "--run", str(run)]) == 0
        with open(run / "reports" / "volumes.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["volume_id"] for r in rows] == ["vol_0", "vol_1"]
        sz, sy, sx = read_pvol_file(data / "vol_0_mask.pvol").spacing  # as float32 stores it
        for key, masks in (("gt", gts), ("pred", preds)):
            assert [r[f"{key}_mm3"] for r in rows] == [
                f"{int(np.count_nonzero(m.data)) * sz * sy * sx:.6f}" for m in masks.values()]


class TestVolumeReport:
    def test_fields(self):
        pred = _mask([[[1, 1], [0, 0]]])
        gt = _mask([[[1, 0], [0, 0]]])
        r = evaluate_volume(pred, gt, volume_id="v0")
        assert r.volume_id == "v0"
        assert r.dsc == 2 / 3
        assert r.pred_voxels == 2 and r.gt_voxels == 1
        assert r.pred_mm3 == 2.0 and r.gt_mm3 == 1.0
        assert r.hd_symmetric == 1.0

    def test_hd_none_on_empty(self):
        pred = _mask(np.zeros((1, 2, 2)))
        gt = _mask([[[1, 0], [0, 0]]])
        with pytest.warns(UserWarning):
            r = evaluate_volume(pred, gt)
        assert r.hd_directed is None and r.hd_symmetric is None
        assert r.dsc == 0.0


class TestSliceReports:
    def _volumes(self):
        gt = np.zeros((6, 4, 4), dtype=np.uint8)
        gt[1:5, 1:3, 1:3] = 1
        pred = gt.copy()
        pred[2, 1, 1] = 0
        return _mask(pred), _mask(gt)

    def test_per_slice_dice(self):
        pred, gt = self._volumes()
        reports = evaluate_slices(pred, gt, volume_id="v")
        assert len(reports) == 6
        assert reports[0].dsc == 1.0  # both empty
        assert reports[1].dsc == 1.0
        assert abs(reports[2].dsc - 2 * 3 / 7) < 1e-12
        assert [r.gt_pixels for r in reports] == [0, 4, 4, 4, 4, 0]

    def test_head_tail_flags(self):
        """small_target_report takes the cohort from these reports: at n = 1
        it is the first and last foreground slices, 1 and 4."""
        pred, gt = self._volumes()
        rep = small_target_report(evaluate_slices(pred, gt), head_tail_n=1)
        assert rep["head_tail"]["slices"] == [("", 1), ("", 4)]

    def test_head_tail_overlap_when_short(self):
        """Fewer foreground slices than n: each is in the cohort once."""
        gt = np.zeros((4, 2, 2), dtype=np.uint8)
        gt[1] = 1
        rep = small_target_report(evaluate_slices(_mask(gt), _mask(gt)), head_tail_n=3)
        assert rep["head_tail"]["slices"] == [("", 1)]


def _recount(pred, gt, volume_id):
    """VolumeReport and SliceReports of a pair from a voxel-by-voxel count in
    Python, each score by its textbook formula and its empty-mask rule."""
    def counts(p, g):
        pairs = list(zip(p.ravel().tolist(), g.ravel().tolist()))
        return (sum(1 for x, y in pairs if x and y), sum(1 for x, _ in pairs if x),
                sum(1 for _, y in pairs if y), sum(1 for x, y in pairs if x != y))

    def dice(inter, na, nb):
        return 1.0 if na + nb == 0 else 2.0 * inter / (na + nb)

    inter, npred, ngt, differ = counts(pred.data, gt.data)
    union = npred + ngt - inter
    sz, sy, sx = gt.spacing
    voxel_mm3 = sz * sy * sx
    hd = ((None, None) if not npred or not ngt
          else _tree_hausdorff(pred, gt, "both"))
    volume = VolumeReport(
        volume_id, dice(inter, npred, ngt), 1.0 if union == 0 else inter / union,
        (1.0 if npred == 0 else 0.0) if ngt == 0 else inter / ngt,
        (1.0 if ngt == 0 else 0.0) if npred == 0 else inter / npred,
        *hd, float(np.sqrt(differ / pred.data.size)), npred, ngt,
        npred * voxel_mm3, ngt * voxel_mm3)
    slices = [SliceReport(volume_id, t, dice(*c[:3]), c[2])
              for t, c in enumerate(counts(p, g) for p, g in zip(pred.data, gt.data))]
    return volume, slices


def _overlap_pairs(rng, n):
    """Random mask pairs cycling through seven kinds: unconstrained, both empty,
    an empty prediction, an empty reference, identical, disjoint, and empty
    first and last slices; every fifth volume has one slice, and every other
    volume a non-unit spacing."""
    for k in range(n):
        shape = [int(d) for d in rng.integers(1, 8, size=3)]
        case = k % 7
        if k % 5 == 0:
            shape[0] = 1
        elif case == 6:
            shape[0] = max(shape[0], 3)
        spacing = (1.0, 1.0, 1.0) if k % 2 else tuple(rng.uniform(0.5, 3.0, size=3))
        a = rng.uniform(size=shape) < rng.uniform(0.05, 0.8)
        b = rng.uniform(size=shape) < rng.uniform(0.05, 0.8)
        if case in (1, 2):
            a[:] = False
        if case in (1, 3):
            b[:] = False
        elif case == 4:
            b = a.copy()
        elif case == 5:
            b &= ~a
        elif case == 6 and shape[0] >= 3:
            a[[0, -1]] = b[[0, -1]] = False
            a[1, 0, 0] = b[1, 0, 0] = True
        yield _mask(a, spacing), _mask(b, spacing)


class TestOneCountPerPair:
    """evaluate_volume and evaluate_slices each score a pair from one overlap
    count, and every score equals a voxel-by-voxel recount."""

    def test_each_evaluation_counts_once(self, monkeypatch, rng):
        calls = []
        counts = metrics._counts

        def counting(*args, **kwargs):
            calls.append(kwargs.get("axis"))
            return counts(*args, **kwargs)

        monkeypatch.setattr(metrics, "_counts", counting)
        pred, gt = _pair(rng, shape=(6, 8, 8), p=0.4)
        evaluate_volume(pred, gt)
        assert calls == [None]
        calls.clear()
        evaluate_slices(pred, gt)
        assert calls == [(1, 2)]

    def test_reports_equal_the_recount(self, rng):
        for k, (pred, gt) in enumerate(_overlap_pairs(rng, 280)):
            volume, slices = _recount(pred, gt, f"v{k}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # empty sides warn; the warning test checks them
                got = evaluate_volume(pred, gt, volume_id=f"v{k}")
            got_slices = evaluate_slices(pred, gt, volume_id=f"v{k}")
            assert vars(got) == vars(volume), (k, pred.dims, pred.spacing)
            assert [type(v) for v in vars(got).values()] == [type(v) for v in vars(volume).values()]
            assert got_slices == slices, (k, pred.dims)
            assert all(type(r.dsc) is float and type(r.gt_pixels) is int for r in got_slices)


EMPTY_REFERENCE = "recall undefined for empty reference; reporting 0.0"
EMPTY_PREDICTION = "precision undefined for empty prediction; reporting 0.0"


class TestEmptyMaskWarnings:
    def test_only_recall_and_precision_warn(self):
        e = _mask(np.zeros((2, 2, 2)))
        f = _mask([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, y in ((e, e), (e, f), (f, e)):
                for fn in (dsc, iou, rmse, evaluate_slices):
                    fn(x, y)
        for fn, x, y, messages in (
                (recall, e, e, []), (recall, e, f, []), (recall, f, e, [EMPTY_REFERENCE]),
                (precision, e, e, []), (precision, f, e, []),
                (precision, e, f, [EMPTY_PREDICTION]),
                (evaluate_volume, e, e, []), (evaluate_volume, e, f, [EMPTY_PREDICTION]),
                (evaluate_volume, f, e, [EMPTY_REFERENCE])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fn(x, y)
            assert [(w.category, str(w.message)) for w in caught] == \
                [(UserWarning, m) for m in messages], (fn.__name__, x.data.any(), y.data.any())


class TestHistogram:
    def test_partition_and_boundaries(self):
        scores = [0.0, 0.3, 0.5, 0.55, 0.6, 0.85, 0.95, 1.0]
        reports = [SliceReport("v", i, s, 1) for i, s in enumerate(scores)]
        h = dsc_histogram(reports)
        assert h["total"] == 8
        assert sum(h["counts"]) == 8
        # [0,.5) gets 0.0 and 0.3; 0.5 lands in [.5,.6); 1.0 in the closed last
        assert h["counts"] == [2, 2, 1, 0, 1, 2]
        assert abs(sum(h["percent"]) - 100.0) < 1e-9

    def test_empty_input(self):
        h = dsc_histogram([])
        assert h["total"] == 0 and sum(h["counts"]) == 0

    def test_counts_follow_the_interval_rule(self):
        """Each score lands in the one [lo, hi) that holds it, the last
        interval closed; scores outside every interval land nowhere."""
        edges = np.asarray(DSC_BUCKETS)
        near = np.concatenate([np.nextafter(edges, -np.inf), edges,
                               np.nextafter(edges, np.inf)])
        scores = np.concatenate([near, np.random.default_rng(5).uniform(-0.1, 1.1, 500)])
        h = dsc_histogram([SliceReport("v", i, float(s), 1)
                           for i, s in enumerate(scores)])
        last = len(edges) - 2
        expect = [sum(1 for s in scores if lo <= s < hi or (j == last and s == hi))
                  for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))]
        assert h["counts"] == expect
        assert all(type(c) is int for c in h["counts"])
        assert h["total"] == len(scores)


class TestReliability:
    def test_all_equal_scores(self):
        curve = dict(reliability_curve([0.9, 0.9, 0.9]))
        assert curve[0.0] == 1.0
        assert curve[0.9] == 1.0
        assert curve[0.91] == 0.0
        assert curve[1.0] == 0.0

    def test_monotone_non_increasing(self, rng):
        curve = reliability_curve(rng.uniform(size=40))
        fracs = [f for _, f in curve]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_grid_and_counting(self):
        curve = reliability_curve([0.2, 0.4, 0.6, 0.8])
        assert len(curve) == 101
        assert dict(curve)[0.5] == 0.5  # 2 of 4 volumes reach 0.50

    def test_empty_raises(self):
        with pytest.raises(DataError):
            reliability_curve([])


class TestAgreement:
    def _normal_equations(self, gt, pred):
        """Independent closed-form least squares and correlation."""
        gt = np.asarray(gt, dtype=np.float64)
        pred = np.asarray(pred, dtype=np.float64)
        n = gt.size
        sxx = (gt * gt).sum() - gt.sum() ** 2 / n
        sxy = (gt * pred).sum() - gt.sum() * pred.sum() / n
        syy = (pred * pred).sum() - pred.sum() ** 2 / n
        slope = sxy / sxx
        intercept = pred.mean() - slope * gt.mean()
        r = sxy / np.sqrt(sxx * syy)
        return slope, intercept, r

    def test_matches_closed_form(self, rng):
        gt = rng.uniform(1000, 5000, size=30)
        pred = 0.9 * gt + 150 + rng.normal(0, 80, size=30)
        rep = volume_agreement(pred, gt)
        slope, intercept, r = self._normal_equations(gt, pred)
        assert abs(rep.slope - slope) < 1e-9
        assert abs(rep.intercept - intercept) < 1e-9
        assert abs(rep.r - r) < 1e-9

    def test_identity_line(self):
        gt = [100.0, 200.0, 300.0, 400.0]
        rep = volume_agreement(gt, gt)
        assert abs(rep.slope - 1.0) < 1e-12
        assert abs(rep.intercept) < 1e-9
        assert abs(rep.r - 1.0) < 1e-12
        assert rep.ba_mean == 0.0 and rep.ba_lo == 0.0 and rep.ba_hi == 0.0

    def test_doubling_gives_slope_two(self):
        gt = np.array([100.0, 150.0, 250.0, 400.0])
        rep = volume_agreement(2 * gt, gt)
        assert abs(rep.slope - 2.0) < 1e-12
        assert abs(rep.intercept) < 1e-9

    def test_bland_altman_limits(self):
        gt = np.array([0.0, 10.0, 20.0, 30.0])
        pred = gt + np.array([1.0, -1.0, 2.0, -2.0])
        rep = volume_agreement(pred, gt)
        diffs = pred - gt
        assert abs(rep.ba_mean - diffs.mean()) < 1e-12
        sd = diffs.std(ddof=1)
        assert abs(rep.ba_lo - (diffs.mean() - 1.96 * sd)) < 1e-12
        assert abs(rep.ba_hi - (diffs.mean() + 1.96 * sd)) < 1e-12
        assert rep.inside_fraction == 1.0

    def test_degenerate_inputs(self):
        with pytest.raises(DataError):
            volume_agreement([1.0], [1.0])
        with pytest.raises(DataError):
            volume_agreement([1.0, 2.0], [5.0, 5.0])
        with pytest.raises(DataError):
            volume_agreement([5.0, 5.0], [1.0, 2.0])
        with pytest.raises(ConfigError):
            volume_agreement([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSmallTargets:
    def _reports(self):
        out = []
        # volume a: foreground on slices 2..7, areas ramp 10..510
        for i, t in enumerate(range(2, 8)):
            out.append(SliceReport("a", t, 0.9 if i else 0.0, 10 + 100 * i))
        # volume b: foreground on slices 0..3
        for i, t in enumerate(range(4)):
            out.append(SliceReport("b", t, 0.5, 250))
        # background slices never join a cohort
        out.append(SliceReport("a", 0, 1.0, 0))
        return out

    def test_recount_against_oracle(self):
        reports = self._reports()
        rep = small_target_report(reports, area_threshold=300, head_tail_n=2)
        # head/tail: volume a slices 2,3,6,7; volume b slices 0,1,2,3
        assert rep["head_tail"]["count"] == 8
        assert set(rep["head_tail"]["slices"]) == {
            ("a", 2), ("a", 3), ("a", 6), ("a", 7),
            ("b", 0), ("b", 1), ("b", 2), ("b", 3)}
        # small: areas 10, 110, 210 from a plus all four 250s from b
        assert rep["small"]["count"] == 7
        assert rep["small"]["failed"] == 1  # the dice-0 slice has area 10

    def test_cohort_stats_values(self):
        reports = [SliceReport("v", 0, 0.2, 5),
                   SliceReport("v", 1, 0.8, 5)]
        rep = small_target_report(reports, area_threshold=10, head_tail_n=1)
        small = rep["small"]
        assert small["count"] == 2
        assert abs(small["mean_dsc"] - 0.5) < 1e-12
        assert abs(small["std_dsc"] - 0.3) < 1e-12  # population std-dev
        # head/tail with n=1 dedups to the two distinct fg slices
        assert rep["head_tail"]["count"] == 2

    def test_short_volume_dedup(self):
        """A single foreground slice is both head and tail, counted once."""
        reports = [SliceReport("v", 3, 0.7, 40)]
        rep = small_target_report(reports, head_tail_n=3)
        assert rep["head_tail"]["count"] == 1

    def test_head_tail_n_below_one_rejected(self):
        """fg[-0:] is every slice, so n = 0 must not mean "all of them"."""
        for n in (0, -2):
            with pytest.raises(ConfigError):
                small_target_report(self._reports(), head_tail_n=n)
        with pytest.raises(ConfigError):  # also with no slices to take a cohort from
            small_target_report([], head_tail_n=0)

    def test_empty_cohorts(self):
        rep = small_target_report([], area_threshold=100)
        assert rep["small"]["count"] == 0
        assert rep["small"]["mean_dsc"] is None
        assert rep["head_tail"]["failed"] == 0

    def test_cohort_is_the_first_and_last_n_foreground_slices(self):
        """One head/tail rule: over random masks, including volumes with no
        foreground and with a single foreground slice, the cohort is a
        brute-force recount of the first and last n foreground slices."""
        rng = np.random.default_rng(11)
        for trial in range(40):
            n = 1 + trial % 4
            reports, flagged = [], []
            for v in range(3):
                depth = int(rng.integers(1, 12))
                gt = (rng.uniform(size=(depth, 3, 3)) < 0.3).astype(np.uint8)
                gt[rng.uniform(size=depth) < 0.5] = 0
                if v == 1:  # no foreground, or foreground on one slice only
                    gt[:] = 0
                    if trial % 2:
                        gt[rng.integers(depth), 1, 1] = 1
                pred = (rng.uniform(size=gt.shape) < 0.3).astype(np.uint8)
                reports += evaluate_slices(_mask(pred), _mask(gt), f"v{v}")
                fg = [t for t in range(depth) if gt[t].any()]
                flagged += [(f"v{v}", t) for t in range(depth) if t in fg[:n] or t in fg[-n:]]
            cohort = small_target_report(reports, head_tail_n=n)["head_tail"]
            assert cohort["slices"] == flagged
            assert cohort["count"] == len(flagged)


class TestCsvAndSummary:
    def test_volume_csv_roundtrip(self, tmp_path):
        pred = _mask([[[1, 1], [0, 0]]])
        gt = _mask([[[1, 0], [0, 0]]])
        rows = [evaluate_volume(pred, gt, "v0")]
        path = tmp_path / "volumes.csv"
        write_csv(rows, path, VolumeReport)
        with open(path) as f:
            parsed = list(csv.DictReader(f))
        assert len(parsed) == 1
        assert parsed[0]["volume_id"] == "v0"
        assert parsed[0]["dsc"] == "0.666667"
        assert parsed[0]["pred_voxels"] == "2"

    def test_header_is_the_dataclass_fields(self, tmp_path):
        for cls in (VolumeReport, SliceReport):
            path = tmp_path / "table.csv"
            write_csv([], path, cls)
            assert path.read_text().strip() == ",".join(cls.__dataclass_fields__)

    def test_slice_csv_reads_back_what_was_written(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [SliceReport(f"vol_{i % 3}", i, float(rng.uniform()), int(rng.integers(0, 500)))
                for i in range(20)]
        rows.append(SliceReport("v", 20, 1.0, 0))
        path = tmp_path / "slices.csv"
        write_csv(rows, path, SliceReport)
        back = read_slice_csv(path)
        assert back == [SliceReport(r.volume_id, r.slice_index, float(f"{r.dsc:.6f}"),
                                    r.gt_pixels) for r in rows]
        again = tmp_path / "again.csv"
        write_csv(back, again, SliceReport)
        assert again.read_bytes() == path.read_bytes()

    def test_read_errors_name_the_file_and_column(self, tmp_path):
        path = tmp_path / "slices.csv"
        write_csv([SliceReport("v", 0, 0.5, 3)], path, SliceReport)
        good = path.read_text()
        for text, column in ((good.replace(",gt_pixels", ""), "gt_pixels"),
                             (good.replace("0.500000", "abc"), "dsc"),
                             (good.replace("0.500000", "1.5"), "dsc"),
                             (good.replace("0.500000", "nan"), "dsc"),
                             (good.replace(",3\n", ",yes\n"), "gt_pixels"),
                             (good.replace("v,0,", "v,0.5,"), "slice_index")):
            path.write_text(text)
            with pytest.raises(DataError, match=f"slices.csv: bad or missing {column}"):
                read_slice_csv(path)
        path.write_bytes(b"\xff\xfe\x00binary")
        with pytest.raises(DataError, match="slices.csv: not a CSV table"):
            read_slice_csv(path)
        path.write_text(good)
        assert read_columns(path, {"dsc": float}) == {"dsc": [0.5]}

    def test_summarize(self):
        pred = _mask([[[1, 1], [0, 0]]])
        gt = _mask([[[1, 0], [0, 0]]])
        r1 = evaluate_volume(pred, gt, "a")
        r2 = evaluate_volume(gt, gt, "b")
        s = summarize([r1, r2])
        assert s["n_volumes"] == 2
        vals = np.array([r1.dsc, r2.dsc])
        assert abs(s["dsc"]["mean"] - vals.mean()) < 1e-12
        assert abs(s["dsc"]["std"] - vals.std(ddof=1)) < 1e-12
        assert s["dsc"]["min"] == r1.dsc and s["dsc"]["max"] == 1.0

    def test_summarize_drops_undefined(self):
        gt = _mask([[[1, 0], [0, 0]]])
        empty = _mask(np.zeros((1, 2, 2)))
        with pytest.warns(UserWarning):
            r = evaluate_volume(empty, gt, "a")
        s = summarize([r])
        assert s["hd_symmetric"] is None
        assert s["dsc"]["std"] == 0.0  # single volume
