"""Mask evaluation battery: overlap scores, distances, histograms,
reliability curves, volume-agreement statistics, small-target cohorts."""

import csv
import io
import string
import warnings
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, DataError, UndefinedMetricError, read_input, write_output
from .pvol import MaskVolume

DSC_BUCKETS = (0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
AREA_THRESHOLD = 300  # pixels: a slice with at most this reference area is a small target
HEAD_TAIL_N = 3  # the first and last n foreground slices of each volume


@dataclass
class VolumeReport:
    volume_id: str
    dsc: float
    iou: float
    recall: float
    precision: float
    hd_directed: float  # None when undefined (an empty mask)
    hd_symmetric: float
    rmse: float
    pred_voxels: int
    gt_voxels: int
    pred_mm3: float
    gt_mm3: float


@dataclass
class SliceReport:
    volume_id: str
    slice_index: int
    dsc: float
    gt_pixels: int


def _check_grid(a: MaskVolume, b: MaskVolume) -> None:
    if a.dims != b.dims or a.spacing != b.spacing:
        raise ConfigError(f"mask grids differ: dims {a.dims} vs {b.dims}, "
                          f"spacing {a.spacing} vs {b.spacing}")


def _counts(a, b, axis=None):
    """(|a n b|, |a|, |b|) of two masks, nonzero being foreground: ints, or lists if axis is set."""
    a, b = (np.asarray(m.data if isinstance(m, MaskVolume) else m, dtype=bool) for m in (a, b))
    return tuple(np.count_nonzero(m, axis=axis).tolist() for m in (a & b, a, b))


def _dice(inter, na, nb) -> float:
    return 2.0 * inter / (na + nb) if na + nb else 1.0  # two empty masks agree


def _iou(inter, na, nb) -> float:
    return inter / (na + nb - inter) if na + nb else 1.0  # the union is empty only then


def _recall(inter, npred, ngt, name="recall", empty="reference") -> float:
    """inter / ngt; with gt empty, 1.0 if pred is empty too, else 0.0 and a warning."""
    if ngt:
        return inter / ngt
    if npred:
        warnings.warn(f"{name} undefined for empty {empty}; reporting 0.0")
        return 0.0
    return 1.0


def _precision(inter, npred, ngt) -> float:
    return _recall(inter, ngt, npred, "precision", "prediction")  # recall with the roles swapped


def _rmse(inter, na, nb, size) -> float:
    return float(np.sqrt((na + nb - 2 * inter) / size))  # |a| + |b| - 2|a n b| voxels differ


def array_dsc(a, b) -> float:
    """Dice 2|a n b| / (|a| + |b|) of two same-shape masks; two empty masks agree (1.0)."""
    return _dice(*_counts(a, b))


def dsc(a: MaskVolume, b: MaskVolume) -> float:
    """``array_dsc`` of two volumes, which must lie on the same grid."""
    _check_grid(a, b)
    return array_dsc(a, b)


def iou(a: MaskVolume, b: MaskVolume) -> float:
    """Intersection over union; two empty masks agree (1.0)."""
    _check_grid(a, b)
    return _iou(*_counts(a, b))


def recall(pred: MaskVolume, gt: MaskVolume) -> float:
    """Fraction of reference voxels recovered."""
    _check_grid(pred, gt)
    return _recall(*_counts(pred, gt))


def precision(pred: MaskVolume, gt: MaskVolume) -> float:
    """Fraction of predicted voxels that are correct."""
    _check_grid(pred, gt)
    return _precision(*_counts(pred, gt))


def _boundary(m: np.ndarray) -> np.ndarray:
    """The voxels of bool mask m with one of their six neighbours outside m,
    the volume edge counting as outside."""
    p, (nz, ny, nx) = np.pad(m, 1), m.shape
    inner = m.copy()
    for z, y, x in ((0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 0), (1, 1, 2)):
        inner &= p[z:z + nz, y:y + ny, x:x + nx]
    return m & ~inner


def _directed(a: np.ndarray, b: np.ndarray, scale: tuple) -> float:
    """Max over bool mask a of the distance to the nearest voxel of b: 0 inside b;
    outside b, the nearest is on b's boundary, as an inner voxel has a neighbour a step nearer."""
    outside = np.flatnonzero(a & ~b)  # flat, as 3-D nonzero is ten times slower
    if len(outside) == 0:
        return 0.0
    edge, query = (np.column_stack(np.unravel_index(i, a.shape)) * scale
                   for i in (np.flatnonzero(_boundary(b)), outside))
    return float(cKDTree(edge).query(query)[0].max())


def hausdorff(a: MaskVolume, b: MaskVolume, mode: str = "symmetric"):
    """Max-min Euclidean distance between foreground voxel centers, in mm.

    directed mode measures a -> b only; symmetric takes the max of both
    directions; both returns the (directed, symmetric) pair from the same
    two nearest-neighbour passes. Undefined when either mask is empty.
    """
    _check_grid(a, b)
    if mode not in ("directed", "symmetric", "both"):
        raise ConfigError(f"mode must be 'directed', 'symmetric' or 'both', got {mode!r}")
    ad, bd = a.data.astype(bool), b.data.astype(bool)  # so ~ is logical: ~1 is 254 in uint8
    if not ad.any() or not bd.any():
        raise UndefinedMetricError("hausdorff undefined for an empty mask")
    d_ab = _directed(ad, bd, a.spacing)
    if mode == "directed":
        return d_ab
    d_sym = max(d_ab, _directed(bd, ad, a.spacing))
    return (d_ab, d_sym) if mode == "both" else d_sym


def rmse(pred: MaskVolume, gt: MaskVolume) -> float:
    """Per-voxel root mean squared error: the root of the fraction of voxels that differ."""
    _check_grid(pred, gt)
    return _rmse(*_counts(pred, gt), pred.data.size)


def evaluate_volume(pred: MaskVolume, gt: MaskVolume, volume_id: str = "") -> VolumeReport:
    """All volume-level metrics for one prediction, from one overlap count."""
    try:
        hd_d, hd_s = hausdorff(pred, gt, mode="both")  # checks the grids first
    except UndefinedMetricError:
        hd_d = hd_s = None
    counts = _counts(pred, gt)
    return VolumeReport(volume_id, _dice(*counts), _iou(*counts), _recall(*counts),
                        _precision(*counts), hd_d, hd_s, _rmse(*counts, pred.data.size),
                        *counts[1:], *(n * float(np.prod(gt.spacing)) for n in counts[1:]))


def evaluate_slices(pred: MaskVolume, gt: MaskVolume, volume_id: str = "") -> list:
    """Dice and reference area of every slice along the stacking axis;
    ``small_target_report`` takes the head/tail cohort from them."""
    _check_grid(pred, gt)
    return [SliceReport(volume_id, t, _dice(*counts), counts[2])
            for t, counts in enumerate(zip(*_counts(pred, gt, axis=(1, 2))))]


def dsc_histogram(slice_reports) -> dict:
    """Counts of slices per DSC_BUCKETS interval; intervals are [lo, hi)
    except the last, which is closed. Scores outside the buckets count in no
    interval but in the total."""
    counts = np.histogram([r.dsc for r in slice_reports], DSC_BUCKETS)[0].tolist()
    n = len(slice_reports)
    percent = [100.0 * c / n if n else 0.0 for c in counts]
    return {"edges": list(zip(DSC_BUCKETS[:-1], DSC_BUCKETS[1:])), "counts": counts,
            "percent": percent, "total": n}


def reliability_curve(volume_dscs) -> list:
    """Fraction of volumes whose Dice reaches each threshold on a fixed
    0.00 .. 1.00 grid (step 0.01). Non-increasing by construction."""
    vals = np.asarray(list(volume_dscs), dtype=np.float64)
    if vals.size == 0:
        raise DataError("reliability curve needs at least one score")
    return [(i / 100.0, float(np.mean(vals >= i / 100.0))) for i in range(101)]


@dataclass
class AgreementReport:
    n: int
    slope: float
    intercept: float
    r: float
    ba_mean: float
    ba_lo: float
    ba_hi: float
    inside_fraction: float


def volume_agreement(pred_mm3, gt_mm3) -> AgreementReport:
    """Least-squares fit of predicted against reference volumes plus
    Bland-Altman limits of agreement on the paired differences."""
    pred = np.asarray(list(pred_mm3), dtype=np.float64)
    gt = np.asarray(list(gt_mm3), dtype=np.float64)
    if pred.shape != gt.shape:
        raise ConfigError(f"paired lengths differ: {pred.shape} vs {gt.shape}")
    if pred.size < 2:
        raise DataError("agreement statistics need at least 2 pairs")
    if np.ptp(gt) == 0.0:
        raise DataError("reference volumes are constant; fit undefined")
    slope, intercept = np.polyfit(gt, pred, 1)
    if np.ptp(pred) == 0.0:
        raise DataError("predicted volumes are constant; correlation undefined")
    r = float(np.corrcoef(gt, pred)[0, 1])
    diffs = pred - gt
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1))
    lo, hi = mean - 1.96 * sd, mean + 1.96 * sd
    inside = float(np.mean((diffs >= lo) & (diffs <= hi)))
    return AgreementReport(int(pred.size), float(slope), float(intercept), r,
                           mean, lo, hi, inside)


def _cohort_stats(members) -> dict:
    scores = np.asarray([r.dsc for r in members], dtype=np.float64)
    return {
        "count": len(members),
        "failed": int(np.count_nonzero(scores == 0.0)),
        "mean_dsc": float(scores.mean()) if members else None,
        "std_dsc": float(scores.std()) if members else None,
        "slices": [(r.volume_id, r.slice_index) for r in members],
    }


def small_target_report(slice_reports, area_threshold: int = AREA_THRESHOLD,
                        head_tail_n: int = HEAD_TAIL_N) -> dict:
    """Dice statistics over the hard cohorts: the first/last n foreground slices
    of each volume (the one head/tail rule), and slices whose reference area
    is at most area_threshold pixels. A slice with Dice 0 counts as failed."""
    if head_tail_n < 1:  # fg[-0:] is every slice, so n = 0 must not mean "all of them"
        raise ConfigError(f"head_tail_n must be >= 1, got {head_tail_n}")
    by_volume = {}
    for r in slice_reports:
        by_volume.setdefault(r.volume_id, {})[r.slice_index] = r
    head_tail = []
    for by_slice in by_volume.values():
        fg = sorted(t for t, r in by_slice.items() if r.gt_pixels > 0)
        head_tail += [by_slice[t] for t in sorted(set(fg[:head_tail_n] + fg[-head_tail_n:]))]
    small = [r for r in slice_reports if 0 < r.gt_pixels <= area_threshold]
    return {
        "area_threshold": area_threshold,
        "head_tail_n": head_tail_n,
        "head_tail": _cohort_stats(head_tail),
        "small": _cohort_stats(small),
    }


def _fmt(x, spec) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if spec is None and isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(x, spec or ".6f")


def write_csv(reports, path, cls) -> None:
    """One row per report, one column per field of the dataclass cls. A
    number takes the format in its field's metadata; without one, an integer
    is written whole and a float as .6f."""
    table, columns = io.StringIO(), fields(cls)
    w = csv.writer(table)
    w.writerow([c.name for c in columns])
    w.writerows([_fmt(getattr(r, c.name), c.metadata.get("format")) for c in columns]
                for r in reports)
    write_output(path, table.getvalue())


def parse_dsc(text: str) -> float:
    """A Dice score read back from a table: a number in [0, 1]."""
    if not 0.0 <= float(text) <= 1.0:  # nan fails this too
        raise ValueError(f"Dice score must be a number in [0, 1], got {text!r}")
    return float(text)


def read_columns(path, parsers: dict, unique: str = "") -> dict:
    """The named columns of a CSV file, each value parsed by its column's
    function. A missing header row, a missing column, a bad value, or a row
    repeating the key of an earlier one (the columns that the format string
    ``unique`` names), is a DataError that names the file and the column or row."""
    def parse(data: bytes) -> dict:
        try:
            reader = csv.DictReader(io.StringIO(data.decode("utf-8"), newline=""))
            rows = list(reader)
        except (UnicodeDecodeError, csv.Error) as e:
            raise DataError(f"not a CSV table: {e}") from None
        if reader.fieldnames is None:
            raise DataError("no header row")
        columns = {}
        for name, parse_value in parsers.items():
            try:
                columns[name] = [parse_value(row[name]) for row in rows]
            except (KeyError, TypeError, ValueError) as e:
                raise DataError(f"bad or missing {name} column: {e}") from None
        key, seen = [name for _, name, _, _ in string.Formatter().parse(unique) if name], set()
        for row in zip(*(columns[name] for name in key)):
            if row in seen:
                raise DataError(unique.format(**dict(zip(key, row))) + " is listed twice")
            seen.add(row)
        return columns
    return read_input(path, parse)


def _nonnegative(convert):
    """A parser of table cells: convert(text), which must be finite and >= 0."""
    def parse(text: str):
        if not 0 <= convert(text) < float("inf"):  # nan fails this too
            raise ValueError(f"must be a finite number >= 0, got {text!r}")
        return convert(text)
    return parse


_count = _nonnegative(int)  # a slice index or a pixel count
parse_mm3 = _nonnegative(float)  # a volume in mm³


def read_slice_csv(path) -> list:
    """The SliceReports of a ``write_csv(..., SliceReport)`` table, each slice listed once."""
    columns = read_columns(path, {"volume_id": str, "slice_index": _count,
                                  "dsc": parse_dsc, "gt_pixels": _count},
                           unique="slice {slice_index} of {volume_id}")
    return list(map(SliceReport, *columns.values()))


def summarize(volume_reports) -> dict:
    """Mean/std/min/max per metric across volumes (std is the sample
    deviation; undefined metrics are dropped from their column)."""
    out = {"n_volumes": len(volume_reports)}
    for col in (f.name for f in fields(VolumeReport) if f.type is float):
        vals = np.asarray([getattr(r, col) for r in volume_reports
                           if getattr(r, col) is not None], dtype=np.float64)
        if vals.size == 0:
            out[col] = None
            continue
        out[col] = {
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            "min": float(vals.min()),
            "max": float(vals.max()),
        }
    return out
