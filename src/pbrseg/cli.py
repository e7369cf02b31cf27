"""Command-line surface: phantom generation, training, inference,
evaluation, and reporting, with reproducible run manifests."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, parallel
from .checkpoint import checkpoint_digest
from .errors import ConfigError, DataError, NumericalError, read_input, write_output
from .hybrid import SweepConfig, binarize, infer_pbr
from .metrics import (SliceReport, VolumeReport, dsc_histogram, evaluate_slices,
                      evaluate_volume, parse_dsc, read_columns, read_slice_csv,
                      reliability_curve, small_target_report, summarize, volume_agreement,
                      write_csv)
from .phantom import PhantomSpec, gen_phantom, volume_seed
from .preprocess import crop_box, preprocess
from .pvol import MaskVolume, Volume, read_pvol_file, write_pvol_file
from .training import EpochLog, Phase, TrainSchedule, train_initial, train_primary
from .unet import UNet
from .views import VIEWS


# -- small parsing helpers --------------------------------------------------

def _sizes(form: str):
    """Converter for comma-separated sizes >= 1, one per name in form ("h,w")."""
    def parse(text):
        parts = [int(p) for p in text.split(",")]
        if len(parts) != len(form.split(",")) or min(parts) < 1:
            raise argparse.ArgumentTypeError(f"expected {form} got {text!r}")
        return tuple(parts)
    parse.__name__ = form  # argparse names the form in its errors
    return parse


def _ids(text: str) -> frozenset:
    out = set()
    for part in text.split(","):
        if "-" in part[1:]:
            lo, hi = (int(p) for p in part.split("-", 1))
            if lo > hi:
                raise argparse.ArgumentTypeError(f"inverted id range {part!r}")
            out.update(range(lo, hi + 1))
        else:
            out.add(int(part))
    return frozenset(out)


def _views_arg(text: str) -> tuple:
    if text == "all":
        return VIEWS
    views = tuple(text.split(","))
    for i, v in enumerate(views):
        if v not in VIEWS:
            raise argparse.ArgumentTypeError(f"unknown view {v!r}")
        if v in views[:i]:
            raise argparse.ArgumentTypeError(f"view {v!r} given twice")
    return views


def _ranged(convert, lo, below=float("inf")):
    """Converter for a number in [lo, below)."""
    def parse(text):
        value = convert(text)
        if not lo <= value < below:
            raise argparse.ArgumentTypeError(f"{value} is outside [{lo}, {below})")
        return value
    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


# -- dataset discovery ------------------------------------------------------

def _read(path, cls, grid=None):
    """The ``cls`` a .pvol file holds; given ``grid=(volume, its path)``, the
    file must lie on that volume's grid."""
    v = read_pvol_file(path)
    if not isinstance(v, cls):
        raise DataError(f"{path} does not hold a binary mask" if cls is MaskVolume
                        else f"{path} holds a mask, expected intensities")
    if grid is not None:
        g, g_path = grid
        if v.dims != g.dims or v.spacing != g.spacing:
            raise DataError(f"{path} (dims {v.dims}, spacing {v.spacing}) does not match "
                            f"{g_path} (dims {g.dims}, spacing {g.spacing})")
    return v


def _load(data_dir, ids=None, crop_hw=None, images=True):
    """(id, mask path, volume, mask) of each volume/mask pair under data_dir
    that the id filter keeps, cut to the crop window; the volume is
    preprocessed, or None when images is false and it is not read."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory {data_dir} does not exist")
    out = []
    for i, mp in enumerate(sorted(data_dir.glob("*_mask.pvol"))):
        vp = mp.with_name(mp.name.replace("_mask.pvol", ".pvol"))
        number = re.search(r"(\d+)$", vp.stem)  # a name without one counts by its place
        if ids is not None and (int(number.group(1)) if number else i) not in ids:
            continue
        if not vp.exists():
            raise DataError(f"mask {mp.name} has no matching volume file")
        m = _read(mp, MaskVolume)
        # normalisation covers the whole volume, so it runs before the crop
        v = preprocess(_read(vp, Volume, (m, mp))) if images else None
        if crop_hw is not None:
            box = crop_box(m, *crop_hw)
            m = MaskVolume(m.data[box].copy(), m.spacing)
            if images:
                v = Volume(v.data[box].copy(), v.spacing)
        out.append((vp.stem, mp, v, m))
    if not out:
        raise DataError(f"no volume/mask pairs under {data_dir}"
                        + ("" if ids is None else " match --ids"))
    return out


def _write_json(path: Path, obj) -> None:
    write_output(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _machine() -> dict:
    """Processor count, thread pools and library builds, so that run times
    can be compared."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "threads": parallel.threads(),
            "blas_threads": parallel.blas_threads(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version")}


def _write_manifest(outdir: Path, command: str, args, digests: dict) -> None:
    cfg = {}
    for k, v in sorted(vars(args).items()):
        if k == "func":
            continue
        if isinstance(v, Path):
            v = str(v)
        elif isinstance(v, frozenset):
            v = sorted(v)
        cfg[k] = v
    manifest = {"command": command, "version": __version__, "config": cfg,
                "checkpoints": dict(sorted(digests.items())), "machine": _machine()}
    _write_json(Path(outdir) / f"manifest_{command.replace('-', '_')}.json", manifest)


def _load_net(path: Path) -> tuple:
    """The net a checkpoint file holds, and the file's digest."""
    return read_input(path, lambda blob: (UNet.load(blob), checkpoint_digest(blob)))


def _load_init_nets(ckpt_dir: Path, views) -> tuple:
    """The init nets by view, and the digest of each file read, keyed
    ``init_<view>`` as in the manifests."""
    nets, digests = {}, {}
    for view in views:
        nets[view], digests[f"init_{view}"] = _load_net(Path(ckpt_dir) / f"init_{view}.pbrw")
    return nets, digests


def _save_net(run: Path, name: str, net, logs, log_name: str) -> str:
    """Write checkpoints/<name>.pbrw and reports/<log_name>.csv; return the digest."""
    blob = net.save()
    write_output(run / "checkpoints" / f"{name}.pbrw", blob)
    write_csv(logs, run / "reports" / f"{log_name}.csv", EpochLog)
    return checkpoint_digest(blob)


# -- subcommands ------------------------------------------------------------

def cmd_phantom(args) -> int:
    out = Path(args.out)
    for i in range(args.count):
        spec = PhantomSpec(seed=volume_seed(args.seed, i), dims=args.dims,
                           contrast=args.contrast, noise_std=args.noise,
                           distractors=args.distractors, min_radius=args.min_radius,
                           max_radius=args.max_radius, taper=args.taper)
        v, m = gen_phantom(spec)
        write_pvol_file(out / f"phantom_{i:03d}.pvol", v)
        write_pvol_file(out / f"phantom_{i:03d}_mask.pvol", m)
    _write_manifest(out, "phantom", args, {})
    return 0


def cmd_train_init(args) -> int:
    dataset = [(v, m) for _, _, v, m in _load(args.data, args.ids, args.crop)]
    schedule = TrainSchedule((Phase("sgd", args.sgd_lr, args.sgd_epochs),
                              Phase("adam", args.adam_lr, args.adam_epochs)),
                             args.val_fraction, args.patience, args.augment)
    # one view per core: each view's net is seeded apart, so no bit depends on the pool
    trained = parallel.run(
        lambda view: train_initial(dataset, view, schedule, args.seed, args.base_width),
        args.views)
    digests = {f"init_{view}": _save_net(Path(args.run), f"init_{view}", net, logs,
                                         f"train_init_{view}")
               for view, (net, logs) in zip(args.views, trained)}
    _write_manifest(args.run, "train-init", args, digests)
    return 0


def cmd_train_primary(args) -> int:
    dataset = [(v, m) for _, _, v, m in _load(args.data, args.ids, args.crop)]
    init_nets = {}
    if not args.teacher_forced:
        init_nets, _ = _load_init_nets(Path(args.run) / "checkpoints", args.views)
    schedule = TrainSchedule((Phase("adam", args.lr, args.epochs),),
                             args.val_fraction, args.patience, args.augment)
    net, logs = train_primary(dataset, init_nets, args.depth, schedule, args.seed,
                              teacher_forced=args.teacher_forced,
                              base_width=args.base_width)
    name = f"primary_d{args.depth}"
    digest = _save_net(Path(args.run), name, net, logs, "train_primary")
    _write_manifest(args.run, "train-primary", args, {name: digest})
    return 0


def _check_trained_views(run: Path, name: str, digest: str, views) -> None:
    """Refuse views other than the ones the run's train-primary manifest
    records for the checkpoint with this digest; with no such record nothing
    is checked."""
    path = Path(run) / "manifest_train_primary.json"
    manifest = read_input(path, json.loads) if path.exists() else {}
    try:
        config = manifest.get("config", {})
        trained = set(config.get("views", ()))
        recorded = manifest.get("checkpoints", {}).get(name)
    except (AttributeError, TypeError) as e:
        raise DataError(f"malformed {path}: {e!r}") from None
    if recorded == digest and not config.get("teacher_forced") and trained != set(views):
        raise ConfigError(f"{name}.pbrw was trained on views {sorted(trained)}, "
                          f"not on {sorted(set(views))}")


def cmd_infer(args) -> int:
    ckpt_dir = Path(args.run) / "checkpoints"
    init_nets, digests = _load_init_nets(ckpt_dir, args.views)
    primary_path = ckpt_dir / f"primary_d{args.depth}.pbrw"
    # train=False forwards keep no state, so every pool thread can share one net
    net, digests["primary"] = _load_net(primary_path)
    _check_trained_views(args.run, primary_path.stem, digests["primary"], args.views)
    config = SweepConfig(args.depth, args.threshold, args.sweeps)
    pairs = _load(args.data, args.ids, args.crop)
    out = Path(args.run) / "volumes"

    def run_one(item):
        vid, _, v, _ = item
        result = infer_pbr(init_nets, net, v, config)
        write_pvol_file(out / f"pred_{vid}.pvol", result.mask)
        write_pvol_file(out / f"prob_{vid}.pvol", result.prob)
        write_pvol_file(out / f"prob_init_{vid}.pvol", result.initial)
        write_pvol_file(out / f"pred_init_{vid}.pvol", binarize(result.initial, args.threshold))
        return vid, result.timings

    # one volume per core; a lone volume runs here, its estimate on every core
    results = parallel.run(run_one, pairs)

    write_output(out / "timing.jsonl", "".join(
        json.dumps({"volume": vid, "stage": stage, "seconds": seconds}) + "\n"
        for vid, timings in sorted(results) for stage, seconds in timings))
    _write_manifest(args.run, "infer", args, digests)
    return 0


def _eval_set(masks, pred_dir: Path, prefix: str):
    vol_reports, slice_reports, mm3 = [], [], {"ids": [], "pred": [], "gt": []}
    for vid, gt_path, _, gt in masks:
        pred_path = Path(pred_dir) / f"{prefix}{vid}.pvol"
        pred = _read(pred_path, MaskVolume, (gt, gt_path))
        vol_reports.append(evaluate_volume(pred, gt, volume_id=vid))
        slice_reports.extend(evaluate_slices(pred, gt, volume_id=vid))
        sz, sy, sx = gt.spacing  # the pred's too: _read checked the grid
        mm3["ids"].append(vid)
        mm3["pred"].append(vol_reports[-1].pred_voxels * sz * sy * sx)
        mm3["gt"].append(vol_reports[-1].gt_voxels * sz * sy * sx)
    return vol_reports, slice_reports, mm3


def cmd_eval(args) -> int:
    pred_dir = Path(args.pred) if args.pred else Path(args.run) / "volumes"
    masks = _load(args.data, args.ids, args.crop, images=False)
    scored = []  # every prediction is read before the first table is written
    for prefix, tag in (("pred_", ""), ("pred_init_", "_init")):
        if tag and not any((pred_dir / f"{prefix}{vid}.pvol").exists() for vid, *_ in masks):
            continue
        scored.append((tag, _eval_set(masks, pred_dir, prefix)))
    out = Path(args.run) / "reports"
    for tag, (vols, slices, mm3) in scored:
        write_csv(vols, out / f"volumes{tag}.csv", VolumeReport)
        write_csv(slices, out / f"slices{tag}.csv", SliceReport)
        _write_json(out / f"summary{tag}.json", summarize(vols))
        _write_json(out / f"volumes_mm3{tag}.json", mm3)
    _write_manifest(args.run, "eval", args, {})
    return 0


def cmd_report(args) -> int:
    reports = Path(args.run) / "reports"
    for name in ("volumes.csv", "slices.csv", "volumes_mm3.json"):
        if not (reports / name).exists():
            raise DataError(f"missing {reports / name}: run eval first")
    volume_dscs = read_columns(reports / "volumes.csv", {"dsc": parse_dsc})["dsc"]
    slice_reports = read_slice_csv(reports / "slices.csv")
    mm3_path = reports / "volumes_mm3.json"
    mm3 = read_input(mm3_path, json.loads)
    pred_mm3, gt_mm3 = (mm3.get(key) if isinstance(mm3, dict) else None for key in ("pred", "gt"))
    for key, values in (("pred", pred_mm3), ("gt", gt_mm3)):
        # a bool is an int to Python; a NaN or inf would make agreement.json invalid JSON
        for x in values if isinstance(values, list) else [values]:
            if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
                raise DataError(f"malformed {mm3_path}: {key!r} must be a list of finite "
                                f"numbers, found {x!r}")
    if len(pred_mm3) != len(gt_mm3):
        raise DataError(f"{mm3_path}: {len(pred_mm3)} pred but {len(gt_mm3)} gt volumes")

    # every table is computed before the first is written, so a report that fails leaves none
    histogram = dsc_histogram([r for r in slice_reports if r.gt_pixels > 0])
    curve = reliability_curve(volume_dscs)
    agreement = volume_agreement(pred_mm3, gt_mm3)
    small = small_target_report(slice_reports, args.area_threshold, args.head_tail_n)

    _write_json(reports / "histogram.json", histogram)
    write_output(reports / "reliability.csv", "threshold,fraction\r\n" + "".join(
        f"{t:.2f},{frac:.6f}\r\n" for t, frac in curve))  # the csv module's line ends
    _write_json(reports / "agreement.json", vars(agreement))
    _write_json(reports / "small_targets.json", small)
    _write_manifest(args.run, "report", args, {})
    return 0


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pbrseg",
                                     description="probabilistic-map guided "
                                                 "recurrent volume segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic dataset")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--count", type=_ranged(int, 0), default=20)
    p.add_argument("--seed", type=_ranged(int, 0), default=0)
    p.add_argument("--dims", type=_sizes("m,h,w"), default=(32, 64, 64))
    p.add_argument("--contrast", type=float, default=90.0)
    p.add_argument("--noise", type=float, default=18.0)
    p.add_argument("--distractors", type=_ranged(int, 0), default=3)
    p.add_argument("--min-radius", type=float, default=1.6)
    p.add_argument("--max-radius", type=float, default=12.0)
    p.add_argument("--taper", type=int, default=6)
    p.set_defaults(func=cmd_phantom)

    def common(p):
        p.add_argument("--data", type=Path, required=True)
        p.add_argument("--run", type=Path, required=True)
        p.add_argument("--ids", type=_ids, default=None,
                       help="volume numbers, e.g. 0-15 or 3,7,9")
        p.add_argument("--crop", type=_sizes("h,w"), default=None, help="h,w")

    def training(p):
        common(p)
        p.add_argument("--seed", type=_ranged(int, 0), default=0)
        p.add_argument("--patience", type=_ranged(int, 1), default=20)
        p.add_argument("--val-fraction", type=_ranged(float, 0, below=1), default=0.01)
        p.add_argument("--augment", action="store_true")
        p.add_argument("--base-width", type=_ranged(int, 1), default=8)

    p = sub.add_parser("train-init", help="train per-view estimation nets")
    training(p)
    p.add_argument("--views", type=_views_arg, default=("axial",))
    p.add_argument("--sgd-epochs", type=_ranged(int, 0), default=3)
    p.add_argument("--adam-epochs", type=_ranged(int, 0), default=5)
    p.add_argument("--sgd-lr", type=_ranged(float, 0), default=5e-3)
    p.add_argument("--adam-lr", type=_ranged(float, 0), default=1e-4)
    p.set_defaults(func=cmd_train_init)

    p = sub.add_parser("train-primary", help="train the refinement net")
    training(p)
    p.add_argument("--views", type=_views_arg, default=("axial",))
    p.add_argument("--depth", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--epochs", type=_ranged(int, 0), default=6)
    p.add_argument("--lr", type=_ranged(float, 0), default=5e-4)
    p.add_argument("--teacher-forced", action="store_true")
    p.set_defaults(func=cmd_train_primary)

    p = sub.add_parser("infer", help="run refinement inference")
    common(p)
    p.add_argument("--views", type=_views_arg, default=("axial",))
    p.add_argument("--depth", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--sweeps", choices=("both", "forward"), default="both")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    common(p)
    p.add_argument("--pred", type=Path, default=None,
                   help="directory of pred_<id>.pvol files (default run/volumes)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="histograms, reliability, agreement tables")
    p.add_argument("--run", type=Path, required=True)
    p.add_argument("--area-threshold", type=_ranged(int, 0), default=300)
    p.add_argument("--head-tail-n", type=_ranged(int, 1), default=3)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if (e.code or 0) == 0 else 1
    try:
        return args.func(args) or 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
