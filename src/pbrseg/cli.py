"""Command-line surface: phantom generation, training, inference,
evaluation, and reporting, with reproducible run manifests."""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, parallel
from .checkpoint import checkpoint_digest
from .errors import ConfigError, DataError, NumericalError
from .hybrid import SweepConfig, binarize, infer_pbr
from .metrics import (SliceReport, dsc_histogram, evaluate_slices, evaluate_volume,
                      reliability_curve, small_target_report, summarize,
                      volume_agreement, volume_mm3, write_slice_csv,
                      write_volume_csv)
from .phantom import PhantomSpec, gen_phantom
from .preprocess import crop, crop_box, preprocess
from .pvol import MaskVolume, read_pvol_file, write_pvol_file
from .training import Phase, TrainSchedule, train_initial, train_primary, write_train_log
from .unet import UNet
from .views import VIEWS


# -- small parsing helpers --------------------------------------------------

def _dims(text: str) -> tuple:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3 or min(parts) < 1:
        raise argparse.ArgumentTypeError(f"expected m,h,w got {text!r}")
    return tuple(parts)


def _crop_hw(text: str) -> tuple:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 2 or min(parts) < 1:
        raise argparse.ArgumentTypeError(f"expected h,w got {text!r}")
    return tuple(parts)


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
    for v in views:
        if v not in VIEWS:
            raise argparse.ArgumentTypeError(f"unknown view {v!r}")
    return views


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def _config_bool(text: str) -> bool:
    if text.lower() not in _BOOLS:
        raise argparse.ArgumentTypeError(f"{text!r} is not a boolean")
    return _BOOLS[text.lower()]


def _ranged(convert, lo, below=float("inf")):
    """Converter for a number in [lo, below)."""
    def parse(text):
        value = convert(text)
        if not lo <= value < below:
            raise argparse.ArgumentTypeError(f"{value} is outside [{lo}, {below})")
        return value
    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


def _id_number(vid: str, fallback: int) -> int:
    m = re.search(r"(\d+)$", vid)
    return int(m.group(1)) if m else fallback


# -- dataset discovery ------------------------------------------------------

def _discover(data_dir: Path):
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory {data_dir} does not exist")
    out = []
    for mp in sorted(data_dir.glob("*_mask.pvol")):
        vp = mp.with_name(mp.name.replace("_mask.pvol", ".pvol"))
        if not vp.exists():
            raise DataError(f"mask {mp.name} has no matching volume file")
        out.append((vp.stem, vp, mp))
    if not out:
        raise DataError(f"no volume/mask pairs under {data_dir}")
    return out


def _select(data_dir, ids):
    """(id, volume path, mask) of the volumes the id filter keeps."""
    out = []
    for i, (vid, vp, mp) in enumerate(_discover(data_dir)):
        if ids is not None and _id_number(vid, i) not in ids:
            continue
        m = read_pvol_file(mp)
        if not isinstance(m, MaskVolume):
            raise DataError(f"{mp} does not hold a binary mask")
        out.append((vid, vp, m))
    if not out:
        raise DataError("id filter matched no volumes")
    return out


def _load_pairs(data_dir, ids=None, crop_hw=None):
    """Preprocessed (id, volume, mask) triples, optionally filtered/cropped."""
    pairs = []
    for vid, vp, m in _select(data_dir, ids):
        v = read_pvol_file(vp)
        if isinstance(v, MaskVolume):
            raise DataError(f"{vp} holds a mask, expected intensities")
        v = preprocess(v)
        if crop_hw is not None:
            v, m = crop(v, m, *crop_hw)
        pairs.append((vid, v, m))
    return pairs


def _load_masks(data_dir, ids=None, crop_hw=None):
    """(id, mask) pairs cropped as ``_load_pairs`` crops them; the intensity
    volumes are not read."""
    masks = []
    for vid, _, m in _select(data_dir, ids):
        if crop_hw is not None:
            m = MaskVolume(m.data[crop_box(m, *crop_hw)].copy(), m.spacing)
        masks.append((vid, m))
    return masks


def _run_dirs(run: Path):
    run = Path(run)
    dirs = {k: run / k for k in ("checkpoints", "volumes", "reports")}
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    return dirs


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


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
        if k in ("func", "config"):
            continue
        if isinstance(v, Path):
            v = str(v)
        elif isinstance(v, frozenset):
            v = sorted(v)
        cfg[k] = v
    manifest = {"command": command, "version": __version__, "config": cfg,
                "checkpoints": dict(sorted(digests.items())), "machine": _machine()}
    _write_json(Path(outdir) / f"manifest_{command.replace('-', '_')}.json", manifest)


def _read_checkpoint(path: Path) -> bytes:
    if not path.exists():
        raise DataError(f"missing checkpoint {path}")
    return path.read_bytes()


def _load_init_nets(ckpt_dir: Path, views) -> tuple:
    """The init nets by view, and the digest of each file read, keyed
    ``init_<view>`` as in the manifests."""
    nets, digests = {}, {}
    for view in views:
        blob = _read_checkpoint(Path(ckpt_dir) / f"init_{view}.pbrw")
        nets[view] = UNet.load(blob)
        digests[f"init_{view}"] = checkpoint_digest(blob)
    return nets, digests


# -- subcommands ------------------------------------------------------------

def cmd_phantom(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        seed = int(np.random.SeedSequence([args.seed, i]).generate_state(1)[0])
        spec = PhantomSpec(seed=seed, dims=args.dims, contrast=args.contrast,
                           noise_std=args.noise, distractors=args.distractors,
                           min_radius=args.min_radius, max_radius=args.max_radius,
                           taper=args.taper)
        v, m = gen_phantom(spec)
        write_pvol_file(out / f"phantom_{i:03d}.pvol", v)
        write_pvol_file(out / f"phantom_{i:03d}_mask.pvol", m)
    _write_manifest(out, "phantom", args, {})
    return 0


def cmd_train_init(args) -> int:
    dirs = _run_dirs(args.run)
    pairs = _load_pairs(args.data, args.ids, args.crop)
    dataset = [(v, m) for _, v, m in pairs]
    schedule = TrainSchedule((Phase("sgd", args.sgd_lr, args.sgd_epochs),
                              Phase("adam", args.adam_lr, args.adam_epochs)),
                             args.val_fraction, args.patience, args.augment)
    digests = {}
    for view in args.views:
        net, logs = train_initial(dataset, view, schedule, args.seed, args.base_width)
        blob = net.save()
        (dirs["checkpoints"] / f"init_{view}.pbrw").write_bytes(blob)
        digests[f"init_{view}"] = checkpoint_digest(blob)
        write_train_log(logs, dirs["reports"] / f"train_init_{view}.csv")
    _write_manifest(args.run, "train-init", args, digests)
    return 0


def cmd_train_primary(args) -> int:
    dirs = _run_dirs(args.run)
    pairs = _load_pairs(args.data, args.ids, args.crop)
    dataset = [(v, m) for _, v, m in pairs]
    init_nets = {}
    if not args.teacher_forced:
        init_nets, _ = _load_init_nets(dirs["checkpoints"], args.views)
    schedule = TrainSchedule((Phase("adam", args.lr, args.epochs),),
                             args.val_fraction, args.patience, args.augment)
    net, logs = train_primary(dataset, init_nets, args.depth, schedule, args.seed,
                              teacher_forced=args.teacher_forced,
                              base_width=args.base_width)
    blob = net.save()
    path = dirs["checkpoints"] / f"primary_d{args.depth}.pbrw"
    path.write_bytes(blob)
    write_train_log(logs, dirs["reports"] / "train_primary.csv")
    _write_manifest(args.run, "train-primary", args,
                    {path.stem: checkpoint_digest(blob)})
    return 0


def _check_trained_views(run: Path, name: str, digest: str, views) -> None:
    """Refuse views other than the ones the run's train-primary manifest
    records for the checkpoint with this digest; with no such record nothing
    is checked."""
    path = Path(run) / "manifest_train_primary.json"
    manifest = json.loads(path.read_text()) if path.exists() else {}
    config = manifest.get("config", {})
    trained = set(config.get("views", ()))
    if (manifest.get("checkpoints", {}).get(name) == digest
            and not config.get("teacher_forced") and trained != set(views)):
        raise ConfigError(f"{name}.pbrw was trained on views {sorted(trained)}, "
                          f"not on {sorted(set(views))}")


def cmd_infer(args) -> int:
    dirs = _run_dirs(args.run)
    init_nets, digests = _load_init_nets(dirs["checkpoints"], args.views)
    primary_path = dirs["checkpoints"] / f"primary_d{args.depth}.pbrw"
    primary_blob = _read_checkpoint(primary_path)
    digests["primary"] = checkpoint_digest(primary_blob)
    _check_trained_views(args.run, primary_path.stem, digests["primary"], args.views)
    # train=False forwards keep no state, so every pool thread can share one net
    net = UNet.load(primary_blob)
    config = SweepConfig(args.depth, args.threshold, args.sweeps)
    pairs = _load_pairs(args.data, args.ids, args.crop)

    def run_one(item):
        vid, v, _ = item
        result = infer_pbr(init_nets, net, v, config)
        write_pvol_file(dirs["volumes"] / f"pred_{vid}.pvol", result.mask)
        write_pvol_file(dirs["volumes"] / f"prob_{vid}.pvol", result.prob)
        write_pvol_file(dirs["volumes"] / f"prob_init_{vid}.pvol", result.initial)
        write_pvol_file(dirs["volumes"] / f"pred_init_{vid}.pvol",
                        binarize(result.initial, args.threshold))
        return vid, result.timings

    # one volume per core; a lone volume runs here, its estimate on every core
    results = parallel.run(run_one, pairs)

    with open(dirs["volumes"] / "timing.jsonl", "w") as f:
        for vid, timings in sorted(results):
            for stage, seconds in timings:
                f.write(json.dumps({"volume": vid, "stage": stage,
                                    "seconds": seconds}) + "\n")
    _write_manifest(args.run, "infer", args, digests)
    return 0


def _eval_set(masks, pred_dir: Path, prefix: str):
    vol_reports, slice_reports, mm3 = [], [], {"ids": [], "pred": [], "gt": []}
    for vid, gt in masks:
        pred_path = Path(pred_dir) / f"{prefix}{vid}.pvol"
        if not pred_path.exists():
            raise DataError(f"missing prediction {pred_path}")
        pred = read_pvol_file(pred_path)
        if not isinstance(pred, MaskVolume):
            raise DataError(f"{pred_path} does not hold a binary mask")
        vol_reports.append(evaluate_volume(pred, gt, volume_id=vid))
        slice_reports.extend(evaluate_slices(pred, gt, volume_id=vid))
        mm3["ids"].append(vid)
        mm3["pred"].append(volume_mm3(pred))
        mm3["gt"].append(volume_mm3(gt))
    return vol_reports, slice_reports, mm3


def cmd_eval(args) -> int:
    dirs = _run_dirs(args.run)
    pred_dir = Path(args.pred) if args.pred else dirs["volumes"]
    masks = _load_masks(args.data, args.ids, args.crop)
    for prefix, tag in (("pred_", ""), ("pred_init_", "_init")):
        if tag and not any((pred_dir / f"{prefix}{vid}.pvol").exists() for vid, _ in masks):
            continue
        vols, slices, mm3 = _eval_set(masks, pred_dir, prefix)
        write_volume_csv(vols, dirs["reports"] / f"volumes{tag}.csv")
        write_slice_csv(slices, dirs["reports"] / f"slices{tag}.csv")
        _write_json(dirs["reports"] / f"summary{tag}.json", summarize(vols))
        _write_json(dirs["reports"] / f"volumes_mm3{tag}.json", mm3)
    _write_manifest(args.run, "eval", args, {})
    return 0


def _read_volumes_csv(path: Path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _read_slices_csv(path: Path):
    out = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            out.append(SliceReport(row["volume_id"], int(row["slice_index"]),
                                   float(row["dsc"]), int(row["gt_pixels"]),
                                   row["is_head_or_tail"] == "1"))
    return out


def cmd_report(args) -> int:
    reports = Path(args.run) / "reports"
    for name in ("volumes.csv", "slices.csv", "volumes_mm3.json"):
        if not (reports / name).exists():
            raise DataError(f"missing {reports / name}: run eval first")
    vol_rows = _read_volumes_csv(reports / "volumes.csv")
    slice_reports = _read_slices_csv(reports / "slices.csv")

    fg_slices = [r for r in slice_reports if r.gt_pixels > 0]
    _write_json(reports / "histogram.json", dsc_histogram(fg_slices))

    curve = reliability_curve([float(r["dsc"]) for r in vol_rows])
    with open(reports / "reliability.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("threshold", "fraction"))
        for t, frac in curve:
            w.writerow((f"{t:.2f}", f"{frac:.6f}"))

    with open(reports / "volumes_mm3.json") as f:
        mm3 = json.load(f)
    agreement = volume_agreement(mm3["pred"], mm3["gt"])
    _write_json(reports / "agreement.json", vars(agreement))

    small = small_target_report(slice_reports, args.area_threshold, args.head_tail_n)
    _write_json(reports / "small_targets.json", small)
    _write_manifest(args.run, "report", args, {})
    return 0


# -- parser -----------------------------------------------------------------

def build_parser() -> tuple:
    """The argument parser, plus the table a config file is checked against:
    each option's dest -> (value parser, choices, the actions that define it)."""
    options = {}

    def add(p, flag, **kw):
        action = p.add_argument(flag, **kw)
        convert = _config_bool if kw.get("action") == "store_true" else kw.get("type", str)
        options.setdefault(action.dest, (convert, kw.get("choices"), []))[2].append(action)

    parser = argparse.ArgumentParser(prog="pbrseg",
                                     description="probabilistic-map guided "
                                                 "recurrent volume segmentation")
    add(parser, "--config", type=Path, default=None,
        help="flat key=value file; command-line flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic dataset")
    add(p, "--out", type=Path, required=True)
    add(p, "--count", type=_ranged(int, 0), default=20)
    add(p, "--seed", type=int, default=0)
    add(p, "--dims", type=_dims, default=(32, 64, 64))
    add(p, "--contrast", type=float, default=90.0)
    add(p, "--noise", type=float, default=18.0)
    add(p, "--distractors", type=_ranged(int, 0), default=3)
    add(p, "--min-radius", type=float, default=1.6)
    add(p, "--max-radius", type=float, default=12.0)
    add(p, "--taper", type=int, default=6)
    p.set_defaults(func=cmd_phantom)

    def common(p):
        add(p, "--data", type=Path, required=True)
        add(p, "--run", type=Path, required=True)
        add(p, "--ids", type=_ids, default=None,
            help="volume numbers, e.g. 0-15 or 3,7,9")
        add(p, "--crop", type=_crop_hw, default=None, help="h,w")
        add(p, "--seed", type=int, default=0)

    def training(p):
        common(p)
        add(p, "--patience", type=int, default=20)
        add(p, "--val-fraction", type=_ranged(float, 0, below=1), default=0.01)
        add(p, "--augment", action="store_true")
        add(p, "--base-width", type=int, default=8)

    p = sub.add_parser("train-init", help="train per-view estimation nets")
    training(p)
    add(p, "--views", type=_views_arg, default=("axial",))
    add(p, "--sgd-epochs", type=_ranged(int, 0), default=3)
    add(p, "--adam-epochs", type=_ranged(int, 0), default=5)
    add(p, "--sgd-lr", type=float, default=5e-3)
    add(p, "--adam-lr", type=float, default=1e-4)
    p.set_defaults(func=cmd_train_init)

    p = sub.add_parser("train-primary", help="train the refinement net")
    training(p)
    add(p, "--views", type=_views_arg, default=("axial",))
    add(p, "--depth", type=int, default=1, choices=(1, 2, 3))
    add(p, "--epochs", type=_ranged(int, 0), default=6)
    add(p, "--lr", type=float, default=5e-4)
    add(p, "--teacher-forced", action="store_true")
    p.set_defaults(func=cmd_train_primary)

    p = sub.add_parser("infer", help="run refinement inference")
    common(p)
    add(p, "--views", type=_views_arg, default=("axial",))
    add(p, "--depth", type=int, default=1, choices=(1, 2, 3))
    add(p, "--threshold", type=float, default=0.5)
    add(p, "--sweeps", choices=("both", "forward"), default="both")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    common(p)
    add(p, "--pred", type=Path, default=None,
        help="directory of pred_<id>.pvol files (default run/volumes)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="histograms, reliability, agreement tables")
    add(p, "--run", type=Path, required=True)
    add(p, "--area-threshold", type=_ranged(int, 0), default=300)
    add(p, "--head-tail-n", type=_ranged(int, 1), default=3)
    p.set_defaults(func=cmd_report)
    return parser, options


def _apply_config_file(options, argv):
    """Config precedence: command line > config file > built-in defaults."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", type=Path, default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    path = Path(known.config)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    values = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r} (expected key=value)")
        key, val = line.split("=", 1)
        values[key.strip().replace("-", "_")] = val.strip()

    for key, val in values.items():
        if key not in options:
            raise ConfigError(f"unknown config key {key!r}")
        convert, choices, actions = options[key]
        try:
            value = convert(val)
        except (ValueError, argparse.ArgumentTypeError) as e:
            raise ConfigError(f"bad config value for {key}: {e}")
        if choices is not None and value not in choices:
            raise ConfigError(f"bad config value for {key}: {value!r} is not one of "
                              f"{', '.join(map(str, choices))}")
        for action in actions:  # a value from the file satisfies a required flag
            action.default, action.required = value, False


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, options = build_parser()
    try:
        _apply_config_file(options, argv)
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            return 0 if (e.code or 0) == 0 else 1
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
