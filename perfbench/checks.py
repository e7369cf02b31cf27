"""Output checks that compute their answer apart from the program.

Predictions are read with a PVOL parser of the benchmark's own and scored
with plain numpy against the phantom masks the benchmark generated; the
program's reports must agree with those recounts. Each check returns a list
of problems, empty when the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

PVOL_HEADER = struct.Struct("<4sIB3I3f")
CSV_TOL = 1e-6  # reports print six decimals
FD_DELTA = 1e-6
FD_RTOL = 1e-3


def read_pvol(path) -> np.ndarray:
    """Payload of a PVOL file: float32 for dtype 1, uint8 for dtype 2."""
    raw = Path(path).read_bytes()
    magic, _, code, m, h, w, _, _, _ = PVOL_HEADER.unpack_from(raw)
    if magic != b"PVOL" or code not in (1, 2):
        raise ValueError(f"{path}: not a PVOL file")
    dtype = np.dtype("<f4") if code == 1 else np.dtype(np.uint8)
    return np.frombuffer(raw, dtype, offset=PVOL_HEADER.size).reshape(m, h, w)


def dice(a: np.ndarray, b: np.ndarray) -> float:
    a, b = a.astype(bool), b.astype(bool)
    total = int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * int((a & b).sum()) / total


def head_tail_slices(mask: np.ndarray, n: int = 3) -> list:
    """First and last n foreground slices of a mask, each once."""
    fg = [t for t in range(mask.shape[0]) if mask[t].any()]
    return sorted(set(fg[:n]) | set(fg[-n:]))


def _csv_dsc(path) -> dict:
    with open(path, newline="") as f:
        return {row["volume_id"]: float(row["dsc"]) for row in csv.DictReader(f)}


def check_infer(run: Path, masks: dict, floor: float) -> list:
    """``masks`` maps each volume id that ``infer`` succeeded on to its
    reference mask."""
    problems = []
    vol_dir, reports = run / "volumes", run / "reports"
    csv_dsc = {"pred_": _csv_dsc(reports / "volumes.csv"),
               "pred_init_": _csv_dsc(reports / "volumes_init.csv")}
    refined, ht_scores = [], []
    for vid, gt in masks.items():
        for pred_prefix, prob_prefix in (("pred_", "prob_"), ("pred_init_", "prob_init_")):
            pred = read_pvol(vol_dir / f"{pred_prefix}{vid}.pvol")
            prob = read_pvol(vol_dir / f"{prob_prefix}{vid}.pvol")
            if pred.shape != gt.shape or prob.shape != gt.shape:
                problems.append(f"{vid}: output dims {pred.shape}/{prob.shape} != input {gt.shape}")
                continue
            if not (np.isfinite(prob).all() and prob.min() >= 0.0 and prob.max() <= 1.0):
                problems.append(f"{prob_prefix}{vid}: probabilities not finite in [0,1]")
            wrong = int(np.count_nonzero(pred != (prob > 0.5)))
            if wrong:
                problems.append(f"{pred_prefix}{vid}: {wrong} voxels differ from prob > 0.5")
            score = dice(pred, gt)
            reported = csv_dsc[pred_prefix].get(vid)
            if reported is None or abs(reported - score) > CSV_TOL:
                problems.append(f"{pred_prefix}{vid}: DSC {score:.6f} recounted, "
                                f"{reported} reported")
            if pred_prefix == "pred_":
                refined.append(score)
                ht_scores += [dice(pred[t], gt[t]) for t in head_tail_slices(gt)]
    extra = set(csv_dsc["pred_"]) - set(masks)
    if extra:
        problems.append(f"volumes.csv scores volumes that were not inferred: {sorted(extra)}")
    small = json.loads((reports / "small_targets.json").read_text())["head_tail"]
    if small["count"] != len(ht_scores):
        problems.append(f"head/tail cohort has {small['count']} slices, recount {len(ht_scores)}")
    elif ht_scores and abs(small["mean_dsc"] - float(np.mean(ht_scores))) > CSV_TOL:
        problems.append(f"head/tail DSC {small['mean_dsc']:.6f} reported, "
                        f"{np.mean(ht_scores):.6f} recounted")
    if refined and float(np.mean(refined)) < floor:
        problems.append(f"refined DSC {np.mean(refined):.4f} below floor {floor}")
    return problems


def _losses(path) -> list:
    with open(path, newline="") as f:
        return [float(row["train_loss"]) for row in csv.DictReader(f)]


def expected_shapes(in_channels: int, base_width: int) -> dict:
    """Parameter names and shapes implied by ``architecture_specs``."""
    from pbrseg.unet import UNetConfig, architecture_specs

    shapes = {}
    for name, spec in architecture_specs(UNetConfig(in_channels, base_width=base_width)):
        k = spec.kernel
        if spec.kind == "conv":
            shapes[f"{name}.w"] = (spec.out_channels, spec.in_channels, k, k)
        elif spec.kind == "transposed-conv":
            shapes[f"{name}.w"] = (spec.in_channels, spec.out_channels, k, k)
        else:
            continue
        shapes[f"{name}.b"] = (spec.out_channels,)
    return shapes


def check_checkpoint(path: Path, digest: str, in_channels: int, base_width: int) -> list:
    from pbrseg.errors import PbrsegError
    from pbrseg.unet import UNet

    blob = path.read_bytes()
    problems = []
    if hashlib.sha256(blob).hexdigest() != digest:
        problems.append(f"{path.name}: sha256 differs from the manifest digest")
    try:
        net = UNet.load(blob)
    except PbrsegError as e:
        return problems + [f"{path.name}: does not load ({e})"]
    got = {k: tuple(v.shape) for k, v in net.params.items()}
    if got != expected_shapes(in_channels, base_width):
        problems.append(f"{path.name}: parameter names/shapes differ from the architecture")
    return problems


def gradient_check(net, seed: int, coords_per_param: int = 3) -> list:
    """Central differences of sum(r * net(x)) in float64 against
    ``UNet.backward`` at a few coordinates of a few parameters."""
    params = {k: v.astype(np.float64) for k, v in net.params.items()}
    net.params = params
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, net.in_channels, 16, 16))
    r = rng.standard_normal((1, 1, 16, 16))

    def loss():
        return float((net.forward(x) * r).sum())

    net.forward(x, train=True)
    grads, _ = net.backward(r)
    analytic, numeric = [], []
    for name in ("enc1.conv1.w", "mid.conv2.w", "dec1.up.w", "dec1.conv2.b", "out.w"):
        flat = params[name].reshape(-1)
        for i in rng.choice(flat.size, size=min(coords_per_param, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + FD_DELTA
            hi = loss()
            flat[i] = orig - FD_DELTA
            lo = loss()
            flat[i] = orig
            numeric.append((hi - lo) / (2 * FD_DELTA))
            analytic.append(float(grads[name].reshape(-1)[i]))
    a, n = np.asarray(analytic), np.asarray(numeric)
    err = np.linalg.norm(a - n) / max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
    return [] if err <= FD_RTOL else [f"backward disagrees with central differences: "
                                      f"relative error {err:.2e}"]


def check_train(run: Path, seed: int) -> list:
    from pbrseg.unet import UNet

    problems = []
    for log in ("train_init_axial.csv", "train_primary.csv"):
        losses = _losses(run / "reports" / log)
        if not all(math.isfinite(x) for x in losses):
            problems.append(f"{log}: non-finite loss")
        elif len(losses) < 2 or not losses[-1] < losses[0]:
            problems.append(f"{log}: last epoch loss {losses[-1:]} not below first {losses[:1]}")
    ckpts = run / "checkpoints"
    for manifest, name, in_channels in (("train_init", "init_axial", 1),
                                        ("train_primary", "primary_d1", 3)):
        m = json.loads((run / f"manifest_{manifest}.json").read_text())
        problems += check_checkpoint(ckpts / f"{name}.pbrw", m["checkpoints"].get(name, ""),
                                     in_channels, m["config"]["base_width"])
    if not problems:
        net = UNet.load((ckpts / "primary_d1.pbrw").read_bytes())
        problems += gradient_check(net, seed)
    return problems
