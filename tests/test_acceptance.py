"""Acceptance gate: one test per release criterion, each emitting a
single pass/fail line (echoed again in the terminal summary).

Oracles here are deliberately independent of the library internals:
finite differences for gradients, quadratic scans for distances, explicit
integer counting for overlaps, closed-form normal equations for the
agreement fit, and hand-rolled recounts for every report artifact.
"""

import csv
import hashlib
import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import finite_diff_grad, finite_diff_grad_at, record_criterion, rel_error
from pbrseg import ops
from pbrseg.cli import main as cli_main
from pbrseg.errors import UndefinedMetricError
from pbrseg.hybrid import SweepConfig, binarize, build_hybrid, infer_pbr, sweep
from pbrseg.metrics import dsc, hausdorff, iou, precision, recall
from pbrseg.phantom import gen_dataset
from pbrseg.preprocess import preprocess
from pbrseg.pvol import MaskVolume, ProbVolume, Volume, read_pvol_file, write_pvol_file
from pbrseg.training import Phase, TrainSchedule, train_initial, train_primary
from pbrseg.unet import UNetConfig, build_unet


# -- criterion 1: gradient suite --------------------------------------------

def test_gradient_suite():
    """Every differentiable kernel and the composed tiny net agree with
    central finite differences to <= 1e-3 relative error, in under a
    minute."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(42))
    worst = 0.0

    def proj_check(forward, backward_grads, tensors, delta=1e-3):
        """Project the op output onto fixed noise R; compare d(proj)/dx
        from the op's backward pass against finite differences."""
        nonlocal worst
        y0 = forward()
        r = np.random.default_rng(7).standard_normal(y0.shape)
        analytic = backward_grads(r)
        for arr, grad in zip(tensors, analytic):
            numeric = finite_diff_grad(lambda: float((forward() * r).sum()), arr, delta)
            worst = max(worst, rel_error(grad, numeric))

    # conv2d, stride 1 pad 1 and stride 2 pad 0
    for stride, padding in ((1, 1), (2, 0)):
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3)) * 0.5
        b = rng.standard_normal(3)

        def fwd():
            return ops.conv2d(x, w, b, stride=stride, padding=padding)[0]

        def bwd(r):
            _, cache = ops.conv2d(x, w, b, stride=stride, padding=padding)
            return ops.conv2d_backward(r, cache)

        proj_check(fwd, bwd, (x, w, b))

    # transposed conv 2x2 stride 2
    x = rng.standard_normal((2, 3, 4, 4))
    w = rng.standard_normal((3, 2, 2, 2)) * 0.5
    b = rng.standard_normal(2)
    proj_check(lambda: ops.transposed_conv2d(x, w, b)[0],
               lambda r: ops.transposed_conv2d_backward(r, (x, w)), (x, w, b))

    # maxpool (distinct entries keep the argmax stable under the probe)
    x = (np.arange(2 * 2 * 4 * 4, dtype=np.float64).reshape(2, 2, 4, 4) * 0.37) % 5.0

    def pool_bwd(r):
        _, idx = ops.maxpool2x2(x)
        return (ops.maxpool2x2_backward(r, idx, x.shape),)

    proj_check(lambda: ops.maxpool2x2(x)[0], pool_bwd, (x,))

    # activations (relu probed away from its kink)
    x = rng.standard_normal((2, 3, 4, 4))
    x = np.where(np.abs(x) < 0.05, 0.5, x)
    for kind in ("relu", "sigmoid"):
        proj_check(lambda: ops.activation(x, kind)[0],
                   lambda r: (ops.activation_backward(r, ops.activation(x, kind)[1]),),
                   (x,))

    # dice loss (scalar output, no projection needed)
    pred = rng.uniform(0.05, 0.95, size=(1, 1, 6, 6))
    target = (rng.uniform(size=(1, 1, 6, 6)) > 0.6).astype(np.float64)
    _, grad = ops.dice_loss_grad(pred, target)
    numeric = finite_diff_grad(lambda: ops.dice_loss(pred, target), pred, 1e-3)
    worst = max(worst, rel_error(grad, numeric))

    # end-to-end tiny net: F=2 on a 16x16 input, float64, sampled coords
    net = build_unet(UNetConfig(in_channels=1, base_width=2), seed=11, dtype=np.float64)
    x = rng.standard_normal((1, 1, 16, 16))
    target = (rng.uniform(size=(1, 1, 16, 16)) > 0.7).astype(np.float64)

    def loss():
        return ops.dice_loss(net.forward(x), target)

    y = net.forward(x, train=True)
    _, gy = ops.dice_loss_grad(y, target)
    grads, gx = net.backward(gy)
    coord_rng = np.random.default_rng(99)
    for name in sorted(net.params):
        p = net.params[name]
        coords = coord_rng.choice(p.size, size=min(4, p.size), replace=False)
        numeric = finite_diff_grad_at(loss, p, coords, delta=1e-5)
        worst = max(worst, rel_error(grads[name].reshape(-1)[coords], numeric))
    coords = coord_rng.choice(x.size, size=6, replace=False)
    numeric = finite_diff_grad_at(loss, x, coords, delta=1e-5)
    worst = max(worst, rel_error(gx.reshape(-1)[coords], numeric))

    elapsed = time.perf_counter() - t0
    record_criterion(
        "gradient-suite", worst <= 1e-3 and elapsed < 60.0,
        f"max relative error {worst:.2e} (bar 1e-3), {elapsed:.1f}s (bar 60s)")


# -- criterion 2: metric oracle suite ---------------------------------------

def _brute_counts(a, b):
    """Integer overlap counts by explicit iteration."""
    inter = na = nb = 0
    for u, v in zip(a.reshape(-1), b.reshape(-1)):
        u, v = bool(u), bool(v)
        inter += u and v
        na += u
        nb += v
    return inter, na, nb


def _brute_hd(a, b, spacing):
    pa = np.argwhere(a) * np.asarray(spacing)
    pb = np.argwhere(b) * np.asarray(spacing)
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1))
    return max(d.min(axis=1).max(), d.min(axis=0).max()), d.min(axis=1).max()


def test_metric_oracle_suite():
    """Overlap and distance metrics vs brute-force references on >= 1000
    random mask pairs up to 8x8x8."""
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    full = 0
    checked = 0
    identity_ok = True
    while full < 1000:
        dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
        p = rng.uniform(0.1, 0.6)
        spacing = (1.0, 1.0, 1.0) if checked % 3 else (2.0, 0.7, 0.7)
        a = (rng.uniform(size=dims) < p).astype(np.uint8)
        b = (rng.uniform(size=dims) < p).astype(np.uint8)
        if checked % 97 == 0:
            a[:] = 0  # force the empty conventions into the sample
        ma, mb = MaskVolume(a, spacing), MaskVolume(b, spacing)
        checked += 1

        inter, na, nb = _brute_counts(a, b)
        if na + nb:
            assert dsc(ma, mb) == 2.0 * inter / (na + nb)
        else:
            assert dsc(ma, mb) == 1.0
        union = na + nb - inter
        if union:
            assert iou(ma, mb) == inter / union
        else:
            assert iou(ma, mb) == 1.0
        if nb:
            assert recall(ma, mb) == inter / nb
        if na:
            assert precision(ma, mb) == inter / na
        j = iou(ma, mb)
        identity_ok &= abs(dsc(ma, mb) - 2.0 * j / (1.0 + j)) < 1e-12

        if na and nb:
            # the oracle scales by the stored spacing, which is float32
            sym, directed = _brute_hd(a, b, ma.spacing)
            assert abs(hausdorff(ma, mb) - sym) < 1e-9
            assert abs(hausdorff(ma, mb, mode="directed") - directed) < 1e-9
            full += 1
        else:
            with pytest.raises(UndefinedMetricError):
                hausdorff(ma, mb)

    record_criterion(
        "metric-oracle-suite", full >= 1000 and identity_ok,
        f"{full} fully-compared pairs ({checked} total), distances within 1e-9, "
        f"dsc = 2*iou/(1+iou) on all pairs")


# -- criterion 3: pipeline invariants ---------------------------------------

def test_pipeline_invariants():
    rng = np.random.default_rng(np.random.SeedSequence(5))
    ok = True

    # channel counts for each guidance depth
    v = Volume(rng.standard_normal((4, 8, 8)).astype(np.float32))
    p = ProbVolume(rng.uniform(size=(4, 8, 8)).astype(np.float32))
    for d, want in ((1, 3), (2, 5), (3, 7)):
        st = build_hybrid(v, p, d)
        ok &= st.channels == want
        ok &= st.sample(2).shape == (want, 8, 8)

    # border duplication on a single-slice volume: every neighbor channel
    # is the lone slice's own map
    v1 = Volume(rng.standard_normal((1, 8, 8)).astype(np.float32))
    p1 = ProbVolume(rng.uniform(size=(1, 8, 8)).astype(np.float32))
    for d in (1, 2, 3):
        s = build_hybrid(v1, p1, d).sample(0)
        for c in range(2 * d + 1):
            if c != d:
                ok &= bool(np.array_equal(s[c], p1.data[0]))

    # border duplication on a two-slice volume, hand-enumerated for d=2
    v2 = Volume(rng.standard_normal((2, 8, 8)).astype(np.float32))
    p2 = ProbVolume(rng.uniform(size=(2, 8, 8)).astype(np.float32))
    st2 = build_hybrid(v2, p2, 2)
    s0, s1 = st2.sample(0), st2.sample(1)
    ok &= bool(np.array_equal(s0[0], p2.data[0])) and bool(np.array_equal(s0[1], p2.data[0]))
    ok &= bool(np.array_equal(s0[3], p2.data[1])) and bool(np.array_equal(s0[4], p2.data[1]))
    ok &= bool(np.array_equal(s1[0], p2.data[0])) and bool(np.array_equal(s1[1], p2.data[0]))
    ok &= bool(np.array_equal(s1[3], p2.data[1])) and bool(np.array_equal(s1[4], p2.data[1]))

    # probabilities stay in [0,1] through both sweeps of a real network,
    # from all-zero, all-one, and random starting maps
    net = build_unet(UNetConfig(in_channels=3, base_width=2), seed=1)
    img = Volume(rng.standard_normal((4, 16, 16)).astype(np.float32))
    for start in (np.zeros((4, 16, 16)), np.ones((4, 16, 16)),
                  rng.uniform(size=(4, 16, 16))):
        st = build_hybrid(img, ProbVolume(start.astype(np.float32)), 1)
        sweep(net, st, "forward")
        out = sweep(net, st, "backward")
        ok &= 0.0 <= float(out.data.min()) and float(out.data.max()) <= 1.0

    # binarization tie rule: probability exactly at the threshold stays
    # background under the strict rule
    probe = ProbVolume(np.array([[[0.5 - 1e-7, 0.5, 0.5 + 1e-7]]], dtype=np.float32))
    ok &= list(binarize(probe, 0.5).data.reshape(-1)) == [0, 0, 1]

    # in-plane sizes that are not multiples of 16: real nets on all three
    # views infer maps of the input dims, and the refinement net trains
    v3, m3 = gen_dataset(1, base_seed=3, dims=(20, 50, 60), taper=4)[0]
    v3 = preprocess(v3)
    views = {view: build_unet(UNetConfig(in_channels=1, base_width=2), seed=i)
             for i, view in enumerate(("axial", "coronal", "sagittal"))}
    res = infer_pbr(views, build_unet(UNetConfig(in_channels=5, base_width=2), seed=3),
                    v3, SweepConfig(depth=2))
    ok &= res.initial.dims == res.prob.dims == res.mask.dims == (20, 50, 60)
    one_epoch = TrainSchedule((Phase("adam", 1e-3, 1),), val_fraction=0.0)
    net3, logs3 = train_primary([(v3, m3)], views, 1, one_epoch, seed=0, base_width=2)
    ok &= net3.in_channels == 3 and len(logs3) == 1 and np.isfinite(logs3[0].train_loss)

    record_criterion(
        "pipeline-invariants", ok,
        "channels 3/5/7 for d=1/2/3; border clamping on m=1 and m=2; "
        "probabilities in [0,1] after both sweeps; tie at threshold -> background; "
        "infer and train on 20x50x60")


# -- criterion 4: sequential-dependence witness ------------------------------

def test_sequential_dependence_witness():
    """The forward sweep must propagate each slice's fresh update into the
    next slice's sample: a run with propagation matches a sequential
    hand-simulation bit for bit and provably differs from a run where
    every slice only sees the original map."""
    rng = np.random.default_rng(np.random.SeedSequence(31))
    m = 5
    p0 = rng.uniform(size=(m, 6, 6)).astype(np.float32)
    v = Volume(rng.standard_normal((m, 6, 6)).astype(np.float32))

    def stub(sample):
        return sample[0]  # predict the left-neighbor probability channel

    st = build_hybrid(v, ProbVolume(p0.copy()), 1)
    swept = sweep(stub, st, "forward").data

    seq = p0.copy()
    for t in range(m):
        left = seq[max(t - 1, 0)]
        seq[t] = np.float32(0.5) * (seq[t] + left)

    frozen = p0.copy()
    out_frozen = np.empty_like(p0)
    for t in range(m):
        out_frozen[t] = np.float32(0.5) * (frozen[t] + frozen[max(t - 1, 0)])

    matches_sequential = bool(np.array_equal(swept, seq))
    differs_from_frozen = not np.array_equal(swept, out_frozen)
    # the two runs agree on slices 0 and 1 and split from slice 2 on,
    # exactly where the first propagated update can reach
    first_diff = next(t for t in range(m)
                      if not np.array_equal(swept[t], out_frozen[t]))
    record_criterion(
        "sequential-dependence-witness",
        matches_sequential and differs_from_frozen and first_diff == 2,
        "sweep output equals sequential simulation bit-for-bit and diverges "
        f"from the no-propagation run at slice {first_diff}")


# -- criteria 5, 6, 8 share one desk-scale run ------------------------------

@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """20 seeded phantoms; nets trained on 16, CLI inference, evaluation
    and reporting on the 4 held-out volumes."""
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("desk")
    data_dir, run_dir = root / "data", root / "run"
    data_dir.mkdir()
    (run_dir / "checkpoints").mkdir(parents=True)

    raw = gen_dataset(20, base_seed=0)
    for i, (v, m) in enumerate(raw):
        write_pvol_file(data_dir / f"phantom_{i:03d}.pvol", v)
        write_pvol_file(data_dir / f"phantom_{i:03d}_mask.pvol", m)
    train = [(preprocess(v), m) for v, m in raw[:16]]

    init_schedule = TrainSchedule((Phase("sgd", 5e-3, 3), Phase("adam", 1e-4, 5)))
    primary_schedule = TrainSchedule((Phase("adam", 5e-4, 6),))
    net_ax, _ = train_initial(train, "axial", init_schedule, seed=7)
    net_pr, _ = train_primary(train, {"axial": net_ax}, 1, primary_schedule, seed=7)
    (run_dir / "checkpoints" / "init_axial.pbrw").write_bytes(net_ax.save())
    (run_dir / "checkpoints" / "primary_d1.pbrw").write_bytes(net_pr.save())

    common = ["--data", str(data_dir), "--run", str(run_dir), "--ids", "16-19"]
    assert cli_main(["infer", *common]) == 0
    assert cli_main(["eval", *common]) == 0
    assert cli_main(["report", "--run", str(run_dir)]) == 0

    return SimpleNamespace(
        data=data_dir, run=run_dir,
        init_schedule=init_schedule, primary_schedule=primary_schedule,
        seconds=time.perf_counter() - t0)


def _csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_desk_scale_end_to_end(desk_run):
    """Held-out refinement quality against the absolute bar and against
    the initial estimate, within the epoch and wall-clock budgets."""
    sgd_ep, adam_ep = (p.epochs for p in desk_run.init_schedule.phases)
    primary_ep = desk_run.primary_schedule.phases[0].epochs
    budget_ok = sgd_ep <= 30 and adam_ep <= 40 and primary_ep <= 50

    refined = [float(r["dsc"]) for r in _csv_rows(desk_run.run / "reports" / "volumes.csv")]
    init = [float(r["dsc"]) for r in _csv_rows(desk_run.run / "reports" / "volumes_init.csv")]
    refined_mean, init_mean = float(np.mean(refined)), float(np.mean(init))

    record_criterion(
        "desk-scale-end-to-end",
        budget_ok and len(refined) == 4 and refined_mean >= 0.80
        and refined_mean >= init_mean and desk_run.seconds <= 1800.0,
        f"held-out refined mean DSC {refined_mean:.4f} (bar 0.80), initial mean "
        f"DSC {init_mean:.4f}; epochs {sgd_ep}+{adam_ep} and {primary_ep} within "
        f"30+40 / 50; {desk_run.seconds:.0f}s of 1800s")


def test_reporting_fidelity(desk_run):
    """Every report artifact re-derived from the persisted predictions."""
    reports = desk_run.run / "reports"
    ok = True

    # per-slice dice recount straight from the masks
    slice_rows = _csv_rows(reports / "slices.csv")
    by_key = {(r["volume_id"], int(r["slice_index"])): r for r in slice_rows}
    for i in range(16, 20):
        vid = f"phantom_{i:03d}"
        pred = read_pvol_file(desk_run.run / "volumes" / f"pred_{vid}.pvol").data
        gt = read_pvol_file(desk_run.data / f"{vid}_mask.pvol").data
        for t in range(gt.shape[0]):
            p, g = pred[t].astype(bool), gt[t].astype(bool)
            tot = int(p.sum()) + int(g.sum())
            want = 1.0 if tot == 0 else 2.0 * int((p & g).sum()) / tot
            row = by_key[(vid, t)]
            ok &= abs(float(row["dsc"]) - want) < 5e-7
            ok &= int(row["gt_pixels"]) == int(g.sum())

    # histogram: counts partition the foreground slices
    hist = json.loads((reports / "histogram.json").read_text())
    fg_rows = [r for r in slice_rows if int(r["gt_pixels"]) > 0]
    edges = [tuple(e) for e in hist["edges"]]
    recount = [0] * len(edges)
    for r in fg_rows:
        val = float(r["dsc"])
        for j, (lo, hi) in enumerate(edges):
            if lo <= val < hi or (j == len(edges) - 1 and val == hi):
                recount[j] += 1
                break
    ok &= hist["counts"] == recount
    ok &= sum(hist["counts"]) == hist["total"] == len(fg_rows)

    # reliability: recount on the same grid, monotone non-increasing
    vol_dscs = [float(r["dsc"]) for r in _csv_rows(reports / "volumes.csv")]
    rel_rows = _csv_rows(reports / "reliability.csv")
    ok &= len(rel_rows) == 101
    prev = 1.0
    for r in rel_rows:
        t, frac = float(r["threshold"]), float(r["fraction"])
        want = sum(1 for d in vol_dscs if d >= t) / len(vol_dscs)
        ok &= abs(frac - want) < 1e-6
        ok &= frac <= prev + 1e-12
        prev = frac

    # the persisted voxel volumes match the masks they were derived from
    mm3 = json.loads((reports / "volumes_mm3.json").read_text())
    ok &= mm3["ids"] == [f"phantom_{i:03d}" for i in range(16, 20)]
    for vid, pv, gv in zip(mm3["ids"], mm3["pred"], mm3["gt"]):
        pred = read_pvol_file(desk_run.run / "volumes" / f"pred_{vid}.pvol")
        gt = read_pvol_file(desk_run.data / f"{vid}_mask.pvol")
        ok &= abs(pv - int(pred.data.sum()) * float(np.prod(pred.spacing))) < 1e-6 * max(pv, 1.0)
        ok &= abs(gv - int(gt.data.sum()) * float(np.prod(gt.spacing))) < 1e-6 * max(gv, 1.0)

    # agreement fit vs closed-form normal equations on those volumes
    x = np.asarray(mm3["gt"], dtype=np.float64)
    y = np.asarray(mm3["pred"], dtype=np.float64)
    xc, yc = x - x.mean(), y - y.mean()
    slope = (xc * yc).sum() / (xc * xc).sum()
    intercept = y.mean() - slope * x.mean()
    agree = json.loads((reports / "agreement.json").read_text())
    ok &= abs(agree["slope"] - slope) < 1e-9
    ok &= abs(agree["intercept"] - intercept) < 1e-9
    ok &= abs(agree["r"] - (xc * yc).sum() / np.sqrt((xc * xc).sum() * (yc * yc).sum())) < 1e-9
    diffs = y - x
    sd = np.sqrt((diffs - diffs.mean()) @ (diffs - diffs.mean()) / (diffs.size - 1))
    ok &= abs(agree["ba_mean"] - diffs.mean()) < 1e-9
    ok &= abs(agree["ba_lo"] - (diffs.mean() - 1.96 * sd)) < 1e-9
    ok &= abs(agree["ba_hi"] - (diffs.mean() + 1.96 * sd)) < 1e-9
    ok &= agree["n"] == 4

    # small-target cohorts vs an independent recount
    small = json.loads((reports / "small_targets.json").read_text())
    by_vol = {}
    for r in slice_rows:
        by_vol.setdefault(r["volume_id"], []).append(r)
    head_tail = []
    for rows in by_vol.values():
        fg = sorted((r for r in rows if int(r["gt_pixels"]) > 0),
                    key=lambda r: int(r["slice_index"]))
        picked = {int(r["slice_index"]): r for r in fg[:3] + fg[-3:]}
        head_tail.extend(picked.values())
    small_rows = [r for r in slice_rows if 0 < int(r["gt_pixels"]) <= 300]
    ok &= small["head_tail"]["count"] == len(head_tail)
    ok &= small["small"]["count"] == len(small_rows)
    ok &= small["small"]["failed"] == sum(1 for r in small_rows if float(r["dsc"]) == 0.0)
    if small_rows:
        want_mean = float(np.mean([float(r["dsc"]) for r in small_rows]))
        ok &= abs(small["small"]["mean_dsc"] - want_mean) < 1e-9

    record_criterion(
        "reporting-fidelity", ok,
        "histogram partitions slices; reliability monotone and recounted; "
        "agreement matches normal equations within 1e-9; small-target "
        "cohorts match the recount")


def test_timing_harness(desk_run):
    entries = [json.loads(line) for line in
               (desk_run.run / "volumes" / "timing.jsonl").read_text().splitlines()]
    per_volume = {}
    for e in entries:
        per_volume.setdefault(e["volume"], []).append((e["stage"], e["seconds"]))
    want_stages = ["estimate", "hybrid", "forward", "backward", "binarize"]
    vols_ok = sorted(per_volume) == [f"phantom_{i:03d}" for i in range(16, 20)]
    stages_ok = all([s for s, _ in v] == want_stages for v in per_volume.values())
    seconds_ok = all(t >= 0.0 for v in per_volume.values() for _, t in v)
    record_criterion(
        "timing-harness", vols_ok and stages_ok and seconds_ok,
        f"per-volume wall-clock for stages {'/'.join(want_stages)} on "
        f"{len(per_volume)} held-out volumes")


# -- criterion 7: determinism ------------------------------------------------

def _digest_tree(root: Path) -> dict:
    """Relative path -> sha256 for every artifact, timing log excluded:
    it is the one file that intentionally records wall-clock."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "timing.jsonl":
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_determinism(tmp_path_factory, monkeypatch):
    """The same seeds must reproduce the whole pipeline bit for bit:
    phantoms, checkpoints, predicted masks and maps, and all reports."""
    digests = []
    for tag in ("a", "b"):
        root = tmp_path_factory.mktemp(f"det_{tag}")
        monkeypatch.chdir(root)  # keep manifest paths relative, hence comparable
        assert cli_main(["phantom", "--out", "data", "--count", "3",
                         "--dims", "22,48,48", "--seed", "2"]) == 0
        common = ["--data", "data", "--run", "run"]
        assert cli_main(["train-init", *common, "--seed", "1", "--ids", "0-1",
                         "--base-width", "4", "--sgd-epochs", "2", "--adam-epochs", "2",
                         "--val-fraction", "0.1"]) == 0
        assert cli_main(["train-primary", *common, "--seed", "1", "--ids", "0-1",
                         "--base-width", "4", "--epochs", "3", "--val-fraction", "0.1"]) == 0
        assert cli_main(["infer", *common, "--ids", "1-2"]) == 0
        assert cli_main(["eval", *common, "--ids", "1-2"]) == 0
        assert cli_main(["report", "--run", "run"]) == 0
        digests.append(_digest_tree(root))

    same = digests[0] == digests[1]
    n_files = len(digests[0])
    has_all = any(k.startswith("run/checkpoints") for k in digests[0]) and \
        any(k.startswith("run/volumes") for k in digests[0]) and \
        any(k.startswith("run/reports") for k in digests[0])
    record_criterion(
        "determinism", same and has_all and n_files > 20,
        f"two full pipeline runs, {n_files} artifacts each, bit-identical "
        "(wall-clock log excluded by design)")
