"""Each output check of the benchmark passes on a correct output and fails on
a corrupted one. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parent)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pbrseg import cli, ops  # noqa: E402
from pbrseg.checkpoint import checkpoint_digest  # noqa: E402
from pbrseg.phantom import PhantomSpec, gen_phantom  # noqa: E402
from pbrseg.pvol import MaskVolume, Volume, write_pvol_file  # noqa: E402
from pbrseg.unet import UNetConfig, build_unet  # noqa: E402

VID = "phantom_000"


@pytest.fixture(scope="module")
def infer_run(tmp_path_factory):
    """A run directory whose predictions are thresholded noisy masks, scored
    by the real ``eval`` and ``report`` commands."""
    root = tmp_path_factory.mktemp("infer")
    data, run = root / "data", root / "run"
    vols = run / "volumes"
    data.mkdir()
    vols.mkdir(parents=True)
    rng = np.random.default_rng(0)
    masks = {}
    for k in range(2):  # report's agreement table needs two volumes
        vid = f"phantom_{k:03d}"
        v, m = gen_phantom(PhantomSpec(seed=3 + k, dims=(24, 32, 32), max_radius=5.0))
        write_pvol_file(data / f"{vid}.pvol", v)
        write_pvol_file(data / f"{vid}_mask.pvol", m)
        masks[vid] = m.data
        for prefix in ("", "_init"):
            prob = np.clip(0.8 * m.data + 0.1 + 0.25 * rng.standard_normal(m.dims), 0, 1)
            prob = prob.astype(np.float32)
            write_pvol_file(vols / f"prob{prefix}_{vid}.pvol", Volume(prob))
            write_pvol_file(vols / f"pred{prefix}_{vid}.pvol", MaskVolume(prob > 0.5))
    assert cli.main(["eval", "--data", str(data), "--run", str(run)]) == 0
    assert cli.main(["report", "--run", str(run)]) == 0
    return run, masks


def _copy(run, tmp_path) -> Path:
    out = tmp_path / "run"
    shutil.copytree(run, out)
    return out


def _poke(path: Path, index: int, value) -> None:
    """Overwrite one payload element of a PVOL file in place."""
    raw = bytearray(path.read_bytes())
    code = raw[8]
    dtype = np.dtype("<f4") if code == 1 else np.dtype(np.uint8)
    payload = np.frombuffer(raw, dtype, offset=checks.PVOL_HEADER.size).copy()
    payload[index] = value
    path.write_bytes(bytes(raw[:checks.PVOL_HEADER.size]) + payload.tobytes())


def test_infer_checks_pass_on_correct_output(infer_run):
    run, masks = infer_run
    assert checks.check_infer(run, masks, floor=0.5) == []


def test_flipped_voxel_fails(infer_run, tmp_path):
    run, masks = infer_run
    run = _copy(run, tmp_path)
    pred = run / "volumes" / f"pred_{VID}.pvol"
    i = int(np.argmax(checks.read_pvol(pred).reshape(-1)))
    _poke(pred, i, 0)
    problems = checks.check_infer(run, masks, floor=0.5)
    assert any("differ from prob > 0.5" in p for p in problems)
    assert any("recounted" in p for p in problems)


def test_probability_out_of_range_fails(infer_run, tmp_path):
    run, masks = infer_run
    run = _copy(run, tmp_path)
    _poke(run / "volumes" / f"prob_init_{VID}.pvol", 5, 1.5)
    assert any("not finite in [0,1]" in p for p in checks.check_infer(run, masks, floor=0.5))


def test_wrong_reported_dsc_fails(infer_run, tmp_path):
    run, masks = infer_run
    run = _copy(run, tmp_path)
    csv_path = run / "reports" / "volumes_init.csv"
    lines = csv_path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = f"{float(cells[1]) - 0.001:.6f}"
    lines[1] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    assert any("pred_init_" in p and "recounted" in p
               for p in checks.check_infer(run, masks, floor=0.5))


def test_wrong_head_tail_cohort_fails(infer_run, tmp_path):
    run, masks = infer_run
    run = _copy(run, tmp_path)
    path = run / "reports" / "small_targets.json"
    small = json.loads(path.read_text())
    small["head_tail"]["mean_dsc"] += 0.01
    path.write_text(json.dumps(small))
    assert any("head/tail DSC" in p for p in checks.check_infer(run, masks, floor=0.5))


def test_wrong_dims_and_floor_fail(infer_run, tmp_path):
    run, masks = infer_run
    assert any("below floor" in p for p in checks.check_infer(run, masks, floor=0.999))
    run = _copy(run, tmp_path)
    prob = checks.read_pvol(run / "volumes" / f"prob_{VID}.pvol")
    write_pvol_file(run / "volumes" / f"prob_{VID}.pvol", Volume(prob[1:].copy()))
    assert any("!= input" in p for p in checks.check_infer(run, masks, floor=0.5))


@pytest.fixture
def train_run(tmp_path):
    """A run directory laid out as ``train-init`` + ``train-primary`` leave it."""
    run = tmp_path / "run"
    (run / "checkpoints").mkdir(parents=True)
    (run / "reports").mkdir()
    for command, name, in_channels in (("train_init", "init_axial", 1),
                                       ("train_primary", "primary_d1", 3)):
        blob = build_unet(UNetConfig(in_channels, base_width=2), seed=in_channels).save()
        (run / "checkpoints" / f"{name}.pbrw").write_bytes(blob)
        manifest = {"config": {"base_width": 2},
                    "checkpoints": {name: checkpoint_digest(blob)}}
        (run / f"manifest_{command}.json").write_text(json.dumps(manifest))
    for log in ("train_init_axial.csv", "train_primary.csv"):
        (run / "reports" / log).write_text(
            "epoch,phase,lr,train_loss,val_dice\n0,adam,0.001,0.9,\n1,adam,0.001,0.5,\n")
    return run


def test_train_checks_pass_on_correct_output(train_run):
    assert checks.check_train(train_run, seed=0) == []


def test_altered_weight_fails(train_run):
    path = train_run / "checkpoints" / "primary_d1.pbrw"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    assert any("sha256" in p for p in checks.check_train(train_run, seed=0))


def test_missing_parameter_fails(train_run):
    net = build_unet(UNetConfig(1, base_width=2))
    del net.params["out.b"]
    blob = net.save()
    (train_run / "checkpoints" / "init_axial.pbrw").write_bytes(blob)
    manifest = {"config": {"base_width": 2}, "checkpoints": {"init_axial": checkpoint_digest(blob)}}
    (train_run / "manifest_train_init.json").write_text(json.dumps(manifest))
    assert any("init_axial.pbrw" in p for p in checks.check_train(train_run, seed=0))


@pytest.mark.parametrize("losses", [("0.5", "0.9"), ("0.9", "nan")])
def test_bad_loss_curve_fails(train_run, losses):
    (train_run / "reports" / "train_primary.csv").write_text(
        "epoch,phase,lr,train_loss,val_dice\n"
        f"0,adam,0.001,{losses[0]},\n1,adam,0.001,{losses[1]},\n")
    assert any("train_primary.csv" in p for p in checks.check_train(train_run, seed=0))


def test_wrong_backward_fails(train_run, monkeypatch):
    real = ops.conv2d_backward

    def skewed(gy, cache):
        gx, gw, gb = real(gy, cache)
        return gx, gw * 1.01, gb
    monkeypatch.setattr(ops, "conv2d_backward", skewed)
    assert any("central differences" in p for p in checks.check_train(train_run, seed=0))


def _fake_cli(rc, err):
    return lambda argv: (rc, err, 0.1)


@pytest.mark.parametrize("in_plane,rc,err,counted", [
    ((90, 72), 1, "error: input spatial dims must be divisible by 16, got 90x72", True),
    ((96, 80), 1, "error: input spatial dims must be divisible by 16, got 96x80", False),
    ((90, 72), 2, "data error: missing checkpoint", False),
    ((90, 72), 1, "error: some other configuration problem", False),
])
def test_only_the_padding_fault_counts_as_failed(tmp_path, monkeypatch, in_plane, rc, err, counted):
    wl = workloads.Infer3View(tmp_path, seed=0)
    wl.masks = {VID: np.zeros((40, *in_plane), dtype=np.uint8)}
    monkeypatch.setattr(workloads, "run_cli", _fake_cli(rc, err))
    if counted:
        assert wl._infer(VID) == (0.1, False)
    else:
        with pytest.raises(workloads.BenchmarkError):
            wl._infer(VID)


def test_tracer_spans_levels_and_restore():
    import pbrseg.hybrid
    import pbrseg.unet

    original = ops.conv2d
    original_sweep = pbrseg.hybrid.sweep
    original_forward = pbrseg.unet.UNet.__dict__["forward"]
    tracer = tracing.Tracer("test")
    restore = tracing.install(tracer)
    try:
        assert ops.conv2d is not original
        net = build_unet(UNetConfig(1, base_width=2))
        with tracer.root("round"):
            net.forward(np.zeros((1, 1, 64, 64), dtype=np.float32))
    finally:
        restore()
    assert ops.conv2d is original and pbrseg.hybrid.sweep is original_sweep
    assert pbrseg.unet.UNet.__dict__["forward"] is original_forward
    m = tracing.layer_metrics(tracer, [0], [])
    assert all(m[f"ops.conv2d.s.r{r}"] > 0 for r in tracing.LEVELS)
    # 1 x 2-wide enc1.conv1 at 64x64: 2 * 64*64 * 2 * 1 * 9 multiply-adds
    assert m["ops.conv2d.gflop"] > 2 * 64 * 64 * 2 * 9 / 1e9
    spans = tracer.spans
    fwd = next(s for s in spans if s[0] == "unet.UNet.forward")
    assert all(s[3] is not None for s in spans[1:])
    assert fwd[2] - fwd[1] <= spans[0][2] - spans[0][1]


def test_benchmark_json_names_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    produced = set(tracing.layer_metrics(tracing.Tracer("x"), [], []))
    produced |= {"trace.overhead_s", "metrics.head_tail_dsc"}
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_tracer_counts_file_bytes_and_failed_calls(tmp_path):
    import pbrseg.pvol

    tracer = tracing.Tracer("test")
    restore = tracing.install(tracer)
    path = tmp_path / "v.pvol"
    try:
        with tracer.root("round"):
            # write_pvol_file calls write_pvol: only the file-level span has bytes
            pbrseg.pvol.write_pvol_file(path, Volume(np.zeros((2, 16, 16), dtype=np.float32)))
            net = build_unet(UNetConfig(1, base_width=2))
            with pytest.raises(Exception, match="divisible by 16"):
                net.forward(np.zeros((1, 1, 18, 16), dtype=np.float32))
    finally:
        restore()
    failed = next(s for s in tracer.spans if s[0] == "unet.UNet.forward")
    assert failed[5] == {"error": "ConfigError"}
    m = tracing.layer_metrics(tracer, [0], [])
    assert m["pvol.bytes"] == path.stat().st_size
    assert m["unet.forward.ms_per_sample.b1"] == 0.0
