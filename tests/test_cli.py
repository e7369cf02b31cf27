"""Command-line interface: exit codes, config precedence, manifests, and
an end-to-end pipeline smoke on tiny phantoms."""

import argparse
import csv
import hashlib
import json
import shutil
import threading

import numpy as np
import pytest

from pbrseg import cli, parallel
from pbrseg.cli import _ids, main
from pbrseg.metrics import (dsc_histogram, evaluate_slices, reliability_curve,
                            small_target_report, volume_agreement, volume_mm3)
from pbrseg.phantom import PhantomSpec, gen_phantom
from pbrseg.preprocess import crop
from pbrseg.pvol import MaskVolume, read_pvol_file, write_pvol_file
from pbrseg.unet import UNetConfig, build_unet


def _untrained_run(tmp_path, dims=(22, 48, 48)):
    """One phantom plus untrained init_axial and primary_d1 checkpoints."""
    data, run = tmp_path / "data", tmp_path / "run"
    data.mkdir()
    (run / "checkpoints").mkdir(parents=True)
    v, m = gen_phantom(PhantomSpec(seed=0, dims=dims))
    write_pvol_file(data / "phantom_000.pvol", v)
    write_pvol_file(data / "phantom_000_mask.pvol", m)
    (run / "checkpoints" / "init_axial.pbrw").write_bytes(
        build_unet(UNetConfig(1, base_width=2)).save())
    (run / "checkpoints" / "primary_d1.pbrw").write_bytes(
        build_unet(UNetConfig(3, base_width=2)).save())
    return data, run


class TestExitCodes:
    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "phantom" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["phantom", "--out", str(tmp_path), "--bogus"]) == 1
        data, run = _untrained_run(tmp_path)
        for flags in (["--workers", "2"], ["--inclusive"]):
            assert main(["infer", "--data", str(data), "--run", str(run), *flags]) == 1
            assert flags[0] in capsys.readouterr().err
        assert not (run / "volumes" / "pred_phantom_000.pvol").exists()

    def test_bad_dims_string(self, tmp_path, capsys):
        assert main(["phantom", "--out", str(tmp_path), "--dims", "4x4"]) == 1

    def test_missing_data_dir(self, tmp_path, capsys):
        code = main(["train-init", "--data", str(tmp_path / "nope"),
                     "--run", str(tmp_path / "run")])
        assert code == 2

    def test_missing_checkpoints(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        v, m = gen_phantom(PhantomSpec(seed=0, dims=(22, 48, 48)))
        write_pvol_file(data / "phantom_000.pvol", v)
        write_pvol_file(data / "phantom_000_mask.pvol", m)
        code = main(["infer", "--data", str(data), "--run", str(tmp_path / "run")])
        assert code == 2

    def test_missing_view_checkpoint(self, tmp_path, capsys):
        data, run = _untrained_run(tmp_path)
        code = main(["infer", "--data", str(data), "--run", str(run), "--views", "all"])
        assert code == 2
        assert "init_coronal.pbrw" in capsys.readouterr().err
        assert not (run / "volumes" / "pred_phantom_000.pvol").exists()

    def test_inverted_id_range(self, tmp_path, capsys):
        with pytest.raises(argparse.ArgumentTypeError):
            _ids("3-1")
        assert main(["infer", "--data", str(tmp_path), "--run", str(tmp_path / "run"),
                     "--ids", "3-1"]) == 1

    def test_out_of_range_numbers(self, tmp_path, capsys, fabricated_run):
        data, run = _untrained_run(tmp_path)
        where = ["--data", str(data), "--run", str(run)]
        no_epochs = ["--base-width", "2", "--sgd-epochs", "0", "--adam-epochs", "0"]
        for argv in (["train-init", *no_epochs, "--val-fraction", "-0.5"],
                     ["train-init", "--base-width", "2", "--adam-epochs", "0",
                      "--sgd-epochs", "-1"],
                     ["train-primary", "--base-width", "2", "--epochs", "-2"]):
            assert main([*argv, *where]) == 1, argv
            assert argv[-2] in capsys.readouterr().err
        assert not (run / "volumes" / "pred_phantom_000.pvol").exists()
        out = ["--out", str(tmp_path / "phantoms")]
        scored = ["--run", str(fabricated_run[1])]
        for argv in (["phantom", *out, "--count", "-2"],
                     ["phantom", *out, "--count", "1", "--distractors", "-1"],
                     ["report", *scored, "--head-tail-n", "0"],
                     ["report", *scored, "--head-tail-n", "-1"],
                     ["report", *scored, "--area-threshold", "-1"]):
            assert main(argv) == 1, argv
            assert argv[-2] in capsys.readouterr().err
        assert main(["phantom", *out, "--count", "1", "--noise", "-1"]) == 1
        assert "noise_std" in capsys.readouterr().err
        assert not list(tmp_path.glob("phantoms/*"))

    def test_report_before_eval(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        assert main(["report", "--run", str(run)]) == 2
        assert "volumes.csv: run eval first" in capsys.readouterr().err
        assert list(run.iterdir()) == []
        (run / "reports").mkdir()
        for name in ("volumes.csv", "slices.csv", "volumes_mm3.json"):
            assert main(["report", "--run", str(run)]) == 2
            assert f"{name}: run eval first" in capsys.readouterr().err
            (run / "reports" / name).write_text("")
        assert sorted(p.name for p in run.rglob("*")) == [
            "reports", "slices.csv", "volumes.csv", "volumes_mm3.json"]

    def test_views_differ_from_training(self, tmp_path, capsys):
        data, run = _untrained_run(tmp_path)
        for view in ("coronal", "sagittal"):
            (run / "checkpoints" / f"init_{view}.pbrw").write_bytes(
                build_unet(UNetConfig(1, base_width=2)).save())
        where = ["--data", str(data), "--run", str(run)]
        assert main(["train-primary", *where, "--views", "all", "--base-width", "2",
                     "--epochs", "0"]) == 0
        assert main(["infer", *where, "--views", "axial"]) == 1
        err = capsys.readouterr().err
        assert "['axial', 'coronal', 'sagittal']" in err and "not on ['axial']" in err
        assert not (run / "volumes" / "pred_phantom_000.pvol").exists()
        assert main(["infer", *where, "--views", "sagittal,axial,coronal"]) == 0
        # a checkpoint the manifest does not record is not checked
        (run / "checkpoints" / "primary_d1.pbrw").write_bytes(
            build_unet(UNetConfig(3, base_width=2), seed=1).save())
        assert main(["infer", *where, "--views", "axial"]) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "none.cfg"),
                     "phantom", "--out", str(tmp_path)]) == 1


class TestConfigFile:
    def test_defaults_then_file_then_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count=2\nnoise=0.0\n")
        out1 = tmp_path / "a"
        assert main(["--config", str(cfg), "phantom", "--out", str(out1)]) == 0
        assert len(list(out1.glob("phantom_*.pvol"))) == 4  # 2 volumes + 2 masks

        out2 = tmp_path / "b"
        assert main(["--config", str(cfg), "phantom", "--out", str(out2),
                     "--count", "1"]) == 0
        assert len(list(out2.glob("phantom_*.pvol"))) == 2  # flag beat the file

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("holes=7\n")
        assert main(["--config", str(cfg), "phantom", "--out", str(tmp_path)]) == 1
        data, run = _untrained_run(tmp_path)
        cfg.write_text("workers = 2\n")
        assert main(["--config", str(cfg), "infer", "--data", str(data),
                     "--run", str(run)]) == 1
        assert "'workers'" in capsys.readouterr().err
        assert not (run / "volumes" / "pred_phantom_000.pvol").exists()

    def test_bad_value(self, tmp_path, capsys):
        data, run = _untrained_run(tmp_path)
        where = ["--data", str(data), "--run", str(run), "--base-width", "2"]
        cfg = tmp_path / "run.cfg"
        for text, argv in (("count=many", ["phantom", "--out", str(tmp_path / "out")]),
                           ("depth = 7", ["train-primary", *where, "--epochs", "0"]),
                           ("val-fraction = 1.0", ["train-init", *where, "--sgd-epochs", "0",
                                                   "--adam-epochs", "0"])):
            cfg.write_text(text + "\n")
            assert main(["--config", str(cfg), *argv]) == 1, text
            assert text.split("=")[0].strip().replace("-", "_") in capsys.readouterr().err
        assert not (run / "checkpoints" / "primary_d7.pbrw").exists()

    def test_bad_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("augment = ture\n")
        code = main(["--config", str(cfg), "train-init", "--data", str(tmp_path),
                     "--run", str(tmp_path / "run")])
        assert code == 1
        assert "augment" in capsys.readouterr().err

    def test_required_options_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(f"out = {out}\n")
        assert main(["--config", str(cfg), "phantom", "--count", "1",
                     "--dims", "22,48,48"]) == 0
        assert (out / "phantom_000.pvol").exists()

        data, run = _untrained_run(tmp_path)
        cfg.write_text(f"data = {data}\nrun = {run}\n")
        assert main(["--config", str(cfg), "infer"]) == 0
        assert (run / "volumes" / "pred_phantom_000.pvol").exists()
        # without the file the flags are still required
        assert main(["infer"]) == 1
        assert "required" in capsys.readouterr().err

    def test_comments_and_blanks_ok(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# tiny dataset\n\ncount=1\ndims=22,48,48\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "phantom", "--out", str(out)]) == 0
        v = read_pvol_file(out / "phantom_000.pvol")
        assert v.dims == (22, 48, 48)


class TestPhantomCommand:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "data"
        assert main(["phantom", "--out", str(out), "--count", "2",
                     "--dims", "22,48,48", "--seed", "5"]) == 0
        for i in range(2):
            v = read_pvol_file(out / f"phantom_{i:03d}.pvol")
            m = read_pvol_file(out / f"phantom_{i:03d}_mask.pvol")
            assert v.dims == (22, 48, 48)
            assert isinstance(m, MaskVolume)
        manifest = json.loads((out / "manifest_phantom.json").read_text())
        assert manifest["command"] == "phantom"
        machine = manifest["machine"]
        assert set(machine) == {"nproc", "threads", "blas_threads", "numpy", "scipy",
                                "blas_name", "blas_version"}
        assert machine["nproc"] >= 1
        assert machine["threads"] == parallel.threads() >= 1
        assert machine["blas_threads"] == parallel.blas_threads()
        assert machine["blas_threads"] is None or machine["blas_threads"] >= 1
        assert machine["numpy"] == np.__version__
        assert manifest["config"]["count"] == 2
        assert manifest["config"]["seed"] == 5

    def test_deterministic_across_runs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["phantom", "--out", str(out), "--count", "1",
                         "--dims", "22,48,48", "--seed", "9"]) == 0
            outs.append((out / "phantom_000.pvol").read_bytes())
        assert outs[0] == outs[1]


def test_infer_any_in_plane_size(tmp_path):
    data, run = _untrained_run(tmp_path, dims=(22, 50, 60))
    assert main(["infer", "--data", str(data), "--run", str(run)]) == 0
    for stem in ("pred", "prob", "pred_init", "prob_init"):
        assert read_pvol_file(run / "volumes" / f"{stem}_phantom_000.pvol").dims == (22, 50, 60)


@pytest.fixture(scope="module")
def fabricated_run(tmp_path_factory):
    """Ground truth plus hand-perturbed predictions, no training involved."""
    root = tmp_path_factory.mktemp("fabricated")
    data = root / "data"
    run = root / "run"
    (run / "volumes").mkdir(parents=True)
    data.mkdir()
    gts = {}
    for i in range(3):
        v, m = gen_phantom(PhantomSpec(seed=40 + i, dims=(22, 48, 48)))
        vid = f"phantom_{i:03d}"
        write_pvol_file(data / f"{vid}.pvol", v)
        write_pvol_file(data / f"{vid}_mask.pvol", m)
        gts[vid] = m
        if i == 0:
            pred = m  # exact copy: dsc must come out 1.0
        else:
            pd = m.data.copy()
            pd[:, :, :2] = 0  # clip two columns
            pd[2, 5, 5] = 1 - pd[2, 5, 5]
            pred = MaskVolume(pd, m.spacing)
        write_pvol_file(run / "volumes" / f"pred_{vid}.pvol", pred)
        write_pvol_file(run / "volumes" / f"pred_init_{vid}.pvol", pred)
    assert main(["eval", "--data", str(data), "--run", str(run)]) == 0
    assert main(["report", "--run", str(run)]) == 0
    return data, run, gts


class TestEvalOutputs:
    def test_identical_prediction_scores_one(self, fabricated_run):
        _, run, _ = fabricated_run
        with open(run / "reports" / "volumes.csv") as f:
            rows = {r["volume_id"]: r for r in csv.DictReader(f)}
        assert rows["phantom_000"]["dsc"] == "1.000000"
        assert rows["phantom_000"]["hd_symmetric"] == "0.000000"
        assert float(rows["phantom_001"]["dsc"]) < 1.0

    def test_init_variant_written(self, fabricated_run):
        _, run, _ = fabricated_run
        assert (run / "reports" / "volumes_init.csv").exists()
        assert (run / "reports" / "summary_init.json").exists()

    def test_summary_matches_csv(self, fabricated_run):
        _, run, _ = fabricated_run
        with open(run / "reports" / "volumes.csv") as f:
            dscs = [float(r["dsc"]) for r in csv.DictReader(f)]
        summary = json.loads((run / "reports" / "summary.json").read_text())
        assert summary["n_volumes"] == 3
        assert summary["dsc"]["mean"] == pytest.approx(np.mean(dscs), abs=1e-6)

    def test_slice_csv_covers_all_slices(self, fabricated_run):
        _, run, _ = fabricated_run
        with open(run / "reports" / "slices.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3 * 22

    def test_eval_reads_no_intensity_volume(self, fabricated_run, tmp_path):
        data, run, _ = fabricated_run
        broken = tmp_path / "data"
        broken.mkdir()
        for mask in data.glob("*_mask.pvol"):
            (broken / mask.name).write_bytes(mask.read_bytes())
            (broken / mask.name.replace("_mask", "")).write_bytes(b"not a volume")
        out = tmp_path / "run"
        assert main(["eval", "--data", str(broken), "--run", str(out),
                     "--pred", str(run / "volumes")]) == 0
        for name in ("volumes.csv", "slices.csv", "volumes_init.csv"):
            assert (out / "reports" / name).read_text() == (run / "reports" / name).read_text()

    def test_eval_crops_masks_like_the_volumes(self, fabricated_run, tmp_path):
        data, _, gts = fabricated_run
        preds = tmp_path / "preds"
        preds.mkdir()
        for vid, gt in gts.items():
            v = read_pvol_file(data / f"{vid}.pvol")
            write_pvol_file(preds / f"pred_{vid}.pvol", crop(v, gt, 30, 34)[1])
        run = tmp_path / "run"
        assert main(["eval", "--data", str(data), "--run", str(run), "--pred", str(preds),
                     "--crop", "30,34"]) == 0
        with open(run / "reports" / "volumes.csv") as f:
            assert [r["dsc"] for r in csv.DictReader(f)] == ["1.000000"] * 3


class TestReportFidelity:
    """Report files must agree with the metric functions applied directly."""

    def _slice_reports(self, fabricated_run):
        data, run, gts = fabricated_run
        out = []
        for vid, gt in sorted(gts.items()):
            pred = read_pvol_file(run / "volumes" / f"pred_{vid}.pvol")
            out.extend(evaluate_slices(pred, gt, volume_id=vid))
        return out

    def test_histogram(self, fabricated_run):
        _, run, _ = fabricated_run
        reports = [r for r in self._slice_reports(fabricated_run) if r.gt_pixels > 0]
        expect = dsc_histogram(reports)
        got = json.loads((run / "reports" / "histogram.json").read_text())
        assert got["counts"] == expect["counts"]
        assert got["total"] == expect["total"]
        assert sum(got["counts"]) == got["total"]

    def test_reliability(self, fabricated_run):
        data, run, gts = fabricated_run
        dscs = []
        with open(run / "reports" / "volumes.csv") as f:
            dscs = [float(r["dsc"]) for r in csv.DictReader(f)]
        expect = reliability_curve(dscs)
        with open(run / "reports" / "reliability.csv") as f:
            got = [(float(r["threshold"]), float(r["fraction"]))
                   for r in csv.DictReader(f)]
        assert len(got) == 101
        for (t1, f1), (t2, f2) in zip(got, expect):
            assert t1 == pytest.approx(t2, abs=1e-9)
            assert f1 == pytest.approx(f2, abs=1e-6)

    def test_agreement(self, fabricated_run):
        data, run, gts = fabricated_run
        preds, refs = [], []
        for vid, gt in sorted(gts.items()):
            pred = read_pvol_file(run / "volumes" / f"pred_{vid}.pvol")
            preds.append(volume_mm3(pred))
            refs.append(volume_mm3(gt))
        expect = volume_agreement(preds, refs)
        got = json.loads((run / "reports" / "agreement.json").read_text())
        assert got["n"] == 3
        assert got["slope"] == pytest.approx(expect.slope, abs=1e-9)
        assert got["intercept"] == pytest.approx(expect.intercept, abs=1e-9)
        assert got["r"] == pytest.approx(expect.r, abs=1e-9)

    def test_small_targets(self, fabricated_run):
        _, run, _ = fabricated_run
        expect = small_target_report(self._slice_reports(fabricated_run))
        got = json.loads((run / "reports" / "small_targets.json").read_text())
        assert got["head_tail"]["count"] == expect["head_tail"]["count"]
        assert got["small"]["count"] == expect["small"]["count"]
        assert got["small"]["mean_dsc"] == pytest.approx(expect["small"]["mean_dsc"],
                                                         abs=1e-6)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """phantom -> train-init -> train-primary -> infer -> eval -> report."""
    root = tmp_path_factory.mktemp("pipeline")
    data, run = root / "data", root / "run"
    assert main(["phantom", "--out", str(data), "--count", "3",
                 "--dims", "22,48,48", "--seed", "2"]) == 0
    common = ["--data", str(data), "--run", str(run), "--seed", "1"]
    assert main(["train-init", *common, "--ids", "0-1", "--base-width", "4",
                 "--sgd-epochs", "2", "--adam-epochs", "2",
                 "--val-fraction", "0.1"]) == 0
    assert main(["train-primary", *common, "--ids", "0-1", "--base-width", "4",
                 "--epochs", "3", "--val-fraction", "0.1"]) == 0
    assert main(["infer", *common, "--ids", "1-2"]) == 0
    assert main(["eval", *common, "--ids", "1-2"]) == 0
    assert main(["report", "--run", str(run)]) == 0
    return data, run


class TestFullPipeline:

    def test_checkpoints_written(self, pipeline):
        _, run = pipeline
        assert (run / "checkpoints" / "init_axial.pbrw").exists()
        assert (run / "checkpoints" / "primary_d1.pbrw").exists()

    def test_train_logs(self, pipeline):
        _, run = pipeline
        with open(run / "reports" / "train_init_axial.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        assert [r["phase"] for r in rows] == ["sgd", "sgd", "adam", "adam"]

    def test_prediction_volumes(self, pipeline):
        _, run = pipeline
        for vid in ("phantom_001", "phantom_002"):
            for stem in ("pred", "prob", "pred_init", "prob_init"):
                assert (run / "volumes" / f"{stem}_{vid}.pvol").exists()
            pred = read_pvol_file(run / "volumes" / f"pred_{vid}.pvol")
            assert isinstance(pred, MaskVolume)
            assert pred.dims == (22, 48, 48)
            prob = read_pvol_file(run / "volumes" / f"prob_{vid}.pvol")
            assert prob.data.min() >= 0.0 and prob.data.max() <= 1.0

    def test_timing_log(self, pipeline):
        _, run = pipeline
        entries = [json.loads(line) for line in
                   (run / "volumes" / "timing.jsonl").read_text().splitlines()]
        stages = {e["stage"] for e in entries}
        assert {"estimate", "hybrid", "forward", "backward", "binarize"} <= stages
        assert all(e["seconds"] >= 0 for e in entries)
        assert {e["volume"] for e in entries} == {"phantom_001", "phantom_002"}

    def test_manifest_digests_match_files(self, pipeline):
        _, run = pipeline
        manifest = json.loads((run / "manifest_train_init.json").read_text())
        blob = (run / "checkpoints" / "init_axial.pbrw").read_bytes()
        assert manifest["checkpoints"]["init_axial"] == hashlib.sha256(blob).hexdigest()
        infer_manifest = json.loads((run / "manifest_infer.json").read_text())
        primary = (run / "checkpoints" / "primary_d1.pbrw").read_bytes()
        assert infer_manifest["checkpoints"]["primary"] == hashlib.sha256(primary).hexdigest()
        assert infer_manifest["checkpoints"]["init_axial"] == hashlib.sha256(blob).hexdigest()

    def test_eval_reports_exist(self, pipeline):
        _, run = pipeline
        for name in ("volumes.csv", "slices.csv", "summary.json", "volumes_mm3.json",
                     "volumes_init.csv", "histogram.json", "reliability.csv",
                     "agreement.json", "small_targets.json"):
            assert (run / "reports" / name).exists(), name

    def test_volumes_on_pool_threads_bit_identical(self, pipeline, tmp_path, monkeypatch):
        if parallel._openblas() is None:
            pytest.skip("BLAS cannot be pinned, so every command runs serially")
        data, run = pipeline
        run = shutil.copytree(run, tmp_path / "run")
        common = ["--data", str(data), "--run", str(run), "--seed", "1"]
        names = [f"{stem}_phantom_00{i}.pvol"
                 for stem in ("pred", "prob", "pred_init", "prob_init") for i in (1, 2)]
        for i in (1, 2):
            assert main(["infer", *common, "--ids", str(i)]) == 0
        alone = {name: (run / "volumes" / name).read_bytes() for name in names}

        monkeypatch.setattr(parallel, "cores", lambda: 2)
        seen, infer_pbr = [], cli.infer_pbr

        def spy(*a, **kw):
            seen.append((threading.get_ident(), getattr(parallel._in_pool, "active", False)))
            return infer_pbr(*a, **kw)

        monkeypatch.setattr(cli, "infer_pbr", spy)
        for name in names:
            (run / "volumes" / name).unlink()
        assert main(["infer", *common, "--ids", "1-2"]) == 0
        assert len(seen) == 2
        assert all(in_pool and ident != threading.get_ident() for ident, in_pool in seen)
        for name in names:
            assert (run / "volumes" / name).read_bytes() == alone[name], name

    def test_eval_missing_predictions(self, pipeline):
        data, run = pipeline
        code = main(["eval", "--data", str(data), "--run", str(run), "--ids", "0"])
        assert code == 2
