"""Command-line interface: exit codes, the data contract, manifests, and
an end-to-end pipeline smoke on tiny phantoms."""

import argparse
import csv
import hashlib
import inspect
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pbrseg import cli, parallel
from pbrseg.cli import _ids, main
from pbrseg.hybrid import SweepConfig, binarize
from pbrseg.metrics import (SliceReport, VolumeReport, dsc_histogram, evaluate_slices,
                            reliability_curve, small_target_report, volume_agreement)
from pbrseg.phantom import PhantomSpec, gen_dataset, gen_phantom
from pbrseg.preprocess import crop_box
from pbrseg.pvol import MaskVolume, Volume, read_pvol_file, write_pvol_file
from pbrseg.training import train_initial, train_primary
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


def _patch(path, offset, raw):
    """Overwrite a file's bytes from offset on, past the checks its writer makes."""
    old = path.read_bytes()
    path.write_bytes(old[:offset] + raw + old[offset + len(raw):])


def _respace(path, spacing):
    """Overwrite a PVOL file's spacing field (bytes 21-33)."""
    _patch(path, 21, struct.pack("<3f", *spacing))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-7])


def _as_intensities(path):
    """Rewrite a mask file as an intensity volume with the same voxels."""
    m = read_pvol_file(path)
    write_pvol_file(path, Volume(m.data, m.spacing))


def _as_directory(path):
    path.unlink()
    path.mkdir()


def _as_file(path):
    shutil.rmtree(path)
    path.touch()


def _set_volume_cells(column, value, rows=slice(0, 1)):
    """A volumes.csv corruption that sets a column's cells in the data rows
    that rows selects (the first by default)."""
    def corrupt(text):
        table = list(csv.reader(io.StringIO(text)))
        k = table[0].index(column)
        for row in table[1:][rows]:
            row[k] = value
        out = io.StringIO()
        csv.writer(out).writerows(table)
        return out.getvalue()
    return corrupt


def _rewrite(corrupt):
    """A file corruption made from a corruption of its text."""
    return lambda path: path.write_text(corrupt(path.read_text()))


def _on_first_foreground_row(edit):
    """A slices.csv corruption: edit(lines, k) changes the lines of the
    table in place, k being the first row with reference pixels."""
    def corrupt(text):
        lines = text.splitlines()
        edit(lines, next(k for k, line in enumerate(lines[1:], 1)
                         if int(line.split(",")[3]) > 0))
        return "".join(line + "\n" for line in lines)
    return corrupt


def _set_foreground_cell(column, value):
    """A corruption that sets one cell of the first slices.csv row with reference pixels."""
    def edit(lines, k):
        cells = lines[k].split(",")
        cells[column] = value
        lines[k] = ",".join(cells)
    return _on_first_foreground_row(edit)


def _append_column(path, name, value):
    """Append a column to a CSV table, value(row) giving each row's cell."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert name not in rows[0]
    table = io.StringIO()
    csv.writer(table).writerows([rows[0] + [name], *(row + [value(row)] for row in rows[1:])])
    path.write_text(table.getvalue(), newline="")


def _eval_tables(fabricated_run, tmp_path):
    """A run holding only the two tables that report reads, copied from
    the fabricated run."""
    run = tmp_path / "run"
    (run / "reports").mkdir(parents=True)
    for name in ("volumes.csv", "slices.csv"):
        shutil.copy(fabricated_run[1] / "reports" / name, run / "reports")
    return run


class TestExitCodes:
    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "phantom" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert main(["infer"]) == 1
        assert "required" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["phantom", "--out", str(tmp_path), "--bogus"]) == 1
        data, run = _untrained_run(tmp_path)
        for flags in (["--workers", "2"], ["--inclusive"]):
            assert main(["infer", "--data", str(data), "--run", str(run), *flags]) == 1
            assert flags[0] in capsys.readouterr().err
        assert not (run / "volumes" / "pred_phantom_000.pvol").exists()

    def test_seed_only_on_commands_that_read_it(self, tmp_path, capsys):
        data, run = _untrained_run(tmp_path)
        for command in ("infer", "eval"):
            assert main([command, "--data", str(data), "--run", str(run), "--seed", "1"]) == 1
            assert "--seed" in capsys.readouterr().err
        assert not (run / "volumes" / "pred_phantom_000.pvol").exists()

    def test_bad_dims_string(self, tmp_path, capsys):
        assert main(["phantom", "--out", str(tmp_path), "--dims", "4x4"]) == 1
        assert "invalid m,h,w value: '4x4'" in capsys.readouterr().err
        assert main(["phantom", "--out", str(tmp_path), "--dims", "4,4"]) == 1
        assert "expected m,h,w got '4,4'" in capsys.readouterr().err
        assert main(["infer", "--data", str(tmp_path), "--run", str(tmp_path / "run"),
                     "--crop", "30"]) == 1
        assert "expected h,w got '30'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_failing_command_creates_no_run_directories(self, tmp_path, capsys):
        data, run = _untrained_run(tmp_path)
        fresh = tmp_path / "fresh"
        phantom = ["phantom", "--out", str(fresh), "--count", "1"]
        for code, argv in (
                (2, ["infer", "--data", str(data), "--run", str(fresh), "--ids", "0"]),
                (2, ["train-init", "--data", str(tmp_path / "nope"), "--run", str(fresh)]),
                (2, ["train-primary", "--data", str(data), "--run", str(fresh),
                     "--views", "coronal"]),
                (2, ["eval", "--data", str(data), "--run", str(fresh)]),
                (1, [*phantom, "--taper", "0"]),
                (2, [*phantom, "--dims", "5,48,48"])):
            assert main(argv) == code, argv
            assert not fresh.exists(), argv
        assert main(["infer", "--data", str(data), "--run", str(run), "--ids", "0",
                     "--depth", "2"]) == 2
        assert "primary_d2.pbrw" in capsys.readouterr().err
        assert sorted(p.name for p in run.iterdir()) == ["checkpoints"]

    def test_eval_creates_only_its_reports(self, tmp_path, capsys):
        data, run = _untrained_run(tmp_path)
        where = ["--data", str(data), "--run", str(run)]
        assert main(["infer", *where]) == 0
        scored = tmp_path / "scored"
        assert main(["eval", "--data", str(data), "--run", str(scored),
                     "--pred", str(run / "volumes")]) == 0
        assert sorted(p.name for p in scored.iterdir()) == ["manifest_eval.json", "reports"]
        assert (scored / "reports" / "volumes_init.csv").exists()

    def test_ids_skip_a_volume_they_do_not_select(self, tmp_path, capsys):
        """A mask without its volume is refused only when --ids selects it."""
        data, run, pred = tmp_path / "data", tmp_path / "run", tmp_path / "pred"
        data.mkdir()
        pred.mkdir()
        for i, (v, m) in enumerate(gen_dataset(3, dims=(22, 48, 48))):
            write_pvol_file(data / f"phantom_{i:03d}.pvol", v)
            write_pvol_file(data / f"phantom_{i:03d}_mask.pvol", m)
            write_pvol_file(pred / f"pred_phantom_{i:03d}.pvol", m)
        (data / "phantom_002.pvol").unlink()
        train = ["train-init", "--base-width", "2", "--sgd-epochs", "0", "--adam-epochs", "0"]
        evaluate = ["eval", "--pred", str(pred)]
        for argv in (train, evaluate):
            where = [*argv, "--data", str(data), "--run", str(run)]
            assert main([*where, "--ids", "0-1"]) == 0, argv
            assert main([*where, "--ids", "2"]) == 2, argv
            assert "mask phantom_002_mask.pvol has no matching volume file" in \
                capsys.readouterr().err
        with open(run / "reports" / "volumes.csv", newline="") as f:
            assert [r["volume_id"] for r in csv.DictReader(f)] == ["phantom_000", "phantom_001"]

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
                     ["train-init", *no_epochs, "--val-fraction", "1.0"],
                     ["train-primary", "--base-width", "2", "--epochs", "0", "--depth", "7"],
                     ["train-init", "--base-width", "2", "--adam-epochs", "0",
                      "--sgd-epochs", "-1"],
                     ["train-primary", "--base-width", "2", "--epochs", "-2"],
                     ["train-init", *no_epochs, "--sgd-lr", "-5"],
                     ["train-init", *no_epochs, "--adam-lr", "-0.0001"],
                     ["train-primary", "--base-width", "2", "--epochs", "0", "--lr", "-1"],
                     ["train-init", *no_epochs, "--patience", "0"],
                     ["train-primary", "--base-width", "2", "--epochs", "0",
                      "--patience", "-4"],
                     ["train-init", "--sgd-epochs", "0", "--adam-epochs", "0",
                      "--base-width", "0"],
                     ["train-primary", "--epochs", "0", "--base-width", "-2"],
                     ["train-init", *no_epochs, "--seed", "-5"],
                     ["train-primary", "--base-width", "2", "--epochs", "0", "--seed", "-1"]):
            assert main([*argv, *where]) == 1, argv
            assert argv[-2] in capsys.readouterr().err
        for argv in (["train-init", *no_epochs, "--views", "axial,axial"],
                     ["infer", "--views", "axial,axial"]):
            assert main([*argv, *where]) == 1, argv
            assert "view 'axial' given twice" in capsys.readouterr().err
        assert sorted(p.name for p in run.iterdir()) == ["checkpoints"]
        assert sorted(p.name for p in (run / "checkpoints").iterdir()) == [
            "init_axial.pbrw", "primary_d1.pbrw"]
        assert not (run / "volumes" / "pred_phantom_000.pvol").exists()
        out = ["--out", str(tmp_path / "phantoms")]
        scored = ["--run", str(fabricated_run[1])]
        for argv in (["phantom", *out, "--count", "-2"],
                     ["phantom", *out, "--count", "many"],
                     ["phantom", *out, "--count", "1", "--distractors", "-1"],
                     ["report", *scored, "--head-tail-n", "0"],
                     ["report", *scored, "--head-tail-n", "-1"],
                     ["report", *scored, "--area-threshold", "-1"],
                     ["phantom", *out, "--count", "1", "--seed", "-1"]):
            assert main(argv) == 1, argv
            assert argv[-2] in capsys.readouterr().err
        assert main(["phantom", *out, "--count", "1", "--noise", "-1"]) == 1
        assert "noise_std" in capsys.readouterr().err
        for flag, value, name in (("--min-radius", "nan", "min_radius"),
                                  ("--max-radius", "nan", "max_radius"),
                                  ("--max-radius", "inf", "max_radius"),
                                  ("--contrast", "nan", "contrast"),
                                  ("--contrast", "inf", "contrast"),
                                  ("--noise", "nan", "noise_std")):
            assert main(["phantom", *out, "--count", "1", "--dims", "24,48,48",
                         "--max-radius", "6", "--taper", "3", flag, value]) == 1, flag
            assert f"{name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "phantoms").exists()

    def test_report_before_eval(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        assert main(["report", "--run", str(run)]) == 2
        assert "volumes.csv: run eval first" in capsys.readouterr().err
        assert list(run.iterdir()) == []
        (run / "reports").mkdir()
        for name in ("volumes.csv", "slices.csv"):
            assert main(["report", "--run", str(run)]) == 2
            assert f"{name}: run eval first" in capsys.readouterr().err
            (run / "reports" / name).write_text("")
        assert sorted(p.name for p in run.rglob("*")) == ["reports", "slices.csv", "volumes.csv"]

    @pytest.mark.parametrize("name, corrupt, named", [
        ("slices.csv", lambda text: "".join(line.rsplit(",", 1)[0] + "\n"
                                            for line in text.splitlines()),
         ("slices.csv", "gt_pixels")),  # the last column dropped
        ("slices.csv", _set_foreground_cell(2, "nan"), ("slices.csv", "dsc", "nan")),
        ("slices.csv", _set_foreground_cell(3, "-8"), ("slices.csv", "gt_pixels", "'-8'")),
        ("slices.csv", _set_foreground_cell(1, "-1"), ("slices.csv", "slice_index", "'-1'")),
        ("slices.csv", _on_first_foreground_row(lambda lines, k: lines.insert(k, lines[k])),
         ("slices.csv", "of phantom_000 is listed twice")),
        ("volumes.csv", _set_volume_cells("pred_mm3", "x"), ("volumes.csv", "pred_mm3", "'x'")),
        ("volumes.csv", _set_volume_cells("pred_mm3", "nan"),
         ("volumes.csv", "pred_mm3", "'nan'")),
        ("volumes.csv", _set_volume_cells("pred_mm3", "inf"),
         ("volumes.csv", "pred_mm3", "'inf'")),
        ("volumes.csv", _set_volume_cells("pred_mm3", "-8.000000"),
         ("volumes.csv", "pred_mm3", "'-8.000000'")),
        ("volumes.csv", lambda text: text + text.splitlines()[1] + "\n",
         ("volumes.csv", "volume phantom_000 is listed twice")),
        ("volumes.csv", lambda text: "".join(line.rsplit(",", 2)[0] + "\n"
                                             for line in text.splitlines()),
         ("volumes.csv", "bad or missing pred_mm3 column")),  # a run evaluated before the mm³
        ("volumes.csv", lambda text: text.replace("phantom_000,1.000000,", "phantom_000,abc,"),
         ("volumes.csv", "dsc", "abc")),
        ("volumes.csv", lambda text: text.replace("phantom_000,1.000000,", "phantom_000,7.5,"),
         ("volumes.csv", "dsc", "7.5"))],
        ids=("slices.csv", "slices.csv-nan-dsc", "slices.csv-negative-gt-pixels",
             "slices.csv-negative-slice-index", "slices.csv-repeated-slice",
             "volumes.csv-mm3-string", "volumes.csv-mm3-nan", "volumes.csv-mm3-inf",
             "volumes.csv-mm3-negative", "volumes.csv-repeated-volume",
             "volumes.csv-without-mm3", "volumes.csv", "volumes.csv-dsc-above-one"))
    def test_malformed_eval_table(self, tmp_path, capsys, fabricated_run, name, corrupt,
                                  named):
        run = _eval_tables(fabricated_run, tmp_path)
        path = run / "reports" / name
        text = path.read_text()
        path.write_text(corrupt(text))
        assert path.read_text() != text
        assert main(["report", "--run", str(run)]) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in named), err
        assert sorted(p.name for p in run.rglob("*")) == ["reports", "slices.csv", "volumes.csv"]

    def test_report_that_fails_writes_nothing(self, tmp_path, capsys, fabricated_run):
        """Every table is computed before any is written: constant predicted
        volumes fail the agreement table, and no report file appears."""
        run = _eval_tables(fabricated_run, tmp_path)
        _rewrite(_set_volume_cells("pred_mm3", "0.000000", slice(None)))(
            run / "reports" / "volumes.csv")
        assert main(["report", "--run", str(run)]) == 2
        assert "predicted volumes are constant" in capsys.readouterr().err
        assert sorted(p.name for p in run.rglob("*")) == ["reports", "slices.csv", "volumes.csv"]

    @pytest.mark.parametrize("target, block, command", [
        ("phantoms", Path.touch, "phantom"),
        ("run/checkpoints", _as_file, "train-init"),
        ("run/volumes", Path.touch, "infer"),
        ("run/reports/volumes.csv", _as_directory, "eval"),
        ("run/reports/histogram.json", Path.mkdir, "report")],
        ids=("phantom-out-file", "checkpoints-file", "volumes-file", "volumes-csv-dir",
             "histogram-dir"))
    def test_output_faults(self, tmp_path, capsys, fabricated_run, target, block, command):
        """An output the OS refuses, a file where a directory goes or a
        directory where a file goes, exits 2 naming it, not with a traceback."""
        data, run = _untrained_run(tmp_path)
        _eval_tables(fabricated_run, tmp_path)
        preds = tmp_path / "preds"
        preds.mkdir()
        shutil.copy(data / "phantom_000_mask.pvol", preds / "pred_phantom_000.pvol")
        block(tmp_path / target)
        where = ["--data", str(data), "--run", str(run)]
        argv = {"phantom": ["phantom", "--out", str(tmp_path / target), "--count", "1",
                            "--dims", "22,48,48"],
                "train-init": ["train-init", *where, "--base-width", "2", "--sgd-epochs", "0",
                               "--adam-epochs", "0"],
                "infer": ["infer", *where],
                "eval": ["eval", *where, "--pred", str(preds)],
                "report": ["report", "--run", str(run)]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"cannot write {tmp_path / target}: " in err and "Traceback" not in err

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

    def test_config_flag_is_gone(self, tmp_path, capsys):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("count = 1\n")
        assert main(["--config", str(cfg), "phantom", "--out", str(tmp_path / "d")]) == 1
        assert "x.cfg" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.cfg"]

    @pytest.mark.parametrize("target, corrupt, command, named", [
        ("data/phantom_000_mask.pvol",  # a 40-row mask for a 48-row volume
         lambda path: write_pvol_file(path, MaskVolume(read_pvol_file(path).data[:, :40])),
         "train-init", ("phantom_000.pvol", "phantom_000_mask.pvol")),
        ("data/phantom_000_mask.pvol", lambda path: _respace(path, (1, float("nan"), 1)),
         "eval", ("phantom_000_mask.pvol",)),
        ("data/phantom_000_mask.pvol", lambda path: _respace(path, (-1, 1, 1)),
         "eval", ("phantom_000_mask.pvol",)),
        ("data/phantom_000_mask.pvol", lambda path: _respace(path, (1, 1, 0)),
         "eval", ("phantom_000_mask.pvol",)),
        ("data/phantom_000_mask.pvol", _as_directory, "eval", ("phantom_000_mask.pvol",)),
        ("preds/pred_phantom_000.pvol", lambda path: _respace(path, (2, 1, 1)),
         "eval", ("pred_phantom_000.pvol", "phantom_000_mask.pvol")),
        ("run/manifest_train_primary.json", lambda path: path.write_text("{"),
         "infer", ("manifest_train_primary.json",)),
        ("run/manifest_train_primary.json", lambda path: path.write_text("[]"),
         "infer", ("manifest_train_primary.json",)),
        ("run/manifest_train_primary.json", lambda path: path.mkdir(),
         "infer", ("manifest_train_primary.json",)),
        ("run/reports/slices.csv", lambda path: path.write_text(""),
         "report", ("slices.csv",)),
        ("run/checkpoints/init_axial.pbrw", _as_directory, "infer", ("init_axial.pbrw",)),
        ("run/checkpoints/primary_d1.pbrw", _truncate, "infer", ("primary_d1.pbrw",)),
        ("run/checkpoints/primary_d1.pbrw", lambda path: path.write_bytes(b"garbage"),
         "infer", ("primary_d1.pbrw",)),
        ("run/checkpoints/primary_d1.pbrw", lambda path: _patch(path, 22, b"\xff"),
         "infer", ("primary_d1.pbrw",)),  # the first array name's first byte
        ("run/checkpoints/primary_d1.pbrw", lambda path: _patch(path, 8, bytes(4)),
         "infer", ("primary_d1.pbrw",)),  # in_channels 0
        ("run/checkpoints/init_axial.pbrw", _truncate, "train-primary", ("init_axial.pbrw",)),
        ("run/reports/volumes.csv", _as_directory, "report", ("volumes.csv",)),
        ("run/reports/slices.csv", _as_directory, "report", ("slices.csv",)),
        ("run/reports/volumes.csv", _rewrite(_set_volume_cells("gt_mm3", "", slice(-1, None))),
         "report", ("volumes.csv", "gt_mm3")),  # the last reference volume cut
        ("run/reports/volumes.csv", _rewrite(_set_volume_cells("gt_mm3", "123 mm3")), "report",
         ("volumes.csv", "gt_mm3", "'123 mm3'")),
        ("run/reports/volumes.csv", _rewrite(_set_volume_cells("gt_mm3", "True")), "report",
         ("volumes.csv", "gt_mm3", "'True'")),
        ("run/reports/volumes.csv", _rewrite(_set_volume_cells("gt_mm3", "NaN")), "report",
         ("volumes.csv", "gt_mm3", "'NaN'")),
        ("run/reports/volumes.csv", _rewrite(_set_volume_cells("gt_mm3", "1" + "0" * 400)),
         "report", ("volumes.csv", "gt_mm3")),  # past the float range
        ("data/phantom_000_mask.pvol", _as_intensities, "train-init",
         ("phantom_000_mask.pvol", "does not hold a binary mask")),
        ("data/phantom_000.pvol",
         lambda path: shutil.copy(path.with_name("phantom_000_mask.pvol"), path),
         "infer", ("phantom_000.pvol", "holds a mask, expected intensities")),
        ("preds/pred_phantom_000.pvol", _as_intensities, "eval",
         ("pred_phantom_000.pvol", "does not hold a binary mask"))],
        ids=("shifted-mask", "nan-spacing", "negative-spacing", "zero-spacing", "mask-dir",
             "pred-spacing", "manifest-brace", "manifest-list", "manifest-dir",
             "empty-slices", "init-dir", "primary-truncated", "primary-garbage",
             "primary-name-not-utf8", "primary-no-channels", "train-primary-init-truncated",
             "mm3-dir", "slices-dir", "mm3-unequal-lists", "mm3-string", "mm3-bools",
             "mm3-nan", "mm3-huge-int", "mask-holds-intensities", "volume-holds-mask",
             "pred-holds-intensities"))
    def test_data_contract(self, tmp_path, fabricated_run, target, corrupt, command, named):
        """Inputs that cannot be read or parsed, hold the wrong kind of volume,
        disagree with each other, or carry a spacing that is not finite and
        above 0, exit 2 with a message naming the file, not with a traceback
        or a run that silently means something else."""
        data, run = _untrained_run(tmp_path)
        _eval_tables(fabricated_run, tmp_path)
        preds = tmp_path / "preds"
        preds.mkdir()
        for prefix in ("pred_", "pred_init_"):
            shutil.copy(data / "phantom_000_mask.pvol", preds / f"{prefix}phantom_000.pvol")
        corrupt(tmp_path / target)
        where = ["--data", str(data), "--run", str(run)]
        argv = {"train-init": ["train-init", *where, "--base-width", "2", "--sgd-epochs", "0",
                               "--adam-epochs", "0"],
                "train-primary": ["train-primary", *where, "--base-width", "2",
                                  "--epochs", "0"],
                "eval": ["eval", *where, "--pred", str(preds)],
                "infer": ["infer", *where],
                "report": ["report", "--run", str(run)]}[command]
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from pbrseg.cli import main; "
                                   "sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert all(name in done.stderr for name in named), done.stderr


class TestManifests:
    @pytest.mark.parametrize("command, checkpoints", [
        ("phantom", []),
        ("train-init", ["init_axial"]),
        ("train-primary", ["init_axial", "primary_d1"]),
        ("infer", ["init_axial", "primary"]),
        ("eval", []),
        ("report", [])],
        ids=("phantom", "train-init", "train-primary", "infer", "eval", "report"))
    def test_one_manifest_per_command(self, tmp_path, capsys, fabricated_run, command,
                                      checkpoints):
        """A success adds exactly one manifest_<command>.json, to --out or
        --run, whose config is the parsed flags; a failure writes none."""
        data, run = _untrained_run(tmp_path)
        _eval_tables(fabricated_run, tmp_path)
        preds = tmp_path / "preds"
        preds.mkdir()
        shutil.copy(data / "phantom_000_mask.pvol", preds / "pred_phantom_000.pvol")
        where = ["--data", str(data), "--run", str(run), "--ids", "3,0-1"]
        phantom = ["phantom", "--out", str(tmp_path / "phantoms"), "--count", "1",
                   "--dims", "22,48,48", "--max-radius", "6", "--taper", "3"]
        argv, failing = {
            "phantom": (phantom, [*phantom, "--taper", "0"]),
            "train-init": (["train-init", *where, "--base-width", "2", "--sgd-epochs", "0",
                            "--adam-epochs", "0"],
                           ["train-init", "--data", str(tmp_path / "nope"), "--run", str(run)]),
            "train-primary": (["train-primary", *where, "--base-width", "2", "--epochs", "0"],
                              ["train-primary", *where, "--views", "coronal"]),
            "infer": (["infer", *where], ["infer", *where, "--depth", "2"]),
            "eval": (["eval", *where, "--pred", str(preds)],
                     ["eval", *where, "--pred", str(tmp_path / "nope")]),
            "report": (["report", "--run", str(run)], ["report", "--run", str(data)])}[command]
        assert main(failing) in (1, 2)
        assert list(tmp_path.rglob("manifest_*")) == []

        assert main(argv) == 0, capsys.readouterr().err
        outdir = tmp_path / "phantoms" if command == "phantom" else run
        assert list(tmp_path.rglob("manifest_*")) == [
            outdir / f"manifest_{command.replace('-', '_')}.json"]
        manifest = json.loads(next(outdir.glob("manifest_*")).read_text())
        assert sorted(manifest) == ["checkpoints", "command", "config", "machine", "version"]
        assert manifest["command"] == command
        assert sorted(manifest["checkpoints"]) == checkpoints
        parsed = vars(cli.build_parser().parse_args(argv))
        del parsed["func"]
        for key in ("out", "data", "run", "pred"):
            if key in parsed:
                parsed[key] = str(parsed[key])
        if "ids" in parsed:
            parsed["ids"] = [0, 1, 3]
        assert manifest["config"] == json.loads(json.dumps(parsed))

    def test_teacher_forced_records_no_init_nets(self, tmp_path):
        data, run = _untrained_run(tmp_path)
        (run / "checkpoints" / "init_axial.pbrw").unlink()
        assert main(["train-primary", "--data", str(data), "--run", str(run),
                     "--base-width", "2", "--epochs", "0", "--teacher-forced"]) == 0
        manifest = json.loads((run / "manifest_train_primary.json").read_text())
        assert list(manifest["checkpoints"]) == ["primary_d1"]


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

    def test_writes_what_gen_dataset_gives(self, tmp_path):
        spec = dict(dims=(22, 48, 48), contrast=70.0, noise_std=12.0, distractors=1,
                    min_radius=2.0, max_radius=8.0, taper=4)
        assert main(["phantom", "--out", str(tmp_path / "cli"), "--count", "2",
                     "--dims", "22,48,48", "--seed", "13", "--contrast", "70",
                     "--noise", "12", "--distractors", "1", "--min-radius", "2",
                     "--max-radius", "8", "--taper", "4"]) == 0
        lib = tmp_path / "lib"
        lib.mkdir()
        for i, (v, m) in enumerate(gen_dataset(2, base_seed=13, **spec)):
            write_pvol_file(lib / f"phantom_{i:03d}.pvol", v)
            write_pvol_file(lib / f"phantom_{i:03d}_mask.pvol", m)
        for path in sorted(lib.iterdir()):
            assert (tmp_path / "cli" / path.name).read_bytes() == path.read_bytes(), path.name


def test_infer_any_in_plane_size(tmp_path):
    data, run = _untrained_run(tmp_path, dims=(22, 50, 60))
    assert main(["infer", "--data", str(data), "--run", str(run)]) == 0
    for stem in ("pred", "prob", "pred_init", "prob_init"):
        assert read_pvol_file(run / "volumes" / f"{stem}_phantom_000.pvol").dims == (22, 50, 60)


def test_flags_and_library_calls_share_their_defaults():
    """A flag and the keyword it feeds default to the same value."""
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    parser = cli.build_parser()
    report = parser.parse_args(["report", "--run", "r"])
    assert report.area_threshold == default(small_target_report, "area_threshold") == 300
    assert report.head_tail_n == default(small_target_report, "head_tail_n") == 3
    infer = parser.parse_args(["infer", "--data", "d", "--run", "r"])
    assert infer.threshold == default(binarize, "threshold") == SweepConfig.threshold == 0.5
    for command, fn in (("train-init", train_initial), ("train-primary", train_primary)):
        args = parser.parse_args([command, "--data", "d", "--run", "r"])
        assert args.base_width == default(fn, "base_width") == UNetConfig.base_width == 8


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
            cropped = MaskVolume(gt.data[crop_box(gt, 30, 34)], gt.spacing)
            write_pvol_file(preds / f"pred_{vid}.pvol", cropped)
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
            for volumes, m in ((preds, pred), (refs, gt)):
                sz, sy, sx = m.spacing
                volumes.append(int(m.data.sum()) * sz * sy * sx)
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


class TestEvalTables:
    """eval's tables hold only what eval measured; the head/tail cohort is
    taken by report alone, at its --head-tail-n."""

    def test_head_tail_cohort_is_the_ends_of_each_reference(self, fabricated_run, tmp_path):
        _, _, gts = fabricated_run
        run = _eval_tables(fabricated_run, tmp_path)
        with open(run / "reports" / "slices.csv", newline="") as f:
            header = next(csv.reader(f))
        assert header == [f.name for f in fields(SliceReport)] == [
            "volume_id", "slice_index", "dsc", "gt_pixels"]
        for n, flags in ((3, []), (5, ["--head-tail-n", "5"])):
            assert main(["report", "--run", str(run), *flags]) == 0
            got = json.loads((run / "reports" / "small_targets.json").read_text())
            expect = []
            for vid, gt in sorted(gts.items()):
                fg = [t for t in range(gt.dims[0]) if gt.data[t].any()]
                expect += [[vid, t] for t in fg if t in fg[:n] or t in fg[-n:]]
            assert got["head_tail_n"] == n
            assert got["head_tail"]["slices"] == expect
            assert got["head_tail"]["count"] == len(expect)

    def test_every_column_holds_a_value(self, fabricated_run):
        """On non-empty masks no column is empty in every row."""
        _, run, _ = fabricated_run
        for name, cls in (("volumes", VolumeReport), ("slices", SliceReport)):
            for tag in ("", "_init"):
                with open(run / "reports" / f"{name}{tag}.csv", newline="") as f:
                    rows = list(csv.DictReader(f))
                assert rows and list(rows[0]) == [f.name for f in fields(cls)]
                assert [c for c in rows[0] if not any(row[c] for row in rows)] == [], name + tag

    def test_report_reads_tables_of_older_runs(self, fabricated_run, tmp_path):
        """Tables in the former format, volumes.csv ending in an empty seconds
        column and slices.csv in an is_head_or_tail column (here flagging every
        foreground slice, which no n gives), yield the same reports."""
        written = {}
        for old in (False, True):
            run = _eval_tables(fabricated_run, tmp_path / str(old))
            if old:
                _append_column(run / "reports" / "volumes.csv", "seconds", lambda row: "")
                _append_column(run / "reports" / "slices.csv", "is_head_or_tail",
                               lambda row: str(int(int(row[3]) > 0)))
            assert main(["report", "--run", str(run)]) == 0
            written[old] = {name: (run / "reports" / name).read_bytes() for name in (
                "histogram.json", "reliability.csv", "agreement.json", "small_targets.json")}
        assert written[True] == written[False]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """phantom -> train-init -> train-primary -> infer -> eval -> report."""
    root = tmp_path_factory.mktemp("pipeline")
    data, run = root / "data", root / "run"
    assert main(["phantom", "--out", str(data), "--count", "3",
                 "--dims", "22,48,48", "--seed", "2"]) == 0
    common = ["--data", str(data), "--run", str(run)]
    assert main(["train-init", *common, "--seed", "1", "--ids", "0-1", "--base-width", "4",
                 "--sgd-epochs", "2", "--adam-epochs", "2",
                 "--val-fraction", "0.1"]) == 0
    assert main(["train-primary", *common, "--seed", "1", "--ids", "0-1",
                 "--base-width", "4", "--epochs", "3", "--val-fraction", "0.1"]) == 0
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
        primary_manifest = json.loads((run / "manifest_train_primary.json").read_text())
        assert primary_manifest["checkpoints"] == {
            "init_axial": hashlib.sha256(blob).hexdigest(),
            "primary_d1": hashlib.sha256(primary).hexdigest()}

    def test_eval_reports_exist(self, pipeline):
        _, run = pipeline
        for name in ("volumes.csv", "slices.csv", "summary.json", "volumes_init.csv",
                     "histogram.json", "reliability.csv", "agreement.json", "small_targets.json"):
            assert (run / "reports" / name).exists(), name
        assert list((run / "reports").glob("volumes_mm3*")) == []  # volumes.csv holds the mm³

    def test_volumes_on_pool_threads_bit_identical(self, pipeline, tmp_path, monkeypatch):
        if parallel._openblas() is None:
            pytest.skip("BLAS cannot be pinned, so every command runs serially")
        data, run = pipeline
        run = shutil.copytree(run, tmp_path / "run")
        common = ["--data", str(data), "--run", str(run)]
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

    def test_views_train_on_pool_threads_bit_identical(self, pipeline, tmp_path, monkeypatch):
        if parallel._openblas() is None:
            pytest.skip("BLAS cannot be pinned, so every command runs serially")
        data, _ = pipeline
        seen, train_initial = [], cli.train_initial

        def spy(*a, **kw):
            seen.append(threading.get_ident())
            return train_initial(*a, **kw)

        monkeypatch.setattr(cli, "train_initial", spy)
        outputs = []
        for cores in (1, 2):
            monkeypatch.setattr(parallel, "cores", lambda: cores)
            run = tmp_path / f"cores{cores}"
            assert main(["train-init", "--data", str(data), "--run", str(run), "--ids", "0",
                         "--views", "all", "--base-width", "4", "--sgd-epochs", "1",
                         "--adam-epochs", "1", "--val-fraction", "0.1"]) == 0
            manifest = json.loads((run / "manifest_train_init.json").read_text())
            outputs.append(({p.relative_to(run): p.read_bytes() for p in run.rglob("*.*")
                             if not p.name.startswith("manifest")}, manifest["checkpoints"]))
        serial, pooled = seen[:3], seen[3:]
        assert set(serial) == {threading.get_ident()}
        assert pooled and threading.get_ident() not in pooled
        assert len(outputs[0][0]) == 6
        assert outputs[0] == outputs[1]

    def test_eval_missing_predictions(self, pipeline):
        data, run = pipeline
        code = main(["eval", "--data", str(data), "--run", str(run), "--ids", "0"])
        assert code == 2
