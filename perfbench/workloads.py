"""The three workloads: seeded inputs, rounds of real CLI commands, checks.

Every round runs the same CLI commands (``pbrseg.cli.main``, called in
process) on the same inputs, so each round attempts the same operations.
An operation is one CLI command; for ``infer`` it is one volume.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

import checks
import fixtures

PAD_FAULT = "input spatial dims must be divisible by 16"


class BenchmarkError(RuntimeError):
    """An operation failed in a way the benchmark does not account for."""


def run_cli(argv) -> tuple:
    """``pbrseg.cli.main(argv)`` in process: (exit code, stderr, seconds)."""
    from pbrseg import cli

    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue(), time.perf_counter() - t0


def must(argv) -> float:
    rc, err, seconds = run_cli(argv)
    if rc != 0:
        raise BenchmarkError(f"pbrseg {' '.join(map(str, argv))} exited {rc}: {err.strip()}")
    return seconds


class Workload:
    """Set-up, one round, and the output checks of a workload.

    A round has two stages. ``round`` returns ``(stage1, stage2,
    attempted, failed)``: lists of seconds per item of each stage, and the
    round's operation counts.
    """

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.data, self.run = work / "data", work / "run"

    def setup(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.masks = fixtures.write_phantoms(
            self.data, [(dims, (self.seed, i)) for i, dims in enumerate(self.dims)])

    def quality(self) -> tuple:
        """(refined, initial, head/tail) DSC-like quality of the last
        round; head/tail is None where no evaluation runs."""
        raise NotImplementedError


class Train(Workload):
    """Stage 1 ``train-init`` (axial), stage 2 ``train-primary`` (depth 1):
    seconds per training sample, batch 1, Adam on every sample.

    The CLI seed is fixed so that only the phantoms vary with the benchmark
    seed: the soft Dice after a few epochs depends far more on the weight
    initialisation than on the data. ``train-init`` runs three Adam epochs
    at lr 5e-4: after two its soft Dice still spread by a third across
    seeds, and at lr 1e-3 one seed in about eight collapsed to an
    all-background net.
    """

    dims = [(32, 64, 64)] * 2
    init_epochs = 3
    primary_epochs = 2

    def round(self) -> tuple:
        if self.run.exists():
            shutil.rmtree(self.run)
        common = ["--data", self.data, "--run", self.run, "--val-fraction", 0]
        init_s = must(["train-init", *common, "--sgd-epochs", 0,
                       "--adam-epochs", self.init_epochs, "--adam-lr", 5e-4])
        primary_s = must(["train-primary", *common, "--depth", 1,
                          "--epochs", self.primary_epochs])
        slices = sum(d[0] for d in self.dims)
        return ([init_s / (self.init_epochs * slices)],
                [primary_s / (self.primary_epochs * slices)], 2, 0)

    def _last_loss(self, log: str) -> float:
        with open(self.run / "reports" / log, newline="") as f:
            return float(list(csv.DictReader(f))[-1]["train_loss"])

    def quality(self) -> tuple:
        # 1 - Dice loss is the soft Dice of the last training epoch
        return (1.0 - self._last_loss("train_primary.csv"),
                1.0 - self._last_loss("train_init_axial.csv"), None)

    def check(self) -> list:
        return checks.check_train(self.run, self.seed)


class Infer(Workload):
    """Stage 1 one ``infer --ids <k>`` per held-out volume, stage 2 ``eval``
    and ``report`` over them: seconds per volume."""

    dims = [(32, 64, 64)] * 4
    nets = ("init_axial", "primary_d1")
    flags = ("--views", "axial", "--depth", 1)
    floor = 0.95

    def setup(self) -> None:
        super().setup()
        fixtures.write_checkpoints(fixtures.load_nets(self.nets), self.run / "checkpoints")

    def _infer(self, vid: str) -> tuple:
        """(seconds, ok) of one volume; a volume whose in-plane size is not
        a multiple of 16 may fail with the known padding fault."""
        k = int(vid.rsplit("_", 1)[1])
        rc, err, seconds = run_cli(["infer", "--data", self.data, "--run", self.run,
                                    "--ids", k, *self.flags])
        if rc == 0:
            return seconds, True
        in_plane = self.masks[vid].shape[1:]
        if rc == 1 and PAD_FAULT in err and any(s % 16 for s in in_plane):
            return seconds, False
        raise BenchmarkError(f"infer of {vid} exited {rc}: {err.strip()}")

    def round(self) -> tuple:
        items, ok = [], []
        for vid in self.masks:
            seconds, success = self._infer(vid)
            if success:
                items.append(seconds)
                ok.append(vid)
        if not ok:
            raise BenchmarkError("infer failed on every volume")
        ids = ",".join(str(int(v.rsplit("_", 1)[1])) for v in ok)
        seconds = must(["eval", "--data", self.data, "--run", self.run, "--ids", ids])
        seconds += must(["report", "--run", self.run])
        self.ok = ok
        return items, [seconds / len(ok)], len(self.masks) + 2, len(self.masks) - len(ok)

    def _mean_dsc(self, name: str) -> float:
        with open(self.run / "reports" / name, newline="") as f:
            return float(np.mean([float(r["dsc"]) for r in csv.DictReader(f)]))

    def quality(self) -> tuple:
        small = json.loads((self.run / "reports" / "small_targets.json").read_text())
        return (self._mean_dsc("volumes.csv"), self._mean_dsc("volumes_init.csv"),
                small["head_tail"]["mean_dsc"])

    def check(self) -> list:
        return checks.check_infer(self.run, {v: self.masks[v] for v in self.ok}, self.floor)


class Infer3View(Infer):
    """``--views all --depth 2`` on larger, non-square volumes; the last
    one's in-plane size is not a multiple of 16 but pads to the same slices."""

    dims = [(40, 96, 80)] * 2 + [(40, 90, 72)]
    nets = ("init_axial", "init_coronal", "init_sagittal", "primary_d2")
    flags = ("--views", "all", "--depth", 2)
    floor = 0.9


WORKLOADS = {"train": Train, "infer": Infer, "infer-3view": Infer3View}
