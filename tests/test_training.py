"""Training loop behavior on small synthetic workloads."""

import csv

import numpy as np
import pytest

from pbrseg import parallel, training
from pbrseg.cli import build_parser
from pbrseg.errors import ConfigError, DataError, NumericalError
from pbrseg.metrics import write_csv
from pbrseg.phantom import gen_dataset
from pbrseg.preprocess import preprocess
from pbrseg.training import EpochLog, Phase, TrainSchedule, fit, train_initial, train_primary
from pbrseg.unet import UNetConfig, build_unet


@pytest.fixture(scope="module")
def blob_data():
    """Bright 6x6 squares at random offsets: trivially learnable."""
    rng = np.random.default_rng(0)
    samples, targets = [], []
    for _ in range(8):
        img = rng.normal(0, 0.3, size=(16, 16)).astype(np.float32)
        y0, x0 = rng.integers(2, 8, size=2)
        msk = np.zeros((16, 16), dtype=np.float32)
        msk[y0:y0 + 6, x0:x0 + 6] = 1.0
        img += 2.0 * msk
        samples.append(img[None])
        targets.append(msk)
    return samples, targets


def _hard_dice(net, samples, targets):
    scores = []
    for x, t in zip(samples, targets):
        p = net.forward(x[None])[0, 0] > 0.5
        g = t > 0.5
        tot = p.sum() + g.sum()
        scores.append(1.0 if tot == 0 else 2.0 * (p & g).sum() / tot)
    return float(np.mean(scores))


def test_loss_decreases_and_overfits(blob_data):
    samples, targets = blob_data
    net = build_unet(UNetConfig(1, base_width=4), seed=0)
    sched = TrainSchedule((Phase("adam", 1e-2, 20),), val_fraction=0.0)
    logs = fit(net, samples, targets, sched, seed=0)
    assert len(logs) == 20
    assert logs[-1].train_loss < 0.5 * logs[0].train_loss
    assert _hard_dice(net, samples, targets) >= 0.9


def test_sgd_phase_trains(blob_data):
    samples, targets = blob_data
    net = build_unet(UNetConfig(1, base_width=4), seed=0)
    sched = TrainSchedule((Phase("sgd", 5e-3, 8),), val_fraction=0.0)
    logs = fit(net, samples, targets, sched, seed=0)
    assert logs[-1].train_loss < logs[0].train_loss


def test_deterministic(blob_data):
    samples, targets = blob_data
    sched = TrainSchedule((Phase("adam", 1e-2, 3),), val_fraction=0.25)
    nets = []
    for _ in range(2):
        net = build_unet(UNetConfig(1, base_width=4), seed=0)
        fit(net, samples, targets, sched, seed=3)
        nets.append(net)
    for k in nets[0].params:
        assert np.array_equal(nets[0].params[k], nets[1].params[k])


def test_fit_pinned_matches_unpinned_bitwise(monkeypatch):
    """fit runs with BLAS on one thread; a run on BLAS's own pool (the pin
    disabled) ends with byte-identical weights."""
    blas = parallel._openblas()
    if blas is None:
        pytest.skip("BLAS cannot be pinned")
    rng = np.random.default_rng(1)
    samples = [rng.standard_normal((1, 64, 64)).astype(np.float32) for _ in range(3)]
    targets = [(x[0] > 0.5).astype(np.float32) for x in samples]
    sched = TrainSchedule((Phase("sgd", 5e-3, 1), Phase("adam", 1e-3, 1)), val_fraction=0.0)
    seen, step = [], training.optimizer_step

    def spy(*args):
        seen.append(blas[0]())
        return step(*args)

    monkeypatch.setattr(training, "optimizer_step", spy)
    checkpoints = []
    for pinnable in (True, False):
        if not pinnable:
            monkeypatch.setattr(parallel, "_openblas", lambda: None)
        net = build_unet(UNetConfig(1, base_width=8), seed=0)
        fit(net, samples, targets, sched, seed=0)
        checkpoints.append(net.save())
    assert seen == [1] * 6 + [blas[0]()] * 6
    assert checkpoints[0] == checkpoints[1]


def test_best_weights_restored(blob_data):
    """A destructive extra phase must not survive: the returned weights
    come from the best-validation epoch, so adding a bad phase after a
    good one yields bit-identical parameters."""
    samples, targets = blob_data
    good = (Phase("adam", 1e-2, 6),)
    nets = []
    for phases in (good, good + (Phase("adam", 0.5, 2),)):
        net = build_unet(UNetConfig(1, base_width=4), seed=0)
        logs = fit(net, samples, targets,
                   TrainSchedule(phases, val_fraction=0.25), seed=3)
        nets.append((net, logs))
    (net_a, logs_a), (net_b, logs_b) = nets
    # the extra phase really did degrade validation before being discarded
    assert logs_b[-1].val_dice < max(l.val_dice for l in logs_a)
    for k in net_a.params:
        assert np.array_equal(net_a.params[k], net_b.params[k])


def test_lr_anneals_on_plateau(blob_data):
    samples, targets = blob_data
    # learning rate too small to move the monitor: anneal every epoch
    sched = TrainSchedule((Phase("sgd", 1e-12, 4),), val_fraction=0.25, patience=1)
    net = build_unet(UNetConfig(1, base_width=4), seed=0)
    logs = fit(net, samples, targets, sched, seed=3)
    lrs = [l.lr for l in logs]
    assert lrs == [1e-12, 1e-12, 5e-13, 2.5e-13]


def test_augment_path_runs_and_is_deterministic(blob_data):
    samples, targets = blob_data
    sched = TrainSchedule((Phase("adam", 1e-3, 2),), val_fraction=0.0, augment=True)
    outs = []
    for _ in range(2):
        net = build_unet(UNetConfig(1, base_width=4), seed=0)
        fit(net, samples, targets, sched, seed=5)
        outs.append(net.forward(samples[0][None]))
    np.testing.assert_array_equal(outs[0], outs[1])


def test_empty_dataset_rejected():
    net = build_unet(UNetConfig(1, base_width=4), seed=0)
    with pytest.raises(DataError):
        fit(net, [], [], TrainSchedule((Phase("sgd", 1e-3, 1),)), seed=0)


def test_length_mismatch_rejected(blob_data):
    samples, targets = blob_data
    net = build_unet(UNetConfig(1, base_width=4), seed=0)
    with pytest.raises(ConfigError):
        fit(net, samples, targets[:-1], TrainSchedule((Phase("sgd", 1e-3, 1),)), seed=0)


def test_non_finite_sample_raises(blob_data):
    samples, targets = blob_data
    samples = [s.copy() for s in samples]
    for s in samples:
        s[0, 0, 0] = np.nan  # poison every sample so the shuffle cannot dodge it
    net = build_unet(UNetConfig(1, base_width=4), seed=0)
    with pytest.raises(NumericalError):
        fit(net, samples, targets, TrainSchedule((Phase("sgd", 1e-3, 1),),
                                                 val_fraction=0.0), seed=0)


def test_val_dice_logged_only_with_split(blob_data):
    samples, targets = blob_data
    net = build_unet(UNetConfig(1, base_width=4), seed=0)
    logs = fit(net, samples, targets,
               TrainSchedule((Phase("adam", 1e-3, 1),), val_fraction=0.0), seed=0)
    assert logs[0].val_dice is None
    net = build_unet(UNetConfig(1, base_width=4), seed=0)
    logs = fit(net, samples, targets,
               TrainSchedule((Phase("adam", 1e-3, 1),), val_fraction=0.25), seed=0)
    assert 0.0 <= logs[0].val_dice <= 1.0


def test_write_train_log(tmp_path, blob_data):
    samples, targets = blob_data
    net = build_unet(UNetConfig(1, base_width=4), seed=0)
    logs = fit(net, samples, targets,
               TrainSchedule((Phase("adam", 1e-3, 2),), val_fraction=0.0), seed=0)
    path = tmp_path / "log.csv"
    write_csv(logs, path, EpochLog)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert [r["lr"] for r in rows] == ["0.00100000"] * 2  # 8 decimals, not the default 6
    assert rows[0]["phase"] == "adam"
    assert rows[0]["val_dice"] == ""
    assert float(rows[1]["train_loss"]) == pytest.approx(logs[1].train_loss, abs=1e-6)


def test_schedules():
    # the CLI's default epoch budget stays desk-sized: <= 30+40 and <= 50 epochs
    parser = build_parser()
    where = ["--data", "d", "--run", "r"]
    init = parser.parse_args(["train-init", *where])
    assert init.sgd_epochs <= 30 and init.adam_epochs <= 40
    assert parser.parse_args(["train-primary", *where]).epochs <= 50


@pytest.fixture(scope="module")
def tiny_dataset():
    raw = gen_dataset(2, base_seed=11, dims=(22, 48, 48))
    return [(preprocess(v), m) for v, m in raw]


def test_train_initial_smoke(tiny_dataset):
    sched = TrainSchedule((Phase("adam", 1e-3, 1),), val_fraction=0.0)
    net, logs = train_initial(tiny_dataset, "axial", sched, seed=0, base_width=4)
    assert net.in_channels == 1
    assert len(logs) == 1
    out = net.forward(np.zeros((1, 1, 48, 48), dtype=np.float32))
    assert out.shape == (1, 1, 48, 48)


def test_train_initial_rejects_bad_view(tiny_dataset):
    sched = TrainSchedule((Phase("adam", 1e-3, 1),))
    with pytest.raises(ConfigError):
        train_initial(tiny_dataset, "oblique", sched, seed=0)
    with pytest.raises(DataError):
        train_initial([], "axial", sched, seed=0)


def test_train_primary_teacher_forced_smoke(tiny_dataset):
    sched = TrainSchedule((Phase("adam", 1e-3, 1),), val_fraction=0.0)
    net, logs = train_primary(tiny_dataset, {}, depth=2, schedule=sched, seed=0,
                              teacher_forced=True, base_width=4)
    assert net.in_channels == 5
    assert len(logs) == 1


@pytest.mark.parametrize("depth", [0, 4])
def test_train_primary_refuses_a_depth_no_sweep_takes(tiny_dataset, monkeypatch, depth):
    """train_primary builds only the nets a sweep can run (SweepConfig refuses
    depth 4, a 9-channel net), and refuses any other depth before a map is
    estimated or a net trained."""
    def never(*args, **kwargs):
        raise AssertionError("ran before the depth was checked")

    monkeypatch.setattr(training, "estimate_initial", never)
    monkeypatch.setattr(training, "fit", never)
    sched = TrainSchedule((Phase("adam", 1e-3, 1),), val_fraction=0.0)
    for teacher_forced in (False, True):
        with pytest.raises(ConfigError, match=f"guidance depth must be 1, 2 or 3, got {depth}"):
            train_primary(tiny_dataset, {"axial": None}, depth, sched, seed=0,
                          teacher_forced=teacher_forced, base_width=4)


def test_train_primary_uses_init_nets(tiny_dataset):
    sched = TrainSchedule((Phase("adam", 1e-3, 1),), val_fraction=0.0)
    init = build_unet(UNetConfig(1, base_width=4), seed=1)
    net, _ = train_primary(tiny_dataset, {"axial": init}, depth=1, schedule=sched,
                           seed=0, base_width=4)
    assert net.in_channels == 3
