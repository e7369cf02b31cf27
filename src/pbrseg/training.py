"""Dice-loss training loops for the view nets and the refinement net."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops, parallel
from .errors import ConfigError, DataError, NumericalError
from .hybrid import SweepConfig, build_hybrid
from .metrics import array_dsc
from .optim import init_optimizer, optimizer_step
from .preprocess import augment
from .pvol import ProbVolume
from .unet import UNet, UNetConfig, build_unet, pad_to_divisor
from .views import VIEWS, estimate_initial, view_slices

ANNEAL = 0.5  # learning-rate factor after `patience` epochs without improvement


@dataclass(frozen=True)
class Phase:
    optimizer: str
    lr: float
    epochs: int


@dataclass(frozen=True)
class TrainSchedule:
    phases: tuple
    val_fraction: float = 0.01
    patience: int = 20
    augment: bool = False


@dataclass
class EpochLog:
    epoch: int
    phase: str
    lr: float = field(metadata={"format": ".8f"})
    train_loss: float
    val_dice: float = None


def _subseed(*entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


@parallel.pinned_blas()  # batch-1 products are too small to gain from BLAS threads
def fit(net: UNet, samples, targets, schedule: TrainSchedule, seed: int) -> list:
    """Train in place with batch size 1; returns the per-epoch log.

    Samples and targets of any in-plane size are zero-padded once, up
    front, with ``pad_to_divisor``; the Dice loss includes that zero frame.

    A held-out fraction of samples is scored with hard Dice after each
    epoch; the learning rate halves when the monitored quantity (val Dice,
    or negative train loss when the split is empty) stops improving for
    `patience` epochs. The weights from the best-monitored epoch are
    restored before returning, so a late-phase divergence cannot erase
    earlier progress.
    """
    n = len(samples)
    if n == 0:
        raise DataError("empty training set")
    if len(targets) != n:
        raise ConfigError(f"{n} samples but {len(targets)} targets")
    samples = [pad_to_divisor(x) for x in samples]
    targets = [pad_to_divisor(t) for t in targets]
    n_val = int(round(schedule.val_fraction * n))
    n_val = min(n_val, n - 1)
    perm = np.random.default_rng(np.random.SeedSequence([seed, 0])).permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    logs = []
    epoch = 0
    best = -np.inf
    best_params = None
    for phase in schedule.phases:
        state = init_optimizer(phase.optimizer, net.params, phase.lr)
        since = 0
        for _ in range(phase.epochs):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 1, epoch]))
            losses = []
            for j in train_idx[rng.permutation(len(train_idx))]:
                x, t = samples[j], targets[j]
                if schedule.augment:
                    x, t = augment(x, t, _subseed(seed, 2, epoch, int(j)))
                y = net.forward(x[None], train=True)
                loss, gy = ops.dice_loss_grad(y, t[None, None].astype(y.dtype))
                if not np.isfinite(loss):
                    raise NumericalError(f"non-finite training loss at epoch {epoch}")
                grads, _ = net.backward(gy)
                net.params, state = optimizer_step(net.params, grads, state)
                losses.append(loss)
            val_dice = None
            if n_val:
                scores = []
                for j in val_idx:
                    y = net.forward(samples[j][None])
                    scores.append(array_dsc(y[0, 0] > 0.5, targets[j] > 0.5))
                val_dice = float(np.mean(scores))
            train_loss = float(np.mean(losses))
            logs.append(EpochLog(epoch, phase.optimizer, state.lr, train_loss, val_dice))
            monitor = val_dice if n_val else -train_loss
            if monitor > best + 1e-12:
                best = monitor
                best_params = {k: p.copy() for k, p in net.params.items()}
                since = 0
            else:
                since += 1
                if since >= schedule.patience:
                    state.lr *= ANNEAL
                    since = 0
            epoch += 1
    if best_params is not None:
        net.params = best_params
    return logs


def _view_samples(dataset, view: str):
    """Oriented (1,h,w) slices with matching mask targets."""
    samples, targets = [], []
    for v, m in dataset:
        samples += list(view_slices(v.data, view))
        targets += list(view_slices(m.data, view)[:, 0])
    return samples, targets


def train_initial(dataset, view: str, schedule: TrainSchedule, seed: int,
                  base_width: int = UNetConfig.base_width):
    """Train one single-channel view net on preprocessed (volume, mask)
    pairs; returns (net, epoch logs)."""
    if not dataset:
        raise DataError("empty dataset")
    samples, targets = _view_samples(dataset, view)
    vi = VIEWS.index(view)
    net = build_unet(UNetConfig(in_channels=1, base_width=base_width),
                     seed=_subseed(seed, 10, vi))
    logs = fit(net, samples, targets, schedule, _subseed(seed, 11, vi))
    return net, logs


def train_primary(dataset, init_nets: dict, depth: int, schedule: TrainSchedule, seed: int,
                  teacher_forced: bool = False, base_width: int = UNetConfig.base_width):
    """Train the (2d+1)-channel refinement net; returns (net, epoch logs).

    Hybrid samples are built once from the fused initial maps and never
    updated during training; the recurrent propagation happens only at
    inference. With `teacher_forced` the neighbor channels carry ground
    truth instead of estimated maps (ablation mode).
    """
    SweepConfig(depth=depth)  # refuses a depth no sweep takes, before any map is estimated
    samples, targets = [], []
    for v, m in dataset:
        if teacher_forced:
            p = ProbVolume(m.data.astype(np.float32), m.spacing)
        else:
            p = estimate_initial(init_nets, v)
        stack = build_hybrid(v, p, depth)
        for t in range(len(stack)):
            samples.append(stack.sample(t))
            targets.append(m.data[t].astype(np.float32))
    net = build_unet(UNetConfig(in_channels=2 * depth + 1, base_width=base_width),
                     seed=_subseed(seed, 20))
    logs = fit(net, samples, targets, schedule, _subseed(seed, 21))
    return net, logs
