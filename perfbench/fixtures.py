"""Fixture nets for the infer workloads.

The infer workloads load fixed, pre-trained nets instead of training their
own, so their timings and DSC do not move when only training code changes.
``make_nets`` trains them once through the real CLI from a fixed seed and
stores the weights under ``perfbench/nets`` as float16 ``.npz`` files (half
the bytes of float32; every run loads the same float16-rounded values).
Storing plain named arrays rather than PBRW bytes keeps the fixtures valid
across checkpoint-format changes: each run writes them out with the
program's own ``UNet.save``. Run ``make_nets`` again only when parameter
names or shapes change.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

NETS_DIR = Path(__file__).resolve().parent / "nets"
NET_NAMES = ("init_axial", "init_coronal", "init_sagittal", "primary_d1", "primary_d2")

# training set of the fixture nets: square phantoms like the infer workload
# and non-square ones like infer-3view, from seeds the workloads never use
FIXTURE_SEED = 90210
FIXTURE_SETS = (((32, 64, 64), 8), ((40, 96, 80), 4))


def write_phantoms(data_dir: Path, specs) -> dict:
    """Write seeded phantoms as phantom_<i>.pvol pairs, one per ``(dims,
    entropy)`` in ``specs``; returns the masks by volume id."""
    from pbrseg.phantom import PhantomSpec, gen_phantom
    from pbrseg.pvol import write_pvol_file

    data_dir.mkdir(parents=True, exist_ok=True)
    masks = {}
    for i, (dims, entropy) in enumerate(specs):
        seed = int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])
        v, m = gen_phantom(PhantomSpec(seed=seed, dims=tuple(dims)))
        write_pvol_file(data_dir / f"phantom_{i:03d}.pvol", v)
        write_pvol_file(data_dir / f"phantom_{i:03d}_mask.pvol", m)
        masks[f"phantom_{i:03d}"] = m.data
    return masks


def _ids(ids) -> str:
    return ",".join(str(i) for i in ids)


def make_nets(work: Path) -> None:
    """Train the five fixture nets through the CLI and store them."""
    from pbrseg import cli
    from pbrseg.checkpoint import load_checkpoint

    if work.exists():
        shutil.rmtree(work)
    data, run = work / "data", work / "run"
    write_phantoms(data, [(dims, (FIXTURE_SEED, set_no, k))
                          for set_no, (dims, count) in enumerate(FIXTURE_SETS)
                          for k in range(count)])
    square = range(FIXTURE_SETS[0][1])
    common = ["--data", str(data), "--run", str(run), "--seed", str(FIXTURE_SEED),
              "--val-fraction", "0"]
    steps = [
        ["train-init", *common, "--views", "all", "--sgd-epochs", "3", "--adam-epochs", "4"],
        ["train-primary", *common, "--ids", _ids(square), "--views", "axial", "--depth", "1"],
        ["train-primary", *common, "--views", "all", "--depth", "2"],
    ]
    for argv in steps:
        print("pbrseg", " ".join(argv), flush=True)
        rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"fixture training step failed with exit {rc}: {argv}")
    NETS_DIR.mkdir(parents=True, exist_ok=True)
    for name in NET_NAMES:
        cp = load_checkpoint((run / "checkpoints" / f"{name}.pbrw").read_bytes())
        np.savez_compressed(NETS_DIR / f"{name}.npz",
                            **{k: v.astype(np.float16) for k, v in cp.params.items()})
        meta = {"in_channels": cp.in_channels, "base_width": cp.base_width,
                "names": list(cp.params)}
        (NETS_DIR / f"{name}.json").write_text(json.dumps(meta, indent=1) + "\n")
    shutil.rmtree(work)


def load_nets(names=NET_NAMES) -> dict:
    """Fixture nets as ``UNet`` objects (float32)."""
    from pbrseg.unet import UNet, UNetConfig

    nets = {}
    for name in names:
        meta = json.loads((NETS_DIR / f"{name}.json").read_text())
        with np.load(NETS_DIR / f"{name}.npz") as z:
            params = {k: z[k].astype(np.float32) for k in meta["names"]}
        config = UNetConfig(in_channels=meta["in_channels"], base_width=meta["base_width"])
        nets[name] = UNet(config, params)
    return nets


def write_checkpoints(nets: dict, ckpt_dir: Path) -> None:
    """Write nets as the program's own checkpoint files."""
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    for name, net in nets.items():
        (ckpt_dir / f"{name}.pbrw").write_bytes(net.save())
