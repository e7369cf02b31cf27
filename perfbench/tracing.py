"""Spans around the public functions and methods of every ``pbrseg`` module.

The tracer works from outside the program: ``install`` replaces module
attributes (``pbrseg.ops.conv2d``, ``pbrseg.cli.evaluate_volume``, ...)
and a few class attributes (``UNet.forward``, ``HybridStack.sample``) with
wrappers that record a span per call. A function imported by name into
another module (``from .hybrid import infer_pbr``) is replaced there too,
so every call path goes through its wrapper. ``src/`` is not edited.

A span is ``[name, start, end, parent, root, attrs]``: ``parent`` and
``root`` are indices into ``Tracer.spans`` (``root`` is the round or
set-up span the call ran under) and ``attrs`` holds shapes or counts read
from the arguments, or the exception type of a call that raised. Spans stay in memory and are written once, by
``Tracer.write``, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time

LAYERS = ("ops", "unet", "optim", "training", "views", "hybrid", "metrics",
          "pvol", "checkpoint", "preprocess", "phantom", "cli")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.enabled = False
        self._stack = []

    def open(self, name: str, attrs=None) -> list:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else index
        rec = [name, time.perf_counter(), None, parent, root, attrs]
        self._stack.append(index)
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, on=True):
        """Record the block as one root span (a set-up or a round) when
        ``on``, with wrapped calls traced inside it; yields the span's
        index, or None."""
        if not on:
            yield None
            return
        index = len(self.spans)
        rec = self.open(name)
        self.enabled = True
        try:
            yield index
        finally:
            self.enabled = False
            self.close(rec)

    def call(self, name, fn, attrs_of, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = self.open(name)
        try:
            out = fn(*args, **kwargs)
        except Exception as e:
            rec[5] = {"error": type(e).__name__}
            raise
        finally:
            self.close(rec)
        if attrs_of is not None:
            rec[5] = attrs_of(args, kwargs, out)
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, root, attrs in self.spans:
                f.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                    "end": end, "parent": parent, "root": root,
                                    "attrs": attrs}) + "\n")


# -- attributes read from call arguments ------------------------------------

def _conv_attrs(args, kwargs, out):
    x, weight = args[0], args[1]
    y = out[0]
    n, oc, oh, ow = y.shape
    _, ic, kh, kw = weight.shape
    return {"h": x.shape[2], "flop": 2 * n * oc * oh * ow * ic * kh * kw}


def _conv_backward_attrs(args, kwargs, out):
    gy, cache = args[0], args[1]
    x_shape, weight = cache[0], cache[3]
    n, oc, oh, ow = gy.shape
    _, ic, kh, kw = weight.shape
    # input gradient and weight gradient each cost one forward's multiply-adds
    return {"h": x_shape[2], "flop": 4 * n * oc * oh * ow * ic * kh * kw}


def _forward_attrs(args, kwargs, out):
    x = args[1]
    train = args[2] if len(args) > 2 else kwargs.get("train", False)
    return {"n": x.shape[0], "h": x.shape[2], "train": bool(train)}


def _backward_attrs(args, kwargs, out):
    gy = args[1]
    return {"n": gy.shape[0], "h": gy.shape[2]}


def _sweep_attrs(args, kwargs, out):
    direction = args[2] if len(args) > 2 else kwargs["direction"]
    return {"direction": direction, "slices": len(args[1])}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


ATTRS = {
    "ops.conv2d": _conv_attrs,
    "ops.conv2d_backward": _conv_backward_attrs,
    "unet.UNet.forward": _forward_attrs,
    "unet.UNet.backward": _backward_attrs,
    "hybrid.sweep": _sweep_attrs,
    "pvol.read_pvol_file": _file_bytes,
    "pvol.write_pvol_file": _file_bytes,
}

METHODS = (("unet", "UNet", "forward"), ("unet", "UNet", "backward"),
           ("unet", "UNet", "save"), ("unet", "UNet", "load"),
           ("hybrid", "HybridStack", "sample"))


def _wrap(tracer: Tracer, name: str, fn):
    attrs_of = ATTRS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, attrs_of, args, kwargs)
    return wrapper


def install(tracer: Tracer):
    """Wrap every public function of each layer module; returns an undo
    callable that puts the original attributes back."""
    import pbrseg

    for info in pkgutil.iter_modules(pbrseg.__path__):
        importlib.import_module(f"pbrseg.{info.name}")
    modules = [m for n, m in sys.modules.items()
               if n == "pbrseg" or n.startswith("pbrseg.")]
    wrappers = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = sys.modules[f"pbrseg.{layer}"]
        for attr, val in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(val)
                    and val.__module__ == mod.__name__):
                wrappers[id(val)] = (val, _wrap(tracer, f"{layer}.{attr}", val))
    kdtree = sys.modules["pbrseg.metrics"].cKDTree
    wrappers[id(kdtree)] = (kdtree, _wrap(tracer, "metrics.cKDTree", kdtree))

    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, val))
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"pbrseg.{layer}"], cls_name)
        raw = cls.__dict__[meth]
        name = f"{layer}.{cls_name}.{meth}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, name, raw.__func__))
        else:
            wrapped = _wrap(tracer, name, raw)
        setattr(cls, meth, wrapped)
        undo.append((cls, meth, raw))

    def restore():
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)
    return restore


# -- per-layer metrics --------------------------------------------------------

LEVELS = (64, 32, 16, 8, 4)  # resolution levels, named by size on a 64-px slice
REPORT_FUNCS = ("metrics.small_target_report", "metrics.dsc_histogram",
                "metrics.reliability_curve", "metrics.volume_agreement",
                "metrics.summarize", "metrics.write_volume_csv",
                "metrics.write_slice_csv")
PER_ROUND = {  # metric -> span whose seconds per round it reports
    "ops.transposed_conv2d.s": "ops.transposed_conv2d",
    "ops.transposed_conv2d_backward.s": "ops.transposed_conv2d_backward",
    "ops.maxpool2x2.s": "ops.maxpool2x2",
    "ops.maxpool2x2_backward.s": "ops.maxpool2x2_backward",
    "ops.activation.s": "ops.activation",
    "ops.activation_backward.s": "ops.activation_backward",
    "ops.dice_loss_grad.s": "ops.dice_loss_grad",
    "unet.load.s": "unet.UNet.load",
    "training.fit.s": "training.fit",
    "views.estimate_initial.s": "views.estimate_initial",
    "views.slice_views.s": "views.slice_views",
    "views.predict_view.s": "views.predict_view",
    "views.fuse_views.s": "views.fuse_views",
    "hybrid.sample.s": "hybrid.HybridStack.sample",
    "hybrid.update_map.s": "hybrid.update_map",
    "hybrid.build_hybrid.s": "hybrid.build_hybrid",
    "hybrid.binarize.s": "hybrid.binarize",
    "metrics.evaluate_volume.s": "metrics.evaluate_volume",
    "metrics.hausdorff.s": "metrics.hausdorff",
    "metrics.evaluate_slices.s": "metrics.evaluate_slices",
    "pvol.read.s": "pvol.read_pvol_file",
    "pvol.write.s": "pvol.write_pvol_file",
    "checkpoint.load_checkpoint.s": "checkpoint.load_checkpoint",
    "checkpoint.save_checkpoint.s": "checkpoint.save_checkpoint",
    "checkpoint.checkpoint_digest.s": "checkpoint.checkpoint_digest",
    "preprocess.preprocess.s": "preprocess.preprocess",
    "cli.train_init.s": "cli.cmd_train_init",
    "cli.train_primary.s": "cli.cmd_train_primary",
    "cli.infer.s": "cli.cmd_infer",
    "cli.eval.s": "cli.cmd_eval",
    "cli.report.s": "cli.cmd_report",
}
CALLS_PER_ROUND = {
    "optim.optimizer_step.calls": "optim.optimizer_step",
    "hybrid.sample.calls": "hybrid.HybridStack.sample",
    "metrics.kdtree_builds": "metrics.cKDTree",
    "preprocess.preprocess.calls": "preprocess.preprocess",
}


def _level(spans, i: int) -> int:
    """Resolution level of an op span: log2 of the enclosing net input's
    size over the op input's size."""
    h = spans[i][5]["h"]
    p = spans[i][3]
    while p is not None and spans[p][0] not in ("unet.UNet.forward", "unet.UNet.backward"):
        p = spans[p][3]
    if p is None:
        return 0
    ratio = spans[p][5]["h"] // h
    return min(max(ratio.bit_length() - 1, 0), len(LEVELS) - 1)


def layer_metrics(tracer: Tracer, rounds, setups) -> dict:
    """Per-layer figures from the spans under the given root spans: times
    and counts per round (per set-up for phantom generation)."""
    spans = tracer.spans
    rounds, setups = set(rounds), set(setups)
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    secs, calls = {}, {}
    conv = {k: [0.0] * len(LEVELS) for k in ("ops.conv2d", "ops.conv2d_backward")}
    flop = {k: 0 for k in conv}
    fwd = {"b1": [0.0, 0], "b8": [0.0, 0], "train": [0.0, 0], "backward": [0.0, 0]}
    sweep = {"forward": 0.0, "backward": 0.0, "slices": 0}
    gen_s = fit_self = cli_self = 0.0
    n_bytes = n_spans = 0
    for i, (name, start, end, parent, root, attrs) in enumerate(spans):
        d = end - start
        if root in setups:
            gen_s += d if name == "phantom.gen_phantom" else 0.0
            continue
        if root not in rounds or i == root:
            continue
        n_spans += 1
        secs[name] = secs.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        if name.startswith("cli."):
            cli_self += d - child[i]
        if attrs is not None and "error" in attrs:
            continue  # a call that raised has no shapes to tally
        if name in conv:
            conv[name][_level(spans, i)] += d
            flop[name] += attrs["flop"]
        elif name == "unet.UNet.forward":
            key = "train" if attrs["train"] else ("b1" if attrs["n"] == 1 else "b8")
            fwd[key][0] += d
            fwd[key][1] += attrs["n"]
        elif name == "unet.UNet.backward":
            fwd["backward"][0] += d
            fwd["backward"][1] += attrs["n"]
        elif name == "hybrid.sweep":
            sweep[attrs["direction"]] += d
            sweep["slices"] += attrs["slices"]
        elif name == "training.fit":
            fit_self += d - child[i]
        elif name in ("pvol.read_pvol_file", "pvol.write_pvol_file"):
            n_bytes += attrs["bytes"]

    r = max(len(rounds), 1)
    out = {}
    for key in conv:
        for lv, size in enumerate(LEVELS):
            out[f"{key}.s.r{size}"] = conv[key][lv] / r
        out[f"{key}.gflop"] = flop[key] / 1e9 / r
        busy = sum(conv[key])
        out[f"{key}.gflop_per_s"] = flop[key] / 1e9 / busy if busy else 0.0
    for metric, span in PER_ROUND.items():
        out[metric] = secs.get(span, 0.0) / r
    for metric, span in CALLS_PER_ROUND.items():
        out[metric] = calls.get(span, 0) / r

    def per_sample_ms(key):
        s, n = fwd[key]
        return 1000.0 * s / n if n else 0.0
    out["unet.forward.ms_per_sample.b1"] = per_sample_ms("b1")
    out["unet.forward.ms_per_sample.b8"] = per_sample_ms("b8")
    out["unet.forward_train.ms_per_sample"] = per_sample_ms("train")
    out["unet.backward.ms_per_sample"] = per_sample_ms("backward")
    steps = calls.get("optim.optimizer_step", 0)
    out["optim.optimizer_step.ms"] = (1000.0 * secs.get("optim.optimizer_step", 0.0) / steps
                                      if steps else 0.0)
    out["training.fit.samples"] = fwd["train"][1] / r
    out["training.fit.self_s"] = fit_self / r
    out["hybrid.sweep.forward.s"] = sweep["forward"] / r
    out["hybrid.sweep.backward.s"] = sweep["backward"] / r
    swept = sweep["forward"] + sweep["backward"]
    out["hybrid.sweep.slices_per_s"] = sweep["slices"] / swept if swept else 0.0
    out["metrics.report.s"] = sum(secs.get(f, 0.0) for f in REPORT_FUNCS) / r
    out["pvol.bytes"] = n_bytes / r
    out["phantom.gen_phantom.s"] = gen_s / max(len(setups), 1)
    out["cli.uncovered_s"] = cli_self / r
    out["trace.spans"] = n_spans / r
    return out
