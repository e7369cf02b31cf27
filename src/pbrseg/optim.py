"""SGD and Adam parameter updates over named parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    kind: str
    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_optimizer(kind, params, lr):
    """Create zeroed optimizer state for a named parameter dict."""
    if kind not in ("sgd", "adam"):
        raise ConfigError(f"unknown optimizer kind '{kind}'")
    state = OptimizerState(kind=kind, lr=float(lr))
    if kind == "adam":
        for name, p in params.items():
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
    return state


def optimizer_step(params, grads, state):
    """Apply one in-place update; returns (params, state).

    Aborts with NumericalError on any non-finite gradient so a diverging
    run fails loudly instead of poisoning the weights.
    """
    for name in params:
        if name not in grads:
            raise ConfigError(f"missing gradient for parameter '{name}'")
        if not np.all(np.isfinite(grads[name])):
            raise NumericalError(f"non-finite gradient for parameter '{name}'")
    if state.kind == "sgd":
        for name, p in params.items():
            p -= state.lr * grads[name]
        return params, state
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state
