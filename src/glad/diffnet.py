"""Minimal differentiable MLP core: dense layers, a batched softmax loss,
gradient reversal, and momentum SGD, all with hand-coded gradients.

Everything operates on plain numpy arrays. Parameters for an MLP are stored
as a flat list [W0, b0, W1, b1, ...] with W of shape (d_in, d_out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

class ShapeError(ValueError):
    """Input or parameter shapes do not match the MLP spec."""


class NonFiniteGradientError(FloatingPointError):
    """A gradient contained NaN or inf; the optimizer step was aborted."""


@dataclass(frozen=True)
class MlpSpec:
    """Dense layers with ReLU between them and a linear output layer."""
    layer_widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.layer_widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(w <= 0 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1


def init_mlp(spec: MlpSpec, rng: np.random.Generator, scale: float | None = None):
    """He-style initialization; biases start at zero."""
    params = []
    for d_in, d_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        s = scale if scale is not None else np.sqrt(2.0 / d_in)
        params.append(rng.normal(0.0, s, size=(d_in, d_out)))
        params.append(np.zeros(d_out))
    return params


def mlp_forward(spec: MlpSpec, params, x: np.ndarray):
    """Forward pass over a (n, d_in) batch.

    Returns (output, cache); the cache holds per-layer inputs and outputs
    for the backward pass.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.layer_widths[0]:
        raise ShapeError(f"input shape {x.shape} != (n, {spec.layer_widths[0]})")
    inputs = []
    outputs = []
    h = x
    for i in range(spec.n_layers):
        inputs.append(h)
        h = h @ params[2 * i]
        h += params[2 * i + 1]  # in place: a fresh array costs more than the addition
        if i < spec.n_layers - 1:
            np.maximum(h, 0.0, out=h)
        outputs.append(h)
    return h, {"inputs": inputs, "outputs": outputs}


def mlp_backward(spec: MlpSpec, params, cache, upstream: np.ndarray,
                 input_grad: bool = True):
    """Backprop an upstream gradient through the cached forward pass.

    Returns (param_grads, input_grad) with the same shapes as params/input;
    the input gradient is None, and not computed, when input_grad is False.
    """
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != cache["outputs"][-1].shape:
        raise ShapeError(f"upstream shape {g.shape} != output {cache['outputs'][-1].shape}")
    grads: list = [None] * (2 * spec.n_layers)
    for i in reversed(range(spec.n_layers)):
        if i < spec.n_layers - 1:  # g is this pass's own array here
            np.multiply(g, cache["outputs"][i] > 0.0, out=g)
        h = cache["inputs"][i]
        grads[2 * i] = h.T @ g
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ params[2 * i].T if i or input_grad else None
    return grads, g


def softmax_cross_entropy_batch(logits: np.ndarray, targets: np.ndarray):
    """Per-sample losses and logit gradients for a (B, K) batch."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    rows = np.arange(logits.shape[0])
    losses = np.log(e.sum(axis=1)) - z[rows, targets]
    grads = e / e.sum(axis=1, keepdims=True)
    grads[rows, targets] -= 1.0
    return losses, grads


def grl_backward(upstream: np.ndarray, coefficient: float) -> np.ndarray:
    """Gradient reversal: identity forward, -coefficient * upstream backward."""
    if not np.isfinite(coefficient):
        raise ValueError("GRL coefficient must be finite")
    return -coefficient * np.asarray(upstream)


def sgd_step(params, grads, velocity, lr: float, momentum: float,
             weight_decay: float):
    """Heavy-ball update: v' = mu*v + (g + wd*p); p' = p - lr*v'.

    Weight decay applies to weight matrices only, never to biases. The
    velocity list is updated in place; returns the new parameter list.
    """
    if len(params) != len(grads) or len(params) != len(velocity):
        raise ShapeError("params/grads/velocity length mismatch")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in tensor {i}")
    new_params = []
    for i, (p, g, v) in enumerate(zip(params, grads, velocity)):
        eff = g + weight_decay * p if p.ndim > 1 else g
        velocity[i] = momentum * v + eff
        new_params.append(p - lr * velocity[i])
    return new_params
