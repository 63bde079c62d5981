"""Minimal differentiable MLP core: dense layers, softmax losses, gradient
reversal, and momentum SGD, all with hand-coded gradients.

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


def _check_params(spec: MlpSpec, params) -> None:
    if len(params) != 2 * spec.n_layers:
        raise ShapeError(
            f"expected {2 * spec.n_layers} parameter tensors, got {len(params)}"
        )
    for i, (d_in, d_out) in enumerate(zip(spec.layer_widths[:-1], spec.layer_widths[1:])):
        if params[2 * i].shape != (d_in, d_out):
            raise ShapeError(f"layer {i}: weight shape {params[2 * i].shape} != {(d_in, d_out)}")
        if params[2 * i + 1].shape != (d_out,):
            raise ShapeError(f"layer {i}: bias shape {params[2 * i + 1].shape} != {(d_out,)}")


def mlp_forward(spec: MlpSpec, params, x: np.ndarray):
    """Forward pass over a (n, d_in) batch.

    Returns (output, cache); the cache holds per-layer inputs and outputs
    for the backward pass.
    """
    _check_params(spec, params)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.layer_widths[0]:
        raise ShapeError(f"input shape {x.shape} != (n, {spec.layer_widths[0]})")
    inputs = []
    outputs = []
    h = x
    for i in range(spec.n_layers):
        inputs.append(h)
        h = h @ params[2 * i] + params[2 * i + 1]
        if i < spec.n_layers - 1:
            h = np.maximum(h, 0.0)
        outputs.append(h)
    return h, {"inputs": inputs, "outputs": outputs}


def mlp_apply(spec: MlpSpec, params, x: np.ndarray) -> np.ndarray:
    return mlp_forward(spec, params, x)[0]


def mlp_backward(spec: MlpSpec, params, cache, upstream: np.ndarray):
    """Backprop an upstream gradient through the cached forward pass.

    Returns (param_grads, input_grad) with the same shapes as params/input.
    """
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape != cache["outputs"][-1].shape:
        raise ShapeError(f"upstream shape {g.shape} != output {cache['outputs'][-1].shape}")
    grads: list = [None] * (2 * spec.n_layers)
    for i in reversed(range(spec.n_layers)):
        if i < spec.n_layers - 1:
            g = g * (cache["outputs"][i] > 0.0)
        h = cache["inputs"][i]
        grads[2 * i] = h.T @ g
        grads[2 * i + 1] = g.sum(axis=0)
        g = g @ params[2 * i].T
    return grads, g


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, target: int):
    """Loss and gradient w.r.t. the logits for a single class target.

    grad = softmax(logits) - onehot(target), so its components sum to zero.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ShapeError("empty logits")
    if not 0 <= target < logits.shape[-1]:
        raise IndexError(f"target {target} out of range for {logits.shape[-1]} classes")
    p = softmax(logits)
    z = logits - np.max(logits)
    loss = float(np.log(np.exp(z).sum()) - z[target])
    grad = p.copy()
    grad[target] -= 1.0
    return loss, grad


def softmax_cross_entropy_batch(logits: np.ndarray, targets: np.ndarray):
    """Per-sample losses and logit gradients for a (B, K) batch."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(logits.shape[0])
    losses = lse - z[rows, targets]
    grads = softmax(logits)
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


def finite_difference_check(loss_fn, params, grads, eps: float = 1e-5) -> float:
    """Max relative error between analytic grads and central differences.

    loss_fn(params) must be deterministic and scalar-valued; relative error
    uses |analytic - numeric| / max(1, |analytic|) per scalar parameter.
    """
    worst = 0.0
    for t, (p, g) in enumerate(zip(params, grads)):
        flat = p.ravel()
        gflat = np.asarray(g).ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            lp = loss_fn(params)
            flat[j] = orig - eps
            lm = loss_fn(params)
            flat[j] = orig
            numeric = (lp - lm) / (2.0 * eps)
            err = abs(gflat[j] - numeric) / max(1.0, abs(gflat[j]))
            worst = max(worst, err)
    return worst
