"""Minimal differentiable MLP core: dense layers, a batched softmax loss and
gradient reversal, all with hand-coded gradients.

Everything operates on plain numpy arrays. Parameters for an MLP are stored
as a flat list [W0, b0, W1, b1, ...] with W of shape (d_in, d_out).
"""

from __future__ import annotations

import numpy as np


def init_mlp(widths: tuple, rng: np.random.Generator, scale: float | None = None):
    """He-style initialization of dense layers of the given widths, input
    first; biases start at zero."""
    params = []
    for d_in, d_out in zip(widths[:-1], widths[1:]):
        s = scale if scale is not None else np.sqrt(2.0 / d_in)
        params.append(rng.normal(0.0, s, size=(d_in, d_out)))
        params.append(np.zeros(d_out))
    return params


def mlp_forward(params, x: np.ndarray, out=None):
    """Forward pass of the len(params) // 2 dense layers, with ReLU between
    them and a linear output layer, over a (n, d_in) batch, or over a
    (P, n, d_in) stack through P MLPs at once: params then holds
    (P, d_in, d_out) weights and (P, 1, d_out) biases. Layer i writes its
    output into out[i] when out is given.

    Returns (output, cache); the cache holds per-layer inputs and outputs
    for the backward pass. The arithmetic runs in the dtype of x and params.
    """
    x = np.asarray(x)
    inputs = []
    outputs = []
    h = x
    last = len(params) // 2 - 1
    for i in range(last + 1):
        inputs.append(h)
        h = np.matmul(h, params[2 * i], out=None if out is None else out[i])
        h += params[2 * i + 1]  # in place: a fresh array costs more than the addition
        if i < last:
            np.maximum(h, 0.0, out=h)
        outputs.append(h)
    return h, {"inputs": inputs, "outputs": outputs}


def mlp_backward(params, cache, upstream: np.ndarray, grads, input_grad: bool = True, out=None):
    """Backprop an upstream gradient through the cached forward pass.

    Writes each parameter's gradient, computed in the forward pass's dtype,
    into the array at its position in grads, and returns the input gradient:
    None, and not computed, when input_grad is False. The gradient at layer
    i's input is written into out[i] when out is given and out[i] is not None.
    """
    g = np.asarray(upstream)
    last = len(params) // 2 - 1
    for i in range(last, -1, -1):
        if i < last:  # g is this pass's own array here
            np.multiply(g, cache["outputs"][i] > 0.0, out=g)
        np.matmul(cache["inputs"][i].swapaxes(-1, -2), g, out=grads[2 * i])
        bias = grads[2 * i + 1]  # (d_out,), or with the summed axis kept
        np.add.reduce(g, axis=-2, dtype=g.dtype, keepdims=bias.ndim == g.ndim, out=bias)
        g = np.matmul(g, params[2 * i].swapaxes(-1, -2),
                      out=None if out is None else out[i]) if i or input_grad else None
    return g


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
    return -coefficient * np.asarray(upstream)
