"""Central finite-difference check of hand-written gradients."""

import numpy as np


def finite_difference_check(loss_fn, params, grads, eps: float = 1e-5) -> float:
    """Max relative error between analytic grads and central differences.

    loss_fn(params) must be deterministic and scalar-valued; relative error
    uses |analytic - numeric| / max(1, |analytic|) per scalar parameter.
    """
    worst = 0.0
    for p, g in zip(params, grads):
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
