"""Domain-gap measurements: symmetric minimum scene-feature distance,
1-D earth mover's distance between length distributions, mean class
accuracy, and the supervised/source-only accuracy gap."""

from __future__ import annotations

import numpy as np


# scene_distance's blocks hold about SCENE_BLOCK dot products (4 MB of
# float64) as whole source rows, a multiple of SCENE_ROW_ALIGN of them; the
# last block also takes the rest. BLAS kernels tile rows by 8 or 12 and use
# other kernels for a few rows, so only so is each dot product the one-matrix
# product's, bit for bit (under one BLAS thread, as more split rows by count).
SCENE_BLOCK = 1 << 19
SCENE_ROW_ALIGN = 48


def _scene_rows(n_cols: int) -> int:
    """Source rows per block of scene_distance against n_cols target rows."""
    return max(SCENE_ROW_ALIGN, SCENE_BLOCK // n_cols // SCENE_ROW_ALIGN * SCENE_ROW_ALIGN)


def scene_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric average of per-item minimum cosine distances between two
    (L, D) float64 sets of unit rows, d(u, v) = 1 - u.v. Row maxima and
    running column maxima of a.b^T are taken over blocks of source rows, so
    this allocates one block, never the (L_S, L_T) matrix; min(1 - x) is
    1 - max(x) exactly, as rounding is monotone."""
    step = _scene_rows(len(b))
    row_max, col_max = np.empty(len(a)), np.full(len(b), -np.inf)
    starts = [k * step for k in range(max(1, len(a) // step))]
    for i, j in zip(starts, starts[1:] + [len(a)]):
        dots = a[i:j] @ b.T
        dots.max(axis=1, out=row_max[i:j])
        np.maximum(col_max, dots.max(axis=0), out=col_max)
    return 0.5 * ((1.0 - row_max).mean() + (1.0 - col_max).mean())


def temporal_distance(lengths_p, lengths_q) -> float:
    """Exact EMD between two empirical 1-D distributions: the integral of
    |CDF_p - CDF_q| over the merged breakpoints."""
    p = np.sort(np.asarray(lengths_p, dtype=np.float64))
    q = np.sort(np.asarray(lengths_q, dtype=np.float64))
    xs = np.union1d(p, q)
    if xs.size == 1:
        return 0.0
    cdf_p = np.searchsorted(p, xs, side="right") / p.size
    cdf_q = np.searchsorted(q, xs, side="right") / q.size
    return float(np.sum(np.abs(cdf_p[:-1] - cdf_q[:-1]) * np.diff(xs)))


def confusion_matrix(true_labels, pred_labels, n_classes: int) -> np.ndarray:
    """Counts with rows = ground truth, columns = prediction."""
    keys = np.asarray(true_labels, dtype=np.int64) * n_classes + np.asarray(pred_labels)
    return np.bincount(keys, minlength=n_classes * n_classes).reshape(n_classes, n_classes)


def mean_class_accuracy(cm: np.ndarray) -> float:
    """Unweighted mean of per-class accuracies, in percent; every class
    must have a sample (callers check the split where it enters)."""
    return float(np.mean(np.diag(cm) / cm.sum(axis=1)) * 100.0)


def accuracy_gap(mca_supervised_target: float, mca_source_only: float) -> float:
    """Supervised-target MCA minus source-only MCA, in percentage points."""
    return mca_supervised_target - mca_source_only

