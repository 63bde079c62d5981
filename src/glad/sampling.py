"""Clip index sampling: global (one frame per equal segment) and local
(consecutive strided frames) clips."""

from __future__ import annotations

import numpy as np


def sample_global_clip(T: int, n_frames: int,
                       rng: np.random.Generator | None = None) -> tuple[int, ...]:
    """One frame per equal-sized segment of [0, T). With an rng each frame is
    drawn uniformly within its segment (training); without one it is the
    segment center (inference). Short videos repeat indices via clamping."""
    if T < 1 or n_frames < 1:
        raise ValueError("T and n_frames must be >= 1")
    idx = []
    for k in range(n_frames):
        lo = (k * T) // n_frames
        hi = max(lo + 1, ((k + 1) * T) // n_frames)
        if rng is not None:
            i = int(rng.integers(lo, hi))
        else:
            i = (lo + hi - 1) // 2
        idx.append(min(i, T - 1))
    return tuple(idx)


def sample_local_clip(T: int, n_frames: int, stride: int,
                      rng: np.random.Generator | None = None) -> tuple[int, ...]:
    """Consecutive strided frames from a start point (drawn with an rng,
    centered without one); indices past the end clamp to T-1."""
    if T < 1 or n_frames < 1 or stride < 1:
        raise ValueError("T, n_frames, stride must be >= 1")
    span = stride * (n_frames - 1)
    if T <= span:
        start = 0
    elif rng is not None:
        start = int(rng.integers(0, T - span))
    else:
        start = max(0, (T - 1 - span) // 2)
    return tuple(min(start + stride * k, T - 1) for k in range(n_frames))
