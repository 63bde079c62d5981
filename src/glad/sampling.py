"""Clip index sampling: global clips (one frame per equal segment) and local
clips (consecutive strided frames), for a whole batch of videos at once."""

from __future__ import annotations

import numpy as np


def clip_indices(lengths: np.ndarray, n_frames: int, stride: int, n_global: int,
                 n_local: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """(V, n_global + n_local, n_frames) frame indices of each video's global
    clips (one frame per equal segment of [0, T)), then its local clips
    (frames `stride` apart, clamped to T-1). With an rng a global frame is
    uniform in its segment and a local start uniform where the clip fits;
    without one they are the segment centre and the centred start. The draws
    are one rng.integers call over the bounds of each global frame, then each
    local start with a choice, video by video: the stream of scalar calls.
    """
    t = np.asarray(lengths, dtype=np.int64)[:, None]
    edges = np.arange(n_frames + 1) * t // n_frames
    lo = edges[:, :-1]
    hi = np.maximum(lo + 1, edges[:, 1:])
    span = stride * (n_frames - 1)
    n, g = len(t), n_global * n_frames
    out = np.empty((n, n_global + n_local, n_frames), np.int64)
    if rng is None:
        out[:, :n_global] = ((lo + hi - 1) // 2)[:, None]
        start = np.maximum(0, (t - 1 - span) // 2)[:, :, None]
    else:
        low = np.zeros((n, g + n_local), np.int64)
        high = np.empty_like(low)
        low[:, :g].reshape(n, n_global, n_frames)[:] = lo[:, None]
        high[:, :g].reshape(n, n_global, n_frames)[:] = hi[:, None]
        high[:, g:] = t - span
        drawn = high > low  # every global frame; a local start where the clip fits
        low[drawn] = rng.integers(low[drawn], high[drawn])
        out[:, :n_global] = low[:, :g].reshape(n, n_global, n_frames)
        start = low[:, g:, None]
    np.minimum(start + stride * np.arange(n_frames), t[:, :, None] - 1, out=out[:, n_global:])
    return out
