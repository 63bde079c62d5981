"""Clip index sampling (uniform/global and dense/local) and permutation
encoding for temporal order prediction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PermutationLabel:
    n: int
    perm: tuple[int, ...]
    index: int


def sample_global_clip(T: int, n_frames: int, mode: str = "eval",
                       rng: np.random.Generator | None = None) -> tuple[int, ...]:
    """One frame per equal-sized segment of [0, T). Train mode draws uniformly
    within each segment; eval mode takes segment centers. Short videos repeat
    indices via clamping."""
    if T < 1 or n_frames < 1:
        raise ValueError("T and n_frames must be >= 1")
    idx = []
    for k in range(n_frames):
        lo = (k * T) // n_frames
        hi = max(lo + 1, ((k + 1) * T) // n_frames)
        if mode == "train":
            if rng is None:
                raise ValueError("train mode needs an rng")
            i = int(rng.integers(lo, hi))
        else:
            i = (lo + hi - 1) // 2
        idx.append(min(i, T - 1))
    return tuple(idx)


def sample_local_clip(T: int, n_frames: int, stride: int, mode: str = "eval",
                      rng: np.random.Generator | None = None) -> tuple[int, ...]:
    """Consecutive strided frames from a start point (random in train mode,
    centered in eval mode); indices past the end clamp to T-1."""
    if T < 1 or n_frames < 1 or stride < 1:
        raise ValueError("T, n_frames, stride must be >= 1")
    span = stride * (n_frames - 1)
    if T > span:
        if mode == "train":
            if rng is None:
                raise ValueError("train mode needs an rng")
            start = int(rng.integers(0, T - span))
        else:
            start = max(0, (T - 1 - span) // 2)
    else:
        start = 0
    return tuple(min(start + stride * k, T - 1) for k in range(n_frames))


def permutation_encode(perm) -> int:
    """Lexicographic (Lehmer code) index of a permutation of 0..n-1."""
    perm = list(perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
    index = 0
    remaining = list(range(n))
    for i, p in enumerate(perm):
        r = remaining.index(p)
        index += r * math.factorial(n - 1 - i)
        remaining.pop(r)
    return index


def permutation_decode(index: int, n: int) -> tuple[int, ...]:
    if not 0 <= index < math.factorial(n):
        raise ValueError(f"index {index} out of range for n={n}")
    remaining = list(range(n))
    perm = []
    for i in range(n):
        f = math.factorial(n - 1 - i)
        r, index = divmod(index, f)
        perm.append(remaining.pop(r))
    return tuple(perm)


def shuffle_clips(features, rng: np.random.Generator):
    """Apply a uniformly random permutation to a list of clip features.

    Output position j holds input perm[j]; the label records the permutation
    and its lexicographic index.
    """
    n = len(features)
    if n < 2:
        raise ValueError("need at least 2 clips to shuffle")
    perm = tuple(int(x) for x in rng.permutation(n))
    shuffled = [features[p] for p in perm]
    return shuffled, PermutationLabel(n, perm, permutation_encode(perm))
