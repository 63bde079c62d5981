"""Background debiasing: temporal-median-filter background extraction and
background-mixup augmentation."""

from __future__ import annotations

import numpy as np

from .synthdata import Packed


def build_background_bank(split: Packed) -> np.ndarray:
    """(n, D) array of the split's temporal-median backgrounds, values in
    [0, 1]: the per-pixel median over each video's frames, the mean of the
    two middle values for an even length and NaN where a pixel has a NaN,
    as np.median gives them. The videos of one length are gathered as
    (g, D, T) rows and sorted in place; a sorted row's middle values are
    the ones np.median's partition selects, so the bank is bit for bit
    that of one np.median call per video."""
    lengths = split.lengths
    order = np.argsort(lengths, kind="stable")
    medians = []
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        t = int(lengths[group[0]])
        rows = split.frames[split.starts[group][:, None] + np.arange(t)].transpose(0, 2, 1).copy()
        rows.sort(axis=2)
        # the middle value of an odd length, the two middle ones of an even
        mid = rows[:, :, (t - 1) // 2:t // 2 + 1].mean(axis=2)
        medians.append(np.where(np.isnan(rows[:, :, -1]), np.nan, mid))
    bank = np.empty((len(lengths), medians[0].shape[1]), dtype=medians[0].dtype)
    bank[order] = np.concatenate(medians)
    return bank


def mix_background(frames: np.ndarray, background: np.ndarray, lam: float) -> np.ndarray:
    """Convex blend of (n, D) frames with one background:
    x~(t) = (1 - lam) * x(t) + lam * b, in the frames' dtype."""
    return ((1.0 - lam) * frames + lam * background).astype(frames.dtype)


def draw_mixes(sides, n_backgrounds: int, config,
               rng: np.random.Generator) -> list[tuple[int, int]]:
    """(slot, background) of each video to mix, in slot order, by the aug_*
    fields of a TrainConfig: a video whose side ("source" or "target") is in
    aug_domains is mixed with probability aug_probability with a uniformly
    chosen bank background."""
    mixes = []
    for slot, side in enumerate(sides):
        # random() is uniform() on [0, 1), the same draw at a third of the call cost
        if side in config.aug_domains and rng.random() < config.aug_probability:
            mixes.append((slot, int(rng.integers(0, n_backgrounds))))
    return mixes
