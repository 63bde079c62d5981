"""Background debiasing: temporal-median-filter background extraction and
background-mixup augmentation."""

from __future__ import annotations

import numpy as np

from .synthdata import VideoSample


def build_background_bank(samples: list[VideoSample]) -> np.ndarray:
    """(n, D) array of the samples' temporal-median backgrounds, values in
    [0, 1]: the per-pixel median over each video's frames, the mean of the
    two middle values for an even length and NaN where a pixel has a NaN,
    as np.median gives them. The videos of one length are stacked as
    (g, D, T) rows and sorted in place; a sorted row's middle values are
    the ones np.median's partition selects, so the bank is bit for bit
    that of one np.median call per video."""
    if not samples:
        raise ValueError("empty dataset")
    lengths = np.array([s.frames.shape[0] for s in samples])
    if lengths.min() < 1:
        raise ValueError("empty video")
    order = np.argsort(lengths, kind="stable")
    medians = []
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        rows = np.stack([samples[i].frames.T for i in group])
        rows.sort(axis=2)
        t = rows.shape[2]
        # the middle value of an odd length, the two middle ones of an even
        mid = rows[:, :, (t - 1) // 2:t // 2 + 1].mean(axis=2)
        medians.append(np.where(np.isnan(rows[:, :, -1]), np.nan, mid))
    bank = np.empty((len(samples), medians[0].shape[1]), dtype=medians[0].dtype)
    bank[order] = np.concatenate(medians)
    return bank


def mix_background(frames: np.ndarray, background: np.ndarray, lam: float) -> np.ndarray:
    """Convex blend of (n, D) frames with one background:
    x~(t) = (1 - lam) * x(t) + lam * b, in the frames' dtype."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    bg = np.asarray(background)
    if bg.shape != (frames.shape[1],):
        raise ValueError(f"background shape {bg.shape} != (D,)={frames.shape[1]}")
    return ((1.0 - lam) * frames + lam * bg[None, :]).astype(frames.dtype)


def draw_mixes(domains, n_backgrounds: int, config,
               rng: np.random.Generator) -> list[tuple[int, int, float]]:
    """(slot, background, lambda) of each video to mix, in slot order, by the
    aug_* fields of a TrainConfig: a video whose domain is in aug_domains is
    mixed with probability aug_probability with a uniformly chosen bank
    background, and lambda is aug_lambda or, in "uniform" mode, drawn."""
    if n_backgrounds == 0:
        raise ValueError("empty background bank")
    mixes = []
    for slot, domain in enumerate(domains):
        # random() is uniform() on [0, 1), the same draw at a third of the call cost
        if domain in config.aug_domains and rng.random() < config.aug_probability:
            bg = int(rng.integers(0, n_backgrounds))
            lam = config.aug_lambda if config.aug_lambda_mode == "fixed" else rng.random()
            mixes.append((slot, bg, lam))
    return mixes
