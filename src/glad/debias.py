"""Background debiasing: temporal-median-filter background extraction and
background-mixup augmentation."""

from __future__ import annotations

import numpy as np

from .synthdata import VideoSample


def extract_background_tmf(video: VideoSample) -> np.ndarray:
    """Per-pixel median over the frames; even T averages the two middle
    values (numpy's convention)."""
    if video.frames.shape[0] < 1:
        raise ValueError("empty video")
    return np.median(video.frames, axis=0)


def build_background_bank(samples: list[VideoSample]) -> np.ndarray:
    """(n, D) array of the samples' backgrounds, values in [0, 1]."""
    if not samples:
        raise ValueError("empty dataset")
    return np.stack([extract_background_tmf(s) for s in samples])


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
