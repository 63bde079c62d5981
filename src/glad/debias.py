"""Background debiasing: temporal-median-filter background extraction and
background-mixup augmentation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .synthdata import VideoSample


@dataclass(frozen=True)
class AugmentationPolicy:
    probability: float = 0.25
    lambda_mode: str = "fixed"  # "fixed" or "uniform"
    lambda_value: float = 0.75
    domains: tuple[str, ...] = ("source",)

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.lambda_mode not in ("fixed", "uniform"):
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")
        if not 0.0 <= self.lambda_value <= 1.0:
            raise ValueError("lambda must be in [0, 1]")


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


def mix_background(video: VideoSample, background: np.ndarray, lam: float) -> VideoSample:
    """Convex blend of every frame with one background:
    x~(t) = (1 - lam) * x(t) + lam * b."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    bg = np.asarray(background)
    if bg.shape != (video.frames.shape[1],):
        raise ValueError(f"background shape {bg.shape} != (D,)={video.frames.shape[1]}")
    mixed = ((1.0 - lam) * video.frames + lam * bg[None, :]).astype(video.frames.dtype)
    return VideoSample(frames=mixed, label=video.label, domain=video.domain,
                       video_id=video.video_id)


def apply_augmentation_policy(batch: list[VideoSample], bank: np.ndarray,
                              policy: AugmentationPolicy,
                              rng: np.random.Generator) -> list[VideoSample]:
    """Independently mix each eligible sample with a uniformly chosen bank
    background with the configured probability. Labels, lengths, and domain
    tags are never altered."""
    if bank.shape[0] == 0:
        raise ValueError("empty background bank")
    out = []
    for sample in batch:
        if sample.domain not in policy.domains or rng.uniform() >= policy.probability:
            out.append(sample)
            continue
        bg = bank[int(rng.integers(0, bank.shape[0]))]
        lam = policy.lambda_value if policy.lambda_mode == "fixed" else float(rng.uniform())
        out.append(mix_background(sample, bg, lam))
    return out

