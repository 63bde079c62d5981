"""Reference implementations that the array paths of src/glad/ are tested
against: the one-clip-at-a-time samplers, the per-clip encoder, a step on
plain lists of videos, the frame-by-frame renderer and the per-video
background median."""

import numpy as np

from glad import diffnet
from glad.synthdata import VideoSample, pack
from glad.trainer import step_losses


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


def encode_clip_stack(model, clip_frames: np.ndarray) -> np.ndarray:
    """(C, F) features of a (C, n_f, D) clip stack, encoding every clip
    frame, shared or not."""
    cfg = model.config
    c, nf, d = clip_frames.shape
    flat = (clip_frames.reshape(c * nf, d).astype(np.float64) - cfg.input_center) * cfg.input_gain
    h, _ = diffnet.mlp_forward(model.specs["enc"], model.params["enc"], flat)
    pooled = h.reshape(c, nf, -1).mean(axis=1)
    return diffnet.mlp_forward(model.specs["proj"], model.params["proj"], pooled)[0]


def encoder_grads_by_repeat(model, clips: np.ndarray, rows: np.ndarray,
                            dpooled: np.ndarray) -> list:
    """Encoder parameter gradients with every clip frame its own row: the
    pooled gradient / n_f repeated over each clip's frames."""
    c, nf = clips.shape
    x = (rows[clips.ravel()].astype(np.float64) - model.config.input_center) \
        * model.config.input_gain
    _, cache = diffnet.mlp_forward(model.specs["enc"], model.params["enc"], x)
    return diffnet.mlp_backward(model.specs["enc"], model.params["enc"], cache,
                                np.repeat(dpooled / nf, nf, axis=0))[0]


def step_on_lists(mdl, src_batch, tgt_batch, config, rng, phase, bank=None):
    """step_losses on two lists of videos, each its own packed domain."""
    return step_losses(mdl, pack(src_batch), pack(tgt_batch),
                       (np.arange(len(src_batch)), np.arange(len(tgt_batch))),
                       config, rng, phase, bank)


def render_video_loop(class_id, length, background, motion, rng, spec,
                      domain=None, video_id="v"):
    """synthdata.render_video one frame and one blob cell at a time."""
    if length < 1:
        raise ValueError("length must be >= 1")
    h, w = spec.height, spec.width
    if motion.blob_size >= min(h, w):
        raise ValueError("blob larger than canvas")
    bg = np.asarray(background, dtype=np.float64).reshape(h, w)
    if bg.min() < 0.0 or bg.max() > 1.0:
        raise ValueError("background values must be in [0, 1]")
    omega = motion.speed / motion.radius
    frames = np.empty((length, h, w), dtype=np.float64)
    for t in range(length):
        frame = bg.copy()
        theta = motion.phase + omega * t
        r0 = int(np.floor(motion.center_row + motion.radius * np.sin(theta))) % h
        c0 = int(np.floor(motion.center_col + motion.radius * np.cos(theta))) % w
        for dr in range(motion.blob_size):
            for dc in range(motion.blob_size):
                frame[(r0 + dr) % h, (c0 + dc) % w] += motion.amplitude
        frames[t] = frame
    if spec.noise_std > 0.0:
        frames += rng.normal(0.0, spec.noise_std, size=frames.shape)
    frames = np.clip(frames, 0.0, 1.0).astype(np.float32)
    return VideoSample(frames=frames.reshape(length, h * w), label=class_id,
                       domain=domain or spec.domain, video_id=video_id)


def extract_background_tmf(video: VideoSample) -> np.ndarray:
    """Per-pixel median over one video's frames; even T averages the two
    middle values (numpy's convention)."""
    if video.frames.shape[0] < 1:
        raise ValueError("empty video")
    return np.median(video.frames, axis=0)
