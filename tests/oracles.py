"""Reference implementations that the array paths of src/glad/ are tested
against: the one-clip-at-a-time samplers, the per-clip encoder and
evaluation, a step over two whole splits, the per-tensor SGD update, the
alignment loss with one classifier pass per sub-batch, the frame-by-frame
renderer and a split rendered with it one video at a time, the per-video
background median and the scene distance over one whole distance matrix;
and helpers that build a Packed split from per-video frame arrays and
take one apart again."""

import numpy as np

from glad import diffnet
from glad.gapmetrics import confusion_matrix, mean_class_accuracy
from glad.model import (GLA_VIEWS, _unit_rows, _unit_rows_backward, classify_action,
                        domain_adv_loss)
from glad.synthdata import (BLOB_AMPLITUDE, BLOB_SIZE, Packed, background_bank,
                            checkerboard, class_motion)
from glad.trainer import NumericError, step_losses


def packed(frames, labels) -> Packed:
    """A split of the (T, D) frame arrays, copied end to end in order; a
    label of None becomes -1, unlabeled."""
    lengths = np.array([len(f) for f in frames], dtype=np.int64)
    labels = np.array([-1 if label is None else label for label in labels], dtype=np.int64)
    return Packed(np.concatenate(frames), np.cumsum(lengths) - lengths, lengths, labels)


def videos_of(split: Packed) -> list:
    """Each video's (T, D) frames, as views of the split's frames."""
    return [split.frames[a:a + t] for a, t in zip(split.starts, split.lengths)]


def same_split(a: Packed, b: Packed) -> bool:
    """Whether two splits hold the same videos and labels, bit for bit."""
    return (a.frames.shape == b.frames.shape and a.frames.dtype == b.frames.dtype
            and a.frames.tobytes() == b.frames.tobytes()
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("starts", "lengths", "labels")))


def subset(split: Packed, idx) -> Packed:
    """The split's videos idx, in that order, copied into a new split."""
    videos = videos_of(split)
    return packed([videos[i] for i in idx], split.labels[list(idx)])


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
    h, _ = diffnet.mlp_forward(model.params["enc"], flat)
    pooled = h.reshape(c, nf, -1).mean(axis=1)
    return diffnet.mlp_forward(model.params["proj"], pooled)[0]


def evaluate_per_clip(model, split, n_classes: int):
    """trainer.evaluate with each video's clips sampled one at a time and
    every clip frame encoded: (confusion matrix, MCA)."""
    cfg = model.config
    stack = []
    for v in videos_of(split):
        g = list(sample_global_clip(len(v), cfg.n_frames))
        loc = list(sample_local_clip(len(v), cfg.n_frames, cfg.local_stride))
        stack += [v[g], v[loc], v[loc]]
    consensus = encode_clip_stack(model, np.array(stack)).reshape(-1, 3, cfg.feat_dim).mean(axis=1)
    cm = confusion_matrix(split.labels, np.argmax(classify_action(model, consensus), axis=1),
                          n_classes)
    return cm, mean_class_accuracy(cm)


def encoder_grads_by_repeat(model, clips: np.ndarray, rows: np.ndarray,
                            dpooled: np.ndarray) -> list:
    """Encoder parameter gradients with every clip frame its own row: the
    pooled gradient / n_f repeated over each clip's frames."""
    c, nf = clips.shape
    x = (rows[clips.ravel()].astype(np.float64) - model.config.input_center) \
        * model.config.input_gain
    _, cache = diffnet.mlp_forward(model.params["enc"], x)
    grads = [np.empty_like(p) for p in model.params["enc"]]
    diffnet.mlp_backward(model.params["enc"], cache, np.repeat(dpooled / nf, nf, axis=0), grads)
    return grads


def step_on_splits(mdl, src, tgt, config, rng, phase, bank=None):
    """step_losses with every video of each split in the batch, in order,
    and the encoder in float64, as every other part of the step."""
    return step_losses(mdl, src, tgt, (np.arange(len(src.lengths)), np.arange(len(tgt.lengths))),
                       config, rng, phase, bank, np.float64)


def sgd_step(params, grads, velocity, lr: float, momentum: float,
             weight_decay: float):
    """Heavy-ball update of one group's tensors: v' = mu*v + (g + wd*p);
    p' = p - lr*v'.

    Weight decay applies to weight matrices only, never to biases. The
    velocity list is updated in place; returns the new parameter list.
    """
    if len(params) != len(grads) or len(params) != len(velocity):
        raise ValueError("params/grads/velocity length mismatch")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in tensor {i}")
    new_params = []
    for i, (p, g, v) in enumerate(zip(params, grads, velocity)):
        eff = g + weight_decay * p if i % 2 == 0 else g  # W0, b0, W1, b1, ...
        velocity[i] = momentum * v + eff
        new_params.append(p - lr * velocity[i])
    return new_params


def gla_loss_per_subbatch(model, psi_g, psi_l, grl_coeff: float,
                          views=("gg", "ll", "cross")):
    """model.gla_loss with one domain_adv_loss call, and so one classifier
    forward and backward pass, per sub-batch, on classifier c's tensors
    sliced from the "dom" stack; the gradient of each slice goes to [c] of
    a zeroed stack."""
    unit, norms = {}, {}
    for k, psi in (("g", psi_g), ("l", psi_l)):
        unit[k], norms[k] = _unit_rows(np.asarray(psi, dtype=np.float64))
    b = len(psi_g) // 2
    total = 0.0
    clf = [np.zeros_like(p) for p in model.params["dom"]]
    logits = {}
    dpsi = {k: np.zeros_like(u) for k, u in unit.items()}
    for view, (c, pairs) in GLA_VIEWS.items():
        if view not in views:
            continue
        w = 1.0 / len(pairs)
        grads = [[np.empty_like(p[c]) for p in model.params["dom"]] for _ in pairs]
        losses, ds, zs = zip(*[
            domain_adv_loss([p[c] for p in model.params["dom"]],
                            np.concatenate([unit[s][:b], unit[t][b:]]), grl_coeff, out)
            for (s, t), out in zip(pairs, grads)])
        total += w * sum(losses)
        for out, gs in zip(clf, zip(*grads)):
            out[c] = w * sum(gs[1:], gs[0])
        for (s, t), d in zip(pairs, ds):
            dpsi[s][:b] += w * d[:b]
            dpsi[t][b:] += w * d[b:]
        logits[view] = np.stack(zs)
    for k in dpsi:
        dpsi[k] = _unit_rows_backward(unit[k], norms[k], dpsi[k])
    return total, clf, dpsi, logits


def render_video_loop(length, background, motion, rng, spec):
    """The (length, D) frames of one video of synthdata.render_block, one
    frame and one blob cell at a time, with the noise drawn by rng.normal."""
    if length < 1:
        raise ValueError("length must be >= 1")
    h, w = spec.height, spec.width
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
        for dr in range(BLOB_SIZE):
            for dc in range(BLOB_SIZE):
                frame[(r0 + dr) % h, (c0 + dc) % w] += BLOB_AMPLITUDE
        frames[t] = frame
    if spec.noise_std > 0.0:
        frames += rng.normal(0.0, spec.noise_std, size=frames.shape)
    return np.clip(frames, 0.0, 1.0).astype(np.float32).reshape(length, h * w)


def generate_domain_loop(spec):
    """(manifest entries, split) of synthdata.generate_domain, each video
    drawn from its own rng and rendered alone by render_video_loop."""
    bank, checker = background_bank(spec), checkerboard(spec)
    entries, videos, offset = [], [], 0
    for i in range(spec.n_videos):
        rng = np.random.default_rng((spec.seed, 1, i))
        label = i % spec.n_classes
        length = int(rng.integers(spec.length_range[0], spec.length_range[1] + 1))
        if spec.background_mode == "fixed_checkerboard":
            bg = checker
        elif rng.uniform() < spec.bias_rho:
            bg = bank[label % spec.bank_size]
        else:
            bg = bank[int(rng.integers(0, spec.bank_size))]
        motion = class_motion(label, spec, rng)
        videos.append(render_video_loop(length, bg, motion, rng, spec))
        entries.append({"video_id": f"{spec.domain}-{i:05d}", "label": label,
                        "length": length, "offset": offset})
        offset += length * spec.frame_dim * 4
    return entries, packed(videos, [e["label"] for e in entries])


def extract_background_tmf(frames: np.ndarray) -> np.ndarray:
    """Per-pixel median over one video's (T, D) frames; even T averages the
    two middle values (numpy's convention)."""
    if frames.shape[0] < 1:
        raise ValueError("empty video")
    return np.median(frames, axis=0)


def unit_rows(x) -> np.ndarray:
    """x's rows over their L2 norms, in float64: the scene features that
    cli.scene_features_of makes of a background bank."""
    x = np.asarray(x, dtype=np.float64)
    return x / np.linalg.norm(x, axis=1)[:, None]


def scene_distance_one_matrix(u: np.ndarray, v: np.ndarray) -> float:
    """gapmetrics.scene_distance over the whole (L_S, L_T) distance matrix
    of two sets of unit rows (normalizing them again would move last bits)."""
    d = 1.0 - u @ v.T  # (L_S, L_T)
    return 0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean())
