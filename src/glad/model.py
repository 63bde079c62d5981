"""GLAD model: frame-MLP feature extractor with mean pooling, linear action
head, three adversarial domain classifiers behind a gradient reversal layer,
clip-order head, and the deterministic inference clips.

Parameters live in a dict of named groups; every loss function returns the
scalar loss together with gradient contributions that the trainer
accumulates before a single SGD step.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import diffnet
from .diffnet import MlpSpec
from .sampling import sample_global_clip, sample_local_clip

MAX_ORDER_CLIPS = 4  # N! output width; larger N is rejected


@dataclass(frozen=True)
class ModelConfig:
    frame_dim: int = 64
    enc_hidden: int = 64
    enc_out: int = 32
    feat_dim: int = 32
    n_classes: int = 12
    n_frames: int = 8
    local_stride: int = 2
    tol_clips: int = 3
    tol_hidden: int = 64
    domain_hidden: tuple[int, int, int] = (64, 64, 32)
    # input centering/gain and a wider projection init keep the pinned SGD
    # hyperparameters effective at desk scale
    input_center: float = 0.5
    input_gain: float = 4.0
    proj_init_scale: float = 1.0

    def __post_init__(self):
        if self.tol_clips < 2 or self.tol_clips > MAX_ORDER_CLIPS:
            raise ValueError(f"tol_clips must be in [2, {MAX_ORDER_CLIPS}]")


@dataclass
class GladModel:
    config: ModelConfig
    specs: dict
    params: dict  # group name -> list of arrays

    def zero_grads(self) -> dict:
        return {k: [np.zeros_like(p) for p in v] for k, v in self.params.items()}


def _specs(cfg: ModelConfig) -> dict:
    dh = cfg.domain_hidden
    n_perm = math.factorial(cfg.tol_clips)
    return {
        "enc": MlpSpec((cfg.frame_dim, cfg.enc_hidden, cfg.enc_out)),
        "proj": MlpSpec((cfg.enc_out, cfg.feat_dim)),
        "act": MlpSpec((cfg.feat_dim, cfg.n_classes)),
        "tol": MlpSpec((cfg.feat_dim * cfg.tol_clips, cfg.tol_hidden, n_perm)),
        # domain classifiers emit logits; the sigmoid lives inside the
        # binary cross-entropy below, computed in logit space for stability
        "dg": MlpSpec((cfg.feat_dim, dh[0], dh[1], dh[2], 1)),
        "dl": MlpSpec((cfg.feat_dim, dh[0], dh[1], dh[2], 1)),
        "dx": MlpSpec((cfg.feat_dim, dh[0], dh[1], dh[2], 1)),
    }


def init_glad_model(cfg: ModelConfig, seed: int = 0) -> GladModel:
    rng = np.random.default_rng((seed, 0xD0))
    specs = _specs(cfg)
    params = {name: diffnet.init_mlp(spec, rng) for name, spec in specs.items()}
    params["proj"] = diffnet.init_mlp(specs["proj"], rng, scale=cfg.proj_init_scale)
    return GladModel(config=cfg, specs=specs, params=params)


def accumulate(grads: dict, group: str, contribution) -> None:
    for g, c in zip(grads[group], contribution):
        g += c


# ---------------------------------------------------------------------------
# Feature extraction

def encode_clip_batch(model: GladModel, clip_frames: np.ndarray):
    """Encode (C, n_f, D) clip frames into (C, F) features.

    Per-frame encoder shared across frames, mean over the clip's frames,
    then a linear projection.
    """
    cfg = model.config
    c, nf, d = clip_frames.shape
    flat = clip_frames.reshape(c * nf, d).astype(np.float64)
    flat = (flat - cfg.input_center) * cfg.input_gain
    h, enc_cache = diffnet.mlp_forward(model.specs["enc"], model.params["enc"], flat)
    pooled = h.reshape(c, nf, -1).mean(axis=1)
    feats, proj_cache = diffnet.mlp_forward(model.specs["proj"], model.params["proj"], pooled)
    cache = {"enc": enc_cache, "proj": proj_cache, "shape": (c, nf)}
    return feats, cache


def encode_clip_backward(model: GladModel, cache, dfeats: np.ndarray, grads: dict) -> None:
    c, nf = cache["shape"]
    proj_grads, dpooled = diffnet.mlp_backward(
        model.specs["proj"], model.params["proj"], cache["proj"], dfeats)
    accumulate(grads, "proj", proj_grads)
    dflat = np.repeat(dpooled / nf, nf, axis=0)
    enc_grads, _ = diffnet.mlp_backward(
        model.specs["enc"], model.params["enc"], cache["enc"], dflat)
    accumulate(grads, "enc", enc_grads)


# ---------------------------------------------------------------------------
# Losses


def domain_adv_loss(spec: MlpSpec, params, psi_batch: np.ndarray, grl_coeff: float):
    """Adversarial loss for one temporal view over a batch of 2B view
    features (first B source, last B target).

    The classifier output F = sigmoid(z); -log F and -log(1 - F) are
    evaluated as softplus terms on the logit z so saturated samples keep
    finite, exact gradients. Returns (loss, classifier_grads, dpsi, z) where
    classifier_grads descend the loss (discriminator improves), dpsi is the
    gradient reaching the feature extractor after passing the reversal
    layer, and z holds the 2B logits (positive means "source").
    """
    psi_batch = np.asarray(psi_batch, dtype=np.float64)
    two_b = psi_batch.shape[0]
    if two_b == 0 or two_b % 2 != 0:
        raise ValueError("batch must hold B source then B target entries")
    b = two_b // 2
    z, cache = diffnet.mlp_forward(spec, params, psi_batch)
    z = z[:, 0]
    # -log sigmoid(z) = softplus(-z); -log(1 - sigmoid(z)) = softplus(z)
    loss = (np.logaddexp(0.0, -z[:b]).sum() + np.logaddexp(0.0, z[b:]).sum()) / two_b
    sig = 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
    dz = np.empty(two_b)
    dz[:b] = (sig[:b] - 1.0) / two_b
    dz[b:] = sig[b:] / two_b
    clf_grads, dpsi = diffnet.mlp_backward(spec, params, cache, dz[:, None])
    return float(loss), clf_grads, diffnet.grl_backward(dpsi, grl_coeff), z


def _unit_rows(x: np.ndarray):
    norms = np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-8)
    return x / norms, norms


def _unit_rows_backward(y: np.ndarray, norms: np.ndarray, dy: np.ndarray):
    # y = x/||x||; dx = (dy - y (y.dy)) / ||x||
    return (dy - y * np.sum(y * dy, axis=1, keepdims=True)) / norms


# view -> (classifier group, sub-batches); each sub-batch names the stream
# that gives its source rows, then the stream that gives its target rows
GLA_VIEWS = {"gg": ("dg", (("g", "g"),)),
             "ll": ("dl", (("l", "l"),)),
             "cross": ("dx", (("g", "l"), ("l", "g")))}


def gla_loss(model: GladModel, psi_g, psi_l, grl_coeff: float,
             views=("gg", "ll", "cross")):
    """Sum of the enabled per-view adversarial terms.

    psi_g and psi_l are the (2B, F) global and local view features, source
    rows first; a stream that no enabled view uses may be None. View
    features are L2-normalized before the domain classifiers, which keeps
    the min-max game bounded (the reversal layer otherwise inflates feature
    norms without limit). The cross term runs two sub-batches through the
    same classifier -- {source global vs target local} and {source local vs
    target global} -- and averages them. Returns (loss, clf_grads_by_group,
    dpsi_by_stream, logits_by_view) where dpsi["g"]/dpsi["l"] are the
    (2B, F) reversal-scaled gradients of the given streams and
    logits_by_view[v] is the (sub-batches, 2B) array of the classifier's
    logits.
    """
    unit, norms = {}, {}
    for k, psi in (("g", psi_g), ("l", psi_l)):
        if psi is not None:
            unit[k], norms[k] = _unit_rows(np.asarray(psi, dtype=np.float64))
    b = len(next(iter(unit.values()))) // 2
    total = 0.0
    clf = {}
    logits = {}
    dpsi = {k: np.zeros_like(u) for k, u in unit.items()}
    for view, (group, pairs) in GLA_VIEWS.items():
        if view not in views:
            continue
        w = 1.0 / len(pairs)
        losses, grads, ds, zs = zip(*[
            domain_adv_loss(model.specs[group], model.params[group],
                            np.concatenate([unit[s][:b], unit[t][b:]]), grl_coeff)
            for s, t in pairs])
        total += w * sum(losses)
        clf[group] = [w * sum(gs[1:], gs[0]) for gs in zip(*grads)]
        for (s, t), d in zip(pairs, ds):
            dpsi[s][:b] += w * d[:b]
            dpsi[t][b:] += w * d[b:]
        logits[view] = np.stack(zs)
    for k in dpsi:
        dpsi[k] = _unit_rows_backward(unit[k], norms[k], dpsi[k])
    return total, clf, dpsi, logits


def tol_loss(model: GladModel, shuffled_concat: np.ndarray, perm_indices: np.ndarray):
    """Clip-order loss over 2B samples of concatenated shuffled features.

    L = -(1 / (2B * N!)) * sum_i log p_i[true_perm_i]; note the extra N!
    normalization on top of the batch mean. Returns (loss, head_grads,
    dinput, logits).
    """
    n_fact = math.factorial(model.config.tol_clips)
    two_b = shuffled_concat.shape[0]
    logits, cache = diffnet.mlp_forward(model.specs["tol"], model.params["tol"], shuffled_concat)
    losses, dlogits = diffnet.softmax_cross_entropy_batch(logits, perm_indices)
    scale = 1.0 / (two_b * n_fact)
    loss = float(losses.sum() * scale)
    head_grads, dinput = diffnet.mlp_backward(
        model.specs["tol"], model.params["tol"], cache, dlogits * scale)
    return loss, head_grads, dinput, logits


def classify_action(model: GladModel, features: np.ndarray) -> np.ndarray:
    """Linear action head over a (B, F) batch."""
    return diffnet.mlp_apply(model.specs["act"], model.params["act"], features)


def ce_loss(model: GladModel, features: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy of the action head over consensus features."""
    logits, cache = diffnet.mlp_forward(model.specs["act"], model.params["act"], features)
    losses, dlogits = diffnet.softmax_cross_entropy_batch(logits, labels)
    b = features.shape[0]
    head_grads, dfeat = diffnet.mlp_backward(
        model.specs["act"], model.params["act"], cache, dlogits / b)
    return float(losses.mean()), head_grads, dfeat


# ---------------------------------------------------------------------------
# Inference

def eval_clips(video_length: int, cfg: ModelConfig) -> list[tuple[int, ...]]:
    """Deterministic inference sampling: one global and two local clips."""
    g = sample_global_clip(video_length, cfg.n_frames, mode="eval")
    l = sample_local_clip(video_length, cfg.n_frames, cfg.local_stride, mode="eval")
    return [g, l, l]


# ---------------------------------------------------------------------------
# Checkpointing

def _params_meta(model: GladModel) -> list:
    return [{"name": f"{group}.{i}", "shape": list(p.shape)}
            for group, ps in model.params.items() for i, p in enumerate(ps)]


def save_model(model: GladModel, directory: str) -> None:
    """model.json (the config), params.json (ordered names and shapes) and
    params.bin (the tensors in that order, little-endian float32)."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "model.json"), "w") as f:
        json.dump(asdict(model.config), f, indent=1)
    with open(os.path.join(directory, "params.json"), "w") as f:
        json.dump(_params_meta(model), f, indent=1)
    with open(os.path.join(directory, "params.bin"), "wb") as f:
        for ps in model.params.values():
            for p in ps:
                f.write(np.asarray(p, dtype="<f4").tobytes())


def load_model(directory: str) -> GladModel:
    """Inverse of save_model. Raises OSError unless params.json lists exactly
    the tensors and shapes of the model in model.json and params.bin holds
    exactly their bytes."""
    with open(os.path.join(directory, "model.json")) as f:
        cfg_dict = json.load(f)
    if "domain_hidden" in cfg_dict:
        cfg_dict["domain_hidden"] = tuple(cfg_dict["domain_hidden"])
    model = init_glad_model(ModelConfig(**cfg_dict), seed=0)
    with open(os.path.join(directory, "params.json")) as f:
        if json.load(f) != _params_meta(model):
            raise OSError(f"{directory}: params.json does not list the tensors "
                          f"and shapes of the model in model.json")
    path = os.path.join(directory, "params.bin")
    expected = 4 * sum(p.size for ps in model.params.values() for p in ps)
    if os.path.getsize(path) != expected:
        raise OSError(f"{path}: {os.path.getsize(path)} bytes, the model needs {expected}")
    raw = np.fromfile(path, dtype="<f4")
    offset = 0
    for ps in model.params.values():
        for i, p in enumerate(ps):
            ps[i] = raw[offset:offset + p.size].reshape(p.shape).astype(np.float64)
            offset += p.size
    return model
