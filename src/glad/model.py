"""GLAD model: frame-MLP feature extractor with mean pooling, linear action
head, three adversarial domain classifiers behind a gradient reversal layer
and a clip-order head.

Parameters live in named groups of views into one flat vector; every loss
function returns the scalar loss together with gradient contributions that
the trainer accumulates before a single SGD step.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import diffnet
from .diffnet import MlpSpec
from .schema import from_json, read_json

# The N! orders of N clips in lexicographic order, for each allowed N. The
# TOL head has one output per row, and the label of an order is its row.
TOL_ORDERS = {n: np.array(list(itertools.permutations(range(n)))) for n in (2, 3, 4)}


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
        if self.tol_clips not in TOL_ORDERS:
            raise ValueError(f"tol_clips must be one of {list(TOL_ORDERS)}")
        if self.n_frames < 1 or self.local_stride < 1:
            raise ValueError("n_frames and local_stride must be >= 1")
        for key in ("frame_dim", "enc_hidden", "enc_out", "feat_dim", "n_classes", "tol_hidden"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if min(self.domain_hidden) < 1:
            raise ValueError("domain_hidden widths must be >= 1")
        for key in ("input_center", "input_gain", "proj_init_scale"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")


class FlatState(dict):
    """Group name -> list of tensors, each a view into one float64 vector,
    `flat`, laid out as GladModel.layout says."""

    def __init__(self, layout: dict, flat: np.ndarray):
        super().__init__((group, [flat[o:o + math.prod(shape)].reshape(shape)
                                  for o, shape in tensors])
                         for group, tensors in layout.items())
        self.flat = flat


def _flat_layout(specs: dict) -> dict:
    """Group -> [(offset, shape)] of its tensors W0, b0, W1, b1, ... in one
    vector that holds every group's weight matrices first, then every bias,
    so that weight decay covers whole ranges."""
    layers = {g: list(zip(s.layer_widths[:-1], s.layer_widths[1:])) for g, s in specs.items()}
    at_w, at_b = 0, sum(d_in * d_out for ls in layers.values() for d_in, d_out in ls)
    layout = {}
    for g, ls in layers.items():
        layout[g] = []
        for d_in, d_out in ls:
            layout[g] += [(at_w, (d_in, d_out)), (at_b, (d_out,))]
            at_w += d_in * d_out
            at_b += d_out
    return layout


@dataclass
class GladModel:
    """The model's configuration, layer specs and parameters.

    Every parameter lives in one float64 vector, params.flat, and
    params[g][i] is a view into it (see _flat_layout); gradients and the
    optimizer's velocity use the same layout. The encoder writes its large
    per-step arrays into buffers the model keeps (see scratch) instead of
    new ones each call.
    """
    config: ModelConfig
    specs: dict
    params: dict = field(init=False)
    layout: dict = field(init=False, repr=False)
    size: int = field(init=False, repr=False)  # parameters in the layout
    _grads: FlatState = field(init=False, repr=False)
    _spans: dict = field(init=False, default_factory=dict, repr=False)
    _scratch: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        self.layout = _flat_layout(self.specs)
        self.size = sum(math.prod(shape) for ts in self.layout.values() for _, shape in ts)
        self.params = self.zeros()
        self._grads = self.zeros()

    def zeros(self) -> FlatState:
        """A new zeroed vector in the parameter layout."""
        return FlatState(self.layout, np.zeros(self.size))

    def zero_grads(self) -> FlatState:
        """Zeroed gradients in the parameter layout: one vector that the
        model keeps and zeroes again on each call, so a step's gradients
        last until the next step's zero_grads."""
        self._grads.flat.fill(0.0)
        return self._grads

    def scratch(self, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """An uninitialized array of the given shape in a buffer the model
        keeps under key, grown when too small: the encoder writes its large
        per-step arrays here instead of allocating them on every call."""
        n = math.prod(shape)
        buf = self._scratch.get(key)
        if buf is None or buf.size < n:
            buf = self._scratch[key] = np.empty(n, dtype)
        return buf[:n].reshape(shape)

    def flat_spans(self, groups: tuple) -> list:
        """(start, stop, is_weight) ranges of the flat vector that hold the
        given groups' tensors, weights first, adjacent groups merged."""
        if groups not in self._spans:
            spans = []
            for is_weight, kind in ((True, 0), (False, 1)):
                for g, tensors in self.layout.items():
                    if g in groups:
                        (a, _), (last, shape) = tensors[kind], tensors[kind - 2]
                        if spans and spans[-1][1:] == (a, is_weight):
                            a = spans.pop()[0]
                        spans.append((a, last + math.prod(shape), is_weight))
            self._spans[groups] = spans
        return self._spans[groups]


def _specs(cfg: ModelConfig) -> dict:
    dh = cfg.domain_hidden
    n_perm = len(TOL_ORDERS[cfg.tol_clips])
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
    drawn = {name: diffnet.init_mlp(spec, rng) for name, spec in specs.items()}
    drawn["proj"] = diffnet.init_mlp(specs["proj"], rng, scale=cfg.proj_init_scale)
    model = GladModel(config=cfg, specs=specs)
    for group, ps in drawn.items():
        for p, value in zip(model.params[group], ps):
            p[...] = value
    return model


def accumulate(grads: dict, group: str, contribution) -> None:
    for g, c in zip(grads[group], contribution):
        g += c


# ---------------------------------------------------------------------------
# Feature extraction

def encode_clip_batch(model: GladModel, clips: np.ndarray, rows: np.ndarray):
    """(C, F) features of C clips given as a (C, n_f) matrix of indices into
    the (U, D) distinct frame rows, which are encoded once each; every row
    belongs to some clip.

    Per-frame encoder, mean over the clip's frames, then a linear projection.
    The normalized rows and the encoder's layer outputs go to the model's
    scratch buffers, so the returned cache is only good until the next
    encode_clip_batch call on the same model.
    """
    cfg = model.config
    widths = model.specs["enc"].layer_widths
    n = len(rows)
    x = model.scratch("x", (n, widths[0]))
    x[...] = rows
    x -= cfg.input_center
    x *= cfg.input_gain
    h, enc_cache = diffnet.mlp_forward(
        model.specs["enc"], model.params["enc"], x,
        out=[model.scratch(f"enc{i}", (n, w)) for i, w in enumerate(widths[1:])])
    # the clip mean, one frame position at a time: the additions of
    # h[clips].mean(axis=1) in its order, without the (C, n_f, F) gather
    pooled = h[clips[:, 0]]
    for j in range(1, clips.shape[1]):
        pooled += h[clips[:, j]]
    pooled /= clips.shape[1]
    feats, proj_cache = diffnet.mlp_forward(model.specs["proj"], model.params["proj"], pooled)
    return feats, {"enc": enc_cache, "proj": proj_cache, "clips": clips}


def encode_clip_backward(model: GladModel, cache, dfeats: np.ndarray, grads: dict) -> None:
    """Accumulate into grads the projection's and the encoder's gradients
    for the upstream (C, F) feature gradients, from encode_clip_batch's
    cache.

    A distinct row's gradient sums dpooled / n_f over the clip frames it
    fills: one np.bincount over (row, column) keys adds them up, in clip
    order.
    """
    proj_grads, dpooled = diffnet.mlp_backward(
        model.specs["proj"], model.params["proj"], cache["proj"], dfeats)
    accumulate(grads, "proj", proj_grads)
    clips, nf = cache["clips"], cache["clips"].shape[1]
    widths = model.specs["enc"].layer_widths
    n_rows, width = len(cache["enc"]["inputs"][0]), widths[-1]
    keys = model.scratch("keys", (*clips.shape, width), np.intp)
    np.add((clips * width)[:, :, None], np.arange(width), out=keys)
    weights = model.scratch("weights", keys.shape)
    weights[...] = (dpooled / nf)[:, None]
    dh = np.bincount(keys.ravel(), weights.ravel(),
                     minlength=n_rows * width).reshape(n_rows, width)
    enc_grads, _ = diffnet.mlp_backward(
        model.specs["enc"], model.params["enc"], cache["enc"], dh, input_grad=False,
        out=[None] + [model.scratch(f"enc_d{i}", (n_rows, w))
                      for i, w in enumerate(widths[1:-1], 1)])
    accumulate(grads, "enc", enc_grads)


# ---------------------------------------------------------------------------
# Losses


def domain_adv_loss(spec: MlpSpec, params, psi_batch: np.ndarray, grl_coeff: float):
    """Adversarial loss of one domain classifier over a (2B, F) batch of
    view features (first B source, last B target), or of P classifiers at
    once over a (P, 2B, F) stack: then params holds (P, d_in, d_out)
    weights and (P, 1, d_out) biases, and every result gains a leading P
    axis.

    The classifier output F = sigmoid(z); -log F and -log(1 - F) are
    evaluated as softplus terms on the logit z so saturated samples keep
    finite, exact gradients. Returns (loss, classifier_grads, dpsi, z) where
    classifier_grads descend the loss (discriminator improves), dpsi is the
    gradient reaching the feature extractor after passing the reversal
    layer, and z holds the 2B logits (positive means "source").
    """
    psi_batch = np.asarray(psi_batch, dtype=np.float64)
    two_b = psi_batch.shape[-2]
    if two_b == 0 or two_b % 2 != 0:
        raise ValueError("batch must hold B source then B target entries")
    b = two_b // 2
    z, cache = diffnet.mlp_forward(spec, params, psi_batch)
    z = z[..., 0]
    # -log sigmoid(z) = softplus(-z); -log(1 - sigmoid(z)) = softplus(z)
    loss = (np.logaddexp(0.0, -z[..., :b]).sum(axis=-1)
            + np.logaddexp(0.0, z[..., b:]).sum(axis=-1)) / two_b
    sig = 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
    dz = np.empty_like(z)
    dz[..., :b] = (sig[..., :b] - 1.0) / two_b
    dz[..., b:] = sig[..., b:] / two_b
    clf_grads, dpsi = diffnet.mlp_backward(spec, params, cache, dz[..., None])
    return loss, clf_grads, diffnet.grl_backward(dpsi, grl_coeff), z


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
    target global} -- and averages them. All P sub-batches go through one
    domain_adv_loss call over a (P, 2B, F) stack, each with its view's
    classifier (dx's twice); the classifiers share one spec. Returns (loss,
    clf_grads_by_group, dpsi_by_stream, logits_by_view) where
    dpsi["g"]/dpsi["l"] are the (2B, F) reversal-scaled gradients of the
    given streams and logits_by_view[v] is the (sub-batches, 2B) array of
    the classifier's logits.
    """
    unit, norms = {}, {}
    for k, psi in (("g", psi_g), ("l", psi_l)):
        if psi is not None:
            unit[k], norms[k] = _unit_rows(np.asarray(psi, dtype=np.float64))
    two_b, width = next(iter(unit.values())).shape
    b = two_b // 2
    enabled = [(view, group, pairs) for view, (group, pairs) in GLA_VIEWS.items()
               if view in views]
    subs = [(group, s, t) for _, group, pairs in enabled for s, t in pairs]
    stack = np.empty((len(subs), two_b, width))
    for k, (_, s, t) in enumerate(subs):
        stack[k, :b] = unit[s][:b]
        stack[k, b:] = unit[t][b:]
    params = [np.array([model.params[group][i] for group, _, _ in subs])
              for i in range(len(model.params[subs[0][0]]))]
    params[1::2] = [p[:, None] for p in params[1::2]]  # (P, 1, d) biases
    losses, grads, ds, zs = domain_adv_loss(model.specs[subs[0][0]], params, stack,
                                            grl_coeff)
    total = 0.0
    clf = {}
    logits = {}
    dpsi = {k: np.zeros_like(u) for k, u in unit.items()}
    at = 0
    for view, group, pairs in enabled:
        rows = slice(at, at + len(pairs))
        at += len(pairs)
        w = 1.0 / len(pairs)
        total += w * sum(losses[rows])
        clf[group] = [w * np.add.reduce(g[rows]).reshape(p.shape)
                      for g, p in zip(grads, model.params[group])]
        for (s, t), d in zip(pairs, ds[rows]):
            dpsi[s][:b] += w * d[:b]
            dpsi[t][b:] += w * d[b:]
        logits[view] = zs[rows]
    for k in dpsi:
        dpsi[k] = _unit_rows_backward(unit[k], norms[k], dpsi[k])
    return float(total), clf, dpsi, logits


def tol_labels(orders: np.ndarray) -> np.ndarray:
    """The label of each (N,) row of orders: its row in TOL_ORDERS[N]."""
    return (orders[:, None] == TOL_ORDERS[orders.shape[1]]).all(axis=2).argmax(axis=1)


def tol_loss(model: GladModel, shuffled_concat: np.ndarray, perm_indices: np.ndarray):
    """Clip-order loss over 2B samples of concatenated shuffled features.

    L = -(1 / (2B * N!)) * sum_i log p_i[true_perm_i]; note the extra N!
    normalization on top of the batch mean. Returns (loss, head_grads,
    dinput, logits).
    """
    n_fact = len(TOL_ORDERS[model.config.tol_clips])
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
    return diffnet.mlp_forward(model.specs["act"], model.params["act"], features)[0]


def ce_loss(model: GladModel, features: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy of the action head over consensus features."""
    logits, cache = diffnet.mlp_forward(model.specs["act"], model.params["act"], features)
    losses, dlogits = diffnet.softmax_cross_entropy_batch(logits, labels)
    b = features.shape[0]
    head_grads, dfeat = diffnet.mlp_backward(
        model.specs["act"], model.params["act"], cache, dlogits / b)
    return float(losses.mean()), head_grads, dfeat


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
    """Inverse of save_model. Raises OSError unless model.json is a valid
    config, params.json lists exactly the tensors and shapes of that model
    and params.bin holds exactly their bytes."""
    path = os.path.join(directory, "model.json")
    try:
        cfg = from_json(ModelConfig, read_json(path, OSError))
    except (TypeError, ValueError) as e:
        raise OSError(f"{path}: {e}") from e
    model = init_glad_model(cfg, seed=0)
    if read_json(os.path.join(directory, "params.json"), OSError) != _params_meta(model):
        raise OSError(f"{directory}: params.json does not list the tensors "
                      f"and shapes of the model in model.json")
    path = os.path.join(directory, "params.bin")
    expected = 4 * sum(p.size for ps in model.params.values() for p in ps)
    if os.path.getsize(path) != expected:
        raise OSError(f"{path}: {os.path.getsize(path)} bytes, the model needs {expected}")
    raw = np.fromfile(path, dtype="<f4")
    offset = 0
    for ps in model.params.values():
        for p in ps:
            p[...] = raw[offset:offset + p.size].reshape(p.shape)
            offset += p.size
    return model
