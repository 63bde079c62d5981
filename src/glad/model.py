"""GLAD model: frame-MLP feature extractor with mean pooling, linear action
head, three adversarial domain classifiers (one stacked group) behind a
gradient reversal layer and a clip-order head.

Parameters live in named groups of views into one flat vector, and so do
the gradients: each loss function returns its scalar loss and writes the
gradients of its own group into model.grads, which a single SGD step then
reads.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import diffnet
from .schema import from_json, read_json, write_json

# The N! orders of N clips in lexicographic order, for each allowed N. The
# TOL head has one output per row, and the label of an order is its row.
TOL_ORDERS = {n: np.array(list(itertools.permutations(range(n)))) for n in (2, 3, 4)}


@dataclass(frozen=True)
class ModelConfig:
    frame_shape: tuple[int, int] = (8, 8)  # height x width of a frame
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
        for key in ("frame_shape", "enc_hidden", "enc_out", "feat_dim", "n_classes", "tol_hidden"):
            if min(np.ravel(getattr(self, key))) < 1:
                raise ValueError(f"{key} must be >= 1")
        if min(self.domain_hidden) < 1:
            raise ValueError("domain_hidden widths must be >= 1")
        for key in ("input_center", "input_gain", "proj_init_scale"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")
        if self.proj_init_scale < 0.0:  # the std of the projection's initial weights
            raise ValueError("proj_init_scale must be >= 0")

    @property
    def frame_dim(self) -> int:
        return math.prod(self.frame_shape)


class FlatState(dict):
    """Group name -> list of tensors, each a view into one float64 vector,
    `flat`, laid out as GladModel.layout says."""

    def __init__(self, layout: dict, flat: np.ndarray):
        super().__init__((group, [flat[o:o + math.prod(shape)].reshape(shape)
                                  for o, shape in tensors])
                         for group, tensors in layout.items())
        self.flat = flat


def _flat_layout(widths: dict) -> dict:
    """Group -> [(offset, shape)] of its tensors W0, b0, W1, b1, ... in one
    vector that holds every group's weight matrices first, then every bias,
    so that weight decay covers whole ranges. A "dom" tensor stacks one
    layer of the len(GLA_VIEWS) domain classifiers, classifier c's at [c]:
    (C, d_in, d_out) weights and (C, 1, d_out) biases."""
    shapes = {g: [((d_in, d_out), (d_out,)) for d_in, d_out in zip(w[:-1], w[1:])]
              for g, w in widths.items()}
    n = len(GLA_VIEWS)
    shapes["dom"] = [((n, *w), (n, 1, *b)) for w, b in shapes["dom"]]
    at = [0, sum(math.prod(w) for layers in shapes.values() for w, _ in layers)]
    layout = {}
    for g, layers in shapes.items():
        layout[g] = []
        for layer in layers:
            for kind, shape in enumerate(layer):  # kind 0: weight, 1: bias
                layout[g].append((at[kind], shape))
                at[kind] += math.prod(shape)
    return layout


@dataclass
class GladModel:
    """The model's configuration, layer widths and parameters.

    Every parameter lives in one float64 vector, params.flat, and
    params[g][i] is a view into it (see _flat_layout); the gradients in
    grads and the optimizer's velocity use the same layout. Each loss and
    encode_clip_backward overwrite their own groups of grads, so a group
    holds the gradient of the last call that wrote it. The encoder writes its
    large per-step arrays into buffers the model keeps (see scratch) instead
    of new ones each call.
    """
    config: ModelConfig
    widths: dict = field(init=False)  # group -> its layers' widths, input first
    params: dict = field(init=False)
    layout: dict = field(init=False, repr=False)
    size: int = field(init=False, repr=False)  # parameters in the layout
    grads: FlatState = field(init=False, repr=False)
    _spans: dict = field(init=False, default_factory=dict, repr=False)
    _scratch: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self):
        self.widths = _widths(self.config)
        self.layout = _flat_layout(self.widths)
        self.size = sum(math.prod(shape) for ts in self.layout.values() for _, shape in ts)
        self.params = self.zeros()
        self.grads = self.zeros()

    def zeros(self) -> FlatState:
        """A new zeroed vector in the parameter layout."""
        return FlatState(self.layout, np.zeros(self.size))

    def scratch(self, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """An uninitialized array of the given shape and dtype in a buffer the
        model keeps under (key, dtype), grown when too small: the encoder
        writes its large per-step arrays here instead of allocating them on
        every call."""
        n = math.prod(shape)
        slot = (key, np.dtype(dtype))
        buf = self._scratch.get(slot)
        if buf is None or buf.size < n:
            buf = self._scratch[slot] = np.empty(n, dtype)
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


def _widths(cfg: ModelConfig) -> dict:
    n_perm = len(TOL_ORDERS[cfg.tol_clips])
    return {
        "enc": (cfg.frame_dim, cfg.enc_hidden, cfg.enc_out),
        "proj": (cfg.enc_out, cfg.feat_dim),
        "act": (cfg.feat_dim, cfg.n_classes),
        "tol": (cfg.feat_dim * cfg.tol_clips, cfg.tol_hidden, n_perm),
        # each domain classifier emits a logit; the sigmoid lives inside the
        # binary cross-entropy below, computed in logit space for stability
        "dom": (cfg.feat_dim, *cfg.domain_hidden, 1),
    }


def init_glad_model(cfg: ModelConfig, seed: int = 0) -> GladModel:
    """He-style draws from one rng, in this order: enc, proj, act, tol, the
    domain classifiers one after another, then proj again at
    proj_init_scale."""
    rng = np.random.default_rng((seed, 0xD0))
    model = GladModel(cfg)
    ps, w = model.params, model.widths
    draws = [(ps[g], w[g], None) for g in ("enc", "proj", "act", "tol")]
    draws += [([p[c] for p in ps["dom"]], w["dom"], None) for c in range(len(GLA_VIEWS))]
    draws.append((ps["proj"], w["proj"], cfg.proj_init_scale))
    for tensors, widths, scale in draws:
        for p, value in zip(tensors, diffnet.init_mlp(widths, rng, scale)):
            p[...] = value
    return model


# ---------------------------------------------------------------------------
# Feature extraction

def encode_clip_batch(model: GladModel, clips: np.ndarray, rows: np.ndarray,
                      dtype=np.float64):
    """(C, F) features of C clips given as a (C, n_f) matrix of indices into
    the (U, D) distinct frame rows, which are encoded once each; every row
    belongs to some clip.

    Per-frame encoder, mean over the clip's frames, then a linear projection.
    The encoder and the clip mean run in dtype, on the encoder's parameters
    cast to it (the parameters themselves for float64); the projection and
    the features are float64. The normalized rows and the encoder's layer
    outputs go to the model's scratch buffers, so the returned cache is only
    good until the next encode_clip_batch call on the same model in the same
    dtype.
    """
    cfg = model.config
    widths = model.widths["enc"]
    n = len(rows)
    enc = [p.astype(dtype, copy=False) for p in model.params["enc"]]
    x = model.scratch("x", (n, widths[0]), dtype)
    x[...] = rows
    x -= cfg.input_center
    x *= cfg.input_gain
    h, enc_cache = diffnet.mlp_forward(
        enc, x, out=[model.scratch(f"enc{i}", (n, w), dtype) for i, w in enumerate(widths[1:])])
    # the clip mean, one frame position at a time: the additions of
    # h[clips].mean(axis=1) in its order, without the (C, n_f, F) gather
    pooled = h[clips[:, 0]]
    for j in range(1, clips.shape[1]):
        pooled += h[clips[:, j]]
    pooled /= clips.shape[1]
    feats, proj_cache = diffnet.mlp_forward(model.params["proj"],
                                            pooled.astype(np.float64, copy=False))
    return feats, {"enc": enc_cache, "enc_params": enc, "proj": proj_cache, "clips": clips}


def encode_clip_backward(model: GladModel, cache, dfeats: np.ndarray) -> None:
    """Write into model.grads the projection's and the encoder's gradients
    for the upstream (C, F) feature gradients, from encode_clip_batch's
    cache.

    A distinct row's gradient sums dpooled / n_f over the clip frames it
    fills: one np.bincount over (row, column) keys adds them up, in clip
    order. The encoder's backward runs in the dtype of its forward, and its
    gradients are stored in the float64 model.grads.
    """
    dpooled = diffnet.mlp_backward(model.params["proj"], cache["proj"], dfeats,
                                   model.grads["proj"])
    clips, nf = cache["clips"], cache["clips"].shape[1]
    widths = model.widths["enc"]
    n_rows, width = len(cache["enc"]["inputs"][0]), widths[-1]
    keys = model.scratch("keys", (*clips.shape, width), np.intp)
    np.add((clips * width)[:, :, None], np.arange(width), out=keys)
    weights = model.scratch("weights", keys.shape)
    weights[...] = (dpooled / nf)[:, None]
    enc = cache["enc_params"]
    dh = np.bincount(keys.ravel(), weights.ravel(), minlength=n_rows * width)
    diffnet.mlp_backward(
        enc, cache["enc"], dh.reshape(n_rows, width).astype(enc[0].dtype, copy=False),
        model.grads["enc"], input_grad=False,
        out=[None] + [model.scratch(f"enc_d{i}", (n_rows, w), enc[0].dtype)
                      for i, w in enumerate(widths[1:-1], 1)])


# ---------------------------------------------------------------------------
# Losses


def domain_adv_loss(params, psi_batch: np.ndarray, grl_coeff: float, grads):
    """Adversarial loss of one domain classifier over a (2B, F) batch of
    view features (first B source, last B target), or of P classifiers at
    once over a (P, 2B, F) stack: then params holds (P, d_in, d_out)
    weights and (P, 1, d_out) biases, and every result gains a leading P
    axis.

    The classifier output F = sigmoid(z); -log F and -log(1 - F) are
    evaluated as softplus terms on the logit z so saturated samples keep
    finite, exact gradients. The classifier gradients, which descend the
    loss (the discriminator improves), go into grads, arrays of the shapes
    of params. Returns (loss, dpsi, z) where dpsi is the gradient reaching
    the feature extractor after passing the reversal layer, and z holds the
    2B logits (positive means "source").
    """
    psi_batch = np.asarray(psi_batch, dtype=np.float64)
    two_b = psi_batch.shape[-2]
    b = two_b // 2
    z, cache = diffnet.mlp_forward(params, psi_batch)
    z = z[..., 0]
    # -log sigmoid(z) = softplus(-z); -log(1 - sigmoid(z)) = softplus(z)
    loss = (np.logaddexp(0.0, -z[..., :b]).sum(axis=-1)
            + np.logaddexp(0.0, z[..., b:]).sum(axis=-1)) / two_b
    sig = 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
    dz = np.empty_like(z)
    dz[..., :b] = (sig[..., :b] - 1.0) / two_b
    dz[..., b:] = sig[..., b:] / two_b
    dpsi = diffnet.mlp_backward(params, cache, dz[..., None], grads)
    return loss, diffnet.grl_backward(dpsi, grl_coeff), z


def _unit_rows(x: np.ndarray):
    norms = np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-8)
    return x / norms, norms


def _unit_rows_backward(y: np.ndarray, norms: np.ndarray, dy: np.ndarray):
    # y = x/||x||; dx = (dy - y (y.dy)) / ||x||
    return (dy - y * np.sum(y * dy, axis=1, keepdims=True)) / norms


# view -> (its domain classifier's index in the "dom" stack, sub-batches);
# each sub-batch names the stream that gives its source rows, then the
# stream that gives its target rows
GLA_VIEWS = {"gg": (0, (("g", "g"),)),
             "ll": (1, (("l", "l"),)),
             "cross": (2, (("g", "l"), ("l", "g")))}


def gla_loss(model: GladModel, psi_g, psi_l, grl_coeff: float,
             views=("gg", "ll", "cross")):
    """Sum of the enabled per-view adversarial terms.

    psi_g and psi_l are the (2B, F) global and local view features, source
    rows first. View features are L2-normalized before the domain
    classifiers, which keeps the min-max game bounded (the reversal layer
    otherwise inflates feature norms without limit). The cross term runs two sub-batches through the
    same classifier -- {source global vs target local} and {source local vs
    target global} -- and averages them. All P sub-batches go through one
    domain_adv_loss call over a (P, 2B, F) stack, each with its view's
    classifier gathered from the "dom" stack (the cross view's twice).
    The gradients of the "dom" tensors go into model.grads["dom"], zero for
    a classifier that no enabled view uses. Returns (loss, dpsi_by_stream,
    logits_by_view) where dpsi["g"]/dpsi["l"] are the (2B, F)
    reversal-scaled gradients of the two streams, zero for a stream that no
    enabled view uses, and logits_by_view[v] is the (sub-batches, 2B) array
    of the classifier's logits.
    """
    unit, norms = {}, {}
    for k, psi in (("g", psi_g), ("l", psi_l)):
        unit[k], norms[k] = _unit_rows(np.asarray(psi, dtype=np.float64))
    two_b, width = unit["g"].shape
    b = two_b // 2
    enabled = [(view, c, pairs) for view, (c, pairs) in GLA_VIEWS.items() if view in views]
    subs = [(c, s, t) for _, c, pairs in enabled for s, t in pairs]
    stack = np.empty((len(subs), two_b, width))
    for k, (_, s, t) in enumerate(subs):
        stack[k, :b] = unit[s][:b]
        stack[k, b:] = unit[t][b:]
    sel = np.array([c for c, _, _ in subs])
    stacked = [p[sel] for p in model.params["dom"]]
    grads = [np.empty_like(p) for p in stacked]
    losses, ds, zs = domain_adv_loss(stacked, stack, grl_coeff, grads)
    total = 0.0
    dom = model.grads["dom"]
    unused = [c for view, (c, _) in GLA_VIEWS.items() if view not in views]
    for out in dom:
        out[unused] = 0.0
    logits = {}
    dpsi = {k: np.zeros_like(u) for k, u in unit.items()}
    at = 0
    for view, c, pairs in enabled:
        rows = slice(at, at + len(pairs))
        at += len(pairs)
        w = 1.0 / len(pairs)
        total += w * sum(losses[rows])
        for g, out in zip(grads, dom):
            np.multiply(np.add.reduce(g[rows]), w, out=out[c])
        for (s, t), d in zip(pairs, ds[rows]):
            dpsi[s][:b] += w * d[:b]
            dpsi[t][b:] += w * d[b:]
        logits[view] = zs[rows]
    for k in dpsi:
        dpsi[k] = _unit_rows_backward(unit[k], norms[k], dpsi[k])
    return float(total), dpsi, logits


def tol_labels(orders: np.ndarray) -> np.ndarray:
    """The label of each (N,) row of orders: its row in TOL_ORDERS[N]."""
    return (orders[:, None] == TOL_ORDERS[orders.shape[1]]).all(axis=2).argmax(axis=1)


def tol_loss(model: GladModel, shuffled_concat: np.ndarray, perm_indices: np.ndarray):
    """Clip-order loss over 2B samples of concatenated shuffled features.

    L = -(1 / (2B * N!)) * sum_i log p_i[true_perm_i]; note the extra N!
    normalization on top of the batch mean. Writes the head's gradients
    into model.grads["tol"] and returns (loss, dinput, logits).
    """
    n_fact = len(TOL_ORDERS[model.config.tol_clips])
    two_b = shuffled_concat.shape[0]
    logits, cache = diffnet.mlp_forward(model.params["tol"], shuffled_concat)
    losses, dlogits = diffnet.softmax_cross_entropy_batch(logits, perm_indices)
    scale = 1.0 / (two_b * n_fact)
    loss = float(losses.sum() * scale)
    dinput = diffnet.mlp_backward(model.params["tol"], cache, dlogits * scale,
                                  model.grads["tol"])
    return loss, dinput, logits


def classify_action(model: GladModel, features: np.ndarray) -> np.ndarray:
    """Linear action head over a (B, F) batch."""
    return diffnet.mlp_forward(model.params["act"], features)[0]


def ce_loss(model: GladModel, features: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy of the action head over consensus features.
    Writes the head's gradients into model.grads["act"] and returns
    (loss, dfeat)."""
    logits, cache = diffnet.mlp_forward(model.params["act"], features)
    losses, dlogits = diffnet.softmax_cross_entropy_batch(logits, labels)
    b = features.shape[0]
    dfeat = diffnet.mlp_backward(model.params["act"], cache, dlogits / b, model.grads["act"])
    return float(losses.mean()), dfeat


# ---------------------------------------------------------------------------
# Checkpointing

def _params_meta(model: GladModel) -> list:
    """Name and shape of each tensor, in the order of the flat vector."""
    tensors = sorted((at, f"{group}.{i}", shape) for group, ts in model.layout.items()
                     for i, (at, shape) in enumerate(ts))
    return [{"name": name, "shape": list(shape)} for _, name, shape in tensors]


def save_model(model: GladModel, directory: str) -> None:
    """model.json (the config), params.json (the names and shapes of the
    tensors in the order of the flat vector) and params.bin (the flat
    vector, little-endian float32)."""
    write_json(os.path.join(directory, "model.json"), asdict(model.config))
    write_json(os.path.join(directory, "params.json"), _params_meta(model))
    model.params.flat.astype("<f4").tofile(os.path.join(directory, "params.bin"))


def load_model(directory: str) -> GladModel:
    """Inverse of save_model. Raises OSError unless model.json is a valid
    config, params.json lists exactly the tensors and shapes of that model
    and params.bin holds exactly their bytes, all of them finite."""
    path = os.path.join(directory, "model.json")
    try:
        cfg = from_json(ModelConfig, read_json(path, OSError))
    except (TypeError, ValueError) as e:
        raise OSError(f"{path}: {e}") from e
    model = GladModel(cfg)  # zeroed; params.bin fills the whole vector
    if read_json(os.path.join(directory, "params.json"), OSError) != _params_meta(model):
        raise OSError(f"{directory}: params.json does not list the tensors "
                      f"and shapes of the model in model.json")
    path = os.path.join(directory, "params.bin")
    if os.path.getsize(path) != 4 * model.size:
        raise OSError(f"{path}: {os.path.getsize(path)} bytes, the model needs {4 * model.size}")
    model.params.flat[:] = np.fromfile(path, dtype="<f4")
    if not np.isfinite(model.params.flat).all():
        bad = next(f"{group}.{i}" for group, ts in model.params.items()
                   for i, t in enumerate(ts) if not np.isfinite(t).all())
        raise OSError(f"{path}: non-finite value in tensor {bad}")
    return model
