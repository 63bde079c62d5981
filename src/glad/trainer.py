"""Training loop: clip-order warm-up, adversarial main phase realized through
the gradient reversal layer, LR schedule, evaluation, and the ablation
matrix."""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffnet, model as glad_model
from .debias import (AugmentationPolicy, apply_augmentation_policy,
                     build_background_bank)
from .gapmetrics import confusion_matrix, mean_class_accuracy
from .model import GLA_VIEWS, GladModel, ModelConfig, init_glad_model
from .sampling import sample_global_clip, sample_local_clip, shuffle_clips
from .synthdata import VideoSample, strip_labels


class NumericError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    warmup_epochs: int = 20        # paper-scale reference: 500
    main_epochs: int = 30          # paper-scale reference: 50
    batch_size: int = 16           # per domain
    lr: float = 2e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_drop_epochs: tuple[int, ...] = (20, 26)  # paper-scale reference: (5, 10)
    lr_drop_factor: float = 10.0
    grl_coeff: float = 0.5
    global_views: int = 1
    local_views: int = 2
    aug_probability: float = 0.25
    aug_lambda_mode: str = "fixed"
    aug_lambda: float = 0.75
    aug_domains: tuple[str, ...] = ("source",)
    use_bg_aug: bool = True
    use_tol: bool = True
    gla_views: tuple[str, ...] = ("gg", "ll", "cross")
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if min(self.global_views, self.local_views) < 0 \
                or self.global_views + self.local_views < 1:
            raise ValueError("view counts must be >= 0 with at least one view per video")
        if min(self.warmup_epochs, self.main_epochs) < 0:
            raise ValueError("warmup_epochs and main_epochs must be >= 0")
        if self.main_epochs == 0 and (self.warmup_epochs == 0 or not self.use_tol):
            raise ValueError("config trains no epoch: main_epochs is 0 and there is no warm-up")
        unknown = [v for v in self.gla_views if v not in GLA_VIEWS]
        if unknown:
            raise ValueError(f"unknown gla_views {unknown}; known: {list(GLA_VIEWS)}")

    def policy(self) -> AugmentationPolicy:
        return AugmentationPolicy(probability=self.aug_probability,
                                  lambda_mode=self.aug_lambda_mode,
                                  lambda_value=self.aug_lambda,
                                  domains=self.aug_domains)

    def enabled_gla_views(self) -> tuple[str, ...]:
        views = []
        for v in self.gla_views:
            if v == "gg" and self.global_views == 0:
                continue
            if v == "ll" and self.local_views == 0:
                continue
            if v == "cross" and (self.global_views == 0 or self.local_views == 0):
                continue
            views.append(v)
        return tuple(views)


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)
    checkpoint_dir: str | None = None

    def csv_rows(self):
        cols = ["phase", "epoch", "lr", "loss_ce", "loss_tol", "loss_gla",
                "loss_total", "dom_acc_gg", "dom_acc_ll", "dom_acc_cross",
                "tol_acc", "target_mca"]
        yield cols
        for e in self.epochs:
            yield [repr(e[c]) if isinstance(e[c], float) else str(e[c]) for c in cols]

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.csv"), "w", newline="") as f:
            writer = csv.writer(f)
            for row in self.csv_rows():
                writer.writerow(row)
        with open(os.path.join(out_dir, "report.json"), "w") as f:
            json.dump({"epochs": self.epochs, "checkpoint_dir": self.checkpoint_dir},
                      f, indent=1)


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Piecewise-constant schedule over the main phase."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    drops = sum(1 for d in config.lr_drop_epochs if epoch >= d)
    return config.lr / (config.lr_drop_factor ** drops)


def active_groups(config: TrainConfig, phase: str) -> list[str]:
    if phase == "warmup":
        return ["enc", "proj", "tol"]
    groups = ["enc", "proj", "act"]
    if config.use_tol:
        groups.append("tol")
    for v in config.enabled_gla_views():
        groups.append(GLA_VIEWS[v][0])
    return groups


def _clip_stack(videos, clips_of) -> np.ndarray:
    """Frames of each video's clips, video by video, in one (C, n_f, D) stack."""
    return np.stack([v.frames[list(c)] for v in videos for c in clips_of(v)])


def step_losses(mdl: GladModel, src_batch, tgt_batch, config: TrainConfig,
                rng: np.random.Generator, phase: str, bank: np.ndarray | None):
    """One optimization step's losses and gradients (no parameter update).

    Source labels are read here; target labels must already be stripped.
    Returns (stats, grads) where grads realizes the saddle objective: the
    domain classifiers descend their adversarial losses while the extractor
    receives the reversal-scaled alignment gradient.
    """
    cfg = mdl.config
    b = len(src_batch)
    if b == 0 or len(tgt_batch) != b:
        raise ValueError("need equal non-empty source and target batches")
    if config.use_bg_aug and bank is not None:
        src_batch = apply_augmentation_policy(src_batch, bank, config.policy(), rng)
        tgt_batch = apply_augmentation_policy(tgt_batch, bank, config.policy(), rng)

    # Every video gets the same K = mg + nl + n_tol clips, in this order:
    # mg global views, nl local views, then n_tol clips for order learning.
    mg, nl = (config.global_views, config.local_views) if phase == "main" else (0, 0)
    n_tol = cfg.tol_clips if config.use_tol or phase == "warmup" else 0
    n_views = mg + nl

    def clips_of(v):
        return ([sample_global_clip(v.length, cfg.n_frames, "train", rng) for _ in range(mg)]
                + [sample_local_clip(v.length, cfg.n_frames, cfg.local_stride, "train", rng)
                   for _ in range(nl + n_tol)])

    frames = _clip_stack(list(src_batch) + list(tgt_batch), clips_of)
    feats, cache = glad_model.encode_clip_batch(mdl, frames)
    dfeats = np.zeros_like(feats)
    f3 = feats.reshape(2 * b, n_views + n_tol, -1)
    d3 = dfeats.reshape(f3.shape)
    grads = mdl.zero_grads()
    stats = {"loss_ce": 0.0, "loss_tol": 0.0, "loss_gla": 0.0,
             "dom_acc_gg": float("nan"), "dom_acc_ll": float("nan"),
             "dom_acc_cross": float("nan"), "tol_acc": float("nan")}

    if n_tol:
        tol = f3[:, n_views:]
        orders = [shuffle_clips(tol[i], rng)[1] for i in range(2 * b)]
        rows = np.arange(2 * b)[:, None]
        perms = np.array([o.perm for o in orders])
        targets = np.array([o.index for o in orders], dtype=np.int64)
        concat = tol[rows, perms].reshape(2 * b, -1)
        loss_tol, head_grads, dconcat, logits = glad_model.tol_loss(mdl, concat, targets)
        stats["loss_tol"] = loss_tol
        stats["tol_acc"] = float(np.mean(np.argmax(logits, axis=1) == targets))
        glad_model.accumulate(grads, "tol", head_grads)
        d3[:, n_views:][rows, perms] += dconcat.reshape(2 * b, n_tol, -1)

    if n_views:
        consensus = f3[:b, :n_views].mean(axis=1)
        labels = np.array([v.label for v in src_batch], dtype=np.int64)
        loss_ce, act_grads, dcons = glad_model.ce_loss(mdl, consensus, labels)
        stats["loss_ce"] = loss_ce
        glad_model.accumulate(grads, "act", act_grads)
        d3[:b, :n_views] += (dcons / n_views)[:, None]

        views = config.enabled_gla_views()
        if views:
            loss_gla, clf, dpsi, logits = glad_model.gla_loss(
                mdl, f3[:, :mg].mean(axis=1) if mg else None,
                f3[:, mg:n_views].mean(axis=1) if nl else None,
                config.grl_coeff, views)
            stats["loss_gla"] = loss_gla
            for group, g in clf.items():
                glad_model.accumulate(grads, group, g)
            if mg:
                d3[:, :mg] += (dpsi["g"] / mg)[:, None]
            if nl:
                d3[:, mg:n_views] += (dpsi["l"] / nl)[:, None]
            # the first B logits of each sub-batch score source videos
            is_src = np.arange(2 * b) < b
            for v, z in logits.items():
                stats[f"dom_acc_{v}"] = float(np.mean((z > 0.0) == is_src))

    glad_model.encode_clip_backward(mdl, cache, dfeats, grads)
    total = stats["loss_ce"] + stats["loss_tol"] - stats["loss_gla"]
    if not np.isfinite(total):
        raise NumericError(f"non-finite loss: {stats}")
    stats["loss_total"] = total
    return stats, grads


def apply_grads(mdl: GladModel, grads: dict, velocity: dict, groups, lr: float,
                config: TrainConfig) -> None:
    """One SGD step on the given groups; velocity (shaped like
    mdl.zero_grads()) is the optimizer's only state."""
    for g in groups:
        mdl.params[g] = diffnet.sgd_step(mdl.params[g], grads[g], velocity[g], lr,
                                         config.momentum, config.weight_decay)


def _epoch_batches(n_src: int, n_tgt: int, batch: int, rng: np.random.Generator):
    """One pass over the smaller domain; the larger domain is cycled."""
    n_small = min(n_src, n_tgt)
    steps = math.ceil(n_small / batch)
    src_order = rng.permutation(n_src)
    tgt_order = rng.permutation(n_tgt)
    for k in range(steps):
        src_idx = [int(src_order[(k * batch + j) % n_src]) for j in range(batch)]
        tgt_idx = [int(tgt_order[(k * batch + j) % n_tgt]) for j in range(batch)]
        yield src_idx, tgt_idx


def run_phase_epoch(mdl, src, tgt, config, velocity, rng, phase, lr, bank):
    sums: dict = {}
    counts: dict = {}
    for src_idx, tgt_idx in _epoch_batches(len(src), len(tgt), config.batch_size, rng):
        stats, grads = step_losses(mdl, [src[i] for i in src_idx],
                                   [tgt[i] for i in tgt_idx], config, rng, phase, bank)
        apply_grads(mdl, grads, velocity, active_groups(config, phase), lr, config)
        for k, v in stats.items():
            if isinstance(v, float) and not np.isnan(v):
                sums[k] = sums.get(k, 0.0) + v
                counts[k] = counts.get(k, 0) + 1
    return {k: sums[k] / counts[k] for k in sums}


def evaluate(mdl: GladModel, samples: list[VideoSample], n_classes: int):
    """Consensus inference per video; returns (confusion matrix, MCA)."""
    if any(v.label is None for v in samples):
        raise ValueError("evaluate requires labeled samples")
    frames = _clip_stack(samples, lambda v: glad_model.eval_clips(v.length, mdl.config))
    feats, _ = glad_model.encode_clip_batch(mdl, frames)
    consensus = feats.reshape(len(samples), 3, -1).mean(axis=1)
    logits = glad_model.classify_action(mdl, consensus)
    preds = np.argmax(logits, axis=1)
    cm = confusion_matrix([v.label for v in samples], preds, n_classes)
    return cm, mean_class_accuracy(cm)


def train(config: TrainConfig, src_train: list[VideoSample],
          tgt_train: list[VideoSample], tgt_test: list[VideoSample] | None = None,
          out_dir: str | None = None) -> tuple:
    """Full curriculum: TOL warm-up (when TOL is enabled) followed by the
    adversarial main phase. Target training labels are stripped before any
    step sees them."""
    mdl = init_glad_model(config.model, seed=config.seed)
    rng = np.random.default_rng((config.seed, 0x7A))
    tgt_unlabeled = strip_labels(tgt_train)
    bank = None
    if config.use_bg_aug:
        bank = build_background_bank(list(src_train) + tgt_unlabeled)
    velocity = mdl.zero_grads()
    report = TrainReport()

    def record(phase, epoch, lr, stats):
        row = {"phase": phase, "epoch": epoch, "lr": lr,
               "loss_ce": stats.get("loss_ce", 0.0),
               "loss_tol": stats.get("loss_tol", 0.0),
               "loss_gla": stats.get("loss_gla", 0.0),
               "loss_total": stats.get("loss_total", 0.0),
               "dom_acc_gg": stats.get("dom_acc_gg", float("nan")),
               "dom_acc_ll": stats.get("dom_acc_ll", float("nan")),
               "dom_acc_cross": stats.get("dom_acc_cross", float("nan")),
               "tol_acc": stats.get("tol_acc", float("nan")),
               "target_mca": float("nan")}
        if tgt_test is not None:
            row["target_mca"] = evaluate(mdl, tgt_test, config.model.n_classes)[1]
        report.epochs.append(row)

    warmup_epochs = config.warmup_epochs if config.use_tol else 0
    for epoch in range(warmup_epochs):
        stats = run_phase_epoch(mdl, src_train, tgt_unlabeled, config, velocity,
                                rng, "warmup", config.lr, bank)
        record("warmup", epoch, config.lr, stats)
    for epoch in range(config.main_epochs):
        lr = lr_at(epoch, config)
        stats = run_phase_epoch(mdl, src_train, tgt_unlabeled, config, velocity,
                                rng, "main", lr, bank)
        record("main", epoch, lr, stats)

    if out_dir:
        final = os.path.join(out_dir, "final")
        glad_model.save_model(mdl, final)
        report.checkpoint_dir = final
        report.write(out_dir)
    return mdl, report


def ablation_rows() -> dict:
    """Toggle sets for the standard ablation matrix."""
    return {
        "source_only": {"use_bg_aug": False, "use_tol": False, "gla_views": ()},
        "gla_only": {"use_bg_aug": False, "use_tol": False},
        "debias_only": {"use_bg_aug": True, "use_tol": True, "gla_views": ()},
        "full_glad": {"use_bg_aug": True, "use_tol": True},
        "supervised_target": {"use_bg_aug": False, "use_tol": False, "gla_views": ()},
        "dann": {"use_bg_aug": False, "use_tol": False, "gla_views": ("gg",)},
    }


def run_config(name: str, overrides: dict, base: TrainConfig, src_train,
               tgt_train, tgt_test, seed: int) -> float:
    """Train one ablation configuration and return the target-test MCA."""
    cfg = replace(base, **overrides, seed=seed)
    if name == "supervised_target":
        # Upper-bound baseline: the labeled "source" is the target train split.
        src_train = tgt_train
    _, report = train(cfg, src_train, tgt_train, tgt_test)
    return report.epochs[-1]["target_mca"]


def run_ablation_matrix(base: TrainConfig, src_train, tgt_train, tgt_test,
                        seeds, rows: dict | None = None) -> dict:
    """MCA mean and population std per toggle set over the given seeds."""
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    rows = rows if rows is not None else ablation_rows()
    table = {}
    for name, overrides in rows.items():
        mcas = [run_config(name, overrides, base, src_train, tgt_train,
                           tgt_test, seed) for seed in seeds]
        mean = statistics.fmean(mcas)
        std = statistics.pstdev(mcas) if len(mcas) > 1 else 0.0
        table[name] = {"mean": mean, "std": std, "values": mcas}
    return table


def format_ablation_table(table: dict) -> str:
    # Std is the population formula over seeds.
    lines = [f"{'config':<20} {'MCA mean':>9} {'+/- std (population)':>21}"]
    for name, row in table.items():
        lines.append(f"{name:<20} {row['mean']:>9.2f} {row['std']:>21.2f}")
    return "\n".join(lines)


def config_from_dict(d: dict) -> TrainConfig:
    d = dict(d)
    for k in ("lr_drop_epochs", "aug_domains", "gla_views"):
        if k in d:
            d[k] = tuple(d[k])
    if "model" in d:
        m = dict(d["model"])
        if "domain_hidden" in m:
            m["domain_hidden"] = tuple(m["domain_hidden"])
        d["model"] = ModelConfig(**m)
    return TrainConfig(**d)
