"""Training loop: clip-order warm-up, adversarial main phase realized through
the gradient reversal layer, the epoch schedule, evaluation, and the
ablation matrix."""

from __future__ import annotations

import ctypes
import math
import os
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as glad_model
from .debias import MIX_LAMBDA, build_background_bank, draw_mixes, mix_background
from .gapmetrics import accuracy_gap, confusion_matrix, mean_class_accuracy
from .model import GLA_VIEWS, GladModel, ModelConfig, init_glad_model
from .sampling import clip_indices
from .synthdata import Packed


class NumericError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


# Per-step statistics, each with the value a step records when it computes
# none; NaN marks an accuracy with nothing to score.
STEP_STATS = {"loss_ce": 0.0, "loss_tol": 0.0, "loss_gla": 0.0, "loss_total": 0.0,
              "dom_acc_gg": float("nan"), "dom_acc_ll": float("nan"),
              "dom_acc_cross": float("nan"), "tol_acc": float("nan")}
# report.csv columns; every report.json epoch holds these keys in this order
REPORT_COLUMNS = ("phase", "epoch", "lr", *STEP_STATS, "target_mca")
# (global, local) views of every video in a main-phase step, and the clips
# whose mean evaluate scores
VIEW_LAYOUT = (1, 2)
# Heavy-ball SGD: the velocity's decay, and the weight decay of weight
# matrices (a bias gets none)
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4
# the main phase's lr is divided by this at each of lr_drop_epochs
LR_DROP_FACTOR = 10.0


@dataclass
class TrainConfig:
    warmup_epochs: int = 20        # paper-scale reference: 500
    main_epochs: int = 30          # paper-scale reference: 50
    batch_size: int = 16           # per domain
    lr: float = 2e-3
    lr_drop_epochs: tuple[int, ...] = (20, 26)  # paper-scale reference: (5, 10)
    grl_coeff: float = 0.5
    use_bg_aug: bool = True
    use_tol: bool = True
    gla_views: tuple[str, ...] = ("gg", "ll", "cross")
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not math.isfinite(self.grl_coeff):
            raise ValueError("grl_coeff must be finite")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if any(epoch < 0 for epoch in self.lr_drop_epochs):
            raise ValueError(f"lr_drop_epochs must be epochs >= 0, "
                             f"got {list(self.lr_drop_epochs)}")
        if min(self.warmup_epochs, self.main_epochs) < 0:
            raise ValueError("warmup_epochs and main_epochs must be >= 0")
        try:
            epochs = schedule(self)
        except OverflowError:  # LR_DROP_FACTOR ** drops is past the largest float
            raise ValueError(f"lr_drop_epochs: {LR_DROP_FACTOR} raised to the number of "
                             f"lr drops overflows") from None
        if not all(0.0 < lr < math.inf for _, _, lr in epochs):
            raise ValueError(f"lr must be finite and stay > 0 over the lr drops, "
                             f"got lr {self.lr}")
        if not epochs:
            raise ValueError("config trains no epoch: main_epochs is 0 and there is no warm-up")
        unknown = [v for v in self.gla_views if v not in GLA_VIEWS]
        if unknown:
            raise ValueError(f"unknown gla_views {unknown}; known: {list(GLA_VIEWS)}")


def schedule(config: TrainConfig) -> list[tuple[str, int, float]]:
    """(phase, epoch, lr) of every epoch in training order: the clip-order
    warm-up at config.lr when TOL is on, then the main phase, whose lr is
    divided by LR_DROP_FACTOR at each of lr_drop_epochs."""
    epochs = [("warmup", epoch, config.lr)
              for epoch in range(config.warmup_epochs if config.use_tol else 0)]
    for epoch in range(config.main_epochs):
        drops = sum(1 for d in config.lr_drop_epochs if epoch >= d)
        epochs.append(("main", epoch, config.lr / (LR_DROP_FACTOR ** drops)))
    return epochs


def _clip_rows(parts, idx: np.ndarray):
    """Distinct (slot, frame) rows of a batch's clips: parts gives the slots
    as (packed videos, video indices) pairs, idx their (K, n_f) frame indices.
    Returns the (U, D) rows in slot order, one gather per part; the row of
    each clip frame, as (slots * K, n_f); and each slot's first row, then U.
    A key holds the slot, so a video in two slots gets two sets of rows."""
    n_slots, k, nf = idx.shape
    span = int(idx.max()) + 1  # key = slot * span + frame
    keys = idx + (np.arange(n_slots) * span)[:, None, None]
    distinct, row_of_clip_frame = np.unique(keys, return_inverse=True)
    slot, frame = np.divmod(distinct, span)
    bounds = np.searchsorted(slot, np.arange(n_slots + 1))
    frames = [videos.frames for videos, _ in parts]
    rows = np.empty((len(slot), frames[0].shape[1]), np.result_type(*frames))
    first = 0
    for videos, vi in parts:
        a, z = bounds[first], bounds[first + len(vi)]
        np.take(videos.frames, videos.starts[vi[slot[a:z] - first]] + frame[a:z], axis=0,
                out=rows[a:z])
        first += len(vi)
    return rows, row_of_clip_frame.reshape(n_slots * k, nf), bounds


def step_losses(mdl: GladModel, src: Packed, tgt: Packed, batch, config: TrainConfig,
                rng: np.random.Generator, phase: str, bank: np.ndarray | None,
                dtype=np.float32):
    """One optimization step's losses and gradients (no parameter update).

    batch is the (source, target) pair of video index arrays. Source labels
    are read here; target labels must already be stripped. With a bank, a
    source-side video may be mixed. Returns (stats, groups): the gradients
    are in mdl.grads, which realizes the saddle objective (the domain
    classifiers descend their adversarial losses, the extractor receives the
    reversal-scaled alignment gradient), and groups names the groups the
    step writes, in layout order; the other groups keep what an earlier step
    wrote. The frame encoder runs in dtype; the heads, the losses and the
    gradients are float64.
    """
    cfg = mdl.config
    src_idx, tgt_idx = (np.asarray(i, dtype=np.int64) for i in batch)
    b = len(src_idx)
    mixes = []
    if bank is not None:
        mixes = draw_mixes(b, len(bank), rng)

    # Every video gets the same K = mg + nl + n_tol clips, in this order:
    # mg global views and nl local views (VIEW_LAYOUT in the main phase, none
    # in the warm-up), then n_tol clips for order learning.
    mg, nl = VIEW_LAYOUT if phase == "main" else (0, 0)
    n_tol = cfg.tol_clips if config.use_tol or phase == "warmup" else 0
    n_views = mg + nl
    views = config.gla_views if n_views else ()
    heads = [g for g, on in (("act", n_views), ("tol", n_tol), ("dom", views)) if on]

    lengths = np.concatenate([src.lengths[src_idx], tgt.lengths[tgt_idx]])
    idx = clip_indices(lengths, cfg.n_frames, cfg.local_stride, mg, nl + n_tol, rng)
    frames, clips, bounds = _clip_rows([(src, src_idx), (tgt, tgt_idx)], idx)
    for slot, bg in mixes:
        a, z = bounds[slot], bounds[slot + 1]
        frames[a:z] = mix_background(frames[a:z], bank[bg], MIX_LAMBDA)
    feats, cache = glad_model.encode_clip_batch(mdl, clips, frames, dtype)
    dfeats = np.zeros_like(feats)
    f3 = feats.reshape(2 * b, n_views + n_tol, -1)
    d3 = dfeats.reshape(f3.shape)
    stats = dict(STEP_STATS)

    if n_tol:
        # slot j of video i's shuffled TOL input holds its clip perms[i, j]
        tol = f3[:, n_views:]
        rows = np.arange(2 * b)[:, None]
        perms = rng.permuted(np.tile(np.arange(n_tol), (2 * b, 1)), axis=1)
        targets = glad_model.tol_labels(perms)
        concat = tol[rows, perms].reshape(2 * b, -1)
        loss_tol, dconcat, logits = glad_model.tol_loss(mdl, concat, targets)
        stats["loss_tol"] = loss_tol
        stats["tol_acc"] = float(np.mean(np.argmax(logits, axis=1) == targets))
        d3[:, n_views:][rows, perms] += dconcat.reshape(2 * b, n_tol, -1)

    if n_views:
        consensus = f3[:b, :n_views].mean(axis=1)
        loss_ce, dcons = glad_model.ce_loss(mdl, consensus, src.labels[src_idx])
        stats["loss_ce"] = loss_ce
        d3[:b, :n_views] += (dcons / n_views)[:, None]

        if views:
            loss_gla, dpsi, logits = glad_model.gla_loss(
                mdl, f3[:, :mg].mean(axis=1), f3[:, mg:n_views].mean(axis=1),
                config.grl_coeff, views)
            stats["loss_gla"] = loss_gla
            d3[:, :mg] += (dpsi["g"] / mg)[:, None]
            d3[:, mg:n_views] += (dpsi["l"] / nl)[:, None]
            # the first B logits of each sub-batch score source videos
            is_src = np.arange(2 * b) < b
            for v, z in logits.items():
                stats[f"dom_acc_{v}"] = float(np.mean((z > 0.0) == is_src))

    glad_model.encode_clip_backward(mdl, cache, dfeats)
    stats["loss_total"] = stats["loss_ce"] + stats["loss_tol"] - stats["loss_gla"]
    if not np.isfinite(stats["loss_total"]):
        raise NumericError(f"non-finite loss: {stats}")
    return stats, ["enc", "proj", *heads]


def apply_grads(mdl: GladModel, velocity: dict, groups, lr: float) -> None:
    """One heavy-ball SGD step of mdl.grads on the given groups, in place:
    per element v = MOMENTUM*v + (g + WEIGHT_DECAY*p) and p -= lr*v, with
    weight decay on weight matrices only (a bias gets exactly g).

    mdl.params, mdl.grads and velocity (from mdl.zeros(), the optimizer's
    only state) share the model's flat layout,
    and the update runs over the few ranges of it that the groups fill.
    Every active gradient is checked first: a non-finite one raises
    NumericError, naming its tensor, before anything moves.
    Other groups are not touched.
    """
    p, g, v = mdl.params.flat, mdl.grads.flat, velocity.flat
    spans = mdl.flat_spans(tuple(groups))
    for a, z, _ in spans:
        if not (np.isfinite(g[a:z].min()) and np.isfinite(g[a:z].max())):
            bad = next(f"{group}.{i}" for group in groups
                       for i, t in enumerate(mdl.grads[group]) if not np.isfinite(t).all())
            raise NumericError(f"non-finite gradient in tensor {bad}")
    for a, z, is_weight in spans:
        vs, tmp = v[a:z], mdl.scratch("sgd", (z - a,))
        vs *= MOMENTUM
        if is_weight:
            np.multiply(p[a:z], WEIGHT_DECAY, out=tmp)
            tmp += g[a:z]
            vs += tmp
        else:
            vs += g[a:z]
        np.multiply(vs, lr, out=tmp)
        p[a:z] -= tmp


def _epoch_batches(n_src: int, n_tgt: int, batch: int, rng: np.random.Generator):
    """One pass over the smaller domain; the larger domain is cycled."""
    src_order = rng.permutation(n_src)
    tgt_order = rng.permutation(n_tgt)
    for k in range(math.ceil(min(n_src, n_tgt) / batch)):
        slots = k * batch + np.arange(batch)
        yield src_order[slots % n_src], tgt_order[slots % n_tgt]


# Evaluation gathers and encodes this many videos at a time.
EVAL_BLOCK = 256


def evaluate(mdl: GladModel, videos: Packed, n_classes: int) -> np.ndarray:
    """Confusion matrix of consensus inference over a labeled split: a video's
    class is the action head's argmax over the mean of its VIEW_LAYOUT clips,
    each centred, so the global clip and the centred local clip twice. EVAL_BLOCK
    videos at a time are gathered and encoded, each distinct frame once, so memory
    is sized by a block, and a split read in blocks of EVAL_BLOCK videos gives the
    encoder the same rows, bit for bit."""
    cfg = mdl.config
    idx = clip_indices(videos.lengths, cfg.n_frames, cfg.local_stride, *VIEW_LAYOUT)
    preds = []
    for a in range(0, len(idx), EVAL_BLOCK):
        block = idx[a:a + EVAL_BLOCK]
        rows, clips, _ = _clip_rows([(videos, np.arange(a, a + len(block)))], block)
        feats, _ = glad_model.encode_clip_batch(mdl, clips, rows)
        del rows  # the next block's rows reuse its memory
        consensus = feats.reshape(len(block), idx.shape[1], -1).mean(axis=1)
        preds.append(np.argmax(glad_model.classify_action(mdl, consensus), axis=1))
    return confusion_matrix(videos.labels, np.concatenate(preds), n_classes)


# Overflow and NaN in a diverging run end it with NumericError, not with
# numpy warnings.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(config: TrainConfig, src: Packed, tgt_train: Packed,
          tgt_test: Packed | None = None) -> tuple:
    """The trained model and the epochs of schedule(config), each a row of
    REPORT_COLUMNS: its steps' mean statistics and the target-test MCA after
    it. Target training labels are set to -1 before any step sees them."""
    mdl = init_glad_model(config.model, seed=config.seed)
    rng = np.random.default_rng((config.seed, 0x7A))
    tgt = replace(tgt_train, labels=np.full_like(tgt_train.labels, -1))
    bank = (np.concatenate([build_background_bank(src), build_background_bank(tgt)])
            if config.use_bg_aug else None)
    velocity = mdl.zeros()
    epochs = []
    for phase, epoch, lr in schedule(config):
        steps = []
        for batch in _epoch_batches(len(src.lengths), len(tgt.lengths), config.batch_size, rng):
            stats, groups = step_losses(mdl, src, tgt, batch, config, rng, phase, bank)
            apply_grads(mdl, velocity, groups, lr)
            steps.append(stats)
        mca = (float("nan") if tgt_test is None
               else mean_class_accuracy(evaluate(mdl, tgt_test, config.model.n_classes)))
        # the phase and the config fix which heads run, so a statistic is NaN
        # in every step of an epoch or in none
        epochs.append({"phase": phase, "epoch": epoch, "lr": lr,
                       **{k: sum(s[k] for s in steps) / len(steps) for k in STEP_STATS},
                       "target_mca": mca})
    return mdl, epochs


def ablation_rows() -> dict:
    """Toggle sets for the standard ablation matrix. Every row sets use_bg_aug,
    use_tol and gla_views, so the base config reaches no toggle of a run."""
    return {
        "source_only": {"use_bg_aug": False, "use_tol": False, "gla_views": ()},
        "gla_only": {"use_bg_aug": False, "use_tol": False, "gla_views": tuple(GLA_VIEWS)},
        "debias_only": {"use_bg_aug": True, "use_tol": True, "gla_views": ()},
        "full_glad": {"use_bg_aug": True, "use_tol": True, "gla_views": tuple(GLA_VIEWS)},
        "supervised_target": {"use_bg_aug": False, "use_tol": False, "gla_views": ()},
        "dann": {"use_bg_aug": False, "use_tol": False, "gla_views": ("gg",)},
    }


# Inputs every ablation job shares; _init_worker sets them in each pool
# worker, and the parent process never does.
_job_inputs: tuple | None = None

# OpenBLAS's thread-count setter under the names its builds export.
_OPENBLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads",
                         "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Run OpenBLAS, where numpy loaded it, on one thread in this process.

    cli.main calls it before any command: a matrix product's bits depend on
    how many threads split it. Each ablation worker calls it for library
    callers, as workers with a thread per core each spin against each other.
    """
    with open("/proc/self/maps") as f:
        fields = [line.split(maxsplit=5) for line in f]
    paths = {x[5].strip() for x in fields
             if len(x) == 6 and "openblas" in os.path.basename(x[5])}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_SET_THREADS:
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                break


def _init_worker(base, src_train, tgt_train, tgt_test) -> None:
    global _job_inputs
    _one_blas_thread()
    _job_inputs = (base, src_train, tgt_train, tgt_test)


def _run_job(name: str, overrides: dict, seed: int) -> float:
    """The target-test MCA of one ablation run on the worker's inputs, scored
    once, after its last epoch."""
    base, src_train, tgt_train, tgt_test = _job_inputs
    if name == "supervised_target":
        # Upper-bound baseline: the labeled "source" is the target train split.
        src_train = tgt_train
    mdl, _ = train(replace(base, **overrides, seed=seed), src_train, tgt_train)
    return mean_class_accuracy(evaluate(mdl, tgt_test, base.model.n_classes))


def run_ablation_matrix(base: TrainConfig, src_train, tgt_train, tgt_test, seeds) -> dict:
    """MCA mean and population std per toggle set of ablation_rows() over
    the given seeds.

    Each (row, seed) run is seeded and independent, so the runs go to a pool
    of forked worker processes, one per available core (at most one per
    run), longest schedule first. The table does not depend on the number of
    workers. An exception raised in a run is raised here unchanged; a
    worker that dies raises ChildProcessError.
    """
    # Imported here: the pool's modules would add about 2 MB to the peak
    # RSS of every other glad command.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    rows = ablation_rows()
    jobs = sorted([(name, i, seed) for name in rows for i, seed in enumerate(seeds)],
                  key=lambda job: len(schedule(replace(base, **rows[job[0]]))), reverse=True)
    workers = min(len(os.sched_getaffinity(0)), len(jobs))
    mcas = {}
    # fork: the workers inherit the loaded splits instead of a pickled copy per run
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker,
                             initargs=(base, src_train, tgt_train, tgt_test)) as pool:
        futures = {pool.submit(_run_job, name, rows[name], seed): (name, i)
                   for name, i, seed in jobs}
        try:
            for future in as_completed(futures):
                mcas[futures[future]] = future.result()
        except BrokenProcessPool as e:
            raise ChildProcessError(f"worker process died: {e}") from e
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    values = {name: [mcas[name, i] for i in range(len(seeds))] for name in rows}
    # the population std of one value is 0.0
    return {name: {"mean": statistics.fmean(v), "std": statistics.pstdev(v), "values": v}
            for name, v in values.items()}


def format_ablation_table(table: dict) -> str:
    """One line per row, then the paper's accuracy gap of the two baselines'
    means. Std is the population formula over seeds."""
    lines = [f"{'config':<20} {'MCA mean':>9} {'+/- std (population)':>21}"]
    for name, row in table.items():
        lines.append(f"{name:<20} {row['mean']:>9.2f} {row['std']:>21.2f}")
    gap = accuracy_gap(table["supervised_target"]["mean"], table["source_only"]["mean"])
    lines.append(f"{'delta_acc':<20} {gap:>9.2f}")
    return "\n".join(lines)
