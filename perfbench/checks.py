"""Output checks for the benchmark.

Every check recomputes the expected result without calling the program,
or tests a property the method must have. A check raises CheckFailed with
a one-line reason. Only numpy, scipy and the file formats documented in the
project README are used here; `check_dataset` alone calls the program's
`generate_domain`, as the reference for a bit-exact file round-trip.
"""

from __future__ import annotations

import json
import math
import os
import statistics

import numpy as np
from scipy.stats import wasserstein_distance

from glad.synthdata import generate_domain, spec_from_dict

# Rows of the standard ablation matrix and whether each one runs the
# clip-order warm-up (it does exactly when TOL is enabled).
ABLATION_ROWS = {"source_only": False, "gla_only": False, "debias_only": True,
                 "full_glad": True, "supervised_target": False, "dann": False}


class CheckFailed(Exception):
    """A program output disagrees with the separately computed result."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _load_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CheckFailed(f"{path}: unreadable ({e})") from e


# ---------------------------------------------------------------------------
# Datasets

def read_split(split_dir: str):
    """(manifest dict, frames (sum T, D) float32, per-video start rows)."""
    manifest = _load_json(os.path.join(split_dir, "manifest.json"))
    spec = manifest["spec"]
    d = spec["height"] * spec["width"]
    frames = np.fromfile(os.path.join(split_dir, "frames.bin"), dtype="<f4")
    _require(frames.size % d == 0, f"{split_dir}: frames.bin is not whole frames")
    lengths = np.array([e["length"] for e in manifest["entries"]], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    return manifest, frames.reshape(-1, d), starts


def check_dataset(split_dir: str, spec: dict) -> None:
    """The split written by `glad synth` for `spec` (a DomainSpec dict)."""
    manifest, frames, starts = read_split(split_dir)
    entries = manifest["entries"]
    n, k = spec["n_videos"], manifest["spec"]["n_classes"]
    lo, hi = spec["length_range"]
    _require(len(entries) == n, f"{split_dir}: {len(entries)} videos, want {n}")
    _require([e["label"] for e in entries] == [i % k for i in range(n)],
             f"{split_dir}: labels are not round-robin")
    lengths = [e["length"] for e in entries]
    _require(all(lo <= t <= hi for t in lengths),
             f"{split_dir}: a length is outside [{lo}, {hi}]")
    _require([e["offset"] for e in entries]
             == [int(s) * frames.shape[1] * 4 for s in starts],
             f"{split_dir}: offsets do not follow the lengths")
    size = os.path.getsize(os.path.join(split_dir, "frames.bin"))
    _require(size == sum(lengths) * frames.shape[1] * 4,
             f"{split_dir}: frames.bin has {size} bytes")
    _require(bool(np.all((frames >= 0.0) & (frames <= 1.0))),
             f"{split_dir}: a frame value is outside [0, 1]")
    _require(all(manifest["spec"][key] == value for key, value in spec.items()),
             f"{split_dir}: manifest spec differs from the requested spec")
    _, samples = generate_domain(spec_from_dict(manifest["spec"]))
    ref = np.concatenate([s.frames for s in samples]).astype("<f4")
    _require(ref.shape == frames.shape and ref.tobytes() == frames.tobytes(),
             f"{split_dir}: frames differ from generate_domain")


# ---------------------------------------------------------------------------
# Gap metrics

def median_backgrounds(split_dir: str) -> np.ndarray:
    manifest, frames, starts = read_split(split_dir)
    return np.stack([np.median(frames[s:s + e["length"]], axis=0)
                     for s, e in zip(starts, manifest["entries"])])


def brute_scene_distance(bg_u: np.ndarray, bg_v: np.ndarray) -> float:
    """Symmetric mean of per-item minimum cosine distances, every pair."""
    u = bg_u.astype(np.float64)
    v = bg_v.astype(np.float64)
    cos = (u @ v.T) / np.outer(np.linalg.norm(u, axis=1), np.linalg.norm(v, axis=1))
    dist = 1.0 - cos
    return 0.5 * (float(dist.min(axis=1).mean()) + float(dist.min(axis=0).mean()))


def check_gap(gap_json: str, src_split: str, tgt_split: str) -> None:
    report = _load_json(gap_json)
    src = _load_json(os.path.join(src_split, "manifest.json"))["entries"]
    tgt = _load_json(os.path.join(tgt_split, "manifest.json"))["entries"]
    emd = wasserstein_distance([e["length"] for e in src], [e["length"] for e in tgt])
    _require(math.isclose(report["delta_temp"], emd, rel_tol=1e-9, abs_tol=1e-12),
             f"{gap_json}: delta_temp {report['delta_temp']!r} != {emd!r}")
    bg = brute_scene_distance(median_backgrounds(src_split), median_backgrounds(tgt_split))
    _require(math.isclose(report["delta_bg"], bg, rel_tol=1e-9, abs_tol=1e-12),
             f"{gap_json}: delta_bg {report['delta_bg']!r} != {bg!r}")


# ---------------------------------------------------------------------------
# Consensus inference from a checkpoint, written from the file formats

def load_checkpoint(ckpt_dir: str):
    cfg = _load_json(os.path.join(ckpt_dir, "model.json"))
    meta = _load_json(os.path.join(ckpt_dir, "params.json"))
    raw = np.fromfile(os.path.join(ckpt_dir, "params.bin"), dtype="<f4")
    params, offset = {}, 0
    for entry in meta:
        n = math.prod(entry["shape"])
        params[entry["name"]] = raw[offset:offset + n].reshape(entry["shape"]).astype(np.float64)
        offset += n
    _require(offset == raw.size, f"{ckpt_dir}: params.bin size mismatch")
    return cfg, params


def eval_clip_indices(t: int, n_frames: int, stride: int) -> list[list[int]]:
    """Segment centres for the global clip; a centred strided local clip,
    taken twice."""
    centres = []
    for k in range(n_frames):
        lo = k * t // n_frames
        hi = max(lo + 1, (k + 1) * t // n_frames)
        centres.append(min((lo + hi - 1) // 2, t - 1))
    span = stride * (n_frames - 1)
    start = max(0, (t - 1 - span) // 2) if t > span else 0
    local = [min(start + stride * k, t - 1) for k in range(n_frames)]
    return [centres, local, local]


def forward_logits(ckpt_dir: str, split_dir: str):
    """(logits (N, K), labels (N,)) of consensus inference on a split."""
    cfg, p = load_checkpoint(ckpt_dir)
    manifest, frames, starts = read_split(split_dir)
    entries = manifest["entries"]
    rows = [int(s) + i
            for s, e in zip(starts, entries)
            for clip in eval_clip_indices(e["length"], cfg["n_frames"], cfg["local_stride"])
            for i in clip]
    x = (frames[rows].astype(np.float64) - cfg["input_center"]) * cfg["input_gain"]
    h = np.maximum(x @ p["enc.0"] + p["enc.1"], 0.0) @ p["enc.2"] + p["enc.3"]
    pooled = h.reshape(len(entries) * 3, cfg["n_frames"], -1).mean(axis=1)
    feats = pooled @ p["proj.0"] + p["proj.1"]
    consensus = feats.reshape(len(entries), 3, -1).mean(axis=1)
    logits = consensus @ p["act.0"] + p["act.1"]
    return logits, np.array([e["label"] for e in entries], dtype=np.int64)


def confusion(labels: np.ndarray, preds: np.ndarray, k: int) -> np.ndarray:
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (labels, preds), 1)
    return cm


def mca_of(cm: np.ndarray) -> float:
    return float(np.mean(np.diag(cm) / cm.sum(axis=1)) * 100.0)


def top2_margin(logits: np.ndarray) -> float:
    top = np.sort(logits, axis=1)
    return float((top[:, -1] - top[:, -2]).min())


def check_eval(eval_json: str, ckpt_dir: str, split_dir: str) -> float:
    """`glad eval` output against the separate forward; returns the smallest
    top-two logit margin, which shows how much room exact equality has."""
    out = _load_json(eval_json)
    logits, labels = forward_logits(ckpt_dir, split_dir)
    cm = confusion(labels, np.argmax(logits, axis=1), logits.shape[1])
    _require(np.array_equal(np.asarray(out["confusion"]), cm),
             f"{eval_json}: confusion matrix differs from the separate forward")
    _require(math.isclose(out["mca"], mca_of(cm), rel_tol=1e-12),
             f"{eval_json}: mca {out['mca']!r} != {mca_of(cm)!r}")
    return top2_margin(logits)


# ---------------------------------------------------------------------------
# Training report and ablation table

def _is_video_multiple(mca: float, n_test: int) -> bool:
    units = mca * n_test / 100.0
    return abs(units - round(units)) < 1e-6


def check_report_rows(epochs: list, train: dict, n_test: int, n_classes: int,
                      forward_mca: float, skilled: bool = True) -> None:
    """Property checks of report.json rows; `train` holds warmup_epochs,
    main_epochs, lr, lr_drop_epochs (factor 10) and use_tol; `forward_mca`
    is the separately computed MCA of the saved checkpoint. A `skilled` run
    must end at 3x chance or better."""
    n_warm = train["warmup_epochs"] if train.get("use_tol", True) else 0
    phases = [e["phase"] for e in epochs]
    _require(phases == ["warmup"] * n_warm + ["main"] * train["main_epochs"],
             f"report rows {phases.count('warmup')} warm-up + "
             f"{phases.count('main')} main, want {n_warm} + {train['main_epochs']}")
    for e in epochs:
        drops = 0 if e["phase"] == "warmup" else \
            sum(1 for d in train["lr_drop_epochs"] if e["epoch"] >= d)
        want = train["lr"] / 10.0 ** drops
        _require(math.isclose(e["lr"], want, rel_tol=1e-12),
                 f"{e['phase']} epoch {e['epoch']}: lr {e['lr']!r} != {want!r}")
        for key in ("loss_ce", "loss_tol", "loss_gla", "loss_total"):
            _require(math.isfinite(e[key]), f"{e['phase']} epoch {e['epoch']}: {key} not finite")
        _require(_is_video_multiple(e["target_mca"], n_test),
                 f"{e['phase']} epoch {e['epoch']}: MCA {e['target_mca']!r} "
                 f"is not a multiple of 100/{n_test}")
    warm = [e for e in epochs if e["phase"] == "warmup"]
    main = [e for e in epochs if e["phase"] == "main"]
    if len(warm) > 1:
        _require(warm[-1]["loss_tol"] < warm[0]["loss_tol"], "warm-up loss_tol did not fall")
    if len(main) > 1:
        _require(main[-1]["loss_ce"] < main[0]["loss_ce"], "main loss_ce did not fall")
    final = epochs[-1]["target_mca"]
    _require(not skilled or final >= 3 * 100.0 / n_classes,
             f"final MCA {final:.2f} is below 3x chance")
    _require(abs(final - forward_mca) <= 100.0 / n_test + 1e-9,
             f"final MCA {final:.2f} vs checkpoint forward {forward_mca:.2f}: "
             "more than one video apart")


def check_train(run_dir: str, train: dict, test_split: str, skilled: bool = True) -> None:
    """report.json of `glad train --out run_dir` and its final checkpoint."""
    report = _load_json(os.path.join(run_dir, "report.json"))
    logits, labels = forward_logits(os.path.join(run_dir, "final"), test_split)
    k = logits.shape[1]
    forward = mca_of(confusion(labels, np.argmax(logits, axis=1), k))
    check_report_rows(report["epochs"], train, len(labels), k, forward, skilled)


def check_ablation_table(table: dict, seeds: list, n_test: int) -> None:
    _require(list(table) == list(ABLATION_ROWS),
             f"ablation rows {list(table)}, want {list(ABLATION_ROWS)}")
    for name, row in table.items():
        values = row["values"]
        _require(len(values) == len(seeds), f"{name}: {len(values)} values for {len(seeds)} seeds")
        _require(all(_is_video_multiple(v, n_test) for v in values),
                 f"{name}: a value is not a multiple of 100/{n_test}")
        _require(row["mean"] == statistics.fmean(values), f"{name}: mean != fmean(values)")
        _require(row["std"] == statistics.pstdev(values), f"{name}: std != pstdev(values)")
    sup = table["supervised_target"]["mean"]
    _require(sup >= 80.0, f"supervised_target mean {sup:.2f} < 80")
    _require(all(sup > row["mean"] for name, row in table.items()
                 if name != "supervised_target"),
             "supervised_target is not above every other row")


def check_ablation(ablation_json: str, seeds: list, n_test: int) -> None:
    check_ablation_table(_load_json(ablation_json), seeds, n_test)
