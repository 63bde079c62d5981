"""Command-line surface: synth, gap, train, eval, ablate.

Exit codes: 0 success, 1 usage/config error or out of memory, 2 I/O or data error,
3 numeric failure; a worker process of `glad ablate` that dies also ends with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import model as glad_model
from .debias import build_background_bank
from .gapmetrics import mean_class_accuracy, scene_distance, temporal_distance
from .schema import from_json, read_json
from .synthdata import (DatasetError, DomainSpec, read_dataset, spec_from_dict,
                        write_dataset)
from .trainer import (EVAL_BLOCK, NumericError, TrainConfig, _one_blas_thread, evaluate,
                      format_ablation_table, run_ablation_matrix, train)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # full option names only: --seed is not --seeds
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def default_benchmark_specs(seed: int = 0) -> dict:
    """The planted two-domain benchmark: class-correlated long source videos
    versus fixed-checkerboard short target videos."""
    return {
        "source_train": DomainSpec(n_videos=600, length_range=(48, 96),
                                   background_mode="class_correlated",
                                   bias_rho=1.0, seed=seed, domain="source"),
        "source_test": DomainSpec(n_videos=120, length_range=(48, 96),
                                  background_mode="class_correlated",
                                  bias_rho=1.0, seed=seed + 1000, domain="source"),
        "target_train": DomainSpec(n_videos=300, length_range=(8, 24),
                                   background_mode="fixed_checkerboard",
                                   seed=seed + 1, domain="target"),
        "target_test": DomainSpec(n_videos=120, length_range=(8, 24),
                                  background_mode="fixed_checkerboard",
                                  seed=seed + 1001, domain="target"),
    }


def resolve_split_dir(path: str) -> str:
    """Accept either a split directory or a domain directory holding train/."""
    if os.path.exists(os.path.join(path, "manifest.json")):
        return path
    train = os.path.join(path, "train")
    if os.path.exists(os.path.join(train, "manifest.json")):
        return train
    raise FileNotFoundError(f"no dataset found at {path}")


def cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if args.spec:
        if args.seed is not None:
            raise UsageError("--seed does not apply with --spec: each split's seed "
                             "is the \"seed\" of its spec")
        raw = read_json(args.spec, UsageError)
        if not isinstance(raw, dict):
            raise UsageError(f"{args.spec}: expected an object of named splits")
        for name in raw:  # each names a directory under --out
            if name in ("", ".", "..") or "/" in name or os.sep in name:
                raise UsageError(f"{args.spec}: split name {name!r} is not one path component")
        specs = {name: spec_from_dict(value, name) for name, value in raw.items()}
    else:
        specs = default_benchmark_specs(seed)
    if args.dry_run:
        for name, spec in specs.items():
            print(f"{name}: {json.dumps(asdict(spec))}")
        return EXIT_OK
    out = args.out or "datasets"
    layout = {"source_train": ("source", "train"), "source_test": ("source", "test"),
              "target_train": ("target", "train"), "target_test": ("target", "test")}
    for name, spec in specs.items():
        domain, split = layout.get(name, (name, ""))
        directory = os.path.join(out, domain, split) if split else os.path.join(out, name)
        write_dataset(spec, directory)
        print(f"wrote {spec.n_videos} videos to {directory}")
    src = specs.get("source_train")
    tgt = specs.get("target_train")
    if src and tgt:
        print(f"planted shifts: source lengths {list(src.length_range)} vs "
              f"target {list(tgt.length_range)}; source background bias "
              f"rho={src.bias_rho}, target mode={tgt.background_mode}")
    return EXIT_OK


def scene_features_of(directory: str, blocks) -> np.ndarray:
    """Scene features of a split's consecutive Packed blocks, in video
    order: L2-normalized temporal-median backgrounds (float64 unit rows),
    which replace a pretrained scene-classification network at desk scale.
    A video's median depends on no other video, so a block's bank rows are
    the split's. map keeps no block once its bank is built, so one block at
    a time is alive."""
    bank = np.concatenate(list(map(build_background_bank, blocks))).astype(np.float64)
    norms = np.linalg.norm(bank, axis=1)
    if not norms.all():  # valid frames whose median background is all zeros
        raise DatasetError(f"{directory}: scene features, one row per video: "
                           f"row {norms.argmin()}: zero vector cannot be normalized")
    return bank / norms[:, None]


def cmd_gap(args) -> int:
    # both manifests before any frame: read_dataset yields its blocks lazily
    splits = [(d, *read_dataset(d, EVAL_BLOCK))
              for d in map(resolve_split_dir, (args.source, args.target))]
    (src_dir, src, _), (tgt_dir, tgt, _) = splits
    _check_frame_size(src_dir, src.spec, tgt_dir, tgt.spec)
    features = [scene_features_of(d, blocks) for d, _, blocks in splits]
    report = {"delta_bg": scene_distance(*features),
              "delta_temp": temporal_distance(src.lengths(), tgt.lengths()),
              "notes": {"scene_feature": "normalized temporal-median background"}}
    print(f"{'Delta_bg':>10} {'Delta_temp':>12}\n"
          f"{report['delta_bg']:>10.3f} {report['delta_temp']:>12.3f}")
    payload = json.dumps(report, indent=1)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "gap.json"), "w") as f:
            f.write(payload)
    else:
        print(payload)
    return EXIT_OK


def load_experiment(path: str):
    """(document, TrainConfig) of an experiment config: an object with
    source_dir and target_dir strings, optional test_dir and out_dir
    strings (null for none), none of them empty, and a train section; other
    keys are kept."""
    doc = read_json(path, UsageError, f"config {path}")
    if not isinstance(doc, dict):
        raise UsageError(f"config {path}: expected an object, got {doc!r}")
    for key in ("source_dir", "target_dir", "test_dir", "out_dir"):
        value = doc.get(key)
        if value is None and key in ("source_dir", "target_dir"):
            raise UsageError(f"config {path}: missing field {key!r}")
        if not isinstance(value, (str, type(None))):
            raise UsageError(f"config {path}: {key}: expected str, got {value!r}")
        if value == "":
            raise UsageError(f"config {path}: {key}: expected a path, got \"\"")
    try:
        tc = from_json(TrainConfig, doc.get("train", {}), "train")
    except (TypeError, ValueError) as e:
        raise UsageError(f"config {path}: {e}") from e
    return doc, tc


def _check_fit(directory: str, manifest, model_cfg, scored: bool = False) -> None:
    """The videos of a split must fit the model's classes and frame shape,
    and a split that is scored must hold every class, by its manifest's labels."""
    spec = manifest.spec
    if spec.n_classes != model_cfg.n_classes:
        raise UsageError(f"{directory}: dataset n_classes={spec.n_classes} "
                         f"but model n_classes={model_cfg.n_classes}")
    if (spec.height, spec.width) != model_cfg.frame_shape:
        raise UsageError(f"{directory}: frames are {spec.height}x{spec.width} but the "
                         "model's are {}x{}".format(*model_cfg.frame_shape))
    if scored:
        counts = np.bincount([e["label"] for e in manifest.entries],
                             minlength=model_cfg.n_classes)
        if not counts.all():
            raise DatasetError(f"{directory}: class {counts.argmin()} has no samples")


def _check_frame_size(first: str, a, second: str, b) -> None:
    """Splits compared pixel by pixel need one height x width, not one frame_dim."""
    if (a.height, a.width) != (b.height, b.width):
        raise UsageError(f"{first}: frames are {a.height}x{a.width} but {second}: frames "
                         f"are {b.height}x{b.width}; the splits need one frame size")


def _read_split(directory: str, model_cfg, scored: bool = False):
    """The videos of a split that fits the model."""
    manifest, blocks = read_dataset(directory)
    _check_fit(directory, manifest, model_cfg, scored)
    (split,) = blocks
    return split


def _load_splits(doc, tc):
    src_dir, tgt_dir = (resolve_split_dir(doc[key]) for key in ("source_dir", "target_dir"))
    src_train, tgt_train = (_read_split(d, tc.model) for d in (src_dir, tgt_dir))
    # the labelled side of supervised_target, the target split, is in the min
    smaller = min(len(src_train.lengths), len(tgt_train.lengths))
    if tc.batch_size > smaller:
        raise UsageError(f"batch_size {tc.batch_size} is larger than the smaller "
                         f"training split ({smaller} videos)")
    tgt_test = None
    test_dir = doc.get("test_dir")
    if test_dir is None:
        candidate = os.path.join(os.path.dirname(tgt_dir.rstrip("/")), "test")
        if os.path.exists(os.path.join(candidate, "manifest.json")):
            test_dir = candidate
    if test_dir:
        tgt_test = _read_split(resolve_split_dir(test_dir), tc.model, True)
    return src_train, tgt_train, tgt_test


def _write_resolved_config(doc, tc, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    resolved = dict(doc)
    resolved["train"] = asdict(tc)
    with open(os.path.join(out_dir, "config.json"), "w") as f:
        json.dump(resolved, f, indent=1)


def cmd_train(args) -> int:
    doc, tc = load_experiment(args.config)
    if args.seed is not None:
        tc = replace(tc, seed=args.seed)
    out = args.out or doc.get("out_dir") or "train_out"
    src_train, tgt_train, tgt_test = _load_splits(doc, tc)
    _write_resolved_config(doc, tc, out)
    _, report = train(tc, src_train, tgt_train, tgt_test, out_dir=out)
    last = report.epochs[-1]
    print(f"final: loss_total={last['loss_total']:.4f} "
          f"target_mca={last['target_mca']:.2f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    mdl = glad_model.load_model(args.checkpoint)
    directory = resolve_split_dir(args.data)
    manifest, blocks = read_dataset(directory, EVAL_BLOCK)  # one block's frames at a time
    _check_fit(directory, manifest, mdl.config, scored=True)
    # the blocks' counts add up to the split's; map keeps one block alive at a time
    cm = sum(map(lambda block: evaluate(mdl, block, mdl.config.n_classes), blocks))
    mca = mean_class_accuracy(cm)
    print(f"MCA: {mca:.2f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "eval.json"), "w") as f:
            json.dump({"mca": mca, "confusion": cm.tolist()}, f, indent=1)
    return EXIT_OK


def cmd_ablate(args) -> int:
    doc, tc = load_experiment(args.config)
    out = args.out or doc.get("out_dir") or "ablate_out"
    src_train, tgt_train, tgt_test = _load_splits(doc, tc)
    if tgt_test is None:
        raise UsageError("ablation needs a labeled target test split")
    _write_resolved_config(doc, tc, out)
    table = run_ablation_matrix(tc, src_train, tgt_train, tgt_test, args.seeds)
    text = format_ablation_table(table)
    print(text)
    with open(os.path.join(out, "ablation.json"), "w") as f:
        json.dump(table, f, indent=1)
    with open(os.path.join(out, "ablation.txt"), "w") as f:
        f.write(text + "\n")
    return EXIT_OK


def _seed_arg(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"a seed must be an integer >= 0, got {text!r}")
    return int(text)


def _seed_list_arg(text: str) -> list[int]:
    return [_seed_arg(s) for s in text.split(",")]


def build_parser() -> CliParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    parser = CliParser(prog="glad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate the synthetic benchmark")
    p.add_argument("--seed", type=_seed_arg, default=None)
    p.add_argument("--spec", help="JSON file of domain specs")
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gap", parents=[common], help="measure domain gaps")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("train", parents=[common], help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed_arg, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[common], help="run the ablation matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=_seed_list_arg, default=[0, 1, 2],
                   help="comma-separated seed list")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _one_blas_thread()  # outputs must not depend on OPENBLAS_NUM_THREADS
        return args.func(args)
    except ChildProcessError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (DatasetError, OSError) as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except (UsageError, ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as e:  # numpy's _ArrayMemoryError names the allocation
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
