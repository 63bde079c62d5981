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
from .diffnet import NonFiniteGradientError
from .gapmetrics import (EmptyClassError, GapReport, SceneFeatureSet, accuracy_gap,
                         mean_class_accuracy, scene_distance, temporal_distance)
from .schema import from_json, read_json
from .synthdata import (DatasetError, DomainSpec, read_dataset, spec_from_dict,
                        write_dataset)
from .trainer import (EVAL_BLOCK, NumericError, TrainConfig, evaluate,
                      format_ablation_table, run_ablation_matrix, train)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
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


def scene_features_of(blocks) -> SceneFeatureSet:
    """Scene features of a split's consecutive Packed blocks, in video
    order: L2-normalized temporal-median backgrounds, which replace a
    pretrained scene-classification network at desk scale. A video's median
    depends on no other video, so a block's bank rows are the split's. map
    keeps no block once its bank is built, so one block at a time is alive."""
    bank = np.concatenate(list(map(build_background_bank, blocks)))
    return SceneFeatureSet.from_vectors(bank.astype(np.float64))


def cmd_gap(args) -> int:
    if (args.mca_sup is None) != (args.mca_src is None):
        missing = "--mca-sup" if args.mca_sup is None else "--mca-src"
        raise UsageError(f"the accuracy gap needs --mca-sup and --mca-src; {missing} is missing")
    features, lengths = [], []
    for path in (args.source, args.target):
        manifest, blocks = read_dataset(resolve_split_dir(path), EVAL_BLOCK)
        features.append(scene_features_of(blocks))
        lengths.append(manifest.lengths())
    delta_bg = scene_distance(*features)
    delta_temp = temporal_distance(*lengths)
    report = GapReport(delta_bg=delta_bg, delta_temp=delta_temp,
                       notes={"scene_feature": "normalized temporal-median background"})
    if args.mca_sup is not None:
        report.mca_supervised_target = args.mca_sup
        report.mca_source_only = args.mca_src
        report.delta_acc = accuracy_gap(args.mca_sup, args.mca_src)
    print(report.to_table())
    payload = json.dumps(report.to_dict(), indent=1)
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
    strings (null for none) and a train section; other keys are kept."""
    doc = read_json(path, UsageError, f"config {path}")
    if not isinstance(doc, dict):
        raise UsageError(f"config {path}: expected an object, got {doc!r}")
    for key in ("source_dir", "target_dir", "test_dir", "out_dir"):
        value = doc.get(key)
        if value is None and key in ("source_dir", "target_dir"):
            raise UsageError(f"config {path}: missing field {key!r}")
        if not isinstance(value, (str, type(None))):
            raise UsageError(f"config {path}: {key}: expected str, got {value!r}")
    try:
        tc = from_json(TrainConfig, doc.get("train", {}), "train")
    except TypeError as e:
        raise UsageError(f"config {path}: {e}") from e
    return doc, tc


def _check_fit(directory: str, spec: DomainSpec, model_cfg) -> None:
    """The videos of a split must fit the model's input and classes."""
    for key in ("n_classes", "frame_dim"):
        have, need = getattr(spec, key), getattr(model_cfg, key)
        if have != need:
            raise UsageError(f"{directory}: dataset {key}={have} but model {key}={need}")


def _read_split(directory: str, model_cfg):
    manifest, (split,) = read_dataset(directory)
    _check_fit(directory, manifest.spec, model_cfg)
    return split


def _load_splits(doc, tc):
    src_dir = resolve_split_dir(doc["source_dir"])
    tgt_dir = resolve_split_dir(doc["target_dir"])
    src_train = _read_split(src_dir, tc.model)
    tgt_train = _read_split(tgt_dir, tc.model)
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
        tgt_test = _read_split(resolve_split_dir(test_dir), tc.model)
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
    _check_fit(directory, manifest.spec, mdl.config)
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
    common.add_argument("--seed", type=_seed_arg, default=None)
    common.add_argument("--out", default=None)
    parser = CliParser(prog="glad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate the synthetic benchmark")
    p.add_argument("--spec", help="JSON file of domain specs")
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gap", parents=[common], help="measure domain gaps")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--mca-sup", type=float, default=None)
    p.add_argument("--mca-src", type=float, default=None)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("train", parents=[common], help="train a model")
    p.add_argument("--config", required=True)
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
        return args.func(args)
    except ChildProcessError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (DatasetError, EmptyClassError, OSError) as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except (UsageError, ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, NonFiniteGradientError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as e:  # numpy's _ArrayMemoryError names the allocation
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
