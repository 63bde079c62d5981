import contextlib
import dataclasses
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glad import cli, model as glad_model, trainer
from glad.cli import (EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                      default_benchmark_specs, main, resolve_split_dir)
from glad.debias import build_background_bank
from glad.gapmetrics import mean_class_accuracy
from glad.model import ModelConfig, init_glad_model, save_model
from glad.synthdata import (DomainSpec, generate_domain, read_dataset,
                            write_dataset)
from oracles import unit_rows


def small_specs(seed=0):
    base = default_benchmark_specs(seed)
    return {
        "source_train": dataclasses.replace(base["source_train"], n_videos=12,
                                            length_range=(12, 20), n_classes=4),
        "source_test": dataclasses.replace(base["source_test"], n_videos=8,
                                           length_range=(12, 20), n_classes=4),
        "target_train": dataclasses.replace(base["target_train"], n_videos=12,
                                            length_range=(8, 10), n_classes=4),
        "target_test": dataclasses.replace(base["target_test"], n_videos=8,
                                           length_range=(8, 10), n_classes=4),
    }


def write_spec_file(tmp_path, specs):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({k: dataclasses.asdict(v) for k, v in specs.items()}))
    return str(path)


def synth_small(tmp_path, seed=0):
    spec_file = write_spec_file(tmp_path, small_specs(seed))
    out = str(tmp_path / "data")
    assert main(["synth", "--spec", spec_file, "--out", out]) == EXIT_OK
    return out


def train_config_doc(tmp_path, data_dir, **train_overrides):
    train = {"warmup_epochs": 1, "main_epochs": 2, "batch_size": 4,
             "lr_drop_epochs": [1],
             "model": {"frame_shape": [8, 8], "enc_hidden": 8, "enc_out": 6,
                       "feat_dim": 6, "n_classes": 4, "n_frames": 4,
                       "tol_hidden": 8, "domain_hidden": [8, 6, 4]}}
    train.update(train_overrides)
    doc = {"source_dir": os.path.join(data_dir, "source"),
           "target_dir": os.path.join(data_dir, "target"),
           "train": train}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_default_benchmark_specs_shape():
    specs = default_benchmark_specs(0)
    assert specs["source_train"].n_videos == 600
    assert specs["target_train"].n_videos == 300
    assert specs["source_train"].length_range == (48, 96)
    assert specs["target_train"].length_range == (8, 24)
    assert specs["source_train"].bias_rho == 1.0
    assert specs["target_train"].background_mode == "fixed_checkerboard"
    assert specs["source_test"].n_videos == specs["target_test"].n_videos == 120


def test_synth_writes_four_splits(tmp_path, capsys):
    out = synth_small(tmp_path)
    for d in ("source/train", "source/test", "target/train", "target/test"):
        assert os.path.exists(os.path.join(out, d, "manifest.json"))
    captured = capsys.readouterr().out
    assert "planted shifts" in captured


def test_synth_is_reproducible(tmp_path):
    spec_file = write_spec_file(tmp_path, small_specs())
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["synth", "--spec", spec_file, "--out", out_a]) == EXIT_OK
    assert main(["synth", "--spec", spec_file, "--out", out_b]) == EXIT_OK
    for d in ("source/train", "target/test"):
        fa = Path(os.path.join(out_a, d, "frames.bin")).read_bytes()
        fb = Path(os.path.join(out_b, d, "frames.bin")).read_bytes()
        assert fa == fb


def test_synth_files_equal_generate_domain(tmp_path):
    """What glad synth streams to disk block by block is generate_domain's
    split: the same entries, and its videos' bytes end to end."""
    out = synth_small(tmp_path)
    for name, spec in small_specs().items():
        manifest, (videos,) = generate_domain(spec)
        split = os.path.join(out, *name.split("_"))
        with open(os.path.join(split, "manifest.json")) as f:
            assert json.load(f)["entries"] == manifest.entries
        with open(os.path.join(split, "frames.bin"), "rb") as f:
            assert f.read() == videos.frames.tobytes()


def test_synth_dry_run_writes_nothing(tmp_path, capsys):
    spec_file = write_spec_file(tmp_path, small_specs())
    out = str(tmp_path / "nothing")
    assert main(["synth", "--spec", spec_file, "--out", out, "--dry-run"]) == EXIT_OK
    assert not os.path.exists(out)
    assert "source_train" in capsys.readouterr().out


def test_resolve_split_dir(tmp_path):
    split = tmp_path / "domain" / "train"
    write_dataset(DomainSpec(n_videos=4, length_range=(8, 10), n_classes=4), str(split))
    assert resolve_split_dir(str(split)) == str(split)
    assert resolve_split_dir(str(tmp_path / "domain")) == str(split)
    with pytest.raises(FileNotFoundError):
        resolve_split_dir(str(tmp_path / "missing"))


def test_gap_self_comparison_is_zero(tmp_path, capsys):
    out = synth_small(tmp_path)
    src = os.path.join(out, "source", "train")
    gap_out = str(tmp_path / "gap")
    assert main(["gap", src, src, "--out", gap_out]) == EXIT_OK
    doc = json.loads(Path(os.path.join(gap_out, "gap.json")).read_text())
    assert doc["delta_bg"] == pytest.approx(0.0, abs=1e-12)
    assert doc["delta_temp"] == pytest.approx(0.0, abs=1e-12)


def test_gap_planted_length_shift(tmp_path):
    out = synth_small(tmp_path)
    gap_out = str(tmp_path / "gap")
    assert main(["gap", os.path.join(out, "source"), os.path.join(out, "target"),
                 "--out", gap_out]) == EXIT_OK
    doc = json.loads(Path(os.path.join(gap_out, "gap.json")).read_text())
    # small specs plant lengths [12,20] vs [8,10]: gap at least 2 frames
    assert doc["delta_temp"] >= 2.0
    assert doc["delta_bg"] > 0.0


def test_gap_missing_dataset_exit_2(tmp_path, capsys):
    assert main(["gap", str(tmp_path / "nope"), str(tmp_path / "nada")]) == EXIT_IO


def test_gap_corrupt_header_exit_2(tmp_path):
    out = synth_small(tmp_path)
    src = os.path.join(out, "source", "train")
    manifest = os.path.join(src, "manifest.json")
    doc = json.loads(Path(manifest).read_text())
    doc["format"] = "wrong"
    Path(manifest).write_text(json.dumps(doc))
    assert main(["gap", src, src]) == EXIT_IO


def write_nan_frames(split_dir, n_frames=24):
    """NaN over the first n_frames frames of a split's frames.bin."""
    with open(os.path.join(split_dir, "manifest.json")) as f:
        spec = json.load(f)["spec"]
    with open(os.path.join(split_dir, "frames.bin"), "r+b") as f:
        f.write(np.full(n_frames * spec["height"] * spec["width"], np.nan, "<f4").tobytes())


@pytest.mark.parametrize("command", ["gap", "train", "eval"])
def test_nan_frames_exit_2(tmp_path, capsys, command):
    """Frame values outside [0, 1], NaN included, are refused on read,
    before a command creates its --out directory."""
    data = synth_small(tmp_path)
    write_nan_frames(os.path.join(data, "target", "train"))
    out = tmp_path / "out"
    if command == "gap":
        argv = ["gap", os.path.join(data, "source"), os.path.join(data, "target")]
    elif command == "train":
        argv = ["train", "--config", train_config_doc(tmp_path, data)]
    else:
        ckpt = tmp_path / "ckpt"
        save_model(init_glad_model(ModelConfig(n_classes=4), seed=0), str(ckpt))
        argv = ["eval", "--checkpoint", str(ckpt),
                "--data", os.path.join(data, "target", "train")]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and err.count("\n") == 1
    assert "not within [0, 1]" in err
    assert not out.exists()


def test_gap_all_black_video_exit_2(tmp_path, capsys):
    """An all-zero video is valid data, but its median background has no
    direction to compare: glad gap refuses the split with one I/O error
    line that names it."""
    data = synth_small(tmp_path)
    split = os.path.join(data, "target", "train")
    with open(os.path.join(split, "manifest.json")) as f:
        length = json.load(f)["entries"][0]["length"]
    with open(os.path.join(split, "frames.bin"), "r+b") as f:
        f.write(np.zeros(length * 64, "<f4").tobytes())
    capsys.readouterr()
    assert main(["gap", os.path.join(data, "source"), os.path.join(data, "target")]) == EXIT_IO
    err = capsys.readouterr().err
    assert err == (f"I/O error: {split}: scene features, one row per video: "
                   "row 0: zero vector cannot be normalized\n")


def test_gap_prints_a_table_and_writes_keys_in_order(tmp_path, capsys):
    """The table's header and row are right-aligned in 10/12 columns, and
    gap.json keeps its key order."""
    data = synth_small(tmp_path)
    capsys.readouterr()
    gap_out = tmp_path / "gap"
    assert main(["gap", os.path.join(data, "source"), os.path.join(data, "target"),
                 "--out", str(gap_out)]) == EXIT_OK
    header, row = capsys.readouterr().out.splitlines()
    doc = json.loads((gap_out / "gap.json").read_text())
    assert header == "  Delta_bg   Delta_temp"
    assert row == f"{doc['delta_bg']:>10.3f} {doc['delta_temp']:>12.3f}"
    assert list(doc) == ["delta_bg", "delta_temp", "notes"]
    assert doc["notes"] == {"scene_feature": "normalized temporal-median background"}


def test_gap_splits_of_different_frame_sizes_exit_1(tmp_path, capsys):
    """A 6x6 split against an 8x8 one is refused with one line naming both
    directories and both sizes, before a frame is read: the 6x6 split's
    NaN frames would otherwise be an I/O error."""
    small = tmp_path / "small"
    write_dataset(DomainSpec(n_videos=4, length_range=(8, 10), n_classes=4,
                             height=6, width=6), str(small))
    write_nan_frames(str(small))
    large = tmp_path / "large"
    write_dataset(DomainSpec(n_videos=4, length_range=(8, 10), n_classes=4), str(large))
    out = tmp_path / "gap"
    assert main(["gap", str(small), str(large), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (f"error: {small}: frames are 6x6 but {large}: frames are 8x8; "
                   "the splits need one frame size\n")
    assert not out.exists()


@pytest.mark.parametrize("command,split", [("gap", "train"), ("train", "train"),
                                           ("train", "test"), ("ablate", "train"),
                                           ("eval", "test")])
def test_splits_of_one_frame_dim_but_another_shape_exit_1(tmp_path, capsys, command, split):
    """A 4x16 target split has the frame_dim of the 8x8 source, but its
    pixels are not the source's: gap refuses it with one line naming both
    directories and both sizes, train, ablate and eval (of an 8x8
    checkpoint) with one line naming it, its size and the model's, before
    its frames (NaN here, an I/O error if read) are read, and none writes
    output."""
    data = synth_small(tmp_path)
    wide = os.path.join(data, "target", split)
    write_dataset(dataclasses.replace(small_specs()[f"target_{split}"], height=4, width=16),
                  wide)
    write_nan_frames(wide)
    out = tmp_path / "out"
    argv = [os.path.join(data, "source"), os.path.join(data, "target")]
    if command == "eval":
        ckpt = tmp_path / "ckpt"
        save_model(init_glad_model(ModelConfig(n_classes=4), seed=0), str(ckpt))
        argv = ["--checkpoint", str(ckpt), "--data", wide]
    elif command != "gap":
        argv = ["--config", train_config_doc(tmp_path, data)]
    capsys.readouterr()
    assert main([command, *argv, "--out", str(out)]) == EXIT_USAGE
    source = os.path.join(data, "source", "train")
    assert capsys.readouterr().err == (
        f"error: {source}: frames are 8x8 but {wide}: frames are 4x16; the splits need "
        "one frame size\n" if command == "gap" else
        f"error: {wide}: frames are 4x16 but the model's are 8x8\n")
    assert not out.exists()


def test_mixing_follows_the_side_of_the_batch_not_the_domain_name(tmp_path):
    """Background mixing picks a video by its side of the batch: splits
    whose specs name their domain "kinetics" and "babel" train exactly as
    the same splits named "source" and "target", and unlike a run without
    mixing."""
    reports = {}
    for names, use_bg_aug in ((("source", "target"), True), (("kinetics", "babel"), True),
                              (("source", "target"), False)):
        data = tmp_path / names[0]
        for key, spec in small_specs().items():
            side, split = key.split("_")
            write_dataset(dataclasses.replace(spec, domain=names[side == "target"]),
                          str(data / side / split))
        cfg = train_config_doc(tmp_path, str(data), use_bg_aug=use_bg_aug, aug_probability=1.0)
        out = tmp_path / f"{names[0]}_{use_bg_aug}"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        reports[names[0], use_bg_aug] = (out / "report.csv").read_bytes()
    assert reports["kinetics", True] == reports["source", True] != reports["source", False]


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_missing_source_dir_exit_2_creates_no_out(tmp_path, capsys, command):
    """The splits load before the resolved config is written, so a config
    whose source_dir does not exist leaves no --out directory behind."""
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    doc = json.loads(Path(cfg).read_text())
    doc["source_dir"] = str(tmp_path / "no_such_source")
    with open(cfg, "w") as f:
        json.dump(doc, f)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and err.count("\n") == 1
    assert "no_such_source" in err
    assert not out.exists()


def test_train_eval_cycle(tmp_path, capsys):
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    run_out = str(tmp_path / "run")
    assert main(["train", "--config", cfg, "--out", run_out]) == EXIT_OK
    assert os.path.exists(os.path.join(run_out, "report.csv"))
    assert os.path.exists(os.path.join(run_out, "config.json"))
    resolved = json.loads(Path(os.path.join(run_out, "config.json")).read_text())
    assert resolved["train"]["main_epochs"] == 2
    eval_out = str(tmp_path / "eval")
    assert main(["eval", "--checkpoint", os.path.join(run_out, "final"),
                 "--data", os.path.join(data, "target", "test"),
                 "--out", eval_out]) == EXIT_OK
    doc = json.loads(Path(os.path.join(eval_out, "eval.json")).read_text())
    assert 0.0 <= doc["mca"] <= 100.0
    assert "MCA" in capsys.readouterr().out


def test_train_determinism_bitwise(tmp_path):
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    out_a = str(tmp_path / "ra")
    out_b = str(tmp_path / "rb")
    assert main(["train", "--config", cfg, "--out", out_a]) == EXIT_OK
    assert main(["train", "--config", cfg, "--out", out_b]) == EXIT_OK
    a = Path(os.path.join(out_a, "report.csv")).read_bytes()
    b = Path(os.path.join(out_b, "report.csv")).read_bytes()
    assert a == b


def test_train_reruns_from_its_resolved_config(tmp_path):
    """The config.json a run writes, given back to glad train, gives the
    run's report.csv and params.bin bytes, --seed included."""
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert main(["train", "--config", cfg, "--seed", "3", "--out", str(first)]) == EXIT_OK
    assert json.loads((first / "config.json").read_text())["train"]["seed"] == 3
    assert main(["train", "--config", str(first / "config.json"),
                 "--out", str(rerun)]) == EXIT_OK
    for name in ("report.csv", "final/params.bin"):
        assert (first / name).read_bytes() == (rerun / name).read_bytes(), name


def test_train_seed_flag_overrides(tmp_path):
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    out_a = str(tmp_path / "s0")
    out_b = str(tmp_path / "s9")
    assert main(["train", "--config", cfg, "--out", out_a, "--seed", "0"]) == EXIT_OK
    assert main(["train", "--config", cfg, "--out", out_b, "--seed", "9"]) == EXIT_OK
    a = Path(os.path.join(out_a, "report.csv")).read_text()
    b = Path(os.path.join(out_b, "report.csv")).read_text()
    assert a != b


def test_train_bad_config_field_exit_1(tmp_path, capsys):
    data = synth_small(tmp_path)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"source_dir": data, "target_dir": data,
                                    "train": {"no_such_field": 1}}))
    assert main(["train", "--config", str(cfg_path)]) == EXIT_USAGE
    assert "no_such_field" in capsys.readouterr().err


# A frame size, layer width or class count below 1, each of which a model
# config rejects.
BAD_WIDTHS = [("frame_shape", [8, 0]), ("enc_hidden", -1), ("enc_out", 0), ("feat_dim", 0),
              ("n_classes", 0), ("tol_hidden", 0)]


@pytest.mark.parametrize("overrides,message", [
    ({"gla_views": ["gg", "bogus"]}, "unknown gla_views"),
    ({"warmup_epochs": -1}, "must be >= 0"),
    ({"main_epochs": 0, "use_tol": False}, "trains no epoch"),
    ({"lr": -1.0}, "lr and lr_drop_factor must be > 0"),
    ({"lr": 0.0}, "lr and lr_drop_factor must be > 0"),
    ({"lr_drop_factor": 0}, "lr and lr_drop_factor must be > 0"),
    ({"weight_decay": -1}, "weight_decay must be >= 0"),
    ({"weight_decay": float("inf")}, "train: weight_decay must be >= 0 and finite, got inf"),
    ({"aug_domains": ["bogus"]}, "unknown aug_domains"),
    ({"use_bg_aug": False, "aug_probability": 2.0}, "aug_probability must be in [0, 1]"),
    ({"aug_lambda": 1.5}, "aug_lambda must be in [0, 1]"),
    ({"aug_lambda_mode": "fixed"}, "train.aug_lambda_mode: unknown field"),
    ({"global_views": 1}, "train.global_views: unknown field"),
    ({"local_views": 2}, "train.local_views: unknown field"),
    ({"grl_coeff": float("nan")}, "grl_coeff must be finite"),
    ({"grl_coeff": float("inf")}, "grl_coeff must be finite"),
    ({"model": {"local_stride": 0}}, "n_frames and local_stride must be >= 1"),
    ({"model": {"local_stride": -1}}, "n_frames and local_stride must be >= 1"),
    ({"model": {"n_frames": 0}}, "n_frames and local_stride must be >= 1"),
    ({"model": {"domain_hidden": [64]}},
     "train.model.domain_hidden: expected list[int, int, int], got [64]"),
    ({"use_tol": "no"}, "train.use_tol: expected bool, got 'no'"),
    ({"gla_views": "gg"}, "train.gla_views: expected list[str, ...], got 'gg'"),
    ({"main_epochs": 1.5}, "train.main_epochs: expected int, got 1.5"),
    ({"model": {"input_gain": float("nan")}}, "input_gain must be finite"),
    *[({"model": {key: value}}, f"{key} must be >= 1") for key, value in BAD_WIDTHS],
    ({"model": {"domain_hidden": [0, 64, 32]}}, "domain_hidden widths must be >= 1"),
    ({"model": {"domain_hidden": [64, 64, -2]}}, "domain_hidden widths must be >= 1"),
    ({"seed": -1}, "train: seed must be >= 0, got -1"),
    ({"lr_drop_epochs": [3, -1]}, "train: lr_drop_epochs must be epochs >= 0, got [3, -1]"),
    ({"lr_drop_factor": 1e200, "lr_drop_epochs": [0, 0]},
     "train: lr_drop_factor 1e+200 overflows when raised to the number of lr drops"),
    # 1e-200 ** 2 is 0.0, and the lr would be divided by it
    ({"lr_drop_factor": 1e-200, "lr_drop_epochs": [0, 0]},
     "train: lr_drop_factor 1e-200 underflows when raised to the number of lr drops"),
    ({"lr": float("inf")}, "train: lr must be finite and stay > 0 over the lr drops, got lr inf"),
    # a function of the whole document edits its top level
    (lambda doc: 3, "config.json: expected an object, got 3"),
    (lambda doc: [1], "config.json: expected an object, got [1]"),
    *[(lambda doc, key=key: {**doc, key: 7}, f"config.json: {key}: expected str, got 7")
      for key in ("source_dir", "target_dir", "test_dir", "out_dir")],
    *[(lambda doc, key=key: {**doc, key: ""}, f'config.json: {key}: expected a path, got ""')
      for key in ("source_dir", "target_dir", "test_dir", "out_dir")],
], ids=["unknown_view", "negative_epochs", "no_report_row", "negative_lr", "zero_lr",
        "zero_lr_drop_factor", "negative_weight_decay", "weight_decay_inf",
        "unknown_aug_domain",
        "aug_checked_when_off", "aug_lambda", "aug_lambda_mode", "global_views",
        "local_views", "grl_nan", "grl_1e400",
        "zero_stride", "negative_stride", "zero_frames", "domain_hidden_length",
        "bool_as_string", "views_as_string", "float_count", "input_gain_nan",
        *[f"width_{key}" for key, _ in BAD_WIDTHS], "width_domain_hidden_first",
        "width_domain_hidden_last", "negative_seed", "negative_lr_drop_epoch",
        "lr_drop_overflow", "lr_drop_underflow", "lr_inf",
        "top_level_int", "top_level_list", "int_source_dir", "int_target_dir",
        "int_test_dir", "int_out_dir", "empty_source_dir", "empty_target_dir",
        "empty_test_dir", "empty_out_dir"])
def test_train_invalid_config_value_exit_1(tmp_path, capsys, overrides, message):
    """Each bad value exits 1, naming the file and the key, before any data
    is read (there is none) and before --out is created."""
    if callable(overrides):
        cfg = train_config_doc(tmp_path, str(tmp_path / "data"))
        with open(cfg) as f:
            doc = overrides(json.load(f))
        with open(cfg, "w") as f:
            json.dump(doc, f)
    else:
        cfg = train_config_doc(tmp_path, str(tmp_path / "data"), **overrides)
    # JSON has no infinity; write the number that overflows to it
    with open(cfg) as f:
        text = f.read().replace("Infinity", "1e400")
    with open(cfg, "w") as f:
        f.write(text)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err and f"config {cfg}: " in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_batch_larger_than_smaller_split_exit_1(tmp_path, capsys, monkeypatch, command):
    """A batch_size no split can fill is refused when the splits load, before
    any training starts, instead of growing a batch until memory runs out."""
    data = synth_small(tmp_path)  # 12 source and 12 target training videos
    cfg = train_config_doc(tmp_path, data, batch_size=100000)

    def never(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "train", never)
    monkeypatch.setattr(cli, "run_ablation_matrix", never)
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "batch_size 100000" in err and "(12 videos)" in err


def test_eval_split_missing_a_class_exit_2(tmp_path, capsys):
    """A split with no video of some class is a data fault: exit 2."""
    split = str(tmp_path / "split")
    write_dataset(DomainSpec(n_classes=4, n_videos=3, length_range=(8, 10),
                             background_mode="fixed_checkerboard", domain="target"), split)
    save_model(init_glad_model(EVAL_MODEL, seed=0), str(tmp_path / "ckpt"))
    assert main(["eval", "--checkpoint", str(tmp_path / "ckpt"), "--data", split]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"I/O error: {split}: ") and err.count("\n") == 1
    assert "class 3 has no samples" in err


def test_train_test_split_missing_a_class_exit_2(tmp_path, capsys):
    """A test split with no video of some class is refused before any
    step runs: exit 2, naming the split, and no output is written."""
    data = synth_small(tmp_path)
    split = str(tmp_path / "test")
    write_dataset(DomainSpec(n_classes=4, n_videos=3, length_range=(8, 10),
                             background_mode="fixed_checkerboard", domain="target"), split)
    cfg = json.loads(Path(train_config_doc(tmp_path, data)).read_text())
    cfg["test_dir"] = split
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["train", "--config", str(tmp_path / "config.json"),
                 "--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"I/O error: {split}: ") and err.count("\n") == 1
    assert "class 3 has no samples" in err
    assert not (out / "report.json").exists() and not out.exists()


def test_train_missing_paths_exit_1(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"train": {}}))
    assert main(["train", "--config", str(cfg_path)]) == EXIT_USAGE
    assert "source_dir" in capsys.readouterr().err


def test_train_invalid_json_exit_1(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{broken")
    assert main(["train", "--config", str(cfg_path)]) == EXIT_USAGE


def test_config_keeps_unknown_top_level_keys(tmp_path):
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    doc = json.loads(Path(cfg).read_text())
    doc["notes"] = ["any", {"value": 1}]
    with open(cfg, "w") as f:
        json.dump(doc, f)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "config.json").read_text())["notes"] == doc["notes"]


def test_synth_spec_invalid_json_names_the_file_exit_1(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text('{"source_train":\n')
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_file), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec_file}: invalid JSON (Expecting value: line 2")
    assert err.count("\n") == 1
    assert not out.exists()


def test_unknown_subcommand_exit_1(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_required_flag_exit_1(capsys):
    assert main(["train"]) == EXIT_USAGE


def test_eval_missing_checkpoint_exit_2(tmp_path):
    data = synth_small(tmp_path)
    assert main(["eval", "--checkpoint", str(tmp_path / "none"),
                 "--data", os.path.join(data, "target", "test")]) == EXIT_IO


def test_ablate_writes_table(tmp_path, capsys):
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data, warmup_epochs=0, main_epochs=1,
                           use_tol=False)
    out = str(tmp_path / "abl")
    assert main(["ablate", "--config", cfg, "--out", out, "--seeds", "0"]) == EXIT_OK
    table = json.loads(Path(os.path.join(out, "ablation.json")).read_text())
    assert set(table) == {"source_only", "gla_only", "debias_only", "full_glad",
                          "supervised_target", "dann"}
    for row in table.values():
        assert len(row["values"]) == 1
    text = Path(os.path.join(out, "ablation.txt")).read_text()
    assert "full_glad" in text
    # the paper's accuracy gap of the two baselines ends the table
    name, value = text.splitlines()[-1].split()
    gap = table["supervised_target"]["mean"] - table["source_only"]["mean"]
    assert name == "delta_acc" and value == f"{gap:.2f}"


def assert_one_line_and_no_worker_left(capture, prefix):
    err = capture.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


# A diverging run ends on its numeric failure line alone. pytest would
# record a RuntimeWarning that a command line user sees printed; the
# pytest settings in pyproject.toml make any such warning an error, and
# capfd also reads forked workers.
def test_ablate_huge_lr_exit_3(tmp_path, capfd):
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data, lr=1e30)
    capfd.readouterr()
    assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "abl"),
                 "--seeds", "0,1"]) == EXIT_NUMERIC
    assert_one_line_and_no_worker_left(capfd, "numeric failure:")


def test_train_huge_lr_exit_3(tmp_path, capfd):
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data, lr=1e30)
    capfd.readouterr()
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert_one_line_and_no_worker_left(capfd, "numeric failure:")


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_non_finite_gradient_exit_3(tmp_path, capsys, monkeypatch, command):
    """A NaN in one gradient tensor, with finite losses, is caught by the
    SGD step's own check."""
    real_ce_loss = glad_model.ce_loss

    def nan_gradient(mdl, *args):
        loss, dfeat = real_ce_loss(mdl, *args)
        mdl.grads["act"][0][0, 0] = np.nan
        return loss, dfeat
    monkeypatch.setattr(glad_model, "ce_loss", nan_gradient)
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "ablate":
        argv += ["--seeds", "0"]
    assert main(argv) == EXIT_NUMERIC
    assert_one_line_and_no_worker_left(
        capsys, "numeric failure: non-finite gradient in tensor act.0")
    assert not (out / "final").exists()


def exit_worker(*args):
    """An ablation job that ends its worker process at once; a module-level
    function, so the pool can send it to a worker by name."""
    os._exit(70)


def test_ablate_worker_death_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trainer, "_run_job", exit_worker)
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    capsys.readouterr()
    assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "abl"),
                 "--seeds", "0"]) == EXIT_IO
    assert_one_line_and_no_worker_left(capsys, "error: worker process died")


# ---------------------------------------------------------------------------
# Damaged and mismatched input files

EVAL_MODEL = ModelConfig(enc_hidden=8, enc_out=6, feat_dim=6, n_classes=4,
                         n_frames=4, tol_hidden=8, domain_hidden=(8, 6, 4))


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A 4-video target split, an untrained checkpoint that fits it and a
    4-video source split under source/train to train with."""
    root = tmp_path_factory.mktemp("eval_inputs")
    spec = DomainSpec(n_classes=4, n_videos=4, length_range=(8, 10),
                      background_mode="fixed_checkerboard", domain="target")
    write_dataset(spec, str(root / "split"))
    write_dataset(dataclasses.replace(spec, background_mode="class_correlated", seed=1,
                                      domain="source"), str(root / "source" / "train"))
    save_model(init_glad_model(EVAL_MODEL, seed=0), str(root / "ckpt"))
    assert main(["eval", "--checkpoint", str(root / "ckpt"),
                 "--data", str(root / "split")]) == EXIT_OK
    return root


def copy_inputs(eval_inputs, directory):
    shutil.copytree(eval_inputs, directory, dirs_exist_ok=True)
    return os.path.join(directory, "ckpt"), os.path.join(directory, "split")


def edit_json(path, edit):
    with open(path) as f:
        doc = json.load(f)
    edit(doc)
    with open(path, "w") as f:
        json.dump(doc, f)


def append_float(path):
    with open(path, "ab") as f:
        f.write(b"\0" * 4)


def write_float(ckpt, value):
    """value over the last element of params.bin's first tensor."""
    with open(os.path.join(ckpt, "params.json")) as f:
        first = json.load(f)[0]
    with open(os.path.join(ckpt, "params.bin"), "r+b") as f:
        f.seek(4 * (int(np.prod(first["shape"])) - 1))
        f.write(np.array([value], "<f4").tobytes())
    return first["name"]


@pytest.mark.parametrize("damage", [
    lambda ckpt: edit_json(os.path.join(ckpt, "params.json"), lambda d: d.pop(7)),
    lambda ckpt: edit_json(os.path.join(ckpt, "params.json"),
                           lambda d: d[0].update(shape=d[0]["shape"][::-1])),
    lambda ckpt: edit_json(os.path.join(ckpt, "params.json"), lambda d: d[3].pop("name")),
    lambda ckpt: append_float(os.path.join(ckpt, "params.bin")),
    lambda ckpt: write_float(ckpt, np.nan),
    lambda ckpt: write_float(ckpt, -np.inf),
], ids=["missing_entry", "wrong_shape", "entry_without_name", "extra_bytes",
        "nan_value", "inf_value"])
def test_eval_bad_checkpoint_exit_2(eval_inputs, tmp_path, capsys, damage):
    """A non-finite parameter is refused, naming params.bin and its tensor."""
    ckpt, split = copy_inputs(eval_inputs, tmp_path)
    bad = damage(ckpt)
    assert main(["eval", "--checkpoint", ckpt, "--data", split]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and err.count("\n") == 1
    if bad is not None:
        assert err == (f"I/O error: {os.path.join(ckpt, 'params.bin')}: "
                       f"non-finite value in tensor {bad}\n")


def test_eval_checkpoint_with_per_classifier_groups_exit_2(eval_inputs, tmp_path, capsys):
    """A params.json that still lists the domain classifiers as dg, dl and
    dx groups, over a params.bin of the right size, is refused: exit 2,
    naming params.json."""
    ckpt, split = copy_inputs(eval_inputs, tmp_path)
    path = os.path.join(ckpt, "params.json")
    with open(path) as f:
        meta = json.load(f)
    dom = {e["name"]: e["shape"] for e in meta if e["name"].startswith("dom.")}
    old = [e for e in meta if e["name"] not in dom]
    for group in ("dg", "dl", "dx"):  # (3, d_in, d_out) weights, (3, 1, d_out) biases
        old += [{"name": f"{group}.{i}", "shape": dom[f"dom.{i}"][1 if i % 2 == 0 else 2:]}
                for i in range(len(dom))]
    assert sum(np.prod(e["shape"]) for e in old) == sum(np.prod(e["shape"]) for e in meta)
    with open(path, "w") as f:
        json.dump(old, f)
    assert main(["eval", "--checkpoint", ckpt, "--data", split]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and err.count("\n") == 1
    assert "params.json" in err


@pytest.mark.parametrize("edit,message", [
    (lambda d: {**d, "domain_hidden": [64]},
     "domain_hidden: expected list[int, int, int], got [64]"),
    (lambda d: {**d, "n_frames": "8"}, "n_frames: expected int, got '8'"),
    (lambda d: {**d, "use_tol": True}, "use_tol: unknown field"),
    (lambda d: {**d, "tol_clips": 5}, "tol_clips must be one of"),
    (lambda d: {**d, "input_gain": float("nan")}, "input_gain must be finite"),
    (lambda d: [64, 32], "expected an object, got [64, 32]"),
    *[(lambda d, key=key, value=value: {**d, key: value}, f"{key} must be >= 1")
      for key, value in BAD_WIDTHS],
    (lambda d: {**d, "domain_hidden": [0, 64, 32]}, "domain_hidden widths must be >= 1"),
    # a checkpoint written before model.json recorded the frame shape
    (lambda d: {**{k: v for k, v in d.items() if k != "frame_shape"}, "frame_dim": 64},
     "frame_dim: unknown field"),
], ids=["short_domain_hidden", "string_count", "unknown_key", "bad_tol_clips", "nan_gain",
        "json_list", *[f"width_{key}" for key, _ in BAD_WIDTHS], "width_domain_hidden",
        "frame_dim_of_old_checkpoint"])
def test_eval_invalid_model_json_exit_2(eval_inputs, tmp_path, capsys, edit, message):
    """A checkpoint's model.json gets the experiment config's checks: a bad
    one is an I/O error naming the file and the key."""
    ckpt, split = copy_inputs(eval_inputs, tmp_path)
    path = os.path.join(ckpt, "model.json")
    with open(path) as f:
        doc = edit(json.load(f))
    with open(path, "w") as f:
        json.dump(doc, f)
    assert main(["eval", "--checkpoint", ckpt, "--data", split]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith(f"I/O error: {path}: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("name", ["model.json", "params.json"])
def test_eval_unparsable_checkpoint_json_exit_2(eval_inputs, tmp_path, capsys, name):
    ckpt, split = copy_inputs(eval_inputs, tmp_path)
    os.truncate(os.path.join(ckpt, name), 50)
    assert main(["eval", "--checkpoint", ckpt, "--data", split]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and err.count("\n") == 1
    assert os.path.join(ckpt, name) in err


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("spec"),
    lambda d: d.pop("entries"),
    lambda d: d["entries"][1].pop("video_id"),
    lambda d: d["entries"][1].pop("label"),
    lambda d: d["entries"][1].pop("length"),
    lambda d: d["entries"][1].pop("offset"),
    lambda d: d["entries"][1].update(label=40),
    lambda d: d["entries"][1].update(label=-1),
    lambda d: d["entries"][1].update(label="2"),
    lambda d: d["entries"][1].update(length=str(d["entries"][1]["length"])),
    lambda d: d["entries"][1].update(offset=float(d["entries"][1]["offset"])),
    lambda d: d["spec"].update(n_classes=0),
    lambda d: d["spec"].update(height=0),
    lambda d: d["spec"].update(noise_std=-1.0),
    lambda d: d["spec"].update(length_range=[8]),
    lambda d: d["spec"].update(no_such_field=1),
    lambda d: d.update(spec=5),
    lambda d: d.update(entries=[]),
    lambda d: (d.update(entries=[]), d["spec"].update(n_videos=0)),
    lambda d: d["spec"].update(n_videos=float(d["spec"]["n_videos"])),
    lambda d: d["spec"].update(domain=3),
    lambda d: d["spec"].update(length_range=[8, 10.5]),
    lambda d: d["entries"].__setitem__(3, 5),
    lambda d: d["entries"].__setitem__(3, None),
], ids=["no_spec", "no_entries", "no_video_id", "no_label", "no_length", "no_offset",
        "label_too_large", "label_negative", "label_not_int", "length_not_int",
        "offset_not_int", "spec_zero_classes", "spec_zero_height", "spec_negative_noise",
        "spec_one_length", "spec_unknown_field", "spec_not_a_dict", "zero_entries",
        "empty_split", "spec_float_videos", "spec_int_domain", "spec_float_length",
        "entry_int", "entry_null"])
def test_eval_malformed_manifest_exit_2(eval_inputs, tmp_path, capsys, edit):
    ckpt, split = copy_inputs(eval_inputs, tmp_path)
    edit_json(os.path.join(split, "manifest.json"), edit)
    assert main(["eval", "--checkpoint", ckpt, "--data", split]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and err.count("\n") == 1


@pytest.mark.parametrize("edit", [
    lambda es: [e.update(offset=0) for e in es[1:] if e["length"] == es[0]["length"]]
    or es[1].update(offset=0),
    lambda es: es[1].update(offset=es[2]["offset"]) or es[2].update(offset=0),
], ids=["entries_share_video_0", "out_of_order"])
def test_eval_entries_must_tile_frames_exit_2(eval_inputs, tmp_path, capsys, edit):
    """Entry k starts where entry k-1 ends: entries that re-read video 0's
    bytes, or that list the videos out of order, are refused instead of
    scoring other frames."""
    ckpt, split = copy_inputs(eval_inputs, tmp_path)
    edit_json(os.path.join(split, "manifest.json"), lambda d: edit(d["entries"]))
    assert main(["eval", "--checkpoint", ckpt, "--data", split]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and err.count("\n") == 1
    assert "offset" in err


def test_eval_zero_length_entry_exit_2(eval_inputs, tmp_path, capsys):
    """A last entry of length 0, with frames.bin cut to match, is refused."""
    ckpt, split = copy_inputs(eval_inputs, tmp_path)
    path = os.path.join(split, "manifest.json")
    edit_json(path, lambda d: d["entries"][-1].update(length=0))
    with open(path) as f:
        last = json.load(f)["entries"][-1]
    os.truncate(os.path.join(split, "frames.bin"), last["offset"])
    assert main(["eval", "--checkpoint", ckpt, "--data", split]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and err.count("\n") == 1
    assert "length 0" in err


@pytest.mark.parametrize("field,value,message", [
    ("n_videos", 0, "n_videos must be >= 1"),
    ("n_videos", -3, "n_videos must be >= 1"),
    ("n_classes", 0, "n_classes must be >= 1"),
    ("bank_size", 0, "bank_size must be >= 1"),
    ("height", 0, "height and width must be > the blob size 2"),
    ("width", 2, "height and width must be > the blob size 2"),
    ("length_range", [8], "source_train.length_range: expected list[int, int], got [8]"),
    ("length_range", [8, 12, 16],
     "source_train.length_range: expected list[int, int], got [8, 12, 16]"),
    ("length_range", [12, 8], "length_range must be two finite numbers lo <= hi"),
    ("blob_speed_range", [2.0, 0.8], "blob_speed_range must be two finite numbers lo <= hi"),
    ("blob_speed_range", [0.8, float("inf")],
     "blob_speed_range must be two finite numbers lo <= hi"),
    ("blob_speed_range", [float("nan"), 2.0],
     "blob_speed_range must be two finite numbers lo <= hi"),
    ("noise_std", -1.0, "source_train: noise_std must be finite and >= 0"),
    ("noise_std", float("nan"), "source_train: noise_std must be finite and >= 0"),
    ("n_classes", True, "source_train.n_classes: expected int, got True"),
    ("domain", 3, "source_train.domain: expected str, got 3"),
    ("length_range", [8, 9.5], "source_train.length_range: expected list[int, int], got [8, 9.5]"),
    ("n_videos", 2.0, "source_train.n_videos: expected int, got 2.0"),
    ("height", 8.5, "source_train.height: expected int, got 8.5"),
    ("bank_size", 1.5, "source_train.bank_size: expected int, got 1.5"),
    ("no_such_field", 1, "source_train.no_such_field: unknown field"),
    ("seed", -1, "source_train: seed must be >= 0, got -1"),
], ids=["zero_videos", "negative_videos", "zero_classes", "zero_bank", "zero_height",
        "width_of_blob", "one_length", "three_lengths", "lengths_reversed",
        "speeds_reversed", "speed_inf", "speed_nan", "negative_noise", "noise_nan",
        "bool_classes", "int_domain", "float_length", "float_videos", "float_height",
        "float_bank", "unknown_field", "negative_seed"])
def test_synth_invalid_spec_value_exit_1(tmp_path, capsys, field, value, message):
    """Each bad spec value exits 1 with one line, naming the split and the
    check or key, before anything is written."""
    spec = {**dataclasses.asdict(DomainSpec(n_videos=2, n_classes=2)), field: value}
    spec_file = tmp_path / "spec.json"
    # json writes NaN and Infinity, which json.load reads back
    spec_file.write_text(json.dumps({"source_train": spec}))
    out = str(tmp_path / "data")
    assert main(["synth", "--spec", str(spec_file), "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("doc,message", [
    ([{"n_videos": 2}], "expected an object of named splits"),
    ({"source_train": 5}, "source_train: expected an object, got 5"),
    ({"source_train": {"n_videos": 2, "n_classes": 2}, "target_train": {"seed": "1"}},
     "target_train.seed: expected int, got '1'"),
] + [({"source_train": {"n_videos": 2, "n_classes": 2}, name: {"n_videos": 2, "n_classes": 2}},
      f"split name {name!r} is not one path component")
     for name in ("../escaped", "", ".", "..", "a/b")],
    ids=["top_level_list", "split_not_an_object", "second_split_bad", "name_dotdot_path",
         "name_empty", "name_dot", "name_dotdot", "name_with_slash"])
def test_synth_malformed_spec_file_exit_1(tmp_path, capsys, doc, message):
    """A spec file that is not an object of split objects, or whose split
    names are not one path component each, exits 1 with one line and
    writes nothing, under --out or beside it, even when an earlier split
    is valid, with or without --dry-run."""
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(doc))
    out = tmp_path / "d3" / "inner"
    for dry_run in ([], ["--dry-run"]):
        argv = ["synth", "--spec", str(spec_file), "--out", str(out)] + dry_run
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["spec.json"]


def test_synth_spec_may_omit_ranges(tmp_path):
    spec = dataclasses.asdict(DomainSpec(n_videos=2, n_classes=2))
    del spec["length_range"], spec["blob_speed_range"]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"source_train": spec}))
    out = str(tmp_path / "data")
    assert main(["synth", "--spec", str(spec_file), "--out", out]) == EXIT_OK
    manifest, _ = read_dataset(os.path.join(out, "source", "train"))
    assert manifest.spec == DomainSpec(n_videos=2, n_classes=2)


@pytest.mark.parametrize("command", ["train", "ablate", "eval"])
def test_dataset_and_model_classes_must_agree_exit_1(tmp_path, capsys, command):
    data = synth_small(tmp_path)  # 4 classes
    model = {**dataclasses.asdict(EVAL_MODEL), "n_classes": 3}
    if command == "eval":
        ckpt = str(tmp_path / "ckpt")
        save_model(init_glad_model(ModelConfig(**model), seed=0), ckpt)
        argv = ["eval", "--checkpoint", ckpt, "--data", os.path.join(data, "target", "test")]
    else:
        cfg = train_config_doc(tmp_path, data, model=model)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "dataset n_classes=4" in err and "model n_classes=3" in err


def json_key_paths(doc, path=()):
    """The path of every dict key in a JSON document, at any depth."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield path + (key,)
            yield from json_key_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from json_key_paths(value, path + (i,))


EVAL_FILES = ("split/manifest.json", "split/frames.bin",
              "ckpt/model.json", "ckpt/params.json", "ckpt/params.bin")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_eval_exit_code_on_damaged_files(eval_inputs, data):
    """Deleting one JSON key anywhere, or truncating any input file, ends
    glad eval with an exit code, never an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, split = copy_inputs(eval_inputs, tmp)
        path = os.path.join(tmp, data.draw(st.sampled_from(EVAL_FILES)))
        keys = []
        if path.endswith(".json"):
            with open(path) as f:
                keys = list(json_key_paths(json.load(f)))
        if keys and data.draw(st.booleans()):
            *parents, key = data.draw(st.sampled_from(keys))

            def delete(doc):
                for p in parents:
                    doc = doc[p]
                del doc[key]
            edit_json(path, delete)
        else:
            os.truncate(path, data.draw(st.integers(0, os.path.getsize(path) - 1)))
        code = main(["eval", "--checkpoint", ckpt, "--data", split])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_NUMERIC)


# ---------------------------------------------------------------------------
# Random experiment configs through glad train

JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([1.5]), st.just({}))
ANY_FLOAT = st.floats()  # NaN and infinities included


def mostly(good, bad):
    """A value from good, or one time in ten from bad or JUNK."""
    return st.integers(0, 9).flatmap(lambda k: st.one_of(bad, JUNK) if k == 9 else good)


# A key's (good, bad) values. The epoch counts, batch_size, the model's
# widths, its n_frames and its n_classes (the default does not fit the
# splits) are always drawn, from small ranges, so that an example trains
# for a few short steps at most.
TRAIN_KEYS = {"warmup_epochs": (st.integers(0, 2), st.just(-1)),
              "main_epochs": (st.integers(0, 2), st.just(-1)),
              "batch_size": (st.integers(1, 4), st.sampled_from([-1, 0, 5]))}
MODEL_KEYS = {**{key: (st.integers(1, 8), st.integers(-1, 0))
                 for key in ("enc_hidden", "enc_out", "feat_dim", "tol_hidden", "n_frames")},
              "domain_hidden": (st.lists(st.integers(1, 8), min_size=3, max_size=3),
                                st.lists(st.integers(-1, 8), max_size=4)),
              "n_classes": (st.just(4), st.sampled_from([3, 0]))}
OPTIONAL_MODEL_KEYS = {
    "frame_shape": (st.just([8, 8]), st.sampled_from([[4, 16], [0, 8], [64]])),
    "local_stride": (st.integers(1, 4), st.integers(-1, 0)),
    "tol_clips": (st.integers(2, 4), st.sampled_from([1, 5])),
    "input_center": (st.floats(-1.0, 1.0), ANY_FLOAT),
    "input_gain": (st.floats(0.1, 8.0), ANY_FLOAT),
    "proj_init_scale": (st.floats(0.0, 2.0), ANY_FLOAT)}
OPTIONAL_TRAIN_KEYS = {
    "lr": (st.floats(1e-4, 0.1), ANY_FLOAT),
    "momentum": (st.floats(0.0, 0.99), ANY_FLOAT),
    "weight_decay": (st.floats(0.0, 0.01), ANY_FLOAT),
    "lr_drop_epochs": (st.lists(st.integers(0, 3), max_size=3),
                       st.lists(st.integers(-2, 2**70), max_size=3)),
    "lr_drop_factor": (st.floats(1e-250, 100.0), ANY_FLOAT),
    "grl_coeff": (st.floats(-2.0, 2.0), ANY_FLOAT),
    **{key: (st.floats(0.0, 1.0), ANY_FLOAT) for key in ("aug_probability", "aug_lambda")},
    "aug_domains": (st.lists(st.sampled_from(["source", "target"]), max_size=2),
                    st.just(["bogus"])),
    **{key: (st.booleans(), st.just("no")) for key in ("use_bg_aug", "use_tol")},
    "gla_views": (st.lists(st.sampled_from(["gg", "ll", "cross"]), max_size=3),
                  st.just(["bogus"])),
    "seed": (st.integers(0, 2**70), st.just(-1))}


def section(keys, optional):
    """An object with every key of keys and some of optional."""
    return st.fixed_dictionaries({key: mostly(*v) for key, v in keys.items()},
                                 optional={key: mostly(*v) for key, v in optional.items()})


TRAIN_SECTIONS = section({**TRAIN_KEYS, "model": (section(MODEL_KEYS, OPTIONAL_MODEL_KEYS),
                                                 st.just({"no_such_key": 1}))},
                         OPTIONAL_TRAIN_KEYS)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_train_exit_code_on_random_configs(eval_inputs, data):
    """A random train section and random directory values, passed through
    glad train, exit 0, 1, 2 or 3; a failure prints exactly one line, an
    error message, and no example prints a traceback."""
    root = str(eval_inputs)
    doc = {"train": data.draw(TRAIN_SECTIONS)}
    for key, path in (("source_dir", "source"), ("target_dir", "split"),
                      ("test_dir", "split"), ("out_dir", "out")):
        value = data.draw(mostly(st.just(os.path.join(root, path)), st.sampled_from([
            "absent", None, "", root, os.path.join(root, "no_such_dir"),
            os.path.join(root, "split", "frames.bin")])))
        if value != "absent":
            doc[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as f:
            json.dump(doc, f)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--config", cfg, "--out", os.path.join(tmp, "out")])
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_NUMERIC)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.count("\n") == 1, err
        assert err.startswith(("error:", "I/O error:", "numeric failure:")), err


# ---------------------------------------------------------------------------
# glad eval and glad gap read a split EVAL_BLOCK videos at a time

def write_blocks_split(directory, n_videos, length_range=(8, 24)):
    """A source split of n_videos and its whole Packed split."""
    spec = DomainSpec(n_classes=4, n_videos=n_videos, length_range=length_range,
                      bias_rho=0.5, seed=3, domain="source")
    write_dataset(spec, str(directory))
    _, (split,) = generate_domain(spec)
    return str(directory), split


@pytest.fixture(scope="module")
def three_block_split(tmp_path_factory):
    """A split of two blocks and one video, its whole Packed split, and a
    checkpoint that fits it."""
    root = tmp_path_factory.mktemp("blocks")
    directory, split = write_blocks_split(root / "split", 2 * trainer.EVAL_BLOCK + 1)
    save_model(init_glad_model(EVAL_MODEL, seed=2), str(root / "ckpt"))
    return directory, split, str(root / "ckpt")


def test_read_dataset_yields_consecutive_blocks(three_block_split):
    directory, split, _ = three_block_split
    block = trainer.EVAL_BLOCK
    manifest, blocks = read_dataset(directory, block)
    blocks = list(blocks)
    assert [len(b.lengths) for b in blocks] == [block, block, 1]
    assert np.array_equal(np.concatenate([b.frames for b in blocks]), split.frames)
    assert np.array_equal(np.concatenate([b.labels for b in blocks]), split.labels)
    for k, b in enumerate(blocks):
        assert np.array_equal(b.lengths, split.lengths[k * block:(k + 1) * block])
        assert b.starts[0] == 0 and np.array_equal(b.starts[1:], np.cumsum(b.lengths)[:-1])


def test_eval_in_blocks_equals_evaluate_of_the_whole_split(three_block_split, tmp_path):
    directory, split, ckpt = three_block_split
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", ckpt, "--data", directory, "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "eval.json").read_text())
    cm = trainer.evaluate(glad_model.load_model(ckpt), split, 4)
    mca = mean_class_accuracy(cm)
    assert doc["confusion"] == cm.tolist() and doc["mca"] == mca


def test_gap_bank_in_blocks_equals_bank_of_the_whole_split(three_block_split):
    directory, split, _ = three_block_split
    whole = build_background_bank(split)
    _, blocks = read_dataset(directory, trainer.EVAL_BLOCK)
    assert np.array_equal(np.concatenate([build_background_bank(b) for b in blocks]), whole)
    _, blocks = read_dataset(directory, trainer.EVAL_BLOCK)
    streamed = cli.scene_features_of(directory, blocks)
    assert np.array_equal(streamed, unit_rows(whole))


@pytest.mark.parametrize("command", ["eval", "gap"])
def test_nan_in_last_block_exit_2(three_block_split, tmp_path, capsys, command):
    """A NaN in the last block only is refused when that block is read,
    after the blocks before it were used, and before --out exists."""
    directory, split, ckpt = three_block_split
    damaged = str(tmp_path / "split")
    shutil.copytree(directory, damaged)
    last = split.starts[-1] * EVAL_MODEL.frame_dim * 4
    with open(os.path.join(damaged, "frames.bin"), "r+b") as f:
        f.seek(last + 4)
        f.write(np.float32(np.nan).tobytes())
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--checkpoint", ckpt, "--data", damaged]
    else:
        argv = ["gap", directory, damaged]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and err.count("\n") == 1
    assert "not within [0, 1]" in err and f"videos {2 * trainer.EVAL_BLOCK} to" in err
    assert not out.exists()


def traced_peak_of_command(tmp_path, command, n_blocks):
    """Peak bytes tracemalloc sees while `glad eval` or `glad gap` reads a
    split of n_blocks blocks of 24-frame videos; the files exist before
    tracing starts. gap compares the split with a small fixed one, so its
    scene distance stays small."""
    directory, _ = write_blocks_split(tmp_path / f"split{n_blocks}",
                                      n_blocks * trainer.EVAL_BLOCK, (24, 24))
    if command == "eval":
        ckpt = str(tmp_path / "ckpt")
        save_model(init_glad_model(EVAL_MODEL, seed=0), ckpt)
        argv = ["eval", "--checkpoint", ckpt, "--data", directory]
    else:
        small, _ = write_blocks_split(tmp_path / "small", 8)
        argv = ["gap", directory, small, "--out", str(tmp_path / "gap")]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["eval", "gap"])
def test_eval_and_gap_memory_is_bounded_by_a_block(tmp_path, capsys, command):
    """Four blocks of videos peak below 1.5 times one block: the commands
    hold one block's frames at a time, and only the manifest, labels and
    scene features grow with the split."""
    one = traced_peak_of_command(tmp_path, command, 1)
    assert traced_peak_of_command(tmp_path, command, 4) < 1.5 * one


# ---------------------------------------------------------------------------
# Seeds and memory exhaustion

@pytest.mark.parametrize("argv,message", [
    (["train", "--seed", "-1"], "argument --seed: a seed must be an integer >= 0, got '-1'"),
    (["ablate", "--seeds", "0,-1"], "argument --seeds: a seed must be an integer >= 0, got '-1'"),
    (["ablate", "--seeds", ""], "argument --seeds: a seed must be an integer >= 0, got ''"),
    (["ablate", "--seeds", "0,x"], "argument --seeds: a seed must be an integer >= 0, got 'x'"),
    (["synth", "--seed", "-1"], "argument --seed: a seed must be an integer >= 0, got '-1'"),
    (["synth", "--spec", "SPEC", "--seed", "3"], "--seed does not apply with --spec"),
], ids=["train_negative", "ablate_negative", "ablate_empty", "ablate_not_int",
        "synth_negative", "synth_spec_and_seed"])
def test_bad_seed_argument_exit_1_writes_nothing(tmp_path, capsys, argv, message):
    """A seed argument that would be ignored, or that numpy would refuse
    later, exits 1 naming the argument before anything is written."""
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    spec_file = write_spec_file(tmp_path, small_specs())
    out = tmp_path / "out"
    argv = [a.replace("SPEC", spec_file) for a in argv] + ["--out", str(out)]
    if argv[0] != "synth":
        argv += ["--config", cfg]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err
    assert err.count("error:") == 1
    assert not out.exists()


SEED_UNKNOWN = "error: unrecognized arguments: --seed 3"


@pytest.mark.parametrize("argv,message", [
    (["ablate", "--config", "CFG", "--seed", "3"], SEED_UNKNOWN),
    (["eval", "--checkpoint", "CKPT", "--data", "SPLIT", "--seed", "3"], SEED_UNKNOWN),
    (["gap", "SOURCE", "SOURCE", "--seed", "3"], SEED_UNKNOWN),
    (["train", "--conf", "CFG"], "error: the following arguments are required: --config"),
], ids=["ablate_seed", "eval_seed", "gap_seed", "train_conf"])
def test_option_a_command_does_not_read_exit_1(tmp_path, capsys, argv, message):
    """--seed exists on synth and train only, and an option takes its full
    name only (--seed is not read as --seeds, nor --conf as --config): any
    other option exits 1 with one error line before anything is written."""
    data = synth_small(tmp_path)
    ckpt = tmp_path / "ckpt"
    save_model(init_glad_model(ModelConfig(n_classes=4), seed=0), str(ckpt))
    paths = {"CFG": train_config_doc(tmp_path, data), "CKPT": str(ckpt),
             "SPLIT": os.path.join(data, "target", "test"),
             "SOURCE": os.path.join(data, "source")}
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([paths.get(a, a) for a in argv] + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error:") == 1
    assert err.splitlines()[-1] == message
    assert not out.exists()


def test_train_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    """glad train runs OpenBLAS on one thread whatever OPENBLAS_NUM_THREADS
    says, so report.csv and params.bin are the same bytes with the variable
    unset (one thread per core) and set to 1."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def glad(*args, **extra_env):
        subprocess.run([sys.executable, "-m", "glad.cli", *args], cwd=tmp_path,
                       env={**env, **extra_env}, check=True, stdout=subprocess.DEVNULL)

    glad("synth", "--out", "data", "--seed", "0")
    (tmp_path / "exp.json").write_text(json.dumps(
        {"source_dir": "data/source", "target_dir": "data/target",
         "train": {"warmup_epochs": 1, "main_epochs": 1}}))
    glad("train", "--config", "exp.json", "--out", "unset")
    glad("train", "--config", "exp.json", "--out", "one", OPENBLAS_NUM_THREADS="1")
    for name in ("report.csv", "final/params.bin"):
        assert (tmp_path / "unset" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_out_of_memory_exit_1(tmp_path, capsys, monkeypatch):
    """A MemoryError, as numpy raises for an allocation that cannot be
    made, ends glad with one line and exit 1."""
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 373. TiB for an array with shape "
                          "(64, 100000000) and data type float64")

    monkeypatch.setattr(trainer, "init_glad_model", no_memory)
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    capsys.readouterr()
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and err.count("\n") == 1
