import dataclasses
import json
import os

import numpy as np
import pytest

from glad import cli
from glad.cli import (EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE,
                      default_benchmark_specs, main, resolve_split_dir)
from glad.synthdata import (DomainSpec, generate_domain, read_dataset,
                            spec_to_dict, write_dataset)


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
    path.write_text(json.dumps({k: spec_to_dict(v) for k, v in specs.items()}))
    return str(path)


def synth_small(tmp_path, seed=0):
    spec_file = write_spec_file(tmp_path, small_specs(seed))
    out = str(tmp_path / "data")
    assert main(["synth", "--spec", spec_file, "--out", out]) == EXIT_OK
    return out


def train_config_doc(tmp_path, data_dir, **train_overrides):
    train = {"warmup_epochs": 1, "main_epochs": 2, "batch_size": 4,
             "lr_drop_epochs": [1],
             "model": {"frame_dim": 64, "enc_hidden": 8, "enc_out": 6,
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
        fa = open(os.path.join(out_a, d, "frames.bin"), "rb").read()
        fb = open(os.path.join(out_b, d, "frames.bin"), "rb").read()
        assert fa == fb


def test_synth_dry_run_writes_nothing(tmp_path, capsys):
    spec_file = write_spec_file(tmp_path, small_specs())
    out = str(tmp_path / "nothing")
    assert main(["synth", "--spec", spec_file, "--out", out, "--dry-run"]) == EXIT_OK
    assert not os.path.exists(out)
    assert "source_train" in capsys.readouterr().out


def test_resolve_split_dir(tmp_path):
    spec = DomainSpec(n_videos=4, length_range=(8, 10), n_classes=4)
    manifest, samples = generate_domain(spec)
    split = tmp_path / "domain" / "train"
    write_dataset(manifest, samples, str(split))
    assert resolve_split_dir(str(split)) == str(split)
    assert resolve_split_dir(str(tmp_path / "domain")) == str(split)
    with pytest.raises(FileNotFoundError):
        resolve_split_dir(str(tmp_path / "missing"))


def test_gap_self_comparison_is_zero(tmp_path, capsys):
    out = synth_small(tmp_path)
    src = os.path.join(out, "source", "train")
    gap_out = str(tmp_path / "gap")
    assert main(["gap", src, src, "--out", gap_out]) == EXIT_OK
    doc = json.loads(open(os.path.join(gap_out, "gap.json")).read())
    assert doc["delta_bg"] == pytest.approx(0.0, abs=1e-12)
    assert doc["delta_temp"] == pytest.approx(0.0, abs=1e-12)


def test_gap_planted_length_shift(tmp_path):
    out = synth_small(tmp_path)
    gap_out = str(tmp_path / "gap")
    assert main(["gap", os.path.join(out, "source"), os.path.join(out, "target"),
                 "--out", gap_out]) == EXIT_OK
    doc = json.loads(open(os.path.join(gap_out, "gap.json")).read())
    # small specs plant lengths [12,20] vs [8,10]: gap at least 2 frames
    assert doc["delta_temp"] >= 2.0
    assert doc["delta_bg"] > 0.0


def test_gap_accuracy_flags(tmp_path):
    out = synth_small(tmp_path)
    src = os.path.join(out, "source")
    gap_out = str(tmp_path / "gap")
    assert main(["gap", src, src, "--mca-sup", "76.7", "--mca-src", "11.7",
                 "--out", gap_out]) == EXIT_OK
    doc = json.loads(open(os.path.join(gap_out, "gap.json")).read())
    assert doc["delta_acc"] == pytest.approx(65.0)


def test_gap_missing_dataset_exit_2(tmp_path, capsys):
    assert main(["gap", str(tmp_path / "nope"), str(tmp_path / "nada")]) == EXIT_IO


def test_gap_corrupt_header_exit_2(tmp_path):
    out = synth_small(tmp_path)
    src = os.path.join(out, "source", "train")
    manifest = os.path.join(src, "manifest.json")
    doc = json.loads(open(manifest).read())
    doc["format"] = "wrong"
    open(manifest, "w").write(json.dumps(doc))
    assert main(["gap", src, src]) == EXIT_IO


def test_train_eval_cycle(tmp_path, capsys):
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    run_out = str(tmp_path / "run")
    assert main(["train", "--config", cfg, "--out", run_out]) == EXIT_OK
    assert os.path.exists(os.path.join(run_out, "report.csv"))
    assert os.path.exists(os.path.join(run_out, "config.json"))
    resolved = json.loads(open(os.path.join(run_out, "config.json")).read())
    assert resolved["train"]["main_epochs"] == 2
    eval_out = str(tmp_path / "eval")
    assert main(["eval", "--checkpoint", os.path.join(run_out, "final"),
                 "--data", os.path.join(data, "target", "test"),
                 "--out", eval_out]) == EXIT_OK
    doc = json.loads(open(os.path.join(eval_out, "eval.json")).read())
    assert 0.0 <= doc["mca"] <= 100.0
    assert "MCA" in capsys.readouterr().out


def test_train_determinism_bitwise(tmp_path):
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    out_a = str(tmp_path / "ra")
    out_b = str(tmp_path / "rb")
    assert main(["train", "--config", cfg, "--out", out_a]) == EXIT_OK
    assert main(["train", "--config", cfg, "--out", out_b]) == EXIT_OK
    a = open(os.path.join(out_a, "report.csv"), "rb").read()
    b = open(os.path.join(out_b, "report.csv"), "rb").read()
    assert a == b


def test_train_seed_flag_overrides(tmp_path):
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data)
    out_a = str(tmp_path / "s0")
    out_b = str(tmp_path / "s9")
    assert main(["train", "--config", cfg, "--out", out_a, "--seed", "0"]) == EXIT_OK
    assert main(["train", "--config", cfg, "--out", out_b, "--seed", "9"]) == EXIT_OK
    a = open(os.path.join(out_a, "report.csv")).read()
    b = open(os.path.join(out_b, "report.csv")).read()
    assert a != b


def test_train_bad_config_field_exit_1(tmp_path, capsys):
    data = synth_small(tmp_path)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"source_dir": data, "target_dir": data,
                                    "train": {"no_such_field": 1}}))
    assert main(["train", "--config", str(cfg_path)]) == EXIT_USAGE
    assert "no_such_field" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,message", [
    ({"gla_views": ["gg", "bogus"]}, "unknown gla_views"),
    ({"warmup_epochs": -1}, "must be >= 0"),
    ({"main_epochs": 0, "use_tol": False}, "trains no epoch"),
], ids=["unknown_view", "negative_epochs", "no_report_row"])
def test_train_invalid_config_value_exit_1(tmp_path, capsys, overrides, message):
    cfg = train_config_doc(tmp_path, str(tmp_path / "data"), **overrides)
    assert main(["train", "--config", cfg]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_train_missing_paths_exit_1(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"train": {}}))
    assert main(["train", "--config", str(cfg_path)]) == EXIT_USAGE
    assert "source_dir" in capsys.readouterr().err


def test_train_invalid_json_exit_1(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{broken")
    assert main(["train", "--config", str(cfg_path)]) == EXIT_USAGE


def test_unknown_subcommand_exit_1(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_required_flag_exit_1(capsys):
    assert main(["train"]) == EXIT_USAGE


def test_eval_missing_checkpoint_exit_2(tmp_path):
    data = synth_small(tmp_path)
    assert main(["eval", "--checkpoint", str(tmp_path / "none"),
                 "--data", os.path.join(data, "target", "test")]) == EXIT_IO


def test_workers_env_validation(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GLAD_WORKERS", "zero")
    assert main(["synth", "--dry-run"]) == EXIT_USAGE
    monkeypatch.setenv("GLAD_WORKERS", "0")
    assert main(["synth", "--dry-run"]) == EXIT_USAGE
    monkeypatch.setenv("GLAD_WORKERS", "2")
    assert main(["synth", "--dry-run"]) == EXIT_OK


def test_ablate_writes_table(tmp_path, capsys):
    data = synth_small(tmp_path)
    cfg = train_config_doc(tmp_path, data, warmup_epochs=0, main_epochs=1,
                           use_tol=False)
    out = str(tmp_path / "abl")
    assert main(["ablate", "--config", cfg, "--out", out, "--seeds", "0"]) == EXIT_OK
    table = json.loads(open(os.path.join(out, "ablation.json")).read())
    assert set(table) == {"source_only", "gla_only", "debias_only", "full_glad",
                          "supervised_target", "dann"}
    for row in table.values():
        assert len(row["values"]) == 1
    text = open(os.path.join(out, "ablation.txt")).read()
    assert "full_glad" in text
