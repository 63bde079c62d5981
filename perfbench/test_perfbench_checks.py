"""The benchmark's own tests: each output check accepts the program's real
output and rejects a deliberately corrupted copy of it; the tracer leaves
outputs bit-identical and reports the layers it saw.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

import checks
import trace_glad
from checks import CheckFailed
from glad.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))

SPECS = {
    "source_train": {"n_videos": 16, "length_range": [12, 20], "n_classes": 4,
                     "background_mode": "class_correlated", "seed": 3, "domain": "source"},
    "source_test": {"n_videos": 8, "length_range": [12, 20], "n_classes": 4,
                    "background_mode": "class_correlated", "seed": 4, "domain": "source"},
    "target_train": {"n_videos": 12, "length_range": [8, 12], "n_classes": 4,
                     "background_mode": "fixed_checkerboard", "seed": 5, "domain": "target"},
    "target_test": {"n_videos": 8, "length_range": [8, 12], "n_classes": 4,
                    "background_mode": "fixed_checkerboard", "seed": 6, "domain": "target"},
}
TRAIN = {"warmup_epochs": 2, "main_epochs": 2, "batch_size": 4, "lr": 0.002,
         "lr_drop_epochs": [1], "seed": 0,
         "model": {"enc_hidden": 8, "enc_out": 6, "feat_dim": 6, "n_classes": 4,
                   "n_frames": 4, "tol_hidden": 8, "domain_hidden": [8, 6, 4]}}


def full_spec(spec):
    return dict(spec, blob_speed_range=[0.8, 2.0])


@pytest.fixture(scope="module")
def lab(tmp_path_factory):
    """A tiny dataset, a short run, and gap and eval outputs, all made by
    the CLI."""
    root = tmp_path_factory.mktemp("lab")
    spec_file = root / "spec.json"
    spec_file.write_text(json.dumps({k: full_spec(v) for k, v in SPECS.items()}))
    data = str(root / "data")
    assert main(["synth", "--spec", str(spec_file), "--out", data]) == 0
    config = root / "config.json"
    config.write_text(json.dumps({"source_dir": f"{data}/source",
                                  "target_dir": f"{data}/target", "train": TRAIN}))
    run = str(root / "run")
    assert main(["train", "--config", str(config), "--out", run]) == 0
    assert main(["gap", f"{data}/source", f"{data}/target", "--out", str(root / "gap")]) == 0
    assert main(["eval", "--checkpoint", f"{run}/final", "--data", f"{data}/target/test",
                 "--out", str(root / "eval")]) == 0
    return root


def corrupt_json(src, dst, edit):
    with open(src) as f:
        doc = json.load(f)
    edit(doc)
    with open(dst, "w") as f:
        json.dump(doc, f)
    return str(dst)


def test_dataset_check_rejects_a_changed_frame(lab, tmp_path):
    split = str(lab / "data" / "source" / "train")
    checks.check_dataset(split, full_spec(SPECS["source_train"]))
    bad = tmp_path / "split"
    shutil.copytree(split, bad)
    frames = np.fromfile(bad / "frames.bin", dtype="<f4")
    frames[100] = np.float32(0.5) if frames[100] != 0.5 else np.float32(0.25)
    frames.tofile(bad / "frames.bin")
    with pytest.raises(CheckFailed, match="generate_domain"):
        checks.check_dataset(str(bad), full_spec(SPECS["source_train"]))


def test_eval_check_rejects_a_flipped_prediction(lab, tmp_path):
    args = (str(lab / "run" / "final"), str(lab / "data" / "target" / "test"))
    margin = checks.check_eval(str(lab / "eval" / "eval.json"), *args)
    assert margin > 0.0

    def flip(doc):
        row = doc["confusion"][0]
        j = next(j for j, n in enumerate(row) if n)
        row[j] -= 1
        row[(j + 1) % len(row)] += 1

    bad = corrupt_json(lab / "eval" / "eval.json", tmp_path / "eval.json", flip)
    with pytest.raises(CheckFailed, match="confusion"):
        checks.check_eval(bad, *args)


def test_gap_check_rejects_a_perturbed_emd(lab, tmp_path):
    args = (str(lab / "data" / "source" / "train"), str(lab / "data" / "target" / "train"))
    checks.check_gap(str(lab / "gap" / "gap.json"), *args)
    for key in ("delta_temp", "delta_bg"):
        bad = corrupt_json(lab / "gap" / "gap.json", tmp_path / f"{key}.json",
                           lambda doc: doc.update({key: doc[key] * (1 + 1e-6)}))
        with pytest.raises(CheckFailed, match=key):
            checks.check_gap(bad, *args)


def valid_rows():
    """Report rows that satisfy every property of a 2 + 3 epoch run on a
    120-video test split."""
    train = {"warmup_epochs": 2, "main_epochs": 3, "lr": 0.002, "lr_drop_epochs": [1, 2]}
    rows = [{"phase": "warmup", "epoch": e, "lr": 0.002, "loss_ce": 0.0,
             "loss_tol": 1.0 - 0.1 * e, "loss_gla": 0.0, "loss_total": 1.0,
             "target_mca": 100.0 * (10 + e) / 120} for e in range(2)]
    rows += [{"phase": "main", "epoch": e, "lr": 0.002 / 10 ** e, "loss_ce": 2.0 - 0.5 * e,
              "loss_tol": 0.5, "loss_gla": 1.0, "loss_total": 1.5,
              "target_mca": 100.0 * (40 + e) / 120} for e in range(3)]
    return train, rows


def test_report_check_rejects_a_dropped_row():
    train, rows = valid_rows()
    forward = rows[-1]["target_mca"]
    checks.check_report_rows(rows, train, 120, 12, forward)
    with pytest.raises(CheckFailed, match="report rows"):
        checks.check_report_rows(rows[:2] + rows[3:], train, 120, 12, forward)


@pytest.mark.parametrize("index, key, value, reason", [
    (3, "lr", 0.002, "lr"),
    (1, "loss_tol", float("nan"), "not finite"),
    (1, "loss_tol", 2.0, "loss_tol did not fall"),
    (4, "loss_ce", 3.0, "loss_ce did not fall"),
    (2, "target_mca", 33.4, "multiple"),
    (4, "target_mca", 100.0 * 20 / 120, "3x chance"),
])
def test_report_check_rejects_a_changed_value(index, key, value, reason):
    train, rows = valid_rows()
    forward = rows[-1]["target_mca"]
    rows[index][key] = value
    with pytest.raises(CheckFailed, match=reason):
        checks.check_report_rows(rows, train, 120, 12, forward)


def test_report_check_rejects_a_checkpoint_two_videos_away():
    train, rows = valid_rows()
    forward = rows[-1]["target_mca"]
    checks.check_report_rows(rows, train, 120, 12, forward + 100.0 / 120)
    with pytest.raises(CheckFailed, match="one video"):
        checks.check_report_rows(rows, train, 120, 12, forward + 200.0 / 120)


def test_train_check_reads_the_real_report(lab, tmp_path):
    test_split = str(lab / "data" / "target" / "test")
    checks.check_train(str(lab / "run"), TRAIN, test_split, skilled=False)
    bad = tmp_path / "run"
    shutil.copytree(lab / "run", bad)
    corrupt_json(bad / "report.json", bad / "report.json", lambda doc: doc["epochs"].pop())
    with pytest.raises(CheckFailed, match="report rows"):
        checks.check_train(str(bad), TRAIN, test_split, skilled=False)


def valid_table():
    values = {"source_only": [10.0, 12.5], "gla_only": [100 / 12, 100 / 12 + 2.5],
              "debias_only": [30.0, 25.0], "full_glad": [25.0, 27.5],
              "supervised_target": [90.0, 92.5], "dann": [100 / 12, 10.0]}
    return {name: {"mean": statistics.fmean(v), "std": statistics.pstdev(v), "values": v}
            for name, v in values.items()}


def test_ablation_check_rejects_a_wrong_mean():
    checks.check_ablation_table(valid_table(), [0, 1], 120)
    table = valid_table()
    table["full_glad"]["mean"] += 0.01
    with pytest.raises(CheckFailed, match="mean"):
        checks.check_ablation_table(table, [0, 1], 120)


@pytest.mark.parametrize("edit, reason", [
    (lambda t: t["dann"].update(std=0.0), "std"),
    (lambda t: t.pop("gla_only"), "rows"),
    (lambda t: t["supervised_target"].update(values=[70.0, 75.0], mean=72.5, std=2.5), "< 80"),
    (lambda t: t["full_glad"].update(values=[95.0, 95.0], mean=95.0, std=0.0), "above"),
])
def test_ablation_check_rejects_other_faults(edit, reason):
    table = valid_table()
    edit(table)
    with pytest.raises(CheckFailed, match=reason):
        checks.check_ablation_table(table, [0, 1], 120)


def test_traced_call_matches_plain_call(lab, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    data = str(lab / "data")
    args = ["eval", "--checkpoint", str(lab / "run" / "final"),
            "--data", f"{data}/target/test", "--out", str(tmp_path / "traced")]
    prefix = str(tmp_path / "spans")
    subprocess.run([sys.executable, os.path.join(HERE, "trace_glad.py"), prefix, *args],
                   env=env, check=True, capture_output=True, timeout=120)
    with open(lab / "eval" / "eval.json", "rb") as f, \
            open(tmp_path / "traced" / "eval.json", "rb") as g:
        assert f.read() == g.read()
    metrics = {k: v for k, (v, _) in trace_glad.layer_metrics([prefix]).items()}
    assert metrics["model.encode_fwd_eval_s"] > 0.0
    assert metrics["model.encode_fwd_train_s"] == 0.0
    assert metrics["model.encoded_frames"] == 3 * 4 * SPECS["target_test"]["n_videos"]
    assert metrics["synthdata.read_bytes"] > os.path.getsize(f"{data}/target/test/frames.bin")
    assert metrics["trainer.steps"] == 0 and metrics["cli.self_s"] > 0.0
