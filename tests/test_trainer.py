import csv
import dataclasses
import json
import math
import os
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glad import model as glad_model, trainer
from glad.diffnet import mlp_forward
from glad.model import GLA_VIEWS, ModelConfig, init_glad_model, save_model
from glad.debias import MIX_LAMBDA, MIX_PROBABILITY, build_background_bank, mix_background
from glad.gapmetrics import mean_class_accuracy
from glad.schema import from_json
from glad.synthdata import DomainSpec, Packed, generate_domain
from glad.cli import write_report
from glad.trainer import (STEP_STATS, TrainConfig, ablation_rows, apply_grads, evaluate,
                          format_ablation_table, run_ablation_matrix, schedule, train)
from oracles import (encode_clip_stack, evaluate_per_clip, sample_global_clip,
                     sample_local_clip, sgd_step, step_on_splits, subset, videos_of)

TINY_MODEL = ModelConfig(frame_shape=(8, 8), enc_hidden=8, enc_out=6, feat_dim=6,
                         n_classes=4, n_frames=4, tol_clips=3, tol_hidden=8,
                         domain_hidden=(8, 6, 4))


def tiny_config(**overrides):
    defaults = dict(warmup_epochs=1, main_epochs=2, batch_size=4,
                    lr_drop_epochs=(1,), seed=0, model=TINY_MODEL)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def tiny_data(seed=0, n=16, n_classes=4):
    src_spec = DomainSpec(n_classes=n_classes, n_videos=n, length_range=(12, 24),
                          seed=seed, domain="source")
    tgt_spec = DomainSpec(n_classes=n_classes, n_videos=n, length_range=(8, 12),
                          background_mode="fixed_checkerboard", seed=seed + 1,
                          domain="target")
    _, (src,) = generate_domain(src_spec)
    _, (tgt,) = generate_domain(tgt_spec)
    return src, tgt


def write_run(out_dir, mdl, epochs):
    """The checkpoint and the report of a trained run, as glad train writes them."""
    final = os.path.join(out_dir, "final")
    save_model(mdl, final)
    write_report(out_dir, epochs, final)


def unlabeled(split):
    """The split with every label -1, as train hands the target to a step."""
    return dataclasses.replace(split, labels=np.full_like(split.labels, -1))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="lr must be finite"):
        TrainConfig(lr=math.inf)
    with pytest.raises(ValueError, match="lr_drop_epochs: 10.0 raised to the number of lr "
                                         "drops overflows"):
        TrainConfig(lr_drop_epochs=(0,) * 309)
    with pytest.raises(ValueError):
        TrainConfig(gla_views=("gg", "bogus"))
    with pytest.raises(ValueError):
        TrainConfig(main_epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(main_epochs=0, use_tol=False)


def main_lrs(cfg):
    return [lr for phase, _, lr in schedule(cfg) if phase == "main"]


def test_lr_schedule_paper_values():
    cfg = TrainConfig(lr=2e-3, lr_drop_epochs=(5, 10), main_epochs=50)
    lrs = main_lrs(cfg)
    assert lrs[0] == pytest.approx(2e-3)
    assert lrs[4] == pytest.approx(2e-3)
    assert lrs[5] == pytest.approx(2e-4)
    assert lrs[9] == pytest.approx(2e-4)
    assert lrs[10] == pytest.approx(2e-5)
    assert lrs[49] == pytest.approx(2e-5)


@given(st.integers(0, 100), st.integers(0, 100))
@settings(max_examples=50)
def test_lr_schedule_non_increasing(e1, e2):
    lrs = main_lrs(TrainConfig(main_epochs=101))
    lo, hi = sorted((e1, e2))
    assert lrs[hi] <= lrs[lo]


@pytest.mark.parametrize("use_tol", [True, False])
def test_report_epochs_follow_the_schedule(use_tol):
    """train reports the epochs of schedule: the warm-up at lr only with
    TOL on, then the main phase with its lr drops."""
    src, tgt = tiny_data(n=8)
    cfg = tiny_config(use_tol=use_tol)
    _, epochs = train(cfg, src, tgt)
    warmup = [("warmup", 0, 2e-3)] if use_tol else []
    assert [(e["phase"], e["epoch"], e["lr"]) for e in epochs] == schedule(cfg) \
        == warmup + [("main", 0, 2e-3), ("main", 1, 2e-3 / 10.0)]


@pytest.mark.parametrize("name", ["full_glad", "dann"])
def test_epoch_row_is_the_mean_of_its_steps(monkeypatch, name):
    """Each epoch's STEP_STATS are the means of its steps' values; an
    accuracy is NaN exactly in the epochs that score nothing for it, and a
    loss an epoch does not compute reads 0.0."""
    src, tgt = tiny_data(n=8)
    cfg = tiny_config(**ablation_rows()[name])
    steps, step_losses = [], trainer.step_losses

    def spy(*args, **kwargs):
        stats, groups = step_losses(*args, **kwargs)
        steps.append(dict(stats))
        return stats, groups

    monkeypatch.setattr(trainer, "step_losses", spy)
    _, epochs = train(cfg, src, tgt)
    per_epoch = math.ceil(8 / cfg.batch_size)
    assert len(steps) == per_epoch * len(epochs) == per_epoch * len(schedule(cfg))
    for i, row in enumerate(epochs):
        main = row["phase"] == "main"
        runs_tol = cfg.use_tol or not main
        views = cfg.gla_views if main else ()
        for k in STEP_STATS:
            values = [step[k] for step in steps[i * per_epoch:(i + 1) * per_epoch]]
            if k.startswith("dom_acc_"):
                assert math.isnan(row[k]) == (k[len("dom_acc_"):] not in views), (i, k)
            if k == "tol_acc":
                assert math.isnan(row[k]) != runs_tol, i
            if not math.isnan(row[k]):
                assert row[k] == pytest.approx(statistics.fmean(values), rel=1e-12), (i, k)
        assert (row["loss_ce"] == 0.0) == (not main)
        assert (row["loss_tol"] == 0.0) == (not runs_tol)
        assert (row["loss_gla"] == 0.0) == (not views)


def test_step_groups_by_phase():
    """A step returns, in layout order, the groups it writes: on a new model
    each holds a non-zero gradient and every other group's is still zero."""
    src, tgt = tiny_data()
    for row, phase, want in [("full_glad", "warmup", ["enc", "proj", "tol"]),
                             ("full_glad", "main", ["enc", "proj", "act", "tol", "dom"]),
                             ("source_only", "main", ["enc", "proj", "act"]),
                             ("dann", "main", ["enc", "proj", "act", "dom"])]:
        mdl = init_glad_model(TINY_MODEL, seed=0)
        _, groups = step_on_splits(mdl, subset(src, range(4)),
                                   unlabeled(subset(tgt, range(4))),
                                   tiny_config(**ablation_rows()[row]),
                                   np.random.default_rng(0), phase)
        assert groups == want, (row, phase)
        for g in mdl.params:
            assert any(np.any(t != 0) for t in mdl.grads[g]) == (g in groups), (row, phase, g)


def test_step_gradients_do_not_depend_on_the_step_before():
    """A step writes every entry of the groups it returns: a gg-only main
    step after a full_glad one gives the bits of the same step on a new
    model, its unused classifiers' "dom" slots zero included."""
    src, tgt = tiny_data()
    batch = (subset(src, range(4)), unlabeled(subset(tgt, range(4))))
    used = init_glad_model(TINY_MODEL, seed=0)
    step_on_splits(used, *batch, tiny_config(), np.random.default_rng(0), "main")
    gg = tiny_config(gla_views=("gg",))
    *_, groups = step_on_splits(used, *batch, gg, np.random.default_rng(1), "main")
    fresh = init_glad_model(TINY_MODEL, seed=0)
    step_on_splits(fresh, *batch, gg, np.random.default_rng(1), "main")
    assert groups == list(used.layout)  # the whole vector
    assert used.grads.flat.tobytes() == fresh.grads.flat.tobytes()
    assert not any(np.any(t[[GLA_VIEWS["ll"][0], GLA_VIEWS["cross"][0]]])
                   for t in used.grads["dom"])


@pytest.mark.parametrize("phase", ["warmup", "main"])
@pytest.mark.parametrize("row", list(ablation_rows()))
def test_fused_update_bit_equal_to_per_tensor_oracle(row, phase):
    """apply_grads gives the parameter and velocity bytes of the per-tensor
    update, with the momentum and weight decay constants, on every group a
    step of that row and phase writes, signed zeros included, and leaves
    every other group's bytes alone."""
    cfg = tiny_config(**ablation_rows()[row])
    src, tgt = tiny_data(n=4)
    _, groups = step_on_splits(init_glad_model(TINY_MODEL, seed=0), src, unlabeled(tgt), cfg,
                               np.random.default_rng(0), phase)
    rng = np.random.default_rng(7)
    mdl = init_glad_model(TINY_MODEL, seed=0)
    grads, velocity = mdl.grads, mdl.zeros()
    for state in (mdl.params, grads, velocity):
        state.flat[:] = rng.normal(size=state.flat.size)
    # a bias must get exactly g: -0.0 + 0.0 * p would be +0.0
    zeros = rng.choice(grads.flat.size, size=200, replace=False)
    grads.flat[zeros] = velocity.flat[zeros] = -0.0
    want_v = {g: [v.copy() for v in velocity[g]] for g in mdl.params}
    want_p = {g: [p.copy() for p in mdl.params[g]] for g in mdl.params}
    for g in groups:
        want_p[g] = sgd_step(want_p[g], grads[g], want_v[g], 0.01, trainer.MOMENTUM,
                             trainer.WEIGHT_DECAY)
    apply_grads(mdl, velocity, groups, 0.01)
    for g in mdl.params:
        for got, want in zip(mdl.params[g] + velocity[g], want_p[g] + want_v[g]):
            assert got.tobytes() == want.tobytes(), g


@pytest.mark.parametrize("tol_clips", [2, 4])
def test_step_losses_shapes_and_finiteness(tol_clips):
    src, tgt = tiny_data()
    model = dataclasses.replace(TINY_MODEL, tol_clips=tol_clips)
    cfg = tiny_config(model=model)
    mdl = init_glad_model(model, seed=0)
    rng = np.random.default_rng(0)
    stats, _ = step_on_splits(mdl, subset(src, range(4)),
                              unlabeled(subset(tgt, range(4))), cfg, rng, "main")
    for v in GLA_VIEWS:
        assert np.isfinite(stats[f"dom_acc_{v}"])
    assert 0.0 <= stats["tol_acc"] <= 1.0
    assert np.isfinite(stats["loss_total"])
    assert stats["loss_total"] == pytest.approx(
        stats["loss_ce"] + stats["loss_tol"] - stats["loss_gla"])
    for group in mdl.params:
        for g, p in zip(mdl.grads[group], mdl.params[group]):
            assert g.shape == p.shape
            assert np.all(np.isfinite(g))


def test_step_losses_warmup_touches_only_tol_path():
    src, tgt = tiny_data()
    cfg = tiny_config()
    mdl = init_glad_model(TINY_MODEL, seed=1)
    rng = np.random.default_rng(1)
    stats, _ = step_on_splits(mdl, subset(src, range(4)),
                              unlabeled(subset(tgt, range(4))), cfg, rng, "warmup")
    assert stats["loss_ce"] == 0.0 and stats["loss_gla"] == 0.0
    assert stats["loss_tol"] > 0.0
    for group in ("act", "dom"):
        assert all(np.all(g == 0) for g in mdl.grads[group])
    assert any(np.any(g != 0) for g in mdl.grads["tol"])


def test_step_accuracies_score_the_heads_on_their_training_inputs(monkeypatch):
    """dom_acc_* are the hit rates of the domain classifiers on the
    unit-normalized view features they train on, over both cross
    sub-batches; tol_acc is the order head's hit rate."""
    src, tgt = tiny_data()
    mdl = init_glad_model(TINY_MODEL, seed=3)
    rng = np.random.default_rng(1)
    for c in range(3):  # non-zero biases: scale matters
        for p in mdl.params["dom"]:
            p[c] += rng.normal(scale=0.5, size=p[c].shape)
    seen = {}
    real_gla, real_tol = glad_model.gla_loss, glad_model.tol_loss

    def spy_gla(m, psi_g, psi_l, *rest):
        seen["gla"] = (psi_g, psi_l)
        return real_gla(m, psi_g, psi_l, *rest)

    def spy_tol(m, concat, targets):
        seen["tol"] = (concat, targets)
        return real_tol(m, concat, targets)

    monkeypatch.setattr(glad_model, "gla_loss", spy_gla)
    monkeypatch.setattr(glad_model, "tol_loss", spy_tol)
    stats, *_ = step_on_splits(mdl, subset(src, range(8)), unlabeled(subset(tgt, range(8))),
                               tiny_config(), np.random.default_rng(4), "main")

    g, l = (x / np.linalg.norm(x, axis=1, keepdims=True) for x in seen["gla"])
    g_src, l_src, g_tgt, l_tgt = g[:8], l[:8], g[8:], l[8:]

    def hits(view, src_feats, tgt_feats):
        params = [p[GLA_VIEWS[view][0]] for p in mdl.params["dom"]]
        return (list(mlp_forward(params, src_feats)[0][:, 0] > 0.0)
                + list(mlp_forward(params, tgt_feats)[0][:, 0] <= 0.0))

    assert stats["dom_acc_gg"] == pytest.approx(np.mean(hits("gg", g_src, g_tgt)))
    assert stats["dom_acc_ll"] == pytest.approx(np.mean(hits("ll", l_src, l_tgt)))
    cross_a, cross_b = hits("cross", g_src, l_tgt), hits("cross", l_src, g_tgt)
    assert np.mean(cross_a) != np.mean(cross_b)  # one sub-batch alone is not enough
    cross = cross_a + cross_b
    assert stats["dom_acc_cross"] == pytest.approx(np.mean(cross))
    concat, targets = seen["tol"]
    logits, _ = mlp_forward(mdl.params["tol"], concat)
    assert stats["tol_acc"] == pytest.approx(np.mean(np.argmax(logits, axis=1) == targets))


def test_epoch_batches_cover_smaller_domain():
    rng = np.random.default_rng(0)
    batches = list(trainer._epoch_batches(10, 6, 4, rng))
    assert len(batches) == math.ceil(6 / 4)
    for src_idx, tgt_idx in batches:
        assert len(src_idx) == 4 and len(tgt_idx) == 4
        assert all(0 <= i < 10 for i in src_idx)
        assert all(0 <= i < 6 for i in tgt_idx)


def test_train_writes_report_and_checkpoint(tmp_path):
    src, tgt = tiny_data()
    cfg = tiny_config()
    mdl, epochs = train(cfg, src, tgt, tgt_test=tgt)
    write_run(str(tmp_path), mdl, epochs)
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "final" / "params.bin").exists()
    assert len(epochs) == cfg.warmup_epochs + cfg.main_epochs
    with open(tmp_path / "report.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["phase", "epoch", "lr", "loss_ce", "loss_tol",
                       "loss_gla", "loss_total", "dom_acc_gg", "dom_acc_ll",
                       "dom_acc_cross", "tol_acc", "target_mca"]
    assert len(rows) == 1 + len(epochs)
    assert epochs[-1]["target_mca"] == mean_class_accuracy(evaluate(mdl, tgt, 4))


def test_train_skips_warmup_without_tol():
    src, tgt = tiny_data()
    cfg = tiny_config(use_tol=False)
    _, epochs = train(cfg, src, tgt)
    assert all(e["phase"] == "main" for e in epochs)


def test_train_deterministic_same_seed(tmp_path):
    """Two runs of one config and seed, float32 encoder steps included,
    write the same report and checkpoint bytes."""
    src, tgt = tiny_data()
    cfg = tiny_config()
    for name in ("a", "b"):
        write_run(str(tmp_path / name), *train(cfg, src, tgt, tgt_test=tgt))
    for name in ("report.csv", "final/params.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_target_labels_cannot_reach_training(tmp_path):
    """Training with the target-train labels rolled by one class writes the
    same checkpoint and report: no step reads a target label."""
    src, tgt = tiny_data()
    rolled = dataclasses.replace(tgt, labels=(tgt.labels + 1) % 4)
    for name, tgt_train in (("a", tgt), ("b", rolled)):
        write_run(str(tmp_path / name), *train(tiny_config(), src, tgt_train, tgt_test=tgt))
    for name in ("final/params.bin", "report.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_seed_changes_results():
    src, tgt = tiny_data()
    _, e0 = train(tiny_config(seed=0), src, tgt)
    _, e1 = train(tiny_config(seed=1), src, tgt)
    assert e0[-1]["loss_total"] != e1[-1]["loss_total"]


def test_disabled_paths_match_source_only_bitwise():
    """grl_coeff 0 with every toggle off must equal plain source-only
    training: target data reaches no updated parameter."""
    src, tgt = tiny_data()
    cfg_a = tiny_config(use_bg_aug=False, use_tol=False, gla_views=(),
                        grl_coeff=0.0)
    mdl_a, _ = train(cfg_a, src, tgt)
    other_tgt = dataclasses.replace(tgt, frames=np.flip(tgt.frames, axis=1).copy())
    mdl_b, _ = train(cfg_a, src, other_tgt)
    for group in ("enc", "proj", "act"):
        for pa, pb in zip(mdl_a.params[group], mdl_b.params[group]):
            assert np.array_equal(pa, pb)


def test_evaluate_shapes_and_range():
    src, _ = tiny_data()
    mdl = init_glad_model(TINY_MODEL, seed=0)
    cm = evaluate(mdl, src, 4)
    assert cm.shape == (4, 4)
    assert cm.sum() == len(src.lengths)
    assert 0.0 <= mean_class_accuracy(cm) <= 100.0


def test_evaluate_in_blocks_equals_each_block_alone_and_per_clip_oracle(monkeypatch):
    """A split of two and a half blocks is scored a block at a time: its
    confusion matrix is the sum of scoring each block's videos alone, and
    the per-clip oracle's."""
    block = trainer.EVAL_BLOCK
    n = 2 * block + block // 2
    _, (videos,) = generate_domain(DomainSpec(n_classes=4, n_videos=n, length_range=(8, 40),
                                              seed=5, domain="source"))
    mdl = init_glad_model(TINY_MODEL, seed=1)
    encoded = []
    real_encode = glad_model.encode_clip_batch

    def spy(mdl, clips, rows, dtype=np.float64):
        encoded.append(len(clips))
        return real_encode(mdl, clips, rows, dtype)

    monkeypatch.setattr(glad_model, "encode_clip_batch", spy)
    cm = evaluate(mdl, videos, 4)
    assert encoded == [3 * block, 3 * block, 3 * (n - 2 * block)]  # 3 clips per video
    alone = sum(evaluate(mdl, subset(videos, range(a, min(a + block, n))), 4)
                for a in range(0, n, block))
    assert np.array_equal(cm, alone)
    want_cm, want_mca = evaluate_per_clip(mdl, videos, 4)
    assert np.array_equal(cm, want_cm) and mean_class_accuracy(cm) == want_mca


def traced_peak_of_evaluate(n_videos: int) -> int:
    """Peak bytes tracemalloc sees (numpy's buffers included) while a fresh
    model evaluates n_videos 40-frame videos packed in one buffer, as
    read_dataset gives them; the frames exist before tracing starts."""
    frames = np.random.default_rng(0).random((n_videos * 40, 64), dtype=np.float32)
    videos = Packed(frames, np.arange(n_videos) * 40, np.full(n_videos, 40),
                    np.arange(n_videos) % 4)
    mdl = init_glad_model(TINY_MODEL, seed=0)
    tracemalloc.start()
    try:
        evaluate(mdl, videos, 4)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_memory_is_bounded_by_a_block():
    """Four blocks of videos peak below 1.5 times one block: the gathered
    rows and the encoder's float64 scratch are sized by a block, and only
    integer indices grow with the split."""
    one = traced_peak_of_evaluate(trainer.EVAL_BLOCK)
    assert traced_peak_of_evaluate(4 * trainer.EVAL_BLOCK) < 1.5 * one


def test_ablation_rows_cover_standard_matrix():
    rows = ablation_rows()
    assert set(rows) == {"source_only", "gla_only", "debias_only", "full_glad",
                         "supervised_target", "dann"}
    assert rows["dann"]["gla_views"] == ("gg",)
    assert rows["dann"]["use_bg_aug"] is False


def test_every_ablation_row_sets_every_toggle():
    """A row's run does not depend on the base config's use_bg_aug, use_tol
    or gla_views: each row sets all three."""
    bases = [tiny_config(gla_views=views, use_bg_aug=aug, use_tol=tol)
             for views in ((), ("gg",), tuple(GLA_VIEWS))
             for aug in (False, True) for tol in (False, True)]
    for name, row in ablation_rows().items():
        toggles = {(c.use_bg_aug, c.use_tol, c.gla_views)
                   for c in (dataclasses.replace(base, **row) for base in bases)}
        assert len(toggles) == 1, (name, toggles)


def test_ablation_matrix_and_table():
    src, tgt = tiny_data(n=8)
    base = tiny_config(warmup_epochs=1, main_epochs=1)
    table = run_ablation_matrix(base, src, tgt, tgt, seeds=[0, 1])
    assert list(table) == list(ablation_rows())
    for name in table:
        assert len(table[name]["values"]) == 2
        vals = table[name]["values"]
        assert table[name]["mean"] == pytest.approx(np.mean(vals))
        assert table[name]["std"] == pytest.approx(np.std(vals))
    text = format_ablation_table(table)
    assert "source_only" in text and "full_glad" in text
    assert "+/- std" in text


def test_ablation_matrix_equals_direct_runs_on_any_core_count():
    """The pooled table holds exactly the final MCAs of in-process train
    calls, supervised_target's with the target split as its labeled source,
    with one worker and with one worker per available core."""
    src, tgt = tiny_data(n=8)
    base = tiny_config(warmup_epochs=1, main_epochs=1)
    rows = ablation_rows()
    seeds = [0, 1]

    def direct_mca(name, seed):
        labeled = tgt if name == "supervised_target" else src
        _, epochs = train(dataclasses.replace(base, **rows[name], seed=seed), labeled, tgt, tgt)
        return epochs[-1]["target_mca"]

    direct = {name: [direct_mca(name, seed) for seed in seeds] for name in rows}
    cores = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(cores)})
        one_worker = run_ablation_matrix(base, src, tgt, tgt, seeds)
    finally:
        os.sched_setaffinity(0, cores)
    every_core = run_ablation_matrix(base, src, tgt, tgt, seeds)
    for table in (one_worker, every_core):
        assert list(table) == list(rows)
        for name, values in direct.items():
            assert table[name] == {"mean": statistics.fmean(values),
                                   "std": statistics.pstdev(values), "values": values}


@pytest.mark.parametrize("name", ["full_glad", "supervised_target"])
def test_ablation_job_scores_the_last_epoch_of_train(monkeypatch, name):
    """An ablation job, which scores its model once after training, gives
    the target_mca of train's last epoch for the same row and seed."""
    src, tgt = tiny_data(n=8)
    _, tgt_test = tiny_data(seed=5, n=8)
    base = tiny_config(warmup_epochs=1, main_epochs=2)
    monkeypatch.setattr(trainer, "_job_inputs", (base, src, tgt, tgt_test))
    labeled = tgt if name == "supervised_target" else src
    _, epochs = train(dataclasses.replace(base, **ablation_rows()[name], seed=1),
                      labeled, tgt, tgt_test)
    assert trainer._run_job(name, ablation_rows()[name], 1) == epochs[-1]["target_mca"]


def test_config_dict_roundtrip():
    cfg = tiny_config(gla_views=("gg",), lr_drop_epochs=(3, 7))
    back = from_json(TrainConfig, json.loads(json.dumps(dataclasses.asdict(cfg))))
    assert back == cfg
    assert isinstance(back.model, ModelConfig)


def test_report_csv_floats_roundtrip(tmp_path):
    epochs = [{"phase": "main", "epoch": 0, "lr": 2e-3,
               "loss_ce": 1.2345678901234567, "loss_tol": 0.1,
               "loss_gla": 0.2, "loss_total": 1.1345678901234567,
               "dom_acc_gg": 0.5, "dom_acc_ll": float("nan"),
               "dom_acc_cross": 0.25, "tol_acc": 0.5,
               "target_mca": 10.0}]
    write_report(str(tmp_path), epochs, str(tmp_path / "final"))
    with open(tmp_path / "report.csv", newline="") as f:
        rows = list(csv.reader(f))
    # repr round-trips the exact float
    assert float(rows[1][3]) == 1.2345678901234567


def test_step_draws_and_encodes_like_the_per_video_path(monkeypatch):
    """A step with mixing draws the mix choices of the source videos, then
    one scalar sampler call per clip, video by video, then the TOL orders,
    and encodes the frames a whole-video mix followed by a per-clip gather
    gives, bit for bit in a float64 step."""
    src, tgt = tiny_data()
    tgt = unlabeled(tgt)
    cfg = tiny_config()
    mdl = init_glad_model(TINY_MODEL, seed=2)
    bank = np.concatenate([build_background_bank(src), build_background_bank(tgt)])
    batch = (np.array([3, 0, 3, 7]), np.array([1, 2, 5, 5]))
    seen = {}
    real_encode = glad_model.encode_clip_batch

    def spy(m, clips, rows, dtype=np.float64):
        seen["feats"], cache = real_encode(m, clips, rows, dtype)
        return seen["feats"], cache

    monkeypatch.setattr(glad_model, "encode_clip_batch", spy)
    # seed 10 mixes slots 1 and 2: video 3 once mixed (slot 2) and once not (slot 0)
    rng = np.random.default_rng(10)
    trainer.step_losses(mdl, src, tgt, batch, cfg, rng, "main", bank, np.float64)

    oracle = np.random.default_rng(10)
    videos = ([videos_of(src)[i] for i in batch[0]]
              + [videos_of(tgt)[i] for i in batch[1]])
    mixed = []
    for slot, v in enumerate(videos):
        frames = v
        if slot < len(batch[0]) and oracle.uniform() < MIX_PROBABILITY:
            bg = bank[int(oracle.integers(0, len(bank)))]
            frames = mix_background(frames, bg, MIX_LAMBDA)
        mixed.append(frames)
    assert [f is not v for f, v in zip(mixed, videos)] == [False, True, True] + [False] * 5
    m = TINY_MODEL
    clips = [frames[list(c)] for v, frames in zip(videos, mixed)
             for c in [sample_global_clip(len(v), m.n_frames, oracle)]
             + [sample_local_clip(len(v), m.n_frames, m.local_stride, oracle)
                for _ in range(2 + m.tol_clips)]]
    oracle.permuted(np.tile(np.arange(m.tol_clips), (8, 1)), axis=1)
    assert rng.bit_generator.state == oracle.bit_generator.state
    assert np.array_equal(seen["feats"], encode_clip_stack(mdl, np.stack(clips)))


def test_training_steps_encode_in_float32_and_scoring_in_float64(monkeypatch):
    """The steps of a one-epoch train run the encoder on float32 rows and
    float32 copies of its parameters, and evaluate runs it in float64; the
    clip features that reach the heads are float64 either way."""
    src, tgt = tiny_data()
    seen = []
    real_encode = glad_model.encode_clip_batch

    def spy(m, clips, rows, *dtype):
        feats, cache = real_encode(m, clips, rows, *dtype)
        seen.append((cache["enc"]["inputs"][0].dtype, cache["enc_params"][0].dtype,
                     cache["enc"]["outputs"][-1].dtype, feats.dtype))
        return feats, cache

    monkeypatch.setattr(glad_model, "encode_clip_batch", spy)
    mdl, _ = train(tiny_config(warmup_epochs=0, main_epochs=1), src, tgt)  # no test split
    assert seen and all(s == (np.float32,) * 3 + (np.float64,) for s in seen)
    seen.clear()
    evaluate(mdl, tgt, 4)
    assert seen and all(s == (np.float64,) * 4 for s in seen)


def test_float32_step_agrees_with_float64_step():
    """On the default model and data shapes, a step with the encoder in
    float32 gives the float64 step's losses within a relative 1e-6 and each
    active group's gradient within a norm-wise relative 1e-5. Over 20 data
    and model seeds and both phases, on 16 + 16 videos with mixing, the
    largest differences measured were 5.7e-8 for a loss and 4.7e-7 for a
    group's gradient."""
    _, (src,) = generate_domain(DomainSpec(n_videos=16, seed=0, domain="source"))
    _, (tgt,) = generate_domain(DomainSpec(n_videos=16, length_range=(8, 24), seed=1000,
                                           background_mode="fixed_checkerboard",
                                           domain="target"))
    tgt = unlabeled(tgt)
    bank = np.concatenate([build_background_bank(src), build_background_bank(tgt)])
    cfg = TrainConfig()
    mdl = init_glad_model(cfg.model, seed=0)
    batch = (np.arange(16), np.arange(16))
    for phase in ("warmup", "main"):
        got = {}
        for dtype in (np.float64, np.float32):
            stats, groups = trainer.step_losses(mdl, src, tgt, batch, cfg,
                                                np.random.default_rng(0), phase, bank, dtype)
            # a copy: the next step overwrites the gradient vector the model keeps
            got[dtype] = stats, {g: np.concatenate([t.ravel() for t in ts])
                                 for g, ts in mdl.grads.items()}
        (stats64, grads64), (stats32, grads32) = got[np.float64], got[np.float32]
        for key in ("loss_ce", "loss_tol", "loss_gla", "loss_total"):
            assert abs(stats32[key] - stats64[key]) <= 1e-6 * abs(stats64[key]), (phase, key)
        for g in groups:
            assert np.linalg.norm(grads32[g] - grads64[g]) \
                <= 1e-5 * np.linalg.norm(grads64[g]), (phase, g)
        assert not np.array_equal(grads32["enc"], grads64["enc"])  # the float32 path ran


def test_float32_steps_leave_float64_scoring_alone():
    """The encoder keeps its scratch buffers per dtype. Scoring, then a
    float32 step that encodes more rows than the scoring did, then scoring
    again gives the confusion matrices and float64 features of a model
    that never ran a step, bit for bit."""
    src, tgt = tiny_data()
    test = subset(tgt, range(2))  # fewer distinct rows than a step encodes
    clips = np.arange(24).reshape(6, 4)
    rows = tgt.frames[:24]
    fresh = init_glad_model(TINY_MODEL, seed=3)
    want_cm = evaluate(fresh, test, 4)
    want_feats = glad_model.encode_clip_batch(fresh, clips, rows)[0]
    mdl = init_glad_model(TINY_MODEL, seed=3)
    assert np.array_equal(evaluate(mdl, test, 4), want_cm)
    trainer.step_losses(mdl, src, unlabeled(tgt), (np.arange(4), np.arange(4)), tiny_config(),
                        np.random.default_rng(0), "main", None, np.float32)
    assert np.array_equal(evaluate(mdl, test, 4), want_cm)
    assert glad_model.encode_clip_batch(mdl, clips, rows)[0].tobytes() == want_feats.tobytes()
