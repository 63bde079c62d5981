import itertools

import numpy as np
import pytest

from glad import diffnet, model as glad_model, trainer
from glad.model import (GLA_VIEWS, ModelConfig, ce_loss, classify_action,
                        domain_adv_loss, encode_clip_backward, encode_clip_batch,
                        gla_loss, init_glad_model, load_model, save_model,
                        tol_loss)
from glad.sampling import clip_indices
from glad.trainer import evaluate
from gradcheck import finite_difference_check
from oracles import (encode_clip_stack, encoder_grads_by_repeat, gla_loss_per_subbatch,
                     packed, sample_global_clip, sample_local_clip)

TINY = ModelConfig(frame_shape=(2, 3), enc_hidden=5, enc_out=4, feat_dim=4,
                   n_classes=3, n_frames=4, tol_clips=3, tol_hidden=5,
                   domain_hidden=(5, 4, 3))


def make_video(t=10, d=6, seed=0):
    """(t, d) random frames."""
    return np.random.default_rng(seed).uniform(size=(t, d)).astype(np.float32)


def test_config_rejects_bad_tol_clips():
    with pytest.raises(ValueError):
        ModelConfig(tol_clips=1)
    with pytest.raises(ValueError):
        ModelConfig(tol_clips=5)


def test_init_is_deterministic():
    a = init_glad_model(TINY, seed=3)
    b = init_glad_model(TINY, seed=3)
    for group in a.params:
        for pa, pb in zip(a.params[group], b.params[group]):
            assert np.array_equal(pa, pb)
    c = init_glad_model(TINY, seed=4)
    assert not np.array_equal(a.params["enc"][0], c.params["enc"][0])


def test_encode_clip_batch_shapes():
    m = init_glad_model(TINY, seed=0)
    rows = np.random.default_rng(0).uniform(size=(7, 6))
    clips = np.random.default_rng(1).integers(0, 7, size=(5, 4))
    feats, cache = encode_clip_batch(m, clips, rows)
    assert feats.shape == (5, 4)
    assert cache["clips"] is clips


def test_encode_constant_frames_pool_to_single_frame_feature():
    """Mean pooling over one row repeated equals the one-frame encoding."""
    m = init_glad_model(TINY, seed=1)
    frame = np.random.default_rng(2).uniform(size=(1, 6))
    f_one, _ = encode_clip_batch(m, np.zeros((1, 1), np.int64), frame)
    f_clip, _ = encode_clip_batch(m, np.zeros((1, 4), np.int64), frame)
    assert np.allclose(f_one[0], f_clip[0], atol=1e-12)


def shared_clips(seed, n_rows=7, n_clips=3, n_f=4):
    """A clip matrix over n_rows rows in which every row appears and some
    appear in several clips, or twice in one."""
    rng = np.random.default_rng(seed)
    clips = np.concatenate([rng.permutation(n_rows),
                            rng.integers(0, n_rows, size=n_clips * n_f - n_rows)])
    return rng.permutation(clips).reshape(n_clips, n_f)


def test_encode_backward_matches_finite_differences():
    """Rows shared between clips, and within one, sum their gradients."""
    m = init_glad_model(TINY, seed=2)
    rng = np.random.default_rng(3)
    rows, clips = rng.uniform(size=(7, 6)), shared_clips(3)
    w = rng.normal(size=(3, 4))
    feats, cache = encode_clip_batch(m, clips, rows)
    encode_clip_backward(m, cache, w)
    flat_params = m.params["enc"] + m.params["proj"]
    flat_grads = m.grads["enc"] + m.grads["proj"]

    def loss_fn(p):
        m.params["enc"] = p[:len(m.params["enc"])]
        m.params["proj"] = p[len(m.params["enc"]):]
        f, _ = encode_clip_batch(m, clips, rows)
        return float(np.sum(f * w))

    assert finite_difference_check(loss_fn, flat_params, flat_grads) < 1e-6


@pytest.mark.parametrize("cfg", [TINY, ModelConfig()], ids=["tiny", "default"])
def test_encode_clip_batch_bit_equal_to_per_clip_oracle(cfg):
    """Encoding the distinct rows once gives the bits of encoding every
    clip frame of a real step's clips."""
    m = init_glad_model(cfg, seed=4)
    rng = np.random.default_rng(5)
    vids = [make_video(t=int(t), d=cfg.frame_dim, seed=i)
            for i, t in enumerate(rng.integers(5, 60, size=12))]
    videos = packed(vids, [1] * 12)
    idx = clip_indices(videos.lengths, cfg.n_frames, cfg.local_stride, 1, 5, rng)
    rows, clips, _ = trainer._clip_rows([(videos, np.arange(12))], idx)
    assert len(rows) < clips.size  # the clips share frames
    stack = np.stack([v[c] for v, cs in zip(vids, idx) for c in cs])
    feats, _ = encode_clip_batch(m, clips, rows)
    assert np.array_equal(feats, encode_clip_stack(m, stack))


def test_encoder_grads_match_repeat_oracle():
    """The encoder gradient summed over distinct rows equals the gradient
    with every clip frame its own row, to 1e-12 relative."""
    m = init_glad_model(ModelConfig(), seed=6)
    rng = np.random.default_rng(7)
    rows, clips = rng.uniform(size=(40, 64)), shared_clips(7, n_rows=40, n_clips=12, n_f=8)
    dfeats = rng.normal(size=(12, m.config.feat_dim))
    _, cache = encode_clip_batch(m, clips, rows)
    encode_clip_backward(m, cache, dfeats)
    dpooled = diffnet.mlp_backward(m.params["proj"], cache["proj"], dfeats,
                                   [np.empty_like(p) for p in m.params["proj"]])
    for g, want in zip(m.grads["enc"], encoder_grads_by_repeat(m, clips, rows, dpooled)):
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))


def test_gather_clip_frames_selects_indices():
    """Each clip's rows are its video's frames, one set of rows per batch
    slot even when two slots hold the same video."""
    vids = [make_video(t=12, seed=0), make_video(t=9, seed=1)]
    idx = np.array([[[0, 3, 6, 9]], [[1, 1, 2, 8]], [[0, 3, 3, 11]]])
    rows, clips, bounds = trainer._clip_rows([(packed(vids, [1, 1]), np.array([0, 1, 0]))], idx)
    assert len(rows) == 4 + 3 + 3 and bounds.tolist() == [0, 4, 7, 10]
    for slot, video in enumerate([0, 1, 0]):
        assert np.array_equal(rows[clips[slot]], vids[video][idx[slot, 0]])
        assert set(clips[slot]) <= set(range(bounds[slot], bounds[slot + 1]))


def classifier(m, c=0):
    """Domain classifier c's tensors: views of [c] of the "dom" stack."""
    return [p[c] for p in m.params["dom"]]


def adv_loss(params, psi, grl_coeff):
    """domain_adv_loss as (loss, classifier gradients, dpsi, z), the
    gradients in new arrays."""
    grads = [np.empty_like(p) for p in params]
    loss, dpsi, z = domain_adv_loss(params, psi, grl_coeff, grads)
    return loss, grads, dpsi, z


def test_domain_adv_loss_symmetric_start():
    """With a zeroed classifier the output is 0.5 so the loss is ln 2."""
    m = init_glad_model(TINY, seed=0)
    params = [np.zeros_like(p) for p in classifier(m)]
    psi = np.random.default_rng(0).normal(size=(6, 4))
    loss, _, dpsi, z = adv_loss(params, psi, 1.0)
    assert loss == pytest.approx(np.log(2), abs=1e-12)
    assert dpsi.shape == psi.shape
    assert np.all(z == 0.0)


def test_domain_adv_grl_zero_blocks_feature_gradient():
    m = init_glad_model(TINY, seed=1)
    psi = np.random.default_rng(1).normal(size=(4, 4))
    _, _, dpsi, _ = adv_loss(classifier(m), psi, 0.0)
    assert np.all(dpsi == 0.0)


def test_domain_adv_classifier_grads_descend_loss():
    m = init_glad_model(TINY, seed=2)
    psi = np.random.default_rng(2).normal(size=(8, 4))
    loss, grads, _, _ = adv_loss(classifier(m), psi, 1.0)
    stepped = [p - 1e-3 * g for p, g in zip(classifier(m), grads)]
    loss2, _, _, _ = adv_loss(stepped, psi, 1.0)
    assert loss2 < loss


def test_domain_adv_classifier_grads_match_finite_differences():
    m = init_glad_model(TINY, seed=3)
    psi = np.random.default_rng(3).normal(size=(4, 4))

    def loss_fn(p):
        l, _, _, _ = adv_loss(p, psi, 1.0)
        return l

    _, grads, _, _ = adv_loss(classifier(m), psi, 1.0)
    assert finite_difference_check(loss_fn, classifier(m), grads) < 1e-5


def test_gla_loss_view_subsets():
    m = init_glad_model(TINY, seed=4)
    rng = np.random.default_rng(4)
    psi_g, psi_l = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    total_all, dpsi_all, logits_all = gla_loss(m, psi_g, psi_l, grl_coeff=1.0)
    assert {k: d.shape for k, d in dpsi_all.items()} == {"g": (6, 4), "l": (6, 4)}
    # one row of 2B logits per sub-batch; the cross view has two
    assert {v: z.shape for v, z in logits_all.items()} == {
        "gg": (1, 6), "ll": (1, 6), "cross": (2, 6)}
    total_gg, dpsi_gg, logits_gg = gla_loss(m, psi_g, psi_l, grl_coeff=1.0, views=("gg",))
    assert set(logits_gg) == {"gg"}
    assert total_gg < total_all
    # the gg view reads no local stream: its gradient is zero, as are those
    # of the classifiers the other views use
    assert np.any(dpsi_gg["g"] != 0.0) and not np.any(dpsi_gg["l"])
    for g in m.grads["dom"]:
        assert np.any(g[GLA_VIEWS["gg"][0]] != 0.0)
        assert not np.any(g[[GLA_VIEWS["ll"][0], GLA_VIEWS["cross"][0]]])


@pytest.mark.parametrize("views", [v for n in (1, 2, 3)
                                   for v in itertools.combinations(GLA_VIEWS, n)],
                         ids="-".join)
@pytest.mark.parametrize("cfg", [TINY, ModelConfig()], ids=["tiny", "default"])
def test_stacked_gla_loss_bit_equal_to_per_subbatch_oracle(cfg, views):
    """One stacked classifier pass gives the loss, classifier gradients,
    feature gradients and logits of one pass per sub-batch, bit for bit; a
    stream or a classifier that no enabled view uses gets a zero gradient."""
    m = init_glad_model(cfg, seed=9)
    rng = np.random.default_rng(9)
    used = {s for v in views for pair in GLA_VIEWS[v][1] for s in pair}
    psi = {s: rng.normal(size=(16, cfg.feat_dim)) for s in "gl"}
    m.grads.flat[:] = np.nan  # the step writes every "dom" entry
    got = gla_loss(m, psi["g"], psi["l"], 0.5, views)
    want = gla_loss_per_subbatch(m, psi["g"], psi["l"], 0.5, views)
    assert got[0] == want[0]
    for i, (a, b) in enumerate(zip(m.grads["dom"], want[1], strict=True)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"dom.{i}"
    for got_d, want_d in zip(got[1:], want[2:]):
        assert list(got_d) == list(want_d)
        for k in want_d:
            assert got_d[k].shape == want_d[k].shape
            assert got_d[k].tobytes() == want_d[k].tobytes(), k
    for s in "gl":
        assert np.any(got[1][s] != 0.0) == (s in used), s
    classifiers = {GLA_VIEWS[v][0] for v in views}
    for c in range(len(GLA_VIEWS)):
        assert any(np.any(g[c] != 0.0) for g in m.grads["dom"]) == (c in classifiers), c


def test_gla_loss_feature_gradients_match_finite_differences():
    m = init_glad_model(TINY, seed=5)
    rng = np.random.default_rng(5)
    streams = [rng.normal(size=(4, 4)) for _ in range(2)]

    # with coeff -1 the reversal layer is a pass-through of +1 gradients,
    # so dpsi should match d(total)/d(stream) directly
    _, dpsi, _ = gla_loss(m, *streams, grl_coeff=-1.0)

    def loss_fn(ps):
        total, _, _ = gla_loss(m, *ps, grl_coeff=1.0)
        return total

    err = finite_difference_check(loss_fn, streams, [dpsi["g"], dpsi["l"]])
    assert err < 1e-6


def test_tol_loss_uniform_predictions_value():
    """Zeroed order head gives uniform predictions: loss = ln(6)/6 with N=3."""
    m = init_glad_model(TINY, seed=6)
    m.params["tol"] = [np.zeros_like(p) for p in m.params["tol"]]
    x = np.random.default_rng(6).normal(size=(4, 12))
    labels = np.array([0, 1, 2, 3])
    loss, dinput, logits = tol_loss(m, x, labels)
    assert loss == pytest.approx(np.log(6) / 6, abs=1e-9)
    assert dinput.shape == x.shape
    assert logits.shape == (4, 6) and np.all(logits == 0.0)


def test_tol_loss_gradients_match_finite_differences():
    m = init_glad_model(TINY, seed=7)
    x = np.random.default_rng(7).normal(size=(4, 12))
    labels = np.array([5, 0, 3, 2])

    def loss_fn(p):
        saved = m.params["tol"]
        m.params["tol"] = p
        l, _, _ = tol_loss(m, x, labels)
        m.params["tol"] = saved
        return l

    tol_loss(m, x, labels)
    grads = [g.copy() for g in m.grads["tol"]]  # each probe writes m.grads
    assert finite_difference_check(loss_fn, m.params["tol"], grads) < 1e-5


def test_ce_loss_uniform_value_and_gradient():
    m = init_glad_model(TINY, seed=9)
    m.params["act"] = [np.zeros_like(p) for p in m.params["act"]]
    feats = np.random.default_rng(10).normal(size=(5, 4))
    labels = np.array([0, 1, 2, 0, 1])
    loss, dfeat = ce_loss(m, feats, labels)
    assert loss == pytest.approx(np.log(3), abs=1e-12)
    assert np.all(dfeat == 0.0)  # zero weights pass no gradient to features


def test_ce_loss_head_gradients_match_finite_differences():
    m = init_glad_model(TINY, seed=10)
    feats = np.random.default_rng(11).normal(size=(4, 4))
    labels = np.array([2, 0, 1, 2])

    def loss_fn(p):
        saved = m.params["act"]
        m.params["act"] = p
        l, _ = ce_loss(m, feats, labels)
        m.params["act"] = saved
        return l

    ce_loss(m, feats, labels)
    grads = [g.copy() for g in m.grads["act"]]  # each probe writes m.grads
    assert finite_difference_check(loss_fn, m.params["act"], grads) < 1e-5


def test_eval_clips_one_global_two_local(monkeypatch):
    """evaluate pools each video's centred global clip and its centred local
    clip twice, and encodes the local clip once."""
    vids = [make_video(t=t, seed=t) for t in (3, 7, 20, 33)]
    m = init_glad_model(TINY, seed=8)
    seen = {}
    real_encode = glad_model.encode_clip_batch

    def spy(mdl, clips, rows, dtype=np.float64):
        seen["feats"], cache = real_encode(mdl, clips, rows, dtype)
        seen["rows"], seen["clips"] = rows, clips
        return seen["feats"], cache

    monkeypatch.setattr(glad_model, "encode_clip_batch", spy)
    cm = evaluate(m, packed(vids, [len(v) % 3 for v in vids]), 3)
    clips, rows = seen["clips"], seen["rows"]
    assert clips.shape == (3 * len(vids), TINY.n_frames)
    assert len(rows) == len(np.unique(clips)) < clips.size
    for i, v in enumerate(vids):
        g = sample_global_clip(len(v), TINY.n_frames)
        l = sample_local_clip(len(v), TINY.n_frames, TINY.local_stride)
        assert np.array_equal(rows[clips[3 * i]], v[list(g)])
        assert np.array_equal(rows[clips[3 * i + 1]], v[list(l)])
        assert np.array_equal(clips[3 * i + 1], clips[3 * i + 2])  # the same rows
    consensus = seen["feats"].reshape(len(vids), 3, -1).mean(axis=1)
    assert np.array_equal(cm.sum(axis=0), np.bincount(
        np.argmax(classify_action(m, consensus), axis=1), minlength=3))


def test_classify_action_shapes():
    m = init_glad_model(TINY, seed=11)
    assert classify_action(m, np.zeros((7, 4))).shape == (7, 3)


def test_consensus_inference_returns_class():
    m = init_glad_model(TINY, seed=12)
    cm = evaluate(m, packed([make_video(t=15, seed=c) for c in range(3)], range(3)), 3)
    assert cm.shape == (3, 3) and cm.sum() == 3  # one class per video


def test_consensus_inference_deterministic():
    m = init_glad_model(TINY, seed=13)
    vids = packed([make_video(t=9, seed=5 + c) for c in range(3)], range(3))
    assert np.array_equal(evaluate(m, vids, 3), evaluate(m, vids, 3))


def test_model_checkpoint_roundtrip(tmp_path):
    m = init_glad_model(TINY, seed=14)
    save_model(m, str(tmp_path))
    back = load_model(str(tmp_path))
    assert back.config == m.config
    assert list(back.params) == list(m.params)
    for group in m.params:
        assert len(back.params[group]) == len(m.params[group])
        for pa, pb in zip(m.params[group], back.params[group]):
            # float32 storage: each tensor comes back as its rounded original
            assert pb.dtype == np.float64
            assert np.array_equal(pa.astype(np.float32).astype(np.float64), pb)
    vids = packed([make_video(t=11, seed=6 + c) for c in range(3)], range(3))
    # float32 storage must not flip the predictions on generic inputs
    assert np.array_equal(evaluate(back, vids, 3), evaluate(m, vids, 3))
