import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from glad import model as glad_model
from glad.model import TOL_ORDERS, ModelConfig, init_glad_model, tol_labels
from glad.sampling import clip_indices
from glad.trainer import TrainConfig
from oracles import packed, sample_global_clip, sample_local_clip, step_on_splits


def global_clip(t, n_frames, rng=None):
    return tuple(clip_indices([t], n_frames, 1, 1, 0, rng)[0, 0].tolist())


def local_clip(t, n_frames, stride, rng=None):
    return tuple(clip_indices([t], n_frames, stride, 0, 1, rng)[0, 0].tolist())


def test_global_eval_t16_n8():
    assert global_clip(16, 8) == (0, 2, 4, 6, 8, 10, 12, 14)


def test_global_eval_t8_is_identity():
    assert global_clip(8, 8) == tuple(range(8))


def test_global_train_stays_in_segments():
    rng = np.random.default_rng(0)
    lengths = rng.integers(8, 100, size=200)
    for t, clip in zip(lengths, clip_indices(lengths, 8, 2, 1, 0, rng)[:, 0]):
        for k, idx in enumerate(clip):
            lo = (k * t) // 8
            hi = max(lo + 1, ((k + 1) * t) // 8)
            assert lo <= idx < hi


@given(st.integers(8, 500))
def test_global_eval_picks_segment_centers(t):
    clip = global_clip(t, 8)
    for k, idx in enumerate(clip):
        lo = (k * t) // 8
        hi = ((k + 1) * t) // 8
        assert idx == (lo + hi - 1) // 2


def test_global_short_video_repeats_frames():
    clip = global_clip(3, 8)
    assert len(clip) == 8
    assert min(clip) >= 0 and max(clip) <= 2
    assert list(clip) == sorted(clip)


def test_local_short_video_clamps():
    assert local_clip(5, 8, stride=2) == (0, 2, 4, 4, 4, 4, 4, 4)


def test_local_eval_is_centered():
    # span = (8 - 1) * 2 = 14, start = (32 - 1 - 14) // 2 = 8
    assert local_clip(32, 8, stride=2) == tuple(range(8, 24, 2))


def test_local_train_within_bounds():
    rng = np.random.default_rng(1)
    lengths = rng.integers(8, 120, size=200)
    for t, clip in zip(lengths, clip_indices(lengths, 8, 2, 0, 1, rng)[:, 0]):
        assert len(clip) == 8
        assert all(0 <= i < t for i in clip)
        diffs = np.diff(clip)
        # full stride until the clamp at T-1 kicks in
        assert np.all((diffs >= 0) & (diffs <= 2))
        if t >= 15:  # span fits, no clamping possible
            assert np.all(diffs == 2)


@given(st.integers(1, 200), st.integers(1, 8), st.integers(1, 4))
def test_local_eval_indices_non_decreasing(t, n, stride):
    clip = local_clip(t, n, stride=stride)
    assert clip[0] >= 0
    assert all(a <= b for a, b in zip(clip, clip[1:]))
    assert clip[-1] <= t - 1


# Every length class of the samplers: shorter than a global clip, a local
# clip that does not fit (T <= span), one start only (T = span + 1), long.
N_FRAMES, STRIDE = 8, 2
SPAN = STRIDE * (N_FRAMES - 1)
LENGTHS = [3, N_FRAMES, SPAN, SPAN + 1, SPAN + 2, 48, 200]


@pytest.mark.parametrize("tol_clips", [2, 3, 4])
@pytest.mark.parametrize("mg", [0, 1, 2])
@pytest.mark.parametrize("nl", [0, 1, 2])
def test_clip_indices_train_match_scalar_oracles(mg, nl, tol_clips):
    """One array draw gives the indices of one scalar sampler call per clip,
    video by video, and leaves the generator in the same state."""
    lengths = np.array(LENGTHS * 3)
    np.random.default_rng(mg * 9 + nl * 3 + tol_clips).shuffle(lengths)
    drawn = np.random.default_rng(11)
    scalar = np.random.default_rng(11)
    idx = clip_indices(lengths, N_FRAMES, STRIDE, mg, nl + tol_clips, drawn)
    oracle = [[sample_global_clip(int(t), N_FRAMES, scalar) for _ in range(mg)]
              + [sample_local_clip(int(t), N_FRAMES, STRIDE, scalar)
                 for _ in range(nl + tol_clips)] for t in lengths]
    assert idx.shape == (len(lengths), mg + nl + tol_clips, N_FRAMES)
    assert idx.tolist() == [[list(c) for c in clips] for clips in oracle]
    assert drawn.bit_generator.state == scalar.bit_generator.state
    assert drawn.integers(0, 2**40) == scalar.integers(0, 2**40)


def test_clip_indices_draw_nothing_where_no_clip_has_a_choice():
    """Local clips of videos no longer than their span draw no start."""
    rng = np.random.default_rng(12)
    state = rng.bit_generator.state
    idx = clip_indices([3, SPAN], N_FRAMES, STRIDE, 0, 4, rng)
    assert rng.bit_generator.state == state
    assert idx.tolist() == [[list(sample_local_clip(t, N_FRAMES, STRIDE))] * 4
                            for t in (3, SPAN)]


@given(st.lists(st.integers(1, 300), min_size=1, max_size=20), st.integers(1, 9),
       st.integers(1, 4))
def test_clip_indices_eval_match_scalar_oracles(lengths, n_frames, stride):
    idx = clip_indices(lengths, n_frames, stride, 1, 1)
    assert idx.tolist() == [[list(sample_global_clip(t, n_frames)),
                             list(sample_local_clip(t, n_frames, stride))]
                            for t in lengths]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_permutation_encode_decode_bijective(n):
    """Row i of the TOL order table is the i-th order in lexicographic
    order, and its label is i."""
    assert [tuple(row) for row in TOL_ORDERS[n]] == list(itertools.permutations(range(n)))
    assert np.array_equal(tol_labels(TOL_ORDERS[n]), np.arange(math.factorial(n)))


def test_permutation_identity_is_zero():
    assert tol_labels(np.array([[0, 1, 2], [0, 1, 2]])).tolist() == [0, 0]
    assert tuple(TOL_ORDERS[4][0]) == (0, 1, 2, 3)


def test_permutation_reversal_is_max():
    assert tol_labels(np.array([[2, 1, 0]])).tolist() == [5]
    assert tol_labels(np.array([[3, 2, 1, 0]])).tolist() == [23]


# One training step of a tiny model, with order learning on 3 clips

TINY = ModelConfig(frame_shape=(2, 3), enc_hidden=5, enc_out=4, feat_dim=4,
                   n_classes=3, n_frames=4, tol_clips=3, tol_hidden=5,
                   domain_hidden=(5, 4, 3))


def tiny_batch(domain, seed, b=8):
    rng = np.random.default_rng(seed)
    videos = [(rng.uniform(size=(int(rng.integers(8, 20)), 6)),
               int(rng.integers(0, 3)) if domain == "source" else None) for _ in range(b)]
    return packed(*zip(*videos))


def tol_step(monkeypatch, phase, tol_loss=None, b=8):
    """Run one step on b + b videos; returns the features encode_clip_batch returned,
    the inputs tol_loss got and the feature gradient encode_clip_backward got."""
    seen = {}
    real_encode, real_backward = glad_model.encode_clip_batch, glad_model.encode_clip_backward
    tol_loss = tol_loss or glad_model.tol_loss

    def spy_encode(m, clips, rows, dtype=np.float64):
        seen["feats"], cache = real_encode(m, clips, rows, dtype)
        return seen["feats"], cache

    def spy_tol(m, concat, targets):
        seen["concat"], seen["targets"] = concat, targets
        return tol_loss(m, concat, targets)

    def spy_backward(m, cache, dfeats):
        seen["dfeats"] = dfeats.copy()
        return real_backward(m, cache, dfeats)

    monkeypatch.setattr(glad_model, "encode_clip_batch", spy_encode)
    monkeypatch.setattr(glad_model, "tol_loss", spy_tol)
    monkeypatch.setattr(glad_model, "encode_clip_backward", spy_backward)
    step_on_splits(init_glad_model(TINY, seed=0), tiny_batch("source", 0, b),
                   tiny_batch("target", 1, b), TrainConfig(model=TINY),
                   np.random.default_rng(0), phase)
    return seen


def test_shuffle_clips_places_by_label(monkeypatch):
    """Each TOL label names the order its video's clips were given in: the
    video's row of the order head's input is its TOL clip features taken
    in the table's order for that label."""
    seen = tol_step(monkeypatch, "main")
    tol = seen["feats"].reshape(16, -1, TINY.feat_dim)[:, -TINY.tol_clips:]
    for i, target in enumerate(seen["targets"]):
        expected = tol[i][TOL_ORDERS[TINY.tol_clips][target]].reshape(-1)
        assert np.array_equal(seen["concat"][i], expected)


def test_shuffle_clips_roundtrip(monkeypatch):
    """The gradient of each shuffled slot returns to the clip placed there:
    with an order loss whose input gradient is its input, a warm-up step
    (TOL clips only) hands the encoder back its own features."""
    def echo(m, concat, targets):
        return 0.0, concat.copy(), np.zeros((len(targets), 6))

    seen = tol_step(monkeypatch, "warmup", tol_loss=echo)
    assert np.array_equal(seen["dfeats"], seen["feats"])


def test_shuffle_clips_covers_all_orders(monkeypatch):
    targets = tol_step(monkeypatch, "warmup", b=32)["targets"]
    assert set(targets.tolist()) == set(range(6))
