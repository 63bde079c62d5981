import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from glad.sampling import (PermutationLabel, permutation_decode,
                           permutation_encode, sample_global_clip,
                           sample_local_clip, shuffle_clips)


def test_global_eval_t16_n8():
    assert sample_global_clip(16, 8) == (0, 2, 4, 6, 8, 10, 12, 14)


def test_global_eval_t8_is_identity():
    assert sample_global_clip(8, 8) == tuple(range(8))


def test_global_train_stays_in_segments():
    rng = np.random.default_rng(0)
    for _ in range(200):
        t = int(rng.integers(8, 100))
        clip = sample_global_clip(t, 8, mode="train", rng=rng)
        for k, idx in enumerate(clip):
            lo = (k * t) // 8
            hi = max(lo + 1, ((k + 1) * t) // 8)
            assert lo <= idx < hi


@given(st.integers(8, 500))
def test_global_eval_picks_segment_centers(t):
    clip = sample_global_clip(t, 8)
    for k, idx in enumerate(clip):
        lo = (k * t) // 8
        hi = ((k + 1) * t) // 8
        assert idx == (lo + hi - 1) // 2


def test_global_short_video_repeats_frames():
    clip = sample_global_clip(3, 8)
    assert len(clip) == 8
    assert min(clip) >= 0 and max(clip) <= 2
    assert list(clip) == sorted(clip)


def test_global_train_requires_rng():
    with pytest.raises(ValueError):
        sample_global_clip(16, 8, mode="train", rng=None)


def test_local_short_video_clamps():
    assert sample_local_clip(5, 8, stride=2) == (0, 2, 4, 4, 4, 4, 4, 4)


def test_local_eval_is_centered():
    # span = (8 - 1) * 2 = 14, start = (32 - 1 - 14) // 2 = 8
    assert sample_local_clip(32, 8, stride=2) == tuple(range(8, 24, 2))


def test_local_train_within_bounds():
    rng = np.random.default_rng(1)
    for _ in range(200):
        t = int(rng.integers(8, 120))
        clip = sample_local_clip(t, 8, stride=2, mode="train", rng=rng)
        assert len(clip) == 8
        assert all(0 <= i < t for i in clip)
        diffs = np.diff(clip)
        # full stride until the clamp at T-1 kicks in
        assert np.all((diffs >= 0) & (diffs <= 2))
        if t >= 15:  # span fits, no clamping possible
            assert np.all(diffs == 2)


@given(st.integers(1, 200), st.integers(1, 8), st.integers(1, 4))
def test_local_eval_indices_non_decreasing(t, n, stride):
    clip = sample_local_clip(t, n, stride=stride)
    assert clip[0] >= 0
    assert all(a <= b for a, b in zip(clip, clip[1:]))
    assert clip[-1] <= t - 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_permutation_encode_decode_bijective(n):
    seen = set()
    for perm in itertools.permutations(range(n)):
        code = permutation_encode(perm)
        assert 0 <= code < math.factorial(n)
        assert permutation_decode(code, n) == perm
        seen.add(code)
    assert len(seen) == math.factorial(n)


def test_permutation_identity_is_zero():
    assert permutation_encode((0, 1, 2)) == 0
    assert permutation_decode(0, 4) == (0, 1, 2, 3)


def test_permutation_reversal_is_max():
    assert permutation_encode((2, 1, 0)) == 5
    assert permutation_encode((3, 2, 1, 0)) == 23


def test_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        permutation_encode((0, 0, 1))
    with pytest.raises(ValueError):
        permutation_encode((1, 2, 3))


def test_permutation_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        permutation_decode(6, 3)
    with pytest.raises(ValueError):
        permutation_decode(-1, 3)


def test_shuffle_clips_places_by_label():
    clips = [np.full((2,), float(i)) for i in range(3)]
    rng = np.random.default_rng(5)
    shuffled, label = shuffle_clips(clips, rng)
    assert isinstance(label, PermutationLabel)
    assert label.index == permutation_encode(label.perm)
    for j in range(3):
        assert np.all(shuffled[j] == clips[label.perm[j]])


def test_shuffle_clips_roundtrip():
    rng = np.random.default_rng(6)
    clips = [np.arange(4) + 10 * i for i in range(3)]
    for _ in range(50):
        shuffled, label = shuffle_clips(clips, rng)
        restored = [None] * 3
        for j, src in enumerate(label.perm):
            restored[src] = shuffled[j]
        for orig, back in zip(clips, restored):
            assert np.all(orig == back)


def test_shuffle_clips_covers_all_orders():
    rng = np.random.default_rng(7)
    clips = [np.zeros(1) + i for i in range(3)]
    codes = {shuffle_clips(clips, rng)[1].index for _ in range(400)}
    assert codes == set(range(6))


def test_shuffle_clips_rejects_single_clip():
    with pytest.raises(ValueError):
        shuffle_clips([np.zeros(2)], np.random.default_rng(0))
