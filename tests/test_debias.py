import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glad.debias import build_background_bank, draw_mixes, mix_background
from glad.synthdata import (DomainSpec, checkerboard, class_motion,
                            generate_domain, render_block)
from glad.trainer import TrainConfig
from oracles import extract_background_tmf, packed, videos_of


def test_tmf_constant_video():
    vid = np.full((5, 4), 0.3, np.float32)
    assert np.array_equal(extract_background_tmf(vid), np.full(4, np.float32(0.3)))


def test_tmf_majority_pixel_value():
    # pixel occupied by the blob in 2 of 5 frames: median is the background
    vid = np.array([[0.2], [0.2], [0.9], [0.9], [0.2]], np.float32)
    assert extract_background_tmf(vid)[0] == np.float32(0.2)


def test_tmf_rejects_empty():
    with pytest.raises(ValueError):
        extract_background_tmf(np.empty((0, 4), np.float32))


def test_tmf_recovers_planted_background_bitwise():
    """Noise-free odd-length renders with bounded blob occupancy reproduce
    the planted background exactly."""
    spec = DomainSpec(n_videos=12, length_range=(9, 9), noise_std=0.0, seed=11)
    board = checkerboard(spec)
    for c in range(12):
        rng = np.random.default_rng(c)
        frames = render_block(spec, [9], [board], [class_motion(c, spec, rng)], [rng], [])
        occupancy = (frames != board[None, :]).mean(axis=0)
        assert occupancy.max() < 0.5
        assert np.array_equal(extract_background_tmf(frames), board)


def test_build_bank_from_generated_domain():
    spec = DomainSpec(n_videos=10, length_range=(9, 15), noise_std=0.0, seed=5)
    _, (split,) = generate_domain(spec)
    bank = build_background_bank(split)
    assert bank.shape == (10, spec.frame_dim)
    for bg, frames in zip(bank, videos_of(split)):
        assert np.array_equal(bg, extract_background_tmf(frames))


def test_bank_of_two_splits_is_the_bank_of_their_videos():
    """Each video's background depends on no other video: the banks of two
    splits, joined, are bit for bit the bank of all their videos in one
    split, as train builds the bank of the source and target splits."""
    spec = DomainSpec(n_videos=14, length_range=(8, 20), seed=6)
    _, (src,) = generate_domain(spec)
    _, (tgt,) = generate_domain(dataclasses.replace(spec, length_range=(12, 30), seed=7))
    both = packed(videos_of(src) + videos_of(tgt), [0] * 28)
    joined = np.concatenate([build_background_bank(src), build_background_bank(tgt)])
    assert joined.tobytes() == build_background_bank(both).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(3))
def test_build_bank_matches_per_video_median(seed, dtype):
    """Mixed odd and even lengths, in no order, with ties (values on a grid
    of 5) and one NaN pixel: the bank is bit for bit one np.median per
    video."""
    rng = np.random.default_rng(seed)
    split = packed([(rng.integers(0, 5, size=(int(rng.integers(1, 12)), 6)) / 4).astype(dtype)
                    for _ in range(40)], [0] * 40)
    split.frames[split.starts[seed], 1] = np.nan
    bank = build_background_bank(split)
    want = np.stack([extract_background_tmf(v) for v in videos_of(split)])
    assert bank.dtype == want.dtype
    assert bank.tobytes() == want.tobytes()
    assert np.isnan(bank[seed, 1])


def test_mix_lambda_zero_is_identity():
    frames = np.random.default_rng(0).uniform(size=(4, 6)).astype(np.float32)
    assert np.array_equal(mix_background(frames, np.zeros(6, np.float32), 0.0), frames)


def test_mix_lambda_one_is_background():
    frames = np.random.default_rng(1).uniform(size=(4, 6)).astype(np.float32)
    bg = np.full(6, 0.4, dtype=np.float32)
    out = mix_background(frames, bg, 1.0)
    for t in range(4):
        assert np.allclose(out[t], bg)


def test_mix_hand_value():
    out = mix_background(np.array([[0.2]], np.float32), np.array([1.0]), 0.75)
    assert out[0, 0] == pytest.approx(0.8, abs=1e-6)


def test_mix_preserves_metadata():
    """The mixed rows keep the shape and the dtype of the frames."""
    for dtype in (np.float32, np.float64):
        out = mix_background(np.zeros((3, 2), dtype), np.ones(2), 0.5)
        assert out.shape == (3, 2) and out.dtype == dtype


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=50)
def test_mix_output_stays_in_unit_interval(pix, bgv, lam):
    out = mix_background(np.full((2, 3), pix, np.float32), np.full(3, bgv, np.float32), lam)
    assert out.min() >= -1e-6 and out.max() <= 1.0 + 1e-6


def test_mix_gathered_rows_equals_mix_then_gather():
    """Mixing only the gathered rows of a video gives the bytes of mixing
    the whole video and then gathering."""
    spec = DomainSpec(n_videos=3, length_range=(20, 40), seed=2)
    _, (split,) = generate_domain(spec)
    bank = build_background_bank(split)
    rng = np.random.default_rng(3)
    for v in videos_of(split):
        rows = rng.integers(0, len(v), size=9)
        for lam in (0.75, float(rng.uniform())):
            whole = mix_background(v, bank[2], lam)
            assert whole[rows].tobytes() == mix_background(v[rows], bank[2], lam).tobytes()


def test_policy_validation():
    """A bad value names the train config key it came from."""
    for kwargs in ({"aug_probability": 1.2}, {"aug_lambda": -0.1},
                   {"aug_domains": ("bogus",)}):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            TrainConfig(**kwargs)


def test_policy_probability_zero_never_mixes():
    mixes = draw_mixes(["source"] * 5, 2, TrainConfig(aug_probability=0.0),
                       np.random.default_rng(0))
    assert mixes == []


def test_policy_skips_other_domains():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    policy = TrainConfig(aug_probability=1.0, aug_domains=("source",))
    assert draw_mixes(["target"] * 4, 1, policy, rng) == []
    assert rng.bit_generator.state == state  # no draw for an ineligible video


def test_policy_probability_one_mixes_all_source():
    policy = TrainConfig(aug_probability=1.0)
    mixes = draw_mixes(["source", "target", "source"], 1, policy, np.random.default_rng(0))
    assert mixes == [(0, 0), (2, 0)]


def test_policy_draws_in_slot_order():
    """Video by video: the hit draw, then the background, and no other draw."""
    policy = TrainConfig(aug_probability=0.5)
    rng, oracle = np.random.default_rng(5), np.random.default_rng(5)
    mixes = draw_mixes(["source", "target"] * 20, 3, policy, rng)
    expected = []
    for slot, domain in enumerate(["source", "target"] * 20):
        if domain == "source" and oracle.uniform() < 0.5:
            expected.append((slot, int(oracle.integers(0, 3))))
    assert mixes == expected and mixes
    assert rng.bit_generator.state == oracle.bit_generator.state


def test_policy_hit_rate_near_probability():
    policy = TrainConfig(aug_probability=0.25)
    mixes = draw_mixes(["source"] * 2000, 1, policy, np.random.default_rng(3))
    assert 0.18 < len(mixes) / 2000 < 0.32
