import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glad.debias import build_background_bank, draw_mixes, mix_background
from glad.synthdata import (DomainSpec, VideoSample, checkerboard,
                            class_motion, generate_domain, render_video)
from glad.trainer import TrainConfig
from oracles import extract_background_tmf


def make_video(frames, label=0, domain="source", vid="v0"):
    return VideoSample(frames=np.asarray(frames, dtype=np.float32),
                       label=label, domain=domain, video_id=vid)


def test_tmf_constant_video():
    vid = make_video(np.full((5, 4), 0.3))
    assert np.array_equal(extract_background_tmf(vid), np.full(4, np.float32(0.3)))


def test_tmf_majority_pixel_value():
    # pixel occupied by the blob in 2 of 5 frames: median is the background
    frames = np.array([[0.2], [0.2], [0.9], [0.9], [0.2]])
    vid = make_video(frames)
    assert extract_background_tmf(vid)[0] == np.float32(0.2)


def test_tmf_rejects_empty():
    with pytest.raises(ValueError):
        extract_background_tmf(make_video(np.empty((0, 4))))


def test_tmf_recovers_planted_background_bitwise():
    """Noise-free odd-length renders with bounded blob occupancy reproduce
    the planted background exactly."""
    spec = DomainSpec(n_videos=12, length_range=(9, 9), noise_std=0.0, seed=11)
    board = checkerboard(spec)
    for c in range(12):
        rng = np.random.default_rng(c)
        vid = render_video(c, 9, board, class_motion(c, spec, rng), rng, spec)
        occupancy = (vid.frames != board[None, :]).mean(axis=0)
        assert occupancy.max() < 0.5
        assert np.array_equal(extract_background_tmf(vid), board)


def test_build_bank_from_generated_domain():
    spec = DomainSpec(n_videos=10, length_range=(9, 15), noise_std=0.0, seed=5)
    _, samples = generate_domain(spec)
    bank = build_background_bank(samples)
    assert bank.shape == (10, spec.frame_dim)
    for bg, s in zip(bank, samples):
        assert np.array_equal(bg, extract_background_tmf(s))


def test_build_bank_rejects_empty():
    with pytest.raises(ValueError):
        build_background_bank([])


def test_build_bank_rejects_an_empty_video():
    videos = [make_video(np.full((3, 4), 0.5)), make_video(np.empty((0, 4)))]
    with pytest.raises(ValueError, match="empty video"):
        build_background_bank(videos)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("seed", range(3))
def test_build_bank_matches_per_video_median(seed, dtype):
    """Mixed odd and even lengths, in no order, with ties (values on a grid
    of 5) and one NaN pixel: the bank is bit for bit one np.median per
    video."""
    rng = np.random.default_rng(seed)
    videos = [make_video(rng.integers(0, 5, size=(int(rng.integers(1, 12)), 6)) / 4)
              for _ in range(40)]
    videos = [VideoSample(v.frames.astype(dtype), 0, "source", "v") for v in videos]
    videos[seed].frames[0, 1] = np.nan
    bank = build_background_bank(videos)
    want = np.stack([extract_background_tmf(v) for v in videos])
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


def test_mix_rejects_bad_lambda_and_shape():
    frames = np.zeros((3, 2), np.float32)
    with pytest.raises(ValueError):
        mix_background(frames, np.ones(2), 1.5)
    with pytest.raises(ValueError):
        mix_background(frames, np.ones(3), 0.5)


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=50)
def test_mix_output_stays_in_unit_interval(pix, bgv, lam):
    out = mix_background(np.full((2, 3), pix, np.float32), np.full(3, bgv, np.float32), lam)
    assert out.min() >= -1e-6 and out.max() <= 1.0 + 1e-6


def test_mix_gathered_rows_equals_mix_then_gather():
    """Mixing only the gathered rows of a video gives the bytes of mixing
    the whole video and then gathering."""
    spec = DomainSpec(n_videos=3, length_range=(20, 40), seed=2)
    _, samples = generate_domain(spec)
    bank = build_background_bank(samples)
    rng = np.random.default_rng(3)
    for v in samples:
        rows = rng.integers(0, v.length, size=9)
        for lam in (0.75, float(rng.uniform())):
            whole = mix_background(v.frames, bank[2], lam)
            assert whole[rows].tobytes() == mix_background(v.frames[rows], bank[2], lam).tobytes()


def test_policy_validation():
    """A bad value names the train config key it came from."""
    for kwargs in ({"aug_probability": 1.2}, {"aug_lambda_mode": "beta"},
                   {"aug_lambda": -0.1}, {"aug_domains": ("bogus",)}):
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
    policy = TrainConfig(aug_probability=1.0, aug_lambda=0.75)
    mixes = draw_mixes(["source", "target", "source"], 1, policy, np.random.default_rng(0))
    assert mixes == [(0, 0, 0.75), (2, 0, 0.75)]


def test_policy_draws_in_slot_order():
    """Video by video: the hit draw, then the background, then (uniform
    mode) lambda."""
    policy = TrainConfig(aug_probability=0.5, aug_lambda_mode="uniform")
    rng, oracle = np.random.default_rng(5), np.random.default_rng(5)
    mixes = draw_mixes(["source", "target"] * 20, 3, policy, rng)
    expected = []
    for slot, domain in enumerate(["source", "target"] * 20):
        if domain == "source" and oracle.uniform() < 0.5:
            expected.append((slot, int(oracle.integers(0, 3)), float(oracle.uniform())))
    assert mixes == expected and mixes
    assert rng.bit_generator.state == oracle.bit_generator.state


def test_policy_hit_rate_near_probability():
    policy = TrainConfig(aug_probability=0.25)
    mixes = draw_mixes(["source"] * 2000, 1, policy, np.random.default_rng(3))
    assert 0.18 < len(mixes) / 2000 < 0.32


def test_policy_rejects_empty_bank():
    with pytest.raises(ValueError):
        draw_mixes(["source"], 0, TrainConfig(), np.random.default_rng(0))
