import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glad.debias import (AugmentationPolicy, apply_augmentation_policy,
                         build_background_bank, extract_background_tmf,
                         mix_background)
from glad.synthdata import (DomainSpec, VideoSample, checkerboard,
                            class_motion, generate_domain, render_video)


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


def test_mix_lambda_zero_is_identity():
    vid = make_video(np.random.default_rng(0).uniform(size=(4, 6)))
    out = mix_background(vid, np.zeros(6), 0.0)
    assert np.array_equal(out.frames, vid.frames)


def test_mix_lambda_one_is_background():
    vid = make_video(np.random.default_rng(1).uniform(size=(4, 6)))
    bg = np.full(6, 0.4, dtype=np.float32)
    out = mix_background(vid, bg, 1.0)
    for t in range(4):
        assert np.allclose(out.frames[t], bg)


def test_mix_hand_value():
    vid = make_video([[0.2]])
    out = mix_background(vid, np.array([1.0]), 0.75)
    assert out.frames[0, 0] == pytest.approx(0.8, abs=1e-6)


def test_mix_preserves_metadata():
    vid = make_video(np.zeros((3, 2)), label=7, domain="target", vid="x9")
    out = mix_background(vid, np.ones(2), 0.5)
    assert (out.label, out.domain, out.video_id) == (7, "target", "x9")
    assert out.frames.shape == vid.frames.shape


def test_mix_rejects_bad_lambda_and_shape():
    vid = make_video(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        mix_background(vid, np.ones(2), 1.5)
    with pytest.raises(ValueError):
        mix_background(vid, np.ones(3), 0.5)


@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=50)
def test_mix_output_stays_in_unit_interval(pix, bgv, lam):
    vid = make_video(np.full((2, 3), pix))
    out = mix_background(vid, np.full(3, bgv), lam)
    assert out.frames.min() >= -1e-6 and out.frames.max() <= 1.0 + 1e-6


def test_policy_validation():
    with pytest.raises(ValueError):
        AugmentationPolicy(probability=1.2)
    with pytest.raises(ValueError):
        AugmentationPolicy(lambda_mode="beta")
    with pytest.raises(ValueError):
        AugmentationPolicy(lambda_value=-0.1)


def test_policy_probability_zero_never_mixes():
    vids = [make_video(np.random.default_rng(i).uniform(size=(3, 4)), vid=f"v{i}")
            for i in range(5)]
    bank = np.ones((2, 4))
    policy = AugmentationPolicy(probability=0.0)
    out = apply_augmentation_policy(vids, bank, policy, np.random.default_rng(0))
    for a, b in zip(vids, out):
        assert np.array_equal(a.frames, b.frames)


def test_policy_skips_other_domains():
    vids = [make_video(np.zeros((3, 4)), domain="target", vid=f"t{i}") for i in range(4)]
    bank = np.ones((1, 4))
    policy = AugmentationPolicy(probability=1.0, domains=("source",))
    out = apply_augmentation_policy(vids, bank, policy, np.random.default_rng(0))
    for a, b in zip(vids, out):
        assert np.array_equal(a.frames, b.frames)


def test_policy_probability_one_mixes_all_source():
    vids = [make_video(np.zeros((3, 4)), vid=f"s{i}") for i in range(4)]
    bank = np.ones((1, 4))
    policy = AugmentationPolicy(probability=1.0, lambda_value=0.75)
    out = apply_augmentation_policy(vids, bank, policy, np.random.default_rng(0))
    for b in out:
        assert np.allclose(b.frames, 0.75, atol=1e-6)


def test_policy_hit_rate_near_probability():
    vids = [make_video(np.zeros((2, 4)), vid=f"s{i}") for i in range(2000)]
    bank = np.ones((1, 4))
    policy = AugmentationPolicy(probability=0.25)
    out = apply_augmentation_policy(vids, bank, policy, np.random.default_rng(3))
    mixed = sum(1 for b in out if b.frames.max() > 0)
    assert 0.18 < mixed / 2000 < 0.32


def test_policy_rejects_empty_bank():
    vids = [make_video(np.zeros((2, 4)))]
    bank = np.zeros((0, 4))
    with pytest.raises(ValueError):
        apply_augmentation_policy(vids, bank, AugmentationPolicy(), np.random.default_rng(0))

