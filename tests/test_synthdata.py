import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glad import synthdata
from glad.synthdata import (CorruptHeaderError, DomainSpec,
                            ManifestMismatchError, MotionParams,
                            TruncatedDataError, background_bank, checkerboard,
                            class_motion, generate_domain, pack, read_dataset,
                            render_video, strip_labels, write_dataset)
from oracles import render_video_loop

SMALL = DomainSpec(n_videos=24, length_range=(8, 16), seed=3)


def test_spec_validation():
    DomainSpec(height=3, width=3, n_videos=1, n_classes=1, bank_size=1, noise_std=0.0,
               length_range=(8, 8), blob_speed_range=(1.0, 1.0))
    with pytest.raises(ValueError):
        DomainSpec(length_range=(4, 10))
    with pytest.raises(ValueError):
        DomainSpec(length_range=(20, 10))
    with pytest.raises(ValueError):
        DomainSpec(bias_rho=1.5)
    with pytest.raises(ValueError):
        DomainSpec(background_mode="plasma")


def test_background_bank_shape_and_range():
    bank = background_bank(SMALL)
    assert bank.shape == (SMALL.bank_size, SMALL.frame_dim)
    assert bank.min() >= 0.0 and bank.max() <= 1.0
    # patterns must be distinct so a class-background shortcut exists
    for i in range(SMALL.bank_size):
        for j in range(i + 1, SMALL.bank_size):
            assert not np.allclose(bank[i], bank[j])


def test_background_bank_deterministic():
    assert np.array_equal(background_bank(SMALL), background_bank(SMALL))


def test_checkerboard_alternates():
    board = checkerboard(SMALL).reshape(8, 8)
    assert board[0, 0] == np.float32(0.2)
    assert board[0, 1] == np.float32(0.7)
    assert np.array_equal(board[0], board[2])


def test_class_motion_distinct_and_deterministic():
    rng = np.random.default_rng(0)
    params = [class_motion(c, SMALL, np.random.default_rng(c)) for c in range(12)]
    keys = {(round(p.center_row, 3), round(p.center_col, 3), p.radius, round(p.speed, 6))
            for p in params}
    assert len(keys) == 12
    again = class_motion(5, SMALL, np.random.default_rng(5))
    assert params[5] == again


def test_render_video_shapes_and_range():
    rng = np.random.default_rng(1)
    motion = class_motion(0, SMALL, rng)
    vid = render_video(0, 10, checkerboard(SMALL), motion, rng, SMALL)
    assert vid.frames.shape == (10, 64)
    assert vid.frames.dtype == np.float32
    assert vid.frames.min() >= 0.0 and vid.frames.max() <= 1.0
    assert vid.length == 10


def test_render_video_blob_brightens_frames():
    spec = dataclasses.replace(SMALL, noise_std=0.0)
    rng = np.random.default_rng(2)
    motion = class_motion(3, spec, rng)
    bg = checkerboard(spec)
    vid = render_video(3, 12, bg, motion, rng, spec)
    for t in range(12):
        diff = vid.frames[t] - bg
        assert (diff > 0.1).sum() >= motion.blob_size ** 2


def test_render_video_rejects_bad_inputs():
    rng = np.random.default_rng(3)
    motion = class_motion(0, SMALL, rng)
    with pytest.raises(ValueError):
        render_video(0, 0, checkerboard(SMALL), motion, rng, SMALL)
    with pytest.raises(ValueError):
        render_video(0, 4, checkerboard(SMALL) + 5.0, motion, rng, SMALL)
    with pytest.raises(ValueError, match="blob larger than canvas"):
        render_video(0, 4, checkerboard(SMALL), dataclasses.replace(motion, blob_size=8),
                     rng, SMALL)


def same_render(spec, length, background, motion, seed):
    """render_video and the frame loop from one seed: the same bytes, and
    the same draws left in the rng."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    a = render_video(5, length, background, motion, rng_a, spec, video_id="x")
    b = render_video_loop(5, length, background, motion, rng_b, spec, video_id="x")
    assert a.frames.dtype == b.frames.dtype and a.frames.shape == b.frames.shape
    assert a.frames.tobytes() == b.frames.tobytes()
    assert (a.label, a.domain, a.video_id) == (b.label, b.domain, b.video_id)
    assert rng_a.random() == rng_b.random()
    return a


@settings(max_examples=40, deadline=None)
@given(h=st.integers(3, 9), w=st.integers(3, 9), length=st.integers(1, 30),
       row=st.floats(-4.0, 12.0), col=st.floats(-4.0, 12.0),
       radius=st.floats(0.5, 3.0), speed=st.floats(0.0, 3.0),
       phase=st.floats(0.0, 6.3), noise=st.sampled_from([0.0, 0.05, 0.3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_render_video_matches_frame_loop(h, w, length, row, col, radius, speed, phase,
                                         noise, seed):
    """Any canvas, odd or even length, orbit centre (also off the canvas, so
    the blob wraps) and noise level."""
    spec = DomainSpec(height=h, width=w, noise_std=noise)
    background = np.random.default_rng(seed).uniform(0.0, 1.0, h * w).astype(np.float32)
    motion = MotionParams(center_row=row, center_col=col, radius=radius,
                          speed=speed, phase=phase)
    same_render(spec, length, background, motion, seed)


def test_render_video_blob_wraps_across_both_edges():
    spec = DomainSpec(height=5, width=7, noise_std=0.0)
    board = checkerboard(spec)
    # a still blob whose top-left cell is the bottom-right corner
    motion = MotionParams(center_row=4.5, center_col=6.4, radius=0.1, speed=0.0, phase=0.0)
    vid = same_render(spec, 3, board, motion, 0)
    lit = np.flatnonzero(vid.frames[0] != board)
    assert sorted(lit.tolist()) == [0, 6, 28, 34]  # (0,0) (0,6) (4,0) (4,6)
    assert np.array_equal(vid.frames[0], vid.frames[2])


@pytest.mark.parametrize("spec", [
    DomainSpec(n_videos=12, length_range=(8, 13), seed=4),
    DomainSpec(n_videos=12, length_range=(9, 9), height=6, width=10, seed=5),
    DomainSpec(n_videos=12, length_range=(8, 12), noise_std=0.0, seed=6),
    DomainSpec(n_videos=16, length_range=(8, 11), bias_rho=0.5, seed=7),
    DomainSpec(n_videos=8, length_range=(10, 10), background_mode="fixed_checkerboard",
               domain="target", seed=8),
], ids=["odd_and_even_lengths", "non_square", "no_noise", "bias_rho_half", "checkerboard"])
def test_generate_domain_matches_frame_loop(monkeypatch, spec):
    manifest, samples = generate_domain(spec)
    monkeypatch.setattr(synthdata, "render_video", render_video_loop)
    manifest_b, samples_b = generate_domain(spec)
    assert manifest.entries == manifest_b.entries
    assert [s.frames.tobytes() for s in samples] == [s.frames.tobytes() for s in samples_b]


def test_generate_domain_balanced_labels_and_lengths():
    manifest, samples = generate_domain(SMALL)
    assert len(samples) == 24
    labels = [s.label for s in samples]
    assert all(labels.count(c) == 2 for c in range(12))
    for s in samples:
        assert 8 <= s.length <= 16
    assert manifest.lengths() == [s.length for s in samples]


def test_generate_domain_deterministic():
    _, a = generate_domain(SMALL)
    _, b = generate_domain(SMALL)
    for x, y in zip(a, b):
        assert np.array_equal(x.frames, y.frames)


def test_generate_domain_seed_changes_data():
    _, a = generate_domain(SMALL)
    _, b = generate_domain(dataclasses.replace(SMALL, seed=4))
    assert any(not np.array_equal(x.frames, y.frames) for x, y in zip(a, b))


def test_target_mode_uses_one_background():
    spec = dataclasses.replace(SMALL, background_mode="fixed_checkerboard",
                               noise_std=0.0, domain="target")
    _, samples = generate_domain(spec)
    board = checkerboard(spec)
    for s in samples:
        med = np.median(s.frames, axis=0)
        assert np.array_equal(med.astype(np.float32), board)


def test_source_bias_links_background_to_label():
    spec = dataclasses.replace(SMALL, noise_std=0.0, bias_rho=1.0)
    bank = background_bank(spec)
    _, samples = generate_domain(spec)
    for s in samples:
        med = np.median(s.frames, axis=0)
        # the recovered background must be nearest to the class-assigned entry
        dists = np.linalg.norm(bank - med[None, :], axis=1)
        assert int(np.argmin(dists)) == s.label % spec.bank_size


def test_strip_labels():
    _, samples = generate_domain(SMALL)
    bare = strip_labels(samples)
    assert all(s.label is None for s in bare)
    assert all(np.shares_memory(a.frames, b.frames) or np.array_equal(a.frames, b.frames)
               for a, b in zip(samples, bare))


def test_roundtrip_lossless(tmp_path):
    manifest, samples = generate_domain(SMALL)
    write_dataset(manifest, samples, str(tmp_path))
    manifest2, samples2 = read_dataset(str(tmp_path))
    assert manifest2.spec == manifest.spec
    assert manifest2.entries == manifest.entries
    for a, b in zip(samples, samples2):
        assert np.array_equal(a.frames, b.frames)
        assert a.label == b.label and a.video_id == b.video_id


def test_pack_uses_the_buffer_read_dataset_read(tmp_path):
    """read_dataset's videos pack into the one array it read, with no copy;
    stripping the labels keeps that; other lists are copied in order."""
    manifest, samples = generate_domain(SMALL)
    write_dataset(manifest, samples, str(tmp_path))
    _, read = read_dataset(str(tmp_path))
    for videos in (read, strip_labels(read)):
        packed = pack(videos)
        assert packed.frames.base is read[0].frames.base
        assert packed.frames.shape == (sum(manifest.lengths()), SMALL.frame_dim)
    packed = pack(read)
    assert packed.lengths.tolist() == manifest.lengths()
    assert packed.labels.tolist() == [e["label"] for e in manifest.entries]
    assert pack(strip_labels(read)).labels.tolist() == [-1] * len(read)
    for subset in (samples, read[::-1], read[1:]):
        copied = pack(subset)
        assert not np.shares_memory(copied.frames, read[0].frames)
        for v, start, length in zip(subset, copied.starts, copied.lengths):
            assert np.array_equal(copied.frames[start:start + length], v.frames)


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_roundtrip_lossless_random_specs(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    spec = DomainSpec(
        n_classes=int(rng.integers(2, 6)),
        n_videos=int(rng.integers(2, 10)),
        length_range=(8, int(rng.integers(8, 20))),
        background_mode=("class_correlated", "fixed_checkerboard")[int(rng.integers(0, 2))],
        noise_std=float(rng.uniform(0, 0.05)),
        seed=seed,
        domain=("source", "target")[int(rng.integers(0, 2))],
    )
    manifest, samples = generate_domain(spec)
    out = str(tmp_path_factory.mktemp("ds"))
    write_dataset(manifest, samples, out)
    manifest2, samples2 = read_dataset(out)
    assert manifest2.spec == spec
    for a, b in zip(samples, samples2):
        assert np.array_equal(a.frames, b.frames)


def test_read_rejects_bad_magic(tmp_path):
    manifest, samples = generate_domain(SMALL)
    write_dataset(manifest, samples, str(tmp_path))
    path = tmp_path / "manifest.json"
    doc = json.loads(path.read_text())
    doc["format"] = "something-else"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptHeaderError):
        read_dataset(str(tmp_path))


def test_read_rejects_unparseable_manifest(tmp_path):
    manifest, samples = generate_domain(SMALL)
    write_dataset(manifest, samples, str(tmp_path))
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(CorruptHeaderError):
        read_dataset(str(tmp_path))


def test_read_rejects_truncated_frames(tmp_path):
    manifest, samples = generate_domain(SMALL)
    write_dataset(manifest, samples, str(tmp_path))
    blob = (tmp_path / "frames.bin").read_bytes()
    (tmp_path / "frames.bin").write_bytes(blob[:-8])
    with pytest.raises(TruncatedDataError):
        read_dataset(str(tmp_path))


def test_read_rejects_entry_count_mismatch(tmp_path):
    manifest, samples = generate_domain(SMALL)
    write_dataset(manifest, samples, str(tmp_path))
    path = tmp_path / "manifest.json"
    doc = json.loads(path.read_text())
    doc["entries"] = doc["entries"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestMismatchError):
        read_dataset(str(tmp_path))


def test_write_rejects_mismatched_sample_count(tmp_path):
    manifest, samples = generate_domain(SMALL)
    with pytest.raises(ManifestMismatchError):
        write_dataset(manifest, samples[:-1], str(tmp_path))
