import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glad import synthdata
from glad.synthdata import (BLOB_SIZE, SYNTH_BLOCK, DatasetError, DomainSpec, MotionParams,
                            background_bank, checkerboard, class_motion, generate_domain,
                            read_dataset, render_block, spec_from_dict, write_dataset)
from oracles import generate_domain_loop, render_video_loop, same_split, videos_of

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
    with pytest.raises(ValueError, match="blob size"):
        DomainSpec(height=BLOB_SIZE)


@pytest.mark.parametrize("doc,message", [
    ({"n_classes": True}, "n_classes: expected int, got True"),
    ({"domain": 3}, "domain: expected str, got 3"),
    ({"length_range": [8, 9.5]}, "length_range: expected list[int, int], got [8, 9.5]"),
    ({"n_videos": 2.0}, "n_videos: expected int, got 2.0"),
    ({"no_such_field": 1}, "no_such_field: unknown field"),
    (5, "expected an object, got 5"),
], ids=["bool_count", "int_domain", "float_length", "float_count", "unknown", "not_an_object"])
def test_spec_from_dict_checks_json_types(doc, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        spec_from_dict(doc)


def test_spec_from_dict_makes_tuples():
    spec = spec_from_dict({"length_range": [8, 9], "blob_speed_range": [1, 2.5], "bias_rho": 1})
    assert spec == DomainSpec(length_range=(8, 9), blob_speed_range=(1.0, 2.5), bias_rho=1.0)


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


def test_class_motion_draws_three_uniforms():
    """class_motion's one draw of three doubles gives the values, and leaves
    the rng, as uniform(0, 0.5) twice and uniform(0, 2 pi) once would."""
    for c in range(12):
        rng, ref = np.random.default_rng(c), np.random.default_rng(c)
        motion = class_motion(c, SMALL, rng)
        row = (c * synthdata.GOLDEN * 8) % 8 + ref.uniform(0.0, 0.5)
        col = (c * (1.0 - synthdata.GOLDEN) * 8 * 3.0) % 8 + ref.uniform(0.0, 0.5)
        assert (motion.center_row, motion.center_col) == (row, col)
        assert motion.phase == ref.uniform(0.0, 2.0 * np.pi)
        assert rng.random() == ref.random()


def render_one(spec, class_id, length, background, rng, motion=None):
    """One video rendered alone as a block."""
    motion = motion or class_motion(class_id, spec, rng)
    return render_block(spec, [length], [background], [motion], [rng], [])


def test_render_video_shapes_and_range():
    frames = render_one(SMALL, 0, 10, checkerboard(SMALL), np.random.default_rng(1))
    assert frames.shape == (10, 64)
    assert frames.dtype == np.float32
    assert frames.min() >= 0.0 and frames.max() <= 1.0


def test_render_video_blob_brightens_frames():
    spec = dataclasses.replace(SMALL, noise_std=0.0)
    bg = checkerboard(spec)
    frames = render_one(spec, 3, 12, bg, np.random.default_rng(2))
    for t in range(12):
        assert ((frames[t] - bg) > 0.1).sum() >= BLOB_SIZE ** 2


def same_render(spec, lengths, backgrounds, motions, seed):
    """render_block on one block and the frame loop on each video alone,
    every video with its own rng from the seed: the same bytes, and the
    same draws left in each rng."""
    rngs = [np.random.default_rng((seed, k)) for k in range(len(lengths))]
    block = render_block(spec, lengths, backgrounds, motions, rngs, [])
    assert block.dtype == np.float32 and block.shape == (sum(lengths), spec.frame_dim)
    start = 0
    for k, (length, bg, motion) in enumerate(zip(lengths, backgrounds, motions)):
        rng = np.random.default_rng((seed, k))
        want = render_video_loop(length, bg, motion, rng, spec)
        assert block[start:start + length].tobytes() == want.tobytes()
        assert rngs[k].random() == rng.random()
        start += length
    return block


motion_params = st.builds(MotionParams, center_row=st.floats(-4.0, 12.0),
                          center_col=st.floats(-4.0, 12.0), radius=st.floats(0.5, 3.0),
                          speed=st.floats(0.0, 3.0), phase=st.floats(0.0, 6.3))


@settings(max_examples=40, deadline=None)
@given(h=st.integers(3, 9), w=st.integers(3, 9),
       videos=st.lists(st.tuples(st.integers(1, 30), motion_params), min_size=1, max_size=4),
       noise=st.sampled_from([0.0, 0.05, 0.3]), seed=st.integers(0, 2 ** 32 - 1))
def test_render_video_matches_frame_loop(h, w, videos, noise, seed):
    """Blocks of 1-4 videos on any canvas, with odd or even lengths, any
    orbit centre (also off the canvas, so the blob wraps) and noise level."""
    spec = DomainSpec(height=h, width=w, noise_std=noise)
    backgrounds = np.random.default_rng(seed).uniform(0.0, 1.0, (len(videos), h * w))
    lengths, motions = zip(*videos)
    same_render(spec, list(lengths), list(backgrounds.astype(np.float32)), list(motions), seed)


def test_render_video_blob_wraps_across_both_edges():
    spec = DomainSpec(height=5, width=7, noise_std=0.0)
    board = checkerboard(spec)
    # a still blob whose top-left cell is the bottom-right corner
    motion = MotionParams(center_row=4.5, center_col=6.4, radius=0.1, speed=0.0, phase=0.0)
    frames = same_render(spec, [3], [board], [motion], 0)
    lit = np.flatnonzero(frames[0] != board)
    assert sorted(lit.tolist()) == [0, 6, 28, 34]  # (0,0) (0,6) (4,0) (4,6)
    assert np.array_equal(frames[0], frames[2])


@pytest.mark.parametrize("spec", [
    DomainSpec(n_videos=12, length_range=(8, 13), seed=4),
    DomainSpec(n_videos=12, length_range=(9, 9), height=6, width=10, seed=5),
    DomainSpec(n_videos=12, length_range=(8, 12), noise_std=0.0, seed=6),
    DomainSpec(n_videos=16, length_range=(8, 11), bias_rho=0.5, seed=7),
    DomainSpec(n_videos=8, length_range=(10, 10), background_mode="fixed_checkerboard",
               domain="target", seed=8),
    DomainSpec(n_videos=SYNTH_BLOCK - 1, length_range=(8, 20), seed=9),
    DomainSpec(n_videos=SYNTH_BLOCK, length_range=(8, 20), bias_rho=0.5, seed=10),
    DomainSpec(n_videos=2 * SYNTH_BLOCK + 5, length_range=(8, 30), bias_rho=0.5,
               noise_std=0.05, seed=11),
], ids=["odd_and_even_lengths", "non_square", "no_noise", "bias_rho_half", "checkerboard",
        "below_one_block", "one_block", "not_a_block_multiple"])
def test_generate_domain_matches_frame_loop(spec):
    """Every video of the split, as the frame loop renders it alone."""
    manifest, (split,) = generate_domain(spec)
    entries, want = generate_domain_loop(spec)
    assert manifest.entries == entries
    assert same_split(split, want)


def written_files(spec, directory):
    write_dataset(spec, str(directory))
    return [(directory / name).read_bytes() for name in ("manifest.json", "frames.bin")]


@pytest.mark.parametrize("block", [1, 3, SYNTH_BLOCK])
def test_bytes_do_not_depend_on_the_block_size(monkeypatch, tmp_path, block):
    """generate_domain and the files write_dataset writes, with any block
    size, are the default block size's; the files are generate_domain's
    videos end to end and the manifest json.dumps(indent=1) would write."""
    spec = DomainSpec(n_videos=SYNTH_BLOCK + 4, length_range=(8, 30), bias_rho=0.5, seed=12)
    want_manifest, (want,) = generate_domain(spec)
    monkeypatch.setattr(synthdata, "SYNTH_BLOCK", block)
    manifest, (split,) = generate_domain(spec)
    assert manifest.entries == want_manifest.entries
    assert same_split(split, want)
    doc = {"format": synthdata.MAGIC, "spec": dataclasses.asdict(spec),
           "entries": want_manifest.entries}
    assert written_files(spec, tmp_path) == [
        json.dumps(doc, indent=1).encode(), want.frames.tobytes()]


def traced_peak_of_write(tmp_path, n_videos: int) -> int:
    """Peak bytes tracemalloc sees (numpy's buffers included) while
    write_dataset renders and writes n_videos 40-frame videos."""
    spec = DomainSpec(n_videos=n_videos, length_range=(40, 40), seed=13)
    tracemalloc.start()
    try:
        write_dataset(spec, str(tmp_path / str(n_videos)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_dataset_memory_is_one_block(tmp_path):
    """Writing four blocks peaks below 1.5 times writing one: the work
    buffers are sized by a block and reused, and every block is written
    before the next is rendered."""
    one = traced_peak_of_write(tmp_path, SYNTH_BLOCK)
    assert traced_peak_of_write(tmp_path, 4 * SYNTH_BLOCK) < 1.5 * one


def test_generate_domain_balanced_labels_and_lengths():
    manifest, (split,) = generate_domain(SMALL)
    assert len(split.lengths) == 24
    labels = split.labels.tolist()
    assert all(labels.count(c) == 2 for c in range(12))
    assert all(8 <= t <= 16 for t in split.lengths)
    assert manifest.lengths() == split.lengths.tolist()
    assert split.starts.tolist() == (np.cumsum(split.lengths) - split.lengths).tolist()
    assert split.frames.shape == (sum(manifest.lengths()), SMALL.frame_dim)


def test_generate_domain_deterministic():
    _, (a,) = generate_domain(SMALL)
    _, (b,) = generate_domain(SMALL)
    assert same_split(a, b)


def test_generate_domain_seed_changes_data():
    _, (a,) = generate_domain(SMALL)
    _, (b,) = generate_domain(dataclasses.replace(SMALL, seed=4))
    assert not np.array_equal(a.frames, b.frames)


def test_target_mode_uses_one_background():
    spec = dataclasses.replace(SMALL, background_mode="fixed_checkerboard",
                               noise_std=0.0, domain="target")
    _, (split,) = generate_domain(spec)
    board = checkerboard(spec)
    for frames in videos_of(split):
        med = np.median(frames, axis=0)
        assert np.array_equal(med.astype(np.float32), board)


def test_source_bias_links_background_to_label():
    spec = dataclasses.replace(SMALL, noise_std=0.0, bias_rho=1.0)
    bank = background_bank(spec)
    _, (split,) = generate_domain(spec)
    for frames, label in zip(videos_of(split), split.labels):
        med = np.median(frames, axis=0)
        # the recovered background must be nearest to the class-assigned entry
        dists = np.linalg.norm(bank - med[None, :], axis=1)
        assert int(np.argmin(dists)) == label % spec.bank_size


def test_roundtrip_lossless(tmp_path):
    """read_dataset's one block is generate_domain's split; its frames are
    the bytes of frames.bin, and its starts follow the manifest's offsets."""
    manifest, (split,) = generate_domain(SMALL)
    write_dataset(SMALL, str(tmp_path))
    manifest2, (read,) = read_dataset(str(tmp_path))
    assert manifest2.spec == manifest.spec
    assert manifest2.entries == manifest.entries
    assert same_split(read, split)
    assert read.frames.tobytes() == (tmp_path / "frames.bin").read_bytes()
    assert (read.starts * 4 * SMALL.frame_dim).tolist() == [e["offset"] for e in manifest.entries]


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
    _, (split,) = generate_domain(spec)
    out = str(tmp_path_factory.mktemp("ds"))
    write_dataset(spec, out)
    manifest2, (read,) = read_dataset(out)
    assert manifest2.spec == spec
    assert same_split(read, split)


def test_read_rejects_bad_magic(tmp_path):
    write_dataset(SMALL, str(tmp_path))
    path = tmp_path / "manifest.json"
    doc = json.loads(path.read_text())
    doc["format"] = "something-else"
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match="bad or missing format header"):
        read_dataset(str(tmp_path))


def test_read_rejects_unparseable_manifest(tmp_path):
    write_dataset(SMALL, str(tmp_path))
    # a manifest that is not UTF-8 is a data fault too, not a usage error
    for text in (b"{not json", b"\xff\xfe{"):
        (tmp_path / "manifest.json").write_bytes(text)
        with pytest.raises(DatasetError, match="manifest.json: invalid JSON"):
            read_dataset(str(tmp_path))


def test_read_rejects_truncated_frames(tmp_path):
    write_dataset(SMALL, str(tmp_path))
    blob = (tmp_path / "frames.bin").read_bytes()
    (tmp_path / "frames.bin").write_bytes(blob[:-8])
    with pytest.raises(DatasetError, match="truncated frame data"):
        read_dataset(str(tmp_path))


def test_read_rejects_entry_count_mismatch(tmp_path):
    write_dataset(SMALL, str(tmp_path))
    path = tmp_path / "manifest.json"
    doc = json.loads(path.read_text())
    doc["entries"] = doc["entries"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match="entries for n_videos"):
        read_dataset(str(tmp_path))


@pytest.mark.parametrize("entry", [5, None, ["label", 0]], ids=["int", "null", "list"])
def test_read_rejects_an_entry_that_is_not_an_object(tmp_path, entry):
    """The error names the manifest and the entry."""
    write_dataset(SMALL, str(tmp_path))
    path = tmp_path / "manifest.json"
    doc = json.loads(path.read_text())
    doc["entries"][3] = entry
    path.write_text(json.dumps(doc))
    with pytest.raises(DatasetError, match=re.escape(f"{path}: entry 3 is {entry!r}, "
                                                     "not an object")):
        read_dataset(str(tmp_path))
