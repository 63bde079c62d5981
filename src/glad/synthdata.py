"""Synthetic two-domain video benchmark with planted background bias and
video-length shift.

Each video is a sequence of flattened H x W grayscale frames: a static
background plus a small bright blob whose trajectory and speed are
determined by the class, plus optional gaussian noise. The source domain
uses class-correlated backgrounds from a bank; the target domain uses one
fixed checkerboard background for every video.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, asdict

import numpy as np

from .schema import from_json

GOLDEN = 0.6180339887498949

BLOB_SIZE = 2
BLOB_AMPLITUDE = 0.9

SYNTH_BLOCK = 64  # videos rendered at a time: the work buffers hold one block

MAGIC = "glad-dataset-v1"


class DatasetError(Exception):
    """A dataset on disk that cannot be read as written: a bad header or
    manifest, or frame data of the wrong size or range."""


@dataclass
class Packed:
    """One split's videos end to end in one (sum T, D) frame array, the
    frames.bin layout: video i is frames[starts[i]:starts[i] + lengths[i]].
    A label of -1 marks an unlabeled video."""
    frames: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class MotionParams:
    """Circular blob orbit: class-determined center, radius and linear speed;
    the phase is randomized per video."""
    center_row: float
    center_col: float
    radius: float
    speed: float  # linear speed along the orbit, pixels per frame
    phase: float


@dataclass(frozen=True)
class DomainSpec:
    n_classes: int = 12
    n_videos: int = 600
    length_range: tuple[int, int] = (48, 96)
    background_mode: str = "class_correlated"  # or "fixed_checkerboard"
    bias_rho: float = 1.0
    bank_size: int = 12
    blob_speed_range: tuple[float, float] = (0.8, 2.0)
    noise_std: float = 0.02
    height: int = 8
    width: int = 8
    seed: int = 0
    domain: str = "source"

    def __post_init__(self):
        for name in ("n_videos", "n_classes", "bank_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if min(self.height, self.width) <= BLOB_SIZE:
            raise ValueError(f"height and width must be > the blob size {BLOB_SIZE}")
        for name in ("length_range", "blob_speed_range"):
            lo_hi = getattr(self, name)
            if not (len(lo_hi) == 2 and all(isinstance(v, numbers.Real) and math.isfinite(v)
                                            for v in lo_hi) and lo_hi[0] <= lo_hi[1]):
                raise ValueError(f"{name} must be two finite numbers lo <= hi")
        if self.length_range[0] < 8:
            raise ValueError("minimum video length must be >= 8")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ValueError("noise_std must be finite and >= 0")
        if not 0.0 <= self.bias_rho <= 1.0:
            raise ValueError("bias_rho must be in [0, 1]")
        if self.background_mode not in ("class_correlated", "fixed_checkerboard"):
            raise ValueError(f"unknown background_mode {self.background_mode!r}")

    @property
    def frame_dim(self) -> int:
        return self.height * self.width


@dataclass
class DomainManifest:
    spec: DomainSpec
    entries: list  # dicts: {video_id, label, length, offset}

    def lengths(self) -> list[int]:
        return [e["length"] for e in self.entries]


def background_bank(spec: DomainSpec) -> np.ndarray:
    """Deterministic bank of smooth sinusoidal background patterns."""
    rng = np.random.default_rng((spec.seed, 0xB6))
    rr, cc = np.meshgrid(np.arange(spec.height), np.arange(spec.width), indexing="ij")
    bank = np.empty((spec.bank_size, spec.frame_dim), dtype=np.float32)
    for k in range(spec.bank_size):
        fr = rng.uniform(0.2, 1.2)
        fc = rng.uniform(0.2, 1.2)
        phase = rng.uniform(0.0, 2 * np.pi)
        base = rng.uniform(0.35, 0.55)
        pattern = base + 0.12 * np.sin(fr * rr + fc * cc + phase)
        bank[k] = np.clip(pattern, 0.1, 0.8).astype(np.float32).ravel()
    return bank


def checkerboard(spec: DomainSpec) -> np.ndarray:
    rr, cc = np.meshgrid(np.arange(spec.height), np.arange(spec.width), indexing="ij")
    return np.where((rr + cc) % 2 == 0, 0.2, 0.7).astype(np.float32).ravel()


def class_motion(class_id: int, spec: DomainSpec, rng: np.random.Generator) -> MotionParams:
    """Class-determined orbit: golden-ratio-scattered centers, alternating
    radii, and a linear speed interpolated across the configured range. Only
    the phase (and a small center jitter) varies per video."""
    k = spec.n_classes
    lo, hi = spec.blob_speed_range
    speed = lo + (hi - lo) * ((class_id // 2) / max(1, (k - 1) // 2))
    radius = 1.6 if class_id % 2 == 0 else 2.4
    # one call for the draws of uniform(0, 0.5) twice and uniform(0, 2 pi)
    u_row, u_col, u_phase = rng.random(3).tolist()
    center_row = (class_id * GOLDEN * spec.height) % spec.height + 0.5 * u_row
    center_col = (class_id * (1.0 - GOLDEN) * spec.width * 3.0) % spec.width + 0.5 * u_col
    return MotionParams(center_row=center_row, center_col=center_col,
                        radius=radius, speed=min(speed, hi), phase=2.0 * np.pi * u_phase)


def render_block(spec: DomainSpec, lengths, backgrounds, motions, rngs,
                 work: list) -> np.ndarray:
    """(sum lengths, D) float32 frames of videos end to end: clip01(background
    + blob + noise_std * standard normals), in float64 and cast once. In frame
    t the blob's top-left cell is floor(center + radius * (sin, cos)(phase +
    speed / radius * t)); its BLOB_SIZE^2 cells wrap onto the canvas. A video
    draws its normals in frame order from its own rng, as a per-video frame
    loop does. The buffers in `work` grow to a block and are reused."""
    lengths = np.asarray(lengths, dtype=np.int64)
    h, w = spec.height, spec.width
    d = h * w
    bg = np.asarray(backgrounds, dtype=np.float64).reshape(len(lengths), d)
    rows = int(lengths.sum())
    if not work or work[0].size < rows * d:
        work[:] = np.empty(rows * d), np.empty(rows * d, "<f4")
    frames, out = (b[:rows * d].reshape(rows, d) for b in work)
    video = np.repeat(np.arange(len(lengths)), lengths)
    ends = np.cumsum(lengths)
    t = np.arange(rows) - (ends - lengths)[video]
    phase, omega, row, col, radius = np.array(
        [(m.phase, m.speed / m.radius, m.center_row, m.center_col, m.radius)
         for m in motions]).T[:, video]
    theta = phase + omega * t
    r0 = np.floor(row + radius * np.sin(theta)).astype(np.int64)
    c0 = np.floor(col + radius * np.cos(theta)).astype(np.int64)
    k = np.arange(BLOB_SIZE)
    # (rows, BLOB_SIZE ** 2) cells of each frame's blob: distinct, as the
    # spec keeps the blob smaller than the canvas
    cells = (((r0[:, None, None] + k[:, None]) % h) * w
             + (c0[:, None, None] + k) % w).reshape(rows, -1)
    lit = bg[video[:, None], cells] + BLOB_AMPLITUDE
    cells += np.arange(0, rows * d, d)[:, None]  # flat indices into frames
    flat = frames.reshape(-1)
    # a pixel is (background + blob) + noise, in that order: lit cells take
    # their noise before the background goes under the rest
    for rng, b, start, end in zip(rngs, bg, (ends - lengths).tolist(), ends.tolist()):
        x = frames[start:end]
        if spec.noise_std > 0.0:
            rng.standard_normal(out=x)
            x *= spec.noise_std
            lit[start:end] += flat[cells[start:end]]
            x += b
        else:
            x[...] = b
    flat[cells] = lit
    return np.clip(frames, 0.0, 1.0, out=out)


def _blocks(spec: DomainSpec):
    """(entries, frames) of each SYNTH_BLOCK videos, the frames a view the
    next block overwrites. Labels are round-robin; video i draws all its
    values from its own rng, seeded (seed, 1, i): no byte depends on blocks."""
    bank = background_bank(spec)
    checker = checkerboard(spec)
    d = spec.frame_dim
    work = []
    offset = 0
    for first in range(0, spec.n_videos, SYNTH_BLOCK):
        entries, backgrounds, motions, rngs = [], [], [], []
        for i in range(first, min(first + SYNTH_BLOCK, spec.n_videos)):
            rng = np.random.default_rng((spec.seed, 1, i))
            label = i % spec.n_classes
            length = int(rng.integers(spec.length_range[0], spec.length_range[1] + 1))
            if spec.background_mode == "fixed_checkerboard":
                backgrounds.append(checker)
            elif rng.uniform() < spec.bias_rho:
                backgrounds.append(bank[label % spec.bank_size])
            else:
                backgrounds.append(bank[int(rng.integers(0, spec.bank_size))])
            motions.append(class_motion(label, spec, rng))
            rngs.append(rng)
            entries.append({"video_id": f"{spec.domain}-{i:05d}", "label": label,
                            "length": length, "offset": offset})
            offset += length * d * 4
        lengths = [e["length"] for e in entries]
        yield entries, render_block(spec, lengths, backgrounds, motions, rngs, work)


def _packed(entries: list, frames: np.ndarray) -> Packed:
    """The split whose videos the entries list, in order, end to end in the
    (sum T, D) frames."""
    lengths = np.array([e["length"] for e in entries], dtype=np.int64)
    labels = np.array([e["label"] for e in entries], dtype=np.int64)
    return Packed(frames, np.cumsum(lengths) - lengths, lengths, labels)


def generate_domain(spec: DomainSpec):
    """(manifest, [split]) of the spec: the blocks write_dataset writes,
    packed in one array. The one-item list is what read_dataset yields by
    default, and perfbench/checks.py joins the frames of its items."""
    entries, blocks = [], []
    for block_entries, frames in _blocks(spec):
        entries += block_entries
        blocks.append(frames.copy())
    split = _packed(entries, np.concatenate(blocks))
    return DomainManifest(spec=spec, entries=entries), [split]


def spec_from_dict(d: dict, where: str = "") -> DomainSpec:
    return from_json(DomainSpec, d, where)


def write_dataset(spec: DomainSpec, directory: str) -> None:
    """The spec's split, each block appended to frames.bin as soon as it is
    rendered, then manifest.json."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    with open(os.path.join(directory, "frames.bin"), "wb") as f:
        for block_entries, frames in _blocks(spec):
            frames.tofile(f)
            entries += block_entries
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        f.write(json.dumps({"format": MAGIC, "spec": asdict(spec), "entries": entries},
                           indent=1))


def read_dataset(directory: str, block: int | None = None):
    """(manifest, blocks), the inverse of write_dataset: blocks yields the
    split's consecutive videos as Packed splits of `block` videos, the last
    one taking the rest, each read from frames.bin only when it is asked
    for. By default one block holds the whole split: `manifest, (split,) =
    read_dataset(directory)`. Validates the header, the spec, that the
    entries tile frames.bin in order and the payload size before it returns;
    that a block's frame values are in [0, 1] (NaN is not) as it is read."""
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise DatasetError(f"unreadable manifest: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != MAGIC:
        raise DatasetError(f"bad or missing format header in {path}")
    if "spec" not in doc or "entries" not in doc:
        raise DatasetError(f"{path} lacks spec or entries")
    try:
        spec = spec_from_dict(doc["spec"])
    except (TypeError, ValueError) as e:
        raise DatasetError(f"invalid spec in {path}: {e}") from e
    entries = doc["entries"]
    if not isinstance(entries, list) or not entries:
        raise DatasetError(f"{path} lists no videos")
    d = spec.frame_dim
    end = 0
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise DatasetError(f"{path}: entry {i} is {e!r}, not an object")
        missing = [k for k in ("video_id", "label", "length", "offset") if k not in e]
        if missing:
            raise DatasetError(f"manifest mismatch: an entry lacks {missing}")
        label = e["label"]
        if type(label) is not int or not 0 <= label < spec.n_classes:
            raise DatasetError(f"manifest mismatch: label {label!r} of "
                                        f"{e['video_id']} is not in [0, {spec.n_classes})")
        if type(e["length"]) is not int or e["length"] < 1:
            raise DatasetError(f"manifest mismatch: length {e['length']!r} of "
                                        f"{e['video_id']} is not an int >= 1")
        # each video starts where the one before it ends
        if type(e["offset"]) is not int or e["offset"] != end:
            raise DatasetError(f"manifest mismatch: offset {e['offset']!r} of "
                                        f"{e['video_id']} is not {end}, the end of "
                                        f"the entry before it")
        end += e["length"] * d * 4
    if len(entries) != spec.n_videos:
        raise DatasetError(
            f"manifest mismatch: {len(entries)} entries for n_videos={spec.n_videos}")
    frames_path = os.path.join(directory, "frames.bin")
    size = os.path.getsize(frames_path)
    if size < end:
        raise DatasetError(f"truncated frame data: {size} < {end} bytes")
    if size > end:
        raise DatasetError(f"manifest mismatch: {size} > {end} bytes")
    return DomainManifest(spec=spec, entries=entries), _read_frames(
        frames_path, spec, entries, block or len(entries))


def _read_frames(frames_path: str, spec: DomainSpec, entries: list, block: int):
    """The Packed blocks of read_dataset from the open frames.bin. No local
    here holds a block once it is yielded, so a consumer that keeps no
    block reads each next one into the memory the last one freed."""
    with open(frames_path, "rb") as f:
        for first in range(0, len(entries), block):
            yield _read_block(f, frames_path, spec, entries[first:first + block], first)


def _read_block(f, frames_path: str, spec: DomainSpec, entries: list, first: int) -> Packed:
    """The videos of the entries, from `first` on, in one np.fromfile call
    from f's position; their values must be in [0, 1]."""
    count = sum(e["length"] for e in entries) * spec.frame_dim
    flat = np.fromfile(f, dtype="<f4", count=count)
    if flat.size < count:  # the file shrank after its size was checked
        raise DatasetError(f"{frames_path}: truncated frame data")
    lo, hi = flat.min(), flat.max()  # a NaN anywhere makes both NaN
    if not (lo >= 0.0 and hi <= 1.0):
        raise DatasetError(f"{frames_path}: frame values of videos {first} to "
                           f"{first + len(entries) - 1} span [{lo}, {hi}], not within [0, 1]")
    return _packed(entries, flat.reshape(-1, spec.frame_dim))
