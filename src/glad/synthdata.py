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

GOLDEN = 0.6180339887498949

BLOB_SIZE = 2

MAGIC = "glad-dataset-v1"


class DatasetError(Exception):
    """Base class for dataset serialization problems."""


class CorruptHeaderError(DatasetError):
    pass


class TruncatedDataError(DatasetError):
    pass


class ManifestMismatchError(DatasetError):
    pass


@dataclass
class VideoSample:
    frames: np.ndarray  # (T, D) float32 in [0, 1]
    label: int | None
    domain: str  # "source" or "target"
    video_id: str

    @property
    def length(self) -> int:
        return self.frames.shape[0]


@dataclass
class Packed:
    """Videos end to end in one (sum T, D) frame array, the frames.bin
    layout: video i is frames[starts[i]:starts[i] + lengths[i]]. A label
    of -1 marks an unlabeled video."""
    frames: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray
    domains: list


def pack(samples: list[VideoSample]) -> Packed:
    """The samples packed in order. The videos of read_dataset are
    consecutive rows of the one buffer it read; that buffer is used as is,
    and any other list is copied into a new array."""
    if not samples:
        raise ValueError("no videos")
    lengths = np.array([s.length for s in samples], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    base, d = samples[0].frames.base, samples[0].frames.shape[1]
    shared = (isinstance(base, np.ndarray) and base.dtype == samples[0].frames.dtype
              and base.size == lengths.sum() * d
              and all(s.frames.base is base and s.frames.flags.c_contiguous
                      and s.frames.ctypes.data == base.ctypes.data + r * d * base.itemsize
                      for s, r in zip(samples, starts)))
    frames = base.reshape(-1, d) if shared else np.concatenate([s.frames for s in samples])
    labels = np.array([-1 if s.label is None else s.label for s in samples], dtype=np.int64)
    return Packed(frames, starts, lengths, labels, [s.domain for s in samples])


@dataclass(frozen=True)
class MotionParams:
    """Circular blob orbit: class-determined center, radius and linear speed;
    the phase is randomized per video."""
    center_row: float
    center_col: float
    radius: float
    speed: float  # linear speed along the orbit, pixels per frame
    phase: float
    blob_size: int = BLOB_SIZE
    amplitude: float = 0.9


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
    center_row = (class_id * GOLDEN * spec.height) % spec.height + rng.uniform(0.0, 0.5)
    center_col = (class_id * (1.0 - GOLDEN) * spec.width * 3.0) % spec.width + rng.uniform(0.0, 0.5)
    return MotionParams(center_row=center_row, center_col=center_col,
                        radius=radius, speed=min(speed, hi),
                        phase=rng.uniform(0.0, 2.0 * np.pi))


def render_video(class_id: int, length: int, background: np.ndarray,
                 motion: MotionParams, rng: np.random.Generator,
                 spec: DomainSpec, domain: str | None = None,
                 video_id: str = "v") -> VideoSample:
    """Frames = clip01(background + moving blob + gaussian noise), built
    for all frames at once in float64, then cast to float32. In frame t the
    blob's top-left cell is floor(center + radius * (sin, cos)(phase +
    speed / radius * t)), and the blob covers blob_size x blob_size cells,
    each wrapped onto the canvas. The only draw is one normal per pixel of
    every frame, in frame order, so the frames and the rng's state are
    those of a frame-by-frame loop."""
    if length < 1:
        raise ValueError("length must be >= 1")
    h, w = spec.height, spec.width
    if motion.blob_size >= min(h, w):
        raise ValueError("blob larger than canvas")
    bg = np.asarray(background, dtype=np.float64).reshape(h * w)
    if bg.min() < 0.0 or bg.max() > 1.0:
        raise ValueError("background values must be in [0, 1]")
    t = np.arange(length)
    theta = motion.phase + motion.speed / motion.radius * t
    r0 = np.floor(motion.center_row + motion.radius * np.sin(theta)).astype(np.int64)
    c0 = np.floor(motion.center_col + motion.radius * np.cos(theta)).astype(np.int64)
    d = np.arange(motion.blob_size)
    # (length, blob_size ** 2) flat cells: distinct within a frame, as the
    # blob is smaller than the canvas, so the fancy add hits each once
    cells = (((r0[:, None, None] + d[:, None]) % h) * w
             + (c0[:, None, None] + d) % w).reshape(length, -1)
    frames = np.repeat(bg[None, :], length, axis=0)
    frames[t[:, None], cells] += motion.amplitude
    if spec.noise_std > 0.0:
        frames += rng.normal(0.0, spec.noise_std, size=frames.shape)
    return VideoSample(frames=np.clip(frames, 0.0, 1.0, out=frames).astype(np.float32),
                       label=class_id, domain=domain or spec.domain, video_id=video_id)


def generate_domain(spec: DomainSpec):
    """Deterministic function of the spec (including its seed).

    Labels are assigned round-robin for class balance; per-video rng streams
    are derived from (seed, index) so parallel and serial generation agree.
    """
    bank = background_bank(spec)
    checker = checkerboard(spec)
    samples = []
    entries = []
    offset = 0
    for i in range(spec.n_videos):
        rng = np.random.default_rng((spec.seed, 1, i))
        label = i % spec.n_classes
        length = int(rng.integers(spec.length_range[0], spec.length_range[1] + 1))
        if spec.background_mode == "fixed_checkerboard":
            bg = checker
        else:
            if rng.uniform() < spec.bias_rho:
                bg_idx = label % spec.bank_size
            else:
                bg_idx = int(rng.integers(0, spec.bank_size))
            bg = bank[bg_idx]
        motion = class_motion(label, spec, rng)
        vid = f"{spec.domain}-{i:05d}"
        sample = render_video(label, length, bg, motion, rng, spec, video_id=vid)
        samples.append(sample)
        entries.append({"video_id": vid, "label": label, "length": length, "offset": offset})
        offset += length * spec.frame_dim * 4
    return DomainManifest(spec=spec, entries=entries), samples


def strip_labels(samples: list[VideoSample]) -> list[VideoSample]:
    """Training-side view of an unlabeled domain."""
    return [VideoSample(frames=s.frames, label=None, domain=s.domain, video_id=s.video_id)
            for s in samples]


def spec_from_dict(d: dict) -> DomainSpec:
    d = dict(d)
    for k in ("length_range", "blob_speed_range"):
        if k in d:
            d[k] = tuple(d[k])
    return DomainSpec(**d)


def write_dataset(manifest: DomainManifest, samples: list[VideoSample], directory: str) -> None:
    if len(manifest.entries) != len(samples):
        raise ManifestMismatchError("entry count != sample count")
    os.makedirs(directory, exist_ok=True)
    doc = {
        "format": MAGIC,
        "spec": asdict(manifest.spec),
        "entries": manifest.entries,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        f.write(json.dumps(doc, indent=1))
    with open(os.path.join(directory, "frames.bin"), "wb") as f:
        for entry, sample in zip(manifest.entries, samples):
            if sample.frames.shape[0] != entry["length"]:
                raise ManifestMismatchError(
                    f"{entry['video_id']}: length {entry['length']} != frames {sample.frames.shape[0]}")
            f.write(np.asarray(sample.frames, dtype="<f4").tobytes())


def read_dataset(directory: str):
    """Inverse of write_dataset; validates the header, the spec, that the
    entries tile frames.bin in order, and the payload size."""
    path = os.path.join(directory, "manifest.json")
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CorruptHeaderError(f"unreadable manifest: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != MAGIC:
        raise CorruptHeaderError(f"bad or missing format header in {path}")
    if "spec" not in doc or "entries" not in doc:
        raise CorruptHeaderError(f"{path} lacks spec or entries")
    try:
        spec = spec_from_dict(doc["spec"])
    except (TypeError, ValueError) as e:
        raise CorruptHeaderError(f"invalid spec in {path}: {e}") from e
    entries = doc["entries"]
    if not isinstance(entries, list) or not entries:
        raise CorruptHeaderError(f"{path} lists no videos")
    d = spec.frame_dim
    end = 0
    for e in entries:
        missing = [k for k in ("video_id", "label", "length", "offset") if k not in e]
        if missing:
            raise ManifestMismatchError(f"manifest mismatch: an entry lacks {missing}")
        label = e["label"]
        if type(label) is not int or not 0 <= label < spec.n_classes:
            raise ManifestMismatchError(f"manifest mismatch: label {label!r} of "
                                        f"{e['video_id']} is not in [0, {spec.n_classes})")
        if type(e["length"]) is not int or e["length"] < 1:
            raise ManifestMismatchError(f"manifest mismatch: length {e['length']!r} of "
                                        f"{e['video_id']} is not an int >= 1")
        # each video starts where the one before it ends
        if type(e["offset"]) is not int or e["offset"] != end:
            raise ManifestMismatchError(f"manifest mismatch: offset {e['offset']!r} of "
                                        f"{e['video_id']} is not {end}, the end of "
                                        f"the entry before it")
        end += e["length"] * d * 4
    if len(entries) != spec.n_videos:
        raise ManifestMismatchError(
            f"manifest mismatch: {len(entries)} entries for n_videos={spec.n_videos}")
    frames_path = os.path.join(directory, "frames.bin")
    size = os.path.getsize(frames_path)
    if size < end:
        raise TruncatedDataError(f"truncated frame data: {size} < {end} bytes")
    if size > end:
        raise ManifestMismatchError(f"manifest mismatch: {size} > {end} bytes")
    # one read; every video is a view into the flat frame array
    flat = np.fromfile(frames_path, dtype="<f4")
    samples = []
    for e in entries:
        start = e["offset"] // 4
        frames = flat[start:start + e["length"] * d].reshape(e["length"], d)
        samples.append(VideoSample(frames=frames, label=e["label"],
                                   domain=spec.domain, video_id=e["video_id"]))
    return DomainManifest(spec=spec, entries=entries), samples
