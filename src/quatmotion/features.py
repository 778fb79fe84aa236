"""Feature-stream contracts, motion frame codec, file I/O, synthetic data.

Audio frames carry 35 channels: envelope (1), MFCC (20), chroma (12),
one-hot peak (1), one-hot beat (1), in that order. Motion frames carry
219 channels: 24 joint rotations as row-major flattened 3x3 matrices
(216) followed by a 3-vector root translation.

The synthetic generator produces beat-locked music/dance pairs: the
per-frame joint rotation increment is zero exactly on beat frames, so
ground-truth motion beats (velocity minima) coincide with the music's
one-hot beat channel by construction.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MalformedFile, MetaMismatch
from .quaternion import quat_to_rotmat, rotmat_to_quat
from .numerics import sym_sqrt

FPS = 60

AUDIO_DIMS = 35
ENVELOPE_CHANNEL = 0
MFCC_CHANNELS = slice(1, 21)
CHROMA_CHANNELS = slice(21, 33)
PEAK_CHANNEL = 33
BEAT_CHANNEL = 34

JOINT_COUNT = 24
MOTION_DIMS = 9 * JOINT_COUNT + 3
TRANSLATION_CHANNELS = slice(216, 219)

# Fixed joint index order for the 24 rotation blocks. Nothing downstream
# depends on anatomical meaning, only on the order being frozen.
JOINT_NAMES = (
    "root", "left_hip", "right_hip", "spine1", "left_knee", "right_knee",
    "spine2", "left_ankle", "right_ankle", "spine3", "left_foot", "right_foot",
    "neck", "left_collar", "right_collar", "head", "left_shoulder", "right_shoulder",
    "left_elbow", "right_elbow", "left_wrist", "right_wrist", "left_hand", "right_hand",
)

STREAM_FORMAT = "qean-stream-v1"

_KIND_DIMS = {"audio": AUDIO_DIMS, "motion": MOTION_DIMS}


@dataclass
class StreamMeta:
    kind: str
    fps: int
    frames: int
    dims: int

    def __post_init__(self):
        if self.kind not in _KIND_DIMS:
            raise MetaMismatch(f"unknown stream kind {self.kind!r}")
        if self.dims != _KIND_DIMS[self.kind]:
            raise MetaMismatch(
                f"kind {self.kind!r} implies {_KIND_DIMS[self.kind]} dims, got {self.dims}")


def encode_motion_frame(rotations, translation) -> np.ndarray:
    """Pack 24 unit quaternions + translation into one 219-dim frame."""
    if len(rotations) != JOINT_COUNT:
        raise DimensionMismatch(f"expected {JOINT_COUNT} joint rotations, got {len(rotations)}")
    translation = np.asarray(translation, dtype=np.float64).reshape(-1)
    if translation.size != 3:
        raise DimensionMismatch(f"translation must have 3 entries, got {translation.size}")
    out = np.empty(MOTION_DIMS, dtype=np.float64)
    for j, q in enumerate(rotations):
        out[9 * j:9 * j + 9] = quat_to_rotmat(q).reshape(9)
    out[TRANSLATION_CHANNELS] = translation
    return out


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Polar factor of a near-rotation 3x3 block: m times (m^T m)^(-1/2)."""
    m = np.asarray(m, dtype=np.float64)
    gram = m.T @ m
    gram = 0.5 * (gram + gram.T)
    root = sym_sqrt(gram)
    return np.linalg.solve(root.T, m.T).T


def decode_motion_frame(v) -> tuple:
    """Unpack a 219-dim frame into 24 unit quaternions + translation.

    Each 3x3 block is projected to its nearest rotation first, so mildly
    invalid model outputs decode cleanly.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size != MOTION_DIMS:
        raise DimensionMismatch(f"motion frame must have {MOTION_DIMS} entries, got {v.size}")
    rotations = []
    for j in range(JOINT_COUNT):
        block = v[9 * j:9 * j + 9].reshape(3, 3)
        rotations.append(rotmat_to_quat(nearest_rotation(block)))
    return rotations, v[TRANSLATION_CHANNELS].copy()


def _smooth_noise(rng: np.random.Generator, frames: int, channels: int) -> np.ndarray:
    """Seeded noise lowpassed with a moving-average window."""
    width = 9
    raw = rng.standard_normal((frames + width - 1, channels))
    window = np.ones(width) / width
    out = np.empty((frames, channels), dtype=np.float64)
    for c in range(channels):
        out[:, c] = np.convolve(raw[:, c], window, mode="valid")
    return out


def synth_pair(rng_seed: int, seconds: float, fps: int = FPS, beat_period_frames: int = 30):
    """Deterministic beat-locked (audio, motion) pair.

    Audio: beat channel is 1 exactly at multiples of beat_period_frames,
    envelope decays after each beat, peaks sit halfway between beats,
    MFCC/chroma are seeded smooth noise.

    Motion: joint j spins about a fixed random axis with per-frame angle
    increment kappa_j * w(t) where w(t) = g * (1 - cos(2*pi*t/B)) vanishes
    exactly on beat frames; the root translation traces a slow circle
    whose per-frame chord is constant. Frame-to-frame velocity therefore
    has strict local minima exactly on the beats.
    """
    if seconds <= 0:
        raise ValueError(f"seconds must be positive, got {seconds}")
    if beat_period_frames < 2:
        raise ValueError(f"beat_period_frames must be >= 2, got {beat_period_frames}")
    rng = np.random.default_rng(rng_seed)
    frames = int(round(seconds * fps))
    period = int(beat_period_frames)
    t = np.arange(frames)

    audio = np.zeros((frames, AUDIO_DIMS), dtype=np.float64)
    audio[:, BEAT_CHANNEL] = (t % period == 0).astype(np.float64)
    audio[:, PEAK_CHANNEL] = (t % period == period // 2).astype(np.float64)
    audio[:, ENVELOPE_CHANNEL] = np.exp(-3.0 * (t % period) / period)
    audio[:, MFCC_CHANNELS] = _smooth_noise(rng, frames, 20)
    audio[:, CHROMA_CHANNELS] = _smooth_noise(rng, frames, 12)

    motion = np.zeros((frames, MOTION_DIMS), dtype=np.float64)
    pulse = 0.05 * (1.0 - np.cos(2.0 * np.pi * (t[:-1] / period)))  # w(t), zero on beats
    for j in range(JOINT_COUNT):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        kappa = rng.uniform(0.5, 1.5)
        start = rng.uniform(-np.pi / 4, np.pi / 4)
        theta = start + kappa * np.concatenate([[0.0], np.cumsum(pulse)])
        # Rodrigues: R = I + sin(theta) K + (1 - cos(theta)) K^2
        k = np.array([[0.0, -axis[2], axis[1]],
                      [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
        k2 = k @ k
        rots = (np.eye(3)[None, :, :]
                + np.sin(theta)[:, None, None] * k[None, :, :]
                + (1.0 - np.cos(theta))[:, None, None] * k2[None, :, :])
        motion[:, 9 * j:9 * j + 9] = rots.reshape(frames, 9)

    radius = 0.5
    revs = 0.25  # quarter turn over the whole clip: slow, constant chord
    phase = 2.0 * np.pi * revs * t / max(frames, 1)
    motion[:, 216] = radius * np.cos(phase)
    motion[:, 217] = 0.02 * t / max(frames, 1)
    motion[:, 218] = radius * np.sin(phase)

    return audio, motion


def atomic_write_text(path: str, text: str):
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_stream(path: str, matrix, meta: StreamMeta):
    """Headerless CSV at full float precision + `.meta` sidecar."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DimensionMismatch(f"stream matrix must be 2-D, got shape {matrix.shape}")
    if matrix.shape != (meta.frames, meta.dims):
        raise MetaMismatch(
            f"matrix shape {matrix.shape} disagrees with meta ({meta.frames}, {meta.dims})")
    rows = [",".join(f"{v:.17g}" for v in row) for row in matrix]
    atomic_write_text(path, "\n".join(rows) + ("\n" if rows else ""))
    sidecar = (
        f"format: {STREAM_FORMAT}\n"
        f"kind: {meta.kind}\n"
        f"fps: {meta.fps}\n"
        f"frames: {meta.frames}\n"
        f"dims: {meta.dims}\n"
    )
    atomic_write_text(path + ".meta", sidecar)


def _parse_meta(path: str) -> dict:
    entries = {}
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedFile(f"cannot read sidecar {path}: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if ":" not in line:
            raise MalformedFile(f"bad sidecar line {line!r} in {path}")
        key, _, value = line.partition(":")
        entries[key.strip()] = value.strip().strip('"')
    return entries


def load_stream(path: str):
    """Read a CSV + sidecar pair back into (matrix, StreamMeta)."""
    entries = _parse_meta(path + ".meta")
    for key in ("format", "kind", "fps", "frames", "dims"):
        if key not in entries:
            raise MalformedFile(f"sidecar {path}.meta is missing key {key!r}")
    if entries["format"] != STREAM_FORMAT:
        raise MalformedFile(f"unsupported stream format {entries['format']!r}")
    try:
        meta = StreamMeta(kind=entries["kind"], fps=int(entries["fps"]),
                          frames=int(entries["frames"]), dims=int(entries["dims"]))
    except ValueError as exc:
        raise MalformedFile(f"non-numeric sidecar field in {path}.meta: {exc}") from exc

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedFile(f"cannot read stream {path}: {exc}") from exc
    lines = [line for line in text.splitlines() if line.strip()]
    data = []
    for i, line in enumerate(lines):
        cells = line.split(",")
        if data and len(cells) != len(data[0]):
            raise MalformedFile(f"ragged row {i} in {path}")
        try:
            data.append([float(c) for c in cells])
        except ValueError as exc:
            raise MalformedFile(f"non-numeric cell in row {i} of {path}: {exc}") from exc
    matrix = np.array(data, dtype=np.float64) if data else np.zeros((0, meta.dims))
    bad_rows = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad_rows.size:
        raise MalformedFile(f"non-finite cell (nan or inf) in row {bad_rows[0]} of {path}")
    if matrix.shape[0] != meta.frames or (matrix.size and matrix.shape[1] != meta.dims):
        raise MetaMismatch(
            f"{path} holds shape {matrix.shape} but sidecar says ({meta.frames}, {meta.dims})")
    return matrix, meta
