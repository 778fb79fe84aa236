"""Feature-stream contracts, motion frame codec, file I/O, synthetic data.

Audio frames carry 35 channels: envelope (1), MFCC (20), chroma (12),
one-hot peak (1), one-hot beat (1), in that order. Motion frames carry
219 channels: 24 joint rotations as row-major flattened 3x3 matrices
(216) followed by a 3-vector root translation.

The synthetic generator produces beat-locked music/dance pairs: the
per-frame joint rotation increment is zero exactly on beat frames, so
ground-truth motion beats (velocity minima) coincide with the music's
one-hot beat channel by construction.

A stream on disk is a `%.17g` CSV (the authority), a `.meta` sidecar
holding the shape and the sha256 of the CSV and of a twin file, and the
twin `<path>.f64`: the same matrix as raw little-endian float64 bytes.
Loading reads the twin only when both digests match the files on disk,
and parses the CSV otherwise; both give the same bits.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MalformedFile, MetaMismatch, NotRotation
from .quaternion import quat_to_rotmat, rotmat_to_quat
from .numerics import sym_sqrt

FPS = 60
# longest clip synth_pair makes, one hour at FPS: 216000 frames, 378 MB of motion
SYNTH_MAX_FRAMES = 3600 * FPS

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
# a stream's twin and a checkpoint's payload: the file beside its owner
# that holds row-major float64 bytes, little-endian on every host
PAYLOAD_SUFFIX = ".f64"
PAYLOAD_DTYPE = np.dtype("<f8")
# a stream's sidecar, beside its CSV
META_SUFFIX = ".meta"

# channels per frame of each stream kind
STREAM_DIMS = {"audio": AUDIO_DIMS, "motion": MOTION_DIMS}


@dataclass
class StreamMeta:
    kind: str
    fps: int
    frames: int
    dims: int

    def __post_init__(self):
        if self.kind not in STREAM_DIMS:
            raise MetaMismatch(f"unknown stream kind {self.kind!r}")
        if self.dims != STREAM_DIMS[self.kind]:
            raise MetaMismatch(
                f"kind {self.kind!r} implies {STREAM_DIMS[self.kind]} dims, got {self.dims}")


def encode_motion_frame(rotations, translation) -> np.ndarray:
    """Pack 24 unit quaternions, a (24, 4) array, + translation into one 219-dim frame."""
    rotations = np.asarray(rotations, dtype=np.float64)
    if rotations.shape != (JOINT_COUNT, 4):
        raise DimensionMismatch(
            f"expected ({JOINT_COUNT}, 4) joint rotations, got shape {rotations.shape}")
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
    if not np.isfinite(m).all():
        raise NotRotation("block has non-finite entries")
    gram = m.T @ m
    gram = 0.5 * (gram + gram.T)
    root = sym_sqrt(gram)
    try:
        return np.linalg.solve(root.T, m.T).T
    except np.linalg.LinAlgError:
        raise NotRotation("block is singular, so no rotation is nearest") from None


def decode_motion_frame(v) -> tuple:
    """Unpack a 219-dim frame into 24 unit quaternions, a (24, 4) array, + translation.

    Each 3x3 block is projected to its nearest rotation first, so mildly
    invalid model outputs decode cleanly; a block with no nearest rotation
    raises NotRotation naming its joint.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size != MOTION_DIMS:
        raise DimensionMismatch(f"motion frame must have {MOTION_DIMS} entries, got {v.size}")
    rotations = np.empty((JOINT_COUNT, 4))
    for j in range(JOINT_COUNT):
        block = v[9 * j:9 * j + 9].reshape(3, 3)
        try:
            rotations[j] = rotmat_to_quat(nearest_rotation(block))
        except NotRotation as err:
            raise NotRotation(f"joint {j} ({JOINT_NAMES[j]}): {err}") from None
    return rotations, v[TRANSLATION_CHANNELS].copy()


_INT64_MAX = np.iinfo(np.int64).max


def _smooth_noise(rng: np.random.Generator, frames: int, channels: int) -> np.ndarray:
    """Seeded noise lowpassed with a moving-average window."""
    width = 9
    raw = rng.standard_normal((frames + width - 1, channels))
    window = np.ones(width) / width
    out = np.empty((frames, channels), dtype=np.float64)
    for c in range(channels):
        out[:, c] = np.convolve(raw[:, c], window, mode="valid")
    return out


def synth_pair(rng_seed: int, seconds: float, beat_period_frames: int = 30):
    """Deterministic beat-locked (audio, motion) pair of seconds * FPS frames.

    Audio: beat channel is 1 exactly at multiples of beat_period_frames,
    envelope decays after each beat, peaks sit halfway between beats,
    MFCC/chroma are seeded smooth noise.

    Motion: joint j spins about a fixed random axis with per-frame angle
    increment kappa_j * w(t) where w(t) = g * (1 - cos(2*pi*t/B)) vanishes
    exactly on beat frames; the root translation traces a slow circle
    whose per-frame chord is constant. Frame-to-frame velocity therefore
    has strict local minima exactly on the beats.
    """
    # nan fails both comparisons; a count rounding to 0 frames has no
    # clip, and the cap turns a huge or infinite one away before any
    # allocation
    if not 0.5 < seconds * FPS < SYNTH_MAX_FRAMES + 0.5:
        raise ValueError(f"seconds must span 1 to {SYNTH_MAX_FRAMES} frames (one hour at "
                         f"{FPS} fps), got {seconds}")
    if not 2 <= beat_period_frames <= _INT64_MAX:
        raise ValueError(f"beat_period_frames must be between 2 and {_INT64_MAX}, "
                         f"got {beat_period_frames}")
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be nonnegative, got {rng_seed}")
    rng = np.random.default_rng(rng_seed)
    frames = int(round(seconds * FPS))
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


def atomic_write(path: str, data):
    """Write text or bytes via a temp file in the same directory, then rename.

    The temp file is created with mode 0o666, so the target gets the
    permissions the process umask gives a plain open().
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_payload(path: str, arrays) -> tuple:
    """Write the arrays' row-major PAYLOAD_DTYPE bytes, concatenated, to
    `path + PAYLOAD_SUFFIX` atomically; returns their count and sha256."""
    payload = b"".join(a.astype(PAYLOAD_DTYPE, copy=False).tobytes() for a in arrays)
    atomic_write(path + PAYLOAD_SUFFIX, payload)
    return len(payload), hashlib.sha256(payload).hexdigest()


def save_stream(path: str, matrix, meta: StreamMeta):
    """Write a stream as a CSV, its float64 twin and a `.meta` sidecar.

    The CSV is headerless, one `%.17g` row per frame. The twin holds the
    matrix's row-major little-endian float64 bytes. The sidecar, written
    last, records the shape and the sha256 of the CSV (`text_sha256`)
    and of the twin (`payload_sha256`). Each file is replaced atomically.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DimensionMismatch(f"stream matrix must be 2-D, got shape {matrix.shape}")
    if matrix.shape != (meta.frames, meta.dims):
        raise MetaMismatch(
            f"matrix shape {matrix.shape} disagrees with meta ({meta.frames}, {meta.dims})")
    row_format = ",".join(["%.17g"] * meta.dims)
    rows = [row_format % tuple(row) for row in matrix.tolist()]
    text = ("\n".join(rows) + ("\n" if rows else "")).encode("ascii")
    atomic_write(path, text)
    _, payload_digest = write_payload(path, [matrix])
    sidecar = (
        f"format: {STREAM_FORMAT}\n"
        f"kind: {meta.kind}\n"
        f"fps: {meta.fps}\n"
        f"frames: {meta.frames}\n"
        f"dims: {meta.dims}\n"
        f"text_sha256: {hashlib.sha256(text).hexdigest()}\n"
        f"payload_sha256: {payload_digest}\n"
    )
    atomic_write(path + META_SUFFIX, sidecar)


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file, with universal newlines; an unreadable or
    undecodable file is a MalformedFile naming it as `what`. Every text
    file the package reads comes through here."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedFile(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{what} {path} is not valid UTF-8: {exc}") from exc


def _parse_meta(path: str) -> dict:
    entries = {}
    text = read_text(path, "sidecar")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if ":" not in line:
            raise MalformedFile(f"bad sidecar line {line!r} in {path}")
        key, _, value = line.partition(":")
        entries[key.strip()] = value.strip().strip('"')
    return entries


def _read_cells(lines) -> np.ndarray:
    """Comma-separated float rows through numpy's C reader.

    A cell is an optionally signed decimal or exponent float literal, or
    nan, inf or infinity in any case, with surrounding whitespace allowed.
    Python float()'s extras (digit-group underscores, non-ASCII digits)
    and `#` comments are rejected.
    """
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)


def _parses(text: str) -> bool:
    """Whether _read_cells accepts text as one row."""
    if not text.strip():
        return False
    try:
        _read_cells([text])
    except ValueError:
        return False
    return True


def _rejected_row(path: str, lines) -> MalformedFile:
    """The error for the first row _read_cells rejects, by its 0-based
    index among the non-blank lines. numpy's own messages count a ragged
    row from 1 and a bad cell's row from 0, so they are not forwarded."""
    width = lines[0].count(",") + 1
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != width:
            return MalformedFile(
                f"ragged row {i} in {path}: {len(cells)} cells, row 0 has {width}")
        if not _parses(line):
            cell = next((c for c in cells if not _parses(c)), line)
            return MalformedFile(f"non-numeric cell {cell.strip()!r} in row {i} of {path}")
    return MalformedFile(f"cannot parse the rows of {path}")


def _read_twin(path: str, entries: dict, meta: StreamMeta):
    """The matrix from the twin of the CSV at `path`, or None unless the
    sidecar holds both digests, the twin has exactly frames*dims float64s,
    the CSV has `frames` lines, and both files match their digests."""
    try:
        text_digest, payload_digest = entries["text_sha256"], entries["payload_sha256"]
        with open(path + PAYLOAD_SUFFIX, "rb") as fh:
            payload = fh.read()
        if len(payload) != meta.frames * meta.dims * PAYLOAD_DTYPE.itemsize:
            return None
        with open(path, "rb") as fh:
            text = fh.read()
    except (KeyError, OSError):
        return None
    # the line count binds the twin's row count to the CSV the digest names
    if (text.count(b"\n") != meta.frames
            or hashlib.sha256(text).hexdigest() != text_digest
            or hashlib.sha256(payload).hexdigest() != payload_digest):
        return None
    return np.frombuffer(payload, PAYLOAD_DTYPE).reshape(meta.frames, meta.dims).astype(np.float64)


def load_stream(path: str):
    """Read a stream back into (matrix, StreamMeta).

    The twin is read when _read_twin vouches for it; otherwise, as for a
    hand-written CSV or a stream copied without its twin, the CSV is
    parsed. Either way the matrix must be finite and match the sidecar's
    shape, and it is an owned float64 array.
    """
    sidecar = path + META_SUFFIX
    entries = _parse_meta(sidecar)
    for key in ("format", "kind", "fps", "frames", "dims"):
        if key not in entries:
            raise MalformedFile(f"sidecar {sidecar} is missing key {key!r}")
    if entries["format"] != STREAM_FORMAT:
        raise MalformedFile(f"unsupported stream format {entries['format']!r} in {sidecar}")
    try:
        meta = StreamMeta(kind=entries["kind"], fps=int(entries["fps"]),
                          frames=int(entries["frames"]), dims=int(entries["dims"]))
    except ValueError as exc:
        raise MalformedFile(f"non-numeric sidecar field in {sidecar}: {exc}") from exc
    except MetaMismatch as exc:
        raise MetaMismatch(f"{sidecar}: {exc}") from None

    matrix = _read_twin(path, entries, meta)
    if matrix is None:
        text = read_text(path, "stream")
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            # loadtxt warns on empty input; an empty stream is a valid one
            matrix = np.zeros((0, meta.dims))
        else:
            try:
                matrix = _read_cells(lines)
            except ValueError as exc:
                raise _rejected_row(path, lines) from exc
    bad_rows = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad_rows.size:
        raise MalformedFile(f"non-finite cell (nan or inf) in row {bad_rows[0]} of {path}")
    if matrix.shape[0] != meta.frames or (matrix.size and matrix.shape[1] != meta.dims):
        raise MetaMismatch(
            f"{path} holds shape {matrix.shape} but sidecar says ({meta.frames}, {meta.dims})")
    return matrix, meta
