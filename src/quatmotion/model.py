"""Music-conditioned motion prediction model.

Two self-attention encoders (motion and audio streams, rotary position
embedding inside the attention, learned absolute position tables at the
input) feed a cross-modal decoder whose attention is quaternion rotary:
decoder queries come from the encoded motion, keys and values from the
concatenation of encoded motion and audio along time. A readout head
maps the decoder state at the last seed frame to N future motion frames.

Inference is autoregressive at fixed window sizes: predict N frames, keep
the first, slide both windows by one frame.

Everything runs on the autodiff tape so a scalar loss differentiates
through the full stack; plain-array wrappers around single sequences
provide the inference surface. They run on untracked views of the
weights, so inference builds no tape.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import re
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autograd as ag
from . import forked, qra
from .autograd import Tensor
from .errors import (AudioTooShort, ChannelMismatch, DimensionMismatch,
                     HeadDimNotQuaternion, MalformedFile, QuatMotionError)
from .features import (AUDIO_DIMS, MOTION_DIMS, PAYLOAD_DTYPE, PAYLOAD_SUFFIX, STREAM_DIMS,
                       atomic_write, read_text, write_payload)
from .spe import angle_tables

CHECKPOINT_FORMAT = "qean-ckpt-v4"

# width of each feed-forward block's hidden layer, in multiples of d_model
FF_MULT = 4


# smallest value of each count field; a zero-depth encoder is allowed
_COUNT_FLOORS = {"encoder_layers": 0, "decoder_layers": 1, "periods": 1, "future_frames": 1,
                 "seed_motion_frames": 1, "fps": 1}

# the values a config field of each annotated type takes; a bool is an
# int to Python, so it is refused wherever a number is wanted
_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float)}


def is_field_type(value, kind: str) -> bool:
    """Whether value may be held by a config field annotated `kind`
    ("bool", "int" or "float")."""
    return isinstance(value, _FIELD_TYPES[kind]) and (kind == "bool") == isinstance(value, bool)


def check_field_types(config):
    """Raise a TypeError naming the first bool, int or float field of the
    config dataclass whose value is not of its annotated type. Types are
    checked before ranges, so a file cannot smuggle in a float count, a
    truthy int or a numeric string."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in _FIELD_TYPES and not is_field_type(value, f.type):
            raise TypeError(f"{f.name} must be {f.type}, got {type(value).__name__} {value!r}")


@dataclass
class ModelConfig:
    """Architecture and window geometry. Defaults are the desk scale."""

    d_model: int = 64
    heads: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 2
    periods: int = 2
    seed_motion_frames: int = 30
    audio_frames: int = 60
    future_frames: int = 5
    fps: int = 60
    use_spe: bool = True
    use_qra: bool = True

    def __post_init__(self):
        check_field_types(self)
        if self.d_model < 1 or self.heads < 1 or self.d_model % self.heads != 0:
            raise DimensionMismatch(
                f"d_model {self.d_model} must be a positive multiple of heads {self.heads}")
        dh = self.d_model // self.heads
        if self.use_qra and dh % 4 != 0:
            raise HeadDimNotQuaternion(
                f"head dim {dh} must be divisible by 4 for quaternion attention")
        if self.use_spe and dh % 2 != 0:
            raise DimensionMismatch(f"head dim {dh} must be even for pair rotation")
        if self.audio_frames < self.seed_motion_frames:
            raise ValueError("audio window must be at least as long as the motion window")
        for name, floor in _COUNT_FLOORS.items():
            if getattr(self, name) < floor:
                raise ValueError(f"{name} must be >= {floor}, got {getattr(self, name)}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    @staticmethod
    def full_scale() -> "ModelConfig":
        # 800/16 gives 50-dim heads, which cannot be grouped into
        # quaternions, so the full-scale shape check runs the canonical
        # cross-attention fallback.
        return ModelConfig(d_model=800, heads=16, seed_motion_frames=120,
                           audio_frames=240, future_frames=20, use_qra=False)


def _weight_layout(config: ModelConfig):
    """Every weight as (name, shape, init), in the fixed draw order.

    init is either a constant fill value, which draws nothing, or a map
    from a standard normal draw of the shape to the initial value.
    """
    d = config.d_model
    ff = FF_MULT * d

    def linear(name, fan_in, fan_out):
        yield name + ".w", (fan_in, fan_out), lambda z: z / np.sqrt(fan_in)
        yield name + ".b", (fan_out,), 0.0

    def norm(name):
        yield name + ".gamma", (d,), 1.0
        yield name + ".beta", (d,), 0.0

    def attention(prefix):
        for proj in ("wq", "wk", "wv", "wo"):
            yield f"{prefix}.{proj}", (d, d), lambda z: z / np.sqrt(d)

    yield from linear("embed.audio", AUDIO_DIMS, d)
    yield from linear("embed.motion", MOTION_DIMS, d)
    yield "pos.motion", (config.seed_motion_frames, d), lambda z: 0.02 * z
    yield "pos.audio", (config.audio_frames, d), lambda z: 0.02 * z

    for stream in ("motion", "audio"):
        for layer in range(config.encoder_layers):
            prefix = f"enc.{stream}.{layer}"
            yield from norm(prefix + ".ln1")
            yield from attention(prefix + ".attn")
            yield from norm(prefix + ".ln2")
            yield from linear(prefix + ".ff.fc1", d, ff)
            yield from linear(prefix + ".ff.fc2", ff, d)
        if config.encoder_layers > 0:
            yield from norm(f"enc.{stream}.norm")

    kernel = (config.heads, config.periods, config.d_head, qra.KERNEL_WIDTH)
    for layer in range(config.decoder_layers):
        prefix = f"dec.{layer}"
        yield from norm(prefix + ".ln1")
        yield from attention(prefix + ".attn")
        if config.use_qra:
            for kern in ("omega_q", "theta_q", "omega_k", "theta_k"):
                yield f"{prefix}.attn.{kern}.w", kernel, lambda z: 0.05 * z
                yield f"{prefix}.attn.{kern}.b", kernel[:2], 0.0
        yield from norm(prefix + ".ln2")
        yield from linear(prefix + ".ff.fc1", d, ff)
        yield from linear(prefix + ".ff.fc2", ff, d)

    yield from linear("out", d, config.future_frames * MOTION_DIMS)


def init_weights(config: ModelConfig, rng: np.random.Generator) -> dict:
    """Seeded weight collection; draw order is fixed by construction."""
    weights = {}
    for name, shape, init in _weight_layout(config):
        value = np.full(shape, init) if isinstance(init, float) else init(rng.standard_normal(shape))
        weights[name] = Tensor(value, requires_grad=True)
    return weights


def _heads_split(t: Tensor, heads: int) -> Tensor:
    b, steps, d = t.shape
    return ag.transpose(ag.reshape(t, (b, steps, heads, d // heads)), (0, 2, 1, 3))


def _heads_merge(t: Tensor) -> Tensor:
    b, h, steps, dh = t.shape
    return ag.reshape(ag.transpose(t, (0, 2, 1, 3)), (b, steps, h * dh))


def _layer_norm(x: Tensor, name: str, weights: dict) -> Tensor:
    return ag.layer_norm(x, weights[name + ".gamma"], weights[name + ".beta"])


def _feed_forward(x: Tensor, prefix: str, weights: dict) -> Tensor:
    h = ag.relu(ag.matmul(x, weights[prefix + ".fc1.w"], weights[prefix + ".fc1.b"]))
    return ag.matmul(h, weights[prefix + ".fc2.w"], weights[prefix + ".fc2.b"])


def _embed(x: Tensor, which: str, weights: dict) -> Tensor:
    if x.shape[-1] != STREAM_DIMS[which]:
        raise ChannelMismatch(
            f"{which} stream must have {STREAM_DIMS[which]} channels, got {x.shape[-1]}")
    h = ag.matmul(x, weights[f"embed.{which}.w"], weights[f"embed.{which}.b"])
    table = weights[f"pos.{which}"]
    steps = h.shape[-2]
    if steps > table.shape[0]:
        raise DimensionMismatch(
            f"{which} window of {steps} frames exceeds the {table.shape[0]}-entry position table")
    return h + table[:steps]


@functools.lru_cache(maxsize=64)
def _rotary_tables(steps: int, dim: int):
    """Read-only (cos, sin) rotary tables, built once per window geometry."""
    tables = angle_tables(steps, dim)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled_dot(q: Tensor, k: Tensor) -> Tensor:
    """Canonical attention logits q k^T / sqrt(d_head), per head."""
    return ag.mul(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(q.shape[-1]))


def _attention(x: Tensor, memory: Tensor, prefix: str, weights: dict, config: ModelConfig,
               logits=_scaled_dot) -> Tensor:
    """Multi-head attention of x's rows over the memory rows: project,
    split into heads, softmax the logits(q, k) rows over v, merge the
    heads and project by wo."""
    q = _heads_split(ag.matmul(x, weights[prefix + ".wq"]), config.heads)
    k = _heads_split(ag.matmul(memory, weights[prefix + ".wk"]), config.heads)
    v = _heads_split(ag.matmul(memory, weights[prefix + ".wv"]), config.heads)
    mixed = _heads_merge(ag.matmul(ag.softmax_rows(logits(q, k)), v))
    return ag.matmul(mixed, weights[prefix + ".wo"])


def _self_attention(h: Tensor, prefix: str, weights: dict, config: ModelConfig) -> Tensor:
    """Encoder attention of h over itself; RoPE spins the queries and keys
    at their row positions unless use_spe is off."""
    if not config.use_spe:
        return _attention(h, h, prefix, weights, config)
    co, si = _rotary_tables(h.shape[-2], config.d_head)
    return _attention(h, h, prefix, weights, config,
                      lambda q, k: _scaled_dot(ag.rope_apply(q, co, si), ag.rope_apply(k, co, si)))


def _encode(h: Tensor, which: str, weights: dict, config: ModelConfig) -> Tensor:
    for layer in range(config.encoder_layers):
        prefix = f"enc.{which}.{layer}"
        h = h + _self_attention(_layer_norm(h, prefix + ".ln1", weights),
                                prefix + ".attn", weights, config)
        h = h + _feed_forward(_layer_norm(h, prefix + ".ln2", weights),
                              prefix + ".ff", weights)
    if config.encoder_layers > 0:
        # a zero-depth encoder stays the identity, so the closing norm
        # only exists when there are layers to stabilize
        h = _layer_norm(h, f"enc.{which}.norm", weights)
    return h


def _cross_attention(m_norm: Tensor, memory: Tensor, prefix: str,
                     weights: dict, config: ModelConfig,
                     keep: int | None = None, window: int | None = None) -> Tensor:
    """Decoder attention of query rows m_norm over the memory rows.

    m_norm holds the last rows of a `window`-row query window (by default
    all of it), and only its last `keep` rows (by default all) come out;
    qra.rotary_logits describes the halo rows before them. Without QRA
    there is no halo, so every row comes out.
    """
    if not config.use_qra:
        return _attention(m_norm, memory, prefix, weights, config)
    kernels = {name: weights[f"{prefix}.{name}"] for name in qra.KERNEL_NAMES}
    return _attention(m_norm, memory, prefix, weights, config,
                      lambda q, k: qra.rotary_logits(q, k, kernels, keep=keep, window=window))


def _last_rows(t: Tensor, rows: int) -> Tensor:
    return t if t.shape[1] == rows else t[:, t.shape[1] - rows:, :]


def _decode(h_motion: Tensor, h_audio: Tensor, weights: dict, config: ModelConfig) -> Tensor:
    """Readout of the decoder state at the last motion frame.

    Only that row reaches the readout. Query rows are independent except
    through QRA's same-padded query convolution, whose output row t reads
    rows t-halo .. t+halo, so layer l of L computes just the last
    1 + halo*(L-1-l) rows from a halo of extra rows on the left, and the
    state starts from the last 1 + halo*L motion rows. Where that cone
    reaches row 0 it is clamped to the window, whose zero padding is then
    the real one. Keys and values still cover every motion and audio row.
    """
    memory = ag.concat([h_motion, h_audio], axis=1)
    n = h_motion.shape[1]
    halo = qra.KERNEL_WIDTH // 2 if config.use_qra else 0
    layers = config.decoder_layers
    state = _last_rows(h_motion, min(n, 1 + halo * layers))
    for layer in range(layers):
        prefix = f"dec.{layer}"
        keep = min(n, 1 + halo * (layers - 1 - layer))
        attn = _cross_attention(_layer_norm(state, prefix + ".ln1", weights), memory,
                                prefix + ".attn", weights, config, keep=keep, window=n)
        state = _last_rows(state, keep) + attn
        state = state + _feed_forward(_layer_norm(state, prefix + ".ln2", weights),
                                      prefix + ".ff", weights)
    last = state[:, -1, :]
    flat = ag.matmul(last, weights["out.w"], weights["out.b"])
    return ag.reshape(flat, (last.shape[0], config.future_frames, MOTION_DIMS))


def _encoded(x: Tensor, which: str, weights: dict, config: ModelConfig) -> Tensor:
    """One stream embedded and encoded."""
    return _encode(_embed(x, which, weights), which, weights, config)


def forward(weights: dict, config: ModelConfig, motion, audio) -> Tensor:
    """Batched prediction: (B, Tm, 219) + (B, Ta, 35) -> (B, N, 219) Tensor."""
    motion = motion if isinstance(motion, Tensor) else Tensor(motion)
    audio = audio if isinstance(audio, Tensor) else Tensor(audio)
    h_motion = _encoded(motion, "motion", weights, config)
    h_audio = _encoded(audio, "audio", weights, config)
    return _decode(h_motion, h_audio, weights, config)


# single-sequence array wrappers

def _untracked(weights: dict) -> dict:
    """Zero-copy views of the weights that record no tape."""
    return {name: Tensor(w.data) for name, w in weights.items()}


def predict_future(weights: dict, config: ModelConfig, seed_motion, audio_window) -> np.ndarray:
    """Full pipeline on one (seed window, audio window) pair -> (N, 219)."""
    seed_motion = np.asarray(seed_motion, dtype=np.float64)
    audio_window = np.asarray(audio_window, dtype=np.float64)
    return forward(_untracked(weights), config, seed_motion[None], audio_window[None]).data[0]


# A rollout encodes its music in a forked worker from this many frames on.
# Forked over in-process time of whole desk rollouts, 30 alternating raw
# pairs each on 2 vCPUs (OpenBLAS on 1 thread): 5 frames 1.13 (the fork
# won 8 of 30), 6 frames 1.04 (15 of 30), 7 frames 0.86 (28 of 30), 8
# frames 0.91 (29 of 30); 30 frames 0.77 (19 of 20). The fork and the
# reaping cost about 1.2 and 0.1 ms, and the parent's first writes to
# its pages after the fork fault them in again, about 600 minor faults.
_FORK_MIN_STEPS = 7
# encoded audio windows the worker may run ahead of the rollout
_RING_SLOTS = 4


class _InProcessAudio:
    """The encoded audio windows of a rollout, each computed when asked for."""

    def __init__(self, weights: dict, config: ModelConfig, audio: np.ndarray):
        self.weights, self.config, self.audio = weights, config, audio

    def window(self, s: int) -> Tensor:
        """The encoded audio window of frame s, (1, audio_frames, d_model)."""
        frames = self.audio[s:s + self.config.audio_frames]
        return _encoded(Tensor(frames[None]), "audio", self.weights, self.config)

    def close(self):
        pass


class _ForkedAudio:
    """The encoded audio windows of a rollout, computed ahead by a forked
    worker on the idle core.

    The audio side of a frame never reads the generated motion, so the
    worker runs source.window(s) for s = 0 .. steps-1 in order while the
    parent runs the motion side and the decoder. The windows pass through
    a ring of _RING_SLOTS slots, the one array the forked.Link shares;
    window s lives in slot s % _RING_SLOTS. Each hand-over is a one-byte
    message on the Link: the worker tells when a slot is filled, and the
    parent tells when it has copied a slot out and the worker will fill
    it again. The ring's size does not grow with steps.
    """

    def __init__(self, source: _InProcessAudio, steps: int):
        shape = (_RING_SLOTS, 1, source.config.audio_frames, source.config.d_model)
        self._steps = steps
        self._link = forked.Link("the rollout worker encoding the music", [shape])
        if self._link.worker:
            self._link.serve(lambda: self._fill(source))

    def _fill(self, source: _InProcessAudio):
        ring = self._link.shared[0]
        for s in range(self._steps):
            if s >= _RING_SLOTS:
                self._link.hear()  # window s - _RING_SLOTS has been copied out
            ring[s % _RING_SLOTS] = source.window(s).data
            self._link.tell()

    def window(self, s: int) -> Tensor:
        self._link.hear()
        out = Tensor(self._link.shared[0][s % _RING_SLOTS].copy())
        if s + _RING_SLOTS < self._steps:
            self._link.tell()
        return out

    def close(self):
        self._link.close()


def autoregressive_generate(seed_motion, audio_features, steps: int,
                            weights: dict, config: ModelConfig) -> np.ndarray:
    """Keep-first sliding-window generation of `steps` motion frames.

    Each frame runs the model on the current motion window and audio
    window s: it keeps the first predicted frame and slides both windows
    by one. A rollout of at least _FORK_MIN_STEPS frames, where
    forked.may_fork allows it, encodes its audio windows in a forked
    worker beside the motion side (_ForkedAudio); otherwise, or when the
    fork fails, one process encodes them (_InProcessAudio). The frames are
    the same either way.
    """
    seed_motion = np.asarray(seed_motion, dtype=np.float64)
    audio_features = np.asarray(audio_features, dtype=np.float64)
    if seed_motion.shape != (config.seed_motion_frames, MOTION_DIMS):
        raise DimensionMismatch(
            f"seed motion must be ({config.seed_motion_frames}, {MOTION_DIMS}), "
            f"got {seed_motion.shape}")
    if audio_features.ndim != 2 or audio_features.shape[1] != AUDIO_DIMS:
        raise ChannelMismatch(f"audio must have {AUDIO_DIMS} channels")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if steps == 0:
        return np.zeros((0, MOTION_DIMS), dtype=np.float64)
    needed = config.audio_frames + steps - 1
    if audio_features.shape[0] < needed:
        raise AudioTooShort(
            f"{steps} steps with a {config.audio_frames}-frame window need "
            f"{needed} audio frames, got {audio_features.shape[0]}")

    frozen = _untracked(weights)
    audio = _InProcessAudio(frozen, config, audio_features)
    if steps >= _FORK_MIN_STEPS and forked.may_fork():
        try:
            audio = _ForkedAudio(audio, steps)
        except OSError:
            pass  # no worker could be forked: this process encodes the music
    try:
        window = seed_motion.copy()
        produced = []
        for s in range(steps):
            h_motion = _encoded(Tensor(window[None]), "motion", frozen, config)
            first = _decode(h_motion, audio.window(s), frozen, config).data[0, 0]
            produced.append(first)
            window = np.vstack([window[1:], first[None]])
    finally:
        audio.close()
    return np.array(produced)


# checkpoint I/O

def save_checkpoint(path: str, weights: dict, config: ModelConfig):
    """Write the weights and config as a JSON header plus a payload file.

    The payload, `path + PAYLOAD_SUFFIX`, holds every tensor's row-major,
    little-endian float64 bytes, concatenated in sorted-name order, so
    every bit survives a round trip. The header at `path` is one
    sorted-key JSON object: the format tag, the config, each tensor's
    shape, and the payload's byte count and sha256. The payload is
    written first and each file is replaced atomically, so a header never
    names a payload that is not fully written.
    """
    names = sorted(weights)
    size, digest = write_payload(path, [weights[name].data for name in names])
    doc = {"format": CHECKPOINT_FORMAT,
           "config": asdict(config),
           "tensors": {name: list(weights[name].data.shape) for name in names},
           "payload": {"bytes": size, "sha256": digest}}
    atomic_write(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _read_header(path: str):
    """Parse and check a checkpoint header.

    Returns the config, each tensor's shape, and the payload's byte count
    and sha256 as the header states them.
    """
    text = read_text(path, "checkpoint")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer literal too long to convert
        raise MalformedFile(f"cannot parse checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedFile(f"{path} is not a {CHECKPOINT_FORMAT} checkpoint")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise MalformedFile(f"{path} has checkpoint format {doc.get('format')!r}; "
                            f"only {CHECKPOINT_FORMAT} can be read")
    for key in ("config", "tensors"):
        if not isinstance(doc.get(key), dict):
            raise MalformedFile(f"{path}: '{key}' is missing or not an object")
    unknown = set(doc["config"]) - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise MalformedFile(f"{path}: bad config: unknown config keys: {sorted(unknown)}")
    try:
        config = ModelConfig(**doc["config"])
    except (TypeError, ValueError, QuatMotionError) as exc:
        raise MalformedFile(f"{path}: bad config: {exc}") from exc
    tensors = doc["tensors"]
    # the layout is enumerated to at most twice the stored table's length,
    # so a config with a huge layer count is rejected as cheaply as any other
    limit = 2 * len(tensors) + 2
    expected = {name: shape for name, shape, _ in
                itertools.islice(_weight_layout(config), limit)}
    missing = sorted(set(expected) - set(tensors))
    if missing:
        more = " or more" if len(expected) == limit else ""
        raise MalformedFile(f"{path}: tensor {missing[0]} is missing "
                            f"({len(missing)}{more} missing in all)")
    extra = sorted(set(tensors) - set(expected))
    if extra:
        raise MalformedFile(f"{path}: unexpected tensor {extra[0]} "
                            f"({len(extra)} unexpected in all)")
    for name in sorted(tensors):
        stored = tensors[name]
        if not isinstance(stored, list) or any(type(n) is not int for n in stored):
            raise MalformedFile(f"{path}: tensor {name} has shape {stored!r}, "
                                f"which is not a list of integers")
        if tuple(stored) != expected[name]:
            raise MalformedFile(f"{path}: tensor {name} has shape {tuple(stored)}, "
                                f"expected {expected[name]}")
    payload = doc.get("payload")
    if (not isinstance(payload, dict) or type(payload.get("bytes")) is not int
            or not isinstance(payload.get("sha256"), str)
            or not re.fullmatch(r"[0-9a-f]{64}", payload["sha256"])):
        raise MalformedFile(f"{path}: 'payload' must be an object holding an integer "
                            f"'bytes' and a 64-digit hex 'sha256', got {payload!r}")
    want = PAYLOAD_DTYPE.itemsize * sum(math.prod(shape) for shape in expected.values())
    if payload["bytes"] != want:
        raise MalformedFile(f"{path}: payload bytes is {payload['bytes']}, "
                            f"but the tensor shapes need {want}")
    return config, expected, want, payload["sha256"]


def load_checkpoint(path: str):
    """Read a checkpoint back into (weights, config).

    The whole header is checked before the payload is opened: it must be
    UTF-8 JSON with this format tag, a valid config, and exactly the
    tensor names and shapes init_weights builds for that config
    (_weight_layout). The payload must then hold exactly the bytes those
    shapes imply, match the header's sha256, and be finite. Anything else
    is a MalformedFile naming the file (and the tensor, where there is
    one). Each weight is an owned, writable float64 array.
    """
    config, shapes, size, digest = _read_header(path)
    source = path + PAYLOAD_SUFFIX
    try:
        with open(source, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise MalformedFile(f"cannot read the payload of checkpoint {path}: {exc}") from exc
    if len(payload) != size:
        raise MalformedFile(f"{source} holds {len(payload)} bytes, "
                            f"expected {size} for the shapes in {path}")
    if hashlib.sha256(payload).hexdigest() != digest:
        raise MalformedFile(f"{source} does not match the sha256 in {path}")
    weights, offset = {}, 0
    for name in sorted(shapes):
        count = math.prod(shapes[name])
        # astype copies the read-only view of the payload into an owned array
        arr = np.frombuffer(payload, PAYLOAD_DTYPE, count, offset).reshape(shapes[name])
        arr = arr.astype(np.float64)
        if not np.isfinite(arr).all():
            raise MalformedFile(f"{source}: tensor {name} contains non-finite values")
        weights[name] = Tensor(arr, requires_grad=True)
        offset += count * PAYLOAD_DTYPE.itemsize
    return weights, config
