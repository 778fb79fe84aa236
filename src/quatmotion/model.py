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
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import (AudioTooShort, ChannelMismatch, DimensionMismatch,
                     HeadDimNotQuaternion, MalformedFile, QuatMotionError)
from .features import AUDIO_DIMS, MOTION_DIMS, atomic_write_text
from .spe import RotarySchedule, angle_tables

CHECKPOINT_FORMAT = "qean-ckpt-v1"

TWO_PI = 2.0 * math.pi

# width of QRA's frequency/phase convolutions over time
QRA_KERNEL_WIDTH = 3


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
    ff_mult: int = 4
    use_learned_abs_pos: bool = True
    use_spe: bool = True
    use_qra: bool = True
    qra_keys_use_axis_i: bool = False
    rotary_base: float = 10000.0

    def __post_init__(self):
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
        if min(self.encoder_layers, self.decoder_layers - 1, self.periods - 1,
               self.future_frames - 1, self.seed_motion_frames - 1, self.fps - 1,
               self.ff_mult - 1) < 0:
            raise ValueError("config counts out of range")

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


_STREAM_DIMS = {"audio": AUDIO_DIMS, "motion": MOTION_DIMS}


def _weight_layout(config: ModelConfig):
    """Every weight as (name, shape, init), in the fixed draw order.

    init is either a constant fill value, which draws nothing, or a map
    from a standard normal draw of the shape to the initial value.
    """
    d = config.d_model
    ff = config.ff_mult * d

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
    if config.use_learned_abs_pos:
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

    kernel = (config.heads, config.periods, config.d_head, QRA_KERNEL_WIDTH)
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


def weight_shapes(config: ModelConfig) -> dict:
    """Name -> shape of every tensor init_weights builds, without drawing."""
    return {name: shape for name, shape, _ in _weight_layout(config)}


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
    h = ag.relu(ag.matmul(x, weights[prefix + ".fc1.w"]) + weights[prefix + ".fc1.b"])
    return ag.matmul(h, weights[prefix + ".fc2.w"]) + weights[prefix + ".fc2.b"]


def _embed(x: Tensor, which: str, weights: dict, config: ModelConfig) -> Tensor:
    if x.shape[-1] != _STREAM_DIMS[which]:
        raise ChannelMismatch(
            f"{which} stream must have {_STREAM_DIMS[which]} channels, got {x.shape[-1]}")
    h = ag.matmul(x, weights[f"embed.{which}.w"]) + weights[f"embed.{which}.b"]
    if config.use_learned_abs_pos:
        table = weights[f"pos.{which}"]
        steps = h.shape[-2]
        if steps > table.shape[0]:
            raise DimensionMismatch(
                f"{which} window of {steps} frames exceeds the {table.shape[0]}-entry position table")
        h = h + table[:steps]
    return h


@functools.lru_cache(maxsize=64)
def _rotary_tables(steps: int, dim: int, base: float):
    """Read-only (cos, sin) rotary tables, built once per window geometry."""
    tables = angle_tables(steps, RotarySchedule(dim, base))
    for table in tables:
        table.flags.writeable = False
    return tables


def _self_attention(h: Tensor, prefix: str, weights: dict, config: ModelConfig) -> Tensor:
    dh = config.d_head
    q = _heads_split(ag.matmul(h, weights[prefix + ".wq"]), config.heads)
    k = _heads_split(ag.matmul(h, weights[prefix + ".wk"]), config.heads)
    v = _heads_split(ag.matmul(h, weights[prefix + ".wv"]), config.heads)
    if config.use_spe:
        co, si = _rotary_tables(h.shape[-2], dh, config.rotary_base)
        q = ag.rope_apply(q, co, si)
        k = ag.rope_apply(k, co, si)
    logits = ag.mul(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    mixed = _heads_merge(ag.matmul(ag.softmax_rows(logits), v))
    return ag.matmul(mixed, weights[prefix + ".wo"])


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


def _freq_phase(z: Tensor, prefix: str, side: str, weights: dict, periods: int,
                drop: int = 0):
    """Latent frequencies relu(conv) and phases pi*tanh(conv) of one side.

    The omega and theta kernels are concatenated on the tape, so a single
    convolution yields both as its first and last `periods` outputs. The
    first `drop` rows of the convolution are cut before the activations.
    """
    kern = ag.concat([weights[f"{prefix}.omega_{side}.w"],
                      weights[f"{prefix}.theta_{side}.w"]], axis=1)
    bias = ag.concat([weights[f"{prefix}.omega_{side}.b"],
                      weights[f"{prefix}.theta_{side}.b"]], axis=1)
    both = ag.conv1d(z, kern, bias)
    if drop:
        both = both[..., drop:, :]
    return ag.relu(both[..., :periods]), ag.pi_tanh(both[..., periods:])


def _cross_attention(m_norm: Tensor, memory: Tensor, prefix: str,
                     weights: dict, config: ModelConfig,
                     keep: int | None = None, window: int | None = None) -> Tensor:
    """Decoder attention of query rows m_norm over the memory rows.

    m_norm holds the last rows of a `window`-row query window (by default
    all of it), and only its last `keep` rows (by default all) come out.
    The rows before them are a halo that QRA's query convolution reads;
    query positions stay absolute within the window.
    """
    heads, dh, periods = config.heads, config.d_head, config.periods
    rows = m_norm.shape[1]
    keep = rows if keep is None else keep
    window = rows if window is None else window
    drop = rows - keep
    q_all = _heads_split(ag.matmul(m_norm, weights[prefix + ".wq"]), heads)
    # the halo rows only feed the query convolution
    q = q_all[:, :, drop:, :] if drop else q_all
    k = _heads_split(ag.matmul(memory, weights[prefix + ".wk"]), heads)
    v = _heads_split(ag.matmul(memory, weights[prefix + ".wv"]), heads)
    b = q.shape[0]
    m = k.shape[2]

    if config.use_qra:
        omega_q, theta_q = _freq_phase(q_all, prefix, "q", weights, periods, drop)
        omega_k, theta_k = _freq_phase(k, prefix, "k", weights, periods)
        pos_q = TWO_PI * np.arange(window - keep, window, dtype=np.float64)[:, None] / window
        pos_k = TWO_PI * np.arange(m, dtype=np.float64)[:, None] / m
        ang_q = omega_q * Tensor(pos_q) + theta_q    # (b, heads, keep, periods)
        ang_k = omega_k * Tensor(pos_k) + theta_k
        key_axis = "i" if config.qra_keys_use_axis_i else "j"
        # a size-1 period axis on the slots: one rotation per period angle
        q_slots = ag.reshape(q, (b, heads, keep, 1, dh // 4, 4))
        k_slots = ag.reshape(k, (b, heads, m, 1, dh // 4, 4))
        phi = ag.reshape(ag.quat_rotate(q_slots, ang_q, "i"), (b, heads, keep, periods * dh))
        psi = ag.reshape(ag.quat_rotate(k_slots, ang_k, key_axis), (b, heads, m, periods * dh))
        # periods sit side by side in the features, so one product sums
        # every period's similarity
        total = ag.matmul(phi, ag.transpose(psi, (0, 1, 3, 2)))
        logits = ag.mul(total, 1.0 / (periods * math.sqrt(dh)))
    else:
        logits = ag.mul(ag.matmul(q, ag.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))

    mixed = _heads_merge(ag.matmul(ag.softmax_rows(logits), v))
    return ag.matmul(mixed, weights[prefix + ".wo"])


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
    halo = QRA_KERNEL_WIDTH // 2 if config.use_qra else 0
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
    flat = ag.matmul(last, weights["out.w"]) + weights["out.b"]
    return ag.reshape(flat, (last.shape[0], config.future_frames, MOTION_DIMS))


def forward(weights: dict, config: ModelConfig, motion, audio) -> Tensor:
    """Batched prediction: (B, Tm, 219) + (B, Ta, 35) -> (B, N, 219) Tensor."""
    motion = motion if isinstance(motion, Tensor) else Tensor(motion)
    audio = audio if isinstance(audio, Tensor) else Tensor(audio)
    h_motion = _encode(_embed(motion, "motion", weights, config), "motion", weights, config)
    h_audio = _encode(_embed(audio, "audio", weights, config), "audio", weights, config)
    return _decode(h_motion, h_audio, weights, config)


# single-sequence array wrappers

def _untracked(weights: dict) -> dict:
    """Zero-copy views of the weights that record no tape."""
    return {name: Tensor(w.data) for name, w in weights.items()}


def embed_stream(frames, which: str, weights: dict, config: ModelConfig) -> np.ndarray:
    """Per-frame linear embedding (+ learned position table) of one sequence."""
    if which not in _STREAM_DIMS:
        raise ValueError(f"which must be 'audio' or 'motion', got {which!r}")
    frames = np.asarray(frames, dtype=np.float64)
    return _embed(Tensor(frames[None]), which, _untracked(weights), config).data[0]


def encode(hidden, which: str, weights: dict, config: ModelConfig) -> np.ndarray:
    """Self-attention encoder stack over one embedded sequence."""
    hidden = np.asarray(hidden, dtype=np.float64)
    return _encode(Tensor(hidden[None]), which, _untracked(weights), config).data[0]


def cross_modal_decode(h_motion, h_audio, weights: dict, config: ModelConfig) -> np.ndarray:
    """Decode N future frames from encoded motion and audio sequences."""
    h_motion = np.asarray(h_motion, dtype=np.float64)
    h_audio = np.asarray(h_audio, dtype=np.float64)
    return _decode(Tensor(h_motion[None]), Tensor(h_audio[None]),
                   _untracked(weights), config).data[0]


def predict_future(weights: dict, config: ModelConfig, seed_motion, audio_window) -> np.ndarray:
    """Full pipeline on one (seed window, audio window) pair -> (N, 219)."""
    seed_motion = np.asarray(seed_motion, dtype=np.float64)
    audio_window = np.asarray(audio_window, dtype=np.float64)
    return forward(_untracked(weights), config, seed_motion[None], audio_window[None]).data[0]


def autoregressive_generate(seed_motion, audio_features, steps: int,
                            weights: dict, config: ModelConfig) -> np.ndarray:
    """Keep-first sliding-window generation of `steps` motion frames."""
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
    window = seed_motion.copy()
    produced = []
    for s in range(steps):
        audio_window = audio_features[s:s + config.audio_frames]
        first = forward(frozen, config, window[None], audio_window[None]).data[0, 0]
        produced.append(first)
        window = np.vstack([window[1:], first[None]])
    return np.array(produced)


# checkpoint I/O

def config_to_dict(config: ModelConfig) -> dict:
    return asdict(config)


def config_from_dict(doc: dict) -> ModelConfig:
    known = {f.name for f in fields(ModelConfig)}
    unknown = set(doc) - known
    if unknown:
        raise MalformedFile(f"unknown config keys: {sorted(unknown)}")
    return ModelConfig(**doc)


def save_checkpoint(path: str, weights: dict, config: ModelConfig):
    tensors = {}
    for name in sorted(weights):
        data = weights[name].data
        tensors[name] = {"shape": list(data.shape),
                         "values": [float(v) for v in data.reshape(-1)]}
    doc = {"format": CHECKPOINT_FORMAT,
           "config": config_to_dict(config),
           "tensors": tensors}
    atomic_write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_checkpoint(path: str):
    """Read a checkpoint back into (weights, config).

    The tensor names and shapes must be exactly those init_weights builds
    for the stored config (weight_shapes); anything else is a MalformedFile naming the
    file and the tensor.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedFile(f"cannot parse checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise MalformedFile(f"{path} is not a {CHECKPOINT_FORMAT} checkpoint")
    config_doc = doc.get("config", {})
    if not isinstance(config_doc, dict):
        raise MalformedFile(f"{path}: 'config' is not an object")
    try:
        config = config_from_dict(config_doc)
    except (TypeError, ValueError, QuatMotionError) as exc:
        raise MalformedFile(f"{path}: bad config: {exc}") from exc
    tensors = doc.get("tensors", {})
    if not isinstance(tensors, dict):
        raise MalformedFile(f"{path}: 'tensors' is not an object")
    expected = weight_shapes(config)
    missing = sorted(set(expected) - set(tensors))
    if missing:
        raise MalformedFile(f"{path}: tensor {missing[0]} is missing "
                            f"({len(missing)} missing in all)")
    extra = sorted(set(tensors) - set(expected))
    if extra:
        raise MalformedFile(f"{path}: unexpected tensor {extra[0]} "
                            f"({len(extra)} unexpected in all)")
    weights = {}
    for name, entry in tensors.items():
        try:
            values = np.array(entry["values"], dtype=np.float64)
            shape = tuple(int(n) for n in entry["shape"])
        except (TypeError, KeyError, ValueError) as exc:
            raise MalformedFile(f"{path}: tensor {name} is malformed: {exc!r}") from exc
        if shape != expected[name]:
            raise MalformedFile(f"{path}: tensor {name} has shape {shape}, "
                                f"expected {expected[name]}")
        if values.shape != (int(np.prod(shape, dtype=np.int64)),):
            raise MalformedFile(f"{path}: tensor {name} length does not match its shape")
        arr = values.reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise MalformedFile(f"{path}: tensor {name} contains non-finite values")
        weights[name] = Tensor(arr, requires_grad=True)
    return weights, config
