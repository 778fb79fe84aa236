"""L2-supervised training with Adam and a step-decay learning rate.

The sampler draws (pair, offset) windows with a seeded generator, so a
fixed rng_seed fixes the minibatch sequence, the loss trace, and the
final checkpoint bytes. Loss is averaged over all entries, keeping the
learning rate scale-free across desk and full-size configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor, mean_, mul, sub
from .errors import DimensionMismatch, NonFiniteGradient, NonFiniteLoss
from .features import AUDIO_DIMS, MOTION_DIMS, atomic_write
from .model import ModelConfig, forward, save_checkpoint


@dataclass
class TrainConfig:
    """Optimization hyperparameters. Defaults are the desk scale."""

    batch_size: int = 8
    lr_init: float = 1e-4
    decay_steps: tuple = ((2000, 1e-5), (4000, 1e-6))
    total_steps: int = 5000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0  # global gradient norm; 0 disables clipping
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "total_steps"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be int, got {type(value).__name__} {value!r}")
        self.decay_steps = tuple((int(s), float(lr)) for s, lr in self.decay_steps)
        bounds = [s for s, _ in self.decay_steps]
        rates = [lr for _, lr in self.decay_steps]
        if bounds != sorted(set(bounds)):
            raise ValueError("decay boundaries must be strictly increasing")
        if not (math.isfinite(self.lr_init) and self.lr_init > 0):
            raise ValueError(f"lr_init must be finite and > 0, got {self.lr_init!r}")
        if not all(math.isfinite(lr) and lr > 0 for lr in rates):
            raise ValueError(f"decay_steps rates must be finite and > 0, got {rates!r}")
        if any(b >= a for a, b in zip([self.lr_init] + rates, rates)):
            raise ValueError("decayed learning rates must be strictly decreasing")
        for name in ("beta1", "beta2"):
            # NaN fails every comparison, so the negated range rejects it
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps!r}")
        if not (math.isfinite(self.clip_norm) and self.clip_norm >= 0):
            raise ValueError(f"clip_norm must be finite and >= 0, got {self.clip_norm!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")

    @staticmethod
    def full_scale() -> "TrainConfig":
        return TrainConfig(batch_size=16, decay_steps=((90000, 1e-5), (150000, 1e-6)),
                           total_steps=500000)


def l2_loss(pred, target):
    """Mean squared difference over all entries.

    Tensor inputs stay on the tape and yield a scalar Tensor; plain
    arrays yield a float.
    """
    if isinstance(pred, Tensor) or isinstance(target, Tensor):
        p = pred if isinstance(pred, Tensor) else Tensor(pred)
        t = target if isinstance(target, Tensor) else Tensor(target)
        if p.shape != t.shape:
            raise DimensionMismatch(f"loss shapes differ: {p.shape} vs {t.shape}")
        d = sub(p, t)
        return mean_(mul(d, d))
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionMismatch(f"loss shapes differ: {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


def lr_at(step: int, config: TrainConfig) -> float:
    """Piecewise-constant rate; each boundary takes effect at its own step."""
    if step < 0:
        raise ValueError(f"step must be nonnegative, got {step}")
    lr = config.lr_init
    for boundary, value in config.decay_steps:
        if step >= boundary:
            lr = value
    return lr


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def init_adam(weights: dict) -> AdamState:
    state = AdamState()
    for name, tensor in weights.items():
        state.m[name] = np.zeros_like(tensor.data)
        state.v[name] = np.zeros_like(tensor.data)
    return state


def adam_step(weights: dict, grads: dict, state: AdamState, lr: float, config: TrainConfig):
    """Standard bias-corrected Adam update, in place and in sorted name order.

    The moments, the step and the weights are updated in place with the
    operations of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    w -= lr*(m/c1) / (sqrt(v/c2) + eps) in their written order, so the
    result is bit-identical to evaluating those expressions.
    """
    for name in sorted(grads):
        if not np.all(np.isfinite(grads[name])):
            raise NonFiniteGradient(f"gradient of {name} is not finite")
    state.step += 1
    c1 = 1.0 - config.beta1 ** state.step
    c2 = 1.0 - config.beta2 ** state.step
    for name in sorted(weights):
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(weights[name].data)
        m, v = state.m[name], state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        sq = g * g
        sq *= 1.0 - config.beta2
        v += sq
        step = m / c1
        step *= lr
        np.divide(v, c2, out=sq)
        np.sqrt(sq, out=sq)
        sq += config.eps
        step /= sq
        weights[name].data -= step
    return state


def window_span(config: ModelConfig) -> int:
    """Frames a training window needs: seed + future on the motion side,
    the full audio window on the other, aligned at the initial frame."""
    return max(config.audio_frames, config.seed_motion_frames + config.future_frames)


def check_dataset(dataset, config: ModelConfig):
    if not dataset:
        raise ValueError("dataset is empty")
    span = window_span(config)
    for i, (audio, motion) in enumerate(dataset):
        audio = np.asarray(audio)
        motion = np.asarray(motion)
        if audio.ndim != 2 or audio.shape[1] != AUDIO_DIMS:
            raise DimensionMismatch(f"pair {i}: audio must have {AUDIO_DIMS} channels")
        if motion.ndim != 2 or motion.shape[1] != MOTION_DIMS:
            raise DimensionMismatch(f"pair {i}: motion must have {MOTION_DIMS} channels")
        if audio.shape[0] != motion.shape[0]:
            raise DimensionMismatch(f"pair {i}: audio and motion frame counts differ")
        if audio.shape[0] < span:
            raise DimensionMismatch(
                f"pair {i} has {audio.shape[0]} frames but windows need {span}")


def sample_windows(dataset, config: ModelConfig, batch_size: int, rng: np.random.Generator):
    """Seeded draw of (pair, offset) windows, stacked into batch arrays."""
    span = window_span(config)
    motion = np.empty((batch_size, config.seed_motion_frames, MOTION_DIMS))
    audio = np.empty((batch_size, config.audio_frames, AUDIO_DIMS))
    target = np.empty((batch_size, config.future_frames, MOTION_DIMS))
    for b in range(batch_size):
        idx = int(rng.integers(0, len(dataset)))
        a, m = dataset[idx]
        offset = int(rng.integers(0, a.shape[0] - span + 1))
        motion[b] = m[offset:offset + config.seed_motion_frames]
        audio[b] = a[offset:offset + config.audio_frames]
        start = offset + config.seed_motion_frames
        target[b] = m[start:start + config.future_frames]
    return motion, audio, target


def train_steps(weights: dict, dataset, train_config: TrainConfig, model_config: ModelConfig):
    """The training loop one step at a time: yields (step, lr, loss) after each
    Adam update, so a caller can stop as soon as it has seen what it needs."""
    check_dataset(dataset, model_config)
    dataset = [(np.asarray(a, dtype=np.float64), np.asarray(m, dtype=np.float64))
               for a, m in dataset]
    rng = np.random.default_rng(train_config.rng_seed)
    state = init_adam(weights)
    names = sorted(weights)
    for step in range(train_config.total_steps):
        # the previous step's gradients are spent: free them before this
        # step's forward rather than hold them through it
        for name in names:
            weights[name].zero_grad()
        motion, audio, target = sample_windows(dataset, model_config,
                                               train_config.batch_size, rng)
        pred = forward(weights, model_config, motion, audio)
        loss_t = l2_loss(pred, target)
        loss = float(loss_t.data)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss became non-finite at step {step}")
        loss_t.backward()
        # the tape holds every activation its VJPs saved; drop it now rather
        # than keep it alive through the next step's forward
        del pred, loss_t
        grads = {name: (weights[name].grad if weights[name].grad is not None
                        else np.zeros_like(weights[name].data))
                 for name in names}
        if train_config.clip_norm > 0:
            total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if total > train_config.clip_norm:
                scale = train_config.clip_norm / total
                grads = {name: g * scale for name, g in grads.items()}
        lr = lr_at(step, train_config)
        adam_step(weights, grads, state, lr, train_config)
        # a clipped copy must not outlive the step; the leaves keep the raw
        # gradient until the next step starts
        del grads
        yield step, lr, loss


def train(weights: dict, dataset, train_config: TrainConfig, model_config: ModelConfig,
          loss_csv_path: str = None, checkpoint_path: str = None):
    """Run the full loop; returns the loss trace as (step, lr, loss) rows."""
    trace = list(train_steps(weights, dataset, train_config, model_config))
    if loss_csv_path is not None:
        write_loss_csv(loss_csv_path, trace)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, weights, model_config)
    return trace


def write_loss_csv(path: str, trace):
    lines = ["step,lr,loss"]
    lines += [f"{step},{lr:.17g},{loss:.17g}" for step, lr, loss in trace]
    atomic_write(path, "\n".join(lines) + "\n")
