"""L2-supervised training with Adam and a step-decay learning rate.

The sampler draws (pair, offset) windows with a seeded generator, so a
fixed rng_seed fixes the minibatch sequence, the loss trace, and the
final checkpoint bytes. Loss is averaged over all entries, keeping the
learning rate scale-free across desk and full-size configurations.

Each step splits its batch into two fixed shards (synchronous data
parallelism): rows [0, ceil(B/2)) and [ceil(B/2), B), each with its
l2_loss weighted by its share of the batch, so the shard losses sum to
the mean over all entries and shard 1's leaf gradients are added to
shard 0's. One step body, _steps, runs every step. Where a second core
is free, the parent and a forked worker both run it: each runs one
shard, and then the sum, check, clip and Adam update of its half of the
weights, trading only what the other lacks (see _worker_may_run and
_ShardWorker). Otherwise the parent runs it alone, with both shards and
every weight (_Alone). The numbers are the same either way.
"""

from __future__ import annotations

import itertools
import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from . import forked
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
        for name in ("batch_size", "total_steps", "rng_seed"):
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
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")

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
    result is bit-identical to evaluating those expressions. The
    gradients must be finite: a training step checks them before its
    update (see _check).
    """
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


# A worker pays for its fork from this many steps on. Worker time over
# in-process time of whole calls at desk batch 8, 10 alternating raw
# pairs each on 2 vCPUs: 1 step 0.98 (the worker won 7 of 10), 2 steps
# 0.93 (10 of 10), 3 steps 0.68 (10 of 10), 5 steps 0.73, 10 steps 0.62.
# One- and two-step calls stay in-process: their gain is a few percent
# at desk scale, and a smaller model's short step does not cover the
# fork and the reaping (about 3 and 5 ms).
_WORKER_MIN_STEPS = 3


def _worker_may_run(total_steps: int) -> bool:
    """Whether shard 1 of each step may run in a forked worker: a run of
    at least _WORKER_MIN_STEPS steps, where forked.may_fork allows it."""
    return total_steps >= _WORKER_MIN_STEPS and forked.may_fork()


def _shards(batch_size: int) -> list:
    """(rows, loss weight) of each shard: rows [0, ceil(B/2)) and
    [ceil(B/2), B), weighted n_i/B; a batch of one has one shard."""
    cut = (batch_size + 1) // 2
    bounds = [(0, cut), (cut, batch_size)] if batch_size > 1 else [(0, 1)]
    return [(slice(lo, hi), (hi - lo) / batch_size) for lo, hi in bounds]


def _shard_pass(weights: dict, config: ModelConfig, motion, audio, target,
                scale: float) -> float:
    """Forward and backward of one shard; returns its weighted loss.

    The gradients accumulate into the leaves. A non-finite loss is
    returned without a backward, for the caller to reject. The tape dies
    on return, before the next shard's forward.
    """
    loss_t = mul(l2_loss(forward(weights, config, motion, audio), target), scale)
    loss = float(loss_t.data)
    if np.isfinite(loss):
        loss_t.backward()
    return loss


def _reduce(leaves: dict, names) -> tuple:
    """The clip norm's square sums float((g * g).sum()) and the finiteness
    flags of the leaves' gradients over `names`, in their order. A leaf
    that no shard reached has no gradient and counts as zeros."""
    squares, finite = [], []
    for name in names:
        g = leaves[name].grad
        if g is None:
            squares.append(0.0)
            finite.append(True)
            continue
        sq = float((g * g).sum())
        squares.append(sq)
        # a finite sum of squares has only finite terms
        finite.append(math.isfinite(sq) or bool(np.isfinite(g).all()))
    return squares, finite


def _check(step: int, loss: float, names, finite):
    """The step's one finiteness check: the loss, then the gradients'
    flags from _reduce in sorted name order, naming the first bad one."""
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss became non-finite at step {step}")
    for name, ok in zip(names, finite):
        if not ok:
            raise NonFiniteGradient(f"gradient of {name} is not finite")


def _clip_scale(squares: list, config: TrainConfig):
    """The factor that brings the global norm down to clip_norm, or None
    when the norm is within it. The per-name squares are summed in sorted
    name order, whichever process computed them."""
    if config.clip_norm > 0:
        total = np.sqrt(sum(squares))
        if total > config.clip_norm:
            return config.clip_norm / total
    return None


def _update(leaves: dict, names, scale, state: AdamState, lr: float, config: TrainConfig):
    """Adam over `names` on the leaves' gradients, times `scale` unless it
    is None. Adam is elementwise, so an update split over name subsets
    gives the bits of one over all names; a clipped copy dies on return,
    and the leaves keep the raw gradient until the next step starts."""
    grads = {name: leaves[name].grad if scale is None else leaves[name].grad * scale
             for name in names if leaves[name].grad is not None}
    adam_step({name: leaves[name] for name in names}, grads, state, lr, config)


def _split_point(sizes: list) -> int:
    """Where a list of leaf sizes splits into a prefix and a rest of about
    equal element count."""
    prefix = list(itertools.accumulate(sizes, initial=0))
    return min(range(len(prefix)), key=lambda k: abs(2 * prefix[k] - prefix[-1]))


class _Alone:
    """The peer of an in-process run: the one process runs both shards
    and owns every name, so no exchange has anything to move."""

    def __init__(self, weights: dict, names: list, shards: list):
        self.shards, self.names, self.state = shards, names, init_adam(weights)

    def begin(self):
        pass

    def trade(self, leaves: dict, losses: list) -> list:
        return losses

    def gather(self, squares: list, finite: list) -> tuple:
        return squares, finite

    def end(self):
        pass

    def close(self, weights: dict):
        pass


class _ShardWorker:
    """The peer of a worker run: a forked process runs shard 1 of every
    step on the idle core, and each process sums and updates half of the
    weights.

    One anonymous shared mmap, made before the fork, is the run's
    parameter arena: the weights, both Adam moments and one gradient slot
    per leaf; per leaf the square sum of its summed gradient; both shard
    losses; and per leaf the shards' reached flags and a finiteness flag.
    For the run, the leaves hold views of the arena's weights in both
    processes. The sorted names split into two halves of about equal
    element count (see _split_point). Rank 0, the parent, runs shard 0
    and owns the prefix; rank 1, the worker, runs shard 1 and owns the
    rest. Both run _steps from the same state of the seeded generator,
    so each draws the whole batch and keeps its own shard's rows. A step
    is four one-byte exchanges over two pipes; nothing is pickled:

    1. begin (parent to worker), sent once the caller has resumed the
       parent, so the worker's shard reads the weights the caller left.
    2. trade (both ways): each process has written its shard's loss and
       its shard's gradients of the other's half into the arena. Each then
       sums g0 + g1 of its own half into its slots.
    3. gather (both ways): each process has written the square sums and
       finiteness flags of its half. Both now hold every loss, square sum
       and flag, so each reaches the same check and clip decision itself.
    4. end (worker to parent): the worker's half is updated.

    The worker leaves through os._exit (see forked.Link): quietly on EOF,
    which it meets once the parent has closed its end of the pipe, and on
    a failed check, which the parent raises as well; with a traceback on
    any other error.
    """

    def __init__(self, weights: dict, names: list, shards: list, steps):
        count = len(names)
        shapes = [weights[name].data.shape for name in names] * 4 + [(count,), (2,)]
        sizes = [math.prod(shape) for shape in shapes]
        self._arena = mmap.mmap(-1, 8 * sum(sizes) + 3 * count)
        floats = np.frombuffer(self._arena, dtype=np.float64, count=sum(sizes))
        views, offset = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(floats[offset:offset + size].reshape(shape))
            offset += size
        self._names = names
        self._weights, self._m, self._v, self._grads = (
            dict(zip(names, views[i * count:(i + 1) * count])) for i in range(4))
        self._squares, self._losses = views[4 * count:]
        flags = np.frombuffer(self._arena, dtype=np.uint8, count=3 * count,
                              offset=8 * offset).reshape(3, count)
        # [shard] whether that shard's tape reached the leaf; [2] whether
        # the leaf's summed gradient is finite
        self._reached, self._finite = flags[:2], flags[2]
        cut = _split_point(sizes[:count])
        # the names each rank owns, as indices into `names`
        self._halves = (range(cut), range(cut, count))
        for name, view in self._weights.items():
            view[...] = weights[name].data
        try:
            self._link = forked.Link("the training worker for shard 1")
        except OSError:
            self._release()
            raise
        self.rank = int(self._link.worker)
        half = self._halves[self.rank]
        self.shards = shards[self.rank:self.rank + 1]
        self.names = names[half.start:half.stop]
        self.state = AdamState({name: self._m[name] for name in self.names},
                               {name: self._v[name] for name in self.names})
        self._originals = {name: weights[name].data for name in names}
        for name, view in self._weights.items():
            weights[name].data = view
        if self.rank:
            def run():
                for _ in steps(self):
                    pass
            # the parent reaches the same failed check and raises it
            self._link.serve(run, quiet=(NonFiniteLoss, NonFiniteGradient))

    def begin(self):
        """Exchange 1: the caller has resumed the parent."""
        if self.rank:
            self._link.hear()
        else:
            self._link.tell()

    def trade(self, leaves: dict, losses: list) -> list:
        """Exchange 2: trade the shards' losses and the halves' shard
        gradients, then sum this rank's half; returns both shard losses."""
        self._losses[self.rank] = losses[0]
        for i, name in enumerate(self._names):
            self._reached[self.rank, i] = leaves[name].grad is not None
        for i in self._halves[1 - self.rank]:
            name = self._names[i]
            if leaves[name].grad is not None:
                self._grads[name][...] = leaves[name].grad
        self._link.tell()
        self._link.hear()
        self._take(leaves)
        return self._losses.tolist()

    def _take(self, leaves: dict):
        """Point the leaves that either shard reached at their slots. In
        this rank's half, first add the other shard's gradients in the
        slots to the leaves' own: IEEE addition commutes, so these are the
        bits of g0 + g1. The other rank sums the other half."""
        mine = self._halves[self.rank]
        for i, name in enumerate(self._names):
            leaf, slot = leaves[name], self._grads[name]
            reached = self._reached[1 - self.rank, i]
            if i in mine and leaf.grad is not None:
                if reached:
                    np.add(slot, leaf.grad, out=slot)
                else:
                    slot[...] = leaf.grad
            elif leaf.grad is None and not reached:
                continue
            leaf.grad = slot

    def gather(self, squares: list, finite: list) -> tuple:
        """Exchange 3: both halves' square sums and finiteness flags, in
        sorted name order, from this rank's own."""
        half = self._halves[self.rank]
        self._squares[half.start:half.stop] = squares
        self._finite[half.start:half.stop] = finite
        self._link.tell()
        self._link.hear()
        # plain lists: a view held in a frame would keep the arena open
        return self._squares.tolist(), self._finite.tolist()

    def end(self):
        """Exchange 4: the worker's half is updated."""
        if self.rank:
            self._link.tell()
        else:
            self._link.hear()

    def close(self, weights: dict):
        """Stop the worker, then give the caller's leaves back their own
        arrays, holding the arena's values, and private copies of the
        gradients the arena holds."""
        try:
            self._link.close()
        finally:
            for name, original in self._originals.items():
                leaf = weights[name]
                original[...] = self._weights[name]
                leaf.data = original
                if leaf.grad is self._grads[name]:
                    leaf.grad = leaf.grad.copy()
            self._release()

    def _release(self):
        # the arena cannot close while numpy views export its buffer
        del self._weights, self._m, self._v, self._grads, self._squares, self._losses
        del self._reached, self._finite
        self.state = None
        try:
            self._arena.close()
        except BufferError:
            # a caller kept a view it read at a yield: the mapping then
            # lives until that view dies
            pass


def _steps(peer, weights: dict, names: list, dataset, rng, train_config: TrainConfig,
           model_config: ModelConfig):
    """The step body both processes of a worker run, and an in-process
    run, execute; yields (step, lr, loss) after each update. The peer
    (_Alone or _ShardWorker) holds this process's shards, names and Adam
    state, and moves between the processes what each lacks."""
    for step in range(train_config.total_steps):
        peer.begin()
        # the previous step's gradients are spent: free them before this
        # step's forward rather than hold them through it
        for name in names:
            weights[name].zero_grad()
        motion, audio, target = sample_windows(dataset, model_config,
                                               train_config.batch_size, rng)
        losses = [_shard_pass(weights, model_config, motion[rows], audio[rows],
                              target[rows], scale) for rows, scale in peer.shards]
        loss = sum(peer.trade(weights, losses))
        squares, finite = peer.gather(*_reduce(weights, peer.names))
        _check(step, loss, names, finite)
        scale = _clip_scale(squares, train_config)
        lr = lr_at(step, train_config)
        _update(weights, peer.names, scale, peer.state, lr, train_config)
        peer.end()
        yield step, lr, loss


def train_steps(weights: dict, dataset, train_config: TrainConfig, model_config: ModelConfig):
    """The training loop one step at a time: yields (step, lr, loss) after each
    Adam update, so a caller can stop as soon as it has seen what it needs.

    Each step runs the batch as two shards (see _shards); the step's loss
    is L0 + L1 and the leaves hold g0 + g1. The step body is _steps: it
    draws the batch, runs the shards, sums their gradients, runs _reduce,
    checks the loss and the gradients in sorted name order (_check), then
    _clip_scale and _update. When _worker_may_run allows it, the parent
    and a forked worker that this generator owns both run it, each with
    one shard and half of the names (see _ShardWorker); the worker is
    closed when the generator ends, is closed or raises. Otherwise the
    parent runs it alone. The numbers are the same either way. At each
    yield the leaves' data hold the current weights; after the run each
    leaf's data is the array it held before the call, and its grad holds
    the last step's raw gradient.
    """
    check_dataset(dataset, model_config)
    dataset = [(np.asarray(a, dtype=np.float64), np.asarray(m, dtype=np.float64))
               for a, m in dataset]
    rng = np.random.default_rng(train_config.rng_seed)
    names = sorted(weights)
    shards = _shards(train_config.batch_size)

    def steps(peer):
        return _steps(peer, weights, names, dataset, rng, train_config, model_config)

    if len(shards) == 2 and _worker_may_run(train_config.total_steps):
        peer = _ShardWorker(weights, names, shards, steps)
    else:
        peer = _Alone(weights, names, shards)
    try:
        yield from steps(peer)
    finally:
        peer.close(weights)


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
