"""Optimizer math, window sampling, the training loop, trace files."""

import contextlib
import dataclasses
import math
import mmap
import os
import signal
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from quatmotion import forked, model, training
from quatmotion.autograd import Tensor
from quatmotion.errors import (DimensionMismatch, NonFiniteGradient, NonFiniteLoss,
                               QuatMotionError)
from quatmotion.features import synth_pair
from quatmotion.model import ModelConfig, load_checkpoint
from quatmotion.training import AdamState, TrainConfig


def _tiny_dataset():
    return [synth_pair(0, seconds=0.2, beat_period_frames=4),
            synth_pair(1, seconds=0.2, beat_period_frames=4)]


@pytest.fixture
def quick_train_config():
    return TrainConfig(batch_size=2, total_steps=6, rng_seed=3,
                       decay_steps=((3, 1e-5), (5, 1e-6)))


class TestTrainConfig:
    def test_desk_defaults(self):
        c = TrainConfig()
        assert c.batch_size == 8
        assert c.lr_init == 1e-4
        assert c.decay_steps == ((2000, 1e-5), (4000, 1e-6))
        assert c.total_steps == 5000
        assert (training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS) == (0.9, 0.999, 1e-8)
        assert training.CLIP_NORM == 1.0
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "batch_size", "lr_init", "decay_steps", "total_steps", "rng_seed"]

    def test_full_scale_schedule(self):
        c = TrainConfig.full_scale()
        assert c.batch_size == 16
        assert c.decay_steps == ((90000, 1e-5), (150000, 1e-6))
        assert c.total_steps == 500000

    @pytest.mark.parametrize("kwargs", [
        {"lr_init": 0.0},
        {"lr_init": -1e-4},
        {"decay_steps": ((4000, 1e-5), (2000, 1e-6))},   # boundaries reversed
        {"decay_steps": ((2000, 1e-5), (2000, 1e-6))},   # duplicate boundary
        {"decay_steps": ((2000, 1e-3),)},                # rate increases
        {"decay_steps": ((2000, -1e-5),)},
        {"batch_size": 0},
        {"total_steps": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    # a value out of range is a ValueError, one of the wrong type a TypeError;
    # both name the field. The ids keep the kwargs<i>-<field> form.
    _REJECTED = [
        ({"lr_init": float("nan")}, "lr_init", ValueError),
        ({"lr_init": float("inf")}, "lr_init", ValueError),
        ({"decay_steps": ((2000, float("nan")),)}, "decay_steps", ValueError),
        ({"decay_steps": ((2000, 1e-5), (4000, float("-inf")))}, "decay_steps", ValueError),
        ({"lr_init": True}, "lr_init", TypeError),
        ({"lr_init": "1e-4"}, "lr_init", TypeError),
        ({"lr_init": None}, "lr_init", TypeError),
        ({"decay_steps": 5}, "decay_steps", TypeError),
        ({"decay_steps": (5, 1e-5)}, "decay_steps", TypeError),    # one pair, not a tuple of them
        ({"decay_steps": "2000:1e-5"}, "decay_steps", TypeError),
        ({"decay_steps": ((5, "1e-5"),)}, "decay_steps", TypeError),
        ({"decay_steps": ((5, True),)}, "decay_steps", TypeError),
        ({"decay_steps": ((5, None),)}, "decay_steps", TypeError),
        ({"decay_steps": ((5, 1e-5, 7),)}, "decay_steps", TypeError),
        ({"batch_size": 8.0}, "batch_size", TypeError),
        ({"batch_size": True}, "batch_size", TypeError),
        ({"total_steps": 10.0}, "total_steps", TypeError),
        ({"total_steps": False}, "total_steps", TypeError),
        ({"decay_steps": ((1.5, 1e-5),)}, "decay_steps", TypeError),
        ({"decay_steps": ((True, 1e-5),)}, "decay_steps", TypeError),
        ({"decay_steps": ((float("inf"), 1e-5),)}, "decay_steps", TypeError),
    ]

    @pytest.mark.parametrize("kwargs,field,error", _REJECTED,
                             ids=[f"kwargs{i}-{case[1]}" for i, case in enumerate(_REJECTED)])
    def test_rejects_naming_the_field(self, kwargs, field, error):
        with pytest.raises(error, match=field):
            TrainConfig(**kwargs)


class TestL2Loss:
    def test_array_hand_case(self):
        assert training.l2_loss(np.array([1.0, 2.0]), np.zeros(2)) == 2.5

    def test_tensor_gradient_is_two_diff_over_n(self, rng):
        pred = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        target = rng.standard_normal((3, 4))
        loss = training.l2_loss(pred, target)
        loss.backward()
        np.testing.assert_allclose(pred.grad, 2.0 * (pred.data - target) / 12.0,
                                   atol=1e-15)
        assert float(loss.data) == pytest.approx(np.mean((pred.data - target) ** 2))

    def test_shape_gates(self):
        with pytest.raises(DimensionMismatch):
            training.l2_loss(np.zeros(3), np.zeros(4))
        with pytest.raises(DimensionMismatch):
            training.l2_loss(Tensor(np.zeros(3)), np.zeros(4))


class TestLrSchedule:
    @pytest.mark.parametrize("step,want", [
        (0, 1e-4), (1999, 1e-4),
        (2000, 1e-5), (3999, 1e-5),   # boundary steps already decayed
        (4000, 1e-6), (4999, 1e-6), (10 ** 6, 1e-6),
    ])
    def test_desk_boundaries(self, step, want):
        assert training.lr_at(step, TrainConfig()) == want

    @pytest.mark.parametrize("step,want", [
        (89999, 1e-4), (90000, 1e-5), (149999, 1e-5), (150000, 1e-6),
    ])
    def test_full_scale_boundaries(self, step, want):
        assert training.lr_at(step, TrainConfig.full_scale()) == want

    def test_negative_step(self):
        with pytest.raises(ValueError):
            training.lr_at(-1, TrainConfig())


class TestAdam:
    def test_first_step_displacement(self):
        # unit gradient: m/c1 = v/c2 = 1 exactly, so the move is lr/(1+eps)
        weights = {"p": Tensor(np.array([0.0]), requires_grad=True)}
        state = training.init_adam(weights)
        training.adam_step(weights, {"p": np.array([1.0])}, state, 0.1)
        assert weights["p"].data[0] == -(0.1 / (1.0 + 1e-8))
        assert state.step == 1

    def test_constant_gradient_moves_linearly(self):
        weights = {"p": Tensor(np.array([0.0]), requires_grad=True)}
        state = training.init_adam(weights)
        for _ in range(5):
            training.adam_step(weights, {"p": np.array([1.0])}, state, 0.01)
        assert weights["p"].data[0] == pytest.approx(-5 * 0.01 / (1.0 + 1e-8), rel=1e-12)

    def test_sign_follows_gradient(self, rng):
        g = rng.standard_normal(6)
        weights = {"p": Tensor(np.zeros(6), requires_grad=True)}
        training.adam_step(weights, {"p": g}, training.init_adam(weights), 0.1)
        assert np.all(np.sign(weights["p"].data) == -np.sign(g))

    def test_missing_gradient_leaves_weight_alone(self):
        weights = {"a": Tensor(np.array([1.0]), requires_grad=True),
                   "b": Tensor(np.array([2.0]), requires_grad=True)}
        state = training.init_adam(weights)
        training.adam_step(weights, {"a": np.array([1.0])}, state, 0.1)
        assert weights["a"].data[0] != 1.0
        assert weights["b"].data[0] == 2.0

    def test_updates_in_place(self):
        t = Tensor(np.array([0.0]), requires_grad=True)
        weights = {"p": t}
        training.adam_step(weights, {"p": np.array([1.0])},
                           training.init_adam(weights), 0.1)
        assert weights["p"] is t

    def test_matches_written_out_formula_bit_for_bit(self, rng):
        # the in-place update must round exactly like the plain expressions
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
        shapes = {"a": (3, 4), "b": (5,), "c": (2, 2, 3)}
        weights = {n: Tensor(rng.standard_normal(s), requires_grad=True)
                   for n, s in shapes.items()}
        want_w = {n: t.data.copy() for n, t in weights.items()}
        want_m = {n: np.zeros(s) for n, s in shapes.items()}
        want_v = {n: np.zeros(s) for n, s in shapes.items()}
        state = training.init_adam(weights)
        for step in range(1, 5):
            grads = {n: rng.standard_normal(s) * 10.0 ** step for n, s in shapes.items()}
            lr = 1e-3 / step
            training.adam_step(weights, grads, state, lr)
            c1 = 1.0 - b1 ** step
            c2 = 1.0 - b2 ** step
            for n, g in grads.items():
                want_m[n] = b1 * want_m[n] + (1.0 - b1) * g
                want_v[n] = b2 * want_v[n] + (1.0 - b2) * (g * g)
                want_w[n] = want_w[n] - lr * (want_m[n] / c1) / (np.sqrt(want_v[n] / c2) + eps)
                np.testing.assert_array_equal(state.m[n], want_m[n])
                np.testing.assert_array_equal(state.v[n], want_v[n])
                np.testing.assert_array_equal(weights[n].data, want_w[n])

    def test_state_starts_zeroed(self):
        weights = {"p": Tensor(np.zeros((2, 2)), requires_grad=True)}
        state = training.init_adam(weights)
        assert isinstance(state, AdamState)
        np.testing.assert_array_equal(state.m["p"], 0.0)
        np.testing.assert_array_equal(state.v["p"], 0.0)
        assert state.step == 0


class TestWindows:
    def test_window_span(self, tiny_model_config):
        assert training.window_span(ModelConfig()) == 60     # audio side dominates
        assert training.window_span(tiny_model_config) == 9
        tall = ModelConfig(seed_motion_frames=10, audio_frames=10, future_frames=5)
        assert training.window_span(tall) == 15              # motion side dominates

    def test_sample_alignment(self, tiny_model_config):
        # frame index written into channel 0 exposes the offsets
        frames = 30
        audio = np.zeros((frames, 35))
        motion = np.zeros((frames, 219))
        audio[:, 0] = np.arange(frames)
        motion[:, 0] = np.arange(frames)
        m, a, t = training.sample_windows([(audio, motion)], tiny_model_config,
                                          batch_size=16, rng=np.random.default_rng(0))
        for b in range(16):
            start = m[b, 0, 0]
            np.testing.assert_array_equal(m[b, :, 0], start + np.arange(6))
            np.testing.assert_array_equal(a[b, :, 0], start + np.arange(9))
            np.testing.assert_array_equal(t[b, :, 0], start + 6 + np.arange(2))
            assert start + training.window_span(tiny_model_config) <= frames

    def test_sampling_is_seeded(self, tiny_model_config):
        dataset = _tiny_dataset()
        draw1 = training.sample_windows(dataset, tiny_model_config, 4,
                                        np.random.default_rng(7))
        draw2 = training.sample_windows(dataset, tiny_model_config, 4,
                                        np.random.default_rng(7))
        for x, y in zip(draw1, draw2):
            np.testing.assert_array_equal(x, y)

    def test_check_dataset_gates(self, tiny_model_config):
        audio, motion = _tiny_dataset()[0]
        with pytest.raises(ValueError):
            training.check_dataset([], tiny_model_config)
        with pytest.raises(DimensionMismatch):
            training.check_dataset([(audio[:, :-1], motion)], tiny_model_config)
        with pytest.raises(DimensionMismatch):
            training.check_dataset([(audio, motion[:, :-1])], tiny_model_config)
        with pytest.raises(DimensionMismatch):
            training.check_dataset([(audio[:-1], motion)], tiny_model_config)
        with pytest.raises(DimensionMismatch):
            training.check_dataset([(audio[:5], motion[:5])], tiny_model_config)


class TestTrainLoop:
    def test_trace_rows(self, tiny_model_config, quick_train_config):
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        trace = training.train(weights, _tiny_dataset(), quick_train_config,
                               tiny_model_config)
        assert [row[0] for row in trace] == list(range(6))
        assert [row[1] for row in trace] == [
            training.lr_at(s, quick_train_config) for s in range(6)]
        assert all(np.isfinite(row[2]) and row[2] > 0 for row in trace)

    def test_step_generator_yields_the_trace_rows(self, tiny_model_config,
                                                  quick_train_config):
        trained = model.init_weights(tiny_model_config, np.random.default_rng(1))
        stepped = model.init_weights(tiny_model_config, np.random.default_rng(1))
        trace = training.train(trained, _tiny_dataset(), quick_train_config,
                               tiny_model_config)
        assert list(training.train_steps(stepped, _tiny_dataset(), quick_train_config,
                                         tiny_model_config)) == trace
        for name in trained:
            assert trained[name].data.tobytes() == stepped[name].data.tobytes()

    def test_step_generator_stops_where_the_caller_stops(self, tiny_model_config,
                                                         quick_train_config):
        # after one row, the weights hold exactly one Adam update
        stepped = model.init_weights(tiny_model_config, np.random.default_rng(1))
        first = next(training.train_steps(stepped, _tiny_dataset(), quick_train_config,
                                          tiny_model_config))
        trained = model.init_weights(tiny_model_config, np.random.default_rng(1))
        one_step = TrainConfig(batch_size=2, total_steps=1, rng_seed=3,
                               decay_steps=((3, 1e-5), (5, 1e-6)))
        assert training.train(trained, _tiny_dataset(), one_step, tiny_model_config) == [first]
        for name in trained:
            assert trained[name].data.tobytes() == stepped[name].data.tobytes()

    def test_zero_steps(self, tiny_model_config):
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        config = TrainConfig(batch_size=2, total_steps=0)
        assert training.train(weights, _tiny_dataset(), config, tiny_model_config) == []

    def test_artifacts_written(self, tiny_model_config, quick_train_config, tmp_path):
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        csv = tmp_path / "loss.csv"
        ckpt = tmp_path / "ckpt.json"
        trace = training.train(weights, _tiny_dataset(), quick_train_config,
                               tiny_model_config, loss_csv_path=str(csv),
                               checkpoint_path=str(ckpt))
        lines = csv.read_text().splitlines()
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 7
        for row, line in zip(trace, lines[1:]):
            step, lr, loss = line.split(",")
            assert int(step) == row[0]
            assert float(lr) == row[1]
            assert float(loss) == row[2]
        loaded, loaded_config = load_checkpoint(str(ckpt))
        assert loaded_config == tiny_model_config
        for name in weights:
            np.testing.assert_array_equal(loaded[name].data, weights[name].data)

    def test_run_is_byte_deterministic(self, tiny_model_config, quick_train_config,
                                       tmp_path):
        blobs = []
        for tag in ("one", "two"):
            weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
            csv = tmp_path / f"{tag}.csv"
            ckpt = tmp_path / f"{tag}.json"
            training.train(weights, _tiny_dataset(), quick_train_config,
                           tiny_model_config, loss_csv_path=str(csv),
                           checkpoint_path=str(ckpt))
            payload = tmp_path / f"{tag}.json.f64"
            blobs.append((csv.read_bytes(), ckpt.read_bytes(), payload.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_clip_gate_semantics(self, tiny_model_config, monkeypatch, fork_spy):
        # an enormous bound is never hit, so it lands on the weights of an
        # infinite one, while a tiny bound changes the path; the worker
        # reads the bound the parent set before the fork, so both paths
        # agree
        for may in (True, False):
            _force_worker(monkeypatch, may)
            results = {}
            for label, clip in (("off", math.inf), ("huge", 1e12), ("tiny", 1e-6)):
                monkeypatch.setattr(training, "CLIP_NORM", clip)
                weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
                config = TrainConfig(batch_size=2, total_steps=2, rng_seed=3)
                training.train(weights, _tiny_dataset(), config, tiny_model_config)
                results[label] = weights["out.w"].data.copy()
            np.testing.assert_array_equal(results["off"], results["huge"])
            assert not np.array_equal(results["off"], results["tiny"])
            assert len(fork_spy) == 3
        _assert_no_children()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_loss_raises(self, tiny_model_config, quick_train_config):
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        weights["out.b"].data[:] = 1e308  # squaring this overflows
        with pytest.raises(NonFiniteLoss):
            training.train(weights, _tiny_dataset(), quick_train_config,
                           tiny_model_config)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_gradient_rejected(self):
        # the step's one check reads _reduce's flags in sorted name order
        # and names the first bad gradient; a leaf without one counts as
        # zeros, and an overflowing square sum alone is not a failure
        leaves = {name: Tensor(np.zeros(2), requires_grad=True) for name in "abcd"}
        leaves["b"].grad = np.array([1e200, 1.0])
        leaves["c"].grad = np.array([1.0, np.nan])
        leaves["d"].grad = np.array([np.inf, 0.0])
        names = sorted(leaves)
        squares, finite = training._reduce(leaves, names)
        assert finite == [True, True, False, False] and squares[1] == np.inf
        with pytest.raises(NonFiniteGradient, match="gradient of c is"):
            training._check(0, 1.0, names, finite)
        with pytest.raises(NonFiniteLoss, match="step 4"):
            training._check(4, np.nan, names, finite)
        training._check(0, 1.0, names[:2], finite[:2])

    def test_training_reduces_loss_on_one_window(self, tiny_model_config):
        # single repeated window: 60 steps must cut the loss substantially
        audio, motion = synth_pair(0, seconds=0.2, beat_period_frames=4)
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        config = TrainConfig(batch_size=1, total_steps=60, rng_seed=0,
                             decay_steps=((10 ** 6, 1e-5),))
        trace = training.train(weights, [(audio[:9], motion[:9])], config,
                               tiny_model_config)
        assert trace[-1][2] < 0.5 * trace[0][2]


    def test_steps_do_not_hold_the_previous_tape(self, tiny_model_config, monkeypatch):
        # each step drops its tape after backward(), so the allocation peak
        # of three steps stays near that of one instead of adding a tape;
        # both run in-process, so that both peaks hold the same work
        monkeypatch.setattr(training, "_worker_may_run", lambda total_steps: False)

        def peak(steps):
            weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
            config = TrainConfig(batch_size=16, total_steps=steps)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in training.train_steps(weights, _tiny_dataset(), config,
                                              tiny_model_config):
                    pass
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        one, three = peak(1), peak(3)
        assert three <= 1.3 * one, (one, three)

    def test_paused_step_holds_one_gradient(self, monkeypatch):
        # between steps the loop holds Adam's two moments and the leaves'
        # raw gradient; the clipped copy dies with its step
        config = ModelConfig(d_model=32, heads=2, encoder_layers=1, decoder_layers=1,
                             periods=2, seed_motion_frames=6, audio_frames=9,
                             future_frames=2)
        weights = model.init_weights(config, np.random.default_rng(1))
        size = sum(w.data.nbytes for w in weights.values())
        dataset = _tiny_dataset()
        # a norm this small clips every step
        monkeypatch.setattr(training, "CLIP_NORM", 1e-6)
        train_config = TrainConfig(batch_size=2, total_steps=2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            steps = training.train_steps(weights, dataset, train_config, config)
            next(steps)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert all(w.grad is not None for w in weights.values())
        assert held < 3.5 * size, (held, size)
        steps.close()


class _Deadline(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds):
    """Raise _Deadline in the main thread if the block runs too long."""
    def fire(signum, frame):
        raise _Deadline(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    """The training workers made while the test runs."""
    made = []

    class Spy(training._ShardWorker):
        def __init__(self, *args):
            super().__init__(*args)
            # the arena's mapping, weakly: it is unmapped once nothing
            # holds it, and then this reads None
            self.arena = weakref.ref(self._link._region)
            made.append(self)

    monkeypatch.setattr(training, "_ShardWorker", Spy)
    return made


def _owner(array):
    """The object that owns an array's memory."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


def _assert_arena_released(weights, arrays, workers):
    """The leaves hold their own arrays again, nothing they hold lives in
    the arena, and the arena is unmapped, which a view left anywhere
    prevents."""
    assert len(workers) == 1 and workers[0].arena() is None
    for name, leaf in weights.items():
        assert leaf.data is arrays[name]
        for array in (leaf.data, leaf.grad):
            assert array is None or not isinstance(_owner(array), mmap.mmap)


def _force_worker(monkeypatch, may):
    monkeypatch.setattr(training, "_worker_may_run", lambda total_steps: may)


def _run(config, train_config, out=None):
    """Trace rows, weight bytes and grad bytes of one run; with out, also
    the bytes of the loss.csv, checkpoint and payload it writes there."""
    weights = model.init_weights(config, np.random.default_rng(1))
    names = ("loss.csv", "ckpt.json", "ckpt.json.f64") if out else ()
    files = {"loss_csv_path": str(out / names[0]),
             "checkpoint_path": str(out / names[1])} if out else {}
    trace = training.train(weights, _tiny_dataset(), train_config, config, **files)
    return (trace, {n: w.data.tobytes() for n, w in weights.items()},
            {n: w.grad.tobytes() for n, w in weights.items()},
            [(out / name).read_bytes() for name in names])


class TestShardedStep:
    @pytest.mark.parametrize("batch", [2, 3, 8])
    def test_worker_and_in_process_paths_agree_bit_for_bit(self, tiny_model_config,
                                                           monkeypatch, fork_spy, batch,
                                                           tmp_path):
        train_config = TrainConfig(batch_size=batch, total_steps=6, rng_seed=3,
                                   decay_steps=((3, 1e-5), (5, 1e-6)))
        results = []
        for may in (True, False):
            _force_worker(monkeypatch, may)
            out = tmp_path / str(may)
            out.mkdir()
            with _deadline(60):
                results.append(_run(tiny_model_config, train_config, out))
        assert len(fork_spy) == 1
        assert results[0] == results[1]
        _assert_no_children()

    @pytest.mark.parametrize("batch", [1, 2, 3, 8])
    def test_shard_losses_sum_to_the_full_batch_loss(self, tiny_model_config, batch):
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        motion, audio, target = training.sample_windows(
            _tiny_dataset(), tiny_model_config, batch, np.random.default_rng(5))
        full = training.l2_loss(model.forward(weights, tiny_model_config, motion, audio),
                                target)
        shards = training._shards(batch)
        assert len(shards) == (1 if batch == 1 else 2)
        assert sum(rows.stop - rows.start for rows, _ in shards) == batch
        total = 0.0
        for rows, scale in shards:
            pred = model.forward(weights, tiny_model_config, motion[rows], audio[rows])
            total += float(training.l2_loss(pred, target[rows]).data) * scale
        assert total == pytest.approx(float(full.data), rel=1e-14, abs=0)

    def test_no_worker_left_after_a_completed_run(self, tiny_model_config,
                                                  quick_train_config, monkeypatch,
                                                  fork_spy):
        _force_worker(monkeypatch, True)
        with _deadline(60):
            _run(tiny_model_config, quick_train_config)
        assert len(fork_spy) == 1
        _assert_no_children()

    def test_no_worker_left_after_the_caller_closes_early(self, tiny_model_config,
                                                          quick_train_config,
                                                          monkeypatch, fork_spy):
        _force_worker(monkeypatch, True)
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        with _deadline(60):
            steps = training.train_steps(weights, _tiny_dataset(), quick_train_config,
                                         tiny_model_config)
            next(steps)
            steps.close()
        assert len(fork_spy) == 1
        _assert_no_children()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_no_worker_left_after_a_non_finite_loss(self, tiny_model_config,
                                                    quick_train_config, monkeypatch,
                                                    fork_spy, capfd):
        # the worker reaches the same check and leaves quietly
        _force_worker(monkeypatch, True)
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        with _deadline(60):
            steps = training.train_steps(weights, _tiny_dataset(), quick_train_config,
                                         tiny_model_config)
            next(steps)
            weights["out.b"].data[:] = 1e308  # squaring this overflows in both shards
            with pytest.raises(NonFiniteLoss, match="step 1"):
                next(steps)
        assert len(fork_spy) == 1
        _assert_no_children()
        assert "Traceback" not in capfd.readouterr().err

    def test_interleaved_runs_close_without_hanging(self, tiny_model_config,
                                                    quick_train_config, monkeypatch,
                                                    fork_spy):
        # the second run's worker inherits the first's pipe, so the first
        # worker sees no EOF and is killed once the grace period is over
        _force_worker(monkeypatch, True)
        monkeypatch.setattr(forked, "GRACE_S", 0.2)
        runs = []
        with _deadline(60):
            for _ in range(2):
                weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
                runs.append(training.train_steps(weights, _tiny_dataset(),
                                                 quick_train_config, tiny_model_config))
                next(runs[-1])
            runs[0].close()
            assert len(list(runs[1])) == quick_train_config.total_steps - 1
        assert len(fork_spy) == 2
        _assert_no_children()

    def test_a_killed_worker_is_a_named_error(self, tiny_model_config,
                                              quick_train_config, monkeypatch, fork_spy):
        _force_worker(monkeypatch, True)
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        with _deadline(60):
            steps = training.train_steps(weights, _tiny_dataset(), quick_train_config,
                                         tiny_model_config)
            next(steps)
            os.kill(fork_spy[0], signal.SIGKILL)
            # wait for the death without reaping, so that the next step's
            # first write meets a closed pipe
            os.waitid(os.P_PID, fork_spy[0], os.WEXITED | os.WNOWAIT)
            with pytest.raises(QuatMotionError, match="killed by signal 9"):
                next(steps)
        _assert_no_children()

    @pytest.mark.parametrize("phase", ["_shard_pass", "_reduce", "adam_step"])
    def test_a_worker_killed_in_each_phase_is_a_named_error(self, tiny_model_config,
                                                            quick_train_config, monkeypatch,
                                                            fork_spy, workers, phase):
        # the worker dies in its shard, in the reduce of its half or in
        # the Adam update of its half
        _force_worker(monkeypatch, True)
        parent = os.getpid()
        real = getattr(training, phase)

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args, **kwargs)

        monkeypatch.setattr(training, phase, dying)
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        arrays = {name: leaf.data for name, leaf in weights.items()}
        with _deadline(60):
            with pytest.raises(QuatMotionError, match="killed by signal 9"):
                list(training.train_steps(weights, _tiny_dataset(), quick_train_config,
                                          tiny_model_config))
        assert len(fork_spy) == 1
        _assert_arena_released(weights, arrays, workers)
        _assert_no_children()

    @pytest.mark.parametrize("may", [True, False])
    def test_a_leaf_no_shard_reaches_keeps_no_gradient(self, tiny_model_config,
                                                       quick_train_config, monkeypatch,
                                                       fork_spy, may):
        # one unused leaf sorts first (the parent's half), one last (the
        # worker's half); the others train as they do without them
        _force_worker(monkeypatch, may)
        runs = []
        for unused in ((), ("a.unused", "z.unused")):
            weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
            for i, name in enumerate(unused):
                weights[name] = Tensor(np.arange(3.0 + i), requires_grad=True)
            with _deadline(60):
                trace = training.train(weights, _tiny_dataset(), quick_train_config,
                                       tiny_model_config)
            for i, name in enumerate(unused):
                assert weights[name].grad is None
                assert weights[name].data.tobytes() == np.arange(3.0 + i).tobytes()
                del weights[name]
            runs.append((trace, {n: (w.data.tobytes(), w.grad.tobytes())
                                 for n, w in weights.items()}))
        assert runs[0] == runs[1]
        assert len(fork_spy) == (2 if may else 0)
        _assert_no_children()

    def test_no_fork_while_another_thread_runs(self, tiny_model_config,
                                               quick_train_config, monkeypatch, fork_spy):
        may_run = training._worker_may_run
        _force_worker(monkeypatch, True)
        forked = _run(tiny_model_config, quick_train_config)
        assert len(fork_spy) == 1
        monkeypatch.setattr(training, "_worker_may_run", may_run)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            assert not may_run(quick_train_config.total_steps)
            with _deadline(60):
                alone = _run(tiny_model_config, quick_train_config)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert len(fork_spy) == 1
        assert alone == forked

    def test_back_to_back_runs_stress(self, tiny_model_config, monkeypatch, fork_spy):
        _force_worker(monkeypatch, True)
        train_config = TrainConfig(batch_size=3, total_steps=4, rng_seed=3)
        t0 = time.monotonic()
        with _deadline(120):
            runs = [_run(tiny_model_config, train_config) for _ in range(20)]
        assert len(fork_spy) == 20
        assert all(run == runs[0] for run in runs)
        assert time.monotonic() - t0 < 120
        _assert_no_children()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("ending", ["completed", "closed", "non-finite loss", "killed"])
    def test_the_arena_does_not_leak(self, tiny_model_config, quick_train_config,
                                     monkeypatch, fork_spy, workers, ending):
        _force_worker(monkeypatch, True)
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        arrays = {name: leaf.data for name, leaf in weights.items()}
        with _deadline(60):
            steps = training.train_steps(weights, _tiny_dataset(), quick_train_config,
                                         tiny_model_config)
            if ending == "completed":
                assert len(list(steps)) == quick_train_config.total_steps
            else:
                next(steps)
                if ending == "closed":
                    steps.close()
                else:
                    if ending == "non-finite loss":
                        weights["out.b"].data[:] = 1e308
                        raised = NonFiniteLoss
                    else:
                        os.kill(fork_spy[0], signal.SIGKILL)
                        os.waitid(os.P_PID, fork_spy[0], os.WEXITED | os.WNOWAIT)
                        raised = QuatMotionError
                    with pytest.raises(raised):
                        next(steps)
        _assert_arena_released(weights, arrays, workers)
        if ending in ("completed", "closed"):
            assert all(leaf.grad is not None for leaf in weights.values())
        _assert_no_children()

    @pytest.mark.parametrize("may", [True, False])
    @pytest.mark.parametrize("bad", [(0, -1), (-1,)])
    def test_a_non_finite_gradient_names_the_first_bad_weight(self, tiny_model_config,
                                                              quick_train_config,
                                                              monkeypatch, capfd, may,
                                                              bad):
        # the first name sorts into the parent's half, the last into the
        # worker's; no weight moves, and the worker leaves quietly
        _force_worker(monkeypatch, may)
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        before = {n: w.data.copy() for n, w in weights.items()}
        poisoned = [sorted(weights)[i] for i in bad]
        real = training._shard_pass

        def poisoning(leaves, *args):
            loss = real(leaves, *args)
            for name in poisoned:
                leaves[name].grad = np.full_like(leaves[name].data, np.nan)
            return loss

        monkeypatch.setattr(training, "_shard_pass", poisoning)
        with _deadline(60):
            with pytest.raises(NonFiniteGradient, match=f"gradient of {poisoned[0]} is"):
                list(training.train_steps(weights, _tiny_dataset(), quick_train_config,
                                          tiny_model_config))
        for name, leaf in weights.items():
            assert leaf.data.tobytes() == before[name].tobytes()
        _assert_no_children()
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("only", [0, 1])
    def test_a_leaf_one_shard_reaches_agrees_on_both_paths(self, tiny_model_config,
                                                          monkeypatch, only):
        # at batch 3, shard 0 has two rows and shard 1 one; the other
        # shard's pass leaves the first and last leaves' gradients as it
        # found them, one leaf in each process's half
        train_config = TrainConfig(batch_size=3, total_steps=4, rng_seed=3)
        real = training._shard_pass

        def dropping(leaves, config, motion, *args):
            names = (min(leaves), max(leaves))
            before = [leaves[name].grad for name in names]
            loss = real(leaves, config, motion, *args)
            if motion.shape[0] == (1 if only == 0 else 2):
                for name, grad in zip(names, before):
                    leaves[name].grad = grad
            return loss

        monkeypatch.setattr(training, "_shard_pass", dropping)
        results = []
        for may in (True, False):
            _force_worker(monkeypatch, may)
            with _deadline(60):
                results.append(_run(tiny_model_config, train_config))
        assert results[0] == results[1]
        _assert_no_children()

    def test_a_failed_fork_runs_alone_with_the_same_bits(self, tiny_model_config,
                                                          quick_train_config, monkeypatch):
        tries = []

        def refused():
            tries.append(1)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        _force_worker(monkeypatch, False)
        alone = _run(tiny_model_config, quick_train_config)
        fds = len(os.listdir("/proc/self/fd"))
        _force_worker(monkeypatch, True)
        monkeypatch.setattr(os, "fork", refused)
        with _deadline(60):
            refused_run = _run(tiny_model_config, quick_train_config)
        assert tries == [1]
        assert refused_run == alone
        assert len(os.listdir("/proc/self/fd")) == fds
        _assert_no_children()

    def test_the_arena_holds_only_what_the_ranks_trade(self, tiny_model_config,
                                                       quick_train_config, monkeypatch,
                                                       fork_spy):
        # the weights and the gradient slots, two leaf-sized blocks, plus
        # per leaf a square sum and three flags, plus the two shard
        # losses; the Adam moments stay private to each rank
        sizes = []
        real = mmap.mmap

        def sized(fileno, length, *args, **kwargs):
            sizes.append(length)
            return real(fileno, length, *args, **kwargs)

        _force_worker(monkeypatch, True)
        monkeypatch.setattr(mmap, "mmap", sized)
        with _deadline(60):
            _run(tiny_model_config, quick_train_config)
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        block = sum(w.data.nbytes for w in weights.values())
        assert len(fork_spy) == 1
        assert sizes == [2 * block + 8 * (4 * len(weights) + 2)]
        _assert_no_children()

    def test_the_split_point_halves_the_element_count(self):
        assert training._split_point([1, 1, 1, 1]) == 2
        assert training._split_point([5, 1, 1, 1, 1, 1]) == 1
        assert training._split_point([1, 1, 1, 1, 1, 5]) == 5
        assert training._split_point([]) == 0

    def test_a_view_kept_from_a_yield_outlives_the_run(self, tiny_model_config,
                                                       quick_train_config, monkeypatch,
                                                       fork_spy):
        # the arena then stays mapped until the view dies, and the run
        # ends without an error
        _force_worker(monkeypatch, True)
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        with _deadline(60):
            steps = training.train_steps(weights, _tiny_dataset(), quick_train_config,
                                         tiny_model_config)
            next(steps)
            kept = weights["out.w"].data
            assert len(list(steps)) == quick_train_config.total_steps - 1
        assert weights["out.w"].data is not kept
        assert kept.tobytes() == weights["out.w"].data.tobytes()
        _assert_no_children()

    def test_a_weight_changed_at_a_yield_reaches_both_shards(self, tiny_model_config,
                                                             quick_train_config,
                                                             monkeypatch, fork_spy):
        # the worker starts a step only once the caller has resumed the
        # parent: a change made after a pause at the first yield reaches
        # both shards of the next step, on both paths alike
        runs = {}
        for may in (True, False, None):
            _force_worker(monkeypatch, bool(may))
            weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
            with _deadline(60):
                steps = training.train_steps(weights, _tiny_dataset(), quick_train_config,
                                             tiny_model_config)
                rows = [next(steps)]
                if may is not None:
                    time.sleep(0.05)
                    weights["out.b"].data += 0.5
                rows += list(steps)
            runs[may] = rows, {n: (w.data.tobytes(), w.grad.tobytes())
                               for n, w in weights.items()}
        assert len(fork_spy) == 1
        assert runs[True] == runs[False]
        assert runs[True][0][0] == runs[None][0][0]
        assert all(a != b for a, b in zip(runs[True][0][1:], runs[None][0][1:]))
        _assert_no_children()

    def test_yields_and_the_end_hold_the_current_weights(self, tiny_model_config,
                                                          quick_train_config, monkeypatch):
        # the worker path's leaves read, row by row and after the run, what
        # the in-process path's read
        seen = {}
        for may in (True, False):
            _force_worker(monkeypatch, may)
            weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
            rows = []
            with _deadline(60):
                for _ in training.train_steps(weights, _tiny_dataset(), quick_train_config,
                                              tiny_model_config):
                    rows.append({n: w.data.tobytes() for n, w in weights.items()})
            rows.append({n: (w.data.tobytes(), w.grad.tobytes()) for n, w in weights.items()})
            seen[may] = rows
        assert seen[True] == seen[False]


class TestLossCsv:
    def test_write_format(self, tmp_path):
        path = tmp_path / "t.csv"
        training.write_loss_csv(str(path), [(0, 1e-4, 0.5), (1, 1e-5, 0.25)])
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "step,lr,loss"
        assert lines[1].startswith("0,")
        assert float(lines[2].split(",")[2]) == 0.25
        assert text.endswith("\n")
