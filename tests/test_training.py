"""Optimizer math, window sampling, the training loop, trace files."""

import numpy as np
import pytest

from quatmotion import model, training
from quatmotion.autograd import Tensor
from quatmotion.errors import (DimensionMismatch, NonFiniteGradient, NonFiniteLoss)
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
        assert (c.beta1, c.beta2, c.eps) == (0.9, 0.999, 1e-8)
        assert c.clip_norm == 1.0

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
        training.adam_step(weights, {"p": np.array([1.0])}, state, 0.1, TrainConfig())
        assert weights["p"].data[0] == -(0.1 / (1.0 + 1e-8))
        assert state.step == 1

    def test_constant_gradient_moves_linearly(self):
        weights = {"p": Tensor(np.array([0.0]), requires_grad=True)}
        state = training.init_adam(weights)
        for _ in range(5):
            training.adam_step(weights, {"p": np.array([1.0])}, state, 0.01, TrainConfig())
        assert weights["p"].data[0] == pytest.approx(-5 * 0.01 / (1.0 + 1e-8), rel=1e-12)

    def test_sign_follows_gradient(self, rng):
        g = rng.standard_normal(6)
        weights = {"p": Tensor(np.zeros(6), requires_grad=True)}
        training.adam_step(weights, {"p": g}, training.init_adam(weights), 0.1,
                           TrainConfig())
        assert np.all(np.sign(weights["p"].data) == -np.sign(g))

    def test_missing_gradient_leaves_weight_alone(self):
        weights = {"a": Tensor(np.array([1.0]), requires_grad=True),
                   "b": Tensor(np.array([2.0]), requires_grad=True)}
        state = training.init_adam(weights)
        training.adam_step(weights, {"a": np.array([1.0])}, state, 0.1, TrainConfig())
        assert weights["a"].data[0] != 1.0
        assert weights["b"].data[0] == 2.0

    def test_non_finite_gradient_rejected(self):
        weights = {"p": Tensor(np.array([0.0]), requires_grad=True)}
        with pytest.raises(NonFiniteGradient):
            training.adam_step(weights, {"p": np.array([np.nan])},
                               training.init_adam(weights), 0.1, TrainConfig())

    def test_updates_in_place(self):
        t = Tensor(np.array([0.0]), requires_grad=True)
        weights = {"p": t}
        training.adam_step(weights, {"p": np.array([1.0])},
                           training.init_adam(weights), 0.1, TrainConfig())
        assert weights["p"] is t

    def test_matches_written_out_formula_bit_for_bit(self, rng):
        # the in-place update must round exactly like the plain expressions
        config = TrainConfig()
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
            training.adam_step(weights, grads, state, lr, config)
            c1 = 1.0 - config.beta1 ** step
            c2 = 1.0 - config.beta2 ** step
            for n, g in grads.items():
                want_m[n] = config.beta1 * want_m[n] + (1.0 - config.beta1) * g
                want_v[n] = config.beta2 * want_v[n] + (1.0 - config.beta2) * (g * g)
                want_w[n] = want_w[n] - lr * (want_m[n] / c1) / (
                    np.sqrt(want_v[n] / c2) + config.eps)
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
            blobs.append((csv.read_bytes(), ckpt.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_clip_gate_semantics(self, tiny_model_config):
        # clip_norm 0 disables; an enormous bound is never hit; both must
        # land on identical weights, while a tiny bound changes the path
        results = {}
        for label, clip in (("off", 0.0), ("huge", 1e12), ("tiny", 1e-6)):
            weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
            config = TrainConfig(batch_size=2, total_steps=2, rng_seed=3, clip_norm=clip)
            training.train(weights, _tiny_dataset(), config, tiny_model_config)
            results[label] = weights["out.w"].data.copy()
        np.testing.assert_array_equal(results["off"], results["huge"])
        assert not np.array_equal(results["off"], results["tiny"])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_loss_raises(self, tiny_model_config, quick_train_config):
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        weights["out.b"].data[:] = 1e308  # squaring this overflows
        with pytest.raises(NonFiniteLoss):
            training.train(weights, _tiny_dataset(), quick_train_config,
                           tiny_model_config)

    def test_training_reduces_loss_on_one_window(self, tiny_model_config):
        # single repeated window: 60 steps must cut the loss substantially
        audio, motion = synth_pair(0, seconds=0.2, beat_period_frames=4)
        weights = model.init_weights(tiny_model_config, np.random.default_rng(1))
        config = TrainConfig(batch_size=1, total_steps=60, rng_seed=0,
                             decay_steps=((10 ** 6, 1e-5),))
        trace = training.train(weights, [(audio[:9], motion[:9])], config,
                               tiny_model_config)
        assert trace[-1][2] < 0.5 * trace[0][2]


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
