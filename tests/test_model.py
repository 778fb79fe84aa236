"""Model stack: config gates, weight inventory, forward equivalences,
autoregressive windowing, checkpoint format.

The model must agree with quatmotion.oracle.reference_forward, with and
without quaternion attention: a from-scratch derivation (scalar-loop QRA
per head, einsum heads, complex-number rotary, every decoder row) kept
deliberately unlike the package's tape implementation.
"""

import base64
import dataclasses
import hashlib
import json
import math
import mmap
import os
import signal
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatmotion import autograd as ag
from quatmotion import forked, model, oracle, spe
from quatmotion.autograd import Tensor
from quatmotion.errors import (AudioTooShort, ChannelMismatch, DimensionMismatch,
                               HeadDimNotQuaternion, MalformedFile, QuatMotionError)
from quatmotion.model import ModelConfig
from quatmotion.qra import KERNEL_NAMES, PROJECTIONS


def _expected_names(config):
    names = {"embed.audio.w", "embed.audio.b", "embed.motion.w", "embed.motion.b",
             "out.w", "out.b"}
    if config.use_learned_abs_pos:
        names |= {"pos.motion", "pos.audio"}
    block = (".ln1.gamma", ".ln1.beta", ".ln2.gamma", ".ln2.beta",
             ".attn.wq", ".attn.wk", ".attn.wv", ".attn.wo",
             ".ff.fc1.w", ".ff.fc1.b", ".ff.fc2.w", ".ff.fc2.b")
    for stream in ("motion", "audio"):
        for layer in range(config.encoder_layers):
            names |= {f"enc.{stream}.{layer}{s}" for s in block}
        if config.encoder_layers > 0:
            names |= {f"enc.{stream}.norm.gamma", f"enc.{stream}.norm.beta"}
    for layer in range(config.decoder_layers):
        names |= {f"dec.{layer}{s}" for s in block}
        if config.use_qra:
            for kern in ("omega_q", "theta_q", "omega_k", "theta_k"):
                names |= {f"dec.{layer}.attn.{kern}.w", f"dec.{layer}.attn.{kern}.b"}
    return names


class TestModelConfig:
    def test_desk_defaults(self):
        c = ModelConfig()
        assert (c.d_model, c.heads, c.d_head) == (64, 4, 16)
        assert (c.encoder_layers, c.decoder_layers, c.periods) == (2, 2, 2)
        assert (c.seed_motion_frames, c.audio_frames, c.future_frames) == (30, 60, 5)
        assert c.use_qra and c.use_spe and c.use_learned_abs_pos
        assert not c.qra_keys_use_axis_i

    def test_full_scale(self):
        c = ModelConfig.full_scale()
        assert (c.d_model, c.heads) == (800, 16)
        assert c.d_head == 50
        assert c.d_head % 4 != 0  # quaternion grouping impossible at this width
        assert not c.use_qra
        assert (c.seed_motion_frames, c.audio_frames, c.future_frames) == (120, 240, 20)

    def test_heads_must_divide(self):
        with pytest.raises(DimensionMismatch):
            ModelConfig(d_model=10, heads=3)

    def test_quaternion_head_gate(self):
        with pytest.raises(HeadDimNotQuaternion):
            ModelConfig(d_model=24, heads=4)  # head dim 6

    def test_spe_needs_even_heads(self):
        with pytest.raises(DimensionMismatch):
            ModelConfig(d_model=9, heads=3, use_qra=False)  # head dim 3

    def test_window_ordering(self):
        with pytest.raises(ValueError):
            ModelConfig(seed_motion_frames=40, audio_frames=30)

    @pytest.mark.parametrize("field,value", [
        ("decoder_layers", 0), ("periods", 0), ("future_frames", 0),
        ("seed_motion_frames", 0), ("ff_mult", 0), ("fps", 0), ("encoder_layers", -1),
    ])
    def test_count_gates(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})

    def test_zero_depth_encoder_allowed(self):
        assert ModelConfig(encoder_layers=0).encoder_layers == 0


class TestInitWeights:
    def test_name_inventory(self, tiny_model_config):
        w = model.init_weights(tiny_model_config, np.random.default_rng(0))
        assert set(w) == _expected_names(tiny_model_config)

    def test_inventory_without_qra_or_pos(self, tiny_model_config):
        config = dataclasses.replace(tiny_model_config, use_qra=False,
                                     use_learned_abs_pos=False)
        w = model.init_weights(config, np.random.default_rng(0))
        assert set(w) == _expected_names(config)
        assert not any("omega" in k or "pos." in k for k in w)

    def test_shapes(self, tiny_model_config):
        c = tiny_model_config
        w = model.init_weights(c, np.random.default_rng(1))
        assert w["embed.motion.w"].shape == (219, c.d_model)
        assert w["embed.audio.w"].shape == (35, c.d_model)
        assert w["pos.motion"].shape == (c.seed_motion_frames, c.d_model)
        assert w["pos.audio"].shape == (c.audio_frames, c.d_model)
        assert w["dec.0.attn.wq"].shape == (c.d_model, c.d_model)
        assert w["dec.0.attn.omega_q.w"].shape == (c.heads, c.periods, c.d_head, 3)
        assert w["dec.0.attn.omega_q.b"].shape == (c.heads, c.periods)
        assert w["out.w"].shape == (c.d_model, c.future_frames * 219)
        assert all(t.requires_grad for t in w.values())

    def test_seed_determinism(self, tiny_model_config):
        w1 = model.init_weights(tiny_model_config, np.random.default_rng(9))
        w2 = model.init_weights(tiny_model_config, np.random.default_rng(9))
        for name in w1:
            np.testing.assert_array_equal(w1[name].data, w2[name].data)
        w3 = model.init_weights(tiny_model_config, np.random.default_rng(10))
        assert any(not np.array_equal(w1[n].data, w3[n].data) for n in w1)


@pytest.fixture
def tiny_setup(tiny_model_config, rng):
    weights = model.init_weights(tiny_model_config, np.random.default_rng(42))
    motion = rng.standard_normal((tiny_model_config.seed_motion_frames, 219)) * 0.1
    audio = rng.standard_normal((tiny_model_config.audio_frames, 35)) * 0.1
    return weights, tiny_model_config, motion, audio


class TestForward:
    def test_output_shape(self, tiny_setup):
        weights, config, motion, audio = tiny_setup
        out = model.forward(weights, config, motion[None], audio[None])
        assert out.shape == (1, config.future_frames, 219)
        assert np.all(np.isfinite(out.data))

    def test_batch_rows_are_independent(self, tiny_setup, rng):
        weights, config, motion, audio = tiny_setup
        motion2 = rng.standard_normal(motion.shape) * 0.1
        audio2 = rng.standard_normal(audio.shape) * 0.1
        batched = model.forward(weights, config,
                                np.stack([motion, motion2]),
                                np.stack([audio, audio2])).data
        solo1 = model.predict_future(weights, config, motion, audio)
        solo2 = model.predict_future(weights, config, motion2, audio2)
        np.testing.assert_allclose(batched[0], solo1, atol=1e-12)
        np.testing.assert_allclose(batched[1], solo2, atol=1e-12)

    def test_channel_gate(self, tiny_setup):
        weights, config, motion, audio = tiny_setup
        with pytest.raises(ChannelMismatch):
            model.forward(weights, config, motion[None, :, :218], audio[None])

    def test_rotary_tables_are_cached_read_only(self):
        co, si = model._rotary_tables(5, 8, 10000.0)
        assert model._rotary_tables(5, 8, 10000.0)[0] is co
        want_co, want_si = spe.angle_tables(5, 8, 10000.0)
        np.testing.assert_array_equal(co, want_co)
        np.testing.assert_array_equal(si, want_si)
        assert not (co.flags.writeable or si.flags.writeable)

    def test_position_table_overflow(self, tiny_setup, rng):
        weights, config, _, audio = tiny_setup
        too_long = rng.standard_normal((config.seed_motion_frames + 1, 219))
        with pytest.raises(DimensionMismatch):
            model.forward(weights, config, too_long[None], audio[None])


@st.composite
def _small_configs(draw):
    """Tiny configurations over every switch the reference reads. With QRA
    the pruned decoder starts from the last 1 + decoder_layers motion
    rows, and the window is drawn both shorter and longer than that."""
    heads = draw(st.integers(1, 2))
    decoder_layers = draw(st.integers(1, 3))
    seed_frames = draw(st.integers(1, decoder_layers + 3))
    return ModelConfig(
        d_model=heads * draw(st.sampled_from([4, 8])), heads=heads,
        encoder_layers=draw(st.integers(0, 2)), decoder_layers=decoder_layers,
        periods=draw(st.integers(1, 3)), seed_motion_frames=seed_frames,
        audio_frames=seed_frames + draw(st.integers(0, 4)),
        future_frames=draw(st.integers(1, 2)), use_qra=draw(st.booleans()),
        qra_keys_use_axis_i=draw(st.booleans()), use_spe=draw(st.booleans()),
        use_learned_abs_pos=draw(st.booleans()))


class TestReferenceForward:
    """model.forward against oracle.reference_forward, the whole model
    derived apart from the package: scalar-loop QRA per head in a decoder
    that runs every row, einsum heads and complex-number rotary pairs."""

    @given(config=_small_configs(), seed=st.integers(0, 2 ** 32 - 1))
    @example(config=ModelConfig(), seed=0)
    @settings(max_examples=40, deadline=None)
    def test_forward_matches_reference(self, config, seed):
        rng = np.random.default_rng(seed)
        # init leaves every bias, beta and kernel bias at zero; moving
        # every weight off its initial value exercises each of them
        weights = {name: Tensor(w.data + 0.1 * rng.standard_normal(w.shape))
                   for name, w in model.init_weights(config, rng).items()}
        motion = rng.standard_normal((2, config.seed_motion_frames, 219))
        audio = rng.standard_normal((2, config.audio_frames, 35))
        got = model.forward(weights, config, motion, audio).data
        for row in range(2):
            want = oracle.reference_forward(weights, config, motion[row], audio[row])
            np.testing.assert_allclose(got[row], want, rtol=0, atol=1e-10)


class TestCanonicalEquivalence:
    def test_tiny_ablation_matches_reference(self, tiny_model_config, rng):
        config = dataclasses.replace(tiny_model_config, use_qra=False)
        weights = model.init_weights(config, np.random.default_rng(3))
        motion = rng.standard_normal((config.seed_motion_frames, 219)) * 0.2
        audio = rng.standard_normal((config.audio_frames, 35)) * 0.2
        got = model.predict_future(weights, config, motion, audio)
        want = oracle.reference_forward(weights, config, motion, audio)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_desk_scale_ablation_matches_reference(self, rng):
        config = ModelConfig(use_qra=False)
        weights = model.init_weights(config, np.random.default_rng(4))
        motion = rng.standard_normal((30, 219)) * 0.1
        audio = rng.standard_normal((60, 35)) * 0.1
        got = model.predict_future(weights, config, motion, audio)
        want = oracle.reference_forward(weights, config, motion, audio)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_zeroed_kernels_single_period_is_canonical(self, rng):
        # with P=1 and omega = theta = 0 the quaternion path must equal
        # the plain scaled dot product bit for bit
        config = ModelConfig(d_model=8, heads=2, encoder_layers=1, decoder_layers=1,
                             periods=1, seed_motion_frames=6, audio_frames=9,
                             future_frames=2)
        weights = model.init_weights(config, np.random.default_rng(5))
        for name in list(weights):
            if "omega" in name or "theta" in name:
                weights[name] = Tensor(np.zeros_like(weights[name].data),
                                       requires_grad=True)
        motion = rng.standard_normal((6, 219)) * 0.2
        audio = rng.standard_normal((9, 35)) * 0.2
        with_qra = model.predict_future(weights, config, motion, audio)
        plain = dataclasses.replace(config, use_qra=False)
        without = model.predict_future(weights, plain, motion, audio)
        np.testing.assert_allclose(with_qra, without, atol=1e-14)


class TestCrossAttentionVsArrayPath:
    @pytest.mark.parametrize("key_axis_i", [False, True])
    def test_matches_multi_head_qra(self, rng, key_axis_i):
        # one decoder layer's cross-attention against the scalar oracle run
        # one head at a time, concatenated and projected by wo
        config = ModelConfig(d_model=8, heads=2, encoder_layers=0, decoder_layers=1,
                             periods=2, seed_motion_frames=5, audio_frames=7,
                             future_frames=1, qra_keys_use_axis_i=key_axis_i)
        weights = model.init_weights(config, np.random.default_rng(8))
        w = {name[len("dec.0.attn."):]: t.data for name, t in weights.items()
             if name.startswith("dec.0.attn.")}
        n, m, d, dh = 5, 12, config.d_model, config.d_head
        m_norm = rng.standard_normal((n, d))
        memory = rng.standard_normal((m, d))
        got = model._cross_attention(Tensor(m_norm[None]), Tensor(memory[None]),
                                     "dec.0.attn", weights, config).data[0]
        heads = []
        for h in range(config.heads):
            cols = slice(h * dh, (h + 1) * dh)
            head = {name: w[name][:, cols] for name in PROJECTIONS}
            head.update({name: w[name][h] for name in KERNEL_NAMES})
            heads.append(oracle.reference_qra(m_norm, memory, head,
                                              key_axis="i" if key_axis_i else "j"))
        want = np.concatenate(heads, axis=1) @ w["wo"]
        np.testing.assert_allclose(got, want, atol=1e-12)


def _full_row_decode(h_motion, h_audio, weights, config):
    """The decoder run on every query row, read out at the last one."""
    memory = ag.concat([h_motion, h_audio], axis=1)
    state = h_motion
    for layer in range(config.decoder_layers):
        p = f"dec.{layer}"
        state = state + model._cross_attention(
            model._layer_norm(state, p + ".ln1", weights), memory, p + ".attn",
            weights, config)
        state = state + model._feed_forward(
            model._layer_norm(state, p + ".ln2", weights), p + ".ff", weights)
    flat = ag.matmul(state[:, -1, :], weights["out.w"]) + weights["out.b"]
    return ag.reshape(flat, (state.shape[0], config.future_frames, 219))


class TestPrunedDecoder:
    """_decode computes only the rows the readout depends on; it must match
    the decoder run on every row, in value and in gradient."""

    @pytest.mark.parametrize("changes", [
        {},
        {"decoder_layers": 1},
        {"decoder_layers": 3},
        {"use_qra": False},
        {"qra_keys_use_axis_i": True},
        # a cone of 1 + 3 rows is clamped to the 2-row window
        {"seed_motion_frames": 2, "decoder_layers": 3},
    ], ids=["desk", "layers1", "layers3", "no_qra", "keys_axis_i", "clamped"])
    def test_matches_full_row_decoder(self, rng, changes):
        config = dataclasses.replace(ModelConfig(), **changes)
        weights = model.init_weights(config, np.random.default_rng(3))
        d = config.d_model
        h_m = rng.standard_normal((2, config.seed_motion_frames, d))
        h_a = rng.standard_normal((2, config.audio_frames, d))
        probe = rng.standard_normal((2, config.future_frames, 219))
        results = []
        for decode in (model._decode, _full_row_decode):
            for w in weights.values():
                w.zero_grad()
            hm = Tensor(h_m, requires_grad=True)
            ha = Tensor(h_a, requires_grad=True)
            out = decode(hm, ha, weights, config)
            (out * probe).sum().backward()
            grads = {n: w.grad for n, w in weights.items() if n.startswith(("dec.", "out."))}
            results.append((out.data, hm.grad, ha.grad, grads))
        (got, gm, ga, gw), (want, wm, wa, ww) = results
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gm, wm, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ga, wa, rtol=0, atol=1e-12)
        assert gw.keys() == ww.keys()
        for name in gw:
            np.testing.assert_allclose(gw[name], ww[name], rtol=0, atol=1e-12, err_msg=name)

    def test_window_rows_keep_absolute_positions(self, rng):
        # the last rows of a full-row call, computed from a halo-padded tail
        config = ModelConfig(d_model=8, heads=2, encoder_layers=0, decoder_layers=1,
                             periods=2, seed_motion_frames=7, audio_frames=9,
                             future_frames=1)
        weights = model.init_weights(config, np.random.default_rng(4))
        m_norm = rng.standard_normal((1, 7, 8))
        memory = rng.standard_normal((1, 16, 8))
        full = model._cross_attention(Tensor(m_norm), Tensor(memory), "dec.0.attn",
                                      weights, config).data
        tail = model._cross_attention(Tensor(m_norm[:, 3:]), Tensor(memory), "dec.0.attn",
                                      weights, config, keep=3, window=7).data
        np.testing.assert_allclose(tail, full[:, 4:], rtol=0, atol=1e-14)


class TestWrappers:
    def test_embed_adds_position_table(self, tiny_setup):
        weights, config, motion, _ = tiny_setup
        got = model._embed(Tensor(motion[None]), "motion", weights, config).data[0]
        want = (motion @ weights["embed.motion.w"].data
                + weights["embed.motion.b"].data
                + weights["pos.motion"].data[:motion.shape[0]])
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_zero_depth_encoder_is_identity(self, rng):
        config = ModelConfig(d_model=8, heads=2, encoder_layers=0, decoder_layers=1,
                             periods=1, seed_motion_frames=4, audio_frames=4,
                             future_frames=1)
        weights = model.init_weights(config, np.random.default_rng(2))
        hidden = rng.standard_normal((4, 8))
        np.testing.assert_array_equal(
            model._encode(Tensor(hidden[None]), "motion", weights, config).data[0], hidden)

    def test_predict_future_shape(self, tiny_setup):
        weights, config, motion, audio = tiny_setup
        out = model.predict_future(weights, config, motion, audio)
        assert out.shape == (config.future_frames, 219)


class TestAutoregressive:
    def test_zero_steps(self, tiny_setup):
        weights, config, motion, audio = tiny_setup
        out = model.autoregressive_generate(motion, audio, 0, weights, config)
        assert out.shape == (0, 219)

    def test_keep_first_semantics(self, tiny_setup):
        weights, config, motion, audio = tiny_setup
        one = model.autoregressive_generate(motion, audio, 1, weights, config)
        np.testing.assert_array_equal(
            one[0], model.predict_future(weights, config,
                                         motion, audio[:config.audio_frames])[0])

    def test_window_slides_one_frame(self, tiny_setup, rng):
        weights, config, motion, _ = tiny_setup
        audio = rng.standard_normal((config.audio_frames + 1, 35)) * 0.1
        two = model.autoregressive_generate(motion, audio, 2, weights, config)
        assert two.shape == (2, 219)
        window2 = np.vstack([motion[1:], two[0][None]])
        want = model.predict_future(weights, config, window2,
                                    audio[1:1 + config.audio_frames])[0]
        np.testing.assert_array_equal(two[1], want)

    def test_rollout_leaves_weights_untouched(self, tiny_setup, rng):
        weights, config, motion, _ = tiny_setup
        audio = rng.standard_normal((config.audio_frames + 2, 35)) * 0.1
        before = {n: w.data.copy() for n, w in weights.items()}
        model.autoregressive_generate(motion, audio, 3, weights, config)
        for name, w in weights.items():
            assert w.requires_grad and w.grad is None, name
            np.testing.assert_array_equal(w.data, before[name])

    def test_audio_too_short(self, tiny_setup):
        weights, config, motion, audio = tiny_setup
        with pytest.raises(AudioTooShort):
            model.autoregressive_generate(motion, audio, 2, weights, config)

    def test_gates(self, tiny_setup):
        weights, config, motion, audio = tiny_setup
        with pytest.raises(ValueError):
            model.autoregressive_generate(motion, audio, -1, weights, config)
        with pytest.raises(DimensionMismatch):
            model.autoregressive_generate(motion[:-1], audio, 1, weights, config)
        with pytest.raises(ChannelMismatch):
            model.autoregressive_generate(motion, audio[:, :-1], 1, weights, config)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _rollout_inputs(config, steps):
    rng = np.random.default_rng(7)
    motion = rng.standard_normal((config.seed_motion_frames, 219)) * 0.1
    audio = rng.standard_normal((config.audio_frames + steps - 1, 35)) * 0.1
    return motion, audio


@pytest.mark.usefixtures("deadline")
class TestForkedRollout:
    """From _FORK_MIN_STEPS frames on, where forked.may_fork allows it, a
    rollout encodes its music in a forked worker; the frames stay the same."""

    @pytest.mark.parametrize("use_qra", [True, False])
    @pytest.mark.parametrize("extra", [-1, 0, 1, model._RING_SLOTS + 2])
    def test_forked_and_in_process_rollouts_agree(self, tiny_model_config, monkeypatch,
                                                  fork_spy, use_qra, extra):
        # threshold - 1 frames stay in-process; from the threshold on, the
        # worker forks, and past _RING_SLOTS frames it refills the ring
        config = dataclasses.replace(tiny_model_config, use_qra=use_qra)
        steps = model._FORK_MIN_STEPS + extra
        weights = model.init_weights(config, np.random.default_rng(3))
        motion, audio = _rollout_inputs(config, steps)
        runs = []
        for may in (True, False):
            monkeypatch.setattr(forked, "may_fork", lambda: may)
            runs.append(model.autoregressive_generate(motion, audio, steps, weights, config))
            assert len(fork_spy) == (0 if extra < 0 else 1)
        assert runs[0].shape == (steps, 219)
        assert runs[0].tobytes() == runs[1].tobytes()
        _assert_no_children()

    def test_the_ring_does_not_grow_with_the_rollout(self, tiny_model_config, monkeypatch,
                                                     fork_spy):
        config = tiny_model_config
        steps = 1000
        weights = model.init_weights(config, np.random.default_rng(3))
        motion, audio = _rollout_inputs(config, steps)
        sizes = []
        real = mmap.mmap

        def sized(fileno, length, *args, **kwargs):
            sizes.append(length)
            return real(fileno, length, *args, **kwargs)

        monkeypatch.setattr(forked, "may_fork", lambda: True)
        monkeypatch.setattr(mmap, "mmap", sized)
        out = model.autoregressive_generate(motion, audio, steps, weights, config)
        assert out.shape == (steps, 219) and np.isfinite(out).all()
        assert len(fork_spy) == 1
        window = 8 * config.audio_frames * config.d_model
        assert sizes == [model._RING_SLOTS * window]
        _assert_no_children()

    def test_no_worker_left_after_the_parent_raises(self, tiny_model_config, monkeypatch,
                                                    fork_spy):
        config = tiny_model_config
        steps = model._FORK_MIN_STEPS + model._RING_SLOTS
        weights = model.init_weights(config, np.random.default_rng(3))
        motion, audio = _rollout_inputs(config, steps)
        real = model._decode
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("the parent fails at frame 2")
            return real(*args)

        monkeypatch.setattr(forked, "may_fork", lambda: True)
        monkeypatch.setattr(model, "_decode", failing)
        with pytest.raises(RuntimeError, match="frame 2"):
            model.autoregressive_generate(motion, audio, steps, weights, config)
        assert len(fork_spy) == 1
        _assert_no_children()

    def test_a_killed_worker_is_a_named_error(self, tiny_model_config, monkeypatch,
                                              fork_spy, capfd):
        config = tiny_model_config
        steps = model._FORK_MIN_STEPS + model._RING_SLOTS
        weights = model.init_weights(config, np.random.default_rng(3))
        motion, audio = _rollout_inputs(config, steps)
        parent = os.getpid()
        real = model._InProcessAudio.window

        def dying(source, s):
            if os.getpid() != parent and s == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(source, s)

        monkeypatch.setattr(forked, "may_fork", lambda: True)
        monkeypatch.setattr(model._InProcessAudio, "window", dying)
        with pytest.raises(QuatMotionError, match="rollout worker .* killed by signal 9"):
            model.autoregressive_generate(motion, audio, steps, weights, config)
        assert len(fork_spy) == 1
        _assert_no_children()
        assert "Traceback" not in capfd.readouterr().err


def _packed(values) -> bytes:
    """Little-endian float64 bytes, packed one float() at a time."""
    values = [float(v) for v in values]
    return struct.pack("<%dd" % len(values), *values)


def _unpacked(raw: bytes) -> list:
    return list(struct.unpack("<%dd" % (len(raw) // 8), raw))


class TestCheckpoint:
    EDGE = np.array([-0.0, 5e-324, 1e16, -1e16, 0.1, -2.5e-300, 1.0 / 3.0])

    def _with_edges(self, weights):
        weights = {name: Tensor(t.data.copy()) for name, t in weights.items()}
        for t in weights.values():
            flat = t.data.reshape(-1)
            flat[:self.EDGE.size] = self.EDGE[:flat.size]
        return weights

    def test_round_trip_exact(self, tiny_setup, tmp_path):
        weights, config, _, _ = tiny_setup
        weights = self._with_edges(weights)
        path = str(tmp_path / "model.json")
        model.save_checkpoint(path, weights, config)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "model.json.f64"]
        loaded, loaded_config = model.load_checkpoint(path)
        assert loaded_config == config
        assert set(loaded) == set(weights)
        for name in weights:
            data = loaded[name].data
            # every bit, -0.0 and the subnormal included
            assert data.tobytes() == weights[name].data.tobytes(), name
            assert data.dtype == np.float64 and data.shape == weights[name].shape
            assert data.flags.owndata and data.flags.writeable, name
        assert all(t.requires_grad for t in loaded.values())

    def test_bytes_match_struct_packed_payload(self, tiny_setup, tmp_path):
        weights, config, _, _ = tiny_setup
        weights = self._with_edges(weights)
        path = tmp_path / "model.json"
        model.save_checkpoint(str(path), weights, config)
        # the written-out construction: struct-packed float() values in
        # sorted-name order, and a header holding their sha256
        names = sorted(weights)
        payload = _packed([v for name in names for v in weights[name].data.reshape(-1)])
        doc = {"format": "qean-ckpt-v3",
               "config": model.config_to_dict(config),
               "tensors": {name: list(weights[name].data.shape) for name in names},
               "payload": {"bytes": len(payload),
                           "sha256": hashlib.sha256(payload).hexdigest()}}
        want = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_bytes() == want.encode()
        assert (tmp_path / "model.json.f64").read_bytes() == payload

    def test_save_load_save_is_byte_identical(self, tiny_setup, tmp_path):
        weights, config, _, _ = tiny_setup
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        model.save_checkpoint(str(first), self._with_edges(weights), config)
        loaded, loaded_config = model.load_checkpoint(str(first))
        model.save_checkpoint(str(second), loaded, loaded_config)
        assert first.read_bytes() == second.read_bytes()
        assert ((tmp_path / "first.json.f64").read_bytes()
                == (tmp_path / "second.json.f64").read_bytes())

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {")
        with pytest.raises(MalformedFile, match=r"junk\.json"):
            model.load_checkpoint(str(path))

    def test_rejects_undecodable_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{" + bytes(range(128, 256)))
        with pytest.raises(MalformedFile, match=r"binary\.json is not valid UTF-8"):
            model.load_checkpoint(str(path))

    def test_rejects_wrong_format_tag(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "qean-ckpt-v4", "config": {}, "tensors": {}}))
        with pytest.raises(MalformedFile, match=r"other\.json.*qean-ckpt-v4.*qean-ckpt-v3"):
            model.load_checkpoint(str(path))

    def test_rejects_v1_checkpoint(self, tiny_setup, tmp_path):
        # the first format: one JSON file with a float list per tensor
        weights, config, _, _ = tiny_setup
        doc = {"format": "qean-ckpt-v1",
               "config": model.config_to_dict(config),
               "tensors": {name: {"shape": list(t.shape), "values": t.data.reshape(-1).tolist()}
                           for name, t in weights.items()}}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        with pytest.raises(MalformedFile, match=r"old\.json.*qean-ckpt-v1.*qean-ckpt-v3"):
            model.load_checkpoint(str(path))

    def test_rejects_v2_checkpoint(self, tiny_setup, tmp_path):
        # the previous format: one JSON file with base64 float64 bytes per tensor
        weights, config, _, _ = tiny_setup
        doc = {"format": "qean-ckpt-v2",
               "config": model.config_to_dict(config),
               "tensors": {name: {"shape": list(t.shape),
                                  "data": base64.b64encode(_packed(t.data.reshape(-1))).decode()}
                           for name, t in weights.items()}}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        with pytest.raises(MalformedFile, match=r"old\.json.*qean-ckpt-v2.*qean-ckpt-v3"):
            model.load_checkpoint(str(path))

    def test_rejects_unknown_config_key(self, tmp_path):
        doc = {"format": model.CHECKPOINT_FORMAT,
               "config": {"d_model": 8, "mystery": 1}, "tensors": {}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFile):
            model.load_checkpoint(str(path))

    @pytest.mark.parametrize("config", [
        {"d_model": "x"}, {"d_model": 6, "heads": 4}, [],
        {"d_model": 8.0}, {"heads": True}, {"fps": 2.5}, {"use_qra": 1},
        {"rotary_base": math.nan}, {"rotary_base": -1.0}, {"rotary_base": math.inf},
    ])
    def test_rejects_bad_config(self, tmp_path, config):
        # the message names the offending field (or 'config' itself), not
        # just the tensor that an empty tensor table is missing
        field = next(iter(config), "config")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"format": model.CHECKPOINT_FORMAT,
                                    "config": config, "tensors": {}}))
        with pytest.raises(MalformedFile, match=rf"cfg\.json.*\b{field}\b"):
            model.load_checkpoint(str(path))

    @pytest.mark.parametrize("text", [
        '{"format": ' + "9" * 5000 + "}",     # a plain ValueError past the digit limit
        "[" * 100000 + "]" * 100000,          # a RecursionError
    ], ids=["overlong_integer", "deep_nesting"])
    def test_rejects_json_the_parser_cannot_hold(self, tmp_path, text):
        path = tmp_path / "odd.json"
        path.write_text(text)
        with pytest.raises(MalformedFile, match=r"cannot parse checkpoint .*odd\.json"):
            model.load_checkpoint(str(path))

    @pytest.mark.parametrize("field", ["encoder_layers", "decoder_layers"])
    def test_huge_layer_count_is_rejected_without_enumerating_it(self, tiny_setup, tmp_path,
                                                                  field):
        def grow(doc):
            doc["config"][field] = 10 ** 15
        path = self._header_edited(tiny_setup, tmp_path, grow)
        with pytest.raises(MalformedFile, match=r"model\.json: tensor .* is missing "
                                                r"\(\d+ or more missing in all\)"):
            model.load_checkpoint(path)

    def _saved(self, tiny_setup, tmp_path):
        weights, config, _, _ = tiny_setup
        path = tmp_path / "model.json"
        model.save_checkpoint(str(path), weights, config)
        return path

    def _header_edited(self, tiny_setup, tmp_path, edit):
        """A saved tiny checkpoint whose header went through edit(doc)."""
        path = self._saved(tiny_setup, tmp_path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return str(path)

    def _edited(self, tiny_setup, tmp_path, edit):
        """A saved tiny checkpoint whose tensor table went through edit."""
        return self._header_edited(tiny_setup, tmp_path, lambda doc: edit(doc["tensors"]))

    def _payload_edited(self, tiny_setup, tmp_path, edit, rehash=False):
        """A saved tiny checkpoint whose payload holds edit(payload bytes);
        with rehash the header's byte count and sha256 describe the new bytes."""
        path = self._saved(tiny_setup, tmp_path)
        source = tmp_path / "model.json.f64"
        payload = edit(source.read_bytes())
        source.write_bytes(payload)
        if rehash:
            doc = json.loads(path.read_text())
            doc["payload"] = {"bytes": len(payload),
                              "sha256": hashlib.sha256(payload).hexdigest()}
            path.write_text(json.dumps(doc))
        return str(path)

    def _value_planted(self, tiny_setup, tmp_path, name, index, value):
        """A checkpoint with a correct digest whose tensor `name` holds
        `value` at flat `index`."""
        shapes = {n: t.shape for n, t in tiny_setup[0].items()}
        start = 0
        for other in sorted(shapes):
            if other == name:
                break
            start += math.prod(shapes[other])
        start += index % math.prod(shapes[name])

        def plant(payload):
            values = _unpacked(payload)
            values[start] = value
            return _packed(values)
        return self._payload_edited(tiny_setup, tmp_path, plant, rehash=True)

    def test_rejects_shape_mismatch(self, tiny_setup, tmp_path):
        # a payload one float short of the shapes its header declares
        path = self._payload_edited(tiny_setup, tmp_path, lambda raw: raw[:-8])
        want = 8 * sum(t.data.size for t in tiny_setup[0].values())
        with pytest.raises(MalformedFile,
                           match=rf"model\.json\.f64 holds {want - 8} bytes, expected {want}"):
            model.load_checkpoint(path)

    def test_rejects_long_payload(self, tiny_setup, tmp_path):
        path = self._payload_edited(tiny_setup, tmp_path, lambda raw: raw + _packed([0.0]))
        with pytest.raises(MalformedFile, match=r"model\.json\.f64 holds \d+ bytes, expected"):
            model.load_checkpoint(path)

    def test_rejects_digest_mismatch(self, tiny_setup, tmp_path):
        # same length, one flipped byte
        def flip(raw):
            return raw[:100] + bytes([raw[100] ^ 0x01]) + raw[101:]
        path = self._payload_edited(tiny_setup, tmp_path, flip)
        with pytest.raises(MalformedFile,
                           match=r"model\.json\.f64 does not match the sha256 in .*model\.json"):
            model.load_checkpoint(path)

    def test_rejects_non_finite(self, tiny_setup, tmp_path):
        path = self._value_planted(tiny_setup, tmp_path, "dec.0.ff.fc1.w", 3, math.nan)
        with pytest.raises(MalformedFile,
                           match=r"model\.json\.f64: tensor dec\.0\.ff\.fc1\.w contains non-finite"):
            model.load_checkpoint(path)

    def test_rejects_infinite(self, tiny_setup, tmp_path):
        path = self._value_planted(tiny_setup, tmp_path, "embed.audio.b", -1, math.inf)
        with pytest.raises(MalformedFile,
                           match=r"model\.json\.f64: tensor embed\.audio\.b contains non-finite"):
            model.load_checkpoint(path)

    def test_rejects_missing_data(self, tiny_setup, tmp_path):
        # the header alone: its payload file is gone
        path = self._saved(tiny_setup, tmp_path)
        (tmp_path / "model.json.f64").unlink()
        with pytest.raises(MalformedFile,
                           match=r"cannot read the payload of checkpoint .*model\.json: "
                                 r".*model\.json\.f64"):
            model.load_checkpoint(str(path))

    def test_header_is_checked_before_the_payload(self, tiny_setup, tmp_path):
        def reshape(tensors):
            tensors["out.w"] = tensors["out.w"][::-1]
        path = self._edited(tiny_setup, tmp_path, reshape)
        (tmp_path / "model.json.f64").unlink()
        with pytest.raises(MalformedFile, match=r"model\.json: tensor out\.w has shape"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("payload", [
        None, [], {"sha256": "0" * 64}, {"bytes": 8.0, "sha256": "0" * 64},
        {"bytes": True, "sha256": "0" * 64}, {"bytes": 8}, {"bytes": 8, "sha256": 0},
        {"bytes": 8, "sha256": "0" * 63}, {"bytes": 8, "sha256": "A" * 64},
    ])
    def test_rejects_malformed_payload_entry(self, tiny_setup, tmp_path, payload):
        def replace(doc):
            doc["payload"] = payload
        path = self._header_edited(tiny_setup, tmp_path, replace)
        with pytest.raises(MalformedFile, match=r"model\.json: 'payload' must be an object"):
            model.load_checkpoint(path)

    def test_rejects_payload_byte_count_against_shapes(self, tiny_setup, tmp_path):
        def shrink(doc):
            doc["payload"]["bytes"] -= 8
        path = self._header_edited(tiny_setup, tmp_path, shrink)
        with pytest.raises(MalformedFile,
                           match=r"model\.json: payload bytes is \d+, but the tensor shapes need"):
            model.load_checkpoint(path)

    def test_rejects_entry_not_a_list(self, tiny_setup, tmp_path):
        def nest(tensors):
            tensors["out.b"] = {"shape": tensors["out.b"]}
        path = self._edited(tiny_setup, tmp_path, nest)
        with pytest.raises(MalformedFile,
                           match=r"model\.json: tensor out\.b has shape .* not a list of integers"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("entry", [438.9, 438.0, "438", True])
    def test_rejects_non_integer_shape(self, tiny_setup, tmp_path, entry):
        def retype(tensors):
            tensors["out.b"] = [entry]
        path = self._edited(tiny_setup, tmp_path, retype)
        with pytest.raises(MalformedFile,
                           match=r"model\.json: tensor out\.b has shape .* not a list of integers"):
            model.load_checkpoint(path)

    def test_rejects_missing_tensor(self, tiny_setup, tmp_path):
        path = self._edited(tiny_setup, tmp_path, lambda t: t.pop("out.b"))
        with pytest.raises(MalformedFile, match=r"model\.json: tensor out\.b is missing"):
            model.load_checkpoint(path)

    def test_rejects_extra_tensor(self, tiny_setup, tmp_path):
        def add(tensors):
            tensors["dec.0.attn.spare"] = [1]
        path = self._edited(tiny_setup, tmp_path, add)
        with pytest.raises(MalformedFile, match=r"model\.json: unexpected tensor dec\.0\.attn\.spare"):
            model.load_checkpoint(path)

    def test_rejects_wrong_tensor_shape(self, tiny_setup, tmp_path):
        def reshape(tensors):
            tensors["embed.audio.w"] = tensors["embed.audio.w"][::-1]
        path = self._edited(tiny_setup, tmp_path, reshape)
        with pytest.raises(MalformedFile, match=r"model\.json: tensor embed\.audio\.w has shape"):
            model.load_checkpoint(path)

    def test_weight_layout_matches_init(self, tiny_setup):
        # the layout load_checkpoint checks a header against, drawn or not
        weights, config, _, _ = tiny_setup
        assert ({name: shape for name, shape, _ in model._weight_layout(config)}
                == {n: t.shape for n, t in weights.items()})

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedFile, match=r"nowhere\.json"):
            model.load_checkpoint(str(tmp_path / "nowhere.json"))


class TestFullScaleShape:
    def test_forward_shape(self, rng):
        config = dataclasses.replace(ModelConfig.full_scale(),
                                     encoder_layers=1, decoder_layers=1)
        weights = model.init_weights(config, np.random.default_rng(0))
        motion = rng.standard_normal((120, 219)) * 0.1
        audio = rng.standard_normal((240, 35)) * 0.1
        out = model.predict_future(weights, config, motion, audio)
        assert out.shape == (20, 219)
        assert np.all(np.isfinite(out))
