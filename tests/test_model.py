"""Model stack: config gates, weight inventory, forward equivalences,
autoregressive windowing, checkpoint format.

_einsum_reference is a from-scratch canonical transformer (einsum heads,
complex-number rotary) kept deliberately unlike the package's tape
implementation; with quaternion attention disabled the two must agree.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from quatmotion import autograd as ag
from quatmotion import model, qra, spe
from quatmotion.autograd import Tensor
from quatmotion.errors import (AudioTooShort, ChannelMismatch, DimensionMismatch,
                               HeadDimNotQuaternion, MalformedFile)
from quatmotion.model import ModelConfig
from quatmotion.numerics import ConvKernel


def _ref_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(var + eps) * gamma + beta


def _ref_rope(x, base):
    # x: (T, H, dh); pairs as complex numbers spun by pos * base**(-2i/dh)
    steps, _, dh = x.shape
    freqs = base ** (-2.0 * np.arange(dh // 2) / dh)
    ang = np.arange(steps)[:, None, None] * freqs[None, None, :]
    z = (x[..., 0::2] + 1j * x[..., 1::2]) * np.exp(1j * ang)
    out = np.empty_like(x)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def _ref_softmax(a):
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _ref_attention(x_q, x_kv, wq, wk, wv, wo, heads, rope_base=None):
    steps, d = x_q.shape
    dh = d // heads
    q = (x_q @ wq).reshape(steps, heads, dh)
    k = (x_kv @ wk).reshape(x_kv.shape[0], heads, dh)
    v = (x_kv @ wv).reshape(x_kv.shape[0], heads, dh)
    if rope_base is not None:
        q = _ref_rope(q, rope_base)
        k = _ref_rope(k, rope_base)
    logits = np.einsum("thd,shd->hts", q, k) / math.sqrt(dh)
    mix = np.einsum("hts,shd->thd", _ref_softmax(logits), v)
    return mix.reshape(steps, d) @ wo


def _ref_ff(x, w, prefix):
    h = np.maximum(x @ w[prefix + ".fc1.w"] + w[prefix + ".fc1.b"], 0.0)
    return h @ w[prefix + ".fc2.w"] + w[prefix + ".fc2.b"]


def _einsum_reference(weights, config, motion, audio):
    """Canonical-attention forward pass; valid only when use_qra is False."""
    assert not config.use_qra
    w = {k: t.data for k, t in weights.items()}
    rope = config.rotary_base if config.use_spe else None
    streams = {}
    for name, x in (("motion", motion), ("audio", audio)):
        h = x @ w[f"embed.{name}.w"] + w[f"embed.{name}.b"]
        if config.use_learned_abs_pos:
            h = h + w[f"pos.{name}"][:h.shape[0]]
        for layer in range(config.encoder_layers):
            p = f"enc.{name}.{layer}"
            hn = _ref_layer_norm(h, w[p + ".ln1.gamma"], w[p + ".ln1.beta"])
            h = h + _ref_attention(hn, hn, w[p + ".attn.wq"], w[p + ".attn.wk"],
                                   w[p + ".attn.wv"], w[p + ".attn.wo"],
                                   config.heads, rope_base=rope)
            hn = _ref_layer_norm(h, w[p + ".ln2.gamma"], w[p + ".ln2.beta"])
            h = h + _ref_ff(hn, w, p + ".ff")
        if config.encoder_layers > 0:
            h = _ref_layer_norm(h, w[f"enc.{name}.norm.gamma"], w[f"enc.{name}.norm.beta"])
        streams[name] = h
    memory = np.vstack([streams["motion"], streams["audio"]])
    state = streams["motion"]
    for layer in range(config.decoder_layers):
        p = f"dec.{layer}"
        sn = _ref_layer_norm(state, w[p + ".ln1.gamma"], w[p + ".ln1.beta"])
        state = state + _ref_attention(sn, memory, w[p + ".attn.wq"], w[p + ".attn.wk"],
                                       w[p + ".attn.wv"], w[p + ".attn.wo"], config.heads)
        sn = _ref_layer_norm(state, w[p + ".ln2.gamma"], w[p + ".ln2.beta"])
        state = state + _ref_ff(sn, w, p + ".ff")
    flat = state[-1] @ w["out.w"] + w["out.b"]
    return flat.reshape(config.future_frames, 219)


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
        ("seed_motion_frames", 0), ("ff_mult", 0),
    ])
    def test_count_gates(self, field, value):
        with pytest.raises(ValueError):
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
        want_co, want_si = spe.angle_tables(5, spe.RotarySchedule(8, 10000.0))
        np.testing.assert_array_equal(co, want_co)
        np.testing.assert_array_equal(si, want_si)
        assert not (co.flags.writeable or si.flags.writeable)

    def test_position_table_overflow(self, tiny_setup, rng):
        weights, config, _, audio = tiny_setup
        too_long = rng.standard_normal((config.seed_motion_frames + 1, 219))
        with pytest.raises(DimensionMismatch):
            model.forward(weights, config, too_long[None], audio[None])


class TestCanonicalEquivalence:
    def test_tiny_ablation_matches_reference(self, tiny_model_config, rng):
        config = dataclasses.replace(tiny_model_config, use_qra=False)
        weights = model.init_weights(config, np.random.default_rng(3))
        motion = rng.standard_normal((config.seed_motion_frames, 219)) * 0.2
        audio = rng.standard_normal((config.audio_frames, 35)) * 0.2
        got = model.predict_future(weights, config, motion, audio)
        want = _einsum_reference(weights, config, motion, audio)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_desk_scale_ablation_matches_reference(self, rng):
        config = ModelConfig(use_qra=False)
        weights = model.init_weights(config, np.random.default_rng(4))
        motion = rng.standard_normal((30, 219)) * 0.1
        audio = rng.standard_normal((60, 35)) * 0.1
        got = model.predict_future(weights, config, motion, audio)
        want = _einsum_reference(weights, config, motion, audio)
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
        config = ModelConfig(d_model=8, heads=2, encoder_layers=0, decoder_layers=1,
                             periods=2, seed_motion_frames=5, audio_frames=7,
                             future_frames=1, qra_keys_use_axis_i=key_axis_i)
        weights = model.init_weights(config, np.random.default_rng(8))
        n, m, d, dh = 5, 12, config.d_model, config.d_head
        m_norm = rng.standard_normal((n, d))
        memory = rng.standard_normal((m, d))
        got = model._cross_attention(Tensor(m_norm[None]), Tensor(memory[None]),
                                     "dec.0.attn", weights, config).data[0]

        head_params = []
        for h in range(config.heads):
            cols = slice(h * dh, (h + 1) * dh)

            def kern(name, h=h):
                return ConvKernel(weights=weights[f"dec.0.attn.{name}.w"].data[h],
                                  bias=weights[f"dec.0.attn.{name}.b"].data[h])

            head_params.append(qra.QRAParams(
                d_model=d, d_attn=dh, periods=config.periods,
                w_q=weights["dec.0.attn.wq"].data[:, cols],
                w_k=weights["dec.0.attn.wk"].data[:, cols],
                w_v=weights["dec.0.attn.wv"].data[:, cols],
                omega_q=kern("omega_q"), theta_q=kern("theta_q"),
                omega_k=kern("omega_k"), theta_k=kern("theta_k")))
        want = qra.multi_head_qra(m_norm, memory, head_params,
                                  weights["dec.0.attn.wo"].data,
                                  key_axis="i" if key_axis_i else "j")
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
    def test_embed_stream(self, tiny_setup):
        weights, config, motion, _ = tiny_setup
        got = model.embed_stream(motion, "motion", weights, config)
        want = (motion @ weights["embed.motion.w"].data
                + weights["embed.motion.b"].data
                + weights["pos.motion"].data[:motion.shape[0]])
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_embed_stream_which_gate(self, tiny_setup):
        weights, config, motion, _ = tiny_setup
        with pytest.raises(ValueError):
            model.embed_stream(motion, "video", weights, config)

    def test_zero_depth_encoder_is_identity(self, rng):
        config = ModelConfig(d_model=8, heads=2, encoder_layers=0, decoder_layers=1,
                             periods=1, seed_motion_frames=4, audio_frames=4,
                             future_frames=1)
        weights = model.init_weights(config, np.random.default_rng(2))
        hidden = rng.standard_normal((4, 8))
        np.testing.assert_array_equal(
            model.encode(hidden, "motion", weights, config), hidden)

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


class TestCheckpoint:
    def test_round_trip_exact(self, tiny_setup, tmp_path):
        weights, config, _, _ = tiny_setup
        path = str(tmp_path / "model.json")
        model.save_checkpoint(path, weights, config)
        loaded, loaded_config = model.load_checkpoint(path)
        assert loaded_config == config
        assert set(loaded) == set(weights)
        for name in weights:
            np.testing.assert_array_equal(loaded[name].data, weights[name].data)
        assert all(t.requires_grad for t in loaded.values())

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {")
        with pytest.raises(MalformedFile):
            model.load_checkpoint(str(path))

    def test_rejects_wrong_format_tag(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "qean-ckpt-v2", "config": {}, "tensors": {}}))
        with pytest.raises(MalformedFile):
            model.load_checkpoint(str(path))

    def test_rejects_unknown_config_key(self, tmp_path):
        doc = {"format": model.CHECKPOINT_FORMAT,
               "config": {"d_model": 8, "mystery": 1}, "tensors": {}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFile):
            model.load_checkpoint(str(path))

    @pytest.mark.parametrize("config", [{"d_model": "x"}, {"d_model": 6, "heads": 4}, []])
    def test_rejects_bad_config(self, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"format": model.CHECKPOINT_FORMAT,
                                    "config": config, "tensors": {}}))
        with pytest.raises(MalformedFile, match=r"cfg\.json"):
            model.load_checkpoint(str(path))

    def test_rejects_shape_mismatch(self, tmp_path):
        doc = {"format": model.CHECKPOINT_FORMAT, "config": {},
               "tensors": {"x": {"shape": [2, 2], "values": [1.0, 2.0, 3.0]}}}
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedFile):
            model.load_checkpoint(str(path))

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"format":"qean-ckpt-v1","config":{},'
                        '"tensors":{"x":{"shape":[1],"values":[Infinity]}}}')
        with pytest.raises(MalformedFile):
            model.load_checkpoint(str(path))

    def _edited(self, tiny_setup, tmp_path, edit):
        weights, config, _, _ = tiny_setup
        path = tmp_path / "model.json"
        model.save_checkpoint(str(path), weights, config)
        doc = json.loads(path.read_text())
        edit(doc["tensors"])
        path.write_text(json.dumps(doc))
        return str(path)

    def test_rejects_missing_tensor(self, tiny_setup, tmp_path):
        path = self._edited(tiny_setup, tmp_path, lambda t: t.pop("out.b"))
        with pytest.raises(MalformedFile, match=r"model\.json: tensor out\.b is missing"):
            model.load_checkpoint(path)

    def test_rejects_extra_tensor(self, tiny_setup, tmp_path):
        def add(tensors):
            tensors["dec.0.attn.spare"] = {"shape": [1], "values": [0.0]}
        path = self._edited(tiny_setup, tmp_path, add)
        with pytest.raises(MalformedFile, match=r"model\.json: unexpected tensor dec\.0\.attn\.spare"):
            model.load_checkpoint(path)

    def test_rejects_wrong_tensor_shape(self, tiny_setup, tmp_path):
        def reshape(tensors):
            entry = tensors["embed.audio.w"]
            entry["shape"] = entry["shape"][::-1]
        path = self._edited(tiny_setup, tmp_path, reshape)
        with pytest.raises(MalformedFile, match=r"model\.json: tensor embed\.audio\.w has shape"):
            model.load_checkpoint(path)

    def test_weight_shapes_match_init(self, tiny_setup):
        weights, config, _, _ = tiny_setup
        assert model.weight_shapes(config) == {n: t.shape for n, t in weights.items()}

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedFile):
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
