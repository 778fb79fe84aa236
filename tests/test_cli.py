"""Exercises the command line surface end to end in temp directories.

The module-scoped workspace holds one tiny but complete project: two
synthetic beat-locked pairs, a two-step training run, and a six-frame
rollout for each pair. Tests only read from it; anything that writes
gets its own directory.
"""

import base64
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatmotion import autograd, cli, forked, numerics, spe
from quatmotion import features as feat
from quatmotion import metrics as met
from quatmotion import model as mod
from quatmotion import quaternion
from quatmotion import training as trn
from quatmotion import verification
from quatmotion.errors import MalformedFile

# overrides shrinking the model/run enough for sub-second training
TINY = [
    "d_model=8", "heads=2", "encoder_layers=1", "decoder_layers=1",
    "periods=2", "seed_motion_frames=6", "audio_frames=9", "future_frames=2",
    "batch_size=2", "total_steps=2", "decay_steps=1:1e-5",
]


def _train_args(data, out, extra=()):
    argv = ["train", "--data", str(data), "--out", str(out)]
    for item in list(TINY) + list(extra):
        argv += ["--set", item]
    return argv


def _assert_names_the_path(capsys, path):
    err = capsys.readouterr().err
    assert f"--out {path}" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ws")
    data = root / "data"
    for idx, period in enumerate((6, 8)):
        assert cli.entry(["synth", "--out", str(data / f"p{idx}"),
                          "--seconds", "0.4", "--seed", str(idx),
                          "--beat-period", str(period)]) == 0
    assert cli.entry(_train_args(data, root / "run")) == 0
    for idx in range(2):
        assert cli.entry([
            "generate", "--ckpt", str(root / "run" / "checkpoint.json"),
            "--music", str(data / f"p{idx}" / "audio.csv"),
            "--seed-motion", str(data / f"p{idx}" / "motion.csv"),
            "--frames", "6", "--out", str(root / "gen" / f"p{idx}")]) == 0
    return root


class TestVerify:

    def test_full_suite_passes(self, capsys):
        assert cli.entry(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        total = (sum(verification.EXPECTED_COUNTS.values())
                 + len(verification.EXPECTED_COUNTS))
        assert f"{total}/{total} checks passed" in out

    def test_single_suite_runs_alone(self, capsys):
        assert cli.entry(["verify", "--suite", "spe"]) == 0
        out = capsys.readouterr().out
        assert "6/6 checks passed" in out
        assert "algebra/" not in out

    def test_suite_choices_match_verification(self):
        assert cli.VERIFY_SUITES == verification.PUBLIC_SUITES

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as info:
            cli.entry(["verify", "--suite", "bogus"])
        assert info.value.code == 2

    def test_injected_sign_error_is_caught(self, capsys, monkeypatch):
        # verify must detect a corrupted primitive, not just rerun green
        true_product = quaternion.hamilton

        def skewed(q, r):
            return true_product(q, r) * [1.0, -1.0, 1.0, 1.0]

        monkeypatch.setattr(quaternion, "hamilton", skewed)
        assert cli.entry(["verify", "--suite", "algebra"]) == 1
        out = capsys.readouterr().out
        failed = [ln for ln in out.splitlines() if ln.startswith("[FAIL]")]
        assert failed
        assert any("algebra/basis_table" in ln for ln in failed)

    def test_checks_reach_the_shipping_kernels(self, monkeypatch):
        # the rotary and conv properties are checked on the code the model
        # runs, not on a wrapper beside it
        calls = collections.Counter()

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        spy(autograd, "rope_apply")
        spy(spe, "angle_tables")
        spy(numerics, "conv1d_im2col")
        assert verification.all_passed(verification.run("spe"))
        assert calls["rope_apply"] > 0 and calls["angle_tables"] > 0
        conv = [c for c in verification.numerics_checks() if c.name.startswith("numerics/conv1d")]
        assert len(conv) == 3 and all(c.passed for c in conv)
        assert calls["conv1d_im2col"] > 0

    def test_a_numerics_check_reads_the_same_whichever_ran_before(self, monkeypatch):
        # each check draws from its own generator, so dropping or
        # reordering the others leaves its inputs and its figure as they are
        full = {c.name: c.measured for c in verification.numerics_checks()}
        assert len(full) == verification.EXPECTED_COUNTS["numerics"]
        checks = verification._NUMERICS
        for kept in (checks[::-1], checks[1::2], checks[::2]):
            monkeypatch.setattr(verification, "_NUMERICS", kept)
            for c in verification.numerics_checks():
                assert c.measured == full[c.name], c.name

    def test_the_rollout_check_replays_every_frame(self, monkeypatch):
        # a last frame moved by one ulp fails the check
        real = mod.autoregressive_generate

        def nudged(seed_motion, audio, steps, weights, config):
            out = real(seed_motion, audio, steps, weights, config)
            if steps > 1:
                out[-1] = np.nextafter(out[-1], np.inf)
            return out

        monkeypatch.setattr(mod, "autoregressive_generate", nudged)
        check, = [c for c in verification.model_checks()
                  if c.name == "model/autoregressive_keep_first"]
        assert not check.passed and check.measured > 0


# the files `synth` writes with every flag at its default
_DEFAULT_SYNTH_SHA256 = {
    "audio.csv": "adc0f2226915ea1b0fc3dac6fa27c157098deeb2d0859cb07fee3b423d9a8c02",
    "audio.csv.f64": "c747717cfd01e24efa082c150757ae3f7d937ef3de7d88e3129989567f175e6c",
    "audio.csv.meta": "6ce47692972b34112136dba96db04d129716007bf213f1f281285e5ca010c3f3",
    "motion.csv": "56568d0ddc07d61bade52f415881c0c63c6d7fe645412f3a5186b9204ff6370c",
    "motion.csv.f64": "7d245159f5f59a24912be0b4ed1090e9f79598e2a7def18f26956b8bf5e686ec",
    "motion.csv.meta": "5001748d380ce507b6d1f510217160b6bacf368aa03cdddf75631847f7d0662f",
    "params.cfg": "b6229a93e8ece99e51e99b7db1a40ca0ce9c4a57086d5caf6a6672f5103f3e4c",
}


class TestSynth:

    def test_writes_streams_with_sidecars(self, workspace):
        pair = workspace / "data" / "p0"
        audio, ameta = feat.load_stream(str(pair / "audio.csv"))
        motion, mmeta = feat.load_stream(str(pair / "motion.csv"))
        assert audio.shape == (24, feat.AUDIO_DIMS)
        assert motion.shape == (24, feat.MOTION_DIMS)
        assert (ameta.kind, ameta.fps, ameta.frames) == ("audio", feat.FPS, 24)
        assert (mmeta.kind, mmeta.dims) == ("motion", feat.MOTION_DIMS)
        params = (pair / "params.cfg").read_text()
        assert "seed = 0" in params
        assert "beat_period_frames = 6" in params

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert cli.entry(["synth", "--out", str(tmp_path / name),
                              "--seconds", "0.3", "--seed", "5"]) == 0
        for fname in ("audio.csv", "motion.csv"):
            assert ((tmp_path / "a" / fname).read_bytes()
                    == (tmp_path / "b" / fname).read_bytes())

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QEAN_SEED", "123")
        assert cli.entry(["synth", "--out", str(tmp_path / "env"),
                          "--seconds", "0.3", "--seed", "0"]) == 0
        monkeypatch.delenv("QEAN_SEED")
        assert cli.entry(["synth", "--out", str(tmp_path / "flag"),
                          "--seconds", "0.3", "--seed", "123"]) == 0
        assert cli.entry(["synth", "--out", str(tmp_path / "plain"),
                          "--seconds", "0.3", "--seed", "0"]) == 0
        env = (tmp_path / "env" / "audio.csv").read_bytes()
        assert env == (tmp_path / "flag" / "audio.csv").read_bytes()
        assert env != (tmp_path / "plain" / "audio.csv").read_bytes()
        assert "seed = 123" in (tmp_path / "env" / "params.cfg").read_text()

    def test_env_seed_must_be_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QEAN_SEED", "not-a-number")
        assert cli.entry(["synth", "--out", str(tmp_path / "x")]) == 2
        assert "QEAN_SEED" in capsys.readouterr().err

    def test_env_seed_must_be_nonnegative(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QEAN_SEED", "-1")
        assert cli.entry(["synth", "--out", str(tmp_path / "x")]) == 2
        assert "QEAN_SEED" in capsys.readouterr().err

    def test_out_under_a_regular_file_exits_two(self, tmp_path, capsys):
        out = tmp_path / "afile" / "x"
        (tmp_path / "afile").write_text("")
        assert cli.entry(["synth", "--out", str(out), "--seconds", "0.3"]) == 2
        _assert_names_the_path(capsys, out)

    def test_default_outputs_are_pinned(self, tmp_path, capsys):
        assert cli.entry(["synth", "--out", str(tmp_path)]) == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert digests == _DEFAULT_SYNTH_SHA256

    @pytest.mark.parametrize("seconds", ["1e6", "1e300", "3600.01"])
    def test_seconds_past_the_frame_cap_exit_two(self, tmp_path, capsys, seconds):
        # the cap is checked before any allocation: 1e6 s would ask for
        # 105 GB of motion
        out = tmp_path / "long"
        assert cli.entry(["synth", "--out", str(out), "--seconds", seconds]) == 2
        err = capsys.readouterr().err
        assert repr(float(seconds)) in err and str(feat.SYNTH_MAX_FRAMES) in err
        assert "Traceback" not in err
        assert not out.exists()


_INT64_MAX = 2 ** 63 - 1


class TestSynthFuzz:
    """`synth` exits 0 or 2 for any duration, beat period and seed; a value
    it rejects is named in the message, never with a traceback."""

    @given(seconds=st.one_of(
               st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1e-300,
                                1 / 120, math.nextafter(1 / 120, 1)]),
               st.floats(-1, 1), st.floats(1, 10)),
           period=st.one_of(st.integers(-3, 100), st.integers(),
                            st.sampled_from([_INT64_MAX, _INT64_MAX + 1, 10 ** 20])),
           seed=st.one_of(st.integers(-3, 100), st.integers(-2 ** 70, 2 ** 70)))
    @settings(max_examples=60, deadline=None)
    def test_any_flag_values_exit_zero_or_two(self, tmp_path_factory, seconds, period, seed):
        out = tmp_path_factory.mktemp("synthfuzz")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.entry(["synth", "--out", str(out), f"--seconds={seconds!r}",
                            f"--beat-period={period}", f"--seed={seed}"])
        message = err.getvalue()
        assert "Traceback" not in message
        rejected = [value for value, ok in ((seconds, 0.5 < seconds * feat.FPS
                                             < feat.SYNTH_MAX_FRAMES + 0.5),
                                            (period, 2 <= period <= _INT64_MAX),
                                            (seed, seed >= 0)) if not ok]
        if rejected:
            assert rc == 2 and str(rejected[0]) in message, message
        else:
            assert rc == 0, message
            audio, _ = feat.load_stream(str(out / "audio.csv"))
            assert len(audio) == round(seconds * feat.FPS)


class TestTrain:

    def test_artifacts_written(self, workspace):
        run = workspace / "run"
        lines = (run / "loss.csv").read_text().splitlines()
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 3  # header plus one row per step
        schedule = trn.TrainConfig(batch_size=2, total_steps=2,
                                   decay_steps=((1, 1e-5),))
        for row in lines[1:]:
            step, lr, loss = row.split(",")
            assert float(lr) == trn.lr_at(int(step), schedule)
            assert np.isfinite(float(loss))
        assert (run / "checkpoint.json").is_file()
        assert (run / "checkpoint.json.f64").is_file()

    def test_config_echo_parses_back(self, workspace):
        raw = cli._read_config_file(str(workspace / "run" / "config_used.cfg"))
        model_config, train_config = cli._build_configs(raw)
        assert model_config == mod.ModelConfig(
            d_model=8, heads=2, encoder_layers=1, decoder_layers=1, periods=2,
            seed_motion_frames=6, audio_frames=9, future_frames=2)
        assert train_config == trn.TrainConfig(
            batch_size=2, total_steps=2, decay_steps=((1, 1e-5),))

    def test_checkpoint_restores_tiny_config(self, workspace):
        weights, config = mod.load_checkpoint(
            str(workspace / "run" / "checkpoint.json"))
        assert config.d_model == 8
        assert config.use_qra
        fresh = mod.init_weights(config, np.random.default_rng(0))
        assert set(weights) == set(fresh)

    def test_config_file_with_set_override(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        body = "\n".join(kv.replace("=", " = ") for kv in TINY)
        cfg.write_text("# tiny model\n" + body
                       + "\ntotal_steps = 9  # loses to --set\n")
        rc = cli.entry(["train", "--config", str(cfg),
                        "--data", str(workspace / "data"),
                        "--out", str(tmp_path / "out"),
                        "--set", "total_steps=1"])
        assert rc == 0
        lines = (tmp_path / "out" / "loss.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_env_seed_overrides_rng(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QEAN_SEED", "7")
        rc = cli.entry(_train_args(workspace / "data", tmp_path / "out"))
        assert rc == 0
        echoed = (tmp_path / "out" / "config_used.cfg").read_text()
        assert "rng_seed = 7" in echoed

    def test_canonical_attention_variant_trains(self, workspace, tmp_path, capsys):
        rc = cli.entry(_train_args(workspace / "data", tmp_path / "out",
                                   extra=("use_qra=false",)))
        assert rc == 0
        _, config = mod.load_checkpoint(str(tmp_path / "out" / "checkpoint.json"))
        assert config.use_qra is False

    def test_undecodable_config_file_exits_two(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"d_model = \xff8\n")
        rc = cli.entry(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                        "--out", str(tmp_path / "out")])
        assert rc == 2
        assert str(cfg) in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nope=3", "d_model"])
    def test_bad_set_exits_two(self, workspace, tmp_path, bad, capsys):
        rc = cli.entry(["train", "--data", str(workspace / "data"),
                        "--out", str(tmp_path / "out"), "--set", bad])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["batch_size=abc", "lr_init=fast", "decay_steps=1:x"])
    def test_unparsable_set_value_names_the_key(self, workspace, tmp_path, bad, capsys):
        rc = cli.entry(_train_args(workspace / "data", tmp_path / "out", extra=(bad,)))
        assert rc == 2
        err = capsys.readouterr().err
        assert "--set" in err and bad.split("=")[0] in err
        assert "Traceback" not in err

    def test_unparsable_config_value_names_key_and_file(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("batch_size = abc\n")
        rc = cli.entry(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                        "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and "batch_size" in err and "'abc'" in err

    @pytest.mark.parametrize("bad", ["beta2=1.5", "lr_init=nan", "clip_norm=-1", "eps=0",
                                     "periods=0", "rng_seed=-1"])
    def test_out_of_range_train_setting_exits_two(self, workspace, tmp_path, bad, capsys):
        rc = cli.entry(_train_args(workspace / "data", tmp_path / "out", extra=(bad,)))
        assert rc == 2
        err = capsys.readouterr().err
        assert bad.split("=")[0] in err and f"--set {bad}" in err
        assert not (tmp_path / "out" / "checkpoint.json").exists()
        assert not (tmp_path / "out" / "checkpoint.json.f64").exists()

    def test_missing_data_dir_exits_two(self, tmp_path, capsys):
        rc = cli.entry(["train", "--data", str(tmp_path / "nowhere"),
                        "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_out_under_a_regular_file_exits_two(self, workspace, tmp_path, capsys):
        out = tmp_path / "afile" / "x"
        (tmp_path / "afile").write_text("")
        assert cli.entry(_train_args(workspace / "data", out)) == 2
        _assert_names_the_path(capsys, out)


class TestGenerate:

    def test_rollout_stream(self, workspace):
        motion, meta = feat.load_stream(
            str(workspace / "gen" / "p0" / "motion.csv"))
        assert motion.shape == (6, feat.MOTION_DIMS)
        assert np.isfinite(motion).all()
        assert (meta.kind, meta.fps, meta.frames) == ("motion", 60, 6)

    def test_matches_library_call(self, workspace):
        # the CLI wraps the library rollout without touching the numbers
        weights, config = mod.load_checkpoint(
            str(workspace / "run" / "checkpoint.json"))
        audio, _ = feat.load_stream(str(workspace / "data" / "p1" / "audio.csv"))
        seed_motion, _ = feat.load_stream(
            str(workspace / "data" / "p1" / "motion.csv"))
        direct = mod.autoregressive_generate(
            seed_motion[:config.seed_motion_frames], audio, 6, weights, config)
        via_cli, _ = feat.load_stream(
            str(workspace / "gen" / "p1" / "motion.csv"))
        assert via_cli.tobytes() == direct.tobytes()

    def test_params_record_start_frame(self, workspace):
        # the rollout's first frame follows the 6-frame seed window
        params = (workspace / "gen" / "p0" / "params.cfg").read_text()
        assert "start_frame = 6" in params.splitlines()

    def test_audio_too_short_exits_three(self, workspace, tmp_path, capsys):
        rc = cli.entry([
            "generate", "--ckpt", str(workspace / "run" / "checkpoint.json"),
            "--music", str(workspace / "data" / "p0" / "audio.csv"),
            "--seed-motion", str(workspace / "data" / "p0" / "motion.csv"),
            "--frames", "100", "--out", str(tmp_path / "g")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_short_music_exits_three_naming_the_file(self, workspace, tmp_path, capsys):
        music = workspace / "data" / "p0" / "audio.csv"
        rc = cli.entry([
            "generate", "--ckpt", str(workspace / "run" / "checkpoint.json"),
            "--music", str(music),
            "--seed-motion", str(workspace / "data" / "p0" / "motion.csv"),
            "--frames", "100", "--out", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(music) in err and "Traceback" not in err
        assert not (tmp_path / "g").exists()

    def test_short_seed_motion_exits_three_naming_the_file(self, workspace, tmp_path, capsys):
        # the model's seed window is 6 frames; this seed motion holds 3
        motion, _ = feat.load_stream(str(workspace / "data" / "p0" / "motion.csv"))
        short = tmp_path / "short.csv"
        feat.save_stream(str(short), motion[:3],
                         feat.StreamMeta("motion", feat.FPS, 3, feat.MOTION_DIMS))
        rc = cli.entry([
            "generate", "--ckpt", str(workspace / "run" / "checkpoint.json"),
            "--music", str(workspace / "data" / "p0" / "audio.csv"),
            "--seed-motion", str(short), "--frames", "2", "--out", str(tmp_path / "g")])
        err = capsys.readouterr().err
        assert rc == 3
        assert str(short) in err and "3 frames" in err and "Traceback" not in err
        assert not (tmp_path / "g").exists()

    def test_out_under_a_regular_file_exits_two_before_the_rollout(self, workspace, tmp_path,
                                                                   monkeypatch, capsys):
        out = tmp_path / "afile" / "x"
        (tmp_path / "afile").write_text("")
        rollouts = []
        monkeypatch.setattr(mod, "autoregressive_generate",
                            lambda *args: rollouts.append(args))
        assert self._generate_from(workspace, workspace / "run" / "checkpoint.json", out) == 2
        _assert_names_the_path(capsys, out)
        assert rollouts == []

    def _generate_from(self, workspace, ckpt, out):
        return cli.entry([
            "generate", "--ckpt", str(ckpt),
            "--music", str(workspace / "data" / "p0" / "audio.csv"),
            "--seed-motion", str(workspace / "data" / "p0" / "motion.csv"),
            "--frames", "2", "--out", str(out)])

    def test_negative_frames_exit_two_before_out(self, workspace, tmp_path, capsys):
        out = tmp_path / "g"
        rc = cli.entry([
            "generate", "--ckpt", str(workspace / "run" / "checkpoint.json"),
            "--music", str(workspace / "data" / "p0" / "audio.csv"),
            "--seed-motion", str(workspace / "data" / "p0" / "motion.csv"),
            "--frames", "-3", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--frames" in err and "-3" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,pattern", [
        ("--ckpt", "r#1/{}"), ("--music", "a\nstart_frame = 7/{}"), ("--seed-motion", "m\r/{}"),
        ("--ckpt", "d/{} "), ("--music", " d/{}")])
    def test_unrecordable_path_exits_two_naming_the_flag(self, workspace, tmp_path, capsys,
                                                         monkeypatch, flag, pattern):
        # params.cfg records the three paths; one that would not read back
        # as given is refused before anything is written, here for real
        # copies of the files that would otherwise generate (relative to
        # the working directory, so a path can start with a space)
        sources = {"--ckpt": workspace / "run" / "checkpoint.json",
                   "--music": workspace / "data" / "p0" / "audio.csv",
                   "--seed-motion": workspace / "data" / "p0" / "motion.csv"}
        monkeypatch.chdir(tmp_path)
        paths = dict(sources)
        paths[flag] = pathlib.Path(pattern.format(sources[flag].name))
        paths[flag].parent.mkdir()
        for suffix in ("", feat.PAYLOAD_SUFFIX, feat.META_SUFFIX):
            src = pathlib.Path(str(sources[flag]) + suffix)
            if src.exists():
                pathlib.Path(str(paths[flag]) + suffix).write_bytes(src.read_bytes())
        out = tmp_path / "g"
        argv = ["generate", "--frames", "2", "--out", str(out)]
        for name, path in paths.items():
            argv += [name, str(path)]
        assert cli.entry(argv) == 2
        err = capsys.readouterr().err
        assert f"{flag} " in err and "cannot be recorded" in err and "Traceback" not in err
        assert not out.exists()

    def test_checkpoint_missing_tensor_exits_two(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "run" / "checkpoint.json").read_text())
        del doc["tensors"]["out.b"]
        ckpt = tmp_path / "cut.json"
        ckpt.write_text(json.dumps(doc))
        rc = self._generate_from(workspace, ckpt, tmp_path / "g")
        err = capsys.readouterr().err
        assert rc == 2
        assert "cut.json" in err and "out.b" in err

    def test_checkpoint_float_count_exits_two(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "run" / "checkpoint.json").read_text())
        doc["config"]["d_model"] = float(doc["config"]["d_model"])
        ckpt = tmp_path / "floaty.json"
        ckpt.write_text(json.dumps(doc))
        rc = self._generate_from(workspace, ckpt, tmp_path / "g")
        err = capsys.readouterr().err
        assert rc == 2
        assert "floaty.json" in err and "d_model" in err and "Traceback" not in err

    def test_undecodable_checkpoint_exits_two(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "binary.json"
        ckpt.write_bytes(b"\xff" + (workspace / "run" / "checkpoint.json").read_bytes())
        assert self._generate_from(workspace, ckpt, tmp_path / "g") == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "UTF-8" in err

    def test_v1_checkpoint_exits_two(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "run" / "checkpoint.json").read_text())
        doc["format"] = "qean-ckpt-v1"
        ckpt = tmp_path / "old.json"
        ckpt.write_text(json.dumps(doc))
        assert self._generate_from(workspace, ckpt, tmp_path / "g") == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "qean-ckpt-v1" in err and "qean-ckpt-v3" in err

    def test_v2_checkpoint_exits_two(self, workspace, tmp_path, capsys):
        # the previous format: one JSON file, each tensor's bytes in base64
        weights, config = mod.load_checkpoint(str(workspace / "run" / "checkpoint.json"))
        doc = {"format": "qean-ckpt-v2", "config": mod.config_to_dict(config),
               "tensors": {name: {"shape": list(t.data.shape),
                                  "data": base64.b64encode(t.data.tobytes()).decode()}
                           for name, t in sorted(weights.items())}}
        ckpt = tmp_path / "old.json"
        ckpt.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        assert self._generate_from(workspace, ckpt, tmp_path / "g") == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "qean-ckpt-v2" in err and "qean-ckpt-v3" in err
        assert "Traceback" not in err

    def test_missing_payload_exits_two(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "header_only.json"
        ckpt.write_bytes((workspace / "run" / "checkpoint.json").read_bytes())
        assert self._generate_from(workspace, ckpt, tmp_path / "g") == 2
        err = capsys.readouterr().err
        assert str(ckpt) + ".f64" in err and "Traceback" not in err
        assert not (tmp_path / "g").exists()

    def test_wrong_stream_kind_exits_two(self, workspace, tmp_path, capsys):
        rc = cli.entry([
            "generate", "--ckpt", str(workspace / "run" / "checkpoint.json"),
            "--music", str(workspace / "data" / "p0" / "motion.csv"),
            "--seed-motion", str(workspace / "data" / "p0" / "motion.csv"),
            "--frames", "2", "--out", str(tmp_path / "g")])
        assert rc == 2


# runs `quatmotion <argv[3:]>` from the sources at argv[1], with a second
# Python thread alive if argv[2] is "thread", then prints the largest RSS
# of the processes it reaped, 0 if it reaped none
_COUNTING_CHILDREN = """
import resource, sys, threading
sys.path.insert(0, sys.argv[1])
from quatmotion import cli
if sys.argv[2] == "thread":
    threading.Thread(target=threading.Event().wait, daemon=True).start()
code = cli.entry(sys.argv[3:])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


class TestGenerateWorker:
    """A rollout of at least model._FORK_MIN_STEPS frames encodes its music
    in a forked worker where the process allows one."""

    def _argv(self, workspace, out, frames):
        return ["generate", "--ckpt", str(workspace / "run" / "checkpoint.json"),
                "--music", str(workspace / "data" / "p0" / "audio.csv"),
                "--seed-motion", str(workspace / "data" / "p0" / "motion.csv"),
                "--frames", str(frames), "--out", str(out)]

    def test_the_command_forks_and_writes_what_it_writes_alone(self, workspace, tmp_path):
        src = pathlib.Path(mod.__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        written = {}
        for threads in ("one", "thread"):
            out = tmp_path / threads
            argv = self._argv(workspace, out, mod._FORK_MIN_STEPS + 2)
            done = subprocess.run([sys.executable, "-c", _COUNTING_CHILDREN, str(src),
                                   threads, *argv],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            reaped_rss = int(done.stdout.split()[-1])
            written[threads] = reaped_rss, [(out / name).read_bytes() for name in
                                            ("motion.csv", "motion.csv" + feat.PAYLOAD_SUFFIX)]
        # one OS thread: the worker ran and was reaped; a second thread
        # closes the gate, so nothing was forked
        assert written["one"][0] > 0 and written["thread"][0] == 0
        assert written["one"][1] == written["thread"][1]

    def test_a_killed_worker_exits_three(self, workspace, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        real = mod._InProcessAudio.window

        def dying(source, s):
            if os.getpid() != parent and s == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(source, s)

        monkeypatch.setattr(forked, "may_fork", lambda: True)
        monkeypatch.setattr(mod._InProcessAudio, "window", dying)
        out = tmp_path / "g"
        assert cli.entry(self._argv(workspace, out, mod._FORK_MIN_STEPS + 2)) == 3
        err = capsys.readouterr().err
        assert "rollout worker" in err and "killed by signal 9" in err
        assert "Traceback" not in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


_JUNK = st.one_of(st.none(), st.text(max_size=4), st.lists(st.integers(), max_size=2))
# config fields for which every other integer changes a weight's shape or
# the tensor set, so no integer edit leaves a loadable checkpoint
_SHAPED = ("d_model", "heads", "encoder_layers", "decoder_layers", "periods",
           "seed_motion_frames", "audio_frames", "future_frames", "ff_mult")


def _bad_config_value(field, stored):
    """Values of `field` that no loadable checkpoint holds beside these tensors."""
    typo = st.one_of(_JUNK, st.booleans(), st.floats())
    if field in _SHAPED:
        return st.one_of(typo, st.integers().filter(lambda v: v != stored))
    if field == "fps":
        return st.one_of(typo, st.integers(max_value=0))
    if field == "rotary_base":
        return st.one_of(_JUNK, st.booleans(), st.floats(max_value=0.0),
                         st.sampled_from([math.nan, math.inf]), st.integers(max_value=0))
    # a boolean; dropping QRA or the position tables changes the tensor set
    flip = st.just(not stored) if field in ("use_qra", "use_learned_abs_pos") else st.nothing()
    return st.one_of(_JUNK, st.integers(), st.floats(), flip)


def _malformed(data, header, payload):
    """One edit of a good checkpoint's header text and payload bytes."""
    doc = json.loads(header)
    kind = data.draw(st.sampled_from(
        ["format", "config", "config_key", "shape", "bytes", "sha256", "payload_key",
         "drop_key", "junk_key", "cut_header", "truncate", "extend", "flip"]))
    if kind == "format":
        doc["format"] = data.draw(st.one_of(
            _JUNK, st.sampled_from(["qean-ckpt-v1", "qean-ckpt-v2", "qean-ckpt-v4"]))
            .filter(lambda v: v != mod.CHECKPOINT_FORMAT))
    elif kind == "config":
        field = data.draw(st.sampled_from(sorted(doc["config"])))
        doc["config"][field] = data.draw(_bad_config_value(field, doc["config"][field]))
    elif kind == "config_key":
        doc["config"][data.draw(st.sampled_from(["mystery", "dmodel", ""]))] = 8
    elif kind == "shape":
        name = data.draw(st.sampled_from(sorted(doc["tensors"])))
        shape = doc["tensors"][name]
        edit = data.draw(st.sampled_from(["replace", "append", "drop"]))
        if edit == "replace":
            at = data.draw(st.integers(0, len(shape) - 1))
            shape[at] = data.draw(st.one_of(_JUNK, st.booleans(), st.floats(),
                                            st.integers().filter(lambda v: v != shape[at])))
        elif edit == "append":
            shape.append(data.draw(st.integers(0, 4)))
        else:
            shape.pop(data.draw(st.integers(0, len(shape) - 1)))
    elif kind == "bytes":
        doc["payload"]["bytes"] = data.draw(st.one_of(
            _JUNK, st.booleans(), st.floats(),
            st.integers().filter(lambda v: v != len(payload))))
    elif kind == "sha256":
        digest = doc["payload"]["sha256"]
        doc["payload"]["sha256"] = data.draw(st.one_of(
            _JUNK, st.integers(), st.text("0123456789abcdef", min_size=64, max_size=64))
            .filter(lambda v: v != digest))
    elif kind == "payload_key":
        del doc["payload"][data.draw(st.sampled_from(["bytes", "sha256"]))]
    elif kind == "drop_key":
        del doc[data.draw(st.sampled_from(sorted(doc)))]
    elif kind == "junk_key":
        doc[data.draw(st.sampled_from(["config", "tensors", "payload"]))] = data.draw(
            st.one_of(_JUNK, st.integers(), st.floats()))
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if kind == "cut_header":
        # anything short of the closing brace is not JSON
        text = text[:data.draw(st.integers(0, len(text) - 3))]
    elif kind == "truncate":
        payload = payload[:data.draw(st.integers(0, len(payload) - 1))]
    elif kind == "extend":
        payload += data.draw(st.binary(min_size=1, max_size=16))
    elif kind == "flip":
        at = data.draw(st.integers(0, len(payload) - 1))
        mask = data.draw(st.integers(1, 255))
        payload = payload[:at] + bytes([payload[at] ^ mask]) + payload[at + 1:]
    return text, payload


class TestCheckpointFuzz:
    """Every malformed checkpoint, header or payload, makes `generate`
    exit 2 naming the checkpoint, with no traceback."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_malformed_checkpoint_exits_two(self, workspace, tmp_path_factory, data):
        run = workspace / "run"
        text, payload = _malformed(data, (run / "checkpoint.json").read_text(),
                                   (run / "checkpoint.json.f64").read_bytes())
        root = tmp_path_factory.mktemp("fuzz")
        ckpt = root / "checkpoint.json"
        ckpt.write_text(text)
        pathlib.Path(str(ckpt) + ".f64").write_bytes(payload)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.entry([
                "generate", "--ckpt", str(ckpt),
                "--music", str(workspace / "data" / "p0" / "audio.csv"),
                "--seed-motion", str(workspace / "data" / "p0" / "motion.csv"),
                "--frames", "2", "--out", str(root / "g")])
        assert rc == 2, err.getvalue()
        assert str(ckpt) in err.getvalue() and "Traceback" not in err.getvalue()
        assert not (root / "g").exists()


_JUNK = st.one_of(st.text(max_size=8),
                  st.sampled_from(["", " ", "2.0", "1e3", "0x10", "nan", "-inf", "\udcff"]))


def _config_value(key):
    """A value for key: often well-formed, often not."""
    kind = cli._MODEL_FIELDS.get(key) or cli._TRAIN_FIELDS.get(key)
    if key == "decay_steps":
        entry = st.tuples(st.one_of(st.integers(-2, 9).map(str), _JUNK),
                          st.sampled_from([":", "", "::", "="]),
                          st.one_of(st.floats().map(repr), _JUNK)).map("".join)
        entries = st.tuples(st.sampled_from([",", ";", ", ", ",,"]),
                            st.lists(entry, max_size=3))
        return st.one_of(entries.map(lambda t: t[0].join(t[1])), _JUNK)
    if kind == "bool":
        return st.one_of(st.sampled_from(["true", "false", "yes", "no", "1", "0", "on"]),
                         _JUNK)
    if kind == "int" and key in cli._MODEL_FIELDS:
        # model sizes stay small: a well-formed one really is built
        return st.one_of(st.integers(-2, 12).map(str), _JUNK)
    if kind == "int":
        return st.one_of(st.integers().map(str), _JUNK)
    return st.one_of(st.floats().map(repr), _JUNK)


_KEYS = st.one_of(st.sampled_from(sorted({**cli._MODEL_FIELDS, **cli._TRAIN_FIELDS})),
                  st.text(max_size=10))


@st.composite
def _config_item(draw, seps):
    key = draw(_KEYS)
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return f"{pad}{key}{pad}{draw(st.sampled_from(seps))}{draw(_config_value(key.strip()))}"


class TestConfigFuzz:
    """Every malformed `--config` file or `--set` pair makes `train` exit 2
    or 3 naming the file or the pair, never with a traceback or exit 1."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_malformed_config_exits_two_or_three(self, workspace, tmp_path_factory, data):
        root = tmp_path_factory.mktemp("cfgfuzz")
        argv = ["train", "--data", str(workspace / "data"), "--out", str(root / "run")]
        cfg = root / "run.cfg"
        target = data.draw(st.sampled_from(["none", "file", "file", "file", "dir", "missing"]))
        if target == "file":
            lines = data.draw(st.lists(st.one_of(
                _config_item(["=", " = ", "", "=="]),
                st.sampled_from(["", "# comment", "  ", "key = 1 # trailing"])), max_size=6))
            newline = data.draw(st.sampled_from(["\n", "\r\n"]))
            cfg.write_bytes(newline.join(lines).encode("utf-8", "surrogateescape"))
        elif target == "dir":
            cfg.mkdir()
        if target != "none":
            argv += ["--config", str(cfg)]
        sets = data.draw(st.lists(_config_item(["=", " = ", ""]), max_size=4))
        argv += [f"--set={item}" for item in sets]
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            # a well-formed config is only built, not trained
            mp.setattr(trn, "train", lambda *args, **kwargs: [])
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.entry(argv)
        message = err.getvalue()
        assert rc in (0, 2, 3), message
        assert "Traceback" not in message
        if rc:
            # a model config that fits no stream names the stream instead
            named = [str(workspace / "data")]
            named += [str(cfg)] if target != "none" else []
            named += ["--set"] if sets else []
            assert any(name in message for name in named), (argv, message)


def _copied_pair(workspace, root, audio_from="audio", fps=None):
    """data/p0 copied to root/p0; audio_from="motion" puts the motion
    stream in audio.csv, and fps, when given, goes into audio.csv.meta."""
    src, pair = workspace / "data" / "p0", root / "p0"
    pair.mkdir(parents=True)
    for kind, source in (("audio", audio_from), ("motion", "motion")):
        for ext in (".csv", ".csv.meta"):
            (pair / (kind + ext)).write_bytes((src / (source + ext)).read_bytes())
    if fps is not None:
        meta = pair / "audio.csv.meta"
        meta.write_text(meta.read_text().replace("fps: 60", f"fps: {fps}"))
    return pair


class TestStreamContract:
    """Streams whose kind or fps does not fit, or that do not parse, exit 2
    naming the file; nothing downstream sees them."""

    def _generate(self, workspace, pair, out):
        return cli.entry(["generate", "--ckpt", str(workspace / "run" / "checkpoint.json"),
                          "--music", str(pair / "audio.csv"),
                          "--seed-motion", str(pair / "motion.csv"),
                          "--frames", "2", "--out", str(out)])

    def test_generate_rejects_music_at_another_fps(self, workspace, tmp_path, capsys):
        pair = _copied_pair(workspace, tmp_path, fps=30)
        assert self._generate(workspace, pair, tmp_path / "g") == 2
        err = capsys.readouterr().err
        assert str(pair / "audio.csv") in err and "30 fps" in err and "60" in err
        assert not (tmp_path / "g").exists()

    def test_train_rejects_audio_at_another_fps(self, workspace, tmp_path, capsys):
        pair = _copied_pair(workspace, tmp_path, fps=30)
        assert cli.entry(_train_args(tmp_path, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert str(pair / "audio.csv") in err and "30 fps" in err and "60" in err
        assert not (tmp_path / "out" / "checkpoint.json").exists()
        assert not (tmp_path / "out" / "checkpoint.json.f64").exists()

    def test_train_rejects_motion_in_audio_file(self, workspace, tmp_path, capsys):
        pair = _copied_pair(workspace, tmp_path, audio_from="motion")
        assert cli.entry(_train_args(tmp_path, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert str(pair / "audio.csv") in err and "motion" in err and "audio" in err

    def test_eval_rejects_motion_in_reference_audio(self, workspace, tmp_path, capsys):
        pair = _copied_pair(workspace, tmp_path / "ref", audio_from="motion")
        rc = cli.entry(["eval", "--ref", str(tmp_path / "ref"),
                        "--gen", str(workspace / "gen"), "--metrics", "fid"])
        assert rc == 2
        assert str(pair / "audio.csv") in capsys.readouterr().err

    def test_generate_rejects_ragged_music(self, workspace, tmp_path, capsys):
        pair = _copied_pair(workspace, tmp_path)
        audio = pair / "audio.csv"
        rows = audio.read_text().splitlines()
        rows[3] = rows[3].rsplit(",", 1)[0]
        audio.write_text("\n".join(rows) + "\n")
        assert self._generate(workspace, pair, tmp_path / "g") == 2
        err = capsys.readouterr().err
        assert f"ragged row 3 in {audio}" in err and "Traceback" not in err


def _continuation(root, start_frame=None):
    """A reference pair (beat period 24) and, as its "generated" clip, the
    true frames [30, 90): the rollout a perfect model makes from a
    30-frame seed. start_frame, when given, goes to the clip's params.cfg."""
    ref, gen = root / "ref" / "c", root / "gen" / "c"
    assert cli.entry(["synth", "--out", str(ref), "--seconds", str(91 / 60),
                      "--seed", "30", "--beat-period", "24"]) == 0
    audio, motion = cli._load_pair(str(ref))
    gen.mkdir(parents=True)
    feat.save_stream(str(gen / "motion.csv"), motion[30:90],
                     feat.StreamMeta("motion", feat.FPS, 60, feat.MOTION_DIMS))
    lines = "frames = 60\n"
    if start_frame is not None:
        lines += f"start_frame = {start_frame}\n"
    (gen / "params.cfg").write_text(lines)
    return audio, motion


def _beat_eval(root):
    return cli.entry(["eval", "--ref", str(root / "ref"), "--gen", str(root / "gen"),
                      "--metrics", "beat"])


class TestEval:

    def test_beat_scores_the_music_under_the_rollout(self, tmp_path, capsys):
        _continuation(tmp_path, start_frame=30)
        capsys.readouterr()
        assert _beat_eval(tmp_path) == 0
        assert json.loads(capsys.readouterr().out)["beat_align"] == 1.0

    def test_beat_without_start_frame_scores_from_frame_zero(self, tmp_path, capsys):
        audio, motion = _continuation(tmp_path)
        capsys.readouterr()
        assert _beat_eval(tmp_path) == 0
        want = met.beat_align(met.motion_beats(motion[30:90]), met.music_beats(audio))
        assert json.loads(capsys.readouterr().out)["beat_align"] == want < 0.5

    @pytest.mark.parametrize("start", ["thirty", "-1"])
    def test_beat_bad_start_frame_exits_two(self, tmp_path, capsys, start):
        _continuation(tmp_path, start_frame=start)
        assert _beat_eval(tmp_path) == 2
        assert str(tmp_path / "gen" / "c" / "params.cfg") in capsys.readouterr().err

    def test_beat_audio_too_short_exits_three(self, tmp_path, capsys):
        _continuation(tmp_path, start_frame=40)
        assert _beat_eval(tmp_path) == 3
        err = capsys.readouterr().err
        assert str(tmp_path / "ref" / "c" / "audio.csv") in err and "start_frame 40" in err

    def test_undecodable_reference_exits_two(self, workspace, tmp_path, capsys):
        ref = tmp_path / "ref" / "p0"
        ref.mkdir(parents=True)
        for name in ("audio.csv", "audio.csv.meta", "motion.csv", "motion.csv.meta"):
            (ref / name).write_bytes((workspace / "data" / "p0" / name).read_bytes())
        audio = ref / "audio.csv"
        audio.write_bytes(b"\xff\xfe" + audio.read_bytes())
        rc = cli.entry(["eval", "--ref", str(tmp_path / "ref"),
                        "--gen", str(workspace / "gen"), "--metrics", "fid"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(audio) in err and "UTF-8" in err

    def test_full_report_on_generated(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.entry(["eval", "--ref", str(workspace / "data"),
                        "--gen", str(workspace / "gen"),
                        "--metrics", "fid,diversity",
                        "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["ref_items"] == 2
        assert report["gen_items"] == 2
        assert report["fid_k"] == report["fid_dynamic"] >= 0.0
        assert report["fid_g"] == report["fid_geometric"] >= 0.0
        assert report["dist_k"] == report["diversity_dynamic"] >= 0.0
        assert report["dist_g"] == report["diversity_geometric"] >= 0.0
        printed = json.loads(capsys.readouterr().out)
        assert printed == report

    def test_fid_and_diversity_featurize_each_set_once(self, workspace, tmp_path, monkeypatch):
        argv = ["eval", "--ref", str(workspace / "data"), "--gen", str(workspace / "gen")]
        alone = {}
        for metric in ("fid", "diversity"):
            assert cli.entry(argv + ["--metrics", metric, "--out", str(tmp_path / metric)]) == 0
            alone.update(json.loads((tmp_path / metric).read_text()))
        calls = []
        featurize = cli._feature_sets
        monkeypatch.setattr(cli, "_feature_sets",
                            lambda motions: calls.append(len(motions)) or featurize(motions))
        both = tmp_path / "both.json"
        assert cli.entry(argv + ["--metrics", "fid,diversity", "--out", str(both)]) == 0
        assert len(calls) == 2          # the references once, the rollouts once
        assert both.read_text() == json.dumps(alone, sort_keys=True, indent=2) + "\n"

    def test_missing_gen_directory_exits_two(self, workspace, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        rc = cli.entry(["eval", "--ref", str(workspace / "data"),
                        "--gen", str(missing), "--metrics", "fid"])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(missing) in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--ref", "--gen"])
    def test_missing_clip_root_names_the_flag(self, workspace, tmp_path, capsys, flag):
        missing = tmp_path / "nowhere"
        roots = {"--ref": str(workspace / "data"), "--gen": str(workspace / "gen"),
                 flag: str(missing)}
        rc = cli.entry(["eval", *(arg for pair in roots.items() for arg in pair),
                        "--metrics", "fid"])
        assert rc == 2
        assert f"{flag} {missing} is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["under a regular file", "an existing directory"])
    def test_unwritable_out_exits_two(self, workspace, tmp_path, capsys, where):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x.json" if where.startswith("under") else tmp_path
        rc = cli.entry(["eval", "--ref", str(workspace / "data"),
                        "--gen", str(workspace / "gen"), "--metrics", "diversity",
                        "--out", str(out)])
        assert rc == 2
        _assert_names_the_path(capsys, out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_identical_sets_score_zero_fid(self, workspace, capsys):
        rc = cli.entry(["eval", "--ref", str(workspace / "data"),
                        "--gen", str(workspace / "data"), "--metrics", "fid"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fid_dynamic"] == pytest.approx(0.0, abs=1e-6)
        assert report["fid_geometric"] == pytest.approx(0.0, abs=1e-6)

    def test_beat_subset_keys(self, workspace, capsys):
        rc = cli.entry(["eval", "--ref", str(workspace / "data"),
                        "--gen", str(workspace / "data"), "--metrics", "beat"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"ref_items", "gen_items", "beat_align"}
        assert 0.5 < report["beat_align"] <= 1.0

    def test_unknown_metric_exits_two(self, workspace, capsys):
        rc = cli.entry(["eval", "--ref", str(workspace / "data"),
                        "--gen", str(workspace / "data"), "--metrics", "tempo"])
        assert rc == 2
        assert "unknown metrics" in capsys.readouterr().err

    def test_single_item_fid_exits_four(self, workspace, capsys):
        pair = workspace / "data" / "p0"
        rc = cli.entry(["eval", "--ref", str(pair), "--gen", str(pair),
                        "--metrics", "fid"])
        assert rc == 4
        assert "error:" in capsys.readouterr().err

    def test_beat_needs_matching_reference(self, workspace, capsys):
        rc = cli.entry(["eval", "--ref", str(workspace / "data"),
                        "--gen", str(workspace / "data" / "p0"),
                        "--metrics", "beat"])
        assert rc == 2


# one params.cfg line: text holds no comment mark or line break, so each
# drawn line stays one line with its own key and value
_LINE_TEXT = st.text(st.characters(blacklist_characters="#\n\r",
                                   blacklist_categories=("Cs",)), max_size=8)
_PAD = st.sampled_from(["", " ", "\t"])


@st.composite
def _params_line(draw):
    """(line, effect): effect is None for a line that leaves start_frame
    alone, ("bad", 2) for a line the reader must reject, and (start, rc)
    for a start_frame line: the exit code its value alone leads to."""
    kind = draw(st.sampled_from(["other", "comment", "bad", "start", "start", "junk",
                                 "negative"]))
    pad = draw(_PAD)
    if kind == "other":
        key = draw(st.sampled_from(["frames", "ckpt", "music", "start_frames",
                                    "start_frame_x"]))
        return f"{key}{pad}={pad}{draw(_LINE_TEXT)}", None
    if kind == "comment":
        return draw(st.sampled_from(["", "  ", "# start_frame = x", "\t# note"])), None
    if kind == "bad":
        # a line with text and no '=' is not key = value
        return draw(_LINE_TEXT.filter(lambda t: "=" not in t and t.strip())), ("bad", 2)
    if kind == "junk":
        # a letter or a point makes no base-10 integer
        value = (draw(_LINE_TEXT) + draw(st.sampled_from("aexXZ.")) + draw(_LINE_TEXT))
        return f"start_frame{pad}={pad}{value}", ("start", 2)
    if kind == "negative":
        return f"start_frame{pad}={pad}{draw(st.integers(max_value=-1))}", ("start", 2)
    start = draw(st.one_of(st.integers(0, 40), st.integers(0, 10 ** 30)))
    text = draw(st.sampled_from(["", "+", "0", "00"])) + str(start)
    # the clip's 60 frames fit the reference's 91 from start 31 down
    return f"start_frame{pad}={pad}{text}{draw(_PAD)}", ("start", 0 if start <= 31 else 3)


@pytest.fixture(scope="module")
def continuation(tmp_path_factory):
    root = tmp_path_factory.mktemp("params")
    _continuation(root)
    return root


class TestParamsFuzz:
    """A generated clip's params.cfg that the reader must reject makes
    `eval --metrics beat` exit 2, or 3 for a start_frame past the music,
    naming the file, never with a traceback; any other is scored."""

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_malformed_params_exit_two_or_three(self, continuation, data):
        lines = data.draw(st.lists(_params_line(), max_size=5))
        body = data.draw(st.sampled_from(["\n", "\r\n"])).join(line for line, _ in lines)
        raw = body.encode("utf-8")
        undecodable = data.draw(st.booleans())
        if undecodable:
            at = data.draw(st.integers(0, len(raw)))
            raw = raw[:at] + b"\xff" + raw[at:]
        params = continuation / "gen" / "c" / "params.cfg"
        params.write_bytes(raw)
        effects = [effect for _, effect in lines if effect is not None]
        starts = [rc for kind, rc in effects if kind == "start"]
        if undecodable or ("bad", 2) in effects:
            want = 2
        else:
            # the last start_frame line wins; none scores from frame 0
            want = starts[-1] if starts else 0
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = _beat_eval(continuation)
        message = err.getvalue()
        assert rc == want, (raw, message)
        assert "Traceback" not in message
        if want:
            assert str(params) in message, (raw, message)


# any character, lone surrogates included, and the ones the reader treats
# specially: comments, line breaks, whitespace it strips, the separator
_VALUE_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                                st.sampled_from("#\n\r \t\x0b\x0c\x1c\x85\xa0\u2028=")),
                      max_size=10)


class TestConfigValueRoundTrip:
    """_write_config records a value exactly as _read_config_file reads it
    back, or refuses it; a refused value, written anyway, would not read
    back as given."""

    @given(value=_VALUE_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_values_read_back_or_are_refused(self, tmp_path_factory, value):
        path = tmp_path_factory.mktemp("roundtrip") / "params.cfg"
        try:
            cli._write_config(str(path), {"music": value, "frames": 6})
        except MalformedFile as exc:
            assert "music" in str(exc)
            assert not path.exists()
            path.write_bytes(f"music = {value}\nframes = 6\n".encode("utf-8", "surrogatepass"))
            try:
                back = cli._read_config_file(str(path))
            except MalformedFile:
                return
            assert back != {"music": value, "frames": "6"}
            return
        assert cli._read_config_file(str(path)) == {"music": value, "frames": "6"}


@pytest.fixture(scope="module")
def clip_sets(tmp_path_factory):
    """Two reference pairs and, as their generated clips, the true frames
    [30, 90) with start_frame 30 in each clip's params.cfg."""
    root = tmp_path_factory.mktemp("clips")
    for idx in range(2):
        ref, gen = root / "ref" / f"c{idx}", root / "gen" / f"c{idx}"
        assert cli.entry(["synth", "--out", str(ref), "--seconds", str(91 / 60),
                          "--seed", str(30 + idx), "--beat-period", "24"]) == 0
        _, motion = cli._load_pair(str(ref))
        gen.mkdir(parents=True)
        feat.save_stream(str(gen / "motion.csv"), motion[30:90],
                         feat.StreamMeta("motion", feat.FPS, 60, feat.MOTION_DIMS))
        (gen / "params.cfg").write_text("frames = 60\nstart_frame = 30\n")
    return root


# a file whose loss eval must report; the twin and params.cfg may go
_VITAL = ("motion.csv", "motion.csv.meta", "audio.csv", "audio.csv.meta")
_DROPPABLE = ([f"gen/c{i}/{name}" for i in range(2)
               for name in ("motion.csv", "motion.csv.meta", "motion.csv.f64", "params.cfg")]
              + [f"ref/c{i}/{name}" for i in range(2)
                 for name in ("audio.csv", "audio.csv.meta", "audio.csv.f64")])


class TestEvalMissingFiles:
    """`eval` over clip directories that lost a file: losing a stream or
    its sidecar exits 2 naming the file, never 1 or with a traceback;
    losing a twin or a params.cfg still scores."""

    @given(name=st.sampled_from(_DROPPABLE),
           metric=st.sampled_from(["fid", "diversity", "beat"]))
    @settings(max_examples=60, deadline=None)
    def test_missing_file_is_named_or_scored(self, clip_sets, name, metric):
        path = clip_sets / name
        gone = path.rename(str(path) + ".gone")
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.entry(["eval", "--ref", str(clip_sets / "ref"),
                                "--gen", str(clip_sets / "gen"), "--metrics", metric])
        finally:
            gone.rename(path)
        message = err.getvalue()
        assert "Traceback" not in message
        if path.name in _VITAL:
            assert rc == 2 and str(path) in message, message
        else:
            assert rc == 0, message
