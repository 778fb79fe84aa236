"""Exercises the command line surface end to end in temp directories.

The module-scoped workspace holds one tiny but complete project: two
synthetic beat-locked pairs, a two-step training run, and a six-frame
rollout for each pair. Tests only read from it; anything that writes
gets its own directory.
"""

import json

import numpy as np
import pytest

from quatmotion import cli
from quatmotion import features as feat
from quatmotion import metrics as met
from quatmotion import model as mod
from quatmotion import quaternion
from quatmotion import training as trn
from quatmotion import verification

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

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit) as info:
            cli.entry(["verify", "--suite", "bogus"])
        assert info.value.code == 2

    def test_injected_sign_error_is_caught(self, capsys, monkeypatch):
        # verify must detect a corrupted primitive, not just rerun green
        true_product = quaternion.hamilton

        def skewed(q, r):
            out = true_product(q, r)
            return quaternion.Quaternion(out.e, -out.f, out.g, out.h)

        monkeypatch.setattr(quaternion, "hamilton", skewed)
        assert cli.entry(["verify", "--suite", "algebra"]) == 1
        out = capsys.readouterr().out
        failed = [ln for ln in out.splitlines() if ln.startswith("[FAIL]")]
        assert failed
        assert any("algebra/basis_table" in ln for ln in failed)


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

    @pytest.mark.parametrize("bad", ["beta2=1.5", "lr_init=nan", "clip_norm=-1", "eps=0"])
    def test_out_of_range_train_setting_exits_two(self, workspace, tmp_path, bad, capsys):
        rc = cli.entry(_train_args(workspace / "data", tmp_path / "out", extra=(bad,)))
        assert rc == 2
        assert bad.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.json").exists()

    def test_missing_data_dir_exits_two(self, tmp_path, capsys):
        rc = cli.entry(["train", "--data", str(tmp_path / "nowhere"),
                        "--out", str(tmp_path / "out")])
        assert rc == 2


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

    def _generate_from(self, workspace, ckpt, out):
        return cli.entry([
            "generate", "--ckpt", str(ckpt),
            "--music", str(workspace / "data" / "p0" / "audio.csv"),
            "--seed-motion", str(workspace / "data" / "p0" / "motion.csv"),
            "--frames", "2", "--out", str(out)])

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
        assert str(ckpt) in err and "qean-ckpt-v1" in err and "qean-ckpt-v2" in err

    def test_wrong_stream_kind_exits_two(self, workspace, tmp_path, capsys):
        rc = cli.entry([
            "generate", "--ckpt", str(workspace / "run" / "checkpoint.json"),
            "--music", str(workspace / "data" / "p0" / "motion.csv"),
            "--seed-motion", str(workspace / "data" / "p0" / "motion.csv"),
            "--frames", "2", "--out", str(tmp_path / "g")])
        assert rc == 2


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
