"""Stream layout constants, motion codec, synthetic pairs, CSV round trips."""

import math
import os

import numpy as np
import pytest

from quatmotion import features, quaternion
from quatmotion.errors import DimensionMismatch, MalformedFile, MetaMismatch


def _random_unit_quats(rng, n):
    out = []
    for _ in range(n):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        if v[0] < 0:
            v = -v  # decode normalizes to nonnegative real part
        out.append(quaternion.Quaternion.from_array(v))
    return out


class TestLayout:
    def test_channel_counts(self):
        assert features.AUDIO_DIMS == 35
        assert features.MOTION_DIMS == 219
        assert features.JOINT_COUNT == 24
        assert features.FPS == 60

    def test_audio_channels_partition(self):
        # envelope | mfcc | chroma | peak | beat must tile 0..34 exactly
        assert features.ENVELOPE_CHANNEL == 0
        assert features.MFCC_CHANNELS == slice(1, 21)
        assert features.CHROMA_CHANNELS == slice(21, 33)
        assert features.PEAK_CHANNEL == 33
        assert features.BEAT_CHANNEL == 34

    def test_motion_channels_partition(self):
        assert 9 * features.JOINT_COUNT == 216
        assert features.TRANSLATION_CHANNELS == slice(216, 219)

    def test_joint_names_frozen(self):
        assert len(features.JOINT_NAMES) == 24
        assert len(set(features.JOINT_NAMES)) == 24
        assert features.JOINT_NAMES[0] == "root"


class TestMotionCodec:
    def test_quarter_turn_hand_case(self):
        rots = [quaternion.ONE] * 24
        rots[0] = quaternion.unit_exp("i", math.pi / 4)  # 90 degrees about x
        frame = features.encode_motion_frame(rots, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(frame[:9], [1, 0, 0, 0, 0, -1, 0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(frame[9:18], np.eye(3).reshape(9), atol=1e-15)
        np.testing.assert_array_equal(frame[216:], [1.0, 2.0, 3.0])

    def test_round_trip(self, rng):
        rots = _random_unit_quats(rng, 24)
        trans = rng.standard_normal(3)
        frame = features.encode_motion_frame(rots, trans)
        back_rots, back_trans = features.decode_motion_frame(frame)
        np.testing.assert_allclose(back_trans, trans, atol=1e-15)
        for q, b in zip(rots, back_rots):
            np.testing.assert_allclose(b.as_array(), q.as_array(), atol=1e-10)

    def test_decode_projects_noisy_blocks(self, rng):
        rots = _random_unit_quats(rng, 24)
        frame = features.encode_motion_frame(rots, np.zeros(3))
        noisy = frame + rng.standard_normal(219) * 1e-3
        back_rots, _ = features.decode_motion_frame(noisy)
        for q, b in zip(rots, back_rots):
            assert quaternion.q_norm(b) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(b.as_array(), q.as_array(), atol=5e-3)

    def test_encode_gates(self):
        with pytest.raises(DimensionMismatch):
            features.encode_motion_frame([quaternion.ONE] * 23, np.zeros(3))
        with pytest.raises(DimensionMismatch):
            features.encode_motion_frame([quaternion.ONE] * 24, np.zeros(4))

    def test_decode_gate(self):
        with pytest.raises(DimensionMismatch):
            features.decode_motion_frame(np.zeros(218))

    def test_nearest_rotation(self, rng):
        r = quaternion.quat_to_rotmat(_random_unit_quats(rng, 1)[0])
        np.testing.assert_allclose(features.nearest_rotation(r), r, atol=1e-12)
        np.testing.assert_allclose(features.nearest_rotation(2.0 * r), r, atol=1e-12)
        fixed = features.nearest_rotation(r + rng.standard_normal((3, 3)) * 0.05)
        np.testing.assert_allclose(fixed.T @ fixed, np.eye(3), atol=1e-12)
        assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-12)


class TestSynthPair:
    def test_shapes_and_determinism(self):
        a1, m1 = features.synth_pair(11, seconds=1.5, beat_period_frames=18)
        a2, m2 = features.synth_pair(11, seconds=1.5, beat_period_frames=18)
        assert a1.shape == (90, 35)
        assert m1.shape == (90, 219)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(m1, m2)
        a3, _ = features.synth_pair(12, seconds=1.5, beat_period_frames=18)
        assert not np.array_equal(a1, a3)

    def test_beat_and_peak_channels(self):
        audio, _ = features.synth_pair(0, seconds=1.0, beat_period_frames=20)
        t = np.arange(60)
        np.testing.assert_array_equal(audio[:, features.BEAT_CHANNEL],
                                      (t % 20 == 0).astype(float))
        np.testing.assert_array_equal(audio[:, features.PEAK_CHANNEL],
                                      (t % 20 == 10).astype(float))

    def test_envelope_decays_then_resets(self):
        audio, _ = features.synth_pair(0, seconds=1.0, beat_period_frames=30)
        env = audio[:, features.ENVELOPE_CHANNEL]
        assert env[0] == 1.0
        assert env[30] == 1.0
        np.testing.assert_allclose(env[7], math.exp(-3.0 * 7 / 30), atol=1e-15)
        assert np.all(np.diff(env[:30]) < 0)

    def test_rotation_blocks_are_rotations(self):
        _, motion = features.synth_pair(3, seconds=0.5, beat_period_frames=10)
        for t in (0, 7, 29):
            for j in (0, 5, 23):
                block = motion[t, 9 * j:9 * j + 9].reshape(3, 3)
                np.testing.assert_allclose(block.T @ block, np.eye(3), atol=1e-12)
                assert np.linalg.det(block) == pytest.approx(1.0, abs=1e-12)

    def test_translation_moves_on_constant_chord(self):
        _, motion = features.synth_pair(4, seconds=2.0, beat_period_frames=30)
        trans = motion[:, 216:219]
        chords = np.linalg.norm(np.diff(trans, axis=0), axis=1)
        np.testing.assert_allclose(chords, chords[0], rtol=1e-10)
        radii = np.hypot(motion[:, 216], motion[:, 218])
        np.testing.assert_allclose(radii, 0.5, atol=1e-12)

    def test_velocity_dips_exactly_on_beats(self):
        # departure step is zero on beat frames, so frame-to-frame speed
        # has strict minima there and nowhere near them
        _, motion = features.synth_pair(7, seconds=2.0, beat_period_frames=30)
        v = np.linalg.norm(np.diff(motion, axis=0), axis=1)
        for b in (30, 60, 90):
            assert v[b] < v[b - 1]
            assert v[b] < v[b + 1]
            assert v[b] < 0.5 * v[b - 15]  # mid-period is much faster

    def test_gates(self):
        with pytest.raises(ValueError):
            features.synth_pair(0, seconds=0.0)
        with pytest.raises(ValueError):
            features.synth_pair(0, seconds=1.0, beat_period_frames=1)


class TestStreamIO:
    def test_round_trip_exact(self, rng, tmp_path):
        audio, _ = features.synth_pair(5, seconds=0.4, beat_period_frames=6)
        meta = features.StreamMeta(kind="audio", fps=60, frames=24, dims=35)
        path = str(tmp_path / "audio.csv")
        features.save_stream(path, audio, meta)
        back, back_meta = features.load_stream(path)
        np.testing.assert_array_equal(back, audio)  # %.17g survives float64
        assert back_meta == meta
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    def test_motion_round_trip(self, tmp_path):
        _, motion = features.synth_pair(6, seconds=0.2, beat_period_frames=4)
        meta = features.StreamMeta(kind="motion", fps=60, frames=12, dims=219)
        path = str(tmp_path / "motion.csv")
        features.save_stream(path, motion, meta)
        back, _ = features.load_stream(path)
        np.testing.assert_array_equal(back, motion)

    def test_meta_kind_gates(self):
        with pytest.raises(MetaMismatch):
            features.StreamMeta(kind="video", fps=60, frames=1, dims=35)
        with pytest.raises(MetaMismatch):
            features.StreamMeta(kind="audio", fps=60, frames=1, dims=34)

    def test_save_shape_gate(self, tmp_path):
        meta = features.StreamMeta(kind="audio", fps=60, frames=10, dims=35)
        with pytest.raises(MetaMismatch):
            features.save_stream(str(tmp_path / "x.csv"), np.zeros((9, 35)), meta)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        (tmp_path / "bad.csv.meta").write_text(
            "format: qean-stream-v1\nkind: audio\nfps: 60\nframes: 2\ndims: 35\n")
        with pytest.raises(MalformedFile):
            features.load_stream(str(path))

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,oops\n")
        (tmp_path / "bad.csv.meta").write_text(
            "format: qean-stream-v1\nkind: audio\nfps: 60\nframes: 1\ndims: 35\n")
        with pytest.raises(MalformedFile):
            features.load_stream(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        _, motion = features.synth_pair(6, seconds=0.2, beat_period_frames=4)
        meta = features.StreamMeta(kind="motion", fps=60, frames=12, dims=219)
        path = tmp_path / "motion.csv"
        features.save_stream(str(path), motion, meta)
        rows = path.read_text().splitlines()
        cells = rows[7].split(",")
        cells[3] = cell
        rows[7] = ",".join(cells)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(MalformedFile, match=r"row 7 of .*motion\.csv"):
            features.load_stream(str(path))

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "orphan.csv"
        path.write_text("1.0\n")
        with pytest.raises(MalformedFile):
            features.load_stream(str(path))

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        (tmp_path / "x.csv.meta").write_text(
            "format: qean-stream-v2\nkind: audio\nfps: 60\nframes: 0\ndims: 35\n")
        with pytest.raises(MalformedFile):
            features.load_stream(str(path))

    def test_missing_sidecar_key(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        (tmp_path / "x.csv.meta").write_text(
            "format: qean-stream-v1\nkind: audio\nframes: 0\ndims: 35\n")
        with pytest.raises(MalformedFile):
            features.load_stream(str(path))

    def test_frame_count_disagreement(self, tmp_path):
        audio, _ = features.synth_pair(5, seconds=0.2, beat_period_frames=4)
        meta = features.StreamMeta(kind="audio", fps=60, frames=12, dims=35)
        path = str(tmp_path / "a.csv")
        features.save_stream(path, audio, meta)
        (tmp_path / "a.csv.meta").write_text(
            "format: qean-stream-v1\nkind: audio\nfps: 60\nframes: 13\ndims: 35\n")
        with pytest.raises(MetaMismatch):
            features.load_stream(path)

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.txt"
        features.atomic_write_text(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        features.atomic_write_text(str(target), "replaced\n")
        assert target.read_text() == "replaced\n"
        assert list(tmp_path.iterdir()) == [target]
