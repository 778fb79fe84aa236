"""Stream layout constants, motion codec, synthetic pairs, CSV round trips."""

import hashlib
import math
import os
import re
import stat
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quatmotion import features, quaternion
from quatmotion.errors import DimensionMismatch, MalformedFile, MetaMismatch, NotRotation


def _random_unit_quats(rng, n):
    out = []
    for _ in range(n):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        if v[0] < 0:
            v = -v  # decode normalizes to nonnegative real part
        out.append(v)
    return np.array(out)


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
        rots = np.tile(quaternion.ONE, (24, 1))
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
        assert back_rots.shape == (24, 4)
        np.testing.assert_allclose(back_rots, rots, atol=1e-10)

    def test_decode_projects_noisy_blocks(self, rng):
        rots = _random_unit_quats(rng, 24)
        frame = features.encode_motion_frame(rots, np.zeros(3))
        noisy = frame + rng.standard_normal(219) * 1e-3
        back_rots, _ = features.decode_motion_frame(noisy)
        np.testing.assert_allclose(quaternion.q_norm(back_rots), 1.0, atol=1e-12)
        np.testing.assert_allclose(back_rots, rots, atol=5e-3)

    def test_encode_gates(self):
        with pytest.raises(DimensionMismatch):
            features.encode_motion_frame(np.tile(quaternion.ONE, (23, 1)), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            features.encode_motion_frame(np.tile(quaternion.ONE, (24, 1)), np.zeros(4))
        with pytest.raises(DimensionMismatch):
            features.encode_motion_frame(np.ones((24, 3)), np.zeros(3))

    def test_decode_gate(self):
        with pytest.raises(DimensionMismatch):
            features.decode_motion_frame(np.zeros(218))

    @pytest.mark.parametrize("joint,fill", [(None, 0.0), (None, math.nan), (5, math.inf)],
                             ids=["zero_frame", "nan_frame", "inf_block"])
    def test_block_without_a_rotation_names_its_joint(self, rng, joint, fill):
        # a zero block is singular and a non-finite one has no polar
        # factor; either is a package error naming the first such joint,
        # not a numpy LinAlgError or warning
        if joint is None:
            frame, joint = np.full(219, fill), 0
        else:
            frame = features.encode_motion_frame(_random_unit_quats(rng, 24), np.zeros(3))
            frame[9 * joint:9 * joint + 9] = fill
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotRotation, match=rf"joint {joint} \({features.JOINT_NAMES[joint]}\)"):
                features.decode_motion_frame(frame)

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

    def test_bytes_match_per_value_format(self, rng, tmp_path):
        motion = rng.standard_normal((5, 219))
        motion[0, :8] = [-0.0, 5e-324, 1e16, -1e16, 0.1, float("inf"), float("nan"), 1.0 / 3.0]
        path = tmp_path / "motion.csv"
        features.save_stream(str(path), motion, features.StreamMeta("motion", 60, 5, 219))
        want = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in motion)
        assert path.read_bytes() == want.encode()

    def test_edge_values_load_back_bit_exact(self, rng, tmp_path):
        motion = rng.standard_normal((3, 219))
        motion[1, :6] = [-0.0, 5e-324, 1e16, -1e16, 1.0 / 3.0, -5e-324]
        path = str(tmp_path / "motion.csv")
        features.save_stream(path, motion, features.StreamMeta("motion", 60, 3, 219))
        back, _ = features.load_stream(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back.view(np.int64), motion.view(np.int64))

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        audio, _ = features.synth_pair(5, seconds=0.05, beat_period_frames=2)
        path = tmp_path / "audio.csv"
        features.save_stream(str(path), audio, features.StreamMeta("audio", 60, 3, 35))
        rows = path.read_text().splitlines()
        path.write_text("\n \t\n" + rows[0] + "\n\n" + rows[1] + "\n   \n" + rows[2] + "\n \n")
        back, _ = features.load_stream(str(path))
        np.testing.assert_array_equal(back, audio)

    def test_empty_stream_loads_without_warning(self, tmp_path):
        path = tmp_path / "audio.csv"
        path.write_text("\n  \n")
        (tmp_path / "audio.csv.meta").write_text(
            "format: qean-stream-v1\nkind: audio\nfps: 60\nframes: 0\ndims: 35\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back, meta = features.load_stream(str(path))
        assert back.shape == (0, 35) and meta.frames == 0

    def test_empty_stream_writes_empty_file(self, tmp_path):
        path = tmp_path / "motion.csv"
        features.save_stream(str(path), np.zeros((0, 219)),
                             features.StreamMeta("motion", 60, 0, 219))
        assert path.read_bytes() == b""

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

    @staticmethod
    def _motion_with_row(tmp_path, row: int, edit):
        """A saved 12-frame motion stream whose line `row` is edit(cells),
        after a leading blank line that row numbers do not count."""
        _, motion = features.synth_pair(6, seconds=0.2, beat_period_frames=4)
        path = tmp_path / "motion.csv"
        features.save_stream(str(path), motion, features.StreamMeta("motion", 60, 12, 219))
        rows = path.read_text().splitlines()
        rows[row] = ",".join(edit(rows[row].split(",")))
        path.write_text("\n" + "\n".join(rows) + "\n")
        return str(path)

    # Python float() took "1_000" and non-ASCII digits; the C reader does not
    @pytest.mark.parametrize("cell", ["1#2", "1_000", "", "  ", "0x10", "1 2", "\u0661", '"1"'])
    def test_bad_cell_names_file_and_row(self, tmp_path, cell):
        def edit(cells):
            cells[5] = cell
            return cells

        path = self._motion_with_row(tmp_path, 4, edit)
        with pytest.raises(MalformedFile) as info:
            features.load_stream(path)
        message = str(info.value)
        assert f"row 4 of {path}" in message and repr(cell.strip()) in message

    @pytest.mark.parametrize("edit", [lambda cells: cells[:-1],
                                      lambda cells: cells + ["1.0"],
                                      lambda cells: cells[:-2] + ["x"]],
                             ids=["short", "long", "short_and_non_numeric"])
    def test_ragged_row_names_file_and_row(self, tmp_path, edit):
        path = self._motion_with_row(tmp_path, 9, edit)
        with pytest.raises(MalformedFile, match=rf"ragged row 9 in {re.escape(path)}"):
            features.load_stream(path)

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

    @pytest.mark.parametrize("which", ["audio.csv", "audio.csv.meta"])
    def test_undecodable_file_rejected(self, tmp_path, which):
        audio, _ = features.synth_pair(5, seconds=0.2, beat_period_frames=4)
        path = tmp_path / "audio.csv"
        features.save_stream(str(path), audio, features.StreamMeta("audio", 60, 12, 35))
        bad = tmp_path / which
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        with pytest.raises(MalformedFile, match=f"{re.escape(str(bad))} is not valid UTF-8"):
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
        features.atomic_write(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        features.atomic_write(str(target), "replaced\n")
        assert target.read_text() == "replaced\n"
        features.atomic_write(str(target), b"\x00\xff raw\n")
        assert target.read_bytes() == b"\x00\xff raw\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_atomic_write_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            features.atomic_write(str(tmp_path / "text.txt"), "x\n")
            features.atomic_write(str(tmp_path / "raw.bin"), b"x")
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(["text.txt", "raw.bin", "plain.txt"], 0o666 & ~umask)


_EDGE_VALUES = [-0.0, 5e-324, -5e-324, 1e16, -1e16, 1.797e308, -1.797e308, 1.0 / 3.0]


@st.composite
def _streams(draw):
    kind = draw(st.sampled_from(["audio", "motion"]))
    dims = features.AUDIO_DIMS if kind == "audio" else features.MOTION_DIMS
    frames = draw(st.integers(0, 5))
    cells = st.one_of(st.sampled_from(_EDGE_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False))
    matrix = draw(hnp.arrays(np.float64, (frames, dims), elements=cells, fill=cells))
    return matrix, features.StreamMeta(kind, 60, frames, dims)


def _load_parsing(path):
    """load_stream(path), requiring that it parsed the CSV."""
    with mock.patch.object(features, "_read_cells", wraps=features._read_cells) as spy:
        out = features.load_stream(path)
    assert spy.called
    return out


def _load_from_twin(path):
    """load_stream(path), requiring that it read the twin."""
    with mock.patch.object(features, "_read_cells", side_effect=AssertionError("parsed")):
        return features.load_stream(path)


class TestStreamTwin:
    """The float64 twin is read only when the sidecar's digests vouch for
    it and the CSV; in every other case the CSV is parsed as before."""

    @staticmethod
    def _saved(tmp_path):
        _, motion = features.synth_pair(6, seconds=0.2, beat_period_frames=4)
        path = tmp_path / "motion.csv"
        features.save_stream(str(path), motion, features.StreamMeta("motion", 60, 12, 219))
        return path, motion

    @staticmethod
    def _edit_sidecar(path, old, new):
        sidecar = path.parent / (path.name + ".meta")
        text = sidecar.read_text()
        assert old in text
        sidecar.write_text(text.replace(old, new))

    def test_twin_holds_the_raw_bytes_the_sidecar_names(self, tmp_path):
        path, motion = self._saved(tmp_path)
        twin = tmp_path / "motion.csv.f64"
        assert twin.read_bytes() == motion.astype("<f8").tobytes()
        sidecar = (tmp_path / "motion.csv.meta").read_text().splitlines()
        assert sidecar[5:] == [
            f"text_sha256: {hashlib.sha256(path.read_bytes()).hexdigest()}",
            f"payload_sha256: {hashlib.sha256(twin.read_bytes()).hexdigest()}"]
        back, _ = _load_from_twin(str(path))
        assert back.flags.owndata and back.flags.writeable
        np.testing.assert_array_equal(back.view(np.int64), motion.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(_streams())
    def test_twin_matches_parse_bit_for_bit(self, stream):
        matrix, meta = stream
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, f"{meta.kind}.csv")
            features.save_stream(path, matrix, meta)
            from_twin, twin_meta = _load_from_twin(path)
            os.remove(path + features.PAYLOAD_SUFFIX)
            parsed, parsed_meta = (_load_parsing(path) if meta.frames
                                   else features.load_stream(path))
        assert from_twin.view(np.int64).tolist() == parsed.view(np.int64).tolist()
        assert from_twin.view(np.int64).tolist() == matrix.view(np.int64).tolist()
        assert twin_meta == parsed_meta == meta

    def test_edited_csv_is_parsed(self, tmp_path):
        path, motion = self._saved(tmp_path)
        rows = path.read_text().splitlines()
        cells = rows[7].split(",")
        cells[3] = "0.25"
        rows[7] = ",".join(cells)
        path.write_text("\n".join(rows) + "\n")
        back, _ = _load_parsing(str(path))
        want = motion.copy()
        want[7, 3] = 0.25
        np.testing.assert_array_equal(back, want)

    @pytest.mark.parametrize("damage", [
        lambda raw: raw[:-8],
        lambda raw: raw[:-1],
        lambda raw: raw + raw[:8],
        lambda raw: raw[:100] + bytes([raw[100] ^ 0x01]) + raw[101:],
        lambda raw: raw[8:] + raw[:8],
    ], ids=["truncated_row_cell", "truncated_byte", "extended", "byte_flipped", "rotated"])
    def test_damaged_twin_falls_back_to_the_csv(self, tmp_path, damage):
        path, motion = self._saved(tmp_path)
        twin = tmp_path / "motion.csv.f64"
        twin.write_bytes(damage(twin.read_bytes()))
        back, _ = _load_parsing(str(path))
        np.testing.assert_array_equal(back, motion)

    def test_missing_twin_falls_back_to_the_csv(self, tmp_path):
        path, motion = self._saved(tmp_path)
        os.remove(tmp_path / "motion.csv.f64")
        back, _ = _load_parsing(str(path))
        np.testing.assert_array_equal(back, motion)

    def test_stale_twin_falls_back_to_the_csv(self, tmp_path):
        path, motion = self._saved(tmp_path)
        twin = tmp_path / "motion.csv.f64"
        stale = twin.read_bytes()
        features.save_stream(str(path), motion[::-1], features.StreamMeta("motion", 60, 12, 219))
        twin.write_bytes(stale)
        back, _ = _load_parsing(str(path))
        np.testing.assert_array_equal(back, motion[::-1])

    @pytest.mark.parametrize("key", ["text_sha256", "payload_sha256"])
    @pytest.mark.parametrize("bad", [
        lambda digest: "z" * 64,
        lambda digest: digest.upper(),
        lambda digest: digest[:-1],
        lambda digest: digest + "0",
        lambda digest: "",
        None,
    ], ids=["not_hex", "upper_case", "short", "long", "empty", "missing"])
    def test_malformed_digest_falls_back_to_the_csv(self, tmp_path, key, bad):
        path, motion = self._saved(tmp_path)
        sidecar = tmp_path / "motion.csv.meta"
        lines = sidecar.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(key + ":"))
        if bad is None:
            del lines[at]
        else:
            lines[at] = f"{key}: {bad(lines[at].partition(': ')[2])}"
        sidecar.write_text("\n".join(lines) + "\n")
        back, _ = _load_parsing(str(path))
        np.testing.assert_array_equal(back, motion)

    @pytest.mark.parametrize("frames", [11, 13, 0])
    def test_edited_frame_count_raises_the_parse_error(self, tmp_path, frames):
        path, _ = self._saved(tmp_path)
        self._edit_sidecar(path, "frames: 12", f"frames: {frames}")
        with mock.patch.object(features, "_read_cells", wraps=features._read_cells) as spy:
            with pytest.raises(MetaMismatch) as info:
                features.load_stream(str(path))
        assert spy.called
        assert str(info.value) == (f"{path} holds shape (12, 219) "
                                   f"but sidecar says ({frames}, 219)")

    @pytest.mark.parametrize("frames,relabel", [(12, 12), (219, 35)],
                             ids=["same_frames", "same_cell_count"])
    def test_relabelled_audio_raises_the_parse_error(self, tmp_path, frames, relabel):
        # 219 audio frames hold as many cells as 35 motion frames, so the
        # twin's size alone cannot tell that relabelled sidecar apart
        audio = np.arange(frames * 35, dtype=np.float64).reshape(frames, 35)
        path = tmp_path / "audio.csv"
        features.save_stream(str(path), audio, features.StreamMeta("audio", 60, frames, 35))
        self._edit_sidecar(path, f"kind: audio\nfps: 60\nframes: {frames}\ndims: 35",
                           f"kind: motion\nfps: 60\nframes: {relabel}\ndims: 219")
        with pytest.raises(MetaMismatch) as info:
            _load_parsing(str(path))
        assert str(info.value) == (f"{path} holds shape ({frames}, 35) "
                                   f"but sidecar says ({relabel}, 219)")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_twin_is_rejected(self, tmp_path, value):
        _, motion = features.synth_pair(6, seconds=0.2, beat_period_frames=4)
        motion[5, 17] = value
        path = str(tmp_path / "motion.csv")
        features.save_stream(path, motion, features.StreamMeta("motion", 60, 12, 219))
        with pytest.raises(MalformedFile) as info:
            _load_from_twin(path)
        assert str(info.value) == f"non-finite cell (nan or inf) in row 5 of {path}"


def _csv_floats(path):
    """The CSV at path read with Python's float, one row per non-blank
    line; None when the rows hold no float matrix."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    try:
        return np.array([[float(cell) for cell in line.split(",")] for line in lines])
    except ValueError:
        return None


_FUZZ_META = features.StreamMeta("audio", 60, 4, 35)
_FUZZ_AUDIO = [features.synth_pair(seed, 4 / 60, beat_period_frames=2)[0] for seed in (5, 6)]


class TestStreamFuzz:
    """A stream whose CSV, sidecar or twin is truncated, flipped, deleted,
    reshaped or swapped for another stream's either loads exactly the
    CSV's bits or raises MalformedFile or MetaMismatch naming the stream;
    so a twin that disagrees with its CSV is never read."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_damaged_stream_loads_its_csv_or_is_named(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path, other = os.path.join(tmp, "audio.csv"), os.path.join(tmp, "other.csv")
            features.save_stream(path, _FUZZ_AUDIO[0], _FUZZ_META)
            features.save_stream(other, _FUZZ_AUDIO[1], _FUZZ_META)
            for _ in range(data.draw(st.integers(1, 3))):
                damage = data.draw(st.sampled_from(["truncate", "flip", "delete", "shape",
                                                    "swap"]))
                # a shape lives in the sidecar
                suffix = features.META_SUFFIX if damage == "shape" else data.draw(
                    st.sampled_from(["", features.PAYLOAD_SUFFIX, features.META_SUFFIX]))
                target = path + suffix
                if damage == "swap":
                    with open(other + suffix, "rb") as src, open(target, "wb") as dst:
                        dst.write(src.read())
                    continue
                if not os.path.exists(target):
                    continue
                with open(target, "rb") as fh:
                    raw = fh.read()
                if damage == "delete":
                    os.remove(target)
                    continue
                if damage == "truncate":
                    raw = raw[:data.draw(st.integers(0, max(len(raw) - 1, 0)))]
                elif damage == "flip" and raw:
                    at = data.draw(st.integers(0, len(raw) - 1))
                    flipped = raw[at] ^ data.draw(st.integers(1, 255))
                    raw = raw[:at] + bytes([flipped]) + raw[at + 1:]
                elif damage == "shape":
                    key = data.draw(st.sampled_from([b"frames", b"dims"]))
                    value = str(data.draw(st.integers(-2, 300))).encode()
                    raw = re.sub(rb"(?m)^(" + key + rb": ).*$", rb"\g<1>" + value, raw)
                with open(target, "wb") as fh:
                    fh.write(raw)
            try:
                matrix, meta = features.load_stream(path)
            except (MalformedFile, MetaMismatch) as exc:
                assert path in str(exc), str(exc)
                return
            want = _csv_floats(path)
        assert want is not None and want.size == matrix.size
        assert want.tobytes() == matrix.tobytes()
        assert matrix.shape == (meta.frames, meta.dims)
