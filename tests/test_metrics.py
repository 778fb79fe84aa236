"""FID, diversity, and beat alignment against closed-form oracles."""

import math

import numpy as np
import pytest

from quatmotion import features, metrics
from quatmotion.errors import (ChannelMismatch, DimensionMismatch, EmptyMotionBeats,
                               EmptyMusicBeats, TooFewFrames, TooFewItems)
from quatmotion.metrics import BeatTimeline, FeatureSet


class TestDynamicFeatures:
    def test_channel_subsample_frozen(self):
        want = np.round(np.linspace(0, 218, 16)).astype(int)
        np.testing.assert_array_equal(metrics.DYNAMIC_CHANNELS, want)
        assert metrics.DYNAMIC_CHANNELS[0] == 0
        assert metrics.DYNAMIC_CHANNELS[-1] == 218

    def test_hand_case_block_order(self):
        # channel 0 follows 0,1,3,6: vel [1,2,3], acc [1,1]
        motion = np.zeros((4, 219))
        motion[:, 0] = [0.0, 1.0, 3.0, 6.0]
        f = metrics.dynamic_features(motion)
        assert f.shape == (64,)
        assert f[0] == pytest.approx(2.0)                    # vel mean
        assert f[16] == pytest.approx(math.sqrt(2.0 / 3.0))  # vel std
        assert f[32] == pytest.approx(1.0)                   # acc mean
        assert f[48] == pytest.approx(0.0)                   # acc std
        untouched = np.ones(64, dtype=bool)
        untouched[[0, 16, 32, 48]] = False
        np.testing.assert_array_equal(f[untouched], 0.0)

    def test_gates(self):
        with pytest.raises(DimensionMismatch):
            metrics.dynamic_features(np.zeros((5, 100)))
        with pytest.raises(TooFewFrames):
            metrics.dynamic_features(np.zeros((2, 219)))


class TestGeometricFeatures:
    def test_all_false_on_zero_motion(self):
        f = metrics.geometric_features(np.zeros((5, 219)))
        np.testing.assert_array_equal(f, np.zeros(32))

    def test_binary_range(self):
        _, motion = features.synth_pair(2, seconds=1.0, beat_period_frames=15)
        f = metrics.geometric_features(motion)
        assert f.shape == (32,)
        assert set(np.unique(f)) <= {0.0, 1.0}
        assert f.sum() > 0  # real motion trips at least one predicate

    def test_translation_predicates(self):
        motion = np.zeros((4, 219))
        motion[:, 216] = 1.0  # constant positive x
        f = metrics.geometric_features(motion)
        assert f[0] == 1.0  # mean x > 0
        assert f[1] == 0.0
        assert f[3] == 1.0  # mean norm > 0.1
        assert f[4] == 0.0  # no x range
        assert f[31] == 0.0  # nothing above 2

    def test_trace_predicate(self):
        motion = np.zeros((3, 219))
        for j in range(24):
            motion[:, 9 * j:9 * j + 9] = np.eye(3).reshape(9)  # trace 3
        f = metrics.geometric_features(motion)
        np.testing.assert_array_equal(f[8:20], np.ones(12))

    def test_gates(self):
        with pytest.raises(DimensionMismatch):
            metrics.geometric_features(np.zeros((3, 218)))
        with pytest.raises(TooFewFrames):
            metrics.geometric_features(np.zeros((0, 219)))


class TestFid:
    def test_identical_sets_score_zero(self, rng):
        s = FeatureSet(rng.standard_normal((10, 6)))
        assert metrics.fid(s, s) == pytest.approx(0.0, abs=1e-8)

    def test_mean_shift_squared(self):
        # equal covariances cancel, leaving the squared mean gap
        a = FeatureSet([[0.0], [2.0]])
        b = FeatureSet([[3.0], [5.0]])
        assert metrics.fid(a, b) == pytest.approx(9.0, abs=1e-9)

    def test_diagonal_closed_form(self):
        # sample covariances are exactly diagonal, so the Frechet trace
        # term reduces to sum (sqrt(a_i) - sqrt(b_i))^2
        av = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
        bv = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        eps = 1e-6
        ca = np.diag(np.cov(av, rowvar=False)) + eps
        cb = np.diag(np.cov(bv, rowvar=False)) + eps
        want = float(((np.sqrt(ca) - np.sqrt(cb)) ** 2).sum())
        assert metrics.fid(FeatureSet(av), FeatureSet(bv)) == pytest.approx(
            want, abs=1e-8)

    def test_symmetry_and_nonnegativity(self, rng):
        a = FeatureSet(rng.standard_normal((8, 4)))
        b = FeatureSet(rng.standard_normal((9, 4)) + 0.5)
        ab = metrics.fid(a, b)
        assert ab >= 0.0
        assert ab == pytest.approx(metrics.fid(b, a), abs=1e-8)

    def test_translation_invariance(self, rng):
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((6, 5))
        shift = rng.standard_normal(5) * 10
        base = metrics.fid(FeatureSet(a), FeatureSet(b))
        moved = metrics.fid(FeatureSet(a + shift), FeatureSet(b + shift))
        assert moved == pytest.approx(base, abs=1e-7)

    def test_grows_with_separation(self, rng):
        a = rng.standard_normal((20, 3))
        near = metrics.fid(FeatureSet(a), FeatureSet(a + 0.5))
        far = metrics.fid(FeatureSet(a), FeatureSet(a + 5.0))
        assert far > near

    def test_gates(self, rng):
        with pytest.raises(TooFewItems):
            metrics.fid(FeatureSet([[1.0, 2.0]]), FeatureSet(rng.standard_normal((5, 2))))
        with pytest.raises(DimensionMismatch):
            metrics.fid(FeatureSet(rng.standard_normal((5, 2))),
                        FeatureSet(rng.standard_normal((5, 3))))


class TestDiversity:
    def test_two_items(self):
        assert metrics.diversity(FeatureSet([[0.0, 0.0], [3.0, 4.0]])) == 5.0

    def test_three_items_mean(self):
        # pairwise distances 1, 3, 2
        assert metrics.diversity(FeatureSet([[0.0], [1.0], [3.0]])) == pytest.approx(2.0)

    def test_translation_invariant_scale_linear(self, rng):
        x = rng.standard_normal((6, 4))
        base = metrics.diversity(FeatureSet(x))
        assert metrics.diversity(FeatureSet(x + 7.0)) == pytest.approx(base, abs=1e-12)
        assert metrics.diversity(FeatureSet(3.0 * x)) == pytest.approx(3.0 * base, rel=1e-12)

    def test_permutation_invariant(self, rng):
        x = rng.standard_normal((5, 3))
        shuffled = x[rng.permutation(5)]
        assert metrics.diversity(FeatureSet(shuffled)) == pytest.approx(
            metrics.diversity(FeatureSet(x)), abs=1e-12)

    def test_gate(self):
        with pytest.raises(TooFewItems):
            metrics.diversity(FeatureSet([[1.0, 2.0]]))


class TestBeatTimelines:
    def test_velocity_profile(self):
        x = np.array([[0.0], [3.0], [4.0], [6.0]])
        np.testing.assert_array_equal(metrics.velocity_profile(x), [3.0, 1.0, 2.0])

    def test_motion_beats_hand_case(self):
        x = np.array([[0.0], [3.0], [4.0], [6.0]])  # v = 3,1,2: dip at 1
        np.testing.assert_array_equal(metrics.motion_beats(x).frames, [1])

    def test_plateau_is_not_a_beat(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])  # v = 1,1,1
        assert len(metrics.motion_beats(x)) == 0

    def test_profile_endpoints_excluded(self):
        x = np.array([[0.0], [0.1], [5.0], [5.1]])  # v = 0.1, 4.9, 0.1
        assert len(metrics.motion_beats(x)) == 0

    def test_synth_beats_on_the_grid(self):
        _, motion = features.synth_pair(9, seconds=2.0, beat_period_frames=30)
        np.testing.assert_array_equal(metrics.motion_beats(motion).frames, [30, 60, 90])

    def test_motion_gates(self):
        with pytest.raises(TooFewFrames):
            metrics.motion_beats(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            metrics.motion_beats(np.zeros(10))

    def test_music_beats_threshold(self):
        audio = np.zeros((6, 35))
        audio[1, 34] = 1.0
        audio[3, 34] = 0.4  # below threshold
        audio[5, 34] = 0.9
        np.testing.assert_array_equal(metrics.music_beats(audio).frames, [1, 5])

    def test_music_channel_gate(self):
        with pytest.raises(ChannelMismatch):
            metrics.music_beats(np.zeros((6, 34)))

    def test_synth_music_beats(self):
        audio, _ = features.synth_pair(9, seconds=1.0, beat_period_frames=20)
        np.testing.assert_array_equal(metrics.music_beats(audio).frames, [0, 20, 40])

    def test_timeline_ordering_enforced(self):
        with pytest.raises(ValueError):
            BeatTimeline(frames=[5, 3])


class TestBeatAlign:
    def test_hand_case(self):
        score = metrics.beat_align(BeatTimeline(frames=[10, 20]),
                                   BeatTimeline(frames=[12, 23]))
        want = (math.exp(-4.0 / 18.0) + math.exp(-9.0 / 18.0)) / 2.0
        assert score == pytest.approx(want, abs=1e-12)

    def test_perfect_subset_scores_one(self):
        score = metrics.beat_align(BeatTimeline(frames=[10, 30]),
                                   BeatTimeline(frames=[0, 10, 20, 30]))
        assert score == 1.0

    def test_extra_music_beats_never_hurt(self):
        mo = BeatTimeline(frames=[10, 25])
        base = metrics.beat_align(mo, BeatTimeline(frames=[12, 20]))
        richer = metrics.beat_align(mo, BeatTimeline(frames=[12, 20, 26]))
        assert richer >= base

    def test_alpha_widens_the_kernel(self, monkeypatch):
        # the kernel width is read when a score is taken
        assert metrics.DEFAULT_ALPHA == 3.0
        mo = BeatTimeline(frames=[10])
        mu = BeatTimeline(frames=[14])
        scores = []
        for alpha in (1.0, 10.0):
            monkeypatch.setattr(metrics, "DEFAULT_ALPHA", alpha)
            scores.append(metrics.beat_align(mo, mu))
        tight, loose = scores
        assert loose > tight

    def test_empty_gates(self):
        some = BeatTimeline(frames=[1])
        with pytest.raises(EmptyMotionBeats):
            metrics.beat_align(BeatTimeline(frames=[]), some)
        with pytest.raises(EmptyMusicBeats):
            metrics.beat_align(some, BeatTimeline(frames=[]))


class TestFeatureSet:
    def test_properties(self, rng):
        s = FeatureSet(rng.standard_normal((4, 7)))
        assert s.items == 4
        assert s.dim == 7

    def test_requires_matrix(self):
        with pytest.raises(DimensionMismatch):
            FeatureSet(np.zeros(5))
