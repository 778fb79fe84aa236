"""Rotary position embedding: frequency ladder, pair rotation, offset logits.

Rotations run through the model's kernel, autograd.rope_apply over
spe.angle_tables; oracle.rope is the independent reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatmotion import oracle, spe
from quatmotion.autograd import Tensor, rope_apply
from quatmotion.errors import DimensionMismatch

finite = st.floats(min_value=-3, max_value=3, allow_nan=False)
posf = st.floats(min_value=-6, max_value=6, allow_nan=False)


def _vec(draw, dim):
    return np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))


vecs6 = st.builds(np.array, st.lists(finite, min_size=6, max_size=6))


class TestThetaSchedule:
    def test_closed_form(self):
        got = spe.theta_schedule(8, base=10000.0)
        want = [10000.0 ** (-2.0 * i / 8.0) for i in range(4)]
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_first_frequency_is_one(self):
        for dim in (2, 4, 64, 800):
            assert spe.theta_schedule(dim)[0] == 1.0

    def test_strictly_decreasing(self):
        t = spe.theta_schedule(64)
        assert np.all(np.diff(t) < 0)
        assert t[-1] > 0

    @pytest.mark.parametrize("dim", [0, -2, 7])
    def test_rejects_bad_dim(self, dim):
        with pytest.raises(DimensionMismatch):
            spe.theta_schedule(dim)

    def test_base_two_halves_each_step(self):
        t = spe.theta_schedule(4, base=2.0)
        np.testing.assert_allclose(t, [1.0, 2.0 ** -0.5], rtol=1e-15)


class TestRotarySchedule:
    """The per-pair angles: angle_tables' ladder, or tables passed to rope_apply."""

    def test_default_ladder(self):
        # position 1 of the tables turns each pair by its ladder angle
        cos, sin = spe.angle_tables(1, 8, offset=1.0)
        np.testing.assert_array_equal(cos[0], np.cos(spe.theta_schedule(8)))
        np.testing.assert_array_equal(sin[0], np.sin(spe.theta_schedule(8)))

    def test_custom_angles(self):
        # rope_apply spins pair t by whatever angle row t of the tables holds
        angles = np.array([[0.0, math.pi / 2]])
        got = rope_apply(Tensor(np.array([[1.0, 2.0, 3.0, 4.0]])),
                         np.cos(angles), np.sin(angles)).data
        np.testing.assert_allclose(got, [[1.0, 2.0, -4.0, 3.0]], rtol=0, atol=1e-15)

    def test_angle_count_checked(self):
        # one angle per pair at every position
        cos, sin = spe.angle_tables(3, 10)
        assert cos.shape == sin.shape == (3, 5)

    def test_odd_dim_rejected(self):
        with pytest.raises(DimensionMismatch):
            spe.angle_tables(3, 5)

    @pytest.mark.parametrize("rows, cos, sin", [
        ((3, 4), (3, 1), (3, 1)),   # one angle for every pair of a row
        ((3, 4), (1, 2), (1, 2)),   # one angle row for every position
        ((3, 4), (3, 2), (3, 1)),   # the tables disagree
        ((2, 3, 4), (2, 2), (2, 2)),  # a table row short of the positions
        ((3, 5), (3, 2), (3, 2)),   # an odd width has no pairs
        ((4,), (1, 2), (1, 2)),     # no position axis
    ])
    def test_tables_must_be_positions_by_pairs(self, rows, cos, sin):
        with pytest.raises(DimensionMismatch, match=rf"rows \({rows[0]},.*cos \({cos[0]},"):
            rope_apply(Tensor(np.ones(rows)), np.ones(cos), np.zeros(sin))


def _spun(rows, offset=0.0):
    """Rows (T, dim) spun from position `offset` on by the model's kernel."""
    steps, dim = rows.shape
    return rope_apply(Tensor(rows), *spe.angle_tables(steps, dim, offset=offset)).data


def _rotate(x, pos):
    """One vector spun to position pos through the model's kernel."""
    return _spun(np.asarray(x, dtype=np.float64)[None], pos)[0]


def _reference(x, pos):
    """One vector spun to position pos by the oracle's complex numbers."""
    return oracle.rope(np.asarray(x)[None], [pos], spe.DEFAULT_BASE)[0]


class TestRopeRotate:
    """Pair rotation as the model runs it: rope_apply over angle_tables."""

    def test_plane_hand_case(self):
        # dim 2 has the single unit frequency, so pos is the angle itself
        out = _rotate([1.0, 0.0], 1.0)
        np.testing.assert_allclose(out, [math.cos(1.0), math.sin(1.0)], atol=1e-15)

    def test_position_zero_is_identity(self, rng):
        x = rng.standard_normal(10)
        np.testing.assert_array_equal(_rotate(x, 0.0), x)

    @given(vecs6, posf)
    @settings(max_examples=40, deadline=None)
    def test_isometry(self, x, pos):
        out = _rotate(x, pos)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), abs=1e-9)

    @given(vecs6, posf, posf)
    @settings(max_examples=40, deadline=None)
    def test_composition_adds_angles(self, x, s, t):
        twice = _rotate(_rotate(x, s), t)
        once = _rotate(x, s + t)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_matrix_and_complex_routes_agree(self, rng):
        for pos in (-11.0, 0.5, 3.0, 1000.0):
            x = rng.standard_normal(16)
            np.testing.assert_allclose(_rotate(x, pos), _reference(x, pos), atol=1e-14)


class TestShiftInvariance:
    @given(vecs6, vecs6, posf, posf, posf)
    @settings(max_examples=50, deadline=None)
    def test_logit_depends_only_on_offset(self, q, k, s, t, delta):
        base = _rotate(q, s) @ _rotate(k, t)
        moved = _rotate(q, s + delta) @ _rotate(k, t + delta)
        assert moved == pytest.approx(base, abs=1e-8)

    def test_shared_table_offset_cancels(self, rng):
        q = rng.standard_normal((4, 8))
        k = rng.standard_normal((5, 8))
        base = _spun(q) @ _spun(k).T
        shifted = _spun(q, 13.0) @ _spun(k, 13.0).T
        np.testing.assert_allclose(shifted, base, atol=1e-9)


class TestRopeLogits:
    """Logits between rows spun over whole tables, as the encoder scores them."""

    def test_matches_manual_rotate_then_dot(self, rng):
        # whole-table rows against each row spun alone by the complex oracle
        q = rng.standard_normal((3, 6))
        k = rng.standard_normal((4, 6))
        logits = _spun(q, 2.0) @ _spun(k, -1.0).T
        for s in range(3):
            for t in range(4):
                want = _reference(q[s], s + 2.0) @ _reference(k[t], t - 1.0)
                assert logits[s, t] == pytest.approx(want, abs=1e-12)

    def test_zero_schedule_gives_plain_dot(self, rng):
        # zero angles: cos 1 and sin 0 at every position
        q = rng.standard_normal((4, 6))
        k = rng.standard_normal((4, 6))
        ones, zeros = np.ones((4, 3)), np.zeros((4, 3))
        still_q = rope_apply(Tensor(q), ones, zeros).data
        still_k = rope_apply(Tensor(k), ones, zeros).data
        np.testing.assert_array_equal(still_q @ still_k.T, q @ k.T)


class TestRowHelpers:
    def test_angle_tables(self):
        cos, sin = spe.angle_tables(3, 4, offset=1.0)
        pos = np.array([1.0, 2.0, 3.0])
        want = pos[:, None] * spe.theta_schedule(4)[None, :]
        np.testing.assert_array_equal(cos, np.cos(want))
        np.testing.assert_array_equal(sin, np.sin(want))
        assert cos.shape == (3, 2)
