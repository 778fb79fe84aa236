"""Quaternion rotary attention versus a straight-line scalar oracle.

quatmotion.oracle re-derives the whole pipeline (projection, conv,
activations, rotation, Hamilton similarity, softmax) in pure Python
lists, so any indexing or orientation slip in qra.rotary_logits shows up
as a mismatch here rather than cancelling out. The pieces it is built
from are checked against scalar Hamilton products.
"""

import math

import numpy as np
import pytest

from quatmotion import autograd as ag
from quatmotion import numerics, oracle, qra, quaternion
from quatmotion.autograd import Tensor
from quatmotion.errors import DimensionMismatch, HeadDimNotQuaternion


def _hamilton(x, axis, angle):
    """Scalar right product of one 4-slot with unit_exp(axis, angle)."""
    return quaternion.hamilton(x, quaternion.unit_exp(axis, float(angle)))


class TestHeadGates:
    """qra_attention rejects a head whose arrays do not fit its rows."""

    def _run(self, rng, head, d_model=8):
        qra.qra_attention(rng.standard_normal((3, d_model)),
                          rng.standard_normal((4, d_model)), head)

    def test_head_dim_must_be_quaternion(self, rng):
        with pytest.raises(HeadDimNotQuaternion):
            self._run(rng, qra.random_head(rng, d_model=8, d_attn=6, periods=1))

    def test_projection_shape_gate(self, rng):
        head = qra.random_head(rng, d_model=8, d_attn=4, periods=2)
        with pytest.raises(DimensionMismatch):
            self._run(rng, {**head, "wq": np.zeros((4, 8))})

    def test_kernel_channel_gate(self, rng):
        head = qra.random_head(rng, d_model=8, d_attn=4, periods=2)
        with pytest.raises(DimensionMismatch):
            self._run(rng, {**head, "omega_q.w": np.zeros((3, 4, 3)), "omega_q.b": np.zeros(3)})

    def test_bias_shape_checked(self, rng):
        head = qra.random_head(rng, d_model=8, d_attn=4, periods=2)
        with pytest.raises(DimensionMismatch):
            self._run(rng, {**head, "theta_k.b": np.zeros(3)})

    def test_even_width_rejected(self, rng):
        head = qra.random_head(rng, d_model=8, d_attn=4, periods=1)
        wide = {name: np.zeros((1, 4, 4)) for name in qra.KERNEL_NAMES if name.endswith(".w")}
        with pytest.raises(DimensionMismatch):
            self._run(rng, {**head, **wide})

    def test_row_width_gate(self, rng):
        head = qra.random_head(rng, d_model=8, d_attn=4, periods=1)
        with pytest.raises(DimensionMismatch):
            qra.qra_attention(rng.standard_normal((3, 8)), rng.standard_normal((4, 7)), head)

    def test_periods_positive(self, rng):
        with pytest.raises(ValueError):
            self._run(rng, qra.random_head(rng, d_model=8, d_attn=4, periods=0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_kernels_must_be_finite(self, rng, bad):
        head = qra.random_head(rng, d_model=8, d_attn=4, periods=2)
        head["omega_k.w"][1, 2, 0] = bad
        with pytest.raises(ValueError):
            self._run(rng, head)

    def test_random_is_seed_deterministic(self):
        a = qra.random_head(np.random.default_rng(5), 8, 4, 2)
        b = qra.random_head(np.random.default_rng(5), 8, 4, 2)
        assert a.keys() == b.keys() == set(qra.PROJECTIONS + qra.KERNEL_NAMES)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_random_head_draw_order(self):
        # wq, wk, wv, then each kernel's weights and bias in KERNEL_NAMES order
        head = qra.random_head(np.random.default_rng(9), 5, 4, 3, scale=0.5)
        rng = np.random.default_rng(9)
        for name in qra.PROJECTIONS:
            np.testing.assert_array_equal(head[name], rng.standard_normal((5, 4)) / np.sqrt(5))
        for name in qra.KERNEL_NAMES:
            shape = (3, 4, 3) if name.endswith(".w") else (3,)
            np.testing.assert_array_equal(head[name], 0.5 * rng.standard_normal(shape))


def _angles(z, kernels, side, positions, drop=0):
    """autograd.qra_angles on one side's kernels, as rotary_logits calls it."""
    return ag.qra_angles(z, *(kernels[f"{name}_{side}.{part}"]
                              for name in ("omega", "theta") for part in ("w", "b")),
                         positions, drop)


class TestGenFreqPhase:
    def test_ranges(self, rng):
        z = rng.standard_normal((9, 4)) * 5
        kernels = {name: rng.standard_normal((3, 4, 3) if name.endswith(".w") else 3)
                   for name in qra.KERNEL_NAMES}
        # at position 0 the angle is the phase alone; the step to position
        # 1 adds the frequency
        theta = _angles(Tensor(z), kernels, "q", np.zeros(9)).data
        omega = _angles(Tensor(z), kernels, "q", np.ones(9)).data - theta
        assert np.all(omega >= 0.0)
        assert np.all(np.abs(theta) < math.pi)
        assert omega.shape == theta.shape == (9, 3)

    def test_matches_component_ops(self, rng):
        z = rng.standard_normal((6, 4))
        kernels = {name: rng.standard_normal((2, 4, 3) if name.endswith(".w") else 2)
                   for name in ("omega_k.w", "omega_k.b", "theta_k.w", "theta_k.b")}
        pos = rng.standard_normal(6)
        angles = _angles(Tensor(z), kernels, "k", pos)
        omega = numerics.conv1d_im2col(z, kernels["omega_k.w"], kernels["omega_k.b"])
        theta = numerics.conv1d_im2col(z, kernels["theta_k.w"], kernels["theta_k.b"])
        np.testing.assert_array_equal(
            angles.data, numerics.relu(omega) * pos[:, None] + numerics.pi_tanh(theta))

    def test_drop_form_is_the_last_rows(self, rng):
        # dropped rows still feed the convolution windows of the rows after
        # them; values and gradients match the full form bit for bit
        kernels = {name: rng.standard_normal((2, 3, 8, 3) if name.endswith(".w") else (2, 3))
                   for name in qra.KERNEL_NAMES}
        z = rng.standard_normal((4, 2, 7, 8))
        pos = rng.standard_normal(7)
        seed = rng.standard_normal((4, 2, 7, 3))
        seed[..., :2, :] = 0.0
        rows, grads = [], []
        for drop in (0, 2):
            leaves = [Tensor(z, requires_grad=True)] + [
                Tensor(kernels[n], requires_grad=True) for n in qra.KERNEL_NAMES[:4]]
            out = _angles(leaves[0], dict(zip(qra.KERNEL_NAMES[:4], leaves[1:])), "q",
                          pos[drop:], drop)
            assert out.shape == (4, 2, 7 - drop, 3)
            rows.append(out.data[..., 2 - drop:, :])
            out.backward(seed[..., drop:, :])
            grads.append([leaf.grad.tobytes() for leaf in leaves])
        np.testing.assert_array_equal(rows[0], rows[1])
        assert grads[0] == grads[1]


class TestSeriesRotate:
    """Query slots spun once per period, as rotary_logits calls quat_rotate."""

    @pytest.mark.parametrize("axis", ["i", "j", "k"])
    def test_matches_slotwise_hamilton(self, rng, axis):
        z = rng.standard_normal((3, 8))
        angles = rng.standard_normal((3, 2))
        series = ag.quat_rotate(Tensor(z.reshape(3, 1, 2, 4)), Tensor(angles), axis).data
        assert series.shape == (3, 2, 2, 4)
        for n in range(3):
            for p in range(2):
                for s in range(2):
                    np.testing.assert_allclose(
                        series[n, p, s], _hamilton(z[n, 4 * s:4 * s + 4], axis, angles[n, p]),
                        atol=1e-14)

    def test_norm_preserved(self, rng):
        z = rng.standard_normal((4, 1, 2, 4))
        series = ag.quat_rotate(Tensor(z), Tensor(rng.uniform(-9, 9, (4, 3))), "k").data
        np.testing.assert_allclose(np.linalg.norm(series, axis=-1),
                                   np.broadcast_to(np.linalg.norm(z, axis=-1), (4, 3, 2)),
                                   atol=1e-12)

    def test_step_count_gate(self):
        # angles for 3 steps cannot spin the slots of 4
        with pytest.raises(ValueError):
            ag.quat_rotate(Tensor(np.zeros((4, 1, 2, 4))), Tensor(np.zeros((3, 2))), "i")


class TestRotarySimilarity:
    def test_matches_hamilton_real_part(self, rng):
        # entry (n, m): sum over periods and slots of Re[phi (x) conj(psi)],
        # with psi the key slot right-multiplied by its period's unit
        phi = rng.standard_normal((3, 2, 2, 4))
        keys = rng.standard_normal((2, 2, 4))
        angles = rng.standard_normal((2, 2))
        sim = ag.rotated_scores(Tensor(phi), Tensor(keys), Tensor(angles), "j").data
        for n in range(3):
            for m in range(2):
                acc = 0.0
                for p in range(2):
                    for s in range(2):
                        b = _hamilton(keys[m, s], "j", angles[m, p])
                        acc += quaternion.hamilton(phi[n, p, s], quaternion.q_conj(b))[0]
                assert sim[n, m] == pytest.approx(acc, abs=1e-12)

    def test_period_count_gate(self):
        # two periods of query slots against keys spun for one
        with pytest.raises(ValueError):
            ag.rotated_scores(Tensor(np.zeros((3, 2, 2, 4))), Tensor(np.zeros((2, 2, 4))),
                              Tensor(np.zeros((2, 1))), "j")


class TestDegeneracy:
    """P=1 with zeroed kernels reduces to canonical scaled dot product."""

    @pytest.mark.parametrize("key_axis", ["i", "j"])
    @pytest.mark.parametrize("seed", range(6))
    def test_collapses_to_canonical(self, seed, key_axis):
        rng = np.random.default_rng(seed)
        n, m, d_model, d_attn = rng.integers(1, 6), rng.integers(1, 6), 6, 8
        head = qra.random_head(rng, d_model, d_attn, 1, scale=0.0)
        x = rng.standard_normal((int(n), d_model))
        y = rng.standard_normal((int(m), d_model))
        got = qra.qra_attention(x, y, head, key_axis=key_axis)
        q, k, v = x @ head["wq"], y @ head["wk"], y @ head["wv"]
        want = numerics.softmax_rows(q @ k.T / math.sqrt(d_attn)) @ v
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_angles_mean_no_rotation(self, rng):
        head = qra.random_head(rng, 6, 8, 1, scale=0.0)
        z = rng.standard_normal((4, 8))
        angles = _angles(Tensor(z), head, "q", np.arange(4.0))
        np.testing.assert_array_equal(angles.data, 0.0)


class TestAgainstOracle:
    @pytest.mark.parametrize("key_axis", ["i", "j"])
    @pytest.mark.parametrize("seed", range(8))
    def test_qra_attention_matches_oracle(self, seed, key_axis):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        d_attn = int(rng.integers(1, 3)) * 4  # 4 or 8
        periods = int(rng.integers(1, 4))
        d_model = int(rng.integers(2, 9))
        head = qra.random_head(rng, d_model, d_attn, periods)
        x = rng.standard_normal((n, d_model))
        y = rng.standard_normal((m, d_model))
        got = qra.qra_attention(x, y, head, key_axis=key_axis)
        want = oracle.reference_qra(x, y, head, key_axis=key_axis)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_oracle_hamilton_self_check(self):
        assert oracle.hamilton4((1, 2, 3, 4), (5, 6, 7, 8)) == (-60, 12, 30, 24)


class TestHullBound:
    def test_rows_stay_in_value_hull(self, rng):
        # softmax rows are convex weights, so outputs are bounded per column
        head = qra.random_head(rng, 10, 8, 2)
        x = rng.standard_normal((6, 10))
        y = rng.standard_normal((5, 10))
        out = qra.qra_attention(x, y, head)
        v = y @ head["wv"]
        lo, hi = v.min(axis=0), v.max(axis=0)
        assert np.all(out >= lo - 1e-12)
        assert np.all(out <= hi + 1e-12)
