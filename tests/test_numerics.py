"""Dense kernels: matmul, softmax, conv1d, sym_sqrt, grad_check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quatmotion import numerics as num
from quatmotion.errors import DimensionMismatch, NonFiniteLoss, NotSymmetric


class TestMatmul:
    def test_hand_case(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(num.matmul(a, b),
                                      [[19.0, 22.0], [43.0, 50.0]])

    def test_identity(self, rng):
        a = rng.standard_normal((4, 6))
        np.testing.assert_array_equal(num.matmul(a, np.eye(6)), a)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            num.matmul(rng.standard_normal((2, 3)), rng.standard_normal((4, 2)))

    def test_deterministic_rerun(self, rng):
        a = rng.standard_normal((50, 40))
        b = rng.standard_normal((40, 30))
        np.testing.assert_array_equal(num.matmul(a, b), num.matmul(a, b))


class TestSoftmaxRows:
    def test_rows_sum_to_one(self, rng):
        s = num.softmax_rows(rng.standard_normal((7, 11)) * 40)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(s > 0)

    def test_shift_invariance(self, rng):
        m = rng.standard_normal((4, 5))
        shifted = m + rng.standard_normal((4, 1))
        np.testing.assert_allclose(num.softmax_rows(shifted), num.softmax_rows(m),
                                   atol=1e-12)

    def test_two_entry_closed_form(self):
        # gap of ln 3 puts the mass at exactly 1:3
        s = num.softmax_rows(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(s, [[0.25, 0.75]], atol=1e-14)

    def test_extreme_logits_stay_finite(self):
        s = num.softmax_rows(np.array([[1000.0, -1000.0, 0.0]]))
        assert np.all(np.isfinite(s))
        assert s[0, 0] == pytest.approx(1.0)


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(num.relu(np.array([-2.0, 0.0, 3.5])),
                                      [0.0, 0.0, 3.5])

    def test_pi_tanh_zero(self):
        assert num.pi_tanh(np.array(0.0)) == 0.0

    def test_pi_tanh_small_matches_closed_form(self):
        x = np.array([0.5, -1.2, 2.0])
        np.testing.assert_allclose(num.pi_tanh(x), math.pi * np.tanh(x), atol=1e-15)

    @pytest.mark.parametrize("x", [20.0, -20.0, 1e6])
    def test_pi_tanh_strictly_inside_pi(self, x):
        v = float(num.pi_tanh(np.array(x)))
        assert abs(v) < math.pi  # strict, even where tanh saturates to 1.0

    def test_pi_tanh_odd(self, rng):
        x = rng.standard_normal(9)
        np.testing.assert_allclose(num.pi_tanh(-x), -num.pi_tanh(x), atol=1e-15)


class TestConv1d:
    def test_edge_detector_hand_case(self):
        kern = num.ConvKernel(weights=np.array([[[1.0, 0.0, -1.0]]]), bias=np.zeros(1))
        out = num.conv1d(np.array([[1.0], [2.0], [3.0]]), kern)
        np.testing.assert_array_equal(out, [[-2.0], [-2.0], [2.0]])

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((8, 3))
        w = np.zeros((3, 3, 3))
        for c in range(3):
            w[c, c, 1] = 1.0  # center tap only
        out = num.conv1d(x, num.ConvKernel(weights=w, bias=np.zeros(3)))
        np.testing.assert_array_equal(out, x)

    def test_bias_only(self):
        kern = num.ConvKernel(weights=np.zeros((2, 1, 3)),
                              bias=np.array([0.5, -1.0]))
        out = num.conv1d(np.zeros((4, 1)), kern)
        np.testing.assert_array_equal(out, np.tile([0.5, -1.0], (4, 1)))

    def test_same_length_output(self, rng):
        for steps in (1, 2, 5, 9):
            x = rng.standard_normal((steps, 2))
            kern = num.ConvKernel(weights=rng.standard_normal((4, 2, 5)), bias=np.zeros(4))
            assert num.conv1d(x, kern).shape == (steps, 4)

    @given(hnp.arrays(np.float64, (6, 2), elements=st.floats(-5, 5)),
           hnp.arrays(np.float64, (6, 2), elements=st.floats(-5, 5)),
           st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, x1, x2, a, b):
        kern = num.ConvKernel(weights=np.arange(24.0).reshape(4, 2, 3) / 10.0,
                              bias=np.zeros(4))
        lhs = num.conv1d(a * x1 + b * x2, kern)
        rhs = a * num.conv1d(x1, kern) + b * num.conv1d(x2, kern)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_matches_tap_loop(self, rng):
        # scalar definition out[t, o] = b[o] + sum_{c,u} x[t - pad + u, c] w[o, c, u],
        # also with leading head axes broadcasting as the decoder uses them
        x = rng.standard_normal((2, 3, 7, 4))
        w = rng.standard_normal((3, 6, 4, 5))
        b = rng.standard_normal((3, 6))
        out, _ = num.conv1d_im2col(x, w, b)
        want = np.zeros((2, 3, 7, 6))
        for n, h, t, o in np.ndindex(*want.shape):
            acc = b[h, o]
            for c in range(4):
                for u in range(5):
                    if 0 <= t - 2 + u < 7:
                        acc += x[n, h, t - 2 + u, c] * w[h, o, c, u]
            want[n, h, t, o] = acc
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)

    def test_even_width_rejected(self):
        with pytest.raises(DimensionMismatch):
            num.ConvKernel(weights=np.zeros((1, 1, 4)), bias=np.zeros(1))

    def test_channel_mismatch(self, rng):
        kern = num.ConvKernel(weights=rng.standard_normal((2, 3, 3)), bias=np.zeros(2))
        with pytest.raises(DimensionMismatch):
            num.conv1d(rng.standard_normal((5, 4)), kern)

    def test_bias_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            num.ConvKernel(weights=np.zeros((2, 1, 3)), bias=np.zeros(3))


class TestSymSqrt:
    def test_diagonal_closed_form(self):
        np.testing.assert_allclose(num.sym_sqrt(np.diag([4.0, 9.0, 0.25])),
                                   np.diag([2.0, 3.0, 0.5]), atol=1e-12)

    def test_reconstructs_spd(self, rng):
        b = rng.standard_normal((5, 5))
        s = b @ b.T + 0.1 * np.eye(5)
        root = num.sym_sqrt(s)
        np.testing.assert_allclose(root @ root, s, atol=1e-9)
        np.testing.assert_array_equal(root, root.T)

    def test_clamps_tiny_negative_eigenvalues(self):
        # rank-deficient Gram matrices often dip epsilon-below zero
        v = np.array([[1.0, 1.0], [1.0, 1.0]])
        root = num.sym_sqrt(v)
        np.testing.assert_allclose(root @ root, v, atol=1e-9)

    def test_eps_ridge(self):
        root = num.sym_sqrt(np.zeros((3, 3)), eps=4.0)
        np.testing.assert_allclose(root, 2.0 * np.eye(3), atol=1e-12)

    def test_rejects_asymmetric(self, rng):
        m = rng.standard_normal((4, 4))
        with pytest.raises(NotSymmetric):
            num.sym_sqrt(m + np.eye(4) * 10)


class TestGradCheck:
    @staticmethod
    def _quadratic(params):
        (x,) = params
        return float((x ** 2).sum()), [2.0 * x]

    def test_correct_gradient_passes(self):
        report = num.grad_check(self._quadratic, [np.array([1.0, -2.0, 3.0])])
        assert report.passed
        assert report.max_error < 1e-9

    def test_wrong_gradient_fails(self):
        def rigged(params):
            (x,) = params
            return float((x ** 2).sum()), [2.5 * x]  # 25% off

        report = num.grad_check(rigged, [np.array([1.0, 2.0])])
        assert not report.passed
        assert report.max_error > 0.1

    def test_per_param_reporting(self):
        def f(params):
            x, y = params
            return float((x ** 2).sum() + (y ** 3).sum()), [2.0 * x, 3.0 * y ** 2]

        report = num.grad_check(f, [np.ones(3), np.ones(2)], names=["x", "y"])
        assert report.names == ["x", "y"]
        assert len(report.errors) == 2
        assert report.passed

    def test_probe_subsample_deterministic(self):
        calls = []

        def f(params):
            (x,) = params
            calls.append(1)
            return float((x ** 2).sum()), [2.0 * x]

        big = np.linspace(-1, 1, 200)
        r1 = num.grad_check(f, [big.copy()], max_probes_per_param=5)
        n1 = len(calls)
        calls.clear()
        r2 = num.grad_check(f, [big.copy()], max_probes_per_param=5)
        assert r1.errors == r2.errors
        assert n1 == len(calls) == 1 + 2 * 5  # base eval + 2 per probed coord
        assert r1.probes == [5]

    def test_non_finite_loss_raises(self):
        def f(params):
            return float("nan"), [np.zeros(2)]

        with pytest.raises(NonFiniteLoss):
            num.grad_check(f, [np.zeros(2)])

    def test_gradient_shape_mismatch(self):
        def f(params):
            (x,) = params
            return float(x.sum()), [np.zeros(5)]

        with pytest.raises(DimensionMismatch):
            num.grad_check(f, [np.zeros(3)])
