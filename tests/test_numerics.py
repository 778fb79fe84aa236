"""Dense kernels: softmax, conv1d, sym_sqrt, grad_check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view

from quatmotion import numerics as num
from quatmotion.errors import DimensionMismatch, NonFiniteLoss, NotSymmetric


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
        out = num.conv1d_im2col(np.array([[1.0], [2.0], [3.0]]), np.array([[[1.0, 0.0, -1.0]]]),
                                np.zeros(1))
        np.testing.assert_array_equal(out, [[-2.0], [-2.0], [2.0]])

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((8, 3))
        w = np.zeros((3, 3, 3))
        for c in range(3):
            w[c, c, 1] = 1.0  # center tap only
        out = num.conv1d_im2col(x, w, np.zeros(3))
        np.testing.assert_array_equal(out, x)

    def test_bias_only(self):
        out = num.conv1d_im2col(np.zeros((4, 1)), np.zeros((2, 1, 3)), np.array([0.5, -1.0]))
        np.testing.assert_array_equal(out, np.tile([0.5, -1.0], (4, 1)))

    def test_same_length_output(self, rng):
        for steps in (1, 2, 5, 9):
            x = rng.standard_normal((steps, 2))
            out = num.conv1d_im2col(x, rng.standard_normal((4, 2, 5)), np.zeros(4))
            assert out.shape == (steps, 4)

    @given(hnp.arrays(np.float64, (6, 2), elements=st.floats(-5, 5)),
           hnp.arrays(np.float64, (6, 2), elements=st.floats(-5, 5)),
           st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, x1, x2, a, b):
        kern = (np.arange(24.0).reshape(4, 2, 3) / 10.0, np.zeros(4))
        lhs = num.conv1d_im2col(a * x1 + b * x2, *kern)
        rhs = a * num.conv1d_im2col(x1, *kern) + b * num.conv1d_im2col(x2, *kern)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_matches_tap_loop(self, rng):
        # scalar definition out[t, o] = b[o] + sum_{c,u} x[t - pad + u, c] w[o, c, u],
        # also with leading head axes broadcasting as the decoder uses them
        x = rng.standard_normal((2, 3, 7, 4))
        w = rng.standard_normal((3, 6, 4, 5))
        b = rng.standard_normal((3, 6))
        out = num.conv1d_im2col(x, w, b)
        want = np.zeros((2, 3, 7, 6))
        for n, h, t, o in np.ndindex(*want.shape):
            acc = b[h, o]
            for c in range(4):
                for u in range(5):
                    if 0 <= t - 2 + u < 7:
                        acc += x[n, h, t - 2 + u, c] * w[h, o, c, u]
            want[n, h, t, o] = acc
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("x_shape,w_shape", [
        ((1, 3), (2, 3, 3)),                 # T = 1
        ((1, 3), (2, 3, 5)),                 # T < W: every off-centre tap is padding
        ((2, 2, 3), (2, 4, 3, 5)),           # T < W with a leading axis
        ((6, 2), (4, 2, 1)),                 # W = 1: no padding
        ((2, 1, 7, 4), (3, 6, 4, 5)),        # leading axes broadcast
        ((9, 3), (2, 3, 7)),
    ])
    def test_im2col_matches_sliding_window_view(self, rng, x_shape, w_shape):
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        b = rng.standard_normal(w_shape[:-2])
        width = w_shape[-1]
        pad = width // 2
        t, c = x_shape[-2:]
        xp = np.zeros(x.shape[:-2] + (t + 2 * pad, c))
        xp[..., pad:pad + t, :] = x
        want_cols = sliding_window_view(xp, width, axis=-2).reshape(x.shape[:-1] + (c * width,))
        want = np.matmul(want_cols, np.swapaxes(w.reshape(w.shape[:-2] + (-1,)), -1, -2))
        want += b[..., None, :]
        np.testing.assert_array_equal(num.conv_windows(x, width), want_cols)
        np.testing.assert_array_equal(num.conv1d_im2col(x, w, b), want)


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

    def test_rejects_asymmetric(self, rng):
        m = rng.standard_normal((4, 4))
        with pytest.raises(NotSymmetric):
            num.sym_sqrt(m + np.eye(4) * 10)


def _sq_losses(params):
    """Sum of squares of each probe row of the first parameter."""
    a = params[0]
    return (a ** 2).reshape(len(a), -1).sum(axis=1)


class TestGradCheck:
    # plain-numpy objectives: the gradient at one point, and the losses
    # of a stack of probe rows
    _quadratic = num.Objective(
        value_and_grad=lambda params: (float((params[0] ** 2).sum()), [2.0 * params[0]]),
        losses=_sq_losses)

    def test_correct_gradient_passes(self):
        report = num.grad_check(self._quadratic, [np.array([1.0, -2.0, 3.0])])
        assert report.passed
        assert report.max_error < 1e-9

    def test_wrong_gradient_fails(self):
        rigged = self._quadratic._replace(
            value_and_grad=lambda params: (float((params[0] ** 2).sum()),
                                           [2.5 * params[0]]))  # 25% off

        report = num.grad_check(rigged, [np.array([1.0, 2.0])])
        assert not report.passed
        assert report.max_error > 0.1

    @staticmethod
    def _cubic(gx_error: float = 0.0) -> num.Objective:
        """x^2 + y^3 summed; gx_error moves analytic coordinate 2 of x."""
        def value_and_grad(params):
            x, y = params
            gx = 2.0 * x
            gx[2] += gx_error
            return float((x ** 2).sum() + (y ** 3).sum()), [gx, 3.0 * y ** 2]

        def losses(params):
            x, y = params
            return (x ** 2).sum(axis=1) + (y ** 3).sum(axis=1)

        return num.Objective(value_and_grad, losses)

    def test_per_param_reporting(self):
        report = num.grad_check(self._cubic(), [np.ones(3), np.ones(2)], names=["x", "y"])
        assert report.names == ["x", "y"]
        assert len(report.errors) == 2
        assert report.passed

    def test_probe_subsample_deterministic(self):
        calls = []

        def value_and_grad(params):
            calls.append("value_and_grad")
            return self._quadratic.value_and_grad(params)

        def losses(params):
            calls.append(("losses", len(params[0])))
            return _sq_losses(params)

        f = num.Objective(value_and_grad, losses)
        big = np.linspace(-1, 1, 200)
        r1 = num.grad_check(f, [big.copy()], max_probes_per_param=5)
        first = list(calls)
        calls.clear()
        r2 = num.grad_check(f, [big.copy()], max_probes_per_param=5)
        assert r1.errors == r2.errors
        # only the base evaluation computes a gradient; the 2 x 5 probes
        # are one loss-only call
        assert first == calls == ["value_and_grad", ("losses", 2 * 5)]
        assert r1.probes == [5]

    def test_non_finite_loss_raises(self):
        f = self._quadratic._replace(value_and_grad=lambda params: (float("nan"), [np.zeros(2)]))

        with pytest.raises(NonFiniteLoss):
            num.grad_check(f, [np.zeros(2)])

    def test_non_finite_probe_loss_raises(self):
        f = self._quadratic._replace(losses=lambda params: np.full(len(params[0]), np.inf))

        with pytest.raises(NonFiniteLoss):
            num.grad_check(f, [np.zeros(2)])

    def test_one_wrong_coordinate_fails(self):
        report = num.grad_check(self._cubic(gx_error=0.5),
                                [np.linspace(-1.0, 1.0, 4), np.array([0.5, -1.5, 2.0])])
        assert not report.passed
        assert report.errors[0] > 0.1
        assert report.errors[1] < 1e-6

    def test_batched_probes_same_coordinates(self):
        big = np.linspace(-1, 1, 200)
        moved = []

        def losses(params):
            for row in params[0]:
                delta = row - big
                (c,) = np.flatnonzero(delta)
                moved.append((int(c), bool(delta[c] > 0)))
            return _sq_losses(params)

        report = num.grad_check(self._quadratic._replace(losses=losses), [big.copy()],
                                max_probes_per_param=5)
        assert report.probes == [5]
        # the seeded subsample, +h rows first, then -h rows
        coords = np.sort(np.random.default_rng(0).choice(200, size=5, replace=False)).tolist()
        assert moved == [(c, True) for c in coords] + [(c, False) for c in coords]

    def test_batched_chunks_under_element_bound(self, monkeypatch):
        calls = []

        def losses(params):
            calls.append(params[0].shape)
            return _sq_losses(params)

        f = self._quadratic._replace(losses=losses)
        x = np.linspace(-1, 1, 30)
        whole = num.grad_check(f, [x.copy()])
        assert calls == [(60, 30)]
        calls.clear()
        monkeypatch.setattr(num, "PROBE_STACK_ELEMENTS", 250)
        chunked = num.grad_check(f, [x.copy()])
        # 250 // 60 = 4 coordinates (8 rows, 240 elements) per call
        assert calls == [(8, 30)] * 7 + [(4, 30)]
        assert chunked.errors == whole.errors
        calls.clear()
        monkeypatch.setattr(num, "PROBE_STACK_ELEMENTS", 1)
        num.grad_check(f, [x.copy()])
        assert calls == [(2, 30)] * 30  # two rows at the least

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_batched_non_finite_probe_loss_raises(self, bad):
        def losses(params):
            out = _sq_losses(params)
            out[-1] = bad
            return out

        with pytest.raises(NonFiniteLoss):
            num.grad_check(self._quadratic._replace(losses=losses), [np.zeros(2)])

    def test_batched_losses_shape_checked(self):
        f = self._quadratic._replace(losses=lambda params: _sq_losses(params)[:1])
        with pytest.raises(DimensionMismatch):
            num.grad_check(f, [np.zeros(2)])

    def test_nan_analytic_gradient_fails(self):
        def value_and_grad(params):
            loss, (g,) = self._quadratic.value_and_grad(params)
            g[1] = np.nan
            return loss, [g]

        report = num.grad_check(self._quadratic._replace(value_and_grad=value_and_grad),
                                [np.array([1.0, 2.0, 3.0])])
        assert not report.passed
        assert np.isnan(report.max_error)

    def test_non_contiguous_parameter_is_probed(self):
        # a transposed view: probes must move the array the objective reads
        x = np.arange(1.0, 7.0).reshape(2, 3).T
        report = num.grad_check(self._quadratic, [x])
        assert report.passed
        assert report.max_error < 1e-9

    def test_gradient_shape_mismatch(self):
        f = num.Objective(value_and_grad=lambda params: (float(params[0].sum()),
                                                         [np.zeros(5)]),
                          losses=lambda params: params[0].sum(axis=1))

        with pytest.raises(DimensionMismatch):
            num.grad_check(f, [np.zeros(3)])
