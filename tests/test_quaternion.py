"""Quaternion algebra on (..., 4) arrays: products, the slot kernel, conversions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatmotion import oracle
from quatmotion import quaternion as quat
from quatmotion.errors import DimensionMismatch, NotRotation, NotUnit


def Q(e, f, g, h):
    return np.array([e, f, g, h], dtype=np.float64)


def finite_quats():
    component = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)
    return st.builds(Q, component, component, component, component)


class TestHamilton:
    def test_worked_product(self):
        # (1+2i+3j+4k)(5+6i+7j+8k), expanded by hand via the basis table
        got = quat.hamilton(Q(1, 2, 3, 4), Q(5, 6, 7, 8))
        np.testing.assert_array_equal(got, Q(-60.0, 12.0, 30.0, 24.0))

    @pytest.mark.parametrize("a,b,want", [
        ("i", "i", (-1, "1")), ("j", "j", (-1, "1")), ("k", "k", (-1, "1")),
        ("i", "j", (1, "k")), ("j", "i", (-1, "k")),
        ("j", "k", (1, "i")), ("k", "j", (-1, "i")),
        ("k", "i", (1, "j")), ("i", "k", (-1, "j")),
    ])
    def test_basis_table(self, a, b, want):
        basis = {"1": quat.ONE, "i": quat.UNIT_I, "j": quat.UNIT_J, "k": quat.UNIT_K}
        sign, name = want
        got = quat.hamilton(basis[a], basis[b])
        np.testing.assert_array_equal(got, sign * basis[name])

    def test_identity_both_sides(self, rng):
        q = rng.standard_normal(4)
        np.testing.assert_array_equal(quat.hamilton(quat.ONE, q), q)
        np.testing.assert_array_equal(quat.hamilton(q, quat.ONE), q)

    @given(finite_quats(), finite_quats(), finite_quats())
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        lhs = quat.hamilton(quat.hamilton(a, b), c)
        rhs = quat.hamilton(a, quat.hamilton(b, c))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @given(finite_quats(), finite_quats())
    @settings(max_examples=60, deadline=None)
    def test_norm_multiplicative(self, a, b):
        assert quat.q_norm(quat.hamilton(a, b)) == pytest.approx(
            quat.q_norm(a) * quat.q_norm(b), abs=1e-9)

    @given(finite_quats(), finite_quats())
    @settings(max_examples=60, deadline=None)
    def test_conjugate_reverses_products(self, a, b):
        lhs = quat.q_conj(quat.hamilton(a, b))
        rhs = quat.hamilton(quat.q_conj(b), quat.q_conj(a))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @given(finite_quats(), finite_quats())
    @settings(max_examples=60, deadline=None)
    def test_real_part_of_q_conj_r_is_dot(self, a, b):
        # the identity that turns rotary similarity into a flat matmul
        real = quat.hamilton(a, quat.q_conj(b))[0]
        assert real == pytest.approx(float(a @ b), abs=1e-9)

    def test_stacked_calls_equal_row_calls(self, rng):
        # every function broadcasts over leading axes and gives each row
        # the bits a call on that row alone gives
        q, r = rng.standard_normal((2, 6, 3, 4))
        angles = rng.uniform(-6, 6, (6, 3))
        rows = [(n, s) for n in range(6) for s in range(3)]
        for got, row_call in (
                (quat.hamilton(q, r), lambda n, s: quat.hamilton(q[n, s], r[n, s])),
                (quat.q_conj(q), lambda n, s: quat.q_conj(q[n, s])),
                (quat.q_norm(q), lambda n, s: quat.q_norm(q[n, s])),
                (quat.unit_exp("j", angles), lambda n, s: quat.unit_exp("j", angles[n, s]))):
            want = np.array([row_call(n, s) for n, s in rows])
            assert got.tobytes() == want.reshape(got.shape).tobytes()

    @pytest.mark.parametrize("width", [3, 5])
    def test_last_axis_must_be_four(self, width):
        with pytest.raises(DimensionMismatch):
            quat.hamilton(np.ones((2, width)), np.ones((2, 4)))
        with pytest.raises(DimensionMismatch):
            quat.hamilton(quat.ONE, np.ones(width))


class TestArithmetic:
    def test_conj_negates_imaginary_parts(self):
        np.testing.assert_array_equal(quat.q_conj(Q(1, -2, 3, -4)), Q(1, 2, -3, 4))

    def test_norm(self):
        assert quat.q_norm(Q(1, 2, 2, 0)) == 3.0
        assert quat.q_norm(Q(0, 0, 0, 0)) == 0.0

    def test_conj_fixes_reals(self):
        np.testing.assert_array_equal(quat.q_conj(Q(7, 0, 0, 0)), Q(7, 0, 0, 0))


class TestUnitExp:
    @pytest.mark.parametrize("axis,slot", [("i", 1), ("j", 2), ("k", 3)])
    def test_components(self, axis, slot):
        u = quat.unit_exp(axis, 0.3)
        want = np.zeros(4)
        want[0] = math.cos(0.3)
        want[slot] = math.sin(0.3)
        np.testing.assert_allclose(u, want, atol=1e-15)

    def test_unit_norm_any_angle(self):
        for angle in (-7.0, 0.0, 1e-3, 2 * math.pi, 123.456):
            assert quat.q_norm(quat.unit_exp("j", angle)) == pytest.approx(1.0, abs=1e-12)

    def test_angle_addition(self):
        # exp(u*a) exp(u*b) = exp(u*(a+b)) when the axis is shared
        a, b = 0.7, -1.9
        lhs = quat.hamilton(quat.unit_exp("k", a), quat.unit_exp("k", b))
        rhs = quat.unit_exp("k", a + b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_bad_axis(self):
        for axis in ("x", "plane"):
            with pytest.raises(ValueError):
                quat.unit_exp(axis, 0.1)


class TestSlotRotate:
    """The one rotation kernel against the oracle's written-out product."""

    @pytest.mark.parametrize("axis", ["i", "j", "k"])
    def test_matches_hamilton(self, axis, rng):
        # slot_rotate and hamilton both run the turn table, so each is
        # held to oracle.hamilton4 rather than to the other
        x = rng.standard_normal((5, 3, 4))
        angles = rng.uniform(-6, 6, (5, 3))
        got = quat.slot_rotate(x, np.cos(angles), np.sin(angles), axis)
        product = quat.hamilton(x, quat.unit_exp(axis, angles))
        for n in range(5):
            for s in range(3):
                want = oracle.hamilton4(x[n, s], oracle.axis_unit(axis, angles[n, s]))
                np.testing.assert_allclose(got[n, s], want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(product[n, s], want, rtol=0, atol=1e-12)

    def test_plane_turn_is_complex_multiplication(self, rng):
        x = rng.standard_normal((5, 2))
        angles = rng.uniform(-6, 6, 5)
        got = quat.slot_rotate(x, np.cos(angles), np.sin(angles), "plane")
        want = (x[:, 0] + 1j * x[:, 1]) * np.exp(1j * angles)
        np.testing.assert_allclose(got, np.stack([want.real, want.imag], axis=1), atol=1e-14)

    def test_zero_angle_is_identity(self, rng):
        x = rng.standard_normal((4, 2, 4))
        np.testing.assert_array_equal(
            quat.slot_rotate(x, np.ones((4, 2)), np.zeros((4, 2)), "i"), x)

    def test_norm_preserved(self, rng):
        x = rng.standard_normal((6, 2, 4))
        angles = rng.uniform(-9, 9, (6, 2))
        out = quat.slot_rotate(x, np.cos(angles), np.sin(angles), "j")
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1),
                                   np.linalg.norm(x, axis=-1), atol=1e-12)


class TestRotationConversions:
    def test_identity_quaternion(self):
        np.testing.assert_array_equal(quat.quat_to_rotmat(quat.ONE), np.eye(3))

    def test_quarter_turn_about_x(self):
        q = Q(math.cos(math.pi / 4), math.sin(math.pi / 4), 0, 0)
        want = np.array([[1.0, 0.0, 0.0],
                         [0.0, 0.0, -1.0],
                         [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(quat.quat_to_rotmat(q), want, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_random_units(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        back = quat.rotmat_to_quat(quat.quat_to_rotmat(v))
        # double cover: recovery is up to a global sign
        err = min(np.abs(back - v).max(), np.abs(back + v).max())
        assert err < 1e-10

    @pytest.mark.parametrize("axis,flip", [
        (0, np.diag([1.0, -1.0, -1.0])),   # trace -1, e ~ 0, f dominant
        (1, np.diag([-1.0, 1.0, -1.0])),   # g dominant
        (2, np.diag([-1.0, -1.0, 1.0])),   # h dominant
    ])
    def test_half_turn_branches(self, axis, flip):
        # half turns have zero real part: the branch selection must not
        # divide by it
        got = quat.rotmat_to_quat(flip)
        want = np.zeros(4)
        want[axis + 1] = 1.0
        err = min(np.abs(got - want).max(), np.abs(got + want).max())
        assert err < 1e-12

    def test_real_part_nonnegative(self, rng):
        for _ in range(20):
            v = rng.standard_normal(4)
            v /= np.linalg.norm(v)
            got = quat.rotmat_to_quat(quat.quat_to_rotmat(v))
            assert got[0] >= 0.0

    def test_rotation_matrix_is_orthogonal(self, rng):
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        r = quat.quat_to_rotmat(v)
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnit):
            quat.quat_to_rotmat(Q(1.0, 1.0, 0.0, 0.0))

    def test_rejects_nan_quaternion(self):
        # |q| = nan is not within 1e-6 of 1 either
        with pytest.raises(NotUnit):
            quat.quat_to_rotmat(Q(math.nan, 0.0, 0.0, 0.0))

    def test_rejects_nan_matrix(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotRotation):
                quat.rotmat_to_quat(np.full((3, 3), math.nan))

    def test_one_quaternion_only(self):
        with pytest.raises(DimensionMismatch):
            quat.quat_to_rotmat(np.tile(quat.ONE, (2, 1)))

    def test_rejects_reflection(self):
        with pytest.raises(NotRotation):
            quat.rotmat_to_quat(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_non_orthogonal(self):
        m = np.eye(3)
        m[0, 1] = 0.1
        with pytest.raises(NotRotation):
            quat.rotmat_to_quat(m)
