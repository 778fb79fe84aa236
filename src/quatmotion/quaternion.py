"""Quaternion algebra and the quaternion view of real feature vectors.

Quaternions are rank-4 hypercomplex numbers q = e + f*i + g*j + h*k with
the non-commutative Hamilton product. This module provides the scalar
algebra, unit-axis exponentials used for series rotation, the grouping of
real vectors into quaternion slots, and conversions to and from rotation
matrices for the 219-dim motion layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientDims, NotRotation, NotUnit

_AXES = ("i", "j", "k")


@dataclass(frozen=True)
class Quaternion:
    """q = e + f*i + g*j + h*k with float64 components."""

    e: float
    f: float
    g: float
    h: float

    def as_array(self) -> np.ndarray:
        return np.array([self.e, self.f, self.g, self.h], dtype=np.float64)

    @staticmethod
    def from_array(a) -> "Quaternion":
        e, f, g, h = (float(v) for v in a)
        return Quaternion(e, f, g, h)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
UNIT_I = Quaternion(0.0, 1.0, 0.0, 0.0)
UNIT_J = Quaternion(0.0, 0.0, 1.0, 0.0)
UNIT_K = Quaternion(0.0, 0.0, 0.0, 1.0)


def q_add(q: Quaternion, r: Quaternion) -> Quaternion:
    return Quaternion(q.e + r.e, q.f + r.f, q.g + r.g, q.h + r.h)


def q_scale(gamma: float, q: Quaternion) -> Quaternion:
    return Quaternion(gamma * q.e, gamma * q.f, gamma * q.g, gamma * q.h)


def q_conj(q: Quaternion) -> Quaternion:
    return Quaternion(q.e, -q.f, -q.g, -q.h)


def hamilton(q: Quaternion, r: Quaternion) -> Quaternion:
    """Hamilton product q (x) r (non-commutative)."""
    return Quaternion(
        q.e * r.e - q.f * r.f - q.g * r.g - q.h * r.h,
        q.e * r.f + q.f * r.e + q.g * r.h - q.h * r.g,
        q.e * r.g - q.f * r.h + q.g * r.e + q.h * r.f,
        q.e * r.h + q.f * r.g - q.g * r.f + q.h * r.e,
    )


def q_norm(q: Quaternion) -> float:
    return math.sqrt(q.e * q.e + q.f * q.f + q.g * q.g + q.h * q.h)


def unit_exp(axis: str, angle: float) -> Quaternion:
    """cos(angle) + sin(angle) on the chosen imaginary axis ('i', 'j' or 'k')."""
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    c, s = math.cos(angle), math.sin(angle)
    if axis == "i":
        return Quaternion(c, s, 0.0, 0.0)
    if axis == "j":
        return Quaternion(c, 0.0, s, 0.0)
    return Quaternion(c, 0.0, 0.0, s)


def quaternionize(v) -> list[Quaternion]:
    """Group consecutive 4-tuples of a real vector into quaternions.

    A trailing remainder of 1-3 entries is discarded, so a 254-dim vector
    becomes 63 quaternions.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size < 4:
        raise InsufficientDims(f"need at least 4 entries to form a quaternion, got {v.size}")
    n = v.size // 4
    blocks = v[: 4 * n].reshape(n, 4)
    return [Quaternion(*row) for row in blocks]


def quaternionize_rows(z: np.ndarray) -> np.ndarray:
    """Array form: (steps, d) -> (steps, d//4, 4) with d divisible by 4."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] % 4 != 0:
        raise DimensionMismatch(f"rows of shape {z.shape} cannot be grouped into quaternions")
    return z.reshape(z.shape[0], z.shape[1] // 4, 4)


@dataclass
class QuaternionSeries:
    """Per-timestep quaternion slots, stored as an array of shape (steps, slots, 4)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3 or self.values.shape[2] != 4:
            raise DimensionMismatch("QuaternionSeries values must have shape (steps, slots, 4)")

    @property
    def steps(self) -> int:
        return self.values.shape[0]

    @property
    def slots_per_step(self) -> int:
        return self.values.shape[1]

    def quat(self, step: int, slot: int) -> Quaternion:
        return Quaternion.from_array(self.values[step, slot])


# Right-multiplying a slot (e,f,g,h) by a unit axis quaternion permutes
# its components and flips two signs: component c of the product is
# sign * x[source], e.g. (e,f,g,h) * i = (-f, e, h, -g).
_QUARTER_TURNS = {
    "i": ((1, -1.0), (0, 1.0), (3, 1.0), (2, -1.0)),
    "j": ((2, -1.0), (3, -1.0), (0, 1.0), (1, 1.0)),
    "k": ((3, -1.0), (2, 1.0), (1, -1.0), (0, 1.0)),
}


def quarter_turn(x: np.ndarray, axis: str) -> np.ndarray:
    """Right Hamilton product of slots x (..., 4) with the unit axis itself."""
    if axis not in _QUARTER_TURNS:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    out = np.empty(x.shape)
    # four strided slice copies; a fancy index over a length-4 axis is
    # several times slower and leaves the result in a scattered layout
    for c, (source, sign) in enumerate(_QUARTER_TURNS[axis]):
        np.multiply(x[..., source], sign, out=out[..., c])
    return out


def slot_rotate(x: np.ndarray, co, si, axis: str) -> np.ndarray:
    """Right Hamilton product of slots x (..., 4) with co + si*axis.

    co and si broadcast against x[..., 0], and so may add leading axes.
    Expanding hamilton(q, unit_exp(axis, angle)) gives co * x + si *
    (x * axis), written here into one preallocated output. Keeping it in
    one place lets the autodiff layer and the plain-array layer share a
    single derivation.
    """
    co = np.asarray(co)[..., None]
    si = np.asarray(si)[..., None]
    out = np.empty(np.broadcast_shapes(x.shape, co.shape, si.shape))
    np.multiply(x, co, out=out)
    out += quarter_turn(x, axis) * si
    return out


def right_multiply_unit(x: np.ndarray, angles, axis: str) -> np.ndarray:
    """Rotate quaternion slots x (..., S, 4) by unit_exp(axis, angles).

    angles has shape x.shape[:-2] (every slot of a row shares its angle)
    or x.shape[:-1] (one angle per slot).
    """
    x = np.asarray(x, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape == x.shape[:-1]:
        co, si = np.cos(angles), np.sin(angles)
    elif angles.shape == x.shape[:-2]:
        co, si = np.cos(angles)[..., None], np.sin(angles)[..., None]
    else:
        raise DimensionMismatch(
            f"angles shape {angles.shape} matches neither rows {x.shape[:-2]} "
            f"nor slots {x.shape[:-1]}")
    return slot_rotate(x, co, si, axis)


def quat_to_rotmat(q: Quaternion) -> np.ndarray:
    """3x3 rotation matrix of a unit quaternion."""
    n = q_norm(q)
    if abs(n - 1.0) >= 1e-6:
        raise NotUnit(f"|q| = {n!r} is not within 1e-6 of 1")
    e, f, g, h = q.e, q.f, q.g, q.h
    return np.array(
        [
            [1 - 2 * (g * g + h * h), 2 * (f * g - e * h), 2 * (f * h + e * g)],
            [2 * (f * g + e * h), 1 - 2 * (f * f + h * h), 2 * (g * h - e * f)],
            [2 * (f * h - e * g), 2 * (g * h + e * f), 1 - 2 * (f * f + g * g)],
        ],
        dtype=np.float64,
    )


def rotmat_to_quat(r: np.ndarray) -> Quaternion:
    """Unit quaternion of a proper rotation matrix; real part made nonnegative.

    The double cover q <-> -q is resolved by the nonnegative-real-part
    convention, so round trips recover the input up to sign.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (3, 3):
        raise NotRotation(f"expected a 3x3 matrix, got shape {r.shape}")
    if np.abs(r.T @ r - np.eye(3)).max() > 1e-6 or abs(np.linalg.det(r) - 1.0) > 1e-6:
        raise NotRotation("matrix is not orthonormal with determinant +1 (within 1e-6)")

    # Shepperd's method: pick the largest of the four squared components.
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    if tr >= r[0, 0] and tr >= r[1, 1] and tr >= r[2, 2]:
        s = math.sqrt(tr + 1.0) * 2.0
        q = (0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s)
    elif r[0, 0] >= r[1, 1] and r[0, 0] >= r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = ((r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s)
    elif r[1, 1] >= r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = ((r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s)
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = ((r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s)

    e, f, g, h = q
    norm = math.sqrt(e * e + f * f + g * g + h * h)
    e, f, g, h = e / norm, f / norm, g / norm, h / norm
    if e < 0.0:
        e, f, g, h = -e, -f, -g, -h
    return Quaternion(e, f, g, h)
