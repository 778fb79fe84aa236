"""Quaternion algebra and the quaternion view of real feature vectors.

Quaternions are rank-4 hypercomplex numbers q = e + f*i + g*j + h*k with
the non-commutative Hamilton product. This module provides the scalar
algebra, unit-axis exponentials, the grouping of real vectors into
quaternion slots, the one slot rotation kernel that QRA and RoPE share,
and conversions to and from rotation matrices for the 219-dim motion
layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDims, NotRotation, NotUnit

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


# Turning a slot by a quarter turn permutes its components and flips
# signs: component c of the turned slot is sign * x[source]. For a
# quaternion slot (e,f,g,h) the turn about an axis is its right Hamilton
# product with that unit, e.g. (e,f,g,h) * i = (-f, e, h, -g); the 2-wide
# "plane" turn (x0, x1) -> (-x1, x0) is the same step for rotary pairs.
_TURNS = {
    "i": ((1, -1.0), (0, 1.0), (3, 1.0), (2, -1.0)),
    "j": ((2, -1.0), (3, -1.0), (0, 1.0), (1, 1.0)),
    "k": ((3, -1.0), (2, 1.0), (1, -1.0), (0, 1.0)),
    "plane": ((1, -1.0), (0, 1.0)),
}


def _turn_table(axis: str):
    if axis not in _TURNS:
        raise ValueError(f"axis must be one of {tuple(_TURNS)}, got {axis!r}")
    return _TURNS[axis]


def quarter_turn(x: np.ndarray, axis: str) -> np.ndarray:
    """Slots x (..., W) turned a quarter: x * axis for quaternion slots."""
    out = np.empty(x.shape)
    # strided slice copies; a fancy index over a short last axis is
    # several times slower and leaves the result in a scattered layout
    for c, (source, sign) in enumerate(_turn_table(axis)):
        np.multiply(x[..., source], sign, out=out[..., c])
    return out


def slot_rotate(x: np.ndarray, co, si, axis: str) -> np.ndarray:
    """Rotate slots x (..., W) by the angle whose cosine and sine are co, si.

    The one rotation kernel: co * x + si * quarter_turn(x, axis). For a
    quaternion axis ('i', 'j', 'k'; W = 4) this is the right Hamilton
    product with co + si*axis, as QRA spins its slots; for 'plane' (W = 2)
    it spins rotary pairs (x0, x1) as RoPE does. co and si broadcast
    against x[..., 0], and so may add leading axes. Each turned component
    is added with its sign folded into si, so no turned copy of x is made;
    the sums are bit-identical to the written-out pair and Hamilton forms.
    """
    table = _turn_table(axis)
    co = np.asarray(co)
    si = np.asarray(si)
    out = np.multiply(x, co[..., None])
    signed = {1.0: si, -1.0: -si}
    for c, (source, sign) in enumerate(table):
        col = out[..., c]
        col += x[..., source] * signed[sign]
    return out


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
