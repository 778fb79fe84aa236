"""Quaternion algebra on arrays, the one slot rotation kernel, and rotation conversions.

A quaternion q = e + f*i + g*j + h*k is a float64 array whose last axis
holds (e, f, g, h); the algebra broadcasts over any leading axes. The
package keeps one multiplication table, _TURNS: a quarter turn of a slot
about an axis is its right product with that unit, so the Hamilton
product q (x) r is q * r_e plus the three turns of q weighted by r_f,
r_g and r_h. The algebra laws that `verify --suite algebra` checks
therefore check the rows that QRA's rotation and its VJP run, and
oracle.hamilton4, the written-out product, is the reference they are
held to. The rotation-matrix conversions serve the 219-dim motion layout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NotRotation, NotUnit

_AXES = ("i", "j", "k")


def _constant(*components) -> np.ndarray:
    q = np.array(components, dtype=np.float64)
    q.flags.writeable = False
    return q


ONE = _constant(1.0, 0.0, 0.0, 0.0)
UNIT_I = _constant(0.0, 1.0, 0.0, 0.0)
UNIT_J = _constant(0.0, 0.0, 1.0, 0.0)
UNIT_K = _constant(0.0, 0.0, 0.0, 1.0)
_CONJ = _constant(1.0, -1.0, -1.0, -1.0)


def _quats(q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.shape[-1:] != (4,):
        raise DimensionMismatch(f"quaternions need a last axis of 4, got shape {q.shape}")
    return q


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
    the sums equal co * x + si * quarter_turn(x, axis) bit for bit.
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


def q_conj(q) -> np.ndarray:
    """Conjugates e - f*i - g*j - h*k of quaternions q (..., 4)."""
    return _quats(q) * _CONJ


def q_norm(q) -> np.ndarray:
    """Norms (...) of quaternions q (..., 4)."""
    e, f, g, h = np.moveaxis(_quats(q), -1, 0)
    return np.sqrt(e * e + f * f + g * g + h * h)


def hamilton(q, r) -> np.ndarray:
    """Hamilton products q (x) r (non-commutative) of broadcasting (..., 4) arrays.

    r = r_e + r_f*i + r_g*j + r_h*k, so q (x) r is q*r_e plus q's quarter
    turns about i, j and k times r_f, r_g and r_h.
    """
    q, r = _quats(q), _quats(r)
    out = q * r[..., 0, None]
    for c, axis in enumerate(_AXES, start=1):
        out += quarter_turn(q, axis) * r[..., c, None]
    return out


def unit_exp(axis: str, angle) -> np.ndarray:
    """cos(angle) + sin(angle) on imaginary axis 'i', 'j' or 'k', shape angle.shape + (4,).

    The identity quaternion spun by slot_rotate.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    return slot_rotate(ONE, np.cos(angle), np.sin(angle), axis)


def quat_to_rotmat(q) -> np.ndarray:
    """3x3 rotation matrix of a unit quaternion q (4,)."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (4,):
        raise DimensionMismatch(f"expected one quaternion of shape (4,), got {q.shape}")
    n = float(q_norm(q))
    if not abs(n - 1.0) < 1e-6:
        raise NotUnit(f"|q| = {n!r} is not within 1e-6 of 1")
    e, f, g, h = q
    return np.array(
        [
            [1 - 2 * (g * g + h * h), 2 * (f * g - e * h), 2 * (f * h + e * g)],
            [2 * (f * g + e * h), 1 - 2 * (f * f + h * h), 2 * (g * h - e * f)],
            [2 * (f * h - e * g), 2 * (g * h + e * f), 1 - 2 * (f * f + g * g)],
        ],
        dtype=np.float64,
    )


def rotmat_to_quat(r) -> np.ndarray:
    """Unit quaternion (4,) of a proper rotation matrix; real part made nonnegative.

    The double cover q <-> -q is resolved by the nonnegative-real-part
    convention, so round trips recover the input up to sign.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (3, 3):
        raise NotRotation(f"expected a 3x3 matrix, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise NotRotation("matrix has non-finite entries")
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
    return np.array([e, f, g, h])
