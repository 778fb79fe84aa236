"""Spin position embedding: position encoded as rotation of feature pairs.

Each consecutive pair (x[2t], x[2t+1]) of a d-dim vector is treated as a
point in a plane and spun by pos * theta_t, with a geometric frequency
ladder theta_t = DEFAULT_BASE**(-2t/d) at RoFormer's base 10000 (arXiv
2104.09864). A rotation by angle s composed with the transpose of a
rotation by angle t is a rotation by s - t, so logits between spun
queries and keys depend on positions only through their offset. Values
are left unrotated.

The model spins its query and key rows with autograd.rope_apply over
angle_tables, which runs the pairs through the shared slot kernel
(quaternion.slot_rotate with its 2-wide plane turn). The independent
reference is oracle.rope, the same spin by complex multiplication at the
oracle's own copy of the base; the spe verification suite and acceptance
criterion 2 hold the model's path to it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

DEFAULT_BASE = 10000.0


def theta_schedule(dim: int) -> np.ndarray:
    """Per-pair rotation frequencies DEFAULT_BASE**(-2*idx/dim), shape (dim // 2,)."""
    if dim % 2 != 0 or dim <= 0:
        raise DimensionMismatch(f"pair rotation needs a positive even dim, got {dim}")
    idx = np.arange(dim // 2, dtype=np.float64)
    return DEFAULT_BASE ** (-2.0 * idx / dim)


def angle_tables(steps: int, dim: int, offset: float = 0.0):
    """(cos, sin) tables of shape (steps, dim // 2) at positions offset .. offset+steps-1."""
    pos = np.arange(steps, dtype=np.float64) + float(offset)
    ang = pos[:, None] * theta_schedule(dim)[None, :]
    return np.cos(ang), np.sin(ang)
