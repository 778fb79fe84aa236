"""Spin position embedding: position encoded as rotation of feature pairs.

Each consecutive pair (x[2t], x[2t+1]) of a d-dim vector is treated as a
point in a plane and spun by pos * theta_t, with a geometric frequency
ladder theta_t = base**(-2t/d). A rotation by angle s composed with the
transpose of a rotation by angle t is a rotation by s - t, so logits
between spun queries and keys depend on positions only through their
offset. Values are left unrotated.

The model spins its query and key rows with autograd.rope_apply over
angle_tables, which runs the pairs through the shared slot kernel
(quaternion.slot_rotate with its 2-wide plane turn). rope_rotate_complex
is the independent formulation by complex multiplication; the spe
verification suite checks the model's path against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

DEFAULT_BASE = 10000.0


def theta_schedule(dim: int, base: float = DEFAULT_BASE) -> np.ndarray:
    """Per-pair rotation frequencies base**(-2*idx/dim), shape (dim // 2,)."""
    if dim % 2 != 0 or dim <= 0:
        raise DimensionMismatch(f"pair rotation needs a positive even dim, got {dim}")
    idx = np.arange(dim // 2, dtype=np.float64)
    return base ** (-2.0 * idx / dim)


@dataclass(frozen=True)
class RotarySchedule:
    """Even feature dim, frequency base, and the per-pair angle ladder.

    angles defaults to the geometric ladder; tests may inject custom
    ladders (zeros, a single pi/2) to probe degenerate behavior.
    """

    dim: int
    base: float = DEFAULT_BASE
    angles: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.dim % 2 != 0 or self.dim <= 0:
            raise DimensionMismatch(f"RotarySchedule needs a positive even dim, got {self.dim}")
        angles = self.angles
        if angles is None:
            angles = theta_schedule(self.dim, self.base)
        angles = np.asarray(angles, dtype=np.float64).reshape(-1)
        if angles.size != self.dim // 2:
            raise DimensionMismatch(f"expected {self.dim // 2} pair angles, got {angles.size}")
        object.__setattr__(self, "angles", angles)


def _check_vector(x, sched: RotarySchedule) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size != sched.dim:
        raise DimensionMismatch(f"vector length {x.size} does not match schedule dim {sched.dim}")
    return x


def rope_rotate_complex(x, pos, sched: RotarySchedule) -> np.ndarray:
    """Spin vector x's pairs to position pos as complex numbers times e^(i*pos*theta).

    The independent formulation of autograd.rope_apply over angle_tables.
    """
    x = _check_vector(x, sched)
    z = (x[0::2] + 1j * x[1::2]) * np.exp(1j * float(pos) * sched.angles)
    out = np.empty_like(x)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def angle_tables(steps: int, sched: RotarySchedule, offset: float = 0.0):
    """(cos, sin) tables of shape (steps, dim // 2) for the autodiff path."""
    pos = np.arange(steps, dtype=np.float64) + float(offset)
    ang = pos[:, None] * sched.angles[None, :]
    return np.cos(ang), np.sin(ang)
