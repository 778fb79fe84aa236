"""A fixed reference kernel that tracks the machine's current speed.

On a shared machine the same code runs up to a third slower for
minutes at a time. Each timed operation of the benchmark is preceded by
this kernel, and the operation's time is scaled by NOMINAL_S / (kernel
time), so that it reads as it would when the kernel takes NOMINAL_S.
The kernel mixes what quatmotion spends its time on: small-array numpy
calls wrapped in Python objects, a mid-size matrix product, float text
formatting and parsing, and a fresh multi-megabyte buffer written and
read back, as the tape's temporaries are. It imports nothing from quatmotion, so a
change to the program leaves it alone.
"""

from __future__ import annotations

import json
import time

import numpy as np

NOMINAL_S = 0.025   # about the kernel's time on a quiet 2-core Xeon VM (the reference machine)

_rng = np.random.default_rng(0)
_SMALL = (_rng.standard_normal((1, 4, 30, 16)), _rng.standard_normal((8, 4, 30, 16)))
_W = _rng.standard_normal((16, 16))
_BIG = _rng.standard_normal((240, 64))
_WB = _rng.standard_normal((64, 256))
_TEXT_ROW = _rng.standard_normal(219)
_FLOATS = _rng.standard_normal(2000).tolist()


class _Node:
    __slots__ = ("data", "parents", "fn")

    def __init__(self, data, parents=(), fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = parents
        self.fn = fn


def _round():
    for x in _SMALL:
        h = _Node(x @ _W)
        r = _Node(np.where(h.data > 0, h.data, 0.0), (h,), lambda g: g)
        s = np.exp(r.data - r.data.max(-1, keepdims=True))
        s /= s.sum(-1, keepdims=True)
        e = _Node(np.einsum("bhtd,bhsd->bhts", s, h.data), (r,), lambda g: g)
        _Node(e.data.transpose(0, 2, 1, 3).reshape(x.shape[0], 30, -1), (e,))
    _BIG @ _WB
    row = [float(c) for c in ",".join(f"{v:.17g}" for v in _TEXT_ROW).split(",")]
    json.loads(json.dumps({"values": row + _FLOATS}))
    buf = np.empty(1 << 20)
    buf.fill(1.0)
    buf.sum()


def kernel_seconds(rounds: int = 6) -> float:
    t0 = time.perf_counter()
    for _ in range(rounds):
        _round()
    return time.perf_counter() - t0
