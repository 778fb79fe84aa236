"""Quaternion rotary attention (QRA).

Rows of projected queries and keys are grouped into quaternion slots and
right-multiplied by unit axis exponentials: in period p, row n of N turns
by 2*pi*omega[n, p]*n/N + theta[n, p], where the latent frequencies omega
and phases theta are 1-d convolutions of the rows with relu and pi*tanh
activations. The logit of a query row and a key row is the sum over
periods and slots of the real parts of the Hamilton products of the spun
query slots with the conjugated spun key slots, scaled by 1/(P*sqrt(d)).
With one period and zero angles this is exactly canonical scaled
dot-product attention.

rotary_logits is the one implementation, on the autodiff tape: the
model's decoder calls it with all heads at once and its keys spun about
j, and qra_attention runs it on untracked single-head tensors.
quatmotion.oracle re-derives the whole pipeline in scalar loops. Keys
spun about i (key_axis "i") are the same-axis variant that acceptance
criteria 3 and 4 hold to the oracle beside the model's; the model never
runs it.

A head is a dict of arrays, the one form of a QRA head everywhere: the
projections "wq", "wk" and "wv", each (d_model, d_attn), and the eight
KERNEL_NAMES kernels, weights (P, d_attn, W) with an odd width W and
biases (P,). It is a decoder layer's `dec.{l}.attn.*` weights sliced to
one head: columns h*d_attn .. (h+1)*d_attn of the projections and entry
h of each kernel. random_head draws one; qra_attention and
oracle.reference_qra read it.
"""

from __future__ import annotations

import math

import numpy as np

from . import autograd as ag
from . import numerics
from .autograd import Tensor
from .errors import DimensionMismatch, HeadDimNotQuaternion

TWO_PI = 2.0 * math.pi

# the frequency/phase kernels rotary_logits reads: weights (..., P, d, W)
# and biases (..., P) of the omega and theta convolutions of either side
KERNEL_NAMES = ("omega_q.w", "omega_q.b", "theta_q.w", "theta_q.b",
                "omega_k.w", "omega_k.b", "theta_k.w", "theta_k.b")
# a head's query, key and value projections, each (d_model, d_attn)
PROJECTIONS = ("wq", "wk", "wv")
# width of the frequency/phase convolutions over time in the model's heads
KERNEL_WIDTH = 3


def rotary_logits(q_all: Tensor, k: Tensor, kernels: dict, key_axis: str = "j",
                  keep: int | None = None, window: int | None = None) -> Tensor:
    """QRA logits (..., keep, M) of query rows over key rows, on the tape.

    q_all: (..., R, d) query rows, k: (..., M, d) key rows, with d
    divisible by 4; kernels maps KERNEL_NAMES to tensors whose leading
    axes broadcast against the rows' (one kernel per head), and the
    weights' period axis (..., P, d, W) sets the period count. q_all holds
    the last rows of a `window`-row query window (by default all of it),
    and only its last `keep` rows (by default all) get logits. The rows
    before them are a halo that the query convolution reads; query
    positions stay absolute within the window. Queries spin about axis i,
    keys about key_axis.
    """
    rows, dh = q_all.shape[-2:]
    keep = rows if keep is None else keep
    window = rows if window is None else window
    drop = rows - keep
    # the halo rows only feed the query convolution
    q = q_all[..., drop:, :] if drop else q_all
    m = k.shape[-2]
    periods = kernels["omega_q.w"].shape[-3]
    pos_q = TWO_PI * np.arange(window - keep, window, dtype=np.float64) / window
    pos_k = TWO_PI * np.arange(m, dtype=np.float64) / m
    ang_q = ag.qra_angles(q_all, kernels["omega_q.w"], kernels["omega_q.b"],
                          kernels["theta_q.w"], kernels["theta_q.b"], pos_q, drop)
    ang_k = ag.qra_angles(k, kernels["omega_k.w"], kernels["omega_k.b"],
                          kernels["theta_k.w"], kernels["theta_k.b"], pos_k)
    # a size-1 period axis on the slots: one rotation per period angle
    q_slots = ag.reshape(q, q.shape[:-1] + (1, dh // 4, 4))
    phi = ag.quat_rotate(q_slots, ang_q, "i")    # (..., keep, periods, d/4, 4)
    # the keys' spins fold into the scores, so the keys stay unspun
    k_slots = ag.reshape(k, k.shape[:-1] + (dh // 4, 4))
    total = ag.rotated_scores(phi, k_slots, ang_k, key_axis)
    return ag.mul(total, 1.0 / (periods * math.sqrt(dh)))


def random_head(rng: np.random.Generator, d_model: int, d_attn: int, periods: int,
                scale: float = 0.5) -> dict:
    """A random head, drawn in the order wq, wk, wv, then KERNEL_NAMES."""
    head = {name: rng.standard_normal((d_model, d_attn)) / np.sqrt(d_model)
            for name in PROJECTIONS}
    for name in KERNEL_NAMES:
        shape = (periods, d_attn, KERNEL_WIDTH) if name.endswith(".w") else (periods,)
        head[name] = scale * rng.standard_normal(shape)
    return head


def _checked_head(head: dict, d_model: int) -> dict:
    """head's arrays as float64, once their shapes fit d_model-wide rows."""
    head = {name: np.asarray(head[name], dtype=np.float64) for name in PROJECTIONS + KERNEL_NAMES}
    if head["wq"].ndim != 2 or head["omega_q.w"].ndim != 3:
        raise DimensionMismatch("wq must be (d_model, d_attn), omega_q.w (periods, d_attn, width)")
    d_attn = head["wq"].shape[1]
    periods, _, width = head["omega_q.w"].shape
    if d_attn % 4 != 0:
        raise HeadDimNotQuaternion(f"d_attn={d_attn} is not divisible by 4")
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    if width % 2 == 0:
        raise DimensionMismatch(f"kernel width must be odd, got {width}")
    for name, a in head.items():
        want = ((d_model, d_attn) if name in PROJECTIONS
                else (periods, d_attn, width) if name.endswith(".w") else (periods,))
        if a.shape != want:
            raise DimensionMismatch(f"{name} has shape {a.shape}, expected {want}")
    if not all(np.isfinite(head[name]).all() for name in KERNEL_NAMES):
        raise ValueError("QRA kernels must be finite")
    return head


def qra_attention(x, y, head: dict, key_axis: str = "j") -> np.ndarray:
    """Single-head quaternion rotary attention from x (N rows) onto y (M rows).

    head maps PROJECTIONS and KERNEL_NAMES to arrays; see the module
    docstring. Queries rotate about axis i, keys about key_axis (j, as in
    the model, unless the same-axis variant is requested). Runs
    rotary_logits off the tape.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"x {x.shape} and y {y.shape} must be rows of one width")
    head = _checked_head(head, x.shape[1])
    logits = rotary_logits(Tensor(x @ head["wq"]), Tensor(y @ head["wk"]), head, key_axis)
    return numerics.softmax_rows(logits.data) @ (y @ head["wv"])
