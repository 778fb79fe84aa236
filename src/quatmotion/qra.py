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
model's decoder calls it with all heads at once, and qra_attention runs
it on untracked single-head tensors. quatmotion.oracle re-derives the
whole pipeline in scalar loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import numerics
from .autograd import Tensor
from .errors import DimensionMismatch, HeadDimNotQuaternion
from .numerics import ConvKernel

TWO_PI = 2.0 * math.pi

# the frequency/phase kernels rotary_logits reads: weights (..., P, d, W)
# and biases (..., P) of the omega and theta convolutions of either side
KERNEL_NAMES = ("omega_q.w", "omega_q.b", "theta_q.w", "theta_q.b",
                "omega_k.w", "omega_k.b", "theta_k.w", "theta_k.b")


@dataclass
class QRAParams:
    """Projections and freq/phase kernels of one attention head."""

    d_model: int
    d_attn: int
    periods: int
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    omega_q: ConvKernel
    theta_q: ConvKernel
    omega_k: ConvKernel
    theta_k: ConvKernel

    def __post_init__(self):
        if self.d_attn % 4 != 0:
            raise HeadDimNotQuaternion(f"d_attn={self.d_attn} is not divisible by 4")
        if self.periods < 1:
            raise ValueError(f"periods must be >= 1, got {self.periods}")
        for name in ("w_q", "w_k", "w_v"):
            w = np.asarray(getattr(self, name), dtype=np.float64)
            if w.shape != (self.d_model, self.d_attn):
                raise DimensionMismatch(
                    f"{name} has shape {w.shape}, expected {(self.d_model, self.d_attn)}")
            setattr(self, name, w)
        for name in ("omega_q", "theta_q", "omega_k", "theta_k"):
            kern = getattr(self, name)
            if kern.in_channels != self.d_attn or kern.out_channels != self.periods:
                raise DimensionMismatch(
                    f"{name} maps {kern.in_channels}->{kern.out_channels}, "
                    f"expected {self.d_attn}->{self.periods}")

    @staticmethod
    def random(rng: np.random.Generator, d_model: int, d_attn: int, periods: int,
               width: int = 3, scale: float = 0.5) -> "QRAParams":
        def kern():
            return ConvKernel(
                weights=scale * rng.standard_normal((periods, d_attn, width)),
                bias=scale * rng.standard_normal(periods))

        return QRAParams(
            d_model=d_model, d_attn=d_attn, periods=periods,
            w_q=rng.standard_normal((d_model, d_attn)) / np.sqrt(d_model),
            w_k=rng.standard_normal((d_model, d_attn)) / np.sqrt(d_model),
            w_v=rng.standard_normal((d_model, d_attn)) / np.sqrt(d_model),
            omega_q=kern(), theta_q=kern(), omega_k=kern(), theta_k=kern())

    def kernels(self) -> dict:
        """The kernel arrays, under the names rotary_logits reads."""
        out = {}
        for name in ("omega_q", "theta_q", "omega_k", "theta_k"):
            out[name + ".w"] = getattr(self, name).weights
            out[name + ".b"] = getattr(self, name).bias
        return out


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


def qra_attention(x, y, params: QRAParams, key_axis: str = "j") -> np.ndarray:
    """Single-head quaternion rotary attention from x (N rows) onto y (M rows).

    Queries rotate about axis i, keys about key_axis (j unless the
    same-axis variant is requested). Runs rotary_logits off the tape.
    """
    q = numerics.matmul(x, params.w_q)
    k = numerics.matmul(y, params.w_k)
    v = numerics.matmul(y, params.w_v)
    logits = rotary_logits(Tensor(q), Tensor(k), params.kernels(), key_axis)
    return numerics.matmul(numerics.softmax_rows(logits.data), v)
