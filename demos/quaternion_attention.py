"""Quaternion rotary attention, step by step.

Features are grouped into 4-slot quaternions; learned per-period
frequencies and phases spin queries about axis i and keys about axis j,
and the similarity is the averaged real part of their Hamilton products.
With one period and silent kernels the whole mechanism collapses to
ordinary softmax attention, which this script demonstrates numerically.

Run: python3 demos/quaternion_attention.py
"""

import math

import numpy as np

from quatmotion import numerics as num
from quatmotion import qra, quaternion
from quatmotion.autograd import Tensor


def main():
    rng = np.random.default_rng(11)
    d_model, d_attn, periods = 6, 8, 3
    x = rng.standard_normal((5, d_model))   # queries come from here
    y = rng.standard_normal((7, d_model))   # keys and values from here

    # one head: the wq, wk, wv projections and the omega/theta kernels
    head = qra.random_head(rng, d_model, d_attn, periods)
    q = x @ head["wq"]
    omega = num.relu(num.conv1d_im2col(q, head["omega_q.w"], head["omega_q.b"]))
    theta = num.pi_tanh(num.conv1d_im2col(q, head["theta_q.w"], head["theta_q.b"]))
    print(f"latent frequencies (step x period), all >= 0:\n{np.round(omega, 3)}")
    print(f"latent phases, all inside (-pi, pi):\n{np.round(theta, 3)}")

    steps = q.shape[0]
    angles = 2.0 * math.pi * omega * (np.arange(steps) / steps)[:, None] + theta
    print(f"\nrotation angles of period 0 by step: {np.round(angles[:, 0], 3)}")

    # the rotation kernel spins a slot exactly as the Hamilton product does
    slot, angle = q[1, :4], angles[1, 0]
    spun = quaternion.slot_rotate(slot, math.cos(angle), math.sin(angle), "i")
    direct = quaternion.hamilton(slot, quaternion.unit_exp("i", angle))
    print(f"slot 0 of step 1 spun by kernel vs Hamilton product: "
          f"max gap {np.abs(spun - direct).max():.3e}")

    k = y @ head["wk"]
    logits = qra.rotary_logits(Tensor(q), Tensor(k), head).data
    print(f"\nrotary logits (queries x keys):\n{np.round(logits, 3)}")

    out = qra.qra_attention(x, y, head)
    print(f"\nattention output shape {out.shape}, first row:\n{np.round(out[0], 4)}")

    # silence the kernels, keep one period: plain attention must reappear
    quiet = {name: np.zeros((1, d_attn, 3) if name.endswith(".w") else 1)
             for name in qra.KERNEL_NAMES}
    got = qra.qra_attention(x, y, {**head, **quiet})

    logits = (x @ head["wq"]) @ (y @ head["wk"]).T / math.sqrt(d_attn)
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    want = weights @ (y @ head["wv"])
    print(f"\ndegenerate case vs canonical attention: "
          f"max gap {np.abs(got - want).max():.3e}")


if __name__ == "__main__":
    main()
