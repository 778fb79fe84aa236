"""Why rotary position embedding encodes relative offsets.

Spins each (even, odd) coordinate pair of a vector by an angle
proportional to its sequence position, with the kernel the model's
encoder runs (autograd.rope_apply over spe.angle_tables). Dot products
between spun queries and keys then depend only on the position
difference, which this script checks by sliding both sequences along
the timeline, and compares the kernel with oracle.rope, the same spin
written as complex multiplication.

Run: python3 demos/rotary_positions.py
"""

import numpy as np

from quatmotion import oracle, spe
from quatmotion.autograd import Tensor, rope_apply


def spin(rows, offset=0.0):
    """Rows (T, dim) spun at positions offset, offset + 1, ..., as the model does."""
    steps, dim = rows.shape
    return rope_apply(Tensor(rows), *spe.angle_tables(steps, dim, offset=offset)).data


def main():
    print(f"per-pair base angles (dim 8): {np.round(spe.theta_schedule(8), 6)}")

    rng = np.random.default_rng(3)
    v = rng.standard_normal(8)
    print("\none vector spun at increasing positions (norm never changes)")
    for pos in (0, 1, 4, 16):
        spun = spin(v[None], pos)[0]
        print(f"  pos {pos:2d}: first pair ({spun[0]: .4f}, {spun[1]: .4f})"
              f"  |v| = {np.linalg.norm(spun):.12f}")

    q = rng.standard_normal((5, 8))
    k = rng.standard_normal((7, 8))
    base = spin(q) @ spin(k).T
    print("\nlogit table, queries 0..4 vs keys 0..6")
    print(np.array_str(base, precision=3, suppress_small=True))

    print("\nslide everything by a shared offset; the table must not move")
    for delta in (3.0, 100.0, 1000.0):
        moved = spin(q, delta) @ spin(k, delta).T
        print(f"  offset {delta:6.0f}: max change {np.abs(moved - base).max():.3e}")

    print("\nmodel's table route vs the oracle's complex-number route")
    worst = 0.0
    for pos in (0.5, 3.0, 250.0):
        worst = max(worst, np.abs(spin(v[None], pos)
                                  - oracle.rope(v[None], [pos])).max())
    print(f"  worst disagreement {worst:.3e}")


if __name__ == "__main__":
    main()
