"""Tour of the quaternion primitives: products, rotations, norms.

A quaternion e + f*i + g*j + h*k is a float64 array (e, f, g, h).

Run: python3 demos/quaternion_playground.py
"""

import numpy as np

from quatmotion import quaternion as quat


def main():
    print("basis products")
    names = {"1": quat.ONE, "i": quat.UNIT_I, "j": quat.UNIT_J, "k": quat.UNIT_K}
    for a in "ijk":
        row = []
        for b in "ijk":
            p = quat.hamilton(names[a], names[b])
            row.append(f"{a}*{b} = {p}")
        print("  " + "   ".join(row))

    print("\nnon-commutativity")
    q = np.array([1.0, 2.0, 3.0, 4.0])
    r = np.array([5.0, 6.0, 7.0, 8.0])
    print(f"  q*r = {quat.hamilton(q, r)}")
    print(f"  r*q = {quat.hamilton(r, q)}")

    print("\nnorms multiply")
    print(f"  |q| |r|   = {quat.q_norm(q) * quat.q_norm(r):.12f}")
    print(f"  |q  *  r| = {quat.q_norm(quat.hamilton(q, r)):.12f}")

    # a unit quaternion exp(u * t) turns 3-vectors by 2t about u
    print("\nrotating (1, 0, 0) about the k axis")
    for degrees in (0, 30, 60, 90):
        half = np.deg2rad(degrees) / 2.0
        rot = quat.quat_to_rotmat(quat.unit_exp("k", half))
        x, y, z = rot @ np.array([1.0, 0.0, 0.0])
        print(f"  {degrees:3d} deg -> ({x: .4f}, {y: .4f}, {z: .4f})")

    print("\nround trip through a rotation matrix")
    rng = np.random.default_rng(0)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    back = quat.rotmat_to_quat(quat.quat_to_rotmat(v))
    print(f"  q    = {v}")
    print(f"  back = {back}  (sign may flip; same rotation)")


if __name__ == "__main__":
    main()
