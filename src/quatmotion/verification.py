"""Executable invariant suites behind the `verify` command.

Each suite re-checks the properties its module promises, printing one
line per check with the measured error against its tolerance. Checks
resolve functions through module attributes (quaternion.hamilton, not a
local alias), so an injected defect in a primitive is caught by the
suite that owns the broken property.

Public suites: algebra, spe, qra, grad, metrics. Four internal groups
(numerics, model, training, features) run only under `all`; they cover
the remaining module invariants. Reference computations come from
quatmotion.oracle, which shares no code with the package. Each group's check count is itself
asserted, keeping the enumerated checklist in the docs honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import features as feat
from . import metrics as met
from . import model as mod
from . import numerics as num
from . import oracle
from . import qra
from . import quaternion as quat
from . import spe
from . import training as trn
from .autograd import Tensor
from . import autograd as ag
from .errors import DimensionMismatch, MetaMismatch, NonFiniteGradient

PUBLIC_SUITES = ("algebra", "spe", "qra", "grad", "metrics")
INTERNAL_GROUPS = ("numerics", "model", "training", "features")

EXPECTED_COUNTS = {
    "algebra": 8, "spe": 5, "qra": 8, "grad": 28, "metrics": 11,
    "numerics": 9, "model": 8, "training": 9, "features": 9,
}


@dataclass
class Check:
    name: str
    passed: bool
    measured: float
    tolerance: float


def _check(name: str, measured: float, tol: float) -> Check:
    measured = float(measured)
    return Check(name=name, passed=measured <= tol, measured=measured, tolerance=tol)


def _flag(name: str, ok: bool) -> Check:
    return Check(name=name, passed=bool(ok), measured=0.0 if ok else 1.0, tolerance=0.0)


# ---------------------------------------------------------------- algebra

_BASIS = {"1": quat.ONE, "i": quat.UNIT_I, "j": quat.UNIT_J, "k": quat.UNIT_K}
# a * b = sign * c for the imaginary units
_UNIT_PRODUCTS = (
    ("i", "i", -1, "1"), ("j", "j", -1, "1"), ("k", "k", -1, "1"),
    ("i", "j", 1, "k"), ("j", "i", -1, "k"),
    ("j", "k", 1, "i"), ("k", "j", -1, "i"),
    ("k", "i", 1, "j"), ("i", "k", -1, "j"),
)


def algebra_checks() -> list:
    """The Hamilton product's laws, each on stacked quaternion arrays in one call."""
    rng = np.random.default_rng(11)
    checks = []

    left = np.array([_BASIS[a] for a, _, _, _ in _UNIT_PRODUCTS])
    right = np.array([_BASIS[b] for _, b, _, _ in _UNIT_PRODUCTS])
    want = np.array([sign * _BASIS[c] for _, _, sign, c in _UNIT_PRODUCTS])
    checks.append(_check("algebra/basis_table",
                         np.abs(quat.hamilton(left, right) - want).max(), 0.0))

    q = rng.standard_normal((10, 4))
    worst = max(np.abs(quat.hamilton(quat.ONE, q) - q).max(),
                np.abs(quat.hamilton(q, quat.ONE) - q).max())
    checks.append(_check("algebra/identity", worst, 0.0))

    a, b, c = rng.standard_normal((3, 50, 4))
    ab = quat.hamilton(a, b)
    checks.append(_check("algebra/associativity",
                         np.abs(quat.hamilton(ab, c) - quat.hamilton(a, quat.hamilton(b, c))).max(),
                         1e-12))
    checks.append(_check("algebra/norm_multiplicative",
                         np.abs(quat.q_norm(ab) - quat.q_norm(a) * quat.q_norm(b)).max(), 1e-10))
    checks.append(_check("algebra/conjugate_antihomomorphism",
                         np.abs(quat.q_conj(ab)
                                - quat.hamilton(quat.q_conj(b), quat.q_conj(a))).max(), 1e-12))
    checks.append(_check("algebra/real_part_dot_identity",
                         np.abs(quat.hamilton(a, quat.q_conj(b))[:, 0]
                                - np.einsum("nc,nc->n", a, b)).max(), 1e-12))

    ij = quat.hamilton(quat.UNIT_I, quat.UNIT_J)
    ji = quat.hamilton(quat.UNIT_J, quat.UNIT_I)
    checks.append(_check("algebra/noncommutativity_witness",
                         np.abs(ij - quat.UNIT_K).max() + np.abs(ji + ij).max(), 0.0))

    reference = np.array([oracle.hamilton4(x, y) for x, y in zip(a, b)])
    checks.append(_check("algebra/matches_reference", np.abs(ab - reference).max(), 1e-12))
    return checks


# -------------------------------------------------------------------- spe

def _spun(rows, offset: float = 0.0) -> np.ndarray:
    """Rows (T, dim) spun at positions offset .. offset+T-1 by the model's kernel."""
    steps, dim = rows.shape
    return ag.rope_apply(Tensor(rows), *spe.angle_tables(steps, dim, offset=offset)).data


def spe_checks() -> list:
    rng = np.random.default_rng(12)
    checks = []

    worst = 0.0
    for n, m, d in ((3, 5, 8), (16, 16, 32), (7, 2, 16)):
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((m, d))
        base = _spun(q) @ _spun(k).T
        for delta in (0, 7, 1000):
            shifted = _spun(q, delta) @ _spun(k, delta).T
            worst = max(worst, float(np.abs(shifted - base).max()))
    checks.append(_check("spe/relative_shift_invariance", worst, 1e-10))

    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(16)
        pos = int(rng.integers(0, 500))
        worst = max(worst, abs(np.linalg.norm(_spun(x[None], pos)) - np.linalg.norm(x)))
    checks.append(_check("spe/isometry", worst, 1e-12))

    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal((1, 16))
        pos = int(rng.integers(0, 500))
        worst = max(worst, float(np.abs(_spun(x, pos)
                                        - oracle.rope(x, [pos], spe.DEFAULT_BASE)).max()))
    checks.append(_check("spe/formulation_agreement", worst, 1e-14))

    # zero angles: tables of cos 1 and sin 0 leave every row as it is
    q = rng.standard_normal((5, 8))
    k = rng.standard_normal((6, 8))
    still_q, still_k = (ag.rope_apply(Tensor(x), np.ones((len(x), 4)), np.zeros((len(x), 4))).data
                        for x in (q, k))
    checks.append(_check("spe/zero_angle_degeneracy",
                         float(np.abs(still_q @ still_k.T - q @ k.T).max()), 0.0))

    ladder = spe.theta_schedule(32)
    ok = bool(np.all(ladder > 0) and np.all(np.diff(ladder) < 0))
    checks.append(_flag("spe/schedule_positive_decreasing", ok))
    return checks


# -------------------------------------------------------------------- qra

def _canonical_attention(x, y, head: dict):
    q = x @ head["wq"]
    k = y @ head["wk"]
    v = y @ head["wv"]
    s = num.softmax_rows(q @ k.T / np.sqrt(q.shape[1]))
    return s @ v


def _logits(x, y, head: dict) -> np.ndarray:
    """QRA logits of x's queries over y's keys under one head, off the tape."""
    return qra.rotary_logits(Tensor(x @ head["wq"]), Tensor(y @ head["wk"]), head).data


def qra_checks() -> list:
    rng = np.random.default_rng(13)
    checks = []

    worst = 0.0
    for _ in range(25):
        p = qra.random_head(rng, 6, 8, 1, scale=0.0)    # zero kernels
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((5, 6))
        worst = max(worst, float(np.abs(qra.qra_attention(x, y, p)
                                        - _canonical_attention(x, y, p)).max()))
    checks.append(_check("qra/degeneracy_to_canonical", worst, 1e-10))

    p = qra.random_head(rng, 6, 8, 2)
    x = rng.standard_normal((4, 6))
    y = rng.standard_normal((5, 6))
    q = x @ p["wq"]
    s = num.softmax_rows(_logits(x, y, p))
    checks.append(_check("qra/attention_rows_sum_to_one",
                         float(np.abs(s.sum(axis=1) - 1.0).max()), 1e-12))

    # QRA's query rotation: each row's slots spun once per period angle
    angles = np.linspace(-9.0, 9.0, 8).reshape(4, 2)
    phi = ag.quat_rotate(Tensor(q.reshape(4, 1, 2, 4)), Tensor(angles), "i").data
    before = np.linalg.norm(q.reshape(4, 1, 2, 4), axis=-1)
    checks.append(_check("qra/rotation_isometry",
                         float(np.abs(np.linalg.norm(phi, axis=-1) - before).max()), 1e-12))

    worst = 0.0
    for trial in range(6):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        periods = int(rng.integers(1, 4))
        p3 = qra.random_head(rng, 5, 8, periods)
        xs = rng.standard_normal((n, 5))
        ys = rng.standard_normal((m, 5))
        worst = max(worst, float(np.abs(qra.qra_attention(xs, ys, p3)
                                        - oracle.reference_qra(xs, ys, p3)).max()))
    checks.append(_check("qra/brute_force_equivalence", worst, 1e-10))

    report = _qra_grad_report()
    checks.append(_check("qra/gradient_correctness", report.max_error, report.tol))

    p6 = qra.random_head(rng, 6, 8, 2)
    x6 = rng.standard_normal((6, 6))
    y6 = rng.standard_normal((7, 6))
    h = qra.qra_attention(x6, y6, p6)
    v = y6 @ p6["wv"]
    bound = np.linalg.norm(v, axis=1).max() + 1e-12
    checks.append(_check("qra/output_in_value_hull",
                         max(0.0, float(np.linalg.norm(h, axis=1).max() - bound)), 0.0))

    p1 = qra.random_head(rng, 6, 8, 1, scale=0.0)
    x1 = rng.standard_normal((4, 6))
    y1 = rng.standard_normal((5, 6))
    sim = _logits(x1, y1, p1)
    plain = (x1 @ p1["wq"]) @ (y1 @ p1["wk"]).T / np.sqrt(8)
    checks.append(_check("qra/similarity_matmul_identity",
                         float(np.abs(sim - plain).max()), 1e-12))

    # period 0 of p's kernels, once and repeated three times
    one = {name: p[name][:1] for name in qra.KERNEL_NAMES}
    reps = {name: np.concatenate([a] * 3) for name, a in one.items()}
    checks.append(_check("qra/period_duplication_invariance",
                         float(np.abs(_logits(x, y, {**p, **reps})
                                      - _logits(x, y, {**p, **one})).max()),
                         1e-12))
    return checks


# ------------------------------------------------------------------- grad

def _qra_grad_problem():
    """A one-head QRA loss build(*tensors) and its 11 parameter arrays.

    The loss reduces over its trailing axes only, so build also takes
    parameters with one leading probe axis and returns one loss per probe.
    """
    rng = np.random.default_rng(14)
    x = rng.standard_normal((4, 6))
    y = rng.standard_normal((5, 6))

    def build(wq, wk, wv, *kernels):
        q = ag.matmul(Tensor(x), wq)
        k = ag.matmul(Tensor(y), wk)
        v = ag.matmul(Tensor(y), wv)
        logits = qra.rotary_logits(q, k, dict(zip(qra.KERNEL_NAMES, kernels)))
        h = ag.matmul(ag.softmax_rows(logits), v)
        # trailing axes only: with a leading probe axis, one loss per probe
        return ag.mean_(ag.mul(h, h), axis=(-2, -1))

    params = [rng.standard_normal((6, 8)) / np.sqrt(6) for _ in range(3)]
    for _ in range(2):  # q-side then k-side kernels
        params += [0.4 * rng.standard_normal((2, 8, 3)), 0.4 * rng.standard_normal(2),
                   0.4 * rng.standard_normal((2, 8, 3)), 0.4 * rng.standard_normal(2)]
    return build, params


def _qra_grad_report() -> num.GradReport:
    build, params = _qra_grad_problem()
    return num.grad_check(ag.objective(build, batched=True), params, tol=1e-4)


def _sq_loss(build, ndim: int):
    """build's output squared and summed into a loss over its trailing axes.

    The first tensor build gets has ndim axes, or ndim + 1 when every
    tensor carries a leading probe axis; that axis is kept, so the loss
    also comes out one per probe, as grad_check's batched form needs.
    """
    def loss(*tensors):
        out = build(*tensors)
        return ag.sum_(ag.mul(out, out), axis=tuple(range(tensors[0].ndim - ndim, out.ndim)))
    return loss


def _after_probe(t: Tensor, ndim: int, ones: int = 1) -> Tensor:
    """t, or, when it carries a leading probe axis (more than ndim axes),
    t with `ones` size-1 axes after that axis, so that it broadcasts
    against an operand with that many more leading batch axes."""
    return t[(slice(None),) + (None,) * ones] if t.ndim > ndim else t


def _omega_bias_off_kink(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """omega biases (..., P) that keep relu(conv(z, w) + b) off its kink.

    Each channel's bias puts the kink in the middle of the widest gap
    between that channel's convolution outputs over the rows of z (H, T,
    C) with kernels w (H, P, C, W), so central differences never straddle
    it while some rows stay on either side of it when the gap is inside.
    """
    conv = num.conv1d_im2col(z, w, np.zeros(w.shape[:-2]))[0]    # (H, T, P)
    vals = np.sort(conv, axis=-2)
    widest = np.argmax(np.diff(vals, axis=-2), axis=-2)[..., None, :]
    lo = np.take_along_axis(vals, widest, axis=-2)
    hi = np.take_along_axis(vals, widest + 1, axis=-2)
    return -0.5 * (lo + hi)[..., 0, :]


def _grad_cases() -> list:
    """Every tape op's gradient cases, (name, build, params, tol) each.

    The one list of them: the grad suite, the autograd tests and
    acceptance criterion 5 all read it. Every build takes its params
    with or without a leading probe axis:
    axes count from the right, operands with fewer batch axes get size-1
    axes after the probe axis (_after_probe), and the loss reduces over
    the trailing axes only (_sq_loss).
    """
    rng = np.random.default_rng(15)
    cases = [("quadratic_closed_form", lambda t: t, [np.array([3.0])], 1e-9),
             ("constant_zero", lambda t: ag.mul(t, 0.0), [rng.standard_normal(4)], 1e-12)]

    def op_case(name, build, params):
        cases.append((name, build, params, 1e-4))

    a0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal((4, 2))
    op_case("matmul", ag.matmul, [a0, b0])

    a1 = rng.standard_normal((2, 3, 4))
    b1 = rng.standard_normal((4, 5))
    op_case("matmul_batched", lambda a, b: ag.matmul(a, _after_probe(b, 2)), [a1, b1])

    a2 = rng.standard_normal((3, 1))
    b2 = rng.standard_normal((1, 4))
    op_case("add_broadcast", ag.add, [a2, b2])
    op_case("mul_broadcast", ag.mul, [a2, b2])
    op_case("sub_neg", lambda a, b: ag.sub(ag.neg(a), b), [a2, b2])

    # keep relu inputs away from the kink; central differences straddle it
    off = rng.standard_normal((3, 5))
    off = np.sign(off) * (np.abs(off) + 0.1)
    op_case("relu", ag.relu, [off])
    rng.standard_normal((3, 5))  # skipped, so the cases below keep their draws
    sm_weights = rng.standard_normal((2, 5))  # fixed, so the loss is a function of x alone
    op_case("softmax_rows", lambda x: ag.mul(ag.softmax_rows(x), Tensor(sm_weights)),
            [rng.standard_normal((2, 5))])

    def conv(x, w, b):
        return ag.conv1d(x, _after_probe(w, 3), _after_probe(b, 1))

    xc = rng.standard_normal((2, 7, 3))
    wc = 0.5 * rng.standard_normal((2, 3, 3))
    bc = 0.5 * rng.standard_normal(2)
    op_case("conv1d", conv, [xc, wc, bc])

    def conv_headed(x, w, b):
        return ag.conv1d(x, _after_probe(w, 4), _after_probe(b, 2))

    xh = rng.standard_normal((2, 4, 6, 3))
    wh = 0.5 * rng.standard_normal((4, 2, 3, 5))
    bh = 0.5 * rng.standard_normal((4, 2))
    op_case("conv1d_headed", conv_headed, [xh, wh, bh])

    xl = rng.standard_normal((2, 3, 6))
    op_case("layer_norm",
            lambda x, g, b: ag.layer_norm(x, _after_probe(g, 1, 2), _after_probe(b, 1, 2)),
            [xl, 1.0 + 0.1 * rng.standard_normal(6), 0.1 * rng.standard_normal(6)])

    co, si = spe.angle_tables(5, 8)
    op_case("rope_apply", lambda x: ag.rope_apply(x, co, si), [rng.standard_normal((2, 5, 8))])

    xq = rng.standard_normal((2, 3, 2, 4))
    aq = rng.standard_normal((2, 3))
    # weight the rotated slots: a bare sum of squares is rotation-invariant,
    # which would zero out the angle gradient and test nothing
    qw = rng.standard_normal((2, 3, 2, 4))
    for axis in ("i", "j", "k"):
        op_case(f"quat_rotate_{axis}",
                lambda x, a, axis=axis: ag.mul(ag.quat_rotate(x, a, axis), Tensor(qw)),
                [xq, aq])

    xg = rng.standard_normal((4, 5))
    op_case("getitem_slice", lambda x: x[..., 1:3, ::2], [xg])

    def concat_reshape(a, b):
        joined = ag.concat([a, b], axis=-1)
        return ag.reshape(joined, joined.shape[:-2] + (12,))

    op_case("concat_reshape", concat_reshape,
            [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))])
    op_case("mean_axis", lambda x: ag.mean_(x, axis=-1, keepdims=True),
            [rng.standard_normal((3, 4))])

    # QRA's angle op on one head pair's rows (H, T, d), so a probe axis
    # lines up with the kernels' head axis; one halo row is dropped
    za = rng.standard_normal((2, 6, 4))
    wo = 0.5 * rng.standard_normal((2, 2, 4, 3))
    wt = 0.5 * rng.standard_normal((2, 2, 4, 3))
    bt = 0.5 * rng.standard_normal((2, 2))
    pos = 2.0 * math.pi * np.arange(1, 6) / 6
    op_case("qra_angles",
            lambda z, wo, bo, wt, bt: ag.qra_angles(z, wo, bo, wt, bt, pos, drop=1),
            [za, wo, _omega_bias_off_kink(za, wo), wt, bt])

    # weight the permuted entries: a bare sum of squares is blind to their order
    xr = rng.standard_normal((2, 3, 4))
    wr = rng.standard_normal((3, 8))

    def reshape_transpose(x):
        n = x.ndim - 3    # 1 with a probe axis, else 0
        swapped = ag.transpose(x, tuple(range(n)) + (n + 1, n, n + 2))
        return ag.mul(ag.reshape(swapped, swapped.shape[:n] + (3, 8)), Tensor(wr))

    op_case("reshape_transpose", reshape_transpose, [xr])
    op_case("matmul_4d_2d", lambda a, b: ag.matmul(a, _after_probe(b, 2, 2)),
            [rng.standard_normal((2, 2, 3, 4)), rng.standard_normal((4, 3))])

    def matmul_bias(a, b, c):
        if b.ndim == 2:
            return ag.matmul(a, b, c)
        # only a 2-D right operand takes a bias, so a probe stack adds it after
        return ag.add(ag.matmul(a, _after_probe(b, 2)), _after_probe(c, 1, 2))

    op_case("matmul_bias", matmul_bias,
            [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5)), rng.standard_normal(5)])
    # the decoder's shapes: B=2 batches of H=2 heads, O=2P=4 outputs
    op_case("conv1d_heads_2p", conv_headed,
            [rng.standard_normal((2, 2, 5, 3)), rng.standard_normal((2, 4, 3, 3)),
             rng.standard_normal((2, 4))])

    xp = rng.standard_normal((2, 3, 1, 2, 4))
    ap = rng.standard_normal((2, 3, 2))
    wp = rng.standard_normal((2, 3, 2, 2, 4))
    op_case("quat_rotate_periods", lambda x, a: ag.mul(ag.quat_rotate(x, a, "j"), Tensor(wp)),
            [xp, ap])

    # phi (..., Q, P, S, 4), keys (..., M, S, 4), angles (..., M, P)
    op_case("rotated_scores_i", lambda p, k, a: ag.rotated_scores(p, k, a, "i"),
            [rng.standard_normal((2, 1, 2, 4)), rng.standard_normal((3, 2, 4)),
             rng.standard_normal((3, 1))])
    # leading axes (2, 1), (1, 3) and (2, 1) broadcast to (2, 3)
    op_case("rotated_scores_j_broadcast", lambda p, k, a: ag.rotated_scores(p, k, a, "j"),
            [rng.standard_normal((2, 1, 2, 2, 2, 4)), rng.standard_normal((1, 3, 3, 2, 4)),
             rng.standard_normal((2, 1, 3, 2))])
    # the keys' leading axis (2,) broadcasts against phi and angles without one
    op_case("rotated_scores_k_broadcast",
            lambda p, k, a: ag.rotated_scores(_after_probe(p, 4), k, _after_probe(a, 2), "k"),
            [rng.standard_normal((3, 2, 1, 4)), rng.standard_normal((2, 4, 1, 4)),
             rng.standard_normal((4, 2))])

    return [(name, _sq_loss(build, params[0].ndim), params, tol)
            for name, build, params, tol in cases]


def grad_checks() -> list:
    """Every case, its probe stacks each run through one build call."""
    checks = []
    for name, build, params, tol in _grad_cases():
        r = num.grad_check(ag.objective(build, batched=True), params, tol=1e-4)
        checks.append(_check(f"grad/{name}", r.max_error, tol))
    return checks


# ---------------------------------------------------------------- metrics

def metrics_checks() -> list:
    rng = np.random.default_rng(16)
    checks = []

    a = met.FeatureSet(rng.standard_normal((12, 5)))
    b = met.FeatureSet(rng.standard_normal((10, 5)) + 0.5)
    checks.append(_check("metrics/fid_self_zero", met.fid(a, a), 1e-8))
    checks.append(_check("metrics/fid_symmetry", abs(met.fid(a, b) - met.fid(b, a)), 1e-8))

    base = rng.standard_normal(40)
    base -= base.mean()
    m = 1.75
    one_a = met.FeatureSet(base[:, None])
    one_b = met.FeatureSet((base + m)[:, None])
    checks.append(_check("metrics/fid_1d_equal_variance",
                         abs(met.fid(one_a, one_b) - m * m), 1e-8))

    shift = rng.standard_normal(5)
    shifted_both = abs(met.fid(met.FeatureSet(a.vectors + shift),
                               met.FeatureSet(b.vectors + shift)) - met.fid(a, b))
    v = np.array([0.3, -1.2, 0.7, 0.0, 2.0])
    equal_cov = abs(met.fid(a, met.FeatureSet(a.vectors + v)) - float(v @ v))
    checks.append(_check("metrics/fid_translation", max(shifted_both, equal_cov), 1e-8))

    s = met.FeatureSet(rng.standard_normal((9, 6)))
    qmat, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    rotated = met.FeatureSet(s.vectors @ qmat + rng.standard_normal(6))
    checks.append(_check("metrics/diversity_invariance",
                         abs(met.diversity(s) - met.diversity(rotated)), 1e-10))

    closed = (math.exp(-4.0 / 18.0) + math.exp(-9.0 / 18.0)) / 2.0
    got = met.beat_align(met.BeatTimeline([10, 50]), met.BeatTimeline([12, 47]))
    checks.append(_check("metrics/beat_align_hand_case", abs(got - closed), 1e-5))

    sub = met.beat_align(met.BeatTimeline([5, 20]), met.BeatTimeline([0, 5, 10, 20]))
    checks.append(_check("metrics/beat_align_perfect", abs(sub - 1.0), 0.0))

    scores = [met.beat_align(met.BeatTimeline([10 + d]), met.BeatTimeline([10]))
              for d in range(6, -1, -1)]  # closing distance must not hurt
    checks.append(_flag("metrics/beat_align_monotone",
                        all(b >= a for a, b in zip(scores, scores[1:]))))

    ramp = np.cumsum(np.array([0.0, 3.0, 1.0, 2.0]))[:, None] * np.ones((1, 2))
    hits = met.motion_beats(ramp).frames
    ok_min = list(hits) == [1]
    plateau = np.cumsum(np.array([0.0, 3.0, 1.0, 1.0, 2.0]))[:, None] * np.ones((1, 2))
    ok_plateau = list(met.motion_beats(plateau).frames) == []
    checks.append(_flag("metrics/motion_beats_strictness", ok_min and ok_plateau))

    audio = np.zeros((4, feat.AUDIO_DIMS))
    audio[1, feat.BEAT_CHANNEL] = 0.5
    audio[2, feat.BEAT_CHANNEL] = 0.51
    checks.append(_flag("metrics/music_beats_threshold",
                        list(met.music_beats(audio).frames) == [2]))

    audio, motion = feat.synth_pair(7, 2.0, beat_period_frames=20)
    mb = met.motion_beats(motion)
    music = met.music_beats(audio)
    interior = [t for t in music.frames if 1 <= t <= motion.shape[0] - 3]
    exact = list(mb.frames) == interior
    align = met.beat_align(mb, music)
    checks.append(_flag("metrics/generator_contract", exact and abs(align - 1.0) <= 1e-9))
    return checks


# --------------------------------------------------------------- numerics

def _softmax_rows_sum(rng) -> Check:
    s = num.softmax_rows(rng.standard_normal((6, 9)))
    return _check("numerics/softmax_rows_sum", float(np.abs(s.sum(axis=1) - 1).max()), 1e-12)


def _softmax_shift_invariance(rng) -> Check:
    m = rng.standard_normal((6, 9))
    shifted = num.softmax_rows(m + rng.standard_normal((6, 1)))
    return _check("numerics/softmax_shift_invariance",
                  float(np.abs(shifted - num.softmax_rows(m)).max()), 1e-12)


def _softmax_closed_form(rng) -> Check:
    two = num.softmax_rows(np.array([[4.2, 4.2 + math.log(3.0)]]))
    return _check("numerics/softmax_closed_form",
                  float(np.abs(two - np.array([[0.25, 0.75]])).max()), 1e-12)


def _conv1d_linearity(rng) -> Check:
    w = rng.standard_normal((3, 2, 5))
    b = np.zeros(3)
    x1 = rng.standard_normal((9, 2))
    x2 = rng.standard_normal((9, 2))
    lin = num.conv1d_im2col(2.5 * x1 - 1.5 * x2, w, b)[0]
    combo = 2.5 * num.conv1d_im2col(x1, w, b)[0] - 1.5 * num.conv1d_im2col(x2, w, b)[0]
    return _check("numerics/conv1d_linearity", float(np.abs(lin - combo).max()), 1e-12)


def _conv1d_hand_case(rng) -> Check:
    slide = num.conv1d_im2col(np.array([[1.0], [2.0], [3.0]]),
                              np.array([[[1.0, 0.0, -1.0]]]), np.zeros(1))[0]
    return _check("numerics/conv1d_hand_case",
                  float(np.abs(slide - np.array([[-2.0], [-2.0], [2.0]])).max()), 0.0)


def _conv1d_identity_kernel(rng) -> Check:
    x = rng.standard_normal((9, 2))
    centre_tap = np.stack([np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
                           np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])])
    ident = num.conv1d_im2col(x, centre_tap, np.zeros(2))[0]
    return _check("numerics/conv1d_identity_kernel", float(np.abs(ident - x).max()), 0.0)


def _sym_sqrt_reconstruction(rng) -> Check:
    base = rng.standard_normal((6, 6))
    spd = base @ base.T + 0.5 * np.eye(6)
    root = num.sym_sqrt(spd)
    return _check("numerics/sym_sqrt_reconstruction",
                  float(np.abs(root @ root - spd).max()), 1e-8)


def _sym_sqrt_closed_form(rng) -> Check:
    diag = num.sym_sqrt(np.diag([4.0, 9.0]))
    return _check("numerics/sym_sqrt_closed_form",
                  float(np.abs(diag - np.diag([2.0, 3.0])).max()), 1e-12)


def _pi_tanh_strict_bound(rng) -> Check:
    val = float(num.pi_tanh(np.array(20.0)))
    return _flag("numerics/pi_tanh_strict_bound", 3.141592 < val < math.pi)


# Each check with the key k of its own generator, default_rng([17, k]),
# so adding, removing or moving a check leaves every other check's
# inputs as they were. A key stays with its check and is never reused.
_NUMERICS = (
    (0, _softmax_rows_sum), (1, _softmax_shift_invariance), (2, _softmax_closed_form),
    (3, _conv1d_linearity), (4, _conv1d_hand_case), (5, _conv1d_identity_kernel),
    (6, _sym_sqrt_reconstruction), (7, _sym_sqrt_closed_form), (8, _pi_tanh_strict_bound),
)


def numerics_checks() -> list:
    return [check(np.random.default_rng([17, key])) for key, check in _NUMERICS]


# ------------------------------------------------------------------ model

def _tiny_config(**kw) -> mod.ModelConfig:
    base = dict(d_model=8, heads=2, encoder_layers=1, decoder_layers=1, periods=2,
                seed_motion_frames=6, audio_frames=9, future_frames=2)
    base.update(kw)
    return mod.ModelConfig(**base)


def _embedded(frames, which: str, weights: dict, config: mod.ModelConfig) -> np.ndarray:
    """One (T, channels) stream through the model's embedding, off the tape."""
    return mod._embed(Tensor(frames[None]), which, mod._untracked(weights), config).data[0]


def _encoded(hidden, which: str, weights: dict, config: mod.ModelConfig) -> np.ndarray:
    """One (T, d_model) embedded stream through the model's encoder, off the tape."""
    return mod._encode(Tensor(hidden[None]), which, mod._untracked(weights), config).data[0]


def model_checks() -> list:
    rng = np.random.default_rng(18)
    checks = []

    config = _tiny_config()
    weights = mod.init_weights(config, np.random.default_rng(0))
    motion = rng.standard_normal((6, feat.MOTION_DIMS))
    audio = rng.standard_normal((9, feat.AUDIO_DIMS))

    one = mod.predict_future(weights, config, motion, audio)
    two = mod.predict_future(weights, config, motion, audio)
    checks.append(_check("model/forward_determinism", float(np.abs(one - two).max()), 0.0))

    desk = mod.ModelConfig()
    ok_shapes = one.shape == (2, feat.MOTION_DIMS)
    desk_w = mod.init_weights(desk, np.random.default_rng(1))
    dm = rng.standard_normal((desk.seed_motion_frames, feat.MOTION_DIMS))
    da = rng.standard_normal((desk.audio_frames, feat.AUDIO_DIMS))
    emb = _embedded(dm, "motion", desk_w, desk)
    enc = _encoded(emb, "motion", desk_w, desk)
    dec = mod.predict_future(desk_w, desk, dm, da)
    ok_shapes = (ok_shapes and emb.shape == (30, 64) and enc.shape == (30, 64)
                 and dec.shape == (5, feat.MOTION_DIMS))
    checks.append(_flag("model/desk_shape_contract", ok_shapes))

    full = mod.ModelConfig(d_model=800, heads=16, encoder_layers=1, decoder_layers=1,
                           seed_motion_frames=120, audio_frames=240, future_frames=20,
                           use_qra=False)
    full_w = mod.init_weights(full, np.random.default_rng(2))
    pm = rng.standard_normal((120, feat.MOTION_DIMS))
    pa = rng.standard_normal((240, feat.AUDIO_DIMS))
    p_emb = _embedded(pa, "audio", full_w, full)
    p_out = mod.predict_future(full_w, full, pm, pa)
    checks.append(_flag("model/full_scale_shape_contract",
                        p_emb.shape == (240, 800) and p_out.shape == (20, feat.MOTION_DIMS)))

    plain = _tiny_config(use_spe=False, use_qra=False)
    plain_w = mod.init_weights(plain, np.random.default_rng(3))
    got = mod.predict_future(plain_w, plain, motion, audio)
    ref = oracle.reference_forward(plain_w, plain, motion, audio)
    checks.append(_check("model/ablation_matches_reference", float(np.abs(got - ref).max()), 1e-10))

    zero_depth = _tiny_config(encoder_layers=0)
    zd_w = mod.init_weights(zero_depth, np.random.default_rng(4))
    hidden = rng.standard_normal((6, 8))
    checks.append(_check("model/zero_depth_encoder_identity",
                         float(np.abs(_encoded(hidden, "motion", zd_w, zero_depth) - hidden).max()),
                         0.0))

    spe_on = _encoded(_embedded(motion, "motion", weights, config), "motion", weights, config)
    config_off = _tiny_config(use_spe=False)
    spe_off = _encoded(_embedded(motion, "motion", weights, config_off), "motion",
                       weights, config_off)
    checks.append(_flag("model/spe_toggle_changes_encoding",
                        float(np.abs(spe_on - spe_off).max()) > 1e-8))

    # a rollout long enough to encode its music in a forked worker where
    # the process allows one; frame s must be what predict_future makes of
    # the window rebuilt from the seed and frames 0 .. s-1
    steps = max(12, mod._FORK_MIN_STEPS)
    gen0 = mod.autoregressive_generate(motion, audio, 0, weights, config)
    gen1 = mod.autoregressive_generate(motion, audio, 1, weights, config)
    long_audio = rng.standard_normal((config.audio_frames + steps - 1, feat.AUDIO_DIMS))
    gen_long = mod.autoregressive_generate(motion, long_audio, steps, weights, config)
    worst = math.inf
    if (gen0.shape == (0, feat.MOTION_DIMS) and gen1.shape == (1, feat.MOTION_DIMS)
            and gen_long.shape == (steps, feat.MOTION_DIMS)):
        frames = np.vstack([motion, gen_long])
        replay = [mod.predict_future(weights, config, frames[s:s + config.seed_motion_frames],
                                     long_audio[s:s + config.audio_frames])[0]
                  for s in range(steps)]
        first = mod.predict_future(weights, config, motion, audio[:config.audio_frames])[0]
        worst = max(float(np.abs(gen1[0] - first).max()),
                    float(np.abs(gen_long - np.array(replay)).max()))
    checks.append(_check("model/autoregressive_keep_first", worst, 0.0))

    report = _model_grad_report()
    checks.append(_check("model/end_to_end_gradients", report.max_error, report.tol))
    return checks


def _model_grad_report(probes: int = 2) -> num.GradReport:
    """Central-difference check through the full desk model.

    Every named tensor is probed at a seeded subset of coordinates; the
    analytic gradient comes from one tape backward pass, and the model,
    which takes no probe axis, runs one forward off the tape per probe.
    """
    rng = np.random.default_rng(19)
    config = mod.ModelConfig()
    weights = mod.init_weights(config, np.random.default_rng(5))
    names = sorted(weights)
    motion = rng.standard_normal((1, config.seed_motion_frames, feat.MOTION_DIMS))
    audio = rng.standard_normal((1, config.audio_frames, feat.AUDIO_DIMS))
    target = rng.standard_normal((1, config.future_frames, feat.MOTION_DIMS))

    def build(*tensors):
        return trn.l2_loss(mod.forward(dict(zip(names, tensors)), config, motion, audio),
                           target)

    return num.grad_check(ag.objective(build), [weights[n].data for n in names], tol=1e-4,
                          names=names, max_probes_per_param=probes)


# --------------------------------------------------------------- training

def training_checks() -> list:
    rng = np.random.default_rng(20)
    checks = []

    full = trn.TrainConfig.full_scale()
    ok = (trn.lr_at(0, full) == 1e-4 and trn.lr_at(89999, full) == 1e-4
          and trn.lr_at(90000, full) == 1e-5 and trn.lr_at(149999, full) == 1e-5
          and trn.lr_at(150000, full) == 1e-6 and trn.lr_at(10 ** 7, full) == 1e-6)
    checks.append(_flag("training/lr_schedule_hand_values", ok))

    rates = [trn.lr_at(s, trn.TrainConfig()) for s in range(0, 6000, 7)]
    checks.append(_flag("training/lr_non_increasing",
                        all(b <= a for a, b in zip(rates, rates[1:]))))

    w = {"x": Tensor(np.array([0.0]), requires_grad=True)}
    state = trn.init_adam(w)
    trn.adam_step(w, {"x": np.array([1.0])}, state, 0.1, trn.TrainConfig())
    delta = float(w["x"].data[0])
    checks.append(_check("training/adam_first_step", abs(delta + 0.1), 1e-8))

    w = {"x": Tensor(np.array([2.0, -1.0]), requires_grad=True)}
    state = trn.init_adam(w)
    state.m["x"][:] = 0.5
    state.v["x"][:] = 0.25
    before = w["x"].data.copy()
    cfg = trn.TrainConfig()
    trn.adam_step(w, {"x": np.zeros(2)}, state, 0.0, cfg)
    ok = (float(np.abs(w["x"].data - before).max()) == 0.0
          and float(state.m["x"][0]) == 0.5 * cfg.beta1
          and float(state.v["x"][0]) == 0.25 * cfg.beta2)
    checks.append(_flag("training/adam_zero_grad_decay", ok))

    w["x"].grad = np.array([np.nan, 1.0])
    try:
        trn._check(0, 1.0, ["x"], trn._reduce(w, ["x"])[1])
        ok = False
    except NonFiniteGradient:
        ok = True
    checks.append(_flag("training/non_finite_gradient_guard", ok))

    same = np.ones((3, 2))
    ok = (trn.l2_loss(same, same) == 0.0
          and trn.l2_loss(same + 2.0, same) == 4.0
          and trn.l2_loss(np.array([[3.0]]), np.array([[1.0]])) == 4.0)
    checks.append(_flag("training/l2_hand_values", ok))

    w = {"x": Tensor(rng.standard_normal(4), requires_grad=True)}
    state = trn.init_adam(w)
    before = w["x"].data.copy()
    for _ in range(3):
        trn.adam_step(w, {"x": rng.standard_normal(4)}, state, 0.0, cfg)
    checks.append(_check("training/zero_lr_freeze", float(np.abs(w["x"].data - before).max()), 0.0))

    config = _tiny_config()
    audio, motion = feat.synth_pair(3, 0.4, beat_period_frames=5)
    data = [(audio, motion)]
    tc = trn.TrainConfig(batch_size=2, total_steps=5, decay_steps=((3, 1e-5), (5, 1e-6)))
    w1 = mod.init_weights(config, np.random.default_rng(6))
    t1 = trn.train(w1, data, tc, config)
    w2 = mod.init_weights(config, np.random.default_rng(6))
    t2 = trn.train(w2, data, tc, config)
    same_trace = t1 == t2
    same_weights = all(np.array_equal(w1[n].data, w2[n].data) for n in w1)
    checks.append(_flag("training/determinism", same_trace and same_weights))

    checks.append(_flag("training/single_example_overfit", _overfit_reaches(1e-3)))
    return checks


def _overfit_reaches(threshold: float, steps: int = 2000) -> bool:
    """One synthetic window, desk model: loss must sink below threshold
    within `steps`; training stops at the first step that does."""
    config = mod.ModelConfig()
    audio, motion = feat.synth_pair(9, (trn.window_span(config) + 1) / config.fps,
                                    beat_period_frames=12)
    weights = mod.init_weights(config, np.random.default_rng(7))
    span = trn.window_span(config)
    data = [(audio[:span], motion[:span])]
    tc = trn.TrainConfig(batch_size=1, total_steps=steps,
                         decay_steps=((10 ** 6, 1e-5), (2 * 10 ** 6, 1e-6)))
    return any(loss < threshold for _, _, loss in trn.train_steps(weights, data, tc, config))


# --------------------------------------------------------------- features

def features_checks() -> list:
    import os
    import tempfile

    rng = np.random.default_rng(21)
    checks = []

    checks.append(_flag("features/channel_layout",
                        feat.AUDIO_DIMS == 35 and feat.MOTION_DIMS == 219
                        and feat.BEAT_CHANNEL == 34 and feat.PEAK_CHANNEL == 33
                        and feat.MFCC_CHANNELS == slice(1, 21)
                        and feat.CHROMA_CHANNELS == slice(21, 33)
                        and len(feat.JOINT_NAMES) == 24))

    audio, motion = feat.synth_pair(5, 2.0, beat_period_frames=30)
    beat = audio[:, feat.BEAT_CHANNEL]
    ok = (set(np.unique(beat)) <= {0.0, 1.0}
          and list(np.where(beat == 1.0)[0]) == [0, 30, 60, 90])
    checks.append(_flag("features/synth_beat_channel", ok))

    mb = met.motion_beats(motion)
    music = met.music_beats(audio)
    interior = [t for t in music.frames if 1 <= t <= motion.shape[0] - 3]
    checks.append(_flag("features/generator_beat_lock",
                        list(mb.frames) == interior
                        and abs(met.beat_align(mb, music) - 1.0) <= 1e-9))

    a2, m2 = feat.synth_pair(5, 2.0, beat_period_frames=30)
    checks.append(_flag("features/synth_determinism",
                        np.array_equal(audio, a2) and np.array_equal(motion, m2)))

    quats = rng.standard_normal((feat.JOINT_COUNT, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    quats[quats[:, 0] < 0] *= -1.0
    trans = rng.standard_normal(3)
    back_q, back_t = feat.decode_motion_frame(feat.encode_motion_frame(quats, trans))
    # quaternion double cover: each joint may come back negated
    worst = np.minimum(np.abs(back_q - quats).max(axis=1),
                       np.abs(back_q + quats).max(axis=1)).max()
    checks.append(_check("features/encode_decode_round_trip",
                         max(worst, float(np.abs(back_t - trans).max())), 1e-9))

    block = quat.quat_to_rotmat(quats[0]) + rng.uniform(-1e-2, 1e-2, (3, 3))
    proj = feat.nearest_rotation(block)
    checks.append(_check("features/polar_projection",
                         float(np.abs(proj.T @ proj - np.eye(3)).max()), 1e-9))

    try:
        feat.decode_motion_frame(np.zeros(218))
        ok = False
    except DimensionMismatch:
        ok = True
    checks.append(_flag("features/frame_length_guard", ok))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "audio.csv")
        meta = feat.StreamMeta(kind="audio", fps=60, frames=audio.shape[0], dims=35)
        feat.save_stream(path, audio, meta)
        from_twin, meta2 = feat.load_stream(path)
        os.remove(path + feat.PAYLOAD_SUFFIX)
        parsed, meta3 = feat.load_stream(path)  # no twin: the CSV is parsed
        checks.append(_flag("features/file_round_trip",
                            np.array_equal(from_twin.view(np.int64), audio.view(np.int64))
                            and np.array_equal(parsed.view(np.int64), audio.view(np.int64))
                            and meta2 == meta3 == meta))

        try:
            feat.StreamMeta(kind="audio", fps=60, frames=3, dims=219)
            ok = False
        except MetaMismatch:
            ok = True
        checks.append(_flag("features/meta_kind_guard", ok))
    return checks


_GROUPS = {
    "algebra": algebra_checks,
    "spe": spe_checks,
    "qra": qra_checks,
    "grad": grad_checks,
    "metrics": metrics_checks,
    "numerics": numerics_checks,
    "model": model_checks,
    "training": training_checks,
    "features": features_checks,
}


def run(suite: str = "all") -> list:
    """Run one public suite, or every group for 'all'."""
    if suite == "all":
        groups = PUBLIC_SUITES + INTERNAL_GROUPS
    elif suite in PUBLIC_SUITES:
        groups = (suite,)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    checks = []
    for group in groups:
        found = _GROUPS[group]()
        found.append(_check(f"{group}/check_count",
                            abs(len(found) - EXPECTED_COUNTS[group]), 0.0))
        checks.extend(found)
    return checks


def render(checks) -> str:
    lines = []
    for c in checks:
        mark = "pass" if c.passed else "FAIL"
        lines.append(f"[{mark}] {c.name}  measured={c.measured:.3e}  tol={c.tolerance:.3e}")
    good = sum(1 for c in checks if c.passed)
    lines.append(f"{good}/{len(checks)} checks passed")
    return "\n".join(lines)


def all_passed(checks) -> bool:
    return all(c.passed for c in checks)
