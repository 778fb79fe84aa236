"""Tape autodiff: every op's gradient against central differences,
plus tape mechanics (accumulation, scatter, broadcast reduction).

Weighting constants for the losses are sampled once at import. Sampling
them inside the closures would make grad_check probe a different
function at every evaluation; worse, an unweighted sum of squares is
exactly invariant under the rotation ops, so their angle gradients
would be checked against pure roundoff.
"""

import numpy as np
import pytest

from quatmotion import autograd as ag
from quatmotion import numerics as num
from quatmotion import features, model, quaternion, spe, training, verification

_R = np.random.default_rng(7)


def _shifted(x, margin=0.2):
    # keep relu inputs away from the kink so +-h stays on one side
    return x + np.sign(x) * margin


W34 = _R.standard_normal((3, 4))
W23 = _R.standard_normal((2, 3))
W235 = _R.standard_normal((2, 3, 5))
W38 = _R.standard_normal((3, 8))
W63 = _R.standard_normal((6, 3))
W32 = _R.standard_normal((3, 2))
W24 = _R.standard_normal((2, 4))
W253 = _R.standard_normal((2, 5, 3))
WLN = _R.standard_normal((3, 4))
WRP = _R.standard_normal((2, 4, 6))
WQR = _R.standard_normal((3, 2, 4))
# the decoder's shapes: B=2 batches of H=2 heads, O=2P=4 outputs, P=2 periods
WCH = _R.standard_normal((2, 2, 5, 4))
WMM = _R.standard_normal((2, 2, 3, 3))
WQP = _R.standard_normal((2, 3, 2, 2, 4))
COS_T, SIN_T = spe.angle_tables(4, spe.RotarySchedule(dim=6))

GRAD_CASES = [
    ("add_broadcast", [_R.standard_normal((3, 4)), _R.standard_normal(4)],
     lambda a, b: ((a + b) * W34).sum()),
    ("sub_neg", [_R.standard_normal((3, 4)), _R.standard_normal((1, 4))],
     lambda a, b: ((a - b) * W34 + (-a) * 0.3).sum()),
    ("mul_broadcast", [_R.standard_normal((2, 3)), _R.standard_normal(3)],
     lambda a, b: ((a * b) * W23).sum()),
    ("matmul_batched", [_R.standard_normal((2, 3, 4)), _R.standard_normal((4, 5))],
     lambda a, b: ((a @ b) * W235).sum()),
    ("reshape_transpose", [_R.standard_normal((2, 3, 4))],
     lambda x: (x.transpose(1, 0, 2).reshape(3, 8) * W38).sum()),
    ("concat", [_R.standard_normal((2, 3)), _R.standard_normal((4, 3))],
     lambda a, b: (ag.concat([a, b], axis=0) * W63).sum()),
    ("getitem_slice", [_R.standard_normal((5, 4))],
     lambda x: (x[1:4, ::2] * W32).sum()),
    ("sum_axes", [_R.standard_normal((2, 3, 4))],
     lambda x: (x.sum(axis=(0, 2)) * np.array([1.0, -2.0, 0.5])).sum()),
    ("mean_keepdims", [_R.standard_normal((2, 4))],
     lambda x: (x.mean(axis=1, keepdims=True) * np.array([[2.0], [-1.0]])).sum()),
    ("relu", [_shifted(_R.standard_normal((3, 4)))],
     lambda x: (ag.relu(x) * W34).sum()),
    ("pi_tanh", [_R.standard_normal((2, 3))],
     lambda x: (ag.pi_tanh(x) * W23).sum()),
    ("softmax_rows", [_R.standard_normal((2, 4))],
     lambda x: (ag.softmax_rows(x) * W24).sum()),
    ("conv1d", [_R.standard_normal((5, 2)), _R.standard_normal((3, 2, 3)),
                _R.standard_normal(3)],
     lambda x, w, b: (ag.conv1d(x, w, b) * W253[0]).sum()),
    ("conv1d_headed", [_R.standard_normal((2, 5, 2)), _R.standard_normal((2, 3, 2, 3)),
                       _R.standard_normal((2, 3))],
     lambda x, w, b: (ag.conv1d(x, w, b) * W253).sum()),
    ("layer_norm", [_R.standard_normal((3, 4)), _R.standard_normal(4),
                    _R.standard_normal(4)],
     lambda x, g, b: (ag.layer_norm(x, g, b) * WLN).sum()),
    ("rope_apply", [_R.standard_normal((2, 4, 6))],
     lambda x: (ag.rope_apply(x, COS_T, SIN_T) * WRP).sum()),
    ("quat_rotate_i", [_R.standard_normal((3, 2, 4)), _R.standard_normal(3)],
     lambda x, a: (ag.quat_rotate(x, a, "i") * WQR).sum()),
    ("quat_rotate_j", [_R.standard_normal((3, 2, 4)), _R.standard_normal(3)],
     lambda x, a: (ag.quat_rotate(x, a, "j") * WQR).sum()),
    ("quat_rotate_k", [_R.standard_normal((3, 2, 4)), _R.standard_normal(3)],
     lambda x, a: (ag.quat_rotate(x, a, "k") * WQR).sum()),
    ("conv1d_heads_2p", [_R.standard_normal((2, 2, 5, 3)), _R.standard_normal((2, 4, 3, 3)),
                         _R.standard_normal((2, 4))],
     lambda x, w, b: (ag.conv1d(x, w, b) * WCH).sum()),
    ("matmul_4d_2d", [_R.standard_normal((2, 2, 3, 4)), _R.standard_normal((4, 3))],
     lambda a, b: ((a @ b) * WMM).sum()),
    ("quat_rotate_periods", [_R.standard_normal((2, 3, 1, 2, 4)), _R.standard_normal((2, 3, 2))],
     lambda x, a: (ag.quat_rotate(x, a, "j") * WQP).sum()),
]

# rotated_scores: phi (..., Q, P, S, 4), keys (..., M, S, 4), angles (..., M, P).
# Drawn after every case above, so those keep their inputs.
WRS1 = _R.standard_normal((2, 3))
WRS2 = _R.standard_normal((2, 3, 2, 3))
WRS3 = _R.standard_normal((2, 3, 4))
GRAD_CASES += [
    ("rotated_scores_i", [_R.standard_normal((2, 1, 2, 4)), _R.standard_normal((3, 2, 4)),
                          _R.standard_normal((3, 1))],
     lambda p, k, a: (ag.rotated_scores(p, k, a, "i") * WRS1).sum()),
    # leading axes (2, 1), (1, 3) and (2, 1) broadcast to (2, 3)
    ("rotated_scores_j_broadcast", [_R.standard_normal((2, 1, 2, 2, 2, 4)),
                                    _R.standard_normal((1, 3, 3, 2, 4)),
                                    _R.standard_normal((2, 1, 3, 2))],
     lambda p, k, a: (ag.rotated_scores(p, k, a, "j") * WRS2).sum()),
    ("rotated_scores_k_broadcast", [_R.standard_normal((3, 2, 1, 4)),
                                    _R.standard_normal((2, 4, 1, 4)),
                                    _R.standard_normal((4, 2))],
     lambda p, k, a: (ag.rotated_scores(p, k, a, "k") * WRS3).sum()),
]

# matmul with its bias folded in, as a linear layer calls it. Drawn after
# every case above, so those keep their inputs.
WMB = _R.standard_normal((2, 3, 5))
GRAD_CASES += [
    ("matmul_bias", [_R.standard_normal((2, 3, 4)), _R.standard_normal((4, 5)),
                     _R.standard_normal(5)],
     lambda a, b, c: (ag.matmul(a, b, c) * WMB).sum()),
]


def _heads_2p_batched(x, w, b):
    # conv1d_heads_2p with a size-1 axis in front of the kernels' head
    # axis, so a leading probe axis lines up with the input's own
    w = ag.reshape(w, w.shape[:-4] + (1,) + w.shape[-4:])
    b = ag.reshape(b, b.shape[:-2] + (1,) + b.shape[-2:])
    return (ag.conv1d(x, w, b) * WCH).sum(axis=(-4, -3, -2, -1))


# verify --suite grad: its 20 checks, in order, each probed in the batched form
GRAD_SUITE = verification._grad_cases()
GRAD_SUITE_NAMES = [
    "quadratic_closed_form", "constant_zero", "matmul", "matmul_batched", "add_broadcast",
    "mul_broadcast", "sub_neg", "relu", "pi_tanh", "softmax_rows", "conv1d", "conv1d_headed",
    "layer_norm", "rope_apply", "quat_rotate_i", "quat_rotate_j", "quat_rotate_k",
    "getitem_slice", "concat_reshape", "mean_axis",
]


class TestGradients:
    @pytest.mark.parametrize("name,params,build",
                             GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
    def test_matches_central_differences(self, name, params, build):
        report = num.grad_check(ag.objective(build), [p.copy() for p in params])
        assert report.passed, f"{name}: max rel err {report.max_error:.3e}"

    def test_composite_graph(self):
        # a small pre-norm block: LN -> matmul -> softmax -> weighted sum
        w_mix = _R.standard_normal((4, 4))

        def build(x, w, g, b):
            h = ag.layer_norm(x, g, b) @ w
            return (ag.softmax_rows(h) * w_mix).sum()

        params = [_R.standard_normal((4, 4)), _R.standard_normal((4, 4)),
                  np.ones(4), np.zeros(4)]
        report = num.grad_check(ag.objective(build), params)
        assert report.passed, f"max rel err {report.max_error:.3e}"


class TestObjective:
    """grad_check's probes evaluate the loss off the tape."""

    @pytest.mark.parametrize("name,params,build",
                             GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
    def test_probe_loss_equals_tracked_loss(self, name, params, build):
        objective = ag.objective(build)
        tracked, _ = objective.value_and_grad([p.copy() for p in params])
        assert objective.loss([p.copy() for p in params]) == tracked

    def test_desk_model_probe_loss_equals_tracked_loss(self, rng):
        config = model.ModelConfig()
        weights = model.init_weights(config, rng)
        names = sorted(weights)
        motion = rng.standard_normal((1, config.seed_motion_frames, features.MOTION_DIMS))
        audio = rng.standard_normal((1, config.audio_frames, features.AUDIO_DIMS))
        target = rng.standard_normal((1, config.future_frames, features.MOTION_DIMS))
        objective = ag.objective(lambda *ts: training.l2_loss(
            model.forward(dict(zip(names, ts)), config, motion, audio), target))
        arrays = [weights[n].data for n in names]
        tracked, _ = objective.value_and_grad(arrays)
        assert objective.loss(arrays) == tracked

    def test_grad_check_runs_one_backward_and_builds_no_probe_tape(self, monkeypatch):
        self._one_backward_no_probe_tape(monkeypatch, "looped")

    def test_batched_grad_check_runs_one_backward_and_builds_no_probe_tape(self, monkeypatch):
        self._one_backward_no_probe_tape(monkeypatch, "batched")

    @staticmethod
    def _one_backward_no_probe_tape(monkeypatch, form):
        backward_calls = []
        original = ag.Tensor.backward

        def spy(self, seed=None):
            backward_calls.append(self)
            return original(self, seed)

        monkeypatch.setattr(ag.Tensor, "backward", spy)
        name, params, build = next(c for c in GRAD_CASES if c[0] == "conv1d_heads_2p")
        if form == "batched":
            build = _heads_2p_batched
        losses = []

        def recording(*tensors):
            out = build(*tensors)
            losses.append(out)
            return out

        objective = ag.objective(recording, batched=form == "batched")
        if form == "batched":
            def no_loss(arrays):
                raise AssertionError("a batched objective's probes never call loss")
            objective = objective._replace(loss=no_loss)
        report = num.grad_check(objective, [p.copy() for p in params])
        assert report.passed
        assert len(backward_calls) == 1
        assert backward_calls[0] is losses[0]
        if form == "looped":
            assert len(losses) == 1 + 2 * sum(p.size for p in params)
        else:
            # every parameter's stack fits one chunk: one losses call each
            assert all(2 * p.size * p.size <= num.PROBE_STACK_ELEMENTS for p in params)
            assert [out.shape for out in losses[1:]] == [(2 * p.size,) for p in params]
        assert all(not out._track and out._parents == () for out in losses[1:])

    @staticmethod
    def _batched_losses_match_probe_loss(build, params, rng):
        objective = ag.objective(build, batched=True)
        stacks = [p + 1e-3 * rng.standard_normal((5,) + p.shape) for p in params]
        batched = objective.losses(stacks)
        looped = [objective.loss([s[i] for s in stacks]) for i in range(5)]
        assert batched.shape == (5,)
        np.testing.assert_allclose(batched, looped, rtol=1e-13, atol=0)

    def test_batched_losses_match_probe_loss(self, rng):
        self._batched_losses_match_probe_loss(*verification._qra_grad_problem(), rng)

    @pytest.mark.parametrize("case", GRAD_SUITE, ids=[c[0] for c in GRAD_SUITE])
    def test_grad_suite_batched_losses_match_probe_loss(self, case, rng):
        _, build, params, _ = case
        self._batched_losses_match_probe_loss(build, params, rng)

    def test_grad_suite_probes_every_coordinate_batched(self):
        def no_loss(arrays):
            raise AssertionError("a batched objective's probes never call loss")

        probes = {}
        for name, build, params, _ in GRAD_SUITE:
            objective = ag.objective(build, batched=True)._replace(loss=no_loss)
            report = num.grad_check(objective, [p.copy() for p in params], tol=1e-4)
            assert report.passed, f"{name}: max rel err {report.max_error:.3e}"
            assert report.probes == [p.size for p in params]
            probes[name] = sum(report.probes)
        assert list(probes) == GRAD_SUITE_NAMES
        assert sum(probes.values()) == 798

    def test_grad_suite_keeps_its_checks_and_tolerances(self):
        checks = verification.grad_checks()
        assert [c.name for c in checks] == [f"grad/{n}" for n in GRAD_SUITE_NAMES]
        assert [c.tolerance for c in checks] == [1e-9, 1e-12] + [1e-4] * 18
        assert all(c.passed for c in checks)

    def test_qra_grad_problem_same_report_in_both_forms(self):
        build, params = verification._qra_grad_problem()
        looped = num.grad_check(ag.objective(build), [p.copy() for p in params], tol=1e-4)
        batched = num.grad_check(ag.objective(build, batched=True),
                                 [p.copy() for p in params], tol=1e-4)
        # qra/gradient_correctness probes every one of the 344 coordinates
        assert looped.probes == batched.probes == [p.size for p in params]
        assert sum(batched.probes) == 344
        np.testing.assert_allclose(batched.errors, looped.errors, rtol=0, atol=1e-9)
        assert looped.passed and batched.passed


class TestForwardAgainstReference:
    def test_conv1d_matches_kernel_route(self, rng):
        x = rng.standard_normal((7, 3))
        w = rng.standard_normal((5, 3, 3))
        b = rng.standard_normal(5)
        via_tape = ag.conv1d(ag.Tensor(x), ag.Tensor(w), ag.Tensor(b)).data
        via_kernel = num.conv1d(x, num.ConvKernel(weights=w, bias=b))
        np.testing.assert_array_equal(via_tape, via_kernel)

    def test_rope_apply_matches_row_rotation(self, rng):
        # each row against the complex-number formulation at its position
        sched = spe.RotarySchedule(dim=8)
        x = rng.standard_normal((6, 8))
        cos, sin = spe.angle_tables(6, sched)
        via_tape = ag.rope_apply(ag.Tensor(x), cos, sin).data
        for t in range(6):
            np.testing.assert_allclose(via_tape[t], spe.rope_rotate_complex(x[t], t, sched),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("axis", ["i", "j", "k"])
    def test_quat_rotate_matches_unit_multiply(self, rng, axis):
        x = rng.standard_normal((4, 3, 4))
        angles = rng.standard_normal(4)
        via_tape = ag.quat_rotate(ag.Tensor(x), ag.Tensor(angles), axis).data
        for n in range(4):
            unit = quaternion.unit_exp(axis, float(angles[n]))
            for s in range(3):
                product = quaternion.hamilton(quaternion.Quaternion.from_array(x[n, s]), unit)
                np.testing.assert_allclose(via_tape[n, s], product.as_array(), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("axis", ["i", "j", "k"])
    def test_rotated_scores_match_spun_keys(self, rng, axis):
        # the explicit path: spin every key by every period angle, then one
        # product over the period-concatenated features
        b, m, slots = 2, 5, 3
        for q in (1, 2, 3):
            for periods in (1, 2, 3):
                arrays = [rng.standard_normal((b, q, periods, slots, 4)),
                          rng.standard_normal((b, m, slots, 4)),
                          rng.standard_normal((b, m, periods))]
                seed = rng.standard_normal((b, q, m))
                fast = [ag.Tensor(x, requires_grad=True) for x in arrays]
                out = ag.rotated_scores(*fast, axis)
                out.backward(seed=seed)
                phi, k, angles = [ag.Tensor(x, requires_grad=True) for x in arrays]
                spun = ag.quat_rotate(k.reshape(b, m, 1, slots, 4), angles, axis)
                want = ag.matmul(phi.reshape(b, q, periods * slots * 4),
                                 spun.reshape(b, m, periods * slots * 4).transpose(0, 2, 1))
                want.backward(seed=seed)
                for got, ref in [(out.data, want.data)] + [
                        (t.grad, r.grad) for t, r in zip(fast, (phi, k, angles))]:
                    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_rotated_scores_reject_mismatched_slots(self):
        phi = ag.Tensor(np.zeros((2, 2, 3, 4)))
        with pytest.raises(ValueError):
            ag.rotated_scores(phi, ag.Tensor(np.zeros((5, 2, 4))), ag.Tensor(np.zeros((5, 2))), "j")
        with pytest.raises(ValueError):
            ag.rotated_scores(phi, ag.Tensor(np.zeros((5, 3, 4))), ag.Tensor(np.zeros((5, 1))), "j")

    @pytest.mark.parametrize("lead", [(5,), (2, 3), (2, 2, 3)])
    def test_matmul_bias_matches_matmul_then_add_bit_for_bit(self, rng, lead):
        a, b, c = rng.standard_normal(lead + (4,)), rng.standard_normal((4, 6)), rng.standard_normal(6)
        seed = rng.standard_normal(lead + (6,))
        leaves = [[ag.Tensor(x.copy(), requires_grad=True) for x in (a, b, c)] for _ in range(2)]
        fused = ag.matmul(*leaves[0][:2], bias=leaves[0][2])
        split = ag.matmul(*leaves[1][:2]) + leaves[1][2]
        assert fused.data.tobytes() == split.data.tobytes()
        fused.backward(seed)
        split.backward(seed)
        for x, y in zip(*leaves):
            assert x.grad.tobytes() == y.grad.tobytes()
        # one tape node instead of two
        assert fused._parents == tuple(leaves[0])

    def test_matmul_bias_gates(self):
        x = ag.Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            ag.matmul(x, ag.Tensor(np.zeros((4, 5))), ag.Tensor(np.zeros(4)))
        with pytest.raises(ValueError):
            ag.matmul(x, ag.Tensor(np.zeros((2, 4, 5))), ag.Tensor(np.zeros(5)))

    def test_pi_tanh_matches_numerics(self, rng):
        x = rng.standard_normal((3, 3)) * 15
        np.testing.assert_array_equal(ag.pi_tanh(ag.Tensor(x)).data,
                                      num.pi_tanh(x))

    def test_softmax_vjp_matches_dense_jacobian(self, rng):
        row = rng.standard_normal((1, 5))
        seed = rng.standard_normal((1, 5))
        x = ag.Tensor(row, requires_grad=True)
        ag.softmax_rows(x).backward(seed=seed)
        y = num.softmax_rows(row)[0]
        jac = np.diag(y) - np.outer(y, y)
        np.testing.assert_allclose(x.grad[0], jac @ seed[0], atol=1e-12)

    def test_layer_norm_matches_written_out_formula_bit_for_bit(self, rng):
        x = rng.standard_normal((2, 5, 6))
        gamma = rng.standard_normal(6)
        beta = rng.standard_normal(6)
        g = rng.standard_normal((2, 5, 6))
        xt = ag.Tensor(x, requires_grad=True)
        gt = ag.Tensor(gamma, requires_grad=True)
        bt = ag.Tensor(beta, requires_grad=True)
        out = ag.layer_norm(xt, gt, bt)
        out.backward(seed=g)
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        np.testing.assert_array_equal(out.data, xhat * gamma + beta)
        dxhat = g * gamma
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        np.testing.assert_array_equal(xt.grad, inv * (dxhat - m1 - xhat * m2))
        np.testing.assert_array_equal(gt.grad, (g * xhat).sum(axis=(0, 1)))
        np.testing.assert_array_equal(bt.grad, g.sum(axis=(0, 1)))

    def test_relu_matches_maximum_and_keeps_nan(self):
        x = np.array([-2.0, -0.0, 0.0, 1.5, np.nan, -np.inf, np.inf])
        t = ag.Tensor(x, requires_grad=True)
        out = ag.relu(t)
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0, 1.5, np.nan, 0.0, np.inf])
        out.backward(seed=np.ones_like(x))
        # the kink, NaN and -inf get no gradient
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0])

    def test_layer_norm_forward(self, rng):
        x = rng.standard_normal((4, 6))
        gamma = rng.standard_normal(6)
        beta = rng.standard_normal(6)
        out = ag.layer_norm(ag.Tensor(x), ag.Tensor(gamma), ag.Tensor(beta)).data
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        expect = (x - mu) / np.sqrt(var + 1e-5) * gamma + beta
        np.testing.assert_allclose(out, expect, atol=1e-12)


class TestTapeMechanics:
    def test_diamond_accumulates(self):
        x = ag.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-15)

    def test_overlapping_slices_accumulate(self):
        x = ag.Tensor(np.zeros(5), requires_grad=True)
        loss = x[0:2].sum() + x[1:3].sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [1.0, 2.0, 1.0, 0.0, 0.0])

    def test_repeated_backward_adds(self):
        x = ag.Tensor(np.array([2.0]), requires_grad=True)
        loss = (x * 3.0).sum()
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_zero_grad(self):
        x = ag.Tensor(np.ones(2), requires_grad=True)
        (x * x).sum().backward()
        x.zero_grad()
        assert x.grad is None
        (x * x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_backward_needs_scalar_without_seed(self):
        x = ag.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_backward_with_seed(self):
        x = ag.Tensor(np.ones((2, 2)), requires_grad=True)
        seed = np.array([[1.0, -1.0], [0.5, 2.0]])
        (x * 3.0).backward(seed=seed)
        np.testing.assert_array_equal(x.grad, 3.0 * seed)

    def test_constant_leaves_get_no_grad(self):
        x = ag.Tensor(np.ones(3), requires_grad=True)
        c = ag.Tensor(np.full(3, 2.0))
        (x * c).sum().backward()
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, c.data)

    def test_unbroadcast_reduces_added_row(self):
        a = ag.Tensor(np.zeros((1, 4)), requires_grad=True)
        b = ag.Tensor(np.zeros((3, 4)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full((1, 4), 3.0))
        np.testing.assert_array_equal(b.grad, np.ones((3, 4)))

    @pytest.mark.parametrize("gshape, shape", [
        ((8, 4, 9, 2, 4, 4), (8, 4, 9, 1, 4, 4)),   # the decoder's period axis
        ((3, 5, 4, 6), (1, 4, 1)),                  # extra leading and squeezed axes
        ((2, 3, 1, 5), (3, 1, 1)),                  # an axis already of size 1
        ((2, 7, 3, 4), (7, 3, 4)),                  # extra leading axes only
        ((3, 2, 5), (1, 1, 1)),
    ])
    def test_unbroadcast_matches_plain_sum(self, rng, gshape, shape):
        g = rng.standard_normal(gshape)
        extra = len(gshape) - len(shape)
        axes = tuple(range(extra)) + tuple(
            extra + i for i, s in enumerate(shape) if s == 1 and gshape[extra + i] != 1)
        want = g.sum(axis=axes, keepdims=True).reshape(shape)
        got = ag._unbroadcast(g, shape)
        assert got.shape == shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_untracked_result_holds_no_parents(self):
        x = ag.Tensor(np.ones((2, 3)))
        w = ag.Tensor(np.ones((3, 2)))
        out = ag.relu(ag.matmul(x, w) + 1.0)
        assert out._parents == () and out._vjp is None
        tracked = ag.matmul(x, ag.Tensor(w.data, requires_grad=True))
        assert len(tracked._parents) == 2 and tracked._vjp is not None

    def test_concat_routes_slices(self):
        a = ag.Tensor(np.zeros((2, 2)), requires_grad=True)
        b = ag.Tensor(np.zeros((3, 2)), requires_grad=True)
        seed = np.arange(10.0).reshape(5, 2)
        ag.concat([a, b], axis=0).backward(seed=seed)
        np.testing.assert_array_equal(a.grad, seed[:2])
        np.testing.assert_array_equal(b.grad, seed[2:])

    def test_scalar_sugar(self):
        x = ag.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = (2.0 * x + 1.0 - x * 0.5).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, [1.5, 1.5], atol=1e-15)
        assert float(loss.data) == pytest.approx(6.5)

    def test_rsub(self):
        x = ag.Tensor(np.array([1.0, 4.0]), requires_grad=True)
        (1.0 - x).sum().backward()
        np.testing.assert_array_equal(x.grad, [-1.0, -1.0])

    def test_untracked_operands_get_no_gradient(self):
        x = ag.Tensor(np.ones((2, 3, 4)))
        w = ag.Tensor(np.ones((4, 2)), requires_grad=True)
        g = np.ones((2, 3, 2))
        assert ag.matmul(x, w)._vjp(g)[0] is None
        assert ag.matmul(w.transpose(1, 0), ag.Tensor(np.ones((4, 5))))._vjp(np.ones((2, 5)))[1] is None
        c = ag.Tensor(np.ones(4))
        assert ag.mul(x, w[:, 0])._vjp(np.ones((2, 3, 4)))[0] is None
        assert ag.add(w[:, 0], c)._vjp(np.ones(4))[1] is None
        assert ag.matmul(x, w, ag.Tensor(np.ones(2)))._vjp(g)[2] is None

    def test_quat_rotate_rejects_bad_angle_shape(self):
        x = ag.Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            ag.quat_rotate(x, ag.Tensor(np.zeros(3)), "i")
