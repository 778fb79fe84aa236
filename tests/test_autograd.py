"""Tape autodiff: every op's gradient against central differences,
plus tape mechanics (accumulation, scatter, broadcast reduction).

The gradient cases are verification._grad_cases(), the one list of them:
`verify --suite grad` probes each case's stacks through one build call,
and the tests here also probe them one forward per row.
"""

import gc
import weakref

import numpy as np
import pytest

from quatmotion import autograd as ag
from quatmotion import numerics as num
from quatmotion import features, model, oracle, qra, spe, training, verification

CASES = verification._grad_cases()
CASE_IDS = [c[0] for c in CASES]
# verify --suite grad: its checks, in order
CASE_NAMES = [
    "quadratic_closed_form", "constant_zero", "matmul", "matmul_batched", "add_broadcast",
    "mul_broadcast", "sub_neg", "relu", "softmax_rows", "conv1d", "conv1d_headed", "layer_norm",
    "rope_apply", "quat_rotate_i", "quat_rotate_j", "quat_rotate_k", "getitem_slice",
    "concat_reshape", "mean_axis", "qra_angles", "reshape_transpose", "matmul_4d_2d",
    "matmul_bias", "conv1d_heads_2p", "quat_rotate_periods", "rotated_scores_i",
    "rotated_scores_j_broadcast", "rotated_scores_k_broadcast",
]


class TestGradients:
    @pytest.mark.parametrize("name,build,params,tol", CASES, ids=CASE_IDS)
    def test_matches_central_differences(self, name, build, params, tol):
        # one forward per probe row, where the grad suite runs one per stack
        report = num.grad_check(ag.objective(build), params, tol=tol)
        assert report.passed, f"{name}: max rel err {report.max_error:.3e}"

    def test_every_tape_op_has_a_case(self, monkeypatch):
        ops = [name for name in ag.__all__ if name not in ("Tensor", "objective")]
        called = set()
        for name in ops:
            def spy(*args, _op=getattr(ag, name), _name=name, **kwargs):
                called.add(_name)
                return _op(*args, **kwargs)

            monkeypatch.setattr(ag, name, spy)
        # built after the patch: a case may hold an op itself, as relu's does
        for _, build, params, _ in verification._grad_cases():
            ag.objective(build, batched=True).losses([p[None] for p in params])
        assert sorted(set(ops) - called) == []

    def test_composite_graph(self, rng):
        # a small pre-norm block: LN -> matmul -> softmax -> weighted sum
        w_mix = rng.standard_normal((4, 4))

        def build(x, w, g, b):
            h = ag.layer_norm(x, g, b) @ w
            return (ag.softmax_rows(h) * w_mix).sum()

        params = [rng.standard_normal((4, 4)), rng.standard_normal((4, 4)),
                  np.ones(4), np.zeros(4)]
        report = num.grad_check(ag.objective(build), params)
        assert report.passed, f"max rel err {report.max_error:.3e}"


class TestObjective:
    """grad_check's probes evaluate the loss off the tape."""

    @pytest.mark.parametrize("name,build,params,tol", CASES, ids=CASE_IDS)
    def test_probe_loss_equals_tracked_loss(self, name, build, params, tol):
        objective = ag.objective(build)
        tracked, _ = objective.value_and_grad(params)
        assert objective.losses([p[None] for p in params]).tolist() == [tracked]

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
        assert objective.losses([a[None] for a in arrays]).tolist() == [tracked]

    def test_grad_check_runs_one_backward_and_builds_no_probe_tape(self, monkeypatch):
        self._one_backward_no_probe_tape(monkeypatch, batched=False)

    def test_batched_grad_check_runs_one_backward_and_builds_no_probe_tape(self, monkeypatch):
        self._one_backward_no_probe_tape(monkeypatch, batched=True)

    @staticmethod
    def _one_backward_no_probe_tape(monkeypatch, batched):
        backward_calls = []
        original = ag.Tensor.backward

        def spy(self, seed=None):
            backward_calls.append(self)
            return original(self, seed)

        monkeypatch.setattr(ag.Tensor, "backward", spy)
        _, build, params, _ = next(c for c in CASES if c[0] == "conv1d_heads_2p")
        losses = []

        def recording(*tensors):
            out = build(*tensors)
            losses.append(out)
            return out

        report = num.grad_check(ag.objective(recording, batched=batched), params)
        assert report.passed
        assert len(backward_calls) == 1
        assert backward_calls[0] is losses[0]
        if batched:
            # every parameter's stack fits one chunk: one build call each
            assert all(2 * p.size * p.size <= num.PROBE_STACK_ELEMENTS for p in params)
            assert [out.shape for out in losses[1:]] == [(2 * p.size,) for p in params]
        else:
            assert len(losses) == 1 + 2 * sum(p.size for p in params)
        # an untracked probe loss has no node, so no tape behind it
        assert all(out._node is None for out in losses[1:])

    @staticmethod
    def _batched_losses_match_probe_loss(build, params, rng):
        stacks = [p + 1e-3 * rng.standard_normal((5,) + p.shape) for p in params]
        batched = ag.objective(build, batched=True).losses(stacks)
        assert batched.shape == (5,)
        np.testing.assert_allclose(batched, ag.objective(build).losses(stacks),
                                   rtol=1e-13, atol=0)

    def test_batched_losses_match_probe_loss(self, rng):
        self._batched_losses_match_probe_loss(*verification._qra_grad_problem(), rng)

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_grad_suite_batched_losses_match_probe_loss(self, case, rng):
        _, build, params, _ = case
        self._batched_losses_match_probe_loss(build, params, rng)

    def test_grad_suite_probes_every_coordinate_batched(self):
        probes = {}
        for name, build, params, tol in CASES:
            report = num.grad_check(ag.objective(build, batched=True), params, tol=tol)
            assert report.passed, f"{name}: max rel err {report.max_error:.3e}"
            assert report.probes == [p.size for p in params]
            probes[name] = sum(report.probes)
        assert list(probes) == CASE_NAMES
        assert sum(probes.values()) == 1523

    def test_grad_suite_keeps_its_checks_and_tolerances(self):
        checks = verification.grad_checks()
        assert [c.name for c in checks] == [f"grad/{n}" for n in CASE_NAMES]
        assert [c.tolerance for c in checks] == [1e-9, 1e-12] + [1e-4] * 26
        assert all(c.passed for c in checks)

    def test_qra_grad_problem_same_report_in_both_forms(self):
        build, params = verification._qra_grad_problem()
        per_row = num.grad_check(ag.objective(build), params, tol=1e-4)
        batched = num.grad_check(ag.objective(build, batched=True), params, tol=1e-4)
        # qra/gradient_correctness probes every one of the 344 coordinates
        assert per_row.probes == batched.probes == [p.size for p in params]
        assert sum(batched.probes) == 344
        np.testing.assert_allclose(batched.errors, per_row.errors, rtol=0, atol=1e-9)
        assert per_row.passed and batched.passed


class TestForwardAgainstReference:
    def test_conv1d_matches_kernel_route(self, rng):
        x = rng.standard_normal((7, 3))
        w = rng.standard_normal((5, 3, 3))
        b = rng.standard_normal(5)
        via_tape = ag.conv1d(ag.Tensor(x), ag.Tensor(w), ag.Tensor(b)).data
        via_kernel = num.conv1d_im2col(x, w, b)
        np.testing.assert_array_equal(via_tape, via_kernel)

    def test_rope_apply_matches_row_rotation(self, rng):
        # each row against the complex-number formulation at its position
        x = rng.standard_normal((6, 8))
        cos, sin = spe.angle_tables(6, 8)
        via_tape = ag.rope_apply(ag.Tensor(x), cos, sin).data
        for t in range(6):
            np.testing.assert_allclose(via_tape[t],
                                       oracle.rope(x[t][None], [t])[0],
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("axis", ["i", "j", "k"])
    def test_quat_rotate_matches_unit_multiply(self, rng, axis):
        x = rng.standard_normal((4, 3, 4))
        angles = rng.standard_normal(4)
        via_tape = ag.quat_rotate(ag.Tensor(x), ag.Tensor(angles), axis).data
        for n in range(4):
            unit = oracle.axis_unit(axis, float(angles[n]))
            for s in range(3):
                product = oracle.hamilton4(x[n, s], unit)
                np.testing.assert_allclose(via_tape[n, s], product, rtol=0, atol=1e-14)

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
        # one tape node instead of two: its parents are the three leaves
        assert fused._node.parents == tuple(leaf._node for leaf in leaves[0])
        assert all(leaf._node.leaf and leaf._node.parents == () for leaf in leaves[0])

    def test_matmul_bias_gates(self):
        x = ag.Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            ag.matmul(x, ag.Tensor(np.zeros((4, 5))), ag.Tensor(np.zeros(4)))
        with pytest.raises(ValueError):
            ag.matmul(x, ag.Tensor(np.zeros((2, 4, 5))), ag.Tensor(np.zeros(5)))

    def test_pi_tanh_matches_numerics(self, rng):
        # qra_angles' phase path: with a zero omega kernel and a centre-tap
        # identity theta kernel the angles are pi*tanh of the rows, clamp
        # of the saturated entries included
        x = rng.standard_normal((3, 3)) * 15
        eye = np.zeros((3, 3, 3))
        eye[:, :, 1] = np.eye(3)
        angles = ag.qra_angles(ag.Tensor(x), np.zeros((3, 3, 3)), np.zeros(3),
                               eye, np.zeros(3), np.ones(3)).data
        np.testing.assert_array_equal(angles, num.pi_tanh(x))

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


class TestTapeMemory:
    """A tracked forward keeps alive only the arrays its VJPs read."""

    @staticmethod
    def _desk_loss(rng):
        config = model.ModelConfig()
        weights = model.init_weights(config, rng)
        motion = rng.standard_normal((2, config.seed_motion_frames, features.MOTION_DIMS))
        audio = rng.standard_normal((2, config.audio_frames, features.AUDIO_DIMS))
        target = rng.standard_normal((2, config.future_frames, features.MOTION_DIMS))
        return weights, lambda: training.l2_loss(
            model.forward(weights, config, motion, audio), target)

    def test_dropped_interior_result_dies_and_gradients_hold(self, rng, monkeypatch):
        weights, loss_of = self._desk_loss(rng)
        loss_of().backward()
        want = {n: w.grad.copy() for n, w in weights.items()}
        # attention logits feed only softmax_rows, whose VJP reads its own
        # output: once forward has returned, nothing may hold them
        logits = []
        softmax = ag.softmax_rows

        def spy(a):
            logits.append(weakref.ref(a.data))
            return softmax(a)

        monkeypatch.setattr(ag, "softmax_rows", spy)
        for w in weights.values():
            w.zero_grad()
        # with the cycle collector off, only reference counts can free them
        gc.disable()
        try:
            loss = loss_of()
        finally:
            gc.enable()
        assert len(logits) > 0
        assert all(ref() is None for ref in logits)
        loss.backward()
        for name, w in weights.items():
            assert w.grad.tobytes() == want[name].tobytes(), name

    @staticmethod
    def _tape(loss) -> list:
        nodes, stack, seen = [], [loss._node], set()
        while stack:
            node = stack.pop()
            if node is None or node in seen:
                continue
            seen.add(node)
            nodes.append(node)
            stack.extend(node.parents)
        return nodes

    def test_no_vjp_captures_a_tensor(self, rng):
        _, loss_of = self._desk_loss(rng)
        tape = self._tape(loss_of())
        for node in tape:
            for cell in getattr(node.vjp, "__closure__", None) or ():
                assert not isinstance(cell.cell_contents, (ag.Tensor, ag._Node)), node.vjp
        assert len(tape) > 100

    @staticmethod
    def _saved_arrays(vjp) -> list:
        """Every array a VJP closes over, through the closures it calls."""
        arrays, fns, seen = [], [vjp], set()
        while fns:
            fn = fns.pop()
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            for cell in getattr(fn, "__closure__", None) or ():
                value = cell.cell_contents
                if isinstance(value, np.ndarray):
                    arrays.append(value)
                elif callable(value):
                    fns.append(value)
        return arrays

    def test_tape_keeps_no_conv_windows(self, rng):
        # the QRA convolutions keep their input rows and rebuild the im2col
        # windows (width times the rows' size) inside the VJP
        _, loss_of = self._desk_loss(rng)
        width = qra.KERNEL_WIDTH * model.ModelConfig().d_head
        saved = [a for node in self._tape(loss_of()) if node.vjp is not None
                 for a in self._saved_arrays(node.vjp)]
        assert len(saved) > 100
        assert [a.shape for a in saved if a.shape[-1:] == (width,)] == []

    def test_relu_keeps_the_array_its_matmul_keeps(self, rng):
        weights, loss_of = self._desk_loss(rng)
        fc2 = weights["dec.0.ff.fc2.w"]._node
        tape = self._tape(loss_of())
        matmul = next(node for node in tape if node.parents[1:2] == (fc2,))
        relu_saved = self._saved_arrays(matmul.parents[0].vjp)
        matmul_saved = self._saved_arrays(matmul.vjp)
        # relu reads its mask off its output, the fc2 matmul's left operand
        assert len(relu_saved) == 1
        assert any(np.shares_memory(relu_saved[0], a) for a in matmul_saved)


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
        assert out._node is None and out._vjp is None
        tracked = ag.matmul(x, ag.Tensor(w.data, requires_grad=True))
        assert tracked._node.parents[0] is None and tracked._node.parents[1].leaf
        assert tracked._vjp is not None and not tracked._node.leaf

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
