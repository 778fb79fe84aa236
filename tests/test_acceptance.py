"""Go/no-go gate: ten behavioral criteria, one test and one verdict each.

Every test prints the numbers it judged (visible under `pytest -s`, or in
the failure report when a criterion misses), so a verbose run reads as a
checklist. Criterion 8 trains the desk model for 5000 steps and takes a
few minutes on one core; everything else finishes in seconds.
"""

import math
import time

import numpy as np

from quatmotion import autograd as ag
from quatmotion import cli
from quatmotion import features as feat
from quatmotion import metrics as met
from quatmotion import model as mod
from quatmotion import oracle
from quatmotion import qra
from quatmotion import quaternion as quat
from quatmotion import spe
from quatmotion import training as trn
from quatmotion import verification

# sign/permutation structure of the full basis multiplication table
_BASIS_PRODUCTS = [
    ("1", "1", 1, "1"), ("1", "i", 1, "i"), ("1", "j", 1, "j"), ("1", "k", 1, "k"),
    ("i", "1", 1, "i"), ("j", "1", 1, "j"), ("k", "1", 1, "k"),
    ("i", "i", -1, "1"), ("j", "j", -1, "1"), ("k", "k", -1, "1"),
    ("i", "j", 1, "k"), ("j", "i", -1, "k"),
    ("j", "k", 1, "i"), ("k", "j", -1, "i"),
    ("k", "i", 1, "j"), ("i", "k", -1, "j"),
]


def _rand_quats(rng, n):
    return rng.standard_normal((n, 4))


def _rand_unit_quats(rng, n):
    arr = rng.standard_normal((n, 4))
    arr /= np.linalg.norm(arr, axis=1, keepdims=True)
    return arr


def test_criterion_01_quaternion_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    basis = {"1": quat.ONE, "i": quat.UNIT_I, "j": quat.UNIT_J, "k": quat.UNIT_K}

    worst_table = 0.0
    for a, b, sign, c in _BASIS_PRODUCTS:
        got = quat.hamilton(basis[a], basis[b])
        worst_table = max(worst_table, float(np.abs(got - sign * basis[c]).max()))

    worst_identity = 0.0
    for q in _rand_quats(rng, 50):
        for side in (quat.hamilton(quat.ONE, q), quat.hamilton(q, quat.ONE)):
            worst_identity = max(worst_identity,
                                 float(np.abs(side - q).max()))

    worst_assoc = 0.0
    for _ in range(200):
        a, b, c = _rand_quats(rng, 3)
        lhs = quat.hamilton(quat.hamilton(a, b), c)
        rhs = quat.hamilton(a, quat.hamilton(b, c))
        worst_assoc = max(worst_assoc, float(np.abs(lhs - rhs).max()))

    worst_norm = 0.0
    worst_conj = 0.0
    worst_dot = 0.0
    for _ in range(200):
        a, b = _rand_quats(rng, 2)
        worst_norm = max(worst_norm, abs(quat.q_norm(quat.hamilton(a, b))
                                         - quat.q_norm(a) * quat.q_norm(b)))
        lhs = quat.q_conj(quat.hamilton(a, b))
        rhs = quat.hamilton(quat.q_conj(b), quat.q_conj(a))
        worst_conj = max(worst_conj, float(np.abs(lhs - rhs).max()))
        worst_dot = max(worst_dot, abs(quat.hamilton(a, quat.q_conj(b))[0] - float(a @ b)))

    dt = time.perf_counter() - t0
    print(f"criterion 1: basis {worst_table:.1e} identity {worst_identity:.1e} "
          f"assoc {worst_assoc:.2e} norm {worst_norm:.2e} conj {worst_conj:.2e} "
          f"real/dot {worst_dot:.2e} in {dt:.2f}s")
    assert worst_table == 0.0
    assert worst_identity == 0.0
    assert worst_assoc <= 1e-12
    assert worst_norm <= 1e-10
    assert worst_conj <= 1e-12
    assert worst_dot <= 1e-12
    assert dt < 1.0


def _spun(rows, offset=0.0):
    """Rows spun from position `offset` on by the model's kernel, off the tape."""
    steps, dim = rows.shape
    return ag.rope_apply(ag.Tensor(rows), *spe.angle_tables(steps, dim, offset=offset)).data


def test_criterion_02_relative_position_invariance():
    # the model's RoPE path: autograd.rope_apply over spe.angle_tables
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    q = rng.standard_normal((16, 32))
    k = rng.standard_normal((14, 32))

    base = _spun(q) @ _spun(k).T
    worst_shift = 0.0
    for delta in (0.0, 7.0, 1000.0):
        shifted = _spun(q, delta) @ _spun(k, delta).T
        worst_shift = max(worst_shift, float(np.abs(shifted - base).max()))

    worst_route = 0.0
    for pos in (0.0, 1.0, 7.0, 1000.0):
        for vec in rng.standard_normal((5, 32)):
            gap = np.abs(_spun(vec[None], pos)
                         - oracle.rope(vec[None], [pos])).max()
            worst_route = max(worst_route, float(gap))

    dt = time.perf_counter() - t0
    print(f"criterion 2: shift invariance {worst_shift:.2e} (tol 1e-10), "
          f"tables vs complex {worst_route:.2e} (tol 1e-14) in {dt:.2f}s")
    assert worst_shift <= 1e-10
    assert worst_route <= 1e-14
    assert dt < 1.0


def test_criterion_03_attention_degeneracy():
    # one period with zero kernels must collapse to softmax(QK^T/sqrt(d))V
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    cases = 0
    for trial in range(120):
        d_attn = (4, 8, 12)[trial % 3]
        d_model = int(rng.integers(2, 10))
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        axis = "ij"[trial % 2]
        head = {name: rng.standard_normal((d_model, d_attn)) for name in qra.PROJECTIONS}
        head.update({name: np.zeros((1, d_attn, 3) if name.endswith(".w") else 1)
                     for name in qra.KERNEL_NAMES})
        x = rng.standard_normal((n, d_model))
        y = rng.standard_normal((m, d_model))
        got = qra.qra_attention(x, y, head, key_axis=axis)

        logits = (x @ head["wq"]) @ (y @ head["wk"]).T / math.sqrt(d_attn)
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        want = (shifted / shifted.sum(axis=1, keepdims=True)) @ (y @ head["wv"])
        worst = max(worst, float(np.abs(got - want).max()))
        cases += 1

    dt = time.perf_counter() - t0
    print(f"criterion 3: {cases} instances, worst gap {worst:.2e} "
          f"(tol 1e-10) in {dt:.2f}s")
    assert cases >= 100
    assert worst <= 1e-10
    assert dt < 5.0


def test_criterion_04_attention_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    cases = 0
    for n in range(1, 5):
        for m in range(1, 5):
            for d_attn in (4, 8):
                for periods in range(1, 4):
                    for axis in ("j", "i"):
                        d_model = int(rng.integers(2, 9))
                        head = qra.random_head(rng, d_model, d_attn, periods)
                        x = rng.standard_normal((n, d_model))
                        y = rng.standard_normal((m, d_model))
                        got = qra.qra_attention(x, y, head, key_axis=axis)
                        want = oracle.reference_qra(x, y, head, key_axis=axis)
                        worst = max(worst, float(np.abs(got - want).max()))
                        cases += 1
    dt = time.perf_counter() - t0
    print(f"criterion 4: {cases} straight-line oracle cases, worst gap "
          f"{worst:.2e} (tol 1e-10) in {dt:.2f}s")
    assert worst <= 1e-10
    assert dt < 5.0


def test_criterion_05_gradient_checks():
    t0 = time.perf_counter()
    op_errors = {c.name: c.measured for c in verification.grad_checks()}
    worst_op = max(op_errors, key=op_errors.get)
    model_report = verification._model_grad_report()

    dt = time.perf_counter() - t0
    print(f"criterion 5: {len(op_errors)} op cases, worst {worst_op} "
          f"{op_errors[worst_op]:.2e}; desk model max {model_report.max_error:.2e} "
          f"over {len(model_report.names)} tensors (tol 1e-4) in {dt:.1f}s")
    assert all(e < 1e-4 for e in op_errors.values()), op_errors
    assert model_report.max_error < 1e-4
    assert dt < 120.0


def test_criterion_06_rotation_conversions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)

    worst_trip = 0.0
    for q in _rand_unit_quats(rng, 100):
        back = quat.rotmat_to_quat(quat.quat_to_rotmat(q))
        gap = min(float(np.abs(back - q).max()), float(np.abs(back + q).max()))
        worst_trip = max(worst_trip, gap)

    worst_orth = 0.0
    for q in _rand_unit_quats(rng, 100):
        noisy = quat.quat_to_rotmat(q) + rng.uniform(-1e-2, 1e-2, (3, 3))
        proj = feat.nearest_rotation(noisy)
        worst_orth = max(worst_orth,
                         float(np.abs(proj.T @ proj - np.eye(3)).max()))

    dt = time.perf_counter() - t0
    print(f"criterion 6: round trip {worst_trip:.2e} (tol 1e-10), "
          f"re-orthonormalization {worst_orth:.2e} (tol 1e-9) in {dt:.2f}s")
    assert worst_trip <= 1e-10
    assert worst_orth <= 1e-9
    assert dt < 1.0


def test_criterion_07_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)

    # items > dims keeps the sample covariance inside sym_sqrt's stated
    # conditioning range; the rank-deficient regime is printed for context
    a = met.FeatureSet(rng.standard_normal((30, 12)))
    self_fid = met.fid(a, a)
    wide = met.FeatureSet(rng.standard_normal((12, 64)))
    self_fid_wide = met.fid(wide, wide)

    base = rng.standard_normal((40, 1))
    gap_fid = met.fid(met.FeatureSet(base), met.FeatureSet(base + 3.0))

    hand = met.beat_align(met.BeatTimeline([10, 50]), met.BeatTimeline([12, 47]))
    closed = (math.exp(-4.0 / 18.0) + math.exp(-9.0 / 18.0)) / 2.0

    frames = met.BeatTimeline([7, 20, 33])
    perfect = met.beat_align(frames, frames)

    dt = time.perf_counter() - t0
    print(f"criterion 7: fid(A,A)={self_fid:.2e} full rank "
          f"({self_fid_wide:.2e} rank-deficient, informational), "
          f"shifted 1-D fid={gap_fid:.10f} (want 9), "
          f"hand case {hand:.10f} vs closed form {closed:.10f}, "
          f"perfect={perfect} in {dt:.2f}s")
    assert abs(self_fid) <= 1e-8
    assert abs(gap_fid - 9.0) <= 1e-8
    assert abs(hand - closed) <= 1e-5
    assert perfect == 1.0
    assert dt < 1.0


def test_criterion_08_desk_training_run():
    periods = [12, 15, 18, 21, 24, 27, 30, 33]
    dataset = []
    for seed, period in enumerate(periods):
        audio, motion = feat.synth_pair(seed, 2.0, beat_period_frames=period)
        dataset.append((audio, motion))

    config = mod.ModelConfig()
    train_config = trn.TrainConfig()
    weights = mod.init_weights(config, np.random.default_rng(train_config.rng_seed))

    t0 = time.perf_counter()
    trace = trn.train(weights, dataset, train_config, config)
    minutes = (time.perf_counter() - t0) / 60.0

    first, last = trace[0][2], trace[-1][2]
    ratio = last / first
    print(f"criterion 8: {train_config.total_steps} steps in {minutes:.2f} min "
          f"(budget 10); loss {first:.4f} -> {last:.4f} (ratio {ratio:.4f}, "
          f"budget 0.20)")
    assert minutes <= 10.0
    assert ratio <= 0.20

    start = config.seed_motion_frames
    horizon = 40
    rollouts = []
    for audio, motion in dataset:
        gen = mod.autoregressive_generate(motion[:start], audio, horizon,
                                          weights, config)
        assert gen.shape == (horizon, feat.MOTION_DIMS)
        assert np.isfinite(gen).all()
        rollouts.append(gen)

    # rollouts live on frames [start, start+horizon); crop the music to match
    crops = [met.music_beats(audio[start:start + horizon])
             for audio, _ in dataset]
    true_scores, wrong_scores = [], []
    for i, gen in enumerate(rollouts):
        beats = met.motion_beats(gen)
        for j, crop in enumerate(crops):
            score = met.beat_align(beats, crop)
            (true_scores if i == j else wrong_scores).append(score)

    true_mean = float(np.mean(true_scores))
    wrong_mean = float(np.mean(wrong_scores))
    print(f"criterion 8: beat alignment, own music {true_mean:.4f} over "
          f"{len(true_scores)} rollouts vs mismatched music {wrong_mean:.4f} "
          f"over {len(wrong_scores)} pairings")
    assert true_mean > wrong_mean


def test_criterion_09_ablation_reference():
    rng = np.random.default_rng(909)
    motion = rng.standard_normal((30, feat.MOTION_DIMS))
    audio = rng.standard_normal((60, feat.AUDIO_DIMS))

    gaps = {}
    for use_spe in (False, True):
        config = mod.ModelConfig(use_spe=use_spe, use_qra=False)
        weights = mod.init_weights(config, np.random.default_rng(9))
        got = mod.predict_future(weights, config, motion, audio)
        want = oracle.reference_forward(weights, config, motion, audio)
        gaps[f"use_spe={use_spe}"] = float(np.abs(got - want).max())

    print(f"criterion 9: canonical-reference gaps {gaps} (tol 1e-10)")
    assert all(g <= 1e-10 for g in gaps.values())


_TINY_SETS = (
    "d_model=8", "heads=2", "encoder_layers=1", "decoder_layers=1",
    "periods=2", "seed_motion_frames=6", "audio_frames=9", "future_frames=2",
    "batch_size=2", "total_steps=3", "decay_steps=2:1e-5",
)


def _tiny_project(base):
    """synth -> train -> generate under base; returns produced file bytes."""
    data = base / "data"
    for idx, period in enumerate((6, 8)):
        assert cli.entry(["synth", "--out", str(data / f"p{idx}"),
                          "--seconds", "0.4", "--seed", str(idx),
                          "--beat-period", str(period)]) == 0
    argv = ["train", "--data", str(data), "--out", str(base / "run")]
    for item in _TINY_SETS:
        argv += ["--set", item]
    assert cli.entry(argv) == 0
    assert cli.entry([
        "generate", "--ckpt", str(base / "run" / "checkpoint.json"),
        "--music", str(data / "p0" / "audio.csv"),
        "--seed-motion", str(data / "p0" / "motion.csv"),
        "--frames", "6", "--out", str(base / "gen")]) == 0
    streams = ["data/p0/audio.csv", "data/p0/motion.csv", "data/p1/audio.csv",
               "data/p1/motion.csv", "gen/motion.csv"]
    names = [stream + ext for stream in streams for ext in ("", ".f64", ".meta")]
    names += ["run/loss.csv", "run/checkpoint.json", "run/checkpoint.json.f64"]
    return {name: (base / name).read_bytes() for name in names}


def test_criterion_10_run_determinism(tmp_path):
    first = _tiny_project(tmp_path / "one")
    second = _tiny_project(tmp_path / "two")
    differing = [name for name in first if first[name] != second[name]]
    total = sum(len(v) for v in first.values())
    print(f"criterion 10: {len(first)} files, {total} bytes, "
          f"byte-identical across repeated runs (differing: {differing})")
    assert differing == []
