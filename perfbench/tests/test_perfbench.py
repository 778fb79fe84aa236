"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Tiny runs of every workload must print every metric BENCHMARK.json
names, and every output check must reject a planted error in a copy of
real program outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import quatmotion  # noqa: E402
from quatmotion import cli, features, metrics, model  # noqa: E402
from tracer import NullTracer  # noqa: E402
from workloads import TINY, CliLoop, GenerateDesk, Recorder, TrainDesk  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in section)
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in lines[:-1]), m["name"]
    assert result["correct"] is True
    with open(os.path.join(BENCH, "runs", f"{workload}-seed3-trace{trace}.json")) as fh:
        record = json.load(fh)
    # the only failing operation is cli-loop's beat_align check, once per session
    expected_failed = record["units"] if workload == "cli-loop" else 0
    assert result["failed"] == expected_failed
    assert result["attempted"] > result["failed"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", ".work", "__pycache__"))
    done = _run("train-desk", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- planted errors: each check accepts the real output and rejects a copy
#    with one error put in

def _flip_low_bit(a: np.ndarray, index) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    bits = out.view(np.uint64)
    bits[index] ^= np.uint64(1)
    return out


@pytest.fixture(scope="module")
def train_desk():
    w = TrainDesk(quatmotion, TINY, seed=5, workdir="")
    w.setup()
    return w


def test_train_checks_reject_planted_errors(train_desk):
    one, _ = train_desk._train(TINY.train_steps, NullTracer())
    two, _ = train_desk._train(TINY.train_steps, NullTracer())
    losses = [row[2] for row in one]
    assert checks.traces_identical(one, two)
    assert not checks.traces_identical(one, _flip_low_bit(np.array(two), (-1, 2)))
    assert checks.losses_finite(losses)
    assert not checks.losses_finite(losses[:-1] + [float("nan")])
    assert checks.loss_falls(losses)
    assert not checks.loss_falls(losses[::-1])


def test_gradient_check_rejects_a_planted_error(train_desk):
    tape, central = train_desk.gradients()
    assert checks.gradient_agrees(tape, central)
    planted = tape.copy()
    planted[np.argmax(np.abs(planted))] *= 1.001
    assert not checks.gradient_agrees(planted, central)


def test_rollout_checks_reject_planted_errors():
    w = GenerateDesk(quatmotion, TINY, seed=5, workdir="")
    w.setup()
    clip = w.clips[0]
    rollout, _ = w._generate(clip, TINY.rollout_frames, NullTracer())
    first, _ = w._generate(clip, 1, NullTracer())
    forced = w.teacher_forced(clip, rollout)
    assert checks.rollout_reproduced(rollout, forced)
    perturbed = rollout.copy()
    perturbed[TINY.rollout_frames // 2, 7] += 1e-6
    assert not checks.rollout_reproduced(perturbed, forced)
    assert checks.frames_equal(first[0], rollout[0])
    assert not checks.frames_equal(_flip_low_bit(first, (0, 100))[0], rollout[0])


def test_stream_check_rejects_a_flipped_bit(tmp_path):
    audio, motion = features.synth_pair(7, 0.5, beat_period_frames=16)
    path = str(tmp_path / "motion.csv")
    features.save_stream(path, motion, features.StreamMeta("motion", 60, len(motion), 219))
    loaded, _ = features.load_stream(path)
    assert checks.frames_equal(loaded, motion)
    assert not checks.frames_equal(_flip_low_bit(loaded, (3, 5)), motion)


def test_checkpoint_layout_rejects_a_dropped_tensor(tmp_path):
    config = model.ModelConfig(**TINY.model)
    weights = model.init_weights(config, np.random.default_rng(1))
    path = str(tmp_path / "checkpoint.json")
    model.save_checkpoint(path, weights, config)
    loaded, _ = model.load_checkpoint(path)
    shapes = {n: t.data.shape for n, t in loaded.items()}
    expected = {n: t.data.shape for n, t in model.init_weights(config, np.random.default_rng(0)).items()}
    assert checks.same_layout(shapes, expected)
    dropped = dict(shapes)
    dropped.pop("out.b")
    assert not checks.same_layout(dropped, expected)
    reshaped = dict(shapes, **{"out.b": (1,)})
    assert not checks.same_layout(reshaped, expected)


def test_verify_check_rejects_a_failed_line():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.entry(["verify", "--suite", "spe"])
    text = out.getvalue()
    assert checks.verify_passed(code, text)
    assert not checks.verify_passed(code, text.replace("[pass]", "[FAIL]", 1))
    assert not checks.verify_passed(1, text)
    lines = text.strip().splitlines()
    assert not checks.verify_passed(code, "\n".join(lines[1:]))


def test_distribution_references_match_and_reject_planted_values():
    rng = np.random.default_rng(2)
    motions = [features.synth_pair(int(s), 0.5, beat_period_frames=12)[1]
               for s in rng.integers(0, 1000, 6)]
    ref, gen = motions[:3], [m[5:25] for m in motions[3:]]
    own_ref = np.stack([checks.dynamic_features(m) for m in ref])
    own_gen = np.stack([checks.dynamic_features(m) for m in gen])
    assert np.allclose(own_gen, np.stack([metrics.dynamic_features(m) for m in gen]),
                       rtol=0, atol=1e-15)
    program_fid = metrics.fid(metrics.FeatureSet(own_ref), metrics.FeatureSet(own_gen))
    program_div = metrics.diversity(metrics.FeatureSet(own_gen))
    own_fid = checks.frechet_distance(own_ref, own_gen)
    own_div = checks.mean_pairwise_distance(own_gen)
    assert checks.close(program_fid, own_fid)
    assert checks.close(program_div, own_div)
    assert not checks.close(program_fid * (1 + 1e-4), own_fid)
    assert not checks.close(program_div * (1 + 1e-4), own_div)


def test_beat_reference_scores_a_perfect_continuation_one():
    audio, motion = features.synth_pair(30, 2.0, beat_period_frames=24)
    perfect = motion[30:90]
    own = checks.rollout_beat_score(perfect, audio, 30)
    assert own == 1.0
    # the same motion scored against uncropped music, as eval does today
    uncropped = checks.beat_score(checks.motion_beat_frames(perfect),
                                  checks.music_beat_frames(audio))
    assert uncropped == pytest.approx(np.exp(-2.0))
    assert not checks.close(uncropped, own)
    shifted = checks.rollout_beat_score(motion[33:93], audio, 30)
    assert not checks.close(shifted, own)


def test_cli_session_records_the_beat_fault_and_nothing_else(tmp_path):
    w = CliLoop(quatmotion, TINY, seed=5, workdir=str(tmp_path / "work"))
    w.setup()
    rec = Recorder()
    try:
        w.round(rec, NullTracer())
    finally:
        w.cleanup()
    assert rec.unexpected == []
    assert rec.failed == 1
    assert not os.path.exists(tmp_path / "work")
