"""Output checks of the benchmark.

Every function here is a pure predicate over arrays the workloads
collect. None of them imports quatmotion: the references (dynamic
features, Frechet distance, diversity, beat detection and scoring) are
rebuilt from their documented formulas, so a check never copies the
program's current output. The tests plant errors into copies of real
outputs and expect each predicate to reject them.
"""

from __future__ import annotations

import math
import re

import numpy as np
import scipy.linalg
from scipy.spatial.distance import pdist

# Tolerances, also stated in README.md.
GRAD_ATOL = 1e-7
GRAD_RTOL = 1e-5
FD_STEP = 1e-6
LOSS_DROP = 0.9          # mean of the last 3 losses <= 0.9 x mean of the first 3
ROLLOUT_ATOL = 1e-9      # batched teacher-forced forward vs generated frames
METRIC_RTOL = 1e-6       # fid / diversity / beat against the own computation
METRIC_ATOL = 1e-9

FID_EPS = 1e-6           # covariance regulariser of metrics.fid's documented default
BEAT_ALPHA = 3.0         # beat kernel width in frames (metrics.DEFAULT_ALPHA)
MOTION_DIMS = 219
BEAT_CHANNEL = 34


def losses_finite(losses) -> bool:
    return len(losses) > 0 and bool(np.all(np.isfinite(np.asarray(losses, dtype=float))))


def loss_falls(losses, ratio: float = LOSS_DROP) -> bool:
    """The last three losses average well below the first three."""
    losses = np.asarray(losses, dtype=float)
    if losses.size < 6 or not np.all(np.isfinite(losses)):
        return False
    return bool(losses[-3:].mean() <= ratio * losses[:3].mean())


def traces_identical(a, b) -> bool:
    """Bit-identical (step, lr, loss) rows."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def gradient_agrees(tape, central, atol: float = GRAD_ATOL, rtol: float = GRAD_RTOL) -> bool:
    tape = np.asarray(tape, dtype=float)
    central = np.asarray(central, dtype=float)
    if tape.shape != central.shape or not np.all(np.isfinite(tape)):
        return False
    return bool(np.all(np.abs(tape - central) <= atol + rtol * np.abs(central)))


def teacher_windows(seed_motion, generated, audio, motion_frames: int, audio_frames: int):
    """Rebuild the input windows of a keep-first rollout.

    Step s sees the last motion_frames rows of seed ++ generated[:s] and
    audio rows [s, s + audio_frames).
    """
    history = np.concatenate([seed_motion, generated], axis=0)
    steps = generated.shape[0]
    motion = np.stack([history[s + seed_motion.shape[0] - motion_frames:
                               s + seed_motion.shape[0]] for s in range(steps)])
    music = np.stack([audio[s:s + audio_frames] for s in range(steps)])
    return motion, music


def rollout_reproduced(generated, batched_first, atol: float = ROLLOUT_ATOL) -> bool:
    generated = np.asarray(generated, dtype=float)
    batched_first = np.asarray(batched_first, dtype=float)
    if generated.shape != batched_first.shape or not np.all(np.isfinite(generated)):
        return False
    return bool(np.max(np.abs(generated - batched_first), initial=0.0) <= atol)


def frames_equal(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_layout(loaded: dict, expected: dict) -> bool:
    """Same tensor names with the same shapes; values are not compared."""
    return ({k: tuple(v) for k, v in loaded.items()}
            == {k: tuple(v) for k, v in expected.items()})


_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def verify_passed(exit_code: int, text: str) -> bool:
    """Exit 0, no FAIL line, and a closing `n/n checks passed` with n > 0."""
    lines = [line.strip() for line in text.strip().splitlines()]
    if exit_code != 0 or not lines or any(line.startswith("[FAIL]") for line in lines):
        return False
    match = _SUMMARY.match(lines[-1])
    if not match:
        return False
    good, total = int(match.group(1)), int(match.group(2))
    passes = sum(1 for line in lines if line.startswith("[pass]"))
    return total > 0 and good == total == passes


def close(measured: float, reference: float,
          rtol: float = METRIC_RTOL, atol: float = METRIC_ATOL) -> bool:
    return (math.isfinite(measured) and math.isfinite(reference)
            and abs(measured - reference) <= atol + rtol * abs(reference))


# -- independent metric references

def dynamic_features(motion) -> np.ndarray:
    """Velocity and acceleration mean and std over 16 evenly spread channels."""
    motion = np.asarray(motion, dtype=np.float64)
    channels = np.round(np.linspace(0, MOTION_DIMS - 1, 16)).astype(int)
    sub = motion[:, channels]
    vel = sub[1:] - sub[:-1]
    acc = vel[1:] - vel[:-1]
    return np.concatenate([vel.mean(0), vel.std(0), acc.mean(0), acc.std(0)])


def frechet_distance(a, b, eps: float = FID_EPS) -> float:
    """|mu_a - mu_b|^2 + tr(Ca + Cb - 2 (Ca Cb)^(1/2)), with eps*I added to each C."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ca = np.cov(a, rowvar=False) + eps * np.eye(a.shape[1])
    cb = np.cov(b, rowvar=False) + eps * np.eye(b.shape[1])
    root = scipy.linalg.sqrtm(ca @ cb)
    diff = a.mean(0) - b.mean(0)
    return max(float(diff @ diff + np.trace(ca + cb) - 2.0 * np.trace(root).real), 0.0)


def mean_pairwise_distance(x) -> float:
    return float(pdist(np.asarray(x, dtype=np.float64)).mean())


def motion_beat_frames(motion) -> np.ndarray:
    """Interior strict local minima of the frame-to-frame speed."""
    motion = np.asarray(motion, dtype=np.float64)
    speed = np.sqrt(((motion[1:] - motion[:-1]) ** 2).sum(axis=1))
    return np.array([t for t in range(1, speed.size - 1)
                     if speed[t] < speed[t - 1] and speed[t] < speed[t + 1]], dtype=float)


def music_beat_frames(audio) -> np.ndarray:
    return np.flatnonzero(np.asarray(audio)[:, BEAT_CHANNEL] > 0.5).astype(float)


def beat_score(motion_beats, music_beats, alpha: float = BEAT_ALPHA) -> float:
    """Mean over motion beats of exp(-d^2 / 2 alpha^2), d to the nearest music beat."""
    scores = [math.exp(-min((t - u) ** 2 for u in music_beats) / (2.0 * alpha * alpha))
              for t in motion_beats]
    return float(np.mean(scores))


def rollout_beat_score(generated, audio, start: int) -> float:
    """Beat alignment of a rollout against the music frames it covers,
    [start, start + len(generated))."""
    crop = np.asarray(audio)[start:start + len(generated)]
    return beat_score(motion_beat_frames(generated), music_beat_frames(crop))
