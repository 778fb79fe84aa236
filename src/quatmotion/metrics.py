"""Evaluation suite: FID over motion features, diversity, beat alignment.

Two feature extractors feed the distribution metrics: a dynamic one
(velocity/acceleration statistics, 64-dim) and a geometric one (32 fixed
boolean predicates). FID is the Frechet distance between Gaussians fitted
to two feature sets. Beat alignment scores each motion beat (a strict
local minimum of frame-to-frame velocity) by a Gaussian kernel of its
distance to the nearest music beat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ChannelMismatch, DimensionMismatch, EmptyMotionBeats,
                     EmptyMusicBeats, TooFewFrames, TooFewItems)
from .features import AUDIO_DIMS, BEAT_CHANNEL, MOTION_DIMS
from .numerics import sym_sqrt

# beat_align's kernel width in frames
DEFAULT_ALPHA = 3.0
# ridge added to each fitted covariance before fid's matrix square roots
FID_EPS = 1e-6

# Channel subsample for the dynamic extractor: 16 indices spread evenly
# over the 219 channels, frozen so features are comparable across runs.
DYNAMIC_CHANNELS = np.round(np.linspace(0, MOTION_DIMS - 1, 16)).astype(int)


@dataclass
class FeatureSet:
    """items x dim matrix of per-sequence feature vectors."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise DimensionMismatch(f"FeatureSet needs a 2-D matrix, got {self.vectors.shape}")

    @property
    def items(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class BeatTimeline:
    """Strictly increasing frame indices of detected beats."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.int64).reshape(-1)
        if self.frames.size > 1 and np.any(np.diff(self.frames) <= 0):
            raise ValueError("beat frames must be strictly increasing")

    def __len__(self):
        return self.frames.size


def dynamic_features(motion) -> np.ndarray:
    """Velocity/acceleration mean + std over the fixed channel subsample.

    Concatenation order: velocity mean, velocity std, acceleration mean,
    acceleration std; 4 x 16 = 64 entries.
    """
    motion = np.asarray(motion, dtype=np.float64)
    if motion.ndim != 2 or motion.shape[1] != MOTION_DIMS:
        raise DimensionMismatch(f"motion must have shape (frames, {MOTION_DIMS})")
    if motion.shape[0] < 3:
        raise TooFewFrames(f"dynamic features need >= 3 frames, got {motion.shape[0]}")
    sub = motion[:, DYNAMIC_CHANNELS]
    vel = np.diff(sub, axis=0)
    acc = np.diff(vel, axis=0)
    return np.concatenate([vel.mean(axis=0), vel.std(axis=0),
                           acc.mean(axis=0), acc.std(axis=0)])


# The geometric extractor is a fixed list of 32 boolean predicates over
# per-sequence statistics. Every predicate is false on all-zero motion.
_TRACE_JOINTS = tuple(range(12))  # rotation-trace tests for joints 0..11
_VELOCITY_CHANNELS = (0, 30, 60, 90, 120, 150, 180, 210)


def geometric_features(motion) -> np.ndarray:
    """32 fixed boolean predicates on the sequence, as reals in {0, 1}.

    Layout:
      0-2   mean translation x/y/z > 0
      3     mean translation norm > 0.1
      4-6   translation x/y/z range > 0.5
      7     total translation path length > 1
      8-19  mean rotation-matrix trace of joints 0..11 > 2.5
      20-27 |velocity| of 8 fixed channels above its own median on > 50% of frames
      28    mean |rotation channels| > 0.5
      29    std of translation norm > 0.05
      30    mean frame-to-frame velocity (all channels) > 0.01
      31    max |entry| > 2
    """
    motion = np.asarray(motion, dtype=np.float64)
    if motion.ndim != 2 or motion.shape[1] != MOTION_DIMS:
        raise DimensionMismatch(f"geometric features need (frames, {MOTION_DIMS})")
    if motion.shape[0] < 1:
        raise TooFewFrames("geometric features need >= 1 frame")
    out = np.zeros(32, dtype=np.float64)
    trans = motion[:, 216:219]

    out[0:3] = trans.mean(axis=0) > 0
    norms = np.linalg.norm(trans, axis=1)
    out[3] = norms.mean() > 0.1
    out[4:7] = (trans.max(axis=0) - trans.min(axis=0)) > 0.5
    if motion.shape[0] > 1:
        steps = np.linalg.norm(np.diff(trans, axis=0), axis=1)
        out[7] = steps.sum() > 1.0

    for i, j in enumerate(_TRACE_JOINTS):
        block = motion[:, 9 * j:9 * j + 9]
        trace = block[:, 0] + block[:, 4] + block[:, 8]
        out[8 + i] = trace.mean() > 2.5

    if motion.shape[0] > 1:
        diffs = np.abs(np.diff(motion, axis=0))
        for i, c in enumerate(_VELOCITY_CHANNELS):
            med = np.median(diffs[:, c])
            out[20 + i] = (diffs[:, c] > med).mean() > 0.5
        out[30] = np.linalg.norm(np.diff(motion, axis=0), axis=1).mean() > 0.01

    out[28] = np.abs(motion[:, :216]).mean() > 0.5
    out[29] = norms.std() > 0.05
    out[31] = np.abs(motion).max() > 2.0
    return out


def _mean_cov(vectors: np.ndarray):
    mu = vectors.mean(axis=0)
    cov = np.atleast_2d(np.cov(vectors, rowvar=False))
    return mu, cov + FID_EPS * np.eye(cov.shape[0])


def fid(a: FeatureSet, b: FeatureSet) -> float:
    """Frechet distance between Gaussians fitted to the two sets, each
    covariance regularised by FID_EPS * I."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"feature dims differ: {a.dim} vs {b.dim}")
    if a.items < 2 or b.items < 2:
        raise TooFewItems("fid needs at least 2 items per set")
    mu_a, cov_a = _mean_cov(a.vectors)
    mu_b, cov_b = _mean_cov(b.vectors)
    root_a = sym_sqrt(cov_a)
    inner = root_a @ cov_b @ root_a
    inner = 0.5 * (inner + inner.T)  # exact symmetry can be lost to roundoff
    cross = sym_sqrt(inner)
    diff = mu_a - mu_b
    value = float(diff @ diff + np.trace(cov_a + cov_b - 2.0 * cross))
    return max(value, 0.0)


def diversity(s: FeatureSet) -> float:
    """Mean pairwise Euclidean distance over all unordered pairs."""
    if s.items < 2:
        raise TooFewItems("diversity needs at least 2 items")
    x = s.vectors
    deltas = x[:, None, :] - x[None, :, :]
    dists = np.sqrt((deltas * deltas).sum(axis=-1))
    iu = np.triu_indices(s.items, k=1)
    return float(dists[iu].mean())


def velocity_profile(motion) -> np.ndarray:
    """v[t] = Euclidean norm of the step out of frame t, length frames - 1."""
    motion = np.asarray(motion, dtype=np.float64)
    return np.linalg.norm(np.diff(motion, axis=0), axis=1)


def motion_beats(motion) -> BeatTimeline:
    """Strict local minima of the velocity profile (interior only)."""
    motion = np.asarray(motion, dtype=np.float64)
    if motion.ndim != 2:
        raise DimensionMismatch(f"motion must be 2-D, got shape {motion.shape}")
    if motion.shape[0] < 3:
        raise TooFewFrames(f"motion beats need >= 3 frames, got {motion.shape[0]}")
    v = velocity_profile(motion)
    hits = np.where((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:]))[0] + 1
    return BeatTimeline(frames=hits)


def music_beats(audio) -> BeatTimeline:
    """Frames whose one-hot beat channel exceeds 0.5."""
    audio = np.asarray(audio, dtype=np.float64)
    if audio.ndim != 2 or audio.shape[1] != AUDIO_DIMS:
        raise ChannelMismatch(f"audio must have {AUDIO_DIMS} channels, got shape {audio.shape}")
    return BeatTimeline(frames=np.where(audio[:, BEAT_CHANNEL] > 0.5)[0])


def beat_align(motion_b: BeatTimeline, music_b: BeatTimeline) -> float:
    """Mean Gaussian kernel of each motion beat's distance to the nearest
    music beat: (1/|Bm|) sum_i exp(-min_j (ti - tj)^2 / (2 alpha^2)), with
    alpha = DEFAULT_ALPHA frames.

    Unidirectional: music beats with no nearby motion beat cost nothing,
    but at least one beat is required on each side.
    """
    if len(motion_b) == 0:
        raise EmptyMotionBeats("beat alignment is undefined without motion beats")
    if len(music_b) == 0:
        raise EmptyMusicBeats("beat alignment is undefined without music beats")
    mo = motion_b.frames.astype(np.float64)
    mu = music_b.frames.astype(np.float64)
    nearest_sq = np.min((mo[:, None] - mu[None, :]) ** 2, axis=1)
    return float(np.exp(-nearest_sq / (2.0 * DEFAULT_ALPHA * DEFAULT_ALPHA)).mean())
