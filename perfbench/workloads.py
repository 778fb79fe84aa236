"""The three workloads: train-desk, generate-desk and cli-loop.

Each workload builds its inputs from the run seed in `setup`, then runs
whole rounds. A round is a fixed list of timed calls into quatmotion
followed by the output checks; every timed call and every check counts
as one operation. Timed calls read the tracer's clock inside a
`Recorder.calibrated()` group; the instrumentation itself lives in
tracer.py and the reference kernel in calibration.py.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
from collections import defaultdict

import numpy as np

import calibration
import checks
from tracer import NullTracer

# criterion 8's data: eight pairs with these beat periods
TRAIN_PERIODS = (12, 15, 18, 21, 24, 27, 30, 33)
GENERATE_PERIODS = (14, 20, 26, 33)
CLI_PERIODS = (16, 24, 28)          # none divides the 30-frame seed window
# fixed, seed-independent inputs of the beat_align check (seed, period)
BEAT_PAIRS = ((30, 24), (30, 18))
BEAT_FRAMES = 60


@dataclasses.dataclass(frozen=True)
class Size:
    model: dict              # ModelConfig overrides; empty is the desk config
    train_steps: int         # steps per timed train call
    lr_init: float | None    # None keeps TrainConfig's desk default
    pair_seconds: float
    fd_batch: int
    fd_coords: int
    rollout_frames: int      # frames per timed rollout
    cli_steps: int
    cli_frames: int


DESK = Size(model={}, train_steps=10, lr_init=None, pair_seconds=2.0, fd_batch=2, fd_coords=4,
            rollout_frames=30, cli_steps=2, cli_frames=20)
TINY = Size(model=dict(d_model=16, heads=2, encoder_layers=1, decoder_layers=1,
                       seed_motion_frames=12, audio_frames=24, future_frames=3),
            train_steps=10, lr_init=3e-3, pair_seconds=1.0, fd_batch=2, fd_coords=2,
            rollout_frames=6, cli_steps=1, cli_frames=6)
SIZES = {"desk": DESK, "tiny": TINY}


class Recorder:
    """Samples of the end-to-end timings plus the operation tally.

    Timed calls run inside `calibrated()`, which brackets them with the
    calibration kernel (see calibration.py): `samples` holds each raw
    time scaled by NOMINAL_S over the mean of the kernel times before and
    after, `raw` keeps the plain wall-clock values. Back-to-back groups
    share the kernel run between them.
    """

    def __init__(self):
        self.samples = defaultdict(list)
        self.raw = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.unexpected = []     # failed operations other than the known fault
        self.units = 0
        self.scales = []         # the calibration factor of every group
        self._kernel = None      # the last kernel time, while groups run back to back

    def start_round(self):
        self._kernel = None

    def _kernel_now(self) -> float:
        seconds = calibration.kernel_seconds()
        self.raw["calibration_kernel_s"].append(seconds)
        return seconds

    @contextlib.contextmanager
    def calibrated(self):
        before = self._kernel if self._kernel is not None else self._kernel_now()
        group = _Group()
        yield group
        self._kernel = self._kernel_now()
        group.scale = calibration.NOMINAL_S / (0.5 * (before + self._kernel))
        self.scales.append(group.scale)
        for metric, raw in group:
            self.add(metric, raw, raw * group.scale)

    def add(self, metric: str, raw: float, calibrated: float):
        self.raw[metric].append(raw)
        self.samples[metric].append(calibrated)

    def op(self, name: str, ok: bool, known_fault: bool = False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault:
                self.unexpected.append(name)

    def check(self, name: str, predicate, known_fault: bool = False):
        try:
            ok = bool(predicate())
        except Exception as exc:  # a crashing check is a failed operation
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        self.op(name, ok, known_fault)


class _Group(list):
    """(metric, raw value) pairs timed between two kernel runs."""

    scale = 1.0

    def sample(self, metric: str, raw: float):
        self.append((metric, raw))


def _pair_seeds(seed: int, stream: int, count: int) -> list:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


class TrainDesk:
    """training.train at batch 8 on criterion 8's eight pairs."""

    name = "train-desk"
    unit = "train step"

    def __init__(self, pkg, size: Size, seed: int, workdir: str):
        self.pkg, self.size, self.seed = pkg, size, seed

    def setup(self):
        pkg, size = self.pkg, self.size
        seeds = _pair_seeds(self.seed, 1, len(TRAIN_PERIODS))
        self.dataset = [pkg.features.synth_pair(s, size.pair_seconds, beat_period_frames=p)
                        for s, p in zip(seeds, TRAIN_PERIODS)]
        self.config = pkg.model.ModelConfig(**size.model)
        self.initial = pkg.model.init_weights(self.config, np.random.default_rng(self.seed))
        self.fd_batch, self.fd_coords = self._fd_inputs()

    def _fd_inputs(self):
        c = self.config
        rng = np.random.default_rng([self.seed, 4])
        span = max(c.audio_frames, c.seed_motion_frames + c.future_frames)
        motion, audio, target = [], [], []
        for _ in range(self.size.fd_batch):
            a, m = self.dataset[int(rng.integers(len(self.dataset)))]
            off = int(rng.integers(0, a.shape[0] - span + 1))
            motion.append(m[off:off + c.seed_motion_frames])
            audio.append(a[off:off + c.audio_frames])
            start = off + c.seed_motion_frames
            target.append(m[start:start + c.future_frames])
        names = sorted(self.initial)
        coords = []
        for _ in range(self.size.fd_coords):
            name = names[int(rng.integers(len(names)))]
            coords.append((name, int(rng.integers(self.initial[name].data.size))))
        return (np.stack(motion), np.stack(audio), np.stack(target)), coords

    def _fresh(self) -> dict:
        Tensor = self.pkg.autograd.Tensor
        return {n: Tensor(t.data.copy(), requires_grad=True) for n, t in self.initial.items()}

    def _train(self, steps: int, tracer):
        pkg = self.pkg
        weights = self._fresh()
        rate = {} if self.size.lr_init is None else {"lr_init": self.size.lr_init}
        config = pkg.training.TrainConfig(total_steps=steps, rng_seed=self.seed, **rate)
        with tracer.installed():
            t0 = tracer.now()
            trace = pkg.training.train(weights, self.dataset, config, self.config)
            elapsed = tracer.now() - t0
        return trace, elapsed

    def warmup(self):
        self._train(1, NullTracer())

    def round(self, rec: Recorder, tracer):
        steps = self.size.train_steps
        traces = []
        for _ in range(2):
            with rec.calibrated() as group:
                trace, elapsed = self._train(steps, tracer)
                group.sample("op_ms", 1e3 * elapsed / steps)
            rec.op("training.train", len(trace) == steps)
            rec.units += steps
            traces.append(trace)
        for _ in range(2):
            with rec.calibrated() as group:
                trace, elapsed = self._train(1, tracer)
                group.sample("first_op_ms", 1e3 * elapsed)
            rec.op("training.train one step", len(trace) == 1)
            rec.units += 1
        losses = [row[2] for row in traces[0]]
        rec.check("losses finite",
                  lambda: all(checks.losses_finite([r[2] for r in t]) for t in traces))
        rec.check("loss falls", lambda: checks.loss_falls(losses))
        rec.check("two calls from one seed agree", lambda: checks.traces_identical(*traces))
        rec.check("tape gradient vs central differences",
                  lambda: checks.gradient_agrees(*self.gradients()))

    def gradients(self):
        """Tape gradient and central differences at the chosen coordinates."""
        pkg = self.pkg
        weights = self._fresh()
        motion, audio, target = self.fd_batch
        loss = pkg.training.l2_loss(pkg.model.forward(weights, self.config, motion, audio), target)
        loss.backward()
        tape, central = [], []
        for name, i in self.fd_coords:
            grad = weights[name].grad
            tape.append(0.0 if grad is None else grad.reshape(-1)[i])
            flat = weights[name].data.reshape(-1)
            old = flat[i]
            values = []
            for shifted in (old + checks.FD_STEP, old - checks.FD_STEP):
                flat[i] = shifted
                pred = pkg.model.forward(weights, self.config, motion, audio).data
                values.append(pkg.training.l2_loss(pred, target))
            flat[i] = old
            central.append((values[0] - values[1]) / (2.0 * checks.FD_STEP))
        return np.array(tape), np.array(central)

    def cleanup(self):
        pass


class GenerateDesk:
    """Keep-first rollouts at B=1 with desk weights, plus one-frame rollouts."""

    name = "generate-desk"
    unit = "generated frame"

    def __init__(self, pkg, size: Size, seed: int, workdir: str):
        self.pkg, self.size, self.seed = pkg, size, seed

    def setup(self):
        pkg, size = self.pkg, self.size
        self.config = pkg.model.ModelConfig(**size.model)
        seconds = max(size.pair_seconds, (self.config.audio_frames + size.rollout_frames)
                      / self.config.fps)
        seeds = _pair_seeds(self.seed, 2, len(GENERATE_PERIODS))
        self.clips = [pkg.features.synth_pair(s, seconds, beat_period_frames=p)
                      for s, p in zip(seeds, GENERATE_PERIODS)]
        self.weights = pkg.model.init_weights(self.config, np.random.default_rng(self.seed))

    def _generate(self, clip, frames: int, tracer):
        audio, motion = clip
        seed_motion = motion[:self.config.seed_motion_frames]
        with tracer.installed():
            t0 = tracer.now()
            out = self.pkg.model.autoregressive_generate(seed_motion, audio, frames,
                                                         self.weights, self.config)
            elapsed = tracer.now() - t0
        return out, elapsed

    def warmup(self):
        self._generate(self.clips[0], 2, NullTracer())

    def round(self, rec: Recorder, tracer):
        frames = self.size.rollout_frames
        rollouts, firsts = [], []
        for clip in self.clips:
            # the one-frame rollout follows the long one, so it runs warm
            with rec.calibrated() as group:
                rollout, elapsed = self._generate(clip, frames, tracer)
                group.sample("op_ms", 1e3 * elapsed / frames)
                first, elapsed = self._generate(clip, 1, tracer)
                group.sample("first_op_ms", 1e3 * elapsed)
            rec.op("autoregressive_generate", rollout.shape[0] == frames)
            rec.op("autoregressive_generate one frame", first.shape[0] == 1)
            rec.units += frames + 1
            rollouts.append(rollout)
            firsts.append(first)
        for clip, rollout, first in zip(self.clips, rollouts, firsts):
            rec.check("batched forward reproduces the rollout",
                      lambda: checks.rollout_reproduced(rollout, self.teacher_forced(clip, rollout)))
            rec.check("one-frame rollout is frame 0", lambda: checks.frames_equal(first[0], rollout[0]))

    def teacher_forced(self, clip, rollout) -> np.ndarray:
        audio, motion = clip
        c = self.config
        windows = checks.teacher_windows(motion[:c.seed_motion_frames], rollout, audio,
                                         c.seed_motion_frames, c.audio_frames)
        return self.pkg.model.forward(self.weights, c, *windows).data[:, 0, :]

    def cleanup(self):
        pass


class CliLoop:
    """One in-process command line session on files, repeated per round."""

    name = "cli-loop"
    unit = "cli session"

    def __init__(self, pkg, size: Size, seed: int, workdir: str):
        self.pkg, self.size, self.seed = pkg, size, seed
        self.root = workdir
        self.sets = [f"{k}={v}" for k, v in size.model.items()]
        self.session = []        # (raw, calibrated) seconds of each command this session

    def _path(self, *parts) -> str:
        return os.path.join(self.root, *parts)

    def setup(self):
        pkg = self.pkg
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.config = pkg.model.ModelConfig(**self.size.model)
        self.pair_seeds = _pair_seeds(self.seed, 3, len(CLI_PERIODS) + 1)
        self.train_seed = self.pair_seeds.pop()
        feat = pkg.features
        start = self.config.seed_motion_frames
        self.beat_refs = []
        for seed, period in BEAT_PAIRS:
            name = f"b{period}"
            audio, motion = feat.synth_pair(seed, (start + BEAT_FRAMES + 1) / feat.FPS,
                                            beat_period_frames=period)
            ref, gen = self._path("beat", "ref", name), self._path("beat", "gen", name)
            os.makedirs(ref)
            os.makedirs(gen)
            feat.save_stream(os.path.join(ref, "audio.csv"), audio,
                             feat.StreamMeta("audio", feat.FPS, len(audio), feat.AUDIO_DIMS))
            feat.save_stream(os.path.join(ref, "motion.csv"), motion,
                             feat.StreamMeta("motion", feat.FPS, len(motion), feat.MOTION_DIMS))
            # a perfect continuation: the true frames a rollout would produce
            perfect = motion[start:start + BEAT_FRAMES]
            feat.save_stream(os.path.join(gen, "motion.csv"), perfect,
                             feat.StreamMeta("motion", feat.FPS, len(perfect), feat.MOTION_DIMS))
            self.beat_refs.append((audio, perfect))

    def _cli(self, rec: Recorder, tracer, command: str, *argv, first: bool = False) -> tuple:
        """Run one command, adding its time to the session; returns exit code and output.
        `first` marks a one-frame generate, timed as first_op_ms."""
        out = io.StringIO()
        with rec.calibrated() as group:
            with tracer.installed(), tracer.span(f"cli.{command}"):
                t0 = tracer.now()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = self.pkg.cli.entry([command, *argv])
                elapsed = tracer.now() - t0
            group.sample(f"cli.{command}_s", elapsed)
            if first:
                group.sample("first_op_ms", 1e3 * elapsed)
        rec.op(f"cli {command}", code == 0)
        self.session.append((elapsed, elapsed * group.scale))
        return code, out.getvalue()

    def warmup(self):
        self._cli(Recorder(), NullTracer(), "verify", "--suite", "spe")

    def round(self, rec: Recorder, tracer):
        for sub in ("data", "gen", "first", "run"):
            shutil.rmtree(self._path(sub), ignore_errors=True)
        size, p = self.size, self._path
        pairs = [(f"p{i}", s, period)
                 for i, (s, period) in enumerate(zip(self.pair_seeds, CLI_PERIODS))]
        self.session = []
        for name, seed, period in pairs:
            self._cli(rec, tracer, "synth", "--out", p("data", name),
                      "--seconds", f"{size.pair_seconds}", "--seed", str(seed),
                      "--beat-period", str(period))
        sets = self.sets + [f"total_steps={size.cli_steps}", f"rng_seed={self.train_seed}"]
        self._cli(rec, tracer, "train", "--data", p("data"), "--out", p("run"),
                  *[arg for s in sets for arg in ("--set", s)])
        ckpt = p("run", "checkpoint.json")
        for out_dir, frames in (("gen", size.cli_frames), ("first", 1)):
            for name, _, _ in pairs:
                self._cli(rec, tracer, "generate", "--ckpt", ckpt,
                          "--music", p("data", name, "audio.csv"),
                          "--seed-motion", p("data", name, "motion.csv"),
                          "--frames", str(frames), "--out", p(out_dir, name),
                          first=frames == 1)
        self._cli(rec, tracer, "eval", "--ref", p("data"), "--gen", p("gen"),
                  "--metrics", "fid,diversity", "--out", p("report.json"))
        self._cli(rec, tracer, "eval", "--ref", p("beat", "ref"), "--gen", p("beat", "gen"),
                  "--metrics", "beat", "--out", p("beat.json"))
        verified = [(suite, *self._cli(rec, tracer, "verify", "--suite", suite))
                    for suite in self.pkg.verification.PUBLIC_SUITES]
        raw, calibrated = (sum(column) for column in zip(*self.session))
        rec.add("op_ms", 1e3 * raw, 1e3 * calibrated)
        rec.units += 1
        self._checks(rec, pairs, verified)

    def _checks(self, rec: Recorder, pairs, verified):
        pkg, p = self.pkg, self._path
        load = pkg.features.load_stream
        for name, seed, period in pairs:
            def streams_match(name=name, seed=seed, period=period):
                audio, motion = pkg.features.synth_pair(seed, self.size.pair_seconds,
                                                        beat_period_frames=period)
                return (checks.frames_equal(load(p("data", name, "audio.csv"))[0], audio)
                        and checks.frames_equal(load(p("data", name, "motion.csv"))[0], motion))
            rec.check(f"stream {name} reads back bit-identical", streams_match)
            rec.check(f"one-frame generate {name} is frame 0",
                      lambda name=name: checks.frames_equal(
                          load(p("first", name, "motion.csv"))[0][0],
                          load(p("gen", name, "motion.csv"))[0][0]))
        rec.check("loss.csv rows finite", self._loss_rows_finite)
        rec.check("checkpoint layout", self._checkpoint_layout)
        rec.check("fid_dynamic and diversity_dynamic", lambda: self._distribution_metrics(pairs))
        # fails until eval crops the reference music to the generated frames
        rec.check("beat_align on the frames the rollout covers", self._beat_align,
                  known_fault=True)
        for suite, code, text in verified:
            rec.check(f"verify {suite} all passed", lambda c=code, t=text: checks.verify_passed(c, t))

    def _loss_rows_finite(self) -> bool:
        with open(self._path("run", "loss.csv")) as fh:
            rows = fh.read().split()
        losses = [float(row.split(",")[2]) for row in rows[1:]]
        return (rows[0] == "step,lr,loss" and len(losses) == self.size.cli_steps
                and checks.losses_finite(losses))

    def _checkpoint_layout(self) -> bool:
        model = self.pkg.model
        weights, config = model.load_checkpoint(self._path("run", "checkpoint.json"))
        expected = model.init_weights(config, np.random.default_rng(0))
        return (config == self.config
                and checks.same_layout({n: t.data.shape for n, t in weights.items()},
                                       {n: t.data.shape for n, t in expected.items()}))

    def _distribution_metrics(self, pairs) -> bool:
        load = self.pkg.features.load_stream
        ref = np.stack([checks.dynamic_features(load(self._path("data", n, "motion.csv"))[0])
                        for n, _, _ in pairs])
        gen = np.stack([checks.dynamic_features(load(self._path("gen", n, "motion.csv"))[0])
                        for n, _, _ in pairs])
        with open(self._path("report.json")) as fh:
            report = json.load(fh)
        return (checks.close(report["fid_dynamic"], checks.frechet_distance(ref, gen))
                and checks.close(report["diversity_dynamic"], checks.mean_pairwise_distance(gen)))

    def _beat_align(self) -> bool:
        with open(self._path("beat.json")) as fh:
            report = json.load(fh)
        start = self.config.seed_motion_frames
        own = np.mean([checks.rollout_beat_score(perfect, audio, start)
                       for audio, perfect in self.beat_refs])
        return checks.close(report["beat_align"], float(own))

    def cleanup(self):
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TrainDesk, GenerateDesk, CliLoop)}
