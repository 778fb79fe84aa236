"""Command line entry points.

Subcommands: verify, synth, train, generate, eval. Every command is
deterministic given its flags; the QEAN_SEED environment variable, when
set, overrides any seed a command would otherwise use.

Exit codes:
    0  success
    1  a verification check failed
    2  usage or configuration problem (bad flags, malformed files)
    3  runtime precondition violated (short audio, shape mismatch)
    4  metric precondition violated (too few items, no beats)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import features as feat
from . import metrics as met
from . import model as mod
from . import training as trn
from .errors import (
    AudioTooShort,
    DimensionMismatch,
    EmptyMotionBeats,
    EmptyMusicBeats,
    MalformedFile,
    MetaMismatch,
    QuatMotionError,
    TooFewFrames,
    TooFewItems,
)

_USAGE_ERRORS = (MalformedFile, MetaMismatch, ValueError)
_METRIC_ERRORS = (TooFewItems, TooFewFrames, EmptyMotionBeats, EmptyMusicBeats)
# verification.PUBLIC_SUITES, spelled out so building the parser does not
# import the suites; tests/test_cli.py pins the two together
VERIFY_SUITES = ("algebra", "spe", "qra", "grad", "metrics")


def _env_seed(default: int) -> int:
    raw = os.environ.get("QEAN_SEED")
    if raw is None:
        return default
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise MalformedFile(f"QEAN_SEED must be a nonnegative integer, got {raw!r}")
    return seed


# ---------------------------------------------------------------- configs

_MODEL_FIELDS = {f.name: f.type for f in dataclasses.fields(mod.ModelConfig)}
_TRAIN_FIELDS = {f.name: f.type for f in dataclasses.fields(trn.TrainConfig)}


def _parse_value(key: str, raw: str, origin: str):
    """Convert one raw config value; errors name the key and its origin,
    "--set" or the config file it was read from."""
    raw = raw.strip()
    if key == "decay_steps":
        # "2000:1e-5,4000:1e-6"
        pairs = []
        for part in raw.split(","):
            if ":" not in part:
                raise MalformedFile(f"{origin}: decay_steps entries need step:lr, got {part!r}")
            step, lr = part.split(":", 1)
            try:
                pairs.append((int(step), float(lr)))
            except ValueError:
                raise MalformedFile(f"{origin}: decay_steps expects integer:number "
                                    f"entries, got {part!r}") from None
        return tuple(pairs)
    hint = _MODEL_FIELDS.get(key) or _TRAIN_FIELDS.get(key)
    if hint is None:
        raise MalformedFile(f"{origin}: unknown config key {key!r}")
    hint = str(hint)
    if "bool" in hint:
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise MalformedFile(f"{origin}: {key} expects a boolean, got {raw!r}")
    kind, convert = ("an integer", int) if "int" in hint else ("a number", float)
    try:
        return convert(raw)
    except ValueError:
        raise MalformedFile(f"{origin}: {key} expects {kind}, got {raw!r}") from None


def _read_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise MalformedFile(f"cannot read config {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"config {path} is not valid UTF-8: {exc}")
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise MalformedFile(f"{path}:{lineno}: expected key = value")
        key, raw = body.split("=", 1)
        out[key.strip()] = raw.strip()
    return out


def _build_configs(pairs: dict, origins: dict | None = None):
    """ModelConfig and TrainConfig from raw key -> value strings; origins
    maps a key to where its value came from (default "--set"). A config
    that rejects its values names where every one of them came from."""
    origins = origins or {}
    model_kw, train_kw = {}, {}
    for key, raw in pairs.items():
        value = _parse_value(key, raw, origins.get(key, "--set"))
        if key in _MODEL_FIELDS:
            model_kw[key] = value
        else:
            train_kw[key] = value
    configs = []
    for cls, kwargs in ((mod.ModelConfig, model_kw), (trn.TrainConfig, train_kw)):
        try:
            configs.append(cls(**kwargs))
        except (QuatMotionError, ValueError) as exc:
            named = ", ".join(dict.fromkeys(origins.get(key, "--set") for key in kwargs))
            raise type(exc)(f"{named}: {exc}") from None
    return tuple(configs)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(f"{s}:{lr:.17g}" for s, lr in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _echo_config(path: str, *configs):
    lines = []
    for config in configs:
        for f in dataclasses.fields(config):
            lines.append(f"{f.name} = {_format_value(getattr(config, f.name))}")
    feat.atomic_write(path, "\n".join(lines) + "\n")


# ------------------------------------------------------------ pair layout

def _discover_pairs(root: str) -> list:
    """A pair directory holds audio.csv + motion.csv. The data root is
    either one pair or a directory of pair subdirectories (sorted)."""
    if os.path.isfile(os.path.join(root, "audio.csv")):
        return [("", root)]
    if not os.path.isdir(root):
        raise MalformedFile(f"data directory {root} does not exist")
    found = []
    for name in sorted(os.listdir(root)):
        sub = os.path.join(root, name)
        if os.path.isfile(os.path.join(sub, "audio.csv")):
            found.append((name, sub))
    if not found:
        raise MalformedFile(f"no audio.csv found under {root}")
    return found


def _load_checked(path: str, kind: str, fps: int | None = None):
    """A stream's matrix; its sidecar must name `kind` and, when fps (the
    model's) is given, that frame rate."""
    matrix, meta = feat.load_stream(path)
    if meta.kind != kind:
        raise MetaMismatch(f"{path} is a {meta.kind} stream, need {kind}")
    if fps is not None and meta.fps != fps:
        raise MetaMismatch(f"{path} is sampled at {meta.fps} fps, but the model runs at {fps}")
    return matrix


def _load_pair(path: str, fps: int | None = None):
    audio = _load_checked(os.path.join(path, "audio.csv"), "audio", fps)
    motion = _load_checked(os.path.join(path, "motion.csv"), "motion", fps)
    return audio, motion


def _make_out_dir(path: str):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise MalformedFile(f"--out {path} cannot be made a directory: {exc.strerror}")


# ------------------------------------------------------------ subcommands

def cmd_verify(args) -> int:
    # imported here so the other commands never load the suites or the oracle
    from . import verification
    checks = verification.run(args.suite)
    print(verification.render(checks))
    return 0 if verification.all_passed(checks) else 1


def cmd_synth(args) -> int:
    seed = _env_seed(args.seed)
    audio, motion = feat.synth_pair(seed, args.seconds,
                                    beat_period_frames=args.beat_period)
    _make_out_dir(args.out)
    frames = audio.shape[0]
    feat.save_stream(os.path.join(args.out, "audio.csv"), audio,
                     feat.StreamMeta("audio", feat.FPS, frames, feat.AUDIO_DIMS))
    feat.save_stream(os.path.join(args.out, "motion.csv"), motion,
                     feat.StreamMeta("motion", feat.FPS, frames, feat.MOTION_DIMS))
    feat.atomic_write(
        os.path.join(args.out, "params.cfg"),
        f"seed = {seed}\nseconds = {args.seconds:.17g}\n"
        f"beat_period_frames = {args.beat_period}\nfps = {feat.FPS}\n")
    print(f"wrote {frames}-frame pair to {args.out}")
    return 0


def cmd_train(args) -> int:
    pairs = _read_config_file(args.config) if args.config else {}
    origins = dict.fromkeys(pairs, f"config {args.config}")
    for item in args.set or []:
        if "=" not in item:
            raise MalformedFile(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        pairs[key.strip()] = raw.strip()
        origins[key.strip()] = f"--set {item}"
    model_config, train_config = _build_configs(pairs, origins)
    if "QEAN_SEED" in os.environ:
        train_config = dataclasses.replace(train_config, rng_seed=_env_seed(0))

    dataset = [_load_pair(path, model_config.fps) for _, path in _discover_pairs(args.data)]
    weights = mod.init_weights(model_config, np.random.default_rng(train_config.rng_seed))

    _make_out_dir(args.out)
    _echo_config(os.path.join(args.out, "config_used.cfg"), model_config, train_config)
    trace = trn.train(weights, dataset, train_config, model_config,
                      loss_csv_path=os.path.join(args.out, "loss.csv"),
                      checkpoint_path=os.path.join(args.out, "checkpoint.json"))
    if trace:
        print(f"step 0 loss {trace[0][2]:.6g}; "
              f"step {trace[-1][0]} loss {trace[-1][2]:.6g}")
    print(f"wrote checkpoint and loss curve to {args.out}")
    return 0


def cmd_generate(args) -> int:
    weights, config = mod.load_checkpoint(args.ckpt)
    audio = _load_checked(args.music, "audio", config.fps)
    seed_motion = _load_checked(args.seed_motion, "motion", config.fps)
    if len(seed_motion) < config.seed_motion_frames:
        raise DimensionMismatch(
            f"{args.seed_motion} has {len(seed_motion)} frames, but the model's seed "
            f"window needs {config.seed_motion_frames}")
    needed = config.audio_frames + args.frames - 1
    if args.frames > 0 and len(audio) < needed:
        raise AudioTooShort(
            f"{args.music} has {len(audio)} frames, but {args.frames} frames with a "
            f"{config.audio_frames}-frame window need {needed}")
    _make_out_dir(args.out)

    generated = mod.autoregressive_generate(
        seed_motion[:config.seed_motion_frames], audio, args.frames, weights, config)
    feat.save_stream(os.path.join(args.out, "motion.csv"), generated,
                     feat.StreamMeta("motion", config.fps, generated.shape[0],
                                     feat.MOTION_DIMS))
    feat.atomic_write(
        os.path.join(args.out, "params.cfg"),
        f"ckpt = {args.ckpt}\nmusic = {args.music}\n"
        f"seed_motion = {args.seed_motion}\nframes = {args.frames}\n"
        f"start_frame = {config.seed_motion_frames}\n")
    print(f"wrote {generated.shape[0]} generated frames to {args.out}")
    return 0


def _feature_sets(motions):
    dyn = met.FeatureSet(np.stack([met.dynamic_features(m) for m in motions]))
    geo = met.FeatureSet(np.stack([met.geometric_features(m) for m in motions]))
    return dyn, geo


def _music_span(gen_path: str, audio, motion, audio_path: str):
    """The reference audio under a generated clip.

    A rollout's frame g sits at music frame start_frame + g, where
    `generate` records start_frame in the clip's params.cfg; a clip
    without that key is scored against the audio from frame 0.
    """
    params = os.path.join(gen_path, "params.cfg")
    if not os.path.isfile(params):
        return audio
    raw = _read_config_file(params).get("start_frame")
    if raw is None:
        return audio
    try:
        start = int(raw)
    except ValueError:
        raise MalformedFile(f"{params}: start_frame must be an integer, got {raw!r}")
    if start < 0:
        raise MalformedFile(f"{params}: start_frame must be nonnegative, got {start}")
    stop = start + len(motion)
    if stop > len(audio):
        raise AudioTooShort(
            f"{audio_path} has {len(audio)} frames, but the {len(motion)} generated "
            f"frames from start_frame {start} in {params} need {stop}")
    return audio[start:stop]


def cmd_eval(args) -> int:
    wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = set(wanted) - {"fid", "diversity", "beat"}
    if unknown:
        raise MalformedFile(f"unknown metrics: {sorted(unknown)}")

    ref_pairs = _discover_pairs(args.ref)
    ref_motions = []
    ref_audio = {}
    for name, path in ref_pairs:
        audio, motion = _load_pair(path)
        ref_motions.append(motion)
        ref_audio[name] = (audio, os.path.join(path, "audio.csv"))

    gen_motions, gen_names, gen_paths = [], [], []
    gen_root = args.gen
    if os.path.isfile(os.path.join(gen_root, "motion.csv")):
        found = [("", gen_root)]
    elif not os.path.isdir(gen_root):
        raise MalformedFile(f"--gen {gen_root} is not a directory")
    else:
        found = [(name, os.path.join(gen_root, name))
                 for name in sorted(os.listdir(gen_root))
                 if os.path.isfile(os.path.join(gen_root, name, "motion.csv"))]
        if not found:
            raise MalformedFile(f"no motion.csv found under {gen_root}")
    for name, path in found:
        motion = _load_checked(os.path.join(path, "motion.csv"), "motion")
        gen_motions.append(motion)
        gen_names.append(name)
        gen_paths.append(path)

    report = {"ref_items": len(ref_motions), "gen_items": len(gen_motions)}
    if "fid" in wanted or "diversity" in wanted:
        gen_dyn, gen_geo = _feature_sets(gen_motions)
    if "fid" in wanted:
        ref_dyn, ref_geo = _feature_sets(ref_motions)
        report["fid_k"] = report["fid_dynamic"] = met.fid(ref_dyn, gen_dyn)
        report["fid_g"] = report["fid_geometric"] = met.fid(ref_geo, gen_geo)
    if "diversity" in wanted:
        report["dist_k"] = report["diversity_dynamic"] = met.diversity(gen_dyn)
        report["dist_g"] = report["diversity_geometric"] = met.diversity(gen_geo)
    if "beat" in wanted:
        scores = []
        for name, path, motion in zip(gen_names, gen_paths, gen_motions):
            if name not in ref_audio:
                raise MalformedFile(f"generated pair {name!r} has no reference audio")
            audio, audio_path = ref_audio[name]
            music = _music_span(path, audio, motion, audio_path)
            scores.append(met.beat_align(met.motion_beats(motion), met.music_beats(music)))
        report["beat_align"] = float(np.mean(scores))

    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        try:
            feat.atomic_write(args.out, text + "\n")
        except OSError as exc:
            raise MalformedFile(f"--out {args.out} cannot be written: {exc.strerror}")
    print(text)
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatmotion",
        description="quaternion rotary attention for music-conditioned motion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant check suites")
    p.add_argument("--suite", default="all",
                   choices=("all",) + VERIFY_SUITES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="write a synthetic beat-locked pair")
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beat-period", type=int, default=30,
                   help="frames between beats")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a directory of pairs")
    p.add_argument("--config", default=None, help="flat key = value file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="roll out motion from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--music", required=True)
    p.add_argument("--seed-motion", required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="score generated motion against references")
    p.add_argument("--ref", required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--metrics", default="fid,diversity,beat")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)
    return parser


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _METRIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuatMotionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(entry())


if __name__ == "__main__":
    main()
