"""Benchmark of quatmotion: train-desk, generate-desk and cli-loop.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics, with --trace 1 the per-layer metrics from an
instrumented run. Both carry the operations attempted and failed. A
fuller record of the run goes to perfbench/runs/.
"""

from __future__ import annotations

import os

# One BLAS thread, as in the test suite: the desk matrices are small,
# and a second thread mostly adds run-to-run noise on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QEAN_SEED", None)  # it would override the seeds the benchmark picks

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 7
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import quatmotion.cli"
# share of a traced run spent untraced, to measure the tracing overhead
UNTRACED_SHARE = 1.0 / 3.0

# the traced pieces of a train step, which should add up to train.step_ms
STEP_PARTS = ("sample_windows", "forward", "loss", "backward", "adam", "step_other")

# the end-to-end metrics under the names each workload gives them
ALIASES = {
    "train-desk": {"op_ms": ("train.step_ms", 1.0, "ms"),
                   "first_op_ms": ("train.first_step_ms", 1.0, "ms")},
    "generate-desk": {"op_ms": ("generate.ms_per_frame", 1.0, "ms"),
                      "first_op_ms": ("generate.first_frame_ms", 1.0, "ms")},
    "cli-loop": {"op_ms": ("cli.loop_s", 1e-3, "s"),
                 "first_op_ms": ("cli.first_frame_s", 1e-3, "s")},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-desk", "generate-desk", "cli-loop"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("desk", "tiny"), default="desk",
                   help="tiny shrinks every workload for the benchmark's own tests")
    return p.parse_args(argv)


def import_package():
    """Import quatmotion from ./src of this checkout, or return None."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "quatmotion", "__init__.py")):
        return None
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    pkg = importlib.import_module("quatmotion")
    for sub in ("autograd", "cli", "features", "metrics", "model", "qra", "quaternion",
                "training", "verification"):
        importlib.import_module(f"quatmotion.{sub}")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        return None
    return pkg


def import_seconds() -> float:
    """Wall time of importing the package in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src")],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def per_layer_metrics(summary, units: int, scale: float, overhead_pct: float) -> dict:
    """Every per-layer figure, per workload unit unless the name says otherwise.

    Times are scaled by the median calibration factor of the traced
    rounds, like the end-to-end times.
    """
    from tracer import AUTOGRAD_OPS

    s = summary
    per = 1e3 * scale / units
    train, gen = "training.train", "model.autoregressive_generate"
    frames = s.payload(gen, gen)
    out = {
        "training.sample_windows_ms": (per * s.total("training.sample_windows"), "ms"),
        "training.forward_ms": (per * s.total("model.forward", train), "ms"),
        "training.loss_ms": (per * s.total("training.l2_loss", train), "ms"),
        "training.backward_ms": (per * s.total("Tensor.backward", train), "ms"),
        "training.adam_ms": (per * s.total("training.adam_step"), "ms"),
        "training.step_other_ms": (per * s.self_time(train), "ms"),
        "model.embed_ms": (per * s.total("model._embed"), "ms"),
        "model.encoder_motion_ms": (per * s.total("model._encode.motion"), "ms"),
        "model.encoder_audio_ms": (per * s.total("model._encode.audio"), "ms"),
        "model.decoder_ms": (per * s.total("model._decode"), "ms"),
        "model.decoder_canonical_ms": (per * s.side_s["model.decoder_canonical"], "ms"),
        "generate.forward_calls_per_frame":
            (s.calls("model.forward", gen) / frames if frames else 0.0, "count"),
        "generate.audio_frames_encoded_per_frame":
            (s.payload("model._encode.audio", gen) / frames if frames else 0.0, "count"),
    }
    for op in AUTOGRAD_OPS:
        out[f"autograd.{op}.fwd_ms"] = (per * s.total(f"autograd.{op}"), "ms")
        out[f"autograd.{op}.vjp_ms"] = (per * s.total(f"autograd.{op}.vjp"), "ms")
        out[f"autograd.{op}.calls"] = (s.calls(f"autograd.{op}") / units, "count")
    flop = s.counters["autograd.matmul.flop"] + s.counters["autograd.matmul.vjp.flop"]
    out.update({
        "autograd.tape_nodes": (s.counters["autograd.tape_nodes"] / units, "count"),
        "autograd.backward_walk_ms": (per * s.self_time("Tensor.backward"), "ms"),
        "autograd.matmul.gflop": (flop / 1e9 / units, "GFLOP"),
        "quaternion.slot_rotate_ms": (per * s.total("quaternion.slot_rotate"), "ms"),
        "quaternion.slot_rotate.calls": (s.calls("quaternion.slot_rotate") / units, "count"),
        "features.synth_pair_ms": (per * s.total("features.synth_pair"), "ms"),
        "features.save_stream_ms": (per * s.total("features.save_stream"), "ms"),
        "features.load_stream_ms": (per * s.total("features.load_stream"), "ms"),
        "features.stream_bytes": (s.payload("features.save_stream") / units, "bytes"),
        "model.save_checkpoint_ms": (per * s.total("model.save_checkpoint"), "ms"),
        "model.load_checkpoint_ms": (per * s.total("model.load_checkpoint"), "ms"),
        "model.checkpoint_bytes": (s.payload("model.save_checkpoint") / units, "bytes"),
    })
    for name in ("dynamic_features", "geometric_features", "fid", "diversity", "beat"):
        out[f"metrics.{name}_ms"] = (per * s.total(f"metrics.{name}"), "ms")
    for suite in ("algebra", "spe", "qra", "grad", "metrics"):
        out[f"verification.{suite}_ms"] = (per * s.total(f"verification.{suite}"), "ms")
    out["qra.qra_attention_ms"] = (per * s.total("qra.qra_attention"), "ms")
    for command in ("synth", "train", "generate", "eval", "verify"):
        out[f"cli.{command}_s"] = (scale * s.total(f"cli.{command}") / units, "s")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def timing_stats(values) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    values = sorted(values)
    stats = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 40:
        q = 1.0 - 10.0 / len(values)
        stats[f"p{int(100 * q)}"] = values[int(q * (len(values) - 1))]
    return stats


def environment(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # show_config's layout differs across numpy versions
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "cores": len(os.sched_getaffinity(0))}


def run_rounds(workload, rec, tracer, until: float, start: float):
    """Whole rounds, at least one, until `until` seconds after `start`."""
    while True:
        rec.start_round()
        workload.round(rec, tracer)
        if time.perf_counter() - start >= until:
            return


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = import_package()
    if pkg is None:
        print(f"error: no quatmotion sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    import numpy as np
    from tracer import NullTracer, Tracer
    from workloads import SIZES, WORKLOADS, Recorder

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](pkg, SIZES[args.size], args.seed, workdir)
    rec = Recorder()
    tracer = None
    try:
        for _ in range(SETUP_REPEATS):
            with rec.calibrated() as group:
                cold = import_seconds()
                t0 = time.perf_counter()
                workload.setup()
                group.sample("setup_s", cold + time.perf_counter() - t0)
        workload.warmup()
        start = time.perf_counter()
        if args.trace:
            run_rounds(workload, rec, NullTracer(), UNTRACED_SHARE * args.seconds, start)
            plain_ops, plain_units = list(rec.samples["op_ms"]), rec.units
            plain_groups = len(rec.scales)
            tracer = Tracer(pkg)
            run_rounds(workload, rec, tracer, args.seconds, start)
            traced_ops = rec.samples["op_ms"][len(plain_ops):]
        else:
            run_rounds(workload, rec, NullTracer(), args.seconds, start)
        measured = time.perf_counter() - start
    finally:
        workload.cleanup()

    if args.trace:
        overhead = 100.0 * (statistics.median(traced_ops) / statistics.median(plain_ops) - 1.0)
        metrics = per_layer_metrics(tracer.summary(), rec.units - plain_units,
                                    statistics.median(rec.scales[plain_groups:]), overhead)
    else:
        metrics = {
            "setup_s": (statistics.median(rec.samples["setup_s"]), "s"),
            "op_ms": (statistics.median(rec.samples["op_ms"]), "ms"),
            "first_op_ms": (statistics.median(rec.samples["first_op_ms"]), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    result = {"correct": not rec.unexpected, "attempted": rec.attempted,
              "failed": rec.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "measured_s": measured,
              "unit": workload.unit, "units": rec.units,
              "failed_operations": rec.unexpected,
              "calibrated": {k: timing_stats(v) for k, v in rec.samples.items()},
              "raw": {k: timing_stats(v) for k, v in rec.raw.items()},
              "raw_samples": dict(rec.raw), "calibrated_samples": dict(rec.samples),
              "environment": environment(np), **result}
    stem = os.path.join(HERE, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rec.units} x {workload.unit} in {measured:.1f} s, "
          f"{rec.attempted} operations, {rec.failed} failed")
    for name in rec.unexpected:
        print(f"FAILED {name}")
    if not args.trace:
        for key, (alias, factor, unit) in ALIASES[args.workload].items():
            cal, raw = timing_stats(rec.samples[key]), timing_stats(rec.raw[key])
            tail = "".join(f" {k} {factor * v:.6g}" for k, v in cal.items() if k.startswith("p"))
            print(f"{alias} {factor * cal['median']:.6g} {unit} calibrated "
                  f"(median of {cal['n']}{tail}), {factor * raw['median']:.6g} {unit} wall")
    if args.trace and args.workload == "train-desk":
        parts = sum(metrics[f"training.{p}_ms"][0] for p in STEP_PARTS)
        step = statistics.median(plain_ops)
        print(f"training parts {parts:.4g} ms vs untraced step {step:.4g} ms: "
              f"residual {step - parts:+.4g} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
