"""In-memory span tracer that instruments quatmotion from outside.

`Tracer.installed()` replaces public functions with timing wrappers for
the duration of a `with` block and restores the originals afterwards. A
function is patched under every module attribute that binds it, so
`training.forward` and `model.forward` (one function object) record the
same span. Tape ops also get their vector-Jacobian closure wrapped, so
backward time is split per op.

A span is (name, start, end, parent index). Spans stay in memory and
are written out once, when the run ends. The canonical-decoder probe
runs with tracing suspended and its time is taken off the tracer clock,
so it adds nothing to any enclosing span.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

AUTOGRAD_OPS = ("matmul", "conv1d", "quat_rotate", "rope_apply", "softmax_rows",
                "layer_norm", "getitem", "concat", "add", "mul", "relu")

# function spans: (module, attribute, span name)
_FUNCTIONS = (
    ("training", "train", "training.train"),
    ("training", "sample_windows", "training.sample_windows"),
    ("training", "l2_loss", "training.l2_loss"),
    ("training", "adam_step", "training.adam_step"),
    ("model", "forward", "model.forward"),
    ("model", "_embed", "model._embed"),
    ("model", "autoregressive_generate", "model.autoregressive_generate"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("quaternion", "slot_rotate", "quaternion.slot_rotate"),
    ("features", "synth_pair", "features.synth_pair"),
    ("features", "save_stream", "features.save_stream"),
    ("features", "load_stream", "features.load_stream"),
    ("metrics", "dynamic_features", "metrics.dynamic_features"),
    ("metrics", "geometric_features", "metrics.geometric_features"),
    ("metrics", "fid", "metrics.fid"),
    ("metrics", "diversity", "metrics.diversity"),
    ("metrics", "beat_align", "metrics.beat"),
    ("metrics", "motion_beats", "metrics.beat"),
    ("metrics", "music_beats", "metrics.beat"),
    ("qra", "qra_attention", "qra.qra_attention"),
)

# spans that give their descendants a context: training steps or rollouts
_CONTEXTS = ("training.train", "model.autoregressive_generate")


class NullTracer:
    """The untraced run: a plain clock and no instrumentation."""

    @staticmethod
    def now() -> float:
        return time.perf_counter()

    @contextmanager
    def installed(self):
        yield

    @contextmanager
    def span(self, name: str):
        yield


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.spans = []
        self.payload = {}          # span index -> a count recorded at call time
        self.counters = Counter()
        self.side_s = Counter()    # probe time kept off the clock
        self.excluded = 0.0
        self.suspended = False
        self._stack = []

    def now(self) -> float:
        return time.perf_counter() - self.excluded

    # -- recording

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = self.now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, fn, name, after=None):
        """A span around fn; `name` may be a function of the call's arguments,
        `after(idx, out, args)` runs once the call returns."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            idx = tracer._open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(idx, out, args)
            return out

        return wrapper

    def _timed_vjp(self, name: str, vjp, flops: int):
        tracer = self

        def timed(g):
            idx = tracer._open(name)
            try:
                return vjp(g)
            finally:
                tracer._close(idx)
                if flops:
                    tracer.counters[name + ".flop"] += flops

        return timed

    # -- instrumentation

    def _targets(self):
        pkg = self.pkg
        ag = pkg.autograd
        mods = {name: getattr(pkg, name) for name in
                ("training", "model", "quaternion", "features", "metrics", "qra",
                 "verification", "autograd")}
        out = []
        for mod, attr, label in _FUNCTIONS:
            fn = getattr(mods[mod], attr)
            out.append((fn, self._wrap(fn, label, self._payload_hook(attr))))

        for op in AUTOGRAD_OPS:
            fn = getattr(ag, op)
            out.append((fn, self._wrap(fn, f"autograd.{op}", self._vjp_hook(op))))

        encode = mods["model"]._encode
        out.append((encode, self._wrap(
            encode, lambda h, which, *rest: f"model._encode.{which}", self._encode_payload)))
        decode = mods["model"]._decode
        out.append((decode, self._decode_wrapper(decode)))
        run = mods["verification"].run
        out.append((run, self._wrap(
            run, lambda suite: f"verification.{suite}")))
        return out

    def _payload_hook(self, attr):
        """Frames asked of a rollout; bytes written by a save."""
        if attr == "autoregressive_generate":
            def record(idx, out, args):
                self.payload[idx] = len(out)
            return record
        if attr == "save_stream":
            def record(idx, out, args):
                self.payload[idx] = os.path.getsize(args[0]) + os.path.getsize(args[0] + ".meta")
            return record
        if attr == "save_checkpoint":
            def record(idx, out, args):
                self.payload[idx] = os.path.getsize(args[0])
            return record
        return None

    def _encode_payload(self, idx, out, args):
        self.payload[idx] = math.prod(args[0].shape[:-1])   # frames times batch

    def _vjp_hook(self, op):
        name = f"autograd.{op}.vjp"

        def attach(idx, out, args):
            flops = 0
            if op == "matmul":
                flops = 2 * math.prod(out.shape) * args[0].shape[-1]
                self.counters["autograd.matmul.flop"] += flops
            if out._vjp is not None:
                # the VJP of a matmul runs two products of the forward's size
                out._vjp = self._timed_vjp(name, out._vjp, 2 * flops)

        return attach

    def _decode_wrapper(self, decode):
        tracer = self
        Tensor = self.pkg.autograd.Tensor
        traced = self._wrap(decode, "model._decode")

        def wrapper(h_motion, h_audio, weights, config):
            out = traced(h_motion, h_audio, weights, config)
            if tracer.suspended or not config.use_qra:
                return out
            canonical = dataclasses.replace(config, use_qra=False)
            tracer.suspended = True
            t0 = time.perf_counter()
            try:
                decode(Tensor(h_motion.data), Tensor(h_audio.data), weights, canonical)
            finally:
                dt = time.perf_counter() - t0
                tracer.suspended = False
                tracer.excluded += dt
                tracer.side_s["model.decoder_canonical"] += dt
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding of each target, plus two Tensor methods."""
        pairs = {id(fn): (fn, wrapper) for fn, wrapper in self._targets()}
        modules = [m for name, m in sys.modules.items()
                   if name == self.pkg.__name__ or name.startswith(self.pkg.__name__ + ".")]
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in pairs:   # pairs holds every target, so ids are not reused
                    saved.append((module, attr, value))
                    setattr(module, attr, pairs[id(value)][1])
        Tensor = self.pkg.autograd.Tensor
        init, backward = Tensor.__init__, Tensor.backward
        tracer = self

        def counting_init(node, data, requires_grad=False, _parents=(), _vjp=None):
            init(node, data, requires_grad, _parents, _vjp)
            if _parents and not tracer.suspended:
                tracer.counters["autograd.tape_nodes"] += 1

        Tensor.__init__ = counting_init
        Tensor.backward = self._wrap(backward, "Tensor.backward")
        try:
            yield
        finally:
            Tensor.__init__, Tensor.backward = init, backward
            for module, attr, value in saved:
                setattr(module, attr, value)

    # -- read-out

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans, self.payload, self.counters, self.side_s)

    def write(self, path: str):
        """One JSON line per span: name, start and end in seconds, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9), parent]) + "\n")


ANY = object()


class SpanSummary:
    """Per (context, name) totals: inclusive seconds, self seconds, calls
    and recorded payload. A span's context is the nearest enclosing
    training.train or model.autoregressive_generate span, itself included."""

    def __init__(self, spans, payload, counters, side_s):
        n = len(spans)
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * n
        context = [None] * n
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
                context[i] = context[parent]
            if name in _CONTEXTS:
                context[i] = name
        self.rows = defaultdict(lambda: [0.0, 0.0, 0, 0])
        for i, (name, _, _, _) in enumerate(spans):
            row = self.rows[(context[i], name)]
            row[0] += dur[i]
            row[1] += dur[i] - child[i]
            row[2] += 1
            row[3] += payload.get(i, 0)
        self.counters = counters
        self.side_s = side_s

    def _sum(self, column, name, context):
        return sum(row[column] for (ctx, key), row in self.rows.items()
                   if key == name and (context is ANY or ctx == context))

    def total(self, name, context=ANY) -> float:
        return self._sum(0, name, context)

    def self_time(self, name, context=ANY) -> float:
        return self._sum(1, name, context)

    def calls(self, name, context=ANY) -> int:
        return self._sum(2, name, context)

    def payload(self, name, context=ANY) -> int:
        return self._sum(3, name, context)
