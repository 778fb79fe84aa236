"""A forked worker on the idle core, the region it shares with its
parent, and the two pipes that pace it.

Training runs shard 1 of each step in one (training._ShardWorker), and a
long rollout encodes its music in one (model._ForkedAudio). Both fork
only where may_fork allows it, through a Link: it maps the float64
arrays parent and worker share before it forks, marks each hand-over
with a one-byte message, and unmaps the arrays once it has reaped the
worker; nothing is pickled.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import select
import signal
import sys
import time
import traceback

import numpy as np

from .errors import QuatMotionError

# how long Link.close waits for a worker to leave on EOF before killing it
GRACE_S = 2.0


def may_fork() -> bool:
    """Whether this process may fork a worker onto a second core.

    Fork, not spawn: a spawned worker pays a fresh interpreter plus the
    package imports (`import quatmotion.cli` takes about 0.16 s), while a
    10-step desk training call saves only about 100 ms. Fork is safe here
    because it only happens while the process runs a single OS thread,
    which also rules out a BLAS thread pool: unpinned OpenBLAS threads
    spin on the core the worker needs (desk batch 8, raw: 144 and 215
    ms/step with the worker against 109 and 59 ms in-process). The
    `quatmotion` command pins BLAS to one thread at the top of cli.py,
    before numpy loads; a BLAS thread count the user set wins.
    """
    if not (sys.platform.startswith("linux") and hasattr(os, "fork")
            and len(os.sched_getaffinity(0)) >= 2):
        return False
    try:
        # every OS thread, Python's and native ones alike
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


class Link:
    """Forks a worker and joins it to its parent by one shared region of
    float64 arrays and two pipes of one-byte messages, one pipe each way.

    `shared` holds one zeroed array per shape in `shapes`, in one
    anonymous shared mapping made before the fork, so a write by either
    process is read by the other. After the constructor returns, `worker`
    tells the two processes apart. The worker runs `serve` and never
    returns from it; the parent calls `close` once it is done, which
    reaps the worker and unmaps the region. `who` names the worker in the
    error that reports its death. An OSError from mapping, piping or
    forking reaches the caller with nothing left open.
    """

    def __init__(self, who: str, shapes):
        self.who = who
        sizes = [math.prod(shape) for shape in shapes]
        self._region = mmap.mmap(-1, 8 * sum(sizes))
        floats = np.frombuffer(self._region, dtype=np.float64)
        offsets = itertools.accumulate(sizes, initial=0)
        self.shared = [floats[lo:lo + size].reshape(shape)
                       for lo, size, shape in zip(offsets, sizes, shapes)]
        del floats  # `shared` holds the only views, which _unmap drops
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            self._unmap()
            raise
        worker_reads, parent_writes, parent_reads, worker_writes = fds
        self.worker = self.pid == 0
        if self.worker:
            os.close(parent_writes)
            os.close(parent_reads)
            self._send, self._recv = worker_writes, worker_reads
        else:
            os.close(worker_reads)
            os.close(worker_writes)
            self._send, self._recv = parent_writes, parent_reads

    def serve(self, body, quiet=()):
        """Run body() in the worker and leave through os._exit: quietly when
        it returns or raises one of `quiet`, which the parent meets as
        well; with a traceback on any other error."""
        code = 1
        try:
            body()
            code = 0
        except quiet:
            code = 0
        except Exception:
            os.write(2, traceback.format_exc().encode(errors="replace"))
        finally:
            os._exit(code)

    def tell(self):
        try:
            os.write(self._send, b"x")
        except BrokenPipeError:
            self._lost()

    def hear(self):
        if not os.read(self._recv, 1):
            self._lost()

    def _lost(self):
        """The other process has gone. The worker follows the parent out;
        the parent names how the worker died."""
        if self.worker:
            os._exit(0)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise QuatMotionError(f"{self.who} {how}")

    def close(self):
        """EOF to the worker, reap it, then unmap the shared region. A
        message still in the pipe is dropped; a worker that has not left
        within GRACE_S (a process forked since holds a copy of the pipe's
        write end) is killed. A view of `shared` the caller still holds
        keeps the region mapped until the last such view dies."""
        os.close(self._send)
        if self.pid is not None:
            deadline = time.monotonic() + GRACE_S
            while True:
                ready, _, _ = select.select([self._recv], [], [],
                                            max(0.0, deadline - time.monotonic()))
                if not ready:
                    os.kill(self.pid, signal.SIGKILL)
                    break
                if not os.read(self._recv, 64):  # EOF: the worker has left
                    break
            os.waitpid(self.pid, 0)
            self.pid = None
        os.close(self._recv)
        self._unmap()

    def _unmap(self):
        self.shared = None
        region, self._region = self._region, None
        try:
            region.close()
        except BufferError:
            # the views still held export the buffer; the mapping goes
            # when the last of them dies
            pass
