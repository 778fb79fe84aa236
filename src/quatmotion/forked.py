"""A forked worker on the idle core, and the two pipes that pace it.

Training runs shard 1 of each step in one (training._ShardWorker), and a
long rollout encodes its music in one (model._ForkedAudio). Both fork
only where may_fork allows it, share what they compute through an
anonymous mmap made before the fork, and mark each hand-over with a
one-byte message on a Link; nothing is pickled.
"""

from __future__ import annotations

import os
import select
import signal
import sys
import time
import traceback

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
    ms/step with the worker against 109 and 59 ms in-process). Set
    OPENBLAS_NUM_THREADS=1, as the tests and perfbench do, to get it.
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
    """Forks a worker and joins it to its parent by two pipes of one-byte
    messages, one pipe each way.

    After the constructor returns, `worker` tells the two processes apart.
    The worker runs `serve` and never returns from it; the parent calls
    `close` once it is done, which reaps the worker. `who` names the
    worker in the error that reports its death.
    """

    def __init__(self, who: str):
        self.who = who
        worker_reads, parent_writes = os.pipe()
        parent_reads, worker_writes = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (worker_reads, parent_writes, parent_reads, worker_writes):
                os.close(fd)
            raise
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
        """EOF to the worker and reap it. A message still in the pipe is
        dropped; a worker that has not left within GRACE_S (a process
        forked since holds a copy of the pipe's write end) is killed."""
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
