"""Shared test setup.

Thread pinning must happen before numpy is imported anywhere in the
process: the acceptance timings assume a single core, and BLAS
oversubscription makes small-matrix work slower, not faster.
"""

import os
import signal

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_model_config():
    from quatmotion.model import ModelConfig

    return ModelConfig(d_model=8, heads=2, encoder_layers=1, decoder_layers=1,
                       periods=2, seed_motion_frames=6, audio_frames=9,
                       future_frames=2)


@pytest.fixture
def fork_spy(monkeypatch):
    """The pids of the workers forked while the test runs."""
    pids = []
    real_fork = os.fork

    def spy():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


@pytest.fixture
def deadline():
    """Fail the test with TimeoutError if it runs longer than 60 s, so a
    process waiting on a pipe that never fills cannot hang the suite."""
    def fire(signum, frame):
        raise TimeoutError("the test still runs after 60 s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
