"""forked.Link: the region parent and worker share, its pipes, its end."""

import os

import numpy as np
import pytest

from quatmotion import forked


def _shared_spans() -> list:
    """(start, end) of each shared mapping this process holds."""
    with open("/proc/self/maps") as fh:
        rows = [line.split() for line in fh]
    return [tuple(int(part, 16) for part in row[0].split("-"))
            for row in rows if row[1].endswith("s")]


def _shared(array) -> bool:
    """Whether the array's first byte lies in a shared mapping."""
    address = array.__array_interface__["data"][0]
    return any(lo <= address < hi for lo, hi in _shared_spans())


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("deadline")
class TestLink:
    def test_the_arrays_are_zeroed_float64_of_the_asked_shapes(self):
        link = forked.Link("a test worker", [(3,), (2, 4), (0,)])
        if link.worker:
            link.serve(lambda: None)
        try:
            assert [a.shape for a in link.shared] == [(3,), (2, 4), (0,)]
            assert all(a.dtype == np.float64 and not a.any() for a in link.shared)
        finally:
            link.close()
        _assert_no_children()

    def test_writes_cross_the_fork_both_ways(self):
        link = forked.Link("a test worker", [(3,), (2, 2)])
        if link.worker:
            def body():
                link.hear()
                asked, answer = link.shared
                answer[...] = asked.sum() + np.arange(4.0).reshape(2, 2)
                link.tell()
            link.serve(body)
        asked, answer = link.shared
        try:
            asked[...] = [1.0, 2.0, 4.5]
            link.tell()
            link.hear()
            assert answer.tolist() == [[7.5, 8.5], [9.5, 10.5]]
        finally:
            del asked, answer
            link.close()
        _assert_no_children()

    def test_close_unmaps_the_region(self):
        spans = _shared_spans()
        link = forked.Link("a test worker", [(1024,), (3,)])
        if link.worker:
            link.serve(lambda: None)
        assert all(_shared(a) for a in link.shared)
        assert len(_shared_spans()) == len(spans) + 1
        link.close()
        assert link.shared is None
        assert _shared_spans() == spans
        _assert_no_children()

    def test_a_view_kept_past_close_stays_readable(self):
        link = forked.Link("a test worker", [(4,)])
        if link.worker:
            def body():
                link.hear()
                link.shared[0][...] = [1.0, -2.0, 3.0, 0.5]
                link.tell()
            link.serve(body)
        kept = link.shared[0]
        link.tell()
        link.hear()
        link.close()
        assert kept.tolist() == [1.0, -2.0, 3.0, 0.5]
        kept[0] = 9.0  # still the caller's to write as well
        assert kept.sum() == 10.5 and _shared(kept)
        spans = _shared_spans()
        del kept
        assert len(_shared_spans()) == len(spans) - 1
        _assert_no_children()

    def test_a_failed_fork_leaves_nothing_open(self, monkeypatch):
        def refused():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        fds, spans = _open_fds(), _shared_spans()
        monkeypatch.setattr(os, "fork", refused)
        with pytest.raises(BlockingIOError) as caught:
            forked.Link("a test worker", [(8,)])
        # checked while the traceback still holds the half-made Link
        assert caught.tb is not None
        assert _open_fds() == fds
        assert _shared_spans() == spans
        _assert_no_children()
