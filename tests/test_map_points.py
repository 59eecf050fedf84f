"""checks._map_points: the law suites' points, dealt to forked workers.

Whatever the worker count, the result is [fn(x) for x in items], an
exception raised for one item reaches the caller with its type and message,
and no child process outlives the call.  The tests that fork hand it
FORK_MIN_ITEMS items, the fewest it forks for.
"""

import os
import threading
import time

import pytest

from kronlab.checks import FORK_MIN_ITEMS, _map_points
from kronlab.numeric import ConvergenceError

FORKS = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [0, 1, 7, 9, 250])
def test_results_keep_the_item_order(n):
    items = [complex(i, -i) for i in range(n)]
    assert _map_points(lambda z: (z * z, [z.real]), items) == [(z * z, [z.real]) for z in items]
    _assert_no_child_left()


@pytest.mark.skipif(not FORKS, reason="needs os.fork and more than one CPU")
def test_items_run_in_more_than_one_process():
    pids = _map_points(lambda _: os.getpid(), range(FORK_MIN_ITEMS))
    assert pids[0] == os.getpid()
    assert pids[1] != os.getpid()  # item 1 belongs to the first forked worker
    _assert_no_child_left()


def test_fewer_items_run_in_process():
    # below FORK_MIN_ITEMS a fork round trip costs more than it saves
    n = FORK_MIN_ITEMS - 1
    assert _map_points(lambda _: os.getpid(), range(n)) == [os.getpid()] * n


def _raise_at(bad, exc):
    def fn(i):
        if i == bad:
            raise exc
        return i

    return fn


@pytest.mark.parametrize("exc", [ValueError("bad item 1"), ConvergenceError("Im(tau) too small")])
def test_an_exception_in_a_worker_reaches_the_caller(exc):
    # item 1 is evaluated by a child whenever the items are forked out
    with pytest.raises(type(exc)) as info:
        _map_points(_raise_at(1, exc), range(FORK_MIN_ITEMS))
    assert type(info.value) is type(exc) and str(info.value) == str(exc)
    _assert_no_child_left()


def test_an_exception_that_does_not_pickle_is_named_in_a_runtime_error():
    class Local(Exception):  # a local class does not pickle
        pass

    with pytest.raises((Local, RuntimeError)) as info:
        _map_points(_raise_at(1, Local("unpicklable")), range(FORK_MIN_ITEMS))
    want = "unpicklable" if type(info.value) is Local else "Local: unpicklable"
    assert str(info.value) == want
    _assert_no_child_left()


def test_an_exception_in_the_parent_kills_the_workers():
    # item 0 is the parent's; each child holds at least 32 items of 2 s, so
    # waiting for them instead of killing them would take 64 s or more
    def fn(i):
        if i == 0:
            raise ValueError("parent item")
        time.sleep(2)

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="parent item"):
        _map_points(fn, range(FORK_MIN_ITEMS) if FORKS else [0])
    assert time.perf_counter() - t0 < 8
    _assert_no_child_left()


def test_a_worker_that_cannot_be_forked_runs_in_the_parent(monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    n = FORK_MIN_ITEMS
    assert _map_points(lambda i: (i, os.getpid()), range(n)) == [(i, os.getpid()) for i in range(n)]
    _assert_no_child_left()


def test_items_run_in_process_while_another_thread_runs():
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        n = FORK_MIN_ITEMS
        assert _map_points(lambda _: os.getpid(), range(n)) == [os.getpid()] * n
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
