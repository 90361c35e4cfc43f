"""`random_smooth_function` on two threads against its serial form.

A call of at least `_overlap._SPLIT_ROWS` points hands the second half of
its rows, split on a multiple of 64, to one worker thread. The oracle below
is the serial form it replaced, one whole-array expression per wave; the two
must agree bit for bit in every dimension the Sobol streams reach. The
caller takes back a half the worker has not started, so a worker that never
runs, or one lost in a fork, costs time and never a result.
"""

import math
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform import _overlap

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SPLIT = _overlap._SPLIT_ROWS
ROWS = [0, 1, 63, 64, SPLIT - 1, SPLIT, SPLIT + 1, 2**15 + 1, 65_537]


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    # the split runs only where two CPUs are usable; these tests check it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def oracle_smooth_function(dim, seed, tag=0):
    """The serial `random_smooth_function` on ball(dim)."""
    rng = lf.derived_rng(seed, 1000 + tag)
    amps = rng.standard_normal(3)
    freqs = rng.integers(-2, 3, size=(3, dim)).astype(float)
    shifts = rng.uniform(0.0, 2.0 * math.pi, 3)

    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        acc = np.zeros(len(pts))
        for a, k, c in zip(amps, freqs, shifts):
            acc += a * np.cos(pts @ k + c)
        return acc

    return fn


def points(dim, rows, seed, strided=False):
    """Rows in [-1, 1]^dim, contiguous or the right column half of a wider array."""
    rng = np.random.default_rng(seed)
    if strided:
        return rng.uniform(-1.0, 1.0, (rows, 2 * dim))[:, dim:]
    return rng.uniform(-1.0, 1.0, (rows, dim))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(dim=st.integers(1, 32), rows=st.sampled_from(ROWS), strided=st.booleans(),
       seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_matches_the_serial_oracle_bit_for_bit(dim, rows, strided, seed):
    pts = points(dim, rows, seed, strided)
    fn = lf.random_smooth_function(lf.ball(dim), seed, tag=seed % 3)
    assert same_bits(fn(pts), oracle_smooth_function(dim, seed, tag=seed % 3)(pts))


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
def test_every_dimension_keeps_its_bits_across_the_split(strided):
    # one split call per dimension; the hypothesis test samples the rest
    for dim in range(1, 33):
        pts = points(dim, 3 * SPLIT + 5, dim, strided)
        fn = lf.random_smooth_function(lf.ball(dim), dim)
        assert same_bits(fn(pts), oracle_smooth_function(dim, dim)(pts)), dim


class IdleWorker:
    """A worker that takes work and never starts it."""

    def __init__(self):
        self.futures = []

    def submit(self, *args):
        self.futures.append(Future())
        return self.futures[-1]


def test_work_the_worker_never_starts_is_taken_back(monkeypatch):
    idle = IdleWorker()
    monkeypatch.setattr(_overlap, "_worker", idle)
    fn = lf.random_smooth_function(lf.ball(3), 7)
    pts = points(3, 4 * SPLIT, 7)
    result = []
    caller = threading.Thread(target=lambda: result.append(fn(pts)), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "fn waited on work the worker never started"
    assert same_bits(result[0], oracle_smooth_function(3, 7)(pts))
    assert idle.futures and all(fut.cancelled() for fut in idle.futures)


def test_one_cpu_evaluates_serially_and_starts_no_worker(monkeypatch):
    monkeypatch.setattr(_overlap, "_worker", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    fn = lf.random_smooth_function(lf.ball(3), 13)
    pts = points(3, 4 * SPLIT + 1, 13)
    assert same_bits(fn(pts), oracle_smooth_function(3, 13)(pts))
    assert _overlap._worker is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_evaluates_without_the_parents_worker():
    fn = lf.random_smooth_function(lf.ball(2), 11)
    pts = points(2, 10**5, 11)
    expected = oracle_smooth_function(2, 11)(pts)
    fn(pts)  # the worker thread runs in the parent
    assert _overlap._worker is not None
    with warnings.catch_warnings():
        # Python 3.12+ warns on a fork from a process with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child: report through the exit code only
        code = 1
        try:
            if _overlap._worker is None and same_bits(fn(pts), expected):
                code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


# how a call comes after the interpreter has begun to shut down
LATE_CALLS = {
    "atexit handler": "atexit.register(call)",
    "atexit handler, worker started": "fn(pts); atexit.register(call)",
    "thread outliving the main thread": (
        "threading.Thread(target=lambda: (main.join(), call())).start()"),
}


@pytest.mark.parametrize("late", sorted(LATE_CALLS))
def test_a_call_during_interpreter_shutdown_evaluates_serially(late):
    # the executor module refuses to load or take work once shutdown begins
    code = textwrap.dedent(f"""
        import atexit, sys, threading
        import numpy as np
        import levelform as lf
        fn = lf.random_smooth_function(lf.ball(2), 5)
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, ({2 * SPLIT}, 2))
        main = threading.main_thread()
        def call():
            sys.stdout.write(fn(pts).tobytes().hex())
            sys.stdout.flush()
        {LATE_CALLS[late]}
    """)
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0 and not done.stderr, done.stderr
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (2 * SPLIT, 2))
    assert done.stdout == oracle_smooth_function(2, 5)(pts).tobytes().hex()


def test_the_worker_keeps_the_callers_errstate():
    # an infinite coordinate in the worker's half; the caller's errstate holds there too
    fn = lf.random_smooth_function(lf.ball(2), 3)
    pts = points(2, 2 * SPLIT, 3)
    pts[-1, 0] = math.inf
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        fn(pts)


def test_concurrent_callers_share_the_worker():
    # more callers than cores, switching often, each checking its own bits
    fns = [lf.random_smooth_function(lf.ball(2), seed) for seed in range(4)]
    pts = points(2, 2 * SPLIT + 64, 5)
    expected = [oracle_smooth_function(2, seed)(pts) for seed in range(4)]
    wrong = []

    def call(i):
        for _ in range(20):
            if not same_bits(fns[i](pts), expected[i]):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(i,), daemon=True) for i in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert not wrong
