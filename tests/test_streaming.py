"""The streamed Monte Carlo estimators against the whole-stream code they replaced.

`weighted_density_monte_carlo` and `lhs_direct` consume the Sobol stream
block by block. The oracles below are their earlier whole-stream forms: the
stream drawn as one `sample_domain` array, or one array of pairs gathered
from `sample_pair_blocks`, and binned by one `bincount`. The two must agree
bit for bit, and the streamed forms must hold memory that does not grow with
the sample count.

Both read their streams one block ahead, the next block drawn on a worker
thread while the caller bins or pairs the current one (`_overlap.lookahead`).
The tests at the end check that this moves no bit, runs no weight and no
public sampling or geometry function on the worker, and leaves no draw
running once the call is over, however it ends.

The weights are pointwise. A weight that is not, such as
`random_smooth_function` in four or more dimensions, whose matrix product
takes another path on a one-row block, may differ in the last bit.
"""

import functools
import inspect
import math
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelform as lf
from levelform import _overlap, geometry, pushforward, reduction, sampling
from levelform.errors import require_finite, require_whole
from levelform.pushforward import ATOM_MASS_FRACTION, ATOM_RELATIVE_WIDTH

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
BATCH = sampling._MAX_BATCH
# no points, one point, and the three counts around one full Sobol block
COUNTS = [0, 1, BATCH - 1, BATCH, BATCH + 1]
BOX2 = lf.box([(-1.0, 2.0), (0.0, 0.5)])
BOX3 = lf.box([(0.0, 1.0), (-3.0, 3.0), (1.0, 1.5)])
PHASES = [lf.linear_phase(lf.ball(2)), lf.radial_quadratic_phase(lf.ball(3)),
          lf.saddle_phase(lf.ball(2)), lf.linear_phase(BOX2), lf.linear_phase(BOX3, axis=2),
          lf.radial_power_phase(lf.ball(3, 0.7), 4.0)]
WEIGHTS = [None,
           lambda p: np.sin(3.0 * p[:, 0]) * p[:, 1],
           lambda p: np.abs(p[:, -1]) ** 1.5 - 0.25]


def cpus(usable):
    """`os.sched_getaffinity` patched to report `usable` CPUs."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(usable)),
                             create=True)


def outcome(fn):
    """The result of fn(), or the type of the LevelformError it raised."""
    try:
        return fn()
    except lf.LevelformError as exc:
        return type(exc)


def gather_pairs(dx, dy, count, seed):
    """The (xs, ys) blocks of `sampling.sample_pair_blocks`, gathered into two arrays."""
    blocks = list(sampling.sample_pair_blocks(dx, dy, count, seed))
    return (np.concatenate([np.empty((0, dx.n)), *(x for x, _ in blocks)]),
            np.concatenate([np.empty((0, dy.n)), *(y for _, y in blocks)]))


def whole_stream_monte_carlo(phase, h, grid, sample_count, seed):
    """Values, stderr and atom flag of the histogram over the whole stream at once."""
    require_whole(sample_count, "sample_count")
    pts = lf.sample_domain(phase.domain, sample_count, seed)
    levels = require_finite(geometry._eval_values(phase, pts), "phase values")
    bins = grid.bin_count
    idx = levels - grid.t_min
    idx /= grid.width
    np.floor(idx, out=idx)
    np.clip(idx, -1, bins, out=idx)
    idx += 1
    idx[levels == grid.t_max] = bins
    idx = idx.astype(np.intp)
    n = sample_count
    if h is None:
        mean = np.bincount(idx, minlength=bins + 2)[1:-1] / n
        var = mean * (1 - mean)
    else:
        w = np.asarray(h(pts), dtype=float)
        mean = np.bincount(idx, weights=w, minlength=bins + 2)[1:-1] / n
        sumsq = np.bincount(idx, weights=w ** 2, minlength=bins + 2)[1:-1]
        var = np.maximum(sumsq / n - mean ** 2, 0.0)
    fine = grid.width < ATOM_RELATIVE_WIDTH * (grid.t_max - grid.t_min)
    atom = bool(h is None and np.any(mean > ATOM_MASS_FRACTION) and fine)
    vol = phase.domain.volume()
    return vol * mean / grid.width, vol * np.sqrt(var / n) / grid.width, atom


def whole_stream_lhs(form, sample_count, seed):
    """Value and stderr of the direct left side over the whole pair stream at once."""
    require_whole(sample_count, "sample_count")
    xs, ys = gather_pairs(form.phase_in.domain, form.phase_out.domain, sample_count, seed)
    t = geometry._eval_values(form.phase_in, xs)
    s = geometry._eval_values(form.phase_out, ys)
    mask = np.abs(s - t) > form.eps
    vals = np.zeros(sample_count)
    if np.any(mask):
        vals[mask] = (np.asarray(form.kernel.evaluate(s[mask], t[mask]), dtype=float)
                      * np.asarray(form.f(xs[mask]), dtype=float)
                      * np.asarray(form.g(ys[mask]), dtype=float))
    scale = form.phase_in.domain.volume() * form.phase_out.domain.volume()
    return (float(np.mean(vals)) * scale,
            float(np.std(vals)) / math.sqrt(sample_count) * scale)


@given(phase=st.sampled_from(PHASES), h=st.sampled_from(WEIGHTS),
       count=st.sampled_from(COUNTS), bins=st.integers(1, 200),
       window=st.tuples(st.floats(-0.2, 0.5), st.floats(0.1, 1.2)),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_streamed_histogram_matches_whole_stream_oracle(phase, h, count, bins, window, seed):
    lo, hi = geometry.image_interval(phase)
    # windows that cut the image, and ones that reach past it on either side
    grid = lf.LevelGrid(lo + window[0] * (hi - lo), lo + (window[0] + window[1]) * (hi - lo),
                        bins)
    want = outcome(lambda: whole_stream_monte_carlo(phase, h, grid, count, seed))
    # the stream read one block ahead on the worker, then all on the caller
    for usable in (2, 1):
        with cpus(usable):
            got = outcome(lambda: lf.weighted_density_monte_carlo(phase, h, grid, count, seed))
        if isinstance(want, type):
            assert got is want
            continue
        values, stderr, atom = want
        assert got.values.tobytes() == values.tobytes()
        assert got.stderr.tobytes() == stderr.tobytes()
        assert got.atom_suspected is atom


def form_of(phase_in, phase_out, f, g, eps):
    return lf.SynchronizedForm(phase_in=phase_in, phase_out=phase_out,
                               kernel=lf.hilbert_kernel(), f=f, g=g, eps=eps)


PAIRS = [(lf.linear_phase(lf.ball(2)), lf.radial_quadratic_phase(lf.ball(2))),
         (lf.radial_quadratic_phase(lf.ball(3)), lf.linear_phase(lf.ball(3))),
         (lf.saddle_phase(lf.ball(2)), lf.linear_phase(BOX3, axis=2)),
         (lf.linear_phase(BOX2), lf.radial_power_phase(lf.ball(3, 0.7), 4.0))]
FIBER_WEIGHTS = [lambda p: p[:, 0],
                 lf.RadialFunction(lambda r: 1.0 - r),
                 lf.LevelFunction(lambda t: np.cos(2.0 * t)),
                 lambda p: np.exp(-np.sum(p * p, axis=1))]


@given(pair=st.sampled_from(PAIRS), f=st.sampled_from(FIBER_WEIGHTS),
       g=st.sampled_from(FIBER_WEIGHTS), count=st.sampled_from(COUNTS),
       eps=st.floats(0.05, 0.5), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_streamed_lhs_matches_whole_stream_oracle(pair, f, g, count, eps, seed):
    form = form_of(*pair, f, g, eps)
    want = outcome(lambda: whole_stream_lhs(form, count, seed))
    # the stream read one block ahead on the worker, then all on the caller
    for usable in (2, 1):
        with cpus(usable):
            got = outcome(lambda: lf.lhs_direct(form, count, seed))
        if isinstance(want, type):
            assert got is want
            continue
        assert (got.value, got.error) == want
        assert got.sample_count == count


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("domain", [lf.ball(2), lf.ball(3, 0.7), BOX2, BOX3],
                         ids=["ball2", "ball3", "box2", "box3"])
def test_blocks_are_the_stream_in_order(domain, count):
    blocks = list(sampling.sample_blocks(domain, count, 9, 2))
    assert all(0 < len(b) <= BATCH for b in blocks)
    whole = lf.sample_domain(domain, count, 9, 2)
    assert np.concatenate([np.empty((0, domain.n)), *blocks]).tobytes() == whole.tobytes()
    # the pair values are pinned to scipy's engine in tests/test_sampling.py
    pairs = list(sampling.sample_pair_blocks(domain, lf.ball(2), count, 9, 2))
    assert all(0 < len(x) == len(y) <= BATCH for x, y in pairs)
    assert sum(len(x) for x, _ in pairs) == count


def test_monte_carlo_weight_is_called_once_per_block():
    calls = []

    def h(pts):
        calls.append(len(pts))
        return pts[:, 0]

    phase = lf.linear_phase(lf.ball(2))
    lf.weighted_density_monte_carlo(phase, h, lf.LevelGrid(-1.0, 1.0, 8), 100_000, 4)
    assert calls == [len(b) for b in sampling.sample_blocks(phase.domain, 100_000, 4)]
    assert len(calls) > 1


def test_sample_count_is_checked_before_any_block():
    with pytest.raises(lf.ConfigError):
        sampling.sample_blocks(lf.ball(2), -1, 0)
    with pytest.raises(lf.ConfigError):
        sampling.sample_pair_blocks(lf.ball(2), lf.ball(2), 2.5, 0)
    with pytest.raises(lf.ConfigError):
        sampling.sample_blocks(lf.ball(2), 10, -1)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weighted_histogram_in_bounded_memory():
    # the whole stream of 10^6 points, its levels and its weights peaked at
    # 53 MiB; a block of 2^15 points holds well under 1 MiB of each
    phase = lf.linear_phase(lf.ball(2))
    h = WEIGHTS[1]
    peak = traced_peak(lambda: lf.weighted_density_monte_carlo(
        phase, h, lf.LevelGrid(-1.0, 1.0, 120), 1_000_000, 3))
    assert peak < 8 * 2 ** 20


def test_lhs_direct_in_bounded_memory():
    # 400,000 pairs in ball(2) x ball(2) peaked at 37 MiB as one stream; the
    # per-pair values, 3.1 MiB, are the one array that grows with the count
    form = form_of(lf.radial_quadratic_phase(lf.ball(2)), lf.radial_quadratic_phase(lf.ball(2)),
                   lf.RadialFunction(lambda r: 1.0 - r), lf.RadialFunction(np.ones_like), 0.125)
    peak = traced_peak(lambda: lf.lhs_direct(form, 400_000, 3))
    assert peak < 16 * 2 ** 20


LINEAR2 = lf.linear_phase(lf.ball(2))
GRID16 = lf.LevelGrid(-1.0, 1.0, 16)
# about eight Sobol blocks of ball(2), so a draw is in flight behind each one
LONG = 200_000


def first_axis(pts):
    return pts[:, 0]


def failing_stream(at_block, fail):
    """`sampling._sobol_blocks` that calls fail() when it draws block `at_block`
    (from 0), recording the thread that drew it and setting the event it
    returns first."""
    real = sampling._sobol_blocks
    threads = []
    reached = threading.Event()

    def blocks(dim, rng, batch):
        for k, block in enumerate(real(dim, rng, batch)):
            if k == at_block:
                threads.append(threading.get_ident())
                reached.set()
                fail()
            yield block

    return blocks, threads, reached


def weight_waiting(call, event, last=first_axis):
    """A weight that, on its `call`-th call, waits up to 30 s for `event` and
    then returns last(pts); while it waits, only the worker can draw."""
    calls = []

    def h(pts):
        calls.append(len(pts))
        if len(calls) < call:
            return pts[:, 0]
        event.wait(timeout=30)
        return last(pts)

    return h, calls


def test_one_cpu_reads_the_stream_on_the_caller_and_starts_no_worker(monkeypatch):
    monkeypatch.setattr(_overlap, "_worker", None)
    with cpus(1):
        got = lf.weighted_density_monte_carlo(LINEAR2, first_axis, GRID16, LONG, 5)
    values, stderr, _ = whole_stream_monte_carlo(LINEAR2, first_axis, GRID16, LONG, 5)
    assert got.values.tobytes() == values.tobytes()
    assert got.stderr.tobytes() == stderr.tobytes()
    assert _overlap._worker is None


class IdleWorker:
    """A worker that takes work and never starts it."""

    def __init__(self):
        self.futures = []

    def submit(self, *args):
        self.futures.append(Future())
        return self.futures[-1]


def test_draws_the_worker_never_starts_are_taken_back(monkeypatch):
    idle = IdleWorker()
    monkeypatch.setattr(_overlap, "_worker", idle)
    result = []

    def call():
        result.append(lf.weighted_density_monte_carlo(LINEAR2, first_axis, GRID16, LONG, 5))

    with cpus(2):
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
    assert not caller.is_alive(), "the histogram waited on a draw the worker never started"
    values, stderr, _ = whole_stream_monte_carlo(LINEAR2, first_axis, GRID16, LONG, 5)
    assert result[0].values.tobytes() == values.tobytes()
    assert result[0].stderr.tobytes() == stderr.tobytes()
    assert len(idle.futures) > 1 and all(fut.cancelled() for fut in idle.futures)


def test_a_weight_that_fails_mid_stream_leaves_no_draw_running(monkeypatch):
    # the draw of block 3 is still running when the weight of block 2 fails
    blocks, threads, reached = failing_stream(2, lambda: time.sleep(0.2))
    monkeypatch.setattr(sampling, "_sobol_blocks", blocks)
    streams = []

    def sample_blocks(*args):
        streams.append(sampling.sample_blocks(*args))
        return streams[-1]

    monkeypatch.setattr(pushforward, "sample_blocks", sample_blocks)
    # one value per coordinate on the second block
    h, calls = weight_waiting(2, reached, last=lambda pts: pts)
    with cpus(2), pytest.raises(lf.ConfigError):
        lf.weighted_density_monte_carlo(LINEAR2, h, GRID16, LONG, 5)
    assert len(calls) == 2 and threads[0] != threading.get_ident()
    # the source stream was closed, which it cannot be while a draw runs in it
    assert streams[0].gi_frame is None
    monkeypatch.undo()
    with cpus(2):
        again = lf.weighted_density_monte_carlo(LINEAR2, first_axis, GRID16, LONG, 5)
    values, stderr, _ = whole_stream_monte_carlo(LINEAR2, first_axis, GRID16, LONG, 5)
    assert again.values.tobytes() == values.tobytes()
    assert again.stderr.tobytes() == stderr.tobytes()


class BrokenStream(Exception):
    pass


def test_a_draw_that_fails_reaches_the_caller_at_its_block(monkeypatch):
    def fail():
        raise BrokenStream("block 3")

    blocks, threads, reached = failing_stream(2, fail)
    monkeypatch.setattr(sampling, "_sobol_blocks", blocks)
    h, calls = weight_waiting(2, reached)
    with cpus(2), pytest.raises(BrokenStream):
        lf.weighted_density_monte_carlo(LINEAR2, h, GRID16, LONG, 5)
    # blocks 1 and 2 were weighed, and block 3 failed on the worker
    assert len(calls) == 2 and threads[0] != threading.get_ident()


def test_the_worker_draws_under_the_callers_errstate(monkeypatch):
    def underflow():
        np.array([1e-300]) * 1e-300

    blocks, threads, reached = failing_stream(1, underflow)
    monkeypatch.setattr(sampling, "_sobol_blocks", blocks)
    with cpus(2):
        lf.weighted_density_monte_carlo(LINEAR2, weight_waiting(1, reached)[0], GRID16, LONG, 5)
        reached.clear()
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            lf.weighted_density_monte_carlo(LINEAR2, weight_waiting(1, reached)[0], GRID16,
                                            LONG, 5)
    assert len(threads) == 2 and threading.get_ident() not in threads


def public_functions(module):
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def test_no_public_sampling_or_geometry_function_runs_on_the_worker(monkeypatch):
    # an outside tracer wraps these, and its span stack is not thread-safe
    caller = threading.get_ident()
    public_threads, draw_threads = set(), set()

    def spy(fn, threads):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            threads.add(threading.get_ident())
            return fn(*args, **kwargs)
        return recorded

    for module in (sampling, geometry):
        for name, fn in public_functions(module).items():
            wrapped = spy(fn, public_threads)
            # and wherever another levelform module re-binds it
            for other in [m for k, m in sys.modules.items() if k.split(".")[0] == "levelform"]:
                if vars(other).get(name) is fn:
                    monkeypatch.setattr(other, name, wrapped)
    monkeypatch.setattr(sampling, "_xor_rows", spy(sampling._xor_rows, draw_threads))
    weight = lf.RadialFunction(lambda r: 1.0 - r)
    with cpus(2):
        for phase in (LINEAR2, lf.radial_quadratic_phase(lf.ball(3)), lf.linear_phase(BOX3)):
            lf.weighted_density_monte_carlo(phase, weight, GRID16, LONG, 5)
    assert public_threads == {caller}
    # the draws did run on the worker
    assert draw_threads - {caller}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_worker():
    with cpus(2):
        expected = lf.weighted_density_monte_carlo(LINEAR2, first_axis, GRID16, LONG, 7)
        assert _overlap._worker is not None
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork from a process with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: report through the exit code only
            code = 1
            try:
                if _overlap._worker is None:
                    got = lf.weighted_density_monte_carlo(LINEAR2, first_axis, GRID16, LONG, 7)
                    if (got.values.tobytes() == expected.values.tobytes()
                            and _overlap._worker is not None):
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


@pytest.mark.parametrize("started", [False, True], ids=["no worker yet", "worker started"])
def test_a_call_from_an_atexit_handler_reads_the_stream_serially(started):
    # the executor module refuses to load or take work once shutdown begins
    code = textwrap.dedent(f"""
        import atexit, sys
        import levelform as lf
        def call():
            est = lf.weighted_density_monte_carlo(
                lf.linear_phase(lf.ball(2)), lambda p: p[:, 0], lf.LevelGrid(-1.0, 1.0, 16),
                {LONG}, 5)
            sys.stdout.write(est.values.tobytes().hex())
            sys.stdout.flush()
        if {started}:
            call()
            sys.stdout.write("|")
        atexit.register(call)
    """)
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0 and not done.stderr, done.stderr
    values, _, _ = whole_stream_monte_carlo(LINEAR2, first_axis, GRID16, LONG, 5)
    assert done.stdout.split("|")[-1] == values.tobytes().hex()


def test_concurrent_callers_share_the_worker_for_their_draws():
    # more callers than cores, switching often, each checking its own bits
    expected = [whole_stream_monte_carlo(LINEAR2, first_axis, GRID16, LONG, seed)[0]
                for seed in range(4)]
    wrong = []

    def call(i):
        for _ in range(5):
            got = lf.weighted_density_monte_carlo(LINEAR2, first_axis, GRID16, LONG, i)
            if got.values.tobytes() != expected[i].tobytes():
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with cpus(2):
            callers = [threading.Thread(target=call, args=(i,), daemon=True) for i in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert not wrong


# ---------------------------------------------------------------------------
# lhs_direct reads its pair stream one block ahead too
# ---------------------------------------------------------------------------

# pairs in ball(2) x ball(2); blocks of 2^14 rows keep about 10,000 each, so
# about ten blocks, with a draw in flight behind each one
PAIR_COUNT = 100_000
PAIR_FORM = form_of(LINEAR2, lf.radial_quadratic_phase(lf.ball(2)), first_axis,
                    lf.RadialFunction(lambda r: 1.0 - r), 0.05)


def same_lhs(got, form, count, seed):
    value, error = whole_stream_lhs(form, count, seed)
    return (np.float64(got.value).tobytes(), np.float64(got.error).tobytes()) == (
        np.float64(value).tobytes(), np.float64(error).tobytes())


def test_one_cpu_reads_the_pair_stream_on_the_caller_and_starts_no_worker(monkeypatch):
    monkeypatch.setattr(_overlap, "_worker", None)
    drawn = set()
    real = sampling._xor_rows

    def xor_rows(*args, **kwargs):
        drawn.add(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(sampling, "_xor_rows", xor_rows)
    with cpus(1):
        got = lf.lhs_direct(PAIR_FORM, PAIR_COUNT, 5)
    assert same_lhs(got, PAIR_FORM, PAIR_COUNT, 5)
    assert drawn == {threading.get_ident()}
    assert _overlap._worker is None


def test_an_f_that_fails_mid_stream_leaves_no_pair_draw_running(monkeypatch):
    # the draw of block 3 is still running when f fails on block 2
    blocks, threads, reached = failing_stream(2, lambda: time.sleep(0.2))
    monkeypatch.setattr(sampling, "_sobol_blocks", blocks)
    streams, rows = [], []
    real_accepted = sampling._accepted_blocks

    def accepted_blocks(*args):
        stream = real_accepted(*args)
        # held weakly: the pair stream's frame holds the only strong reference
        rows.append(weakref.ref(stream))
        return stream

    def sample_pair_blocks(*args):
        streams.append(sampling.sample_pair_blocks(*args))
        return streams[-1]

    monkeypatch.setattr(sampling, "_accepted_blocks", accepted_blocks)
    monkeypatch.setattr(reduction, "sample_pair_blocks", sample_pair_blocks)
    # one value per coordinate on the second block
    f, calls = weight_waiting(2, reached, last=lambda pts: pts)
    form = form_of(LINEAR2, lf.radial_quadratic_phase(lf.ball(2)), f, first_axis, 0.05)
    with cpus(2), pytest.raises(lf.ConfigError) as raised:
        lf.lhs_direct(form, PAIR_COUNT, 5)
    assert len(calls) == 2 and threads[0] != threading.get_ident()
    # while the error's traceback still holds the call's frame, the pair
    # stream is closed, which it cannot be while a draw runs in it, and that
    # freed the row stream under it
    assert raised.tb is not None
    assert streams[0].gi_frame is None and rows[0]() is None
    monkeypatch.undo()
    with cpus(2):
        assert same_lhs(lf.lhs_direct(PAIR_FORM, PAIR_COUNT, 5), PAIR_FORM, PAIR_COUNT, 5)


def test_no_public_sampling_or_geometry_function_runs_on_the_worker_for_pairs(monkeypatch):
    caller = threading.get_ident()
    public_threads, draw_threads = set(), set()

    def spy(fn, threads):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            threads.add(threading.get_ident())
            return fn(*args, **kwargs)
        return recorded

    for module in (sampling, geometry):
        for name, fn in public_functions(module).items():
            wrapped = spy(fn, public_threads)
            for other in [m for k, m in sys.modules.items() if k.split(".")[0] == "levelform"]:
                if vars(other).get(name) is fn:
                    monkeypatch.setattr(other, name, wrapped)
    monkeypatch.setattr(sampling, "_xor_rows", spy(sampling._xor_rows, draw_threads))
    with cpus(2):
        for pair in PAIRS:
            lf.lhs_direct(form_of(*pair, first_axis, lf.RadialFunction(lambda r: 1.0 - r), 0.1),
                          PAIR_COUNT, 5)
    assert public_threads == {caller}
    # the draws did run on the worker
    assert draw_threads - {caller}
