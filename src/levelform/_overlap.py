"""The one worker thread, and the two ways the package overlaps work with it.

`_split_rows` evaluates the second half of a long row-wise call on the worker
while the caller evaluates the first; `lookahead` draws the next item of a
stream on it while the caller works on the current one. There is one worker,
started on first use, and none where the process may run on fewer than two
CPUs: there two threads only trade the interpreter lock. Work on the worker
runs in a copy of the caller's context (numpy's errstate). No code on the
worker waits on the worker, and the caller takes back work the worker has not
started, so a worker held up elsewhere, or lost in a fork, never makes the
caller wait.
"""

from __future__ import annotations

import contextvars
import os
from typing import Callable, Generator

import numpy as np

# calls of fewer rows stay on the caller's thread (a sweep of 2048..32768 rows,
# on ball(2) only, first won at 4096); a split falls on a multiple of
# _ROW_BLOCK rows, which keeps every bit of the matrix-vector product in
# dimensions 1-32, where a split at row 2049 of 4096 moves some from dimension 9 up
_SPLIT_ROWS = 4096
_ROW_BLOCK = 64
# the one worker thread, started on first use
_worker = None
# what `next` returns at the end of a stream drawn by `lookahead`
_END = object()


def _forget_worker() -> None:
    # a forked child has no worker thread; it starts its own on first use
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):  # there is no fork to follow without it
    os.register_at_fork(after_in_child=_forget_worker)


def _overlaps() -> bool:
    """Whether the process may run on two CPUs at once, read afresh on each
    call where the platform can tell."""
    return not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) >= 2


def _submit(fn: Callable, *args):
    """The future of `fn(*args)` on the worker, in a copy of the caller's
    context; None once the interpreter has begun to shut down (a thread
    outliving the main one, an atexit handler), when the executor module
    neither loads nor takes work."""
    global _worker
    try:
        if _worker is None:
            # two callers racing here may each start one; the executor lost is
            # collected and its thread exits
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="levelform-worker")
        return _worker.submit(contextvars.copy_context().run, fn, *args)
    except RuntimeError:
        return None


def _split_rows(work: Callable, pts: np.ndarray, out: np.ndarray) -> None:
    """`work(rows, out_rows)` over the rows of `pts`, the second half on the
    worker thread when there are at least _SPLIT_ROWS rows and two CPUs.

    `work` must write only its own rows of `out`.
    """
    half = len(pts) // 2 // _ROW_BLOCK * _ROW_BLOCK
    rest = pts[half:], out[half:]
    fut = _submit(work, *rest) if len(pts) >= _SPLIT_ROWS and _overlaps() else None
    if fut is None:
        work(pts, out)
        return
    work(pts[:half], out[:half])
    if fut.cancel():
        work(*rest)
    else:
        fut.result()


def lookahead(items: Generator) -> Generator:
    """The items of the generator `items`, in order, each next one drawn on the
    worker while the caller works on the one handed out.

    The first item is drawn on the caller, and so is every item where no
    worker runs. Once closed, by the caller or by an error, it cancels or
    waits for the draw in flight and then closes `items`, so no draw outlives
    it; close it explicitly (`contextlib.closing`) where an error may leave it
    half read.
    """
    if not _overlaps():
        yield from items
        return
    pending = None
    try:
        item = next(items, _END)
        while item is not _END:
            pending = _submit(next, items, _END)
            yield item
            if pending is None or pending.cancel():
                item = next(items, _END)
            else:
                item = pending.result()
    finally:
        if pending is not None and not pending.cancel():
            pending.exception()
        items.close()
