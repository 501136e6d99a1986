"""The package's one worker thread, which shares a call's work with its caller.

The simulator's interference and the kernel bank each split one call in two:
the calling thread takes one share, the worker the other, and both are numpy
fills and ufuncs over arrays long enough that numpy releases the interpreter
lock, so on two cores the shares run at once.  ``add_interference`` hands
the worker one share per call: the worker builds clean plus speckle as one
array while the caller draws the seeded white noise, one row at a time, and
once the speckle is done the worker draws rows too, until none is left.
Each row has its own stream, so its noise does not depend on the thread that
draws it.  The caller adds the two arrays once the worker is done.  The
kernel bank gives the worker every second warp group, each writing only its
own columns.  Either way the results are bitwise those of a serial run.

There is one worker and no setting.  Shares from several calling threads
queue on it; a share never waits for another share, so none can deadlock.
The thread starts on the first call, not on import, in each forked child too.
"""

from __future__ import annotations

import os
from concurrent import futures
from contextlib import contextmanager


def _new_worker():
    global _WORKER
    _WORKER = futures.ThreadPoolExecutor(1, thread_name_prefix="xampus-worker")


_new_worker()
os.register_at_fork(after_in_child=_new_worker)


@contextmanager
def alongside(fn, *args):
    """Run ``fn(*args)`` on the worker while the ``with`` block runs here.

    Yields the future of ``fn``.  The block is left only after ``fn`` has
    ended, whether the block finished or raised, so nothing the block owns is
    still in use when the call returns.  An error raised by ``fn`` reaches
    the caller with its type unchanged, unless the block raised first.
    """
    share = _WORKER.submit(fn, *args)
    try:
        yield share
    finally:
        futures.wait((share,))
    share.result()
