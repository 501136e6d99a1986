"""The package's one worker thread, which shares a call's work with its caller.

``both(on_worker, here)`` runs ``on_worker()`` on the worker while ``here()``
runs on the calling thread; each caller states its own split where it calls
it.  The shares are numpy work over long arrays, which releases the
interpreter lock, so on two cores they run at once.

There is one worker and no setting.  Shares from several calling threads
queue on it; a share never waits for another share, so none can deadlock.
The thread starts on the first call, not on import, in each forked child too.
"""

from __future__ import annotations

import contextvars
import os
from concurrent import futures


def _new_worker():
    global _WORKER
    _WORKER = futures.ThreadPoolExecutor(1, thread_name_prefix="xampus-worker")


_new_worker()
os.register_at_fork(after_in_child=_new_worker)


def both(on_worker, here):
    """Run ``on_worker()`` on the worker while ``here()`` runs on this thread,
    and return both results, ``(on_worker(), here())``.

    ``on_worker`` runs in a copy of the caller's context, so the caller's
    ``np.errstate`` holds on both threads.  Returns or raises only after
    both have ended, so nothing either uses is still in use when the call
    returns.  An error raised by ``on_worker`` reaches the caller with its
    type unchanged, unless ``here`` raised first.
    """
    share = _WORKER.submit(contextvars.copy_context().run, on_worker)
    try:
        result = here()
    finally:
        futures.wait((share,))
    return share.result(), result
