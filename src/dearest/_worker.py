"""One worker thread that runs half of a computation beside its caller.

scipy's sparse kernels, numpy's ufunc loops and LAPACK release the GIL, so
two independent passes over the data overlap on a second core.  Each half
runs exactly the code it would run alone, so results do not depend on the
overlap.  BLAS threading is left as the environment sets it.

The thread is started on first use, not at import.  A forked child drops the
pool it inherited (its thread does not exist there) and starts its own.  The
worker runs in a copy of the caller's context, so ``np.errstate`` applies to
both halves.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, TypeVar

__all__ = ["concurrently"]

A = TypeVar("A")
B = TypeVar("B")

_pool: ThreadPoolExecutor | None = None
_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def concurrently(there: Callable[[], A], here: Callable[[], B]) -> tuple[A, B]:
    """``(there(), here())``, with ``there`` on the worker thread and ``here`` on this one.

    Waits for the worker even when ``here`` raises, so no work outlives the
    call.  An exception in either half reaches the caller unchanged; when
    both raise, ``here``'s does.
    """
    global _pool
    with _lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="dearest-worker")
        future = _pool.submit(contextvars.copy_context().run, there)
    try:
        mine = here()
    finally:
        wait((future,))
    return future.result(), mine
