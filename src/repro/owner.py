"""The owner-thread check that ``python -X dev`` turns on.

A serving process keeps its session tables, its shards' stores and its
alerts on one thread, the event loop's, and locks none of them: another
thread reaches them only through ``ServerThread.call`` or a STATS
request.  :func:`owned` makes a method refuse a call from any thread
but its object's ``_owner`` under ``python -X dev`` (CI's debug-mode
step), so a read that skips the loop fails there instead of racing it.
A plain run gets the method itself and pays nothing.
"""

from __future__ import annotations

import functools
import sys
import threading
from typing import Callable


def owned(method: Callable) -> Callable:
    """Under ``python -X dev``, *method* refusing, with
    :class:`RuntimeError`, a call from any thread but the one in its
    object's ``_owner`` attribute; otherwise *method* itself."""
    if not sys.flags.dev_mode:
        return method

    @functools.wraps(method)
    def checked(self, *args, **kwargs):
        caller = threading.get_ident()
        if caller != self._owner:
            raise RuntimeError(
                f"{type(self).__name__}.{method.__name__} called from "
                f"thread {caller}; it belongs to thread {self._owner}"
            )
        return method(self, *args, **kwargs)

    return checked
