"""The process's helper threads: one slot per usable CPU besides the caller's.

Every helper, whether it evaluates slabs (:func:`riemannlab.fields._rowwise`)
or takes a long sum's index-order plain sum
(:func:`riemannlab.summation.neumaier_sum`), starts through :func:`start`,
which takes a slot without waiting. So the process never runs more helpers
at once than it has usable CPUs besides the caller, and a caller that finds
no slot free does the work itself. A helper runs in a copy of its caller's
context, so numpy's error state (a context variable in numpy 2) is the
caller's, and a helper lives only until its caller joins it. Importing this
module starts no thread.
"""

from __future__ import annotations

import contextvars
import os
import threading
from typing import Callable


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _new_slots() -> None:
    """Set ``_slots``: one helper slot per usable CPU besides the caller's.

    It runs at import and again in a forked child, which has none of its
    parent's helper threads, and where a lock that a parent thread held at
    the fork would stay held.
    """
    global _slots
    _slots = threading.BoundedSemaphore(usable_cpus() - 1)


_new_slots()
if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_new_slots)


def start(fn: Callable[[], object], name: str) -> Callable[[], object] | None:
    """Run ``fn()`` on a new thread called ``name`` in a free slot, under a
    copy of the caller's context, and return its join: a function that waits
    for the thread and returns what ``fn`` returned, or raises what it
    raised. Returns None when no slot is free or no thread can be started.
    The slot comes back when ``fn`` ends, so every join must be called.
    """
    if not _slots.acquire(blocking=False):
        return None
    context = contextvars.copy_context()
    outcome = {}

    def run() -> None:
        try:
            outcome["value"] = context.run(fn)
        except BaseException as exc:  # re-raised by the join, in the caller
            outcome["error"] = exc
        finally:
            _slots.release()

    thread = threading.Thread(target=run, name=name)
    try:
        thread.start()
    except RuntimeError:  # no thread can be started now
        _slots.release()
        return None

    def join() -> object:
        thread.join()
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]

    return join
