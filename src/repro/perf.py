"""Lightweight stage counters for the selection core.

The hot paths of the library (product construction, coverage bitsets,
the selection knapsack, the localization DP) report *aggregate* stage
counters -- states expanded, bitset ORs, DP steps, wall time per stage
-- through this module.  Instrumentation is collected only while a
:func:`collect` block is active; outside one, :func:`add` and
:func:`timed` are near-zero-cost no-ops, so the counters can stay in
the production code paths permanently.

The ``repro profile <scenario>`` CLI command prints one collection;
the debug server keeps one active for its lifetime and serves it on
STATS and ``/metrics``.

Usage::

    from repro import perf

    with perf.collect() as counters:
        interleaved = interleave(instances)
        select_messages(interleaved, 32)
    print(counters.as_dict())

Collections nest: every active collector receives every increment, so
an outer campaign-level collection still sees the counters of inner
per-scenario ones.  The set of active collectors is process-global and
not thread-isolated: a collection sees the increments of every thread
while it is active.  That is how the debug server's long-lived
collector counts the kernel work its shard threads do.  Increments are
thread-safe -- each :class:`PerfCounters` guards its maps with its own
lock, and :func:`add`/:func:`timed` iterate an immutable snapshot of
the active set while other threads activate or deactivate collections.

Localization counter registry (reported by
:mod:`repro.selection.kernels` and
:mod:`repro.selection.localization`):

* ``localize_kernel_batches`` / ``localize_kernel_symbols`` -- batched
  ``advance_many`` invocations and symbols they consumed;
* ``localize_kernel_edges`` -- product edges touched by the gather/
  scatter kernels (visible step plus closure expansion);
* ``localize_kernel_promotions`` -- steps the int64-overflow guard
  promoted to the exact pure-Python kernels;
* ``localize_step_memo_hits`` / ``localize_step_memo_misses`` -- the
  content-keyed per-step memo shared across sessions;
* ``localize_table_hits`` / ``localize_table_misses`` /
  ``localize_table_compiles`` / ``localize_table_bytes`` -- the
  cross-shard :class:`~repro.selection.kernels.TableRegistry`;
* ``localize_window_memo_hits`` -- window-mode counts reused for an
  identical window (the count, not the composed-DP table, is cached);
* ``localize_dp_steps`` -- window mode's composed-DP table entries
  (the prefix/exact kernels count ``localize_kernel_edges`` instead);
* timed stage ``localize_compile`` -- table compilation wall time.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple


@dataclass
class PerfCounters:
    """Aggregated stage counters for one :func:`collect` block.

    Attributes
    ----------
    counters:
        Monotonic event counts, e.g. ``interleave_states_expanded`` or
        ``coverage_bitset_ors``.
    timings:
        Wall time per named stage in seconds (summed over repeated
        entries of the same stage).
    """

    counters: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, stage: str, seconds: float) -> None:
        with self._lock:
            self.timings[stage] = self.timings.get(stage, 0.0) + seconds

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            counters = sorted(self.counters.items())
            timings = sorted(self.timings.items())
        return {
            "counters": dict(counters),
            "wall_s": {stage: round(seconds, 6) for stage, seconds in timings},
        }

    def format(self) -> str:
        """Human-readable two-column table (for the CLI)."""
        with self._lock:
            counters = sorted(self.counters.items())
            timings = sorted(self.timings.items())
        lines: List[str] = []
        width = max((len(n) for n, _ in (*counters, *timings)), default=0)
        for name, count in counters:
            lines.append(f"{name:<{width}}  {count:>14,}")
        for stage, seconds in timings:
            lines.append(f"{stage:<{width}}  {seconds:>13.4f}s")
        return "\n".join(lines)


#: Active collectors, oldest first; empty almost always, which is what
#: keeps the permanent instrumentation free (one falsy check per call
#: site).  An immutable tuple replaced under ``_ACTIVE_LOCK``, so the
#: increment loops iterate a consistent snapshot while other threads
#: activate or deactivate collections.
_ACTIVE: Tuple[PerfCounters, ...] = ()
_ACTIVE_LOCK = threading.Lock()


def enabled() -> bool:
    """Whether any collection is active (for guarding costly summaries)."""
    return bool(_ACTIVE)


def add(name: str, amount: int = 1) -> None:
    """Increment counter *name* in every active collection (no-op when
    none is active)."""
    for counters in _ACTIVE:
        counters.add(name, amount)


@contextmanager
def collect() -> Iterator[PerfCounters]:
    """Activate a new :class:`PerfCounters` collection for the block."""
    counters = activate(PerfCounters())
    try:
        yield counters
    finally:
        deactivate(counters)


def activate(counters: PerfCounters) -> PerfCounters:
    """Activate *counters* without a ``with`` block (long-lived
    collections, e.g. a debug server's process-lifetime counters).
    Pair every call with :func:`deactivate`."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = (*_ACTIVE, counters)
    return counters


def deactivate(counters: PerfCounters) -> None:
    """Deactivate a collection started by :func:`activate` (no-op when
    it is not active).  Matches by identity, newest activation first."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        for i in range(len(_ACTIVE) - 1, -1, -1):
            if _ACTIVE[i] is counters:
                _ACTIVE = _ACTIVE[:i] + _ACTIVE[i + 1:]
                return


@contextmanager
def timed(stage: str) -> Iterator[None]:
    """Time the block and add it to stage *stage* of every active
    collection.  When none is active the only cost is two clock reads."""
    if not _ACTIVE:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        for counters in _ACTIVE:
            counters.add_time(stage, elapsed)

