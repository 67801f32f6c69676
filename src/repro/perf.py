"""One metrics registry: named counters and latency histograms.

The hot paths of the library (product construction, coverage bitsets,
the selection knapsack, the localization DP) report *aggregate* stage
counters -- states expanded, bitset ORs, DP steps -- and stage wall
times through this module.  Instrumentation is collected only while a
:func:`collect` block is active; outside one, :func:`add` and
:func:`timed` are near-zero-cost no-ops, so the counters can stay in
the production code paths permanently.

A :class:`PerfCounters` is the only metrics type in the repository.
``repro profile <scenario>`` prints one collection; the debug server
owns one for its lifetime, counts its own requests and latencies into
it, keeps it active for the library's counters while it serves, and
renders it on STATS and ``/metrics``.

Usage::

    from repro import perf

    with perf.collect() as counters:
        interleaved = interleave(instances)
        select_messages(interleaved, 32)
    print(counters.as_dict())

Collections nest: every active collector receives every increment, so
an outer campaign-level collection still sees the counters of inner
per-scenario ones.  The set of active collections is per thread: a
collection receives only the increments of the thread that activated
it.  The debug server activates its long-lived collector on its event
loop, where every shard op runs, so it counts the kernel work of its
own ops and none of another server's in the same process.  Nothing
here is locked: one thread writes a :class:`PerfCounters`, and another
thread reads it only through that one (the server's STATS request).

Histograms have one fixed layout (:data:`BUCKETS_PER_OCTAVE` log
buckets per power of two over ``[2**-20 s, 2**10 s)``): an observation
is O(1), memory never grows, and ``count``/``sum_s``/``max_s`` are
exact.  A percentile reads as its bucket's upper bound, capped at the
maximum: inside that range, at most ``2**(1/8) - 1`` (9.05 %) above
the nearest-rank value of the same samples.

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
  identical window (the count, not the count table, is cached);
* ``localize_dp_steps`` -- cells of window mode's count table, product
  states times automaton states (the prefix/exact kernels count
  ``localize_kernel_edges`` instead);
* timed stage ``localize_compile`` -- table compilation wall time;
* timed stage ``window_count`` -- one window's count-table DP (memo
  hits are not timed).
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from itertools import accumulate
from typing import Dict, Iterator, List, Tuple

#: Histogram layout: log buckets per power of two, and the octaves
#: covered.  The first bucket also takes everything below ``2**-20 s``
#: and the last everything above ``2**10 s``.
BUCKETS_PER_OCTAVE = 8
_LOW_EXP, _HIGH_EXP = -20, 10
#: Upper bound of each bucket in seconds (the last one unbounded).
_UPPER: Tuple[float, ...] = tuple(
    2.0 ** (_LOW_EXP + (i + 1) / BUCKETS_PER_OCTAVE)
    for i in range((_HIGH_EXP - _LOW_EXP) * BUCKETS_PER_OCTAVE - 1)
) + (math.inf,)
_QUANTILES = (("p50_s", 0.50), ("p95_s", 0.95), ("p99_s", 0.99))


class Histogram:
    """A latency distribution over the fixed log buckets."""

    __slots__ = ("count", "sum_s", "max_s", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum_s = 0.0
        self.max_s = 0.0
        self.buckets: List[int] = [0] * len(_UPPER)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.sum_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds
        self.buckets[bisect_right(_UPPER, seconds)] += 1

    def summary(self) -> Dict[str, float]:
        """Exact ``count``/``sum_s``/``mean_s``/``max_s``; each of
        ``p50_s``/``p95_s``/``p99_s`` is the upper bound of the bucket
        holding that nearest rank, capped at the max."""
        count, total, peak = self.count, self.sum_s, self.max_s
        summary: Dict[str, float] = {
            "count": count,
            "sum_s": round(total, 6),
            "mean_s": round(total / count, 6) if count else 0.0,
        }
        cumulative = list(accumulate(self.buckets))
        for key, q in _QUANTILES:
            bucket = bisect_left(cumulative, max(1, math.ceil(q * count)))
            value = min(_UPPER[bucket], peak) if count else 0.0
            summary[key] = round(value, 6)
        summary["max_s"] = round(peak, 6)
        return summary


class PerfCounters:
    """Named monotonic counters (e.g. ``interleave_states_expanded``)
    and latency histograms (a timed stage, a request latency)."""

    __slots__ = ("_counters", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}

    def add(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, seconds: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(seconds)

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """``{"counters": {name: count}, "histograms": {name:
        summary}}``, sorted by name and JSON-ready."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def format(self) -> str:
        """Human-readable two-column table (for the CLI): each counter,
        then each histogram's summed seconds."""
        snapshot = self.as_dict()
        counters = snapshot["counters"]
        seconds = {
            name: summary["sum_s"]
            for name, summary in snapshot["histograms"].items()
        }
        width = max(map(len, (*counters, *seconds)), default=0)
        lines = [f"{name:<{width}}  {n:>14,}" for name, n in counters.items()]
        lines.extend(
            f"{name:<{width}}  {s:>13.4f}s" for name, s in seconds.items()
        )
        return "\n".join(lines)


class _Active(threading.local):
    """Each thread's active collectors, oldest first; empty almost
    always, which is what keeps the permanent instrumentation free (one
    falsy check per call site).  A thread that never activated one
    reads the class attribute."""

    active: Tuple[PerfCounters, ...] = ()


_ACTIVE = _Active()


def enabled() -> bool:
    """Whether this thread has a collection active (for guarding costly
    summaries)."""
    return bool(_ACTIVE.active)


def add(name: str, amount: int = 1) -> None:
    """Increment counter *name* in every collection active on this
    thread (no-op when none is)."""
    for counters in _ACTIVE.active:
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
    """Activate *counters* on this thread without a ``with`` block
    (long-lived collections, e.g. a debug server's process-lifetime
    counters).  Pair every call with :func:`deactivate` on the same
    thread."""
    _ACTIVE.active = (*_ACTIVE.active, counters)
    return counters


def deactivate(counters: PerfCounters) -> None:
    """Deactivate a collection started by :func:`activate` (no-op when
    it is not active on this thread).  Matches by identity, newest
    activation first."""
    active = _ACTIVE.active
    for i in range(len(active) - 1, -1, -1):
        if active[i] is counters:
            _ACTIVE.active = active[:i] + active[i + 1:]
            return


@contextmanager
def timed(stage: str) -> Iterator[None]:
    """Time the block into histogram *stage* of every collection active
    on this thread.  When none is active the only cost is one falsy
    check."""
    if not _ACTIVE.active:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        for counters in _ACTIVE.active:
            counters.observe(stage, elapsed)
