"""Pull-based metrics for the debug service.

A :class:`MetricsRegistry` owns named counters and latency histograms,
plus *collectors* -- callables sampled at scrape time that fold in
state owned elsewhere (per-shard :class:`~repro.stream.session.
SessionManager` stats, :mod:`repro.runtime` cache hit/miss counters,
the server's live :class:`repro.perf.PerfCounters`, compression
ratios).  Everything is exported as one JSON-ready dict, served two
ways: on the wire protocol's ``STATS`` frame and over plain HTTP via
``repro serve --metrics-port``.

All mutators are thread-safe (shard worker threads and the asyncio
loop both update them); scraping takes each metric's lock only briefly,
so a scrape never stalls the serving path.

Histograms keep a bounded ring of the most recent observations (plus
exact lifetime count/sum/max), so p50/p95/p99 reflect *recent* latency
-- what an operator dashboards -- with O(window) memory forever.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List

from repro.stream.workload import percentile

Collector = Callable[[], Dict[str, object]]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Histogram:
    """Latency distribution over a bounded window of observations."""

    __slots__ = ("_lock", "_window", "_ring", "_next", "count", "total",
                 "max_value")

    def __init__(self, window: int = 2048) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self._window = window
        self._ring: List[float] = []
        self._next = 0
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value > self.max_value:
                self.max_value = value
            if len(self._ring) < self._window:
                self._ring.append(value)
            else:
                self._ring[self._next] = value
                self._next = (self._next + 1) % self._window

    def summary(self) -> Dict[str, float]:
        with self._lock:
            retained = sorted(self._ring)
            count, total, peak = self.count, self.total, self.max_value
        return {
            "count": count,
            "sum_s": round(total, 6),
            "mean_s": round(total / count, 6) if count else 0.0,
            "p50_s": round(percentile(retained, 0.50), 6),
            "p95_s": round(percentile(retained, 0.95), 6),
            "p99_s": round(percentile(retained, 0.99), 6),
            "max_s": round(peak, 6),
            "window": len(retained),
        }


class MetricsRegistry:
    """Named metrics plus scrape-time collectors, exported as JSON."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: Dict[str, Collector] = {}

    # -- get-or-create accessors ---------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter()
            return metric

    def histogram(self, name: str, window: int = 2048) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(window)
            return metric

    def add_collector(self, name: str, collector: Collector) -> None:
        """Register *collector*; its dict lands under key *name* in
        every :meth:`snapshot` (errors surface as ``{"error": ...}``
        instead of failing the scrape)."""
        with self._lock:
            self._collectors[name] = collector

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """One JSON-ready view of every metric and collector."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
            collectors = dict(self._collectors)
        payload: Dict[str, object] = {
            "counters": {
                name: metric.value for name, metric in sorted(counters.items())
            },
            "histograms": {
                name: metric.summary()
                for name, metric in sorted(histograms.items())
            },
        }
        for name, collector in sorted(collectors.items()):
            try:
                payload[name] = collector()
            except Exception as exc:  # scrape must never take the
                payload[name] = {"error": str(exc)}  # service down
        return payload


# ----------------------------------------------------------------------
# stock collectors
def runtime_cache_collector() -> Dict[str, object]:
    """Hit/miss counters of the process-wide artifact cache."""
    from repro.runtime.cache import default_cache

    cache = default_cache()
    stats = cache.stats.as_dict()
    stats["directory"] = str(cache.directory)
    return stats

