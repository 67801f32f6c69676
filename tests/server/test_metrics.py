"""Metrics-plane unit tests: counters, bounded-window histograms,
registry snapshots, and the stock collectors."""

from __future__ import annotations

import pytest

from repro import perf
from repro.server.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    runtime_cache_collector,
)


def test_counter_accumulates():
    c = Counter()
    c.inc()
    c.inc(5)
    assert c.value == 6


def test_histogram_percentiles():
    h = Histogram()
    for value in range(1, 101):  # 0.001 .. 0.100
        h.observe(value / 1000)
    s = h.summary()
    assert s["count"] == 100
    assert s["p50_s"] == pytest.approx(0.050)
    assert s["p95_s"] == pytest.approx(0.095)
    assert s["p99_s"] == pytest.approx(0.099)
    assert s["max_s"] == pytest.approx(0.100)
    assert s["mean_s"] == pytest.approx(0.0505)


def test_histogram_window_bounds_memory():
    h = Histogram(window=4)
    for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        h.observe(value)
    s = h.summary()
    # lifetime stats are exact; the percentile window holds the last 4
    assert s["count"] == 6
    assert s["window"] == 4
    assert s["max_s"] == 6.0
    assert s["p50_s"] in (3.0, 4.0, 5.0)  # recent observations only


def test_histogram_rejects_bad_window():
    with pytest.raises(ValueError):
        Histogram(window=0)


def test_empty_histogram_summary():
    s = Histogram().summary()
    assert s["count"] == 0
    assert s["mean_s"] == 0.0
    assert s["p99_s"] == 0.0


# ----------------------------------------------------------------------
def test_registry_get_or_create_is_stable():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    assert registry.histogram("h") is registry.histogram("h")


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("requests").inc(3)
    registry.histogram("lat").observe(0.01)
    registry.add_collector("extra", lambda: {"k": "v"})
    snap = registry.snapshot()
    assert snap["counters"] == {"requests": 3}
    assert snap["histograms"]["lat"]["count"] == 1
    assert snap["extra"] == {"k": "v"}


def test_registry_collector_errors_do_not_fail_scrape():
    registry = MetricsRegistry()

    def broken():
        raise RuntimeError("collector exploded")

    registry.add_collector("broken", broken)
    snap = registry.snapshot()
    assert snap["broken"] == {"error": "collector exploded"}


def test_runtime_cache_collector_reports_hit_miss():
    stats = runtime_cache_collector()
    for key in ("hits", "misses", "hit_rate", "directory"):
        assert key in stats


def test_server_exports_localize_table_stats(context):
    from repro.server.server import DebugServer

    server = DebugServer(context)  # wiring happens at construction
    snap = server.registry.snapshot()
    tables = snap["localize_tables"]
    for key in (
        "tables",
        "hits",
        "misses",
        "evictions",
        "bytes",
        "closure_entries",
        "step_memo_entries",
        "backend",
    ):
        assert key in tables
    assert tables["backend"] in ("numpy", "python")


def test_perf_activate_deactivate_is_idempotent():
    counters = perf.PerfCounters()
    perf.activate(counters)
    perf.deactivate(counters)
    perf.deactivate(counters)  # second call is a no-op
    perf.add("ignored")  # no active collection: must not raise
    assert counters.get("ignored") == 0
