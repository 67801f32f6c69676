"""Metrics-plane unit tests: the fixed-bucket histograms of
:mod:`repro.perf`, the registry's JSON shape, and the sections the
debug server samples into every scrape."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.server.server import DebugServer
from repro.stream.workload import percentile

#: Ratio between one bucket's upper bound and the next one's.
BUCKET_RATIO = 2 ** (1 / perf.BUCKETS_PER_OCTAVE)
#: Slack for the six-decimal rounding of the summary.
ROUNDING = 5e-7


def _summary(values):
    histogram = perf.Histogram()
    for value in values:
        histogram.observe(value)
    return histogram.summary()


def test_histogram_percentiles():
    s = _summary(value / 1000 for value in range(1, 101))  # 1..100 ms
    assert s["count"] == 100
    # a percentile reads as its bucket's upper bound: at or above the
    # nearest-rank value and less than one bucket above it
    for key, exact in (("p50_s", 0.050), ("p95_s", 0.095), ("p99_s", 0.099)):
        assert exact <= s[key] < exact * BUCKET_RATIO
    assert s["max_s"] == pytest.approx(0.100)
    assert s["mean_s"] == pytest.approx(0.0505)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=2.0 ** -20, max_value=2.0 ** 10,
                  exclude_max=True),
        min_size=1,
        max_size=300,
    )
)
def test_histogram_percentiles_stay_within_one_bucket(values):
    s = _summary(values)
    ordered = sorted(values)
    for key, q in (("p50_s", 0.50), ("p95_s", 0.95), ("p99_s", 0.99)):
        exact = percentile(ordered, q)
        assert exact - ROUNDING <= s[key]
        assert s[key] <= exact * BUCKET_RATIO + ROUNDING
        assert s[key] <= s["max_s"]


def test_histogram_memory_is_fixed():
    histogram = perf.Histogram()
    buckets = len(histogram.buckets)
    values = [(i % 1000 + 1) * 1e-5 for i in range(100_000)]
    for value in values:
        histogram.observe(value)
    assert len(histogram.buckets) == buckets
    assert sum(histogram.buckets) == histogram.count == 100_000
    assert histogram.sum_s == sum(values)
    assert histogram.max_s == max(values)


def test_empty_histogram_summary():
    s = perf.Histogram().summary()
    assert s["count"] == 0
    assert s["mean_s"] == 0.0
    assert s["p99_s"] == 0.0


# ----------------------------------------------------------------------
def test_registry_snapshot_shape():
    registry = perf.PerfCounters()
    registry.add("requests", 3)
    registry.observe("lat", 0.01)
    snap = registry.as_dict()
    assert snap["counters"] == {"requests": 3}
    assert snap["histograms"]["lat"]["count"] == 1
    assert set(snap["histograms"]["lat"]) == {
        "count", "sum_s", "mean_s", "p50_s", "p95_s", "p99_s", "max_s",
    }


def test_registry_collector_errors_do_not_fail_scrape(context):
    server = DebugServer(context)

    def broken():
        raise RuntimeError("section exploded")

    server.health = broken
    stats = server.stats()
    assert stats["health"] == {"error": "section exploded"}
    assert stats["server"]["scenario"] == "cc-test"


def test_runtime_cache_collector_reports_hit_miss(context):
    stats = DebugServer(context).stats()["runtime_cache"]
    for key in ("hits", "misses", "hit_rate", "directory"):
        assert key in stats


def test_server_exports_localize_table_stats(context):
    server = DebugServer(context)
    tables = server.stats()["localize_tables"]
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
    assert tables["product_bytes"] == context.interleaved.nbytes


def test_perf_activate_deactivate_is_idempotent():
    counters = perf.PerfCounters()
    perf.activate(counters)
    perf.deactivate(counters)
    perf.deactivate(counters)  # second call is a no-op
    perf.add("ignored")  # no active collection: must not raise
    assert counters.get("ignored") == 0
