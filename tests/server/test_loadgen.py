"""Load-generator tests: workload construction, the networked run
(inline-thread path), and per-seed equality of every networked outcome
with the in-process batch localizer."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.selection.localization import PathLocalizer
from repro.server import ServerConfig
from repro.server.loadgen import (
    build_session_jobs,
    render_session_chunks,
    run_network_load_test,
)
from repro.stream.service import synthetic_session_records
from tests.server.conftest import start_server


def test_chunks_reassemble_to_the_exact_tracefile(context):
    chunks = render_session_chunks(context, seed=3, chunk_records=2)
    text = b"".join(chunks).decode("utf-8")
    lines = text.splitlines()
    assert lines[0].startswith("# repro-trace v1")
    # every chunk ends on a record-line boundary
    assert all(chunk.endswith(b"\n") for chunk in chunks)
    assert all(len(c.decode().splitlines()) <= 2 for c in chunks)


def test_render_rejects_bad_chunking(context):
    with pytest.raises(ReproError, match="chunk_records"):
        render_session_chunks(context, seed=0, chunk_records=0)


def test_build_session_jobs_assigns_distinct_seeded_ids(context):
    jobs = build_session_jobs(context, sessions=3, seed=5)
    assert [sid for sid, _ in jobs] == ["lg-0005", "lg-0006", "lg-0007"]
    assert len({chunks for _, chunks in jobs}) >= 1
    with pytest.raises(ReproError, match="sessions"):
        build_session_jobs(context, sessions=0)


def test_networked_load_test_inline(running):
    report = run_network_load_test(
        running.host,
        running.port,
        running.context,
        sessions=4,
        processes=0,
        threads=2,
        chunk_records=2,
        seed=0,
    )
    assert report.sessions == 4
    assert not report.failures
    assert report.retries == 0
    assert report.total_records > 0
    assert report.records_per_s > 0
    summary = report.as_dict()
    assert summary["statuses"] == {"closed": 4}
    assert "p50_feed_latency_s" in summary
    assert "p99_feed_latency_s" in summary


def test_networked_matches_in_process_outcomes(running):
    """Sessions interleaved on three threads over two shards each end
    on the batch localization of their own seed's capture: scheduling
    never leaks between sessions."""
    networked = run_network_load_test(
        running.host,
        running.port,
        running.context,
        sessions=6,
        processes=0,
        threads=3,
        chunk_records=2,
        seed=9,
    )
    assert not networked.failures
    assert networked.sessions == 6
    batch = PathLocalizer(running.context.interleaved, running.context.traced)
    for seed, outcome in enumerate(networked.outcomes, start=9):
        assert outcome["session_id"] == f"lg-{seed:04d}"
        records = synthetic_session_records(
            running.context.interleaved, running.context.traced, seed
        )
        expected = batch.localize([r.message for r in records])
        assert (
            outcome["status"],
            outcome["records"],
            outcome["consistent_paths"],
            outcome["total_paths"],
        ) == (
            "closed",
            len(records),
            expected.consistent_paths,
            expected.total_paths,
        ), outcome["session_id"]


def test_load_test_failures_are_reported_not_raised(context):
    # a server with no session capacity: every session fails after
    # retries, and the report says so instead of blowing up
    handle = start_server(
        context, ServerConfig(shards=1, max_sessions=0)
    )
    try:
        from repro.server import RetryPolicy

        report = run_network_load_test(
            handle.host,
            handle.port,
            context,
            sessions=2,
            processes=0,
            threads=1,
            chunk_records=2,
            seed=0,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.01),
        )
        assert len(report.failures) == 2
        assert report.sessions == 0
        assert report.retries > 0
    finally:
        handle.thread.stop()
