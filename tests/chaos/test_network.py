"""The network fault plane: every proxy fault must be survivable by a
retrying client, and the converged outcome must equal the fault-free
one."""

from __future__ import annotations

import socket

import pytest

from repro.chaos.faults import FaultDecider, FaultPlan, FaultSpec
from repro.chaos.network import ChaosProxy
from repro.server import (
    DebugClient,
    RetryPolicy,
    ServerConfig,
    SessionFeed,
    protocol,
)
from repro.server.loadgen import render_session_chunks
from tests.server.conftest import start_server


POLICY = RetryPolicy(
    max_attempts=8,
    base_delay_s=0.02,
    max_delay_s=0.2,
    timeout_s=0.5,
    breaker_cooldown_s=0.05,
    breaker_max_cooldown_s=0.2,
)


@pytest.fixture
def running(context):
    handle = start_server(context, ServerConfig(shards=2))
    yield handle
    handle.thread.stop()


def proxied_run(running, plan, seed=5):
    """Feed one full session through a proxy running *plan*; returns
    (close reply, proxy stats, client)."""
    decider = FaultDecider(seed, plan)
    proxy = ChaosProxy(running.host, running.port, decider)
    proxy.start()
    client = DebugClient(proxy.host, proxy.port, policy=POLICY)
    try:
        chunks = render_session_chunks(
            running.context, seed=seed, chunk_records=2
        )
        feed = SessionFeed(client, session_id=f"px-{seed}")
        for i, chunk in enumerate(chunks):
            feed.feed(chunk, eof=(i == len(chunks) - 1))
        reply = feed.close()
        return reply, proxy.stats(), client
    finally:
        client.close()
        proxy.stop()


def reference_records(running, seed=5):
    with DebugClient(running.host, running.port) as direct:
        chunks = render_session_chunks(
            running.context, seed=seed, chunk_records=2
        )
        feed = SessionFeed(direct, session_id=f"ref-{seed}")
        for i, chunk in enumerate(chunks):
            feed.feed(chunk, eof=(i == len(chunks) - 1))
        return feed.close().records


def test_clean_proxy_is_transparent(running):
    reply, stats, _ = proxied_run(running, FaultPlan(specs=()))
    assert reply.status == "closed"
    assert reply.records == reference_records(running)
    assert stats["forwarded"] == stats["frames"]
    assert stats["dropped"] == 0


def test_dropped_frames_are_retransmitted(running):
    plan = FaultPlan(specs=(FaultSpec("network", "drop", 1.0),))
    reply, stats, client = proxied_run(running, plan)
    assert reply.status == "closed"
    assert reply.records == reference_records(running)
    assert stats["dropped"] > 0
    assert client.retries > 0


def test_duplicated_frames_are_deduplicated_server_side(running):
    plan = FaultPlan(
        specs=(FaultSpec("network", "duplicate", 1.0,
                         max_per_digest=10_000),)
    )
    reply, stats, _ = proxied_run(running, plan)
    assert reply.status == "closed"
    assert reply.records == reference_records(running)
    assert stats["duplicated"] > 0


def test_corrupted_frames_are_rejected_and_survived(running):
    plan = FaultPlan(specs=(FaultSpec("network", "corrupt", 1.0),))
    reply, stats, client = proxied_run(running, plan)
    assert reply.status == "closed"
    assert reply.records == reference_records(running)
    assert stats["corrupted"] > 0
    assert client.retries > 0


def test_reordered_chunks_converge(running):
    plan = FaultPlan(
        specs=(FaultSpec("network", "reorder", 1.0,
                         max_per_digest=10_000),)
    )
    reply, stats, _ = proxied_run(running, plan)
    assert reply.status == "closed"
    assert reply.records == reference_records(running)
    assert stats["reordered"] > 0


def test_delayed_frames_converge(running):
    plan = FaultPlan(
        specs=(FaultSpec("network", "delay", 1.0,
                         max_per_digest=10_000),)
    )
    reply, stats, _ = proxied_run(running, plan)
    assert reply.status == "closed"
    assert stats["delayed"] > 0


def test_upstream_outage_is_refused_not_hung(running):
    decider = FaultDecider(0, FaultPlan(specs=()))
    proxy = ChaosProxy("127.0.0.1", 1, decider)  # nothing listens there
    proxy.start()
    try:
        client = DebugClient(
            proxy.host, proxy.port,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.01,
                               timeout_s=0.3),
        )
        with pytest.raises(Exception):
            client.ping()
        client.close()
        assert proxy.stats()["upstream_refused"] > 0
    finally:
        proxy.stop()


def test_set_upstream_repoints_new_connections(running, context):
    decider = FaultDecider(0, FaultPlan(specs=()))
    proxy = ChaosProxy("127.0.0.1", 1, decider)
    proxy.start()
    try:
        proxy.set_upstream(running.host, running.port)
        with DebugClient(proxy.host, proxy.port, policy=POLICY) as client:
            assert client.ping()["scenario"] == context.name
    finally:
        proxy.stop()


def test_handle_named_frames_are_keyed_by_their_session():
    """A FEED, SNAPSHOT or CLOSE names its session by a handle scoped to
    its connection: its fault key is its payload past the handle and
    the id of the latest OPEN relayed on the connection."""
    seen = []

    class Spy:
        def decide(self, plane, action, digest):
            seen.append(digest)
            return False

    proxy = ChaosProxy("127.0.0.1", 1, Spy())
    upstream, peer = socket.socketpair()

    def key(frame_type, payload, opened):
        del seen[:]
        frame = protocol.WireFrame(frame_type, 1, payload)
        assert proxy._relay_frame(upstream, frame, [], opened)
        return seen[0]

    try:
        snapshot = protocol.encode_session_request(0, deadline_ms=100)
        # the same bytes from two sessions are two keys
        assert key(protocol.SNAPSHOT, snapshot, "a") != key(
            protocol.SNAPSHOT, snapshot, "b"
        )
        # a retransmit under another connection's handle is one key
        assert key(
            protocol.FEED_CHUNK,
            protocol.encode_feed_request(0, 3, b"data"), "a",
        ) == key(
            protocol.FEED_CHUNK,
            protocol.encode_feed_request(300, 3, b"data"), "a",
        )
        # an OPEN is keyed by its own bytes, whatever came before
        opened = protocol.encode_open_payload("a", token="t")
        assert key(protocol.OPEN_SESSION, opened, "a") == key(
            protocol.OPEN_SESSION, opened, "b"
        )
    finally:
        upstream.close()
        peer.close()
