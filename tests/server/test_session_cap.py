"""One session cap on every way into the session table.

``max_sessions`` bounds the live sessions of the whole server.  An
OPEN adds one; so does a FEED or SNAPSHOT that revives a session the
idle sweep spilled to the store.  Either is refused with
``RETRY_LATER session-table-full`` and no effect when the table is
full once idle sessions are evicted; a CLOSE retires the session it
revives in the same op and needs no free slot.  The servers here run
on the test's own event loop, so the test can age sessions and spill
them between two requests.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Tuple

from repro.server import ServerConfig, protocol
from repro.server.loadgen import render_session_chunks
from repro.server.server import DebugServer
from repro.server.shard import Shard

#: Seconds of idleness that put a session past ``idle_timeout_s``.
IDLE = 120.0


class Wire:
    """One raw connection to a server on the running loop."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.assembler = protocol.FrameAssembler()
        self.seq = 0

    @classmethod
    async def connect(cls, server: DebugServer) -> "Wire":
        return cls(*await asyncio.open_connection(server.host, server.port))

    async def ask(
        self, request_type: int, payload: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """Send one request; returns the reply's frame type and body."""
        self.seq += 1
        self.writer.write(
            protocol.encode_frame(request_type, self.seq, payload)
        )
        await self.writer.drain()
        frames = []
        while not frames:
            data = await asyncio.wait_for(self.reader.read(65536), 5.0)
            assert data, "server closed the connection"
            frames = self.assembler.feed(data)
        (frame,) = frames
        return frame.frame_type, protocol.decode_reply(
            request_type, frame.frame_type, frame.payload
        )

    async def request(self, request_type: int, sid: str):
        if request_type == protocol.OPEN_SESSION:
            payload = protocol.encode_open_payload(sid)
        else:
            payload = protocol.encode_session_payload(sid)
        return await self.ask(request_type, payload)

    async def feed(self, sid: str, index: int, chunk: bytes):
        return await self.ask(
            protocol.FEED_CHUNK,
            protocol.encode_feed_payload(sid, index, chunk),
        )

    async def ok(self, request_type: int, sid: str) -> Dict[str, object]:
        frame_type, body = await self.request(request_type, sid)
        assert frame_type == protocol.OK, body
        return body


def serve(context, config: ServerConfig, scenario) -> None:
    """Run ``scenario(server, wire)`` against a started server."""

    async def main() -> None:
        server = DebugServer(context, config)
        await server.start()
        wire = await Wire.connect(server)
        try:
            await scenario(server, wire)
        finally:
            wire.writer.close()
            await server.stop()

    asyncio.run(main())


def age(server: DebugServer, *sids: str) -> None:
    for sid in sids:
        server.shard_for(sid).manager.session(sid).last_active -= IDLE


def assert_table_full(reply) -> None:
    frame_type, body = reply
    assert frame_type == protocol.RETRY_LATER, body
    assert body["reason"] == "session-table-full"


def test_revivals_past_the_global_cap_are_refused_without_effect(
    context, tmp_path
):
    chunk = render_session_chunks(context, seed=5, chunk_records=2)[0]
    config = ServerConfig(
        shards=2, max_sessions=2, data_dir=str(tmp_path), fsync="off",
        idle_timeout_s=60.0, idle_sweep_s=3600.0,
    )

    async def scenario(server, wire):
        for sid in ("a", "b"):
            await wire.ok(protocol.OPEN_SESSION, sid)
        # the idle sweep spills both, and two new sessions, one on
        # each shard, fill the table: no shard is full on its own
        assert [server.ring.shard_for(sid) for sid in "acbf"] == [0, 0, 1, 1]
        age(server, "a", "b")
        for sid in ("a", "b"):
            server.shard_for(sid).manager.evict_idle()
        for sid in ("c", "f"):
            await wire.ok(protocol.OPEN_SESSION, sid)
        assert_table_full(await wire.request(protocol.SNAPSHOT, "a"))
        assert_table_full(await wire.request(protocol.SNAPSHOT, "b"))
        assert_table_full(await wire.feed("a", 0, chunk))
        assert server.stats()["server"]["open_sessions"] == 2
        assert server.metrics.get("retry_later_total") == 3
        for sid in ("a", "b"):
            assert server.shard_for(sid).spilled(sid)
        # a CLOSE revives and retires in one op: no slot needed
        closed = await wire.ok(protocol.CLOSE_SESSION, "b")
        assert closed["status"] == "closed"
        assert server.stats()["server"]["open_sessions"] == 2
        # a freed slot admits the revival, which finds the refused
        # FEED never applied
        await wire.ok(protocol.CLOSE_SESSION, "c")
        snapshot = await wire.ok(protocol.SNAPSHOT, "a")
        assert snapshot["next_chunk"] == 0
        assert snapshot["observed_length"] == 0
        assert server.stats()["server"]["open_sessions"] == 2

    serve(context, config, scenario)


def test_an_open_evicts_idle_sessions_before_it_is_refused(context):
    config = ServerConfig(
        shards=2, max_sessions=2, idle_timeout_s=60.0, idle_sweep_s=60.0
    )

    async def scenario(server, wire):
        for sid in ("a", "b"):
            await wire.ok(protocol.OPEN_SESSION, sid)
        assert_table_full(await wire.request(protocol.OPEN_SESSION, "c"))
        # both live sessions idle past their timeout: the next OPEN
        # need not wait for the sweep
        age(server, "a", "b")
        await wire.ok(protocol.OPEN_SESSION, "c")
        stats = server.stats()
        assert stats["server"]["open_sessions"] == 1
        assert sum(s["evicted"] for s in stats["shards"]["shards"]) == 2
        assert server.metrics.get("retry_later_total") == 1

    serve(context, config, scenario)


def test_a_full_shard_refuses_a_revival_and_keeps_it_spilled(
    context, tmp_path
):
    chunks = render_session_chunks(context, seed=5, chunk_records=2)
    config = ServerConfig(
        data_dir=str(tmp_path), fsync="off", max_sessions=1
    )
    shard = Shard(0, context, config)
    shard.recover()
    try:
        assert shard.open("a")[0] == protocol.OK
        shard.manager.session("a").last_active -= 2 * config.idle_timeout_s
        assert shard.manager.evict_idle() == ("a",)
        assert shard.open("b")[0] == protocol.OK
        appends = shard.store.stats()["wal_appends"]
        for reply in (
            shard.snapshot("a"),
            shard.feed("a", 0, chunks[0]),
            shard.open("a"),
        ):
            assert_table_full(
                (reply[0], protocol.decode_json(reply[1]))
            )
        assert shard.spilled("a")
        assert shard.manager.session_ids() == ("b",)
        assert shard.store.stats()["wal_appends"] == appends
        # a CLOSE needs no free slot
        frame_type, _ = shard.close("a")
        assert frame_type == protocol.OK
        assert not shard.spilled("a")
        assert shard.manager.session_ids() == ("b",)
    finally:
        shard.store.close()
