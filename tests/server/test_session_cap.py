"""One admission rule on every way into the session table.

``max_sessions`` bounds the live sessions of the whole server.  An
OPEN of an id its shard does not hold live adds one; so does a FEED
or SNAPSHOT that revives a session the idle sweep spilled to the
store.  Either is refused with ``RETRY_LATER session-table-full`` and
no effect when the table is full once idle sessions are evicted; a
CLOSE retires the session it revives in the same op and needs no free
slot, and an OPEN of a live id adds none: it resumes the session or is
refused ``session-exists``, at the cap as below it.  Nor does an
ATTACH, which leaves a spilled session spilled.  The servers here
run on the test's own event loop, so the test can age sessions and
spill them between two requests.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple

from repro.server import ServerConfig, protocol
from repro.server.loadgen import render_session_chunks
from repro.server.server import DebugServer

#: Seconds of idleness that put a session past ``idle_timeout_s``.
IDLE = 120.0


class Wire:
    """One raw connection to a server on the running loop, and the
    session handles the server handed out on it."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.assembler = protocol.FrameAssembler()
        self.seq = 0
        self.handles: Dict[str, int] = {}

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

    async def by_handle(self, request_type: int, sid: str, encode):
        """Send the *request_type* request ``encode(handle)`` for *sid*,
        as :class:`~repro.server.DebugClient` does: attached (without
        a token) first when this connection holds no handle for it,
        and once more when the server no longer knows the one held (a
        connection's handle table keeps ``max_sessions`` handles).  A
        refused ATTACH's reply is returned as the request's."""
        for again in (True, False):
            held = sid in self.handles
            if not held:
                reply = await self.ask(
                    protocol.OPEN_SESSION,
                    protocol.encode_open_payload(sid, attach=True),
                )
                if reply[0] != protocol.OK:
                    return reply
                self.handles[sid] = reply[1]["handle"]
            reply = await self.ask(request_type, encode(self.handles[sid]))
            lost = reply[1].get("error") == "unknown-session"
            if not (lost and held and again):
                return reply
            del self.handles[sid]

    async def request(
        self, request_type: int, sid: str, token: Optional[str] = None
    ):
        if request_type == protocol.OPEN_SESSION:
            reply = await self.ask(
                request_type, protocol.encode_open_payload(sid, token=token)
            )
            if reply[0] == protocol.OK:
                self.handles[sid] = reply[1]["handle"]
            return reply
        return await self.by_handle(
            request_type, sid, protocol.encode_session_request
        )

    async def feed(self, sid: str, index: int, chunk: bytes):
        return await self.by_handle(
            protocol.FEED_CHUNK, sid,
            lambda handle: protocol.encode_feed_request(handle, index, chunk),
        )

    async def ok(
        self, request_type: int, sid: str, token: Optional[str] = None
    ) -> Dict[str, object]:
        frame_type, body = await self.request(request_type, sid, token)
        assert frame_type == protocol.OK, body
        return body


async def started(context, config: ServerConfig):
    """A started server and one connection to it."""
    server = DebugServer(context, config)
    await server.start()
    return server, await Wire.connect(server)


def serve(context, config: ServerConfig, scenario) -> None:
    """Run ``scenario(server, wire)`` against a started server."""

    async def main() -> None:
        server, wire = await started(context, config)
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


def assert_session_exists(reply) -> None:
    frame_type, body = reply
    assert frame_type == protocol.ERROR, body
    assert body["error"] == "session-exists"


def wal_appends(server: DebugServer) -> int:
    return server.stats()["store"]["totals"]["wal_appends"]


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
            await wire.ok(protocol.OPEN_SESSION, sid, token=f"{sid}0000000")
        # the idle sweep spills both, and two new sessions, one on
        # each shard, fill the table: no shard is full on its own.
        # Their handles push a's and b's out of this connection's
        # table (it keeps max_sessions of them), so each request for a
        # or b below attaches again first, which takes no slot
        assert [server.ring.shard_for(sid) for sid in "acbf"] == [0, 0, 1, 1]
        age(server, "a", "b")
        for sid in ("a", "b"):
            server.shard_for(sid).manager.evict_idle()
        for sid in ("c", "f"):
            await wire.ok(protocol.OPEN_SESSION, sid)
        appends = wal_appends(server)
        assert_table_full(await wire.request(protocol.SNAPSHOT, "a"))
        assert_table_full(await wire.request(protocol.SNAPSHOT, "b"))
        assert_table_full(await wire.feed("a", 0, chunk))
        assert server.stats()["server"]["open_sessions"] == 2
        assert server.metrics.get("retry_later_total") == 3
        # an OPEN of a spilled id with the token that opened it would
        # revive it: it needs a slot too
        assert_table_full(
            await wire.request(protocol.OPEN_SESSION, "a", "a0000000")
        )
        assert server.metrics.get("retry_later_total") == 4
        assert wal_appends(server) == appends
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


def test_an_open_of_a_live_id_at_the_cap_is_refused_session_exists(
    context,
):
    # a live id adds no session, so the cap does not answer for it: a
    # RETRY_LATER would send its client retrying an OPEN that can never
    # succeed
    config = ServerConfig(shards=1, max_sessions=1)

    async def scenario(server, wire):
        await wire.ok(protocol.OPEN_SESSION, "s", token="aaaa0000")
        assert_session_exists(
            await wire.request(protocol.OPEN_SESSION, "s", "bbbb0000")
        )
        assert server.metrics.get("retry_later_total") == 0
        # the same token is a retry, resumed at the cap
        resumed = await wire.ok(protocol.OPEN_SESSION, "s", "aaaa0000")
        assert resumed["resumed"] is True

    serve(context, config, scenario)


def test_a_foreign_open_of_an_idle_live_session_is_refused(
    context, tmp_path
):
    """An OPEN of a live id is never admitted through the eviction
    sweep: evicting the idle session would spill it, and the OPEN would
    then resume it for a token that did not open it."""
    config = ServerConfig(
        shards=2, max_sessions=2, data_dir=str(tmp_path), fsync="off",
        idle_timeout_s=60.0, idle_sweep_s=3600.0,
    )

    async def scenario(server, wire):
        await wire.ok(protocol.OPEN_SESSION, "s", token="aaaa0000")
        age(server, "s")
        assert_session_exists(
            await wire.request(protocol.OPEN_SESSION, "s", "bbbb0000")
        )
        shard = server.shard_for("s")
        assert shard.manager.session_ids() == ("s",)
        assert shard.manager.session("s").token == "aaaa0000"
        assert not shard.spilled("s")

    serve(context, config, scenario)


def test_recovery_keeps_every_durable_session_past_a_lower_cap(
    context, tmp_path
):
    chunk = render_session_chunks(context, seed=33, chunk_records=2)[0]
    sids = ("s0", "s1", "s2", "s3")

    def config(max_sessions: int) -> ServerConfig:
        return ServerConfig(
            shards=2, max_sessions=max_sessions, data_dir=str(tmp_path),
            fsync="off", snapshot_every=0,
        )

    def checkpoint(server: DebugServer) -> None:
        for shard in {server.shard_for(sid) for sid in sids + ("late",)}:
            shard.checkpoint()

    async def open_and_feed(wire: Wire, sid: str) -> None:
        await wire.ok(protocol.OPEN_SESSION, sid)
        frame_type, body = await wire.feed(sid, 0, chunk)
        assert frame_type == protocol.OK, body

    async def crash(server: DebugServer, wire: Wire) -> None:
        wire.writer.close()
        await server.stop(abort=True)

    async def main() -> None:
        first, wire = await started(context, config(4))
        for sid in ("s0", "s1"):
            await open_and_feed(wire, sid)
        checkpoint(first)  # s0 and s1 are snapshot entries
        for sid in ("s2", "s3"):  # s2 and s3 are WAL-tail OPENs and FEEDs
            await open_and_feed(wire, sid)
        want = {sid: await wire.ok(protocol.SNAPSHOT, sid) for sid in sids}
        await crash(first, wire)

        second, wire = await started(context, config(2))
        assert second.recovery_info["sessions"] == 4
        assert second.stats()["server"]["open_sessions"] == 4
        for sid, snapshot in want.items():
            assert await wire.ok(protocol.SNAPSHOT, sid) == snapshot
        # the table is over its cap: new sessions wait until it drains
        assert_table_full(await wire.request(protocol.OPEN_SESSION, "late"))
        for sid in ("s0", "s1", "s2"):
            await wire.ok(protocol.CLOSE_SESSION, sid)
        await wire.ok(protocol.OPEN_SESSION, "late")
        # the next snapshot still holds the session nobody closed
        checkpoint(second)
        await crash(second, wire)

        third, wire = await started(context, config(2))
        try:
            assert third.stats()["server"]["open_sessions"] == 2
            for sid in ("late", "s3"):
                assert sid in third.shard_for(sid).manager.session_ids()
            assert await wire.ok(protocol.SNAPSHOT, "s3") == want["s3"]
        finally:
            wire.writer.close()
            await third.stop()

    asyncio.run(main())
