"""The asyncio debug server: sharded sessions behind the wire protocol.

Architecture::

                    +-- shard 0: Shard core
    TCP conns ------+-- shard 1: Shard core
     (asyncio)      +-- ...          (consistent-hash routed by session id)

    one handler task per connection: read -> admit -> op -> write reply

* **Sharding** -- every session id maps onto one shard via a
  consistent-hash ring (:class:`HashRing`).  An OPEN names its session
  by id; its reply hands out a handle, which the connection's
  :class:`SessionHandles` maps to ``(shard, id, incarnation)``, so a
  FEED, SNAPSHOT or CLOSE reaches its shard with no id to decode and
  no ring lookup, and acts only on the incarnation its handle names.
  A connection's handler
  runs each request's op on its shard as soon as it admits it, then
  writes the reply, all on the event loop: an op never awaits, so it
  runs to completion between two loop steps, and per-session ordering
  holds with zero per-request locking.  Everything the server runs on
  a shard -- op handling, durability, recovery, shutdown -- is the
  shard's transport-free core, :class:`repro.server.shard.Shard`;
  :meth:`DebugServer.shard_for` hands it out.  The server starts no
  thread of its own: it is bound by the interpreter lock, so a thread
  per shard would add two thread hand-offs per op and a malloc arena
  per thread, and no parallelism.
* **Admission control** -- one rule, :meth:`DebugServer._make_room`,
  decides whether a request may add a live session: an OPEN that
  opens a fresh session, or an OPEN, FEED or SNAPSHOT that revives a
  spilled one (:meth:`Shard.adds_session`, :meth:`Shard.spilled`); an
  ATTACH revives nothing.  It evicts idle sessions on every shard, then
  refuses at the global open-session cap.  A request is answered with
  a structured ``RETRY_LATER`` frame, never stalled or dropped, when
  that rule refuses it, when the server drains, or when its deadline
  has passed by the time its op would run.  A
  ``RETRY_LATER`` always means the request had no effect.  A deadline
  counts from the socket read that carried the frame: it covers the
  earlier frames of that read, not the ops of other connections that
  ran in the same loop turn before the read returned.
* **Backpressure** is the socket's: a handler reads its next bytes
  only after writing every reply of the last read, and a write waits
  while a client that does not read has a full buffer, so TCP flow
  control bounds each connection.
* **Idle eviction** -- a sweeper task periodically retires sessions
  nobody fed (on the event loop, between two ops, so it serializes
  with every shard's operations), and admission retires them before
  it counts the table.
* **Graceful drain** -- SIGINT/SIGTERM stop the accept loop and
  refuse new work; every admitted op has already run, so the shard
  cores shut down and each connection closes once its replies flush.
* **Durability** (opt-in via ``ServerConfig.data_dir``) -- each shard
  core owns a :class:`repro.store.SessionStore`, and startup recovers
  every session bit-identical to an uninterrupted run; the server
  itself only checks the data directory's ``meta.json`` identity.
* **Metrics** -- one :class:`repro.perf.PerfCounters` per server
  (``DebugServer.metrics``): the serving path counts requests and
  observes latencies into it, and it stays active for the library's
  stage counters while the server runs.  :meth:`DebugServer.stats`
  renders it with the sections sampled at scrape time (server, health,
  store, shards, runtime cache, localization tables) -- over the
  ``STATS`` frame or the plain-HTTP ``--metrics-port`` listener.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import signal
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro import perf
from repro.core.interleave import InterleavedFlow
from repro.core.message import Message
from repro.errors import ProtocolError, StoreError, StreamError
from repro.owner import owned
from repro.selection import kernels
from repro.server import protocol
from repro.server.shard import Reply, Shard
from repro.store.inspect import META_FORMAT, read_meta, write_meta

#: Session transports: text trace-file chunks, or framed compressed
#: bitstream chunks (decoded by :class:`repro.compress.decoder.
#: IncrementalFrameDecoder`).
TRANSPORTS = ("text", "ctrace")


@dataclass(frozen=True)
class ServeContext:
    """What the server serves: one usage scenario's analysis context."""

    name: str
    interleaved: InterleavedFlow
    traced: Tuple[Message, ...]
    catalog: Mapping[str, Message]
    mode: str = "prefix"
    max_frontier: Optional[int] = 4096

    @classmethod
    def from_scenario(
        cls,
        number: int,
        instances: int = 1,
        buffer_width: int = 32,
        mode: str = "prefix",
        max_frontier: Optional[int] = 4096,
    ) -> "ServeContext":
        """Build the context for a T2 scenario (cached selection)."""
        from repro.experiments.common import scenario_selection

        bundle = scenario_selection(
            number, instances=instances, buffer_width=buffer_width
        )
        sc = bundle.scenario
        return cls(
            name=sc.name,
            interleaved=sc.interleaved(),
            traced=tuple(bundle.with_packing.traced),
            catalog=dict(sc.catalog.messages),
            mode=mode,
            max_frontier=max_frontier,
        )

    @classmethod
    def from_components(
        cls,
        interleaved: InterleavedFlow,
        traced: Tuple[Message, ...],
        catalog: Optional[Mapping[str, Message]] = None,
        name: str = "custom",
        mode: str = "prefix",
        max_frontier: Optional[int] = 4096,
    ) -> "ServeContext":
        if catalog is None:
            catalog = {m.name: m for m in interleaved.messages}
        return cls(
            name=name,
            interleaved=interleaved,
            traced=tuple(traced),
            catalog=dict(catalog),
            mode=mode,
            max_frontier=max_frontier,
        )


@dataclass(frozen=True)
class ServerConfig:
    """Operational knobs of one :class:`DebugServer`."""

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    max_sessions: int = 64
    idle_timeout_s: float = 300.0
    idle_sweep_s: float = 10.0
    metrics_port: Optional[int] = None
    #: Durability (repro.store): a data directory enables the per-shard
    #: write-ahead log + frontier snapshots; ``None`` keeps the server
    #: purely in-memory (the pre-store behavior, bit for bit).
    data_dir: Optional[str] = None
    fsync: str = "interval"
    fsync_interval_s: float = 0.05
    snapshot_every: int = 256


class HashRing:
    """Consistent hashing of session ids onto shard indices.

    Each shard owns ``replicas`` points on a 32-bit ring (CRC-32 of a
    shard-replica label -- deterministic across processes and hash
    seeds); a session id lands on the first point at or after its own
    hash.  Adding a shard therefore remaps only ~1/N of the id space,
    and the spread is even without any coordination.
    """

    def __init__(self, shards: int, replicas: int = 32) -> None:
        if shards < 1:
            raise StreamError(f"shards must be >= 1, got {shards}")
        points: List[Tuple[int, int]] = []
        for index in range(shards):
            for replica in range(replicas):
                label = f"shard-{index}#{replica}".encode("ascii")
                points.append((zlib.crc32(label) & 0xFFFFFFFF, index))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def shard_for(self, session_id: str) -> int:
        key = zlib.crc32(session_id.encode("utf-8")) & 0xFFFFFFFF
        position = bisect.bisect_left(self._hashes, key)
        if position == len(self._hashes):
            position = 0
        return self._shards[position]


class SessionHandles:
    """One connection's session handles.

    A handle names one incarnation of one session: the table maps it to
    ``(shard, session id, incarnation)``.  Handles count up from 0 and
    are never reused on their connection.  An id holds one handle at a
    time: an OPEN or ATTACH that reaches the incarnation the id's
    handle names gets that handle back (so a duplicated OPEN binds
    nothing new), and one that reaches a later incarnation replaces it.
    A handle leaves the table on CLOSE, when a request on it finds its
    incarnation gone (answered ``unknown-session``), and with its
    connection.  The table keeps at most *limit* handles -- the
    server's ``max_sessions``, so a connection that opens sessions it
    never closes cannot grow it without bound -- and binding one more
    drops the oldest: a request on it is answered ``unknown-session``,
    and the client attaches again.
    """

    def __init__(self, limit: int) -> None:
        self.limit = max(1, limit)
        self._next = 0
        self._targets: Dict[int, Tuple[Shard, str, int]] = {}
        self._by_id: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._targets)

    def bind(self, shard: Shard, sid: str, incarnation: int) -> int:
        """The handle of incarnation *incarnation* of *sid*."""
        handle = self._by_id.get(sid)
        if handle is not None:
            if self._targets[handle][2] == incarnation:
                return handle
            del self._targets[handle]
        handle = self._next
        self._next += 1
        self._targets[handle] = (shard, sid, incarnation)
        self._by_id[sid] = handle
        if len(self._targets) > self.limit:
            self.drop(next(iter(self._targets)))
        return handle

    def get(self, handle: int) -> Optional[Tuple[Shard, str, int]]:
        return self._targets.get(handle)

    def drop(self, handle: int) -> None:
        target = self._targets.pop(handle, None)
        if target is not None and self._by_id.get(target[1]) == handle:
            del self._by_id[target[1]]


def _runtime_cache_stats() -> Dict[str, object]:
    """Hit/miss counters of the process-wide artifact cache."""
    from repro.runtime.cache import default_cache

    cache = default_cache()
    stats = cache.stats.as_dict()
    stats["directory"] = str(cache.directory)
    return stats


class DebugServer:
    """The networked post-silicon debug service (one scenario)."""

    def __init__(
        self,
        context: ServeContext,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.context = context
        self.config = config if config is not None else ServerConfig()
        #: The server's one metrics registry: its own request counters
        #: and latencies, plus -- active while it serves -- the
        #: library's stage counters and timings.
        self.metrics = perf.PerfCounters()
        self.ring = HashRing(self.config.shards)
        self._shards: List[Shard] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._draining = False
        self._stopped = False
        self._started_at = 0.0
        self._recovery: Dict[str, object] = {}
        #: Structured operational alerts (WAL degradation, snapshot
        #: failures, quarantines) -- newest last, bounded, served in the
        #: health section so operators see them on STATS/metrics.
        #: Shard ops append and :meth:`health` reads, both on the loop.
        self._alerts: List[Dict[str, object]] = []
        #: The thread :meth:`health` and :meth:`_alert` belong to, which
        #: ``-X dev`` checks: this one until :meth:`start` hands the
        #: server to the thread that runs it.
        self._owner = threading.get_ident()
        self.host = self.config.host
        self.port = self.config.port
        self.metrics_port = self.config.metrics_port

    # -- metrics plane -------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The STATS and ``/metrics`` document: the registry's counters
        and histograms plus the sections sampled now.  A section that
        raises reads ``{"error": ...}`` instead of failing the scrape."""
        payload: Dict[str, object] = self.metrics.as_dict()
        sections: Dict[str, Callable[[], Dict[str, object]]] = {
            "server": self._server_stats,
            "health": self.health,
            "store": self._store_stats,
            "shards": self._shard_stats,
            "runtime_cache": _runtime_cache_stats,
            "localize_tables": self._table_stats,
        }
        for name, section in sections.items():
            try:
                payload[name] = section()
            except Exception as exc:  # a scrape must never take the
                payload[name] = {"error": str(exc)}  # service down
        return payload

    def _table_stats(self) -> Dict[str, object]:
        """The shared table registry's counters, plus ``product_bytes``:
        what the served product's integer tables hold."""
        return dict(
            kernels.default_registry().stats(),
            product_bytes=self.context.interleaved.nbytes,
        )

    def _server_stats(self) -> Dict[str, object]:
        wire_bytes = self.metrics.get("compressed_wire_bytes")
        raw_bits = self.metrics.get("compressed_raw_bits")
        return {
            "scenario": self.context.name,
            "mode": self.context.mode,
            "host": self.host,
            "port": self.port,
            "shards": len(self._shards),
            "uptime_s": round(
                time.monotonic() - self._started_at if self._started_at else 0.0,
                3,
            ),
            "draining": self._draining,
            "open_connections": len(self._connections),
            "open_sessions": self._live_sessions(),
            "max_sessions": self.config.max_sessions,
            "compression_ratio": (
                round(raw_bits / (wire_bytes * 8), 4) if wire_bytes else 0.0
            ),
        }

    def _shard_stats(self) -> Dict[str, object]:
        return {
            "shards": [
                {
                    "shard": shard.index,
                    **shard.manager.stats(),
                    "degraded": shard.degraded,
                }
                for shard in self._shards
            ]
        }

    @owned
    def health(self) -> Dict[str, object]:
        """Readiness summary: ``ok`` serves durably, ``degraded``
        serves with at least one shard in memory-only mode,
        ``draining`` refuses new work.  Runs on the event loop; another
        thread asks through :meth:`ServerThread.call` or STATS (under
        ``python -X dev`` a call from another thread raises)."""
        degraded = [s.index for s in self._shards if s.degraded]
        if self._draining:
            status = "draining"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "degraded_shards": degraded,
            "alerts": [dict(alert) for alert in self._alerts],
        }

    @owned
    def _alert(self, kind: str, **fields: object) -> None:
        """Record one structured operational alert (bounded buffer)."""
        alert: Dict[str, object] = {"kind": kind}
        alert.update(fields)
        self._alerts.append(alert)
        del self._alerts[:-64]

    def shard_for(self, session_id: str) -> Shard:
        """The shard core that owns *session_id*.  The core, its
        manager and its store belong to the event loop's thread: while
        the server runs, another thread reaches them only through
        :meth:`ServerThread.call` (under ``python -X dev`` the manager
        refuses a call from any other thread)."""
        return self._shards[self.ring.shard_for(session_id)]

    @property
    def recovery_info(self) -> Dict[str, object]:
        """Summary of the last start's recovery (empty without a
        store): sessions restored, records replayed, wall time, and
        what the shards' stores skipped or truncated, each note named
        by its shard."""
        return dict(self._recovery)

    def _store_stats(self) -> Dict[str, object]:
        if self.config.data_dir is None:
            return {"enabled": False}
        per_shard = [
            dict(shard.store.stats(), shard=shard.index)
            for shard in self._shards
            if shard.store is not None
        ]
        totals: Dict[str, object] = {}
        for stats in per_shard:
            for key, value in stats.items():
                if key == "shard" or not isinstance(value, (int, float)):
                    continue
                totals[key] = totals.get(key, 0) + value
        return {
            "enabled": True,
            "data_dir": self.config.data_dir,
            "fsync": self.config.fsync,
            "snapshot_every": self.config.snapshot_every,
            "fingerprint": (
                self._shards[0].fingerprint if self._shards else None
            ),
            "recovery": dict(self._recovery),
            "totals": totals,
            "shards": per_shard,
        }

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start the sweeper; returns the bound ``(host,
        port)`` (port 0 resolves to an ephemeral one).

        Recovery and both binds run before the sweeper starts, and the
        metrics registry is activated last.  If recovery or a bind fails
        (a refused data directory, a taken port), the listeners are
        closed and the WAL writers sealed before the error propagates.
        """
        if self._server is not None:
            raise StreamError("server already started")
        self._owner = threading.get_ident()
        self._shards = [
            Shard(
                i, self.context, self.config, metrics=self.metrics,
                alert=self._alert,
            )
            for i in range(self.config.shards)
        ]
        try:
            if self.config.data_dir is not None:
                self._recover_from_store()
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
            sockname = self._server.sockets[0].getsockname()
            self.host, self.port = sockname[0], sockname[1]
            if self.config.metrics_port is not None:
                self._metrics_server = await asyncio.start_server(
                    self._handle_metrics,
                    self.config.host,
                    self.config.metrics_port,
                )
                msock = self._metrics_server.sockets[0].getsockname()
                self.metrics_port = msock[1]
        except BaseException:
            for listener in (self._server, self._metrics_server):
                if listener is not None:
                    listener.close()
            for shard in self._shards:
                if shard.store is not None:
                    shard.store.close()
            raise
        self._sweeper = asyncio.get_running_loop().create_task(
            self._sweep_loop()
        )
        perf.activate(self.metrics)
        self._started_at = time.monotonic()
        return self.host, self.port

    async def stop(self, abort: bool = False) -> None:
        """Stop serving.

        Every admitted op has run by the time this runs, so the
        graceful path waits for no work: it refuses new requests, shuts
        every shard core down (retiring or checkpointing its sessions)
        and closes each connection once its written replies flush.
        ``abort=True`` simulates a crash: connections are torn down at
        once and the cores are left as a crash leaves them -- the
        client-retry soak test drives this path.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        listeners = [
            listener
            for listener in (self._server, self._metrics_server)
            if listener is not None
        ]
        for listener in listeners:
            listener.close()
        if self._sweeper is not None:
            self._sweeper.cancel()
            await asyncio.gather(self._sweeper, return_exceptions=True)
        if not abort:
            for shard in self._shards:
                shard.shutdown()
        for writer in list(self._connections):
            if abort:
                writer.transport.abort()
            else:
                writer.close()
        # since Python 3.12 this waits for every connection to drop, so
        # it comes after they are closed
        for listener in listeners:
            await listener.wait_closed()
        perf.deactivate(self.metrics)

    async def run(
        self,
        duration: Optional[float] = None,
        on_ready: Optional[Callable[["DebugServer"], None]] = None,
    ) -> None:
        """Start, serve until SIGINT/SIGTERM (or *duration* seconds),
        then drain gracefully."""
        await self.start()
        if on_ready is not None:
            on_ready(self)
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        installed: List[signal.Signals] = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_event.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            if duration is None:
                await stop_event.wait()
            else:
                try:
                    await asyncio.wait_for(stop_event.wait(), duration)
                except asyncio.TimeoutError:
                    pass
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.stop()

    # -- background tasks ----------------------------------------------
    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.idle_sweep_s)
            for shard in self._shards:
                shard.manager.evict_idle()

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assembler = protocol.FrameAssembler()
        handles = SessionHandles(self.config.max_sessions)
        self._connections.add(writer)
        self.metrics.add("connections_total")
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                received = time.perf_counter()
                self.metrics.add("wire_bytes_in", len(data))
                try:
                    frames = assembler.feed(data)
                except ProtocolError as exc:
                    self.metrics.add("protocol_errors_total")
                    await self._send(
                        writer,
                        protocol.ERROR,
                        0,
                        protocol.error_payload("protocol", str(exc)),
                    )
                    break
                for frame in frames:
                    await self._accept_frame(
                        writer, frame, received, handles
                    )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
            except Exception:  # pragma: no cover - defensive
                pass

    async def _accept_frame(
        self,
        writer: asyncio.StreamWriter,
        frame: protocol.WireFrame,
        received: float,
        handles: SessionHandles,
    ) -> None:
        """Admission-check one request, run it on its shard and send
        the reply.  *received* is the ``perf_counter`` time the read
        that carried the frame returned: its deadline counts from
        there.  *handles* are the connection's session handles."""
        self.metrics.add("requests_total")
        if frame.frame_type not in protocol.REQUEST_TYPES:
            self.metrics.add("protocol_errors_total")
            await self._send(
                writer,
                protocol.ERROR,
                frame.seq,
                protocol.error_payload(
                    "bad-request",
                    f"unknown request type {frame.frame_type:#04x}",
                ),
            )
            return
        # metrics/health requests work even while the server drains
        if frame.frame_type == protocol.STATS:
            await self._send(
                writer,
                protocol.OK,
                frame.seq,
                protocol.encode_json(self.stats()),
            )
            return
        if frame.frame_type == protocol.PING:
            await self._send(
                writer,
                protocol.OK,
                frame.seq,
                protocol.encode_json(
                    {"version": protocol.PROTOCOL_VERSION,
                     "scenario": self.context.name}
                ),
            )
            return
        if self._draining:
            await self._retry_later(writer, frame.seq, "draining")
            return
        try:
            op, deadline_ms = self._route(frame, handles)
        except ProtocolError as exc:
            self.metrics.add("protocol_errors_total")
            await self._send(
                writer,
                protocol.ERROR,
                frame.seq,
                protocol.error_payload("protocol", str(exc)),
            )
            return
        except StreamError as exc:
            await self._retry_later(writer, frame.seq, str(exc))
            return
        # nothing may await from the draining check to the op: then no
        # op reaches a shard after shutdown(), and the session cap has
        # seen every OPEN admitted before this one run
        admitted = time.perf_counter()
        if (
            deadline_ms is not None
            and admitted >= received + deadline_ms / 1000.0
        ):
            # the client has given up waiting: applying the op would
            # break the no-effect promise its retransmit relies on
            self.metrics.add("deadline_exceeded_total")
            frame_type, payload = (
                protocol.RETRY_LATER,
                protocol.retry_later_payload("deadline-exceeded"),
            )
        else:
            try:
                frame_type, payload = op()
            except Exception as exc:  # noqa: BLE001 - reply, don't die
                frame_type, payload = (
                    protocol.ERROR,
                    protocol.error_payload("internal", str(exc)),
                )
        elapsed = time.perf_counter() - admitted
        self.metrics.observe("request_latency_s", elapsed)
        if frame.frame_type == protocol.FEED_CHUNK:
            self.metrics.observe("feed_latency_s", elapsed)
        if frame_type == protocol.ERROR:
            self.metrics.add("error_replies_total")
        await self._send(writer, frame_type, frame.seq, payload)

    async def _retry_later(
        self, writer: asyncio.StreamWriter, seq: int, reason: str
    ) -> None:
        self.metrics.add("retry_later_total")
        await self._send(
            writer,
            protocol.RETRY_LATER,
            seq,
            protocol.retry_later_payload(reason),
        )

    async def _send(
        self, writer: asyncio.StreamWriter, frame_type: int, seq: int,
        payload: bytes,
    ) -> None:
        data = protocol.encode_frame(frame_type, seq, payload)
        self.metrics.add("wire_bytes_out", len(data))
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass

    # -- request routing -----------------------------------------------
    def _route(
        self, frame: protocol.WireFrame, handles: SessionHandles
    ) -> Tuple[Callable[[], Reply], Optional[int]]:
        """Build the shard operation for one request on the connection
        whose session handles are *handles*: returns the op and the
        request's relative deadline in milliseconds (``None`` when the
        client sent none).

        Raises :class:`ProtocolError` for malformed payloads and
        :class:`StreamError` when :meth:`_make_room` refuses (mapped to
        ``RETRY_LATER`` by the caller).
        """
        kind = frame.frame_type
        if kind == protocol.OPEN_SESSION:
            request = protocol.decode_open_payload(frame.payload)
            if request.transport not in TRANSPORTS:
                raise ProtocolError(
                    f"unknown transport {request.transport!r}; choose "
                    f"{' or '.join(TRANSPORTS)}"
                )
            sid = request.effective_id
            shard = self.shard_for(sid)
            # an OPEN of a live id adds no session: it is a retry or is
            # refused.  Admission must not evict that idle session,
            # which would turn a refusal into a revival
            if shard.adds_session(sid, request.token, request.attach):
                self._make_room()
            return (
                lambda: shard.open(
                    sid, request.mode, request.transport, request.token,
                    request.attach,
                    lambda incarnation: handles.bind(shard, sid, incarnation),
                ),
                request.deadline_ms,
            )
        if kind == protocol.FEED_CHUNK:
            handle, chunk_index, eof, data, deadline_ms = (
                protocol.decode_feed_request(frame.payload)
            )
        else:
            handle, deadline_ms = protocol.decode_session_request(
                kind, frame.payload
            )
        target = handles.get(handle)
        if target is None:
            return (
                lambda: (
                    protocol.ERROR,
                    protocol.error_payload(
                        "unknown-session",
                        f"handle {handle} names no session on this "
                        "connection",
                    ),
                ),
                deadline_ms,
            )
        shard, sid, incarnation = target
        # a CLOSE retires the session it revives in the same op
        if kind != protocol.CLOSE_SESSION and shard.spilled(sid, incarnation):
            self._make_room()
        if kind == protocol.FEED_CHUNK:
            def op() -> Reply:
                return shard.feed(sid, chunk_index, data, eof, incarnation)
        elif kind == protocol.SNAPSHOT:
            def op() -> Reply:
                return shard.snapshot(sid, incarnation)
        else:
            def op() -> Reply:
                return shard.close(sid, incarnation)

        def run() -> Reply:
            reply = op()
            if (
                reply[0] != protocol.OK or kind == protocol.CLOSE_SESSION
            ) and not shard.holds(sid, incarnation):
                handles.drop(handle)
            return reply

        return run, deadline_ms

    def _live_sessions(self) -> int:
        return sum(len(shard.manager) for shard in self._shards)

    def _make_room(self) -> None:
        """The server's one admission rule, run before every request
        that would add a live session: evict idle sessions on every
        shard, then raise :class:`StreamError` when the table still
        holds ``max_sessions``."""
        for shard in self._shards:
            shard.manager.evict_idle()
        if self._live_sessions() >= self.config.max_sessions:
            raise StreamError("session-table-full")

    # -- durability (repro.store) ---------------------------------------
    def _recover_from_store(self) -> None:
        """Check the data directory's identity against this server,
        then recover every shard (:meth:`Shard.recover`).  Refuses
        state from a different scenario or shard count."""
        started = time.perf_counter()
        data_dir = self.config.data_dir
        # every shard resolved the same compiled tables by content hash;
        # the fingerprint ties durable state to this exact scenario
        fingerprint = self._shards[0].fingerprint
        meta = read_meta(data_dir)
        if meta is None:
            write_meta(
                data_dir,
                {
                    "format": META_FORMAT,
                    "scenario": self.context.name,
                    "mode": self.context.mode,
                    "fingerprint": fingerprint,
                    "shards": len(self._shards),
                },
            )
        else:
            if meta.get("fingerprint") not in (None, fingerprint):
                raise StoreError(
                    f"data directory {data_dir} belongs to a different "
                    f"scenario (stored fingerprint "
                    f"{meta.get('fingerprint')!r}, serving "
                    f"{fingerprint!r})"
                )
            if int(meta.get("shards", len(self._shards))) != len(
                self._shards
            ):
                raise StoreError(
                    f"data directory {data_dir} was written with "
                    f"{meta.get('shards')} shard(s); this server runs "
                    f"{len(self._shards)} -- session routing would break"
                )
        recovered = [shard.recover() for shard in self._shards]
        self._recovery = {
            "sessions": sum(r.sessions for r in recovered),
            "replayed_records": sum(r.replayed_records for r in recovered),
            "wall_s": round(time.perf_counter() - started, 6),
            "diagnostics": [d for r in recovered for d in r.diagnostics],
        }

    # -- metrics HTTP endpoint -----------------------------------------
    async def _handle_metrics(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5.0)
        except Exception:
            writer.close()
            return
        body = json.dumps(self.stats(), indent=2, sort_keys=True).encode(
            "utf-8"
        )
        head = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n".encode("ascii")
            + b"Connection: close\r\n\r\n"
        )
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()


class ServerThread:
    """Runs a :class:`DebugServer` on a background event-loop thread.

    The blocking-world adapter used by tests, the chaos runner, and
    anything else that wants a live server without owning an event
    loop.  ``stop(abort=True)`` simulates a crash (connections torn
    down, replies not yet written lost) -- the client-retry soak test
    kills and restarts a server this way.  The server's state belongs
    to the loop's thread: another thread reads it through
    :meth:`call`.
    """

    def __init__(
        self,
        context: ServeContext,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.server = DebugServer(context, config=config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._release: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        if self._thread is not None:
            raise StreamError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise StreamError("server failed to start within 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return self.server.host, self.server.port

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        self._release = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # surface bind errors to start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._release.wait()

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run *fn* on the server's event loop, between two ops, and
        return its result (or raise what it raised).  Raises
        :class:`StreamError` when the server is not running."""
        if self._thread is None or self._startup_error is not None:
            raise StreamError("server thread is not running")

        async def on_loop() -> Any:
            return fn()

        future = asyncio.run_coroutine_threadsafe(on_loop(), self._loop)
        return future.result(timeout=60.0)

    def stop(self, abort: bool = False) -> None:
        """Stop the server and join its thread (idempotent)."""
        if self._thread is None or self._loop is None:
            return
        # after a failed start the loop closes itself, and may already
        # be closed: only a running server waits for the release
        if self._thread.is_alive() and self._startup_error is None:
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(abort=abort), self._loop
            )
            future.result(timeout=60.0)
            self._loop.call_soon_threadsafe(self._release.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
