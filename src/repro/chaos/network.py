"""The network fault plane: a frame-aware TCP proxy.

:class:`ChaosProxy` sits between :class:`~repro.server.client.
DebugClient` and :class:`~repro.server.server.DebugServer`, parses the
request byte stream into protocol frames, and injects faults per
frame as decided by the :class:`~repro.chaos.faults.FaultDecider`:

* ``drop`` -- the frame never reaches the server; the client's socket
  timeout fires and its retry loop retransmits.
* ``duplicate`` -- the frame is forwarded twice back to back; server-
  side chunk-index idempotency must answer the copy with a
  duplicate-ack, not a double apply.
* ``reorder`` -- the frame is forwarded, and a stale copy is replayed
  *after* a later frame has passed, so the server sees chunk indices
  out of order (the stale reply is dropped by the client's sequence
  matching).
* ``delay`` -- the frame is forwarded after a fixed pause.
* ``corrupt`` -- one payload bit is flipped without fixing the CRC;
  the server must detect the mismatch, answer a protocol error, and
  drop the connection, which the client survives by reconnecting.

Fault decisions are keyed on the frame's **content** (type + payload,
not its sequence number), so a retransmit of a dropped frame maps to
the same fault key and is allowed through -- every fault is survivable
by design.  A FEED, SNAPSHOT or CLOSE names its session by a handle
scoped to its connection: two sessions on two connections can send the
same bytes, and a retransmit over a new connection may carry another
handle.  So the key of such a frame is its payload past the handle and
the session id of the latest OPEN (or ATTACH) relayed on its
connection -- what a version-4 frame, which named the id, carried --
which keeps each session's faults its own and a retransmit's key its
original's.  Responses flow back byte-for-byte
untouched: request-side duplication already exercises the
lost-response/duplicate-ack path without breaking non-idempotent
replies.

The proxy's upstream address is mutable (:meth:`set_upstream`), so a
soak can kill and restart the server on a new port while every client
keeps dialing the same proxy address.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.chaos.faults import FaultDecider, content_digest
from repro.errors import ProtocolError
from repro.server import protocol


#: The requests that name their session by handle, not by id.
_HANDLE_NAMED = frozenset(
    (protocol.FEED_CHUNK, protocol.SNAPSHOT, protocol.CLOSE_SESSION)
)


def _past_handle(payload: bytes) -> bytes:
    """A handle-named request's *payload* past its leading handle
    varint."""
    end = 0
    while end < len(payload) and payload[end] & 0x80:
        end += 1
    return payload[end + 1 :]


def _opened_id(payload: bytes, previous: Optional[str]) -> Optional[str]:
    """The session id an OPEN or ATTACH *payload* names, or *previous*
    when it does not decode (the server refuses it)."""
    try:
        return protocol.decode_open_payload(payload).effective_id
    except ProtocolError:
        return previous


class ChaosProxy:
    """A threaded TCP proxy injecting per-frame faults (request side)."""

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        decider: FaultDecider,
        host: str = "127.0.0.1",
        port: int = 0,
        delay_s: float = 0.01,
        stale_replay_window: int = 1,
    ) -> None:
        self.decider = decider
        self.host = host
        self.port = port
        self.delay_s = delay_s
        self.stale_replay_window = stale_replay_window
        self._upstream = (upstream_host, upstream_port)
        self._upstream_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: List[threading.Thread] = []
        self._pairs: List[Tuple[socket.socket, socket.socket]] = []
        self._pairs_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stats_lock = threading.Lock()
        self._stats: Dict[str, int] = {
            "connections": 0,
            "frames": 0,
            "forwarded": 0,
            "dropped": 0,
            "duplicated": 0,
            "reordered": 0,
            "delayed": 0,
            "corrupted": 0,
            "upstream_refused": 0,
        }

    # -- lifecycle -----------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        listener.settimeout(0.2)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()
        return self.host, self.port

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - defensive
                pass
        with self._pairs_lock:
            pairs = list(self._pairs)
        for downstream, upstream in pairs:
            for sock in (downstream, upstream):
                try:
                    sock.close()
                except OSError:  # pragma: no cover - defensive
                    pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)

    def set_upstream(self, host: str, port: int) -> None:
        """Re-point new connections at a restarted server."""
        with self._upstream_lock:
            self._upstream = (host, port)

    def upstream(self) -> Tuple[str, int]:
        with self._upstream_lock:
            return self._upstream

    def stats(self) -> Dict[str, int]:
        with self._stats_lock:
            return dict(self._stats)

    def _count(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._stats[key] = self._stats.get(key, 0) + amount

    # -- connection plumbing -------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                downstream, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self._count("connections")
            try:
                upstream = socket.create_connection(
                    self.upstream(), timeout=5.0
                )
            except OSError:
                # the server is down (e.g. mid-restart): refuse the
                # client, whose breaker/backoff absorbs the outage
                self._count("upstream_refused")
                try:
                    downstream.close()
                except OSError:  # pragma: no cover - defensive
                    pass
                continue
            downstream.settimeout(0.05)
            upstream.settimeout(0.05)
            with self._pairs_lock:
                self._pairs.append((downstream, upstream))
            for target, name in (
                (self._pump_requests, "chaos-proxy-c2s"),
                (self._pump_responses, "chaos-proxy-s2c"),
            ):
                thread = threading.Thread(
                    target=target,
                    args=(downstream, upstream),
                    name=name,
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def _pump_responses(
        self, downstream: socket.socket, upstream: socket.socket
    ) -> None:
        """Server -> client: a faithful byte relay."""
        try:
            while not self._stopping.is_set():
                try:
                    data = upstream.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                try:
                    downstream.sendall(data)
                except OSError:
                    break
        finally:
            self._close_pair(downstream, upstream)

    def _pump_requests(
        self, downstream: socket.socket, upstream: socket.socket
    ) -> None:
        """Client -> server: parse frames and inject faults."""
        assembler = protocol.FrameAssembler()
        # frames withheld by "reorder", replayed stale after the next
        # frame passes (or when the stream goes quiet/closes)
        pending_stale: List[bytes] = []
        idle_since = time.monotonic()
        # the id of the latest OPEN or ATTACH relayed on this connection
        opened: Optional[str] = None
        try:
            while not self._stopping.is_set():
                try:
                    data = downstream.recv(65536)
                except socket.timeout:
                    if pending_stale and (
                        time.monotonic() - idle_since > 0.05
                    ):
                        if not self._flush_stale(upstream, pending_stale):
                            break
                    continue
                except OSError:
                    break
                if not data:
                    break
                idle_since = time.monotonic()
                try:
                    frames = assembler.feed(data)
                except ProtocolError:
                    # the client itself sent garbage (the session-plane
                    # mangler does); pass the raw bytes through and let
                    # the server's own parser reject them
                    try:
                        upstream.sendall(data)
                    except OSError:
                        break
                    continue
                ok = True
                for frame in frames:
                    if frame.frame_type == protocol.OPEN_SESSION:
                        opened = _opened_id(frame.payload, opened)
                    if not self._relay_frame(
                        upstream, frame, pending_stale, opened
                    ):
                        ok = False
                        break
                if not ok:
                    break
        finally:
            if pending_stale:
                self._flush_stale(upstream, pending_stale)
            self._close_pair(downstream, upstream)

    def _relay_frame(
        self,
        upstream: socket.socket,
        frame: protocol.WireFrame,
        pending_stale: List[bytes],
        opened: Optional[str] = None,
    ) -> bool:
        """Forward one request frame, applying at most one fault.
        *opened* is the id of the latest OPEN or ATTACH relayed on the
        frame's connection, which names a handle-named frame's session
        in its fault key."""
        self._count("frames")
        if frame.frame_type in _HANDLE_NAMED:
            digest = content_digest(
                frame.frame_type, _past_handle(frame.payload), opened
            )
        else:
            digest = content_digest(frame.frame_type, frame.payload)
        wire = protocol.encode_frame(
            frame.frame_type, frame.seq, frame.payload
        )
        decide = self.decider.decide
        if decide("network", "drop", digest):
            self._count("dropped")
            return True
        if decide("network", "corrupt", digest):
            self._count("corrupted")
            # flip one payload bit without fixing the CRC: the server
            # must reject the frame and fail the connection loudly
            corrupted = bytearray(wire)
            corrupted[len(corrupted) // 2] ^= 0x10
            wire = bytes(corrupted)
            return self._forward(upstream, wire, pending_stale)
        if decide("network", "delay", digest):
            self._count("delayed")
            time.sleep(self.delay_s)
        duplicate = decide("network", "duplicate", digest)
        if not self._forward(upstream, wire, pending_stale):
            return False
        if duplicate:
            self._count("duplicated")
            if not self._forward(upstream, wire, pending_stale):
                return False
        if decide("network", "reorder", digest):
            # replay a stale copy after a *later* frame has passed, so
            # the server sees this frame's content out of order
            if len(pending_stale) < self.stale_replay_window:
                pending_stale.append(wire)
        return True

    def _forward(
        self,
        upstream: socket.socket,
        wire: bytes,
        pending_stale: List[bytes],
    ) -> bool:
        try:
            upstream.sendall(wire)
        except OSError:
            return False
        self._count("forwarded")
        # a newer frame passed: replay the withheld stale copies now
        stale = [w for w in pending_stale if w != wire]
        if stale:
            del pending_stale[:]
            for old in stale:
                try:
                    upstream.sendall(old)
                except OSError:
                    return False
                self._count("reordered")
        return True

    def _flush_stale(
        self, upstream: socket.socket, pending_stale: List[bytes]
    ) -> bool:
        """Idle/teardown flush: the held stale copies go out as plain
        duplicates (no later frame arrived to slot them behind)."""
        stale = list(pending_stale)
        del pending_stale[:]
        for wire in stale:
            try:
                upstream.sendall(wire)
            except OSError:
                return False
            self._count("reordered")
        return True

    def _close_pair(
        self, downstream: socket.socket, upstream: socket.socket
    ) -> None:
        for sock in (downstream, upstream):
            try:
                sock.close()
            except OSError:  # pragma: no cover - defensive
                pass


__all__ = ["ChaosProxy"]
