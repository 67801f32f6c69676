"""Synchronous client for the debug service.

:class:`DebugClient` speaks the wire protocol over one TCP connection
with a configurable timeout and a retry policy -- exponential backoff
with jitter -- applied to connection failures *and* to structured
``RETRY_LATER`` backpressure replies.  Both are safe to retry: a
``RETRY_LATER`` promises the request had no effect, and feeds are
idempotent on the server (per-session chunk indices de-duplicate a
retransmit whose original response was lost).

:class:`SessionFeed` is the streaming API: it remembers every chunk it
has fed, so when the server loses the session -- an idle eviction, or
a kill-and-restart mid-stream -- the feed transparently re-opens, with
the token of its first OPEN, and replays from the server's cursor or
chunk zero.  Localization is a pure function of the fed prefix, so
replay converges to the exact same snapshot with zero data loss; the
soak test kills the server mid-stream and pins that down.

The API names sessions by id; the wire names them by the handle the
server hands out per connection (:mod:`repro.server.protocol`).
:class:`DebugClient` keeps each id's handle on the current connection,
and the token of the OPEN that answered for it.  Before its first
request for a session on a connection -- after a reconnect, or for a
session another client opened -- it ATTACHes: with the token when it
has one, so it reaches only the session that token opened, and
without one to whatever the id holds.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.errors import (
    ProtocolError,
    ServerError,
    ServerUnavailableError,
)
from repro.selection.localization import LocalizationResult
from repro.server import protocol


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter, plus the failure-handling
    knobs layered around it.

    ``delay(attempt)`` is ``base * 2**attempt`` capped at ``max_delay``,
    plus a uniform jitter fraction of that value -- the standard recipe
    for keeping a retrying fleet from thundering back in lockstep.

    ``timeout_s`` bounds **every** socket operation (connect, send,
    recv), not just the connect -- a stalled server turns into a
    retryable ``socket.timeout`` instead of hanging the client.  It is
    also the deadline propagated to the server with each request (see
    ``propagate_deadline``): a request the server cannot start before
    the client has given up on it is answered ``RETRY_LATER`` without
    being applied.

    The breaker fields parameterize the :class:`CircuitBreaker` every
    client layers *under* this retry loop: after
    ``breaker_threshold`` consecutive transport failures the client
    stops hammering a dead endpoint and sleeps out an exponentially
    growing cooldown (``breaker_cooldown_s`` doubling up to
    ``breaker_max_cooldown_s``) before each probe.  Probing -- rather
    than failing fast -- keeps the restart-recovery soak converging.
    """

    max_attempts: int = 8
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5
    timeout_s: float = 10.0
    propagate_deadline: bool = True
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 0.25
    breaker_max_cooldown_s: float = 2.0

    def delay(self, attempt: int, rng: random.Random) -> float:
        backoff = min(
            self.base_delay_s * (2.0 ** attempt), self.max_delay_s
        )
        return backoff * (1.0 + self.jitter * rng.random())


class CircuitBreaker:
    """Consecutive-failure breaker under the backoff retry loop.

    Closed: requests flow.  After ``threshold`` consecutive transport
    failures it **opens**: before the next attempt the client sleeps
    out the remaining cooldown (load shedding -- a fleet of clients
    stops hammering a dead endpoint), then sends one half-open probe.
    A successful reply -- including a structured ``RETRY_LATER``,
    which proves the server is alive -- closes it again and resets the
    cooldown; another failure re-opens it with the cooldown doubled,
    up to ``max_cooldown_s``.

    The breaker *waits* instead of failing fast, so the retry loop's
    convergence guarantees (e.g. recovering across a server restart)
    are preserved; what it removes is the connect-storm against an
    endpoint that is known-dead.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 0.25,
        max_cooldown_s: float = 2.0,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        self.threshold = max(1, threshold)
        self.base_cooldown_s = cooldown_s
        self.max_cooldown_s = max_cooldown_s
        self._clock = clock
        self._sleep = sleep
        self._cooldown = cooldown_s
        self._open_until = 0.0
        self.failures = 0  # consecutive transport failures
        self.opens = 0  # lifetime open transitions
        self.state = "closed"  # closed | open | half-open

    @classmethod
    def from_policy(cls, policy: RetryPolicy) -> "CircuitBreaker":
        return cls(
            threshold=policy.breaker_threshold,
            cooldown_s=policy.breaker_cooldown_s,
            max_cooldown_s=policy.breaker_max_cooldown_s,
        )

    def before_attempt(self) -> float:
        """Sleep out any open cooldown; returns the seconds slept.
        After the wait the breaker is half-open: the caller's next
        request is the probe."""
        if self.state == "closed":
            return 0.0
        remaining = self._open_until - self._clock()
        if remaining > 0:
            self._sleep(remaining)
        self.state = "half-open"
        return max(0.0, remaining)

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures < self.threshold and self.state == "closed":
            return
        if self.state != "open":
            self.opens += 1
        self.state = "open"
        self._open_until = self._clock() + self._cooldown
        self._cooldown = min(self._cooldown * 2.0, self.max_cooldown_s)

    def record_success(self) -> None:
        self.failures = 0
        self.state = "closed"
        self._cooldown = self.base_cooldown_s
        self._open_until = 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "failures": self.failures,
            "opens": self.opens,
        }


@dataclass(frozen=True)
class FeedReply:
    """Server acknowledgement of one fed chunk.

    ``next_chunk`` is the server's durable high-watermark -- the index
    it expects next.
    """

    session_id: str
    chunk_index: int
    consumed: int
    records: int
    status: str
    observed_length: int
    frontier_size: int
    duplicate: bool
    next_chunk: int


@dataclass(frozen=True)
class SnapshotReply:
    """Server-side localization snapshot (batch-identical).

    ``next_chunk`` mirrors the server's chunk cursor; a feed can
    compare it against its own history to spot a server that recovered
    without the acked tail.
    """

    session_id: str
    result: LocalizationResult
    status: str
    observed_length: int
    next_chunk: int


@dataclass(frozen=True)
class CloseReply:
    """Final session accounting (``next_chunk`` as in
    :class:`SnapshotReply`)."""

    session_id: str
    status: str
    records: int
    result: LocalizationResult
    next_chunk: int


def _result(body: Dict[str, Any]) -> LocalizationResult:
    """The localization a SNAPSHOT or CLOSE reply carries."""
    return LocalizationResult(body["consistent_paths"], body["total_paths"])


class DebugClient:
    """One connection to a :class:`~repro.server.server.DebugServer`.

    Thread-compatible, not thread-safe: share sessions across threads
    by giving each thread its own client.
    """

    def __init__(
        self,
        host: str,
        port: int,
        policy: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.policy = policy if policy is not None else RetryPolicy()
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self._assembler = protocol.FrameAssembler()
        self._seq = 0
        self.retries = 0  # lifetime retry count (load-gen reporting)
        self.breaker = CircuitBreaker.from_policy(self.policy)
        #: Each session's handle on the current connection, by id.
        self._handles: Dict[str, int] = {}
        #: The token of the OPEN that answered for each session this
        #: client opened and has not closed, by id: it attaches with it.
        self._tokens: Dict[str, str] = {}

    # -- connection management -----------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.policy.timeout_s
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # make the timeout explicit for every later send/recv too:
            # a server that accepts and then stalls mid-request raises
            # socket.timeout (an OSError, so the retry loop handles
            # it) instead of hanging this client forever
            sock.settimeout(self.policy.timeout_s)
            self._sock = sock
            self._assembler = protocol.FrameAssembler()
        return self._sock

    def _disconnect(self) -> None:
        # the server's handles die with the connection
        self._handles.clear()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._sock = None

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "DebugClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request plumbing ----------------------------------------------
    def request(
        self,
        frame_type: int,
        payload: Union[bytes, Callable[[], bytes]] = b"",
    ) -> Tuple[int, Dict[str, Any]]:
        """Send one request, applying the retry policy; returns the
        ``(response_type, payload)`` of an OK/ERROR reply, the payload
        decoded by :func:`~repro.server.protocol.decode_reply`.

        *payload* may be a function that builds each attempt's
        payload: a request that names a session by handle must carry
        the handle of the connection the attempt sends on.

        Raises
        ------
        ServerUnavailableError
            After ``max_attempts`` connection failures / RETRY_LATERs.
        """
        last_reason = "no attempts made"
        for attempt in range(self.policy.max_attempts):
            if attempt:
                self.retries += 1
                time.sleep(self.policy.delay(attempt - 1, self._rng))
            self.breaker.before_attempt()
            # a handle is built for the current connection, attaching
            # first when it has none (a disconnect drops them all)
            data = payload() if callable(payload) else payload
            try:
                response = self._roundtrip(frame_type, data)
            except (OSError, ProtocolError, EOFError) as exc:
                self._disconnect()
                self.breaker.record_failure()
                last_reason = f"{type(exc).__name__}: {exc}"
                continue
            if response.frame_type == protocol.RETRY_LATER:
                # backpressure is a *healthy* signal -- the server is
                # up and answering -- so it closes the breaker even
                # though the request itself must be retried
                self.breaker.record_success()
                body = protocol.decode_json(response.payload)
                last_reason = f"RETRY_LATER ({body.get('reason')})"
                continue
            self.breaker.record_success()
            return response.frame_type, protocol.decode_reply(
                frame_type, response.frame_type, response.payload
            )
        raise ServerUnavailableError(
            f"request failed after {self.policy.max_attempts} attempt(s); "
            f"last: {last_reason}"
        )

    def _roundtrip(
        self, frame_type: int, payload: bytes
    ) -> protocol.WireFrame:
        sock = self._connect()
        self._seq = (self._seq + 1) & 0xFFFFFFFF
        seq = self._seq
        sock.sendall(protocol.encode_frame(frame_type, seq, payload))
        while True:
            data = sock.recv(65536)
            if not data:
                raise EOFError("connection closed by server")
            for frame in self._assembler.feed(data):
                if frame.seq == seq:
                    return frame
                # stale response from a timed-out predecessor: drop it

    def _deadline_ms(self) -> Optional[int]:
        """The relative deadline propagated with each request -- the
        same budget the socket timeout enforces locally, so the server
        never spends shard time on a request this client has already
        abandoned."""
        if not self.policy.propagate_deadline:
            return None
        return min(0xFFFFFFFF, max(1, int(self.policy.timeout_s * 1000)))

    @staticmethod
    def _checked(frame_type: int, body: Dict[str, Any]) -> Dict[str, Any]:
        if frame_type == protocol.ERROR:
            extra = {
                key: value
                for key, value in body.items()
                if key not in ("error", "message")
            }
            raise ServerError(
                str(body.get("error", "unknown")),
                str(body.get("message", "")),
                extra=extra,
            )
        return body

    # -- session handles -------------------------------------------------
    def _handle(self, session_id: str) -> int:
        """The handle of *session_id* on the current connection,
        attached first when the connection has none."""
        handle = self._handles.get(session_id)
        if handle is None:
            frame_type, body = self.request(
                protocol.OPEN_SESSION,
                protocol.encode_open_payload(
                    session_id,
                    token=self._tokens.get(session_id),
                    deadline_ms=self._deadline_ms(),
                    attach=True,
                ),
            )
            if frame_type == protocol.ERROR:
                self._tokens.pop(session_id, None)
            handle = self._handles[session_id] = self._checked(
                frame_type, body
            )["handle"]
        return handle

    def _session_request(
        self,
        frame_type: int,
        session_id: str,
        encode: Callable[[int, Optional[int]], bytes],
    ) -> Dict[str, Any]:
        """Send the *frame_type* request that ``encode(handle,
        deadline_ms)`` builds from *session_id*'s handle; returns the
        OK reply's body.  A handle held from earlier that the server no
        longer knows (its table dropped it) is attached again, once;
        ``unknown-session`` after that, and a CLOSE's OK, forget the
        session."""
        protocol.session_id_bytes(session_id)
        deadline_ms = self._deadline_ms()
        for again in (True, False):
            held = session_id in self._handles
            reply_type, body = self.request(
                frame_type,
                lambda: encode(self._handle(session_id), deadline_ms),
            )
            lost = (
                reply_type == protocol.ERROR
                and body.get("error") == "unknown-session"
            )
            if not (lost and held and again):
                break
            self._handles.pop(session_id, None)
        if lost or (
            frame_type == protocol.CLOSE_SESSION and reply_type == protocol.OK
        ):
            self._handles.pop(session_id, None)
            self._tokens.pop(session_id, None)
        return self._checked(reply_type, body)

    # -- session API ---------------------------------------------------
    def new_token(self) -> str:
        """A fresh random open token: 8 hex digits."""
        return f"{self._rng.getrandbits(32):08x}"

    def open_session(
        self,
        session_id: Optional[str] = None,
        mode: Optional[str] = None,
        transport: str = "text",
    ) -> str:
        return str(
            self.open_session_info(
                session_id=session_id, mode=mode, transport=transport
            )["session_id"]
        )

    def open_session_info(
        self,
        session_id: Optional[str] = None,
        mode: Optional[str] = None,
        transport: str = "text",
        token: Optional[str] = None,
    ) -> Dict[str, object]:
        """Open a session and return the server's full reply body, with
        the session's id as ``"session_id"``.

        Every attempt of one call carries the same open token --
        *token*, or a fresh random one -- so a retry whose first
        attempt opened the session is answered OK.  A server resuming a
        session -- spilled, or opened by this call's lost first
        attempt, each only for the token that opened it -- adds
        ``"resumed": true`` and ``"next_chunk"`` (the chunk index it
        expects next).
        """
        if token is None:
            token = self.new_token()
        frame_type, body = self.request(
            protocol.OPEN_SESSION,
            protocol.encode_open_payload(
                session_id,
                token=token,
                transport=transport,
                mode=mode,
                deadline_ms=self._deadline_ms(),
            ),
        )
        body = self._checked(frame_type, body)
        sid = "g" + token if session_id is None else session_id
        body["session_id"] = sid
        self._handles[sid] = body["handle"]
        self._tokens[sid] = token
        return body

    def feed(
        self,
        session_id: str,
        chunk_index: int,
        data: bytes,
        eof: bool = False,
    ) -> FeedReply:
        body = self._session_request(
            protocol.FEED_CHUNK,
            session_id,
            lambda handle, deadline_ms: protocol.encode_feed_request(
                handle, chunk_index, data, eof, deadline_ms
            ),
        )
        return FeedReply(session_id, **body)

    def snapshot(self, session_id: str) -> SnapshotReply:
        body = self._session_request(
            protocol.SNAPSHOT, session_id, protocol.encode_session_request
        )
        return SnapshotReply(
            session_id=session_id,
            result=_result(body),
            status=body["status"],
            observed_length=body["observed_length"],
            next_chunk=body["next_chunk"],
        )

    def close_session(self, session_id: str) -> CloseReply:
        body = self._session_request(
            protocol.CLOSE_SESSION, session_id,
            protocol.encode_session_request,
        )
        return CloseReply(
            session_id=session_id,
            status=body["status"],
            records=body["records"],
            result=_result(body),
            next_chunk=body["next_chunk"],
        )

    def stats(self) -> Dict[str, object]:
        frame_type, body = self.request(protocol.STATS)
        return self._checked(frame_type, body)

    def ping(self) -> Dict[str, object]:
        frame_type, body = self.request(protocol.PING)
        return self._checked(frame_type, body)


#: Reopens one :class:`SessionFeed` call makes before it gives up on
#: a session the server keeps losing.
MAX_REOPENS = 3


class SessionFeed:
    """A replaying streaming feed over one server session.

    Every chunk fed is remembered; when the server no longer knows the
    session (``unknown-session`` after an eviction or a restart), the
    feed re-opens it and replays history before applying the new
    chunk.  Against a durable server the replay is *incremental*: a
    resumed open reports the persisted high-watermark (``next_chunk``)
    and a ``chunk-gap`` error carries the ``expected`` index, so only
    the un-persisted tail is retransmitted.  An open that is not
    resumed (a memory-only server lost the session) replays from chunk
    zero.  Replay preserves chunk indices, so server-side
    idempotency holds across the recovery too.  Every OPEN of the feed
    carries the token of its first, so a reopen resumes only the
    session the feed opened.  A session lost again during its recovery
    (another client's CLOSE, or another restart) is reopened again,
    :data:`MAX_REOPENS` times at most.
    """

    def __init__(
        self,
        client: DebugClient,
        session_id: Optional[str] = None,
        mode: Optional[str] = None,
        transport: str = "text",
    ) -> None:
        self.client = client
        self.mode = mode
        self.transport = transport
        self._history: list = []  # [(bytes, eof)]
        self._token = client.new_token()
        self.session_id = str(
            client.open_session_info(
                session_id=session_id, mode=mode, transport=transport,
                token=self._token,
            )["session_id"]
        )
        self.recoveries = 0

    # ------------------------------------------------------------------
    def _replay_from(self, start: int, upto: Optional[int] = None) -> None:
        end = len(self._history) if upto is None else upto
        for index in range(start, end):
            data, eof = self._history[index]
            self.client.feed(self.session_id, index, data, eof=eof)

    def _reopen_and_replay(self) -> None:
        self.recoveries += 1
        info = self.client.open_session_info(
            session_id=self.session_id,
            mode=self.mode,
            transport=self.transport,
            token=self._token,
        )
        self.session_id = str(info["session_id"])
        start = 0
        if info.get("resumed"):
            # a durable server revived the session; replay only the
            # chunks past its persisted high-watermark
            start = min(
                int(info.get("next_chunk", 0)), len(self._history)  # type: ignore[arg-type]
            )
        self._replay_from(start)

    def _recovering(self, operation, replay_upto: Optional[int] = None):
        try:
            return operation()
        except ServerError as exc:
            if exc.code == "chunk-gap" and "expected" in exc.extra:
                # the server is durable but lost the tail (e.g. a
                # crash truncated un-synced WAL records): retransmit
                # from the index it reports instead of reopening --
                # stopping short of the in-flight chunk, which the
                # retried operation itself delivers
                self.recoveries += 1
                self._replay_from(
                    int(exc.extra["expected"]), upto=replay_upto  # type: ignore[arg-type]
                )
                return operation()
            if exc.code != "unknown-session":
                raise
        return self._reopened(operation)

    def _reopened(self, operation):
        """Reopen, replay and run *operation* again.  The session can
        be lost again on the way (another restart, or another client's
        CLOSE): each loss reopens once more, at most
        :data:`MAX_REOPENS` times."""
        for attempt in range(1, MAX_REOPENS + 1):
            try:
                self._reopen_and_replay()
                return operation()
            except ServerError as exc:
                if exc.code != "unknown-session" or attempt == MAX_REOPENS:
                    raise

    # ------------------------------------------------------------------
    def feed(self, data: bytes, eof: bool = False) -> FeedReply:
        index = len(self._history)
        self._history.append((data, eof))
        return self._recovering(
            lambda: self.client.feed(self.session_id, index, data, eof=eof),
            replay_upto=index,
        )

    def resync(self, start: int) -> None:
        """Retransmit ``history[start:]`` -- heals a server that lost
        the acked tail (e.g. it recovered from a crash on a shard that
        had degraded to memory-only durability)."""
        self.recoveries += 1
        self._replay_from(start)

    def _short_cursor(self, next_chunk: int) -> Optional[int]:
        """The replay start if the server's cursor is behind our
        history, else ``None``."""
        return next_chunk if next_chunk < len(self._history) else None

    def snapshot(self) -> SnapshotReply:
        reply = self._recovering(
            lambda: self.client.snapshot(self.session_id)
        )
        start = self._short_cursor(reply.next_chunk)
        if start is None:
            return reply
        # the server answered, but from a state missing chunks it had
        # acked before a crash: replay the tail and snapshot again
        self.resync(start)
        return self._recovering(
            lambda: self.client.snapshot(self.session_id)
        )

    def close(self) -> CloseReply:
        reply = self._recovering(
            lambda: self.client.close_session(self.session_id)
        )
        start = self._short_cursor(reply.next_chunk)
        if start is None:
            return reply
        # the close landed on a truncated recovery; the session is
        # retired now, so heal by reopening, replaying everything, and
        # closing again (chunk indices are preserved, so a durable
        # tail that *did* survive is deduplicated server-side)
        return self._reopened(
            lambda: self.client.close_session(self.session_id)
        )
