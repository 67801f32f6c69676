"""The debug service's wire protocol: length-prefixed, versioned,
CRC-validated binary frames.

Every request and response travels as one frame (all multi-byte fields
big-endian)::

    +------+------+---------+------+--------+---------+-----------+-------+
    | 0x52 | 0x70 | version | type | seq(32)| len(32) | payload.. | crc16 |
    +------+------+---------+------+--------+---------+-----------+-------+

``crc16`` is the CRC-16/CCITT of :mod:`repro.runtime.checksum` -- the
same machinery that guards on-chip trace frames guards the wire --
computed over ``version..payload``.  ``seq`` is a request-scoped
correlation id: responses echo the request's ``seq``, so a client may
pipeline.  The length prefix makes framing trivial to parse
incrementally; unlike the self-resynchronizing compressed-trace format,
TCP already guarantees ordering, so any malformed byte is a **fatal**
protocol error for the connection (the peer replies ``ERROR`` where it
can and closes).

Request payloads are compact JSON (UTF-8) except ``FEED_CHUNK``, whose
payload is binary so compressed-trace bytes never pay a base64 tax::

    u8 sid_len | sid (UTF-8) | u32 chunk_index | u8 flags | data...

A session id is 1..255 bytes of UTF-8 (:func:`session_id_bytes`), the
most the ``sid_len`` byte can carry; the server refuses any other id on
every request with a ``protocol`` error.

``chunk_index`` makes feeds idempotent: the server tracks the next
expected index per session, acknowledges duplicates without
re-applying them (a retry after a lost response cannot double-feed),
and rejects gaps with a structured ``chunk-gap`` error.  Flag bit 0
marks end-of-stream (the server flushes a trailing partial line).

The ``OK`` replies to ``FEED_CHUNK``, ``SNAPSHOT`` and
``CLOSE_SESSION`` -- most of what the server sends -- are binary and
carry no keys::

    u8 status | u8 flags | varint field...

``status`` is the session's lifecycle state coded by :data:`STATUSES`,
flag bit 0 of a FEED reply marks a duplicate acknowledgment, and the
fields follow in the fixed order of :data:`REPLY_FIELDS`, each an
unsigned LEB128 varint: exact at any size (path counts pass 2^64 on
the exact route), one byte below 128.  The replies carry neither the
session id (the client sent it) nor the consistent fraction
(:attr:`~repro.selection.localization.LocalizationResult.fraction`
derives it from the two counts).  :func:`decode_reply` reads every
reply into a dict, keyed by the request it answers.

Every other reply is JSON: ``OPEN_SESSION``, ``STATS`` and ``PING``
answer with an object, ``ERROR`` carries ``{"error": code, "message":
text}`` and ``RETRY_LATER`` -- the backpressure reply -- carries
``{"reason": ..., "retry_after_s": hint}`` and promises the request
had **no effect**, so retrying is always safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.runtime.checksum import crc16
from repro.errors import ProtocolError
from repro.stream.session import (
    ACTIVE,
    CLOSED,
    EVICTED,
    OVERFLOW,
    QUARANTINED,
)

#: Protocol magic ("Rp") and the one supported version.
MAGIC = b"Rp"
PROTOCOL_VERSION = 2

#: Fixed sizes: magic(2) + version(1) + type(1) + seq(4) + len(4), and
#: the trailing CRC-16.
HEADER_BYTES = 12
TRAILER_BYTES = 2

#: Default cap on payload size; both sides enforce it *from the header*
#: so an oversized frame is rejected before its body is buffered.
DEFAULT_MAX_PAYLOAD = 1 << 20

#: The backoff hint, in seconds, a server's ``RETRY_LATER`` carries.
RETRY_AFTER_S = 0.05

# Request frame types.
OPEN_SESSION = 0x01
FEED_CHUNK = 0x02
SNAPSHOT = 0x03
CLOSE_SESSION = 0x04
STATS = 0x05
PING = 0x06

# Response frame types.
OK = 0x81
ERROR = 0x82
RETRY_LATER = 0x83

REQUEST_TYPES = frozenset(
    (OPEN_SESSION, FEED_CHUNK, SNAPSHOT, CLOSE_SESSION, STATS, PING)
)
RESPONSE_TYPES = frozenset((OK, ERROR, RETRY_LATER))

#: Feed flags.
FLAG_EOF = 0x01
#: The payload carries a relative request deadline: 4 extra bytes
#: (``u32 deadline_ms``) between the flags and the data.  Relative --
#: not absolute -- so clocks never need agreement and a retransmit
#: restarts the budget on delivery.
FLAG_DEADLINE = 0x02

#: The session statuses of :mod:`repro.stream.session`; a binary reply's
#: status byte is the position in this tuple.
STATUSES = (ACTIVE, OVERFLOW, CLOSED, EVICTED, QUARANTINED)
_STATUS_CODES = {status: code for code, status in enumerate(STATUSES)}

#: The binary OK replies, per request type: the flag names (bit *i*
#: of the flag byte is the *i*-th name) and the varint fields in wire
#: order.
REPLY_FLAGS: Dict[int, Tuple[str, ...]] = {
    FEED_CHUNK: ("duplicate",),
    SNAPSHOT: (),
    CLOSE_SESSION: (),
}
REPLY_FIELDS: Dict[int, Tuple[str, ...]] = {
    FEED_CHUNK: (
        "chunk_index", "consumed", "records", "observed_length",
        "frontier_size", "next_chunk",
    ),
    SNAPSHOT: (
        "consistent_paths", "total_paths", "observed_length", "next_chunk",
    ),
    CLOSE_SESSION: (
        "records", "observed_length", "consistent_paths", "total_paths",
        "next_chunk",
    ),
}


@dataclass(frozen=True)
class WireFrame:
    """One decoded wire frame."""

    frame_type: int
    seq: int
    payload: bytes
    version: int = PROTOCOL_VERSION


def encode_frame(
    frame_type: int,
    seq: int,
    payload: bytes = b"",
    version: int = PROTOCOL_VERSION,
    max_payload: int = DEFAULT_MAX_PAYLOAD,
) -> bytes:
    """Serialize one frame (magic + header + payload + CRC)."""
    if not 0 <= frame_type <= 0xFF:
        raise ProtocolError(f"frame type {frame_type} out of range")
    if not 0 <= seq <= 0xFFFFFFFF:
        raise ProtocolError(f"sequence number {seq} out of range")
    if len(payload) > max_payload:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{max_payload}-byte limit"
        )
    body = (
        bytes((version, frame_type))
        + seq.to_bytes(4, "big")
        + len(payload).to_bytes(4, "big")
        + payload
    )
    return MAGIC + body + crc16(body).to_bytes(2, "big")


class FrameAssembler:
    """Incrementally reassembles frames from a TCP byte stream.

    :meth:`feed` buffers arbitrary chunks and returns every frame that
    completed.  A partial frame simply waits for more bytes; bad magic,
    an unsupported version, an oversized declared length, or a CRC
    mismatch raise :class:`~repro.errors.ProtocolError` -- the stream
    is not trusted past the first corruption.
    """

    def __init__(self, max_payload: int = DEFAULT_MAX_PAYLOAD) -> None:
        self.max_payload = max_payload
        self._buffer = bytearray()

    @property
    def buffered_bytes(self) -> int:
        """Bytes awaiting a frame boundary (0 = clean cut)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[WireFrame]:
        self._buffer.extend(data)
        frames: List[WireFrame] = []
        while True:
            frame = self._try_next()
            if frame is None:
                return frames
            frames.append(frame)

    def _try_next(self) -> Optional[WireFrame]:
        buf = self._buffer
        if len(buf) < HEADER_BYTES:
            if buf and not MAGIC.startswith(bytes(buf[:2])):
                raise ProtocolError(
                    f"bad frame magic {bytes(buf[:2])!r}"
                )
            return None
        if bytes(buf[:2]) != MAGIC:
            raise ProtocolError(f"bad frame magic {bytes(buf[:2])!r}")
        version = buf[2]
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version} "
                f"(this side speaks {PROTOCOL_VERSION})"
            )
        length = int.from_bytes(buf[8:12], "big")
        if length > self.max_payload:
            raise ProtocolError(
                f"declared payload of {length} bytes exceeds the "
                f"{self.max_payload}-byte limit"
            )
        end = HEADER_BYTES + length + TRAILER_BYTES
        if len(buf) < end:
            return None
        body = bytes(buf[2 : HEADER_BYTES + length])
        stored = int.from_bytes(buf[HEADER_BYTES + length : end], "big")
        computed = crc16(body)
        if stored != computed:
            raise ProtocolError(
                f"frame CRC mismatch (stored {stored:#06x}, "
                f"computed {computed:#06x})"
            )
        frame = WireFrame(
            frame_type=buf[3],
            seq=int.from_bytes(buf[4:8], "big"),
            payload=bytes(buf[HEADER_BYTES : HEADER_BYTES + length]),
            version=version,
        )
        del buf[:end]
        return frame


# ----------------------------------------------------------------------
# payload codecs
def encode_json(obj: Dict[str, object]) -> bytes:
    """Compact, key-sorted JSON payload bytes."""
    return json.dumps(
        obj, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def decode_json(payload: bytes) -> Dict[str, object]:
    """Parse a JSON payload; :class:`ProtocolError` on anything else."""
    if not payload:
        return {}
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable JSON payload: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"JSON payload must be an object, got {type(obj).__name__}"
        )
    return obj


def session_id_bytes(session_id: object) -> bytes:
    """The UTF-8 form of *session_id*, which must be a string that
    encodes to 1..255 bytes -- what a ``FEED_CHUNK`` payload can carry.
    :class:`ProtocolError` otherwise (a lone surrogate, say)."""
    if not isinstance(session_id, str):
        raise ProtocolError(
            f"session id must be a string, got {type(session_id).__name__}"
        )
    try:
        sid = session_id.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ProtocolError(f"session id is not UTF-8: {exc}") from None
    if not sid or len(sid) > 0xFF:
        raise ProtocolError(
            f"session id must encode to 1..255 bytes, got {len(sid)}"
        )
    return sid


def encode_feed_payload(
    session_id: str,
    chunk_index: int,
    data: bytes,
    eof: bool = False,
    deadline_ms: Optional[int] = None,
) -> bytes:
    """Binary ``FEED_CHUNK`` payload (see module docstring layout).

    ``deadline_ms`` (optional) propagates the client's per-request
    deadline; the server answers an expired request with
    ``RETRY_LATER`` *before* applying it, preserving the no-effect
    promise.
    """
    sid = session_id_bytes(session_id)
    if not 0 <= chunk_index <= 0xFFFFFFFF:
        raise ProtocolError(f"chunk index {chunk_index} out of range")
    flags = FLAG_EOF if eof else 0
    extension = b""
    if deadline_ms is not None:
        if not 0 <= deadline_ms <= 0xFFFFFFFF:
            raise ProtocolError(
                f"deadline {deadline_ms}ms out of range"
            )
        flags |= FLAG_DEADLINE
        extension = deadline_ms.to_bytes(4, "big")
    return (
        bytes((len(sid),))
        + sid
        + chunk_index.to_bytes(4, "big")
        + bytes((flags,))
        + extension
        + data
    )


def decode_feed_payload_ex(
    payload: bytes,
) -> Tuple[str, int, bool, bytes, Optional[int]]:
    """Parse a ``FEED_CHUNK`` payload into ``(session_id, chunk_index,
    eof, data, deadline_ms)``; ``deadline_ms`` is ``None`` when the
    frame carries no deadline."""
    if len(payload) < 1:
        raise ProtocolError("empty FEED_CHUNK payload")
    sid_len = payload[0]
    if sid_len == 0 or len(payload) < 1 + sid_len + 5:
        raise ProtocolError("truncated FEED_CHUNK payload")
    try:
        sid = payload[1 : 1 + sid_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable session id: {exc}") from None
    base = 1 + sid_len
    chunk_index = int.from_bytes(payload[base : base + 4], "big")
    flags = payload[base + 4]
    start = base + 5
    deadline_ms: Optional[int] = None
    if flags & FLAG_DEADLINE:
        if len(payload) < start + 4:
            raise ProtocolError(
                "FEED_CHUNK payload declares a deadline but is too "
                "short to carry one"
            )
        deadline_ms = int.from_bytes(payload[start : start + 4], "big")
        start += 4
    return (
        sid, chunk_index, bool(flags & FLAG_EOF), payload[start:],
        deadline_ms,
    )


def encode_reply(request_type: int, body: Mapping[str, Any]) -> bytes:
    """The binary OK reply to *request_type* (``FEED_CHUNK``,
    ``SNAPSHOT`` or ``CLOSE_SESSION``): ``body["status"]``, its flags
    and its :data:`REPLY_FIELDS`, read from *body* (other keys are
    ignored).  Refuses an unknown status and a negative field."""
    code = _STATUS_CODES.get(body["status"])
    if code is None:
        raise ProtocolError(
            f"no wire code for session status {body['status']!r}"
        )
    flags = 0
    for bit, name in enumerate(REPLY_FLAGS[request_type]):
        if body[name]:
            flags |= 1 << bit
    out = bytearray((code, flags))
    for name in REPLY_FIELDS[request_type]:
        value = body[name]
        if value < 0:
            raise ProtocolError(f"reply field {name} = {value} is negative")
        while value > 0x7F:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


def decode_reply(
    request_type: int, frame_type: int, payload: bytes
) -> Dict[str, Any]:
    """Decode the reply of type *frame_type* to a *request_type*
    request: a binary OK reply (:func:`encode_reply`) into its status,
    flags and fields, anything else as JSON.  :class:`ProtocolError`
    on a truncated payload, a trailing byte, an unknown status or an
    unknown flag."""
    if frame_type != OK or request_type not in REPLY_FIELDS:
        return decode_json(payload)
    if len(payload) < 2:
        raise ProtocolError(f"truncated reply of {len(payload)} bytes")
    if payload[0] >= len(STATUSES):
        raise ProtocolError(f"unknown session status code {payload[0]}")
    names = REPLY_FLAGS[request_type]
    if payload[1] >> len(names):
        raise ProtocolError(f"unknown reply flags {payload[1]:#04x}")
    body: Dict[str, Any] = {"status": STATUSES[payload[0]]}
    for bit, name in enumerate(names):
        body[name] = bool(payload[1] >> bit & 1)
    pos = 2
    for name in REPLY_FIELDS[request_type]:
        value = shift = 0
        while True:
            if pos >= len(payload):
                raise ProtocolError(f"reply truncated in field {name}")
            byte = payload[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        body[name] = value
    if pos != len(payload):
        raise ProtocolError(
            f"{len(payload) - pos} trailing byte(s) after the reply"
        )
    return body


# ----------------------------------------------------------------------
# structured replies (shared client/server shapes)
def error_payload(code: str, message: str, **extra: object) -> bytes:
    return encode_json({"error": code, "message": message, **extra})


def retry_later_payload(reason: str) -> bytes:
    return encode_json({"reason": reason, "retry_after_s": RETRY_AFTER_S})
