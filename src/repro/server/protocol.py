"""The debug service's wire protocol: length-prefixed, versioned,
CRC-validated binary frames.

Every request and response travels as one frame::

    +------+------+------------+------------+-----------+-------+
    | 0xB5 | type | varint seq | varint len | payload.. | crc16 |
    +------+------+------------+------------+-----------+-------+

The leading byte is the magic in its high nibble (:data:`MAGIC`) and
the version in its low one (:data:`PROTOCOL_VERSION`).  ``seq`` and
``len`` are unsigned 32-bit values, each an unsigned LEB128 varint
(seven bits a byte, low bits first, the top bit set on every byte but
the last; one codec writes every varint of the protocol), so the header
takes 4 bytes for a ``seq`` below 128 and a payload below 128 bytes,
and :data:`HEADER_BYTES` (12) at most.  ``crc16`` (big-endian) is the
CRC-16/CCITT of :mod:`repro.runtime.checksum` -- the same machinery
that guards on-chip trace frames guards the wire -- computed over
everything after the leading byte.  ``seq`` is a request-scoped
correlation id: responses echo the request's ``seq``, so a client may
pipeline.  The length prefix makes framing trivial to parse
incrementally; unlike the self-resynchronizing compressed-trace format,
TCP already guarantees ordering, so any malformed byte is a **fatal**
protocol error for the connection (the peer replies ``ERROR`` where it
can and closes).  A varint longer than a 32-bit value needs (5 bytes),
or not in its shortest form, is malformed; so is a declared length
over the receiver's limit, refused before any payload byte arrives.
A frame of another version is refused at its first header, as
``unsupported protocol version N``; versions 1 to 3 opened every frame
with ``"Rp"`` and a version byte, version 4 with ``0xB4``.

``STATS`` and ``PING`` requests carry no payload.  Every other request
is binary.  ``OPEN_SESSION`` names its session by id; the ``OK`` reply
to it carries a **handle**, and ``FEED_CHUNK``, ``SNAPSHOT`` and
``CLOSE_SESSION`` name the session by that handle::

    OPEN_SESSION   u8 sid_len | sid | u8 flags | [varint deadline_ms]
                   | [token] | [transport] | [mode]
    FEED_CHUNK     varint handle | varint chunk_index | u8 flags
                   | [varint deadline_ms] | data...
    SNAPSHOT       varint handle | u8 flags | [varint deadline_ms]
    CLOSE_SESSION  varint handle | u8 flags | [varint deadline_ms]

A handle is scoped to its connection and never reused on it: the
server maps it to one incarnation of one session (a fresh OPEN makes a
new incarnation of its id; a resume, a spill and a revival keep it),
so a request whose handle names an incarnation the server no longer
holds -- a late copy of a CLOSE after its session was reopened, say --
has no effect and is answered ``unknown-session``.  Handles, chunk
indices and deadlines are 32-bit values as varints: a FEED's head takes
5 bytes for a handle and chunk index below 128 and a default client's
10 s deadline, a SNAPSHOT or CLOSE 4.

A session id is 1..255 bytes of UTF-8 (:func:`session_id_bytes`), the
most the ``sid_len`` byte can carry; the server refuses any other id,
and an id that is not UTF-8, with a ``protocol`` error.  Flag bit 1
(:data:`FLAG_DEADLINE`) adds the relative ``deadline_ms``.  The other
bits belong to one request type each (:data:`REQUEST_FLAGS`), and a
bit a type does not know is a ``protocol`` error: bit 0 of a FEED
marks end-of-stream (the server flushes a trailing partial line); on
an OPEN, bits 3, 4 and 5 announce the open token, the transport
(absent: ``text``) and the localization mode (absent: the server's),
each a ``u8`` length and that many bytes of UTF-8, and bit 2 asks the
server to generate the id (``sid_len`` is then 0).  Such an OPEN must
carry a token of 1..254 bytes: its session is named ``"g" + token``
(:attr:`OpenRequest.effective_id`), so a retry of it reaches the same
session.  Bit 6 (:data:`FLAG_ATTACH`) makes an OPEN an **ATTACH**: it
gets a handle for a session the server already holds, live or spilled,
and never creates or revives one -- with a token, only for the session
that token opened; without, for whatever the id holds.  An ATTACH
names no transport or mode and asks for no new id.  ``FEED_CHUNK``'s data is raw bytes, so
compressed-trace chunks never pay a base64 tax.

The write-ahead log keeps version 4's FEED payload, which names the
session by id (:func:`encode_feed_payload`)::

    u8 sid_len | sid | u32 chunk_index | u8 flags | [varint deadline_ms]
    | data...

``chunk_index`` makes feeds idempotent: the server tracks the next
expected index per session, acknowledges duplicates without
re-applying them (a retry after a lost response cannot double-feed),
and rejects gaps with a structured ``chunk-gap`` error.

The ``OK`` replies to ``FEED_CHUNK``, ``SNAPSHOT`` and
``CLOSE_SESSION`` -- most of what the server sends -- are binary and
carry no keys::

    u8 status | u8 flags | varint field...

``status`` is the session's lifecycle state coded by :data:`STATUSES`,
flag bit 0 of a FEED reply marks a duplicate acknowledgment, and the
fields follow in the fixed order of :data:`REPLY_FIELDS`, each an
unsigned LEB128 varint: exact at any size (path counts pass 2^64 on
the exact route), one byte below 128.  The replies carry neither the
session (the client named it) nor the consistent fraction
(:attr:`~repro.selection.localization.LocalizationResult.fraction`
derives it from the two counts).  The ``OK`` reply to
``OPEN_SESSION`` is binary too::

    u8 flags | varint shard | varint handle | [varint next_chunk]
    | transport | mode

flag bit 0 marks a resumed session (every ATTACH is one), which alone
carries ``next_chunk``, and the two strings are length-prefixed as in
an OPEN request.  The reply leaves out the session id: the client sent
it, or it is ``"g" + token``.  :func:`decode_reply` reads every reply
into a dict, keyed by the request it answers.

Every other reply is JSON: ``STATS`` and ``PING`` answer with an
object, ``ERROR`` carries ``{"error": code, "message": text}`` and
``RETRY_LATER`` -- the backpressure reply -- carries ``{"reason": ...,
"retry_after_s": hint}`` and promises the request had **no effect**,
so retrying is always safe.
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

#: A frame's leading byte: this magic in its high nibble, the protocol
#: version in its low one.
MAGIC = 0xB0
PROTOCOL_VERSION = 5
_LEAD = MAGIC | PROTOCOL_VERSION
_LEAD_BYTE = bytes((_LEAD,))
#: The two bytes that opened a frame of versions 1 to 3, before their
#: version byte.
_OLD_MAGIC = b"Rp"

#: The longest header -- lead(1) + type(1) + seq and len, each a varint
#: of at most 5 bytes -- and the trailing CRC-16.
HEADER_BYTES = 12
TRAILER_BYTES = 2

#: The largest value of a 32-bit field: a frame's seq and length, and a
#: request's handle, chunk index and deadline, each a varint of at most
#: 5 bytes.
_U32 = 0xFFFFFFFF

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

#: Request flags.  A FEED ends its session's stream.
FLAG_EOF = 0x01
#: The payload carries a relative request deadline right after the
#: flags: ``deadline_ms``, a 32-bit value as a varint.  Relative -- not
#: absolute -- so clocks never need agreement and a retransmit
#: restarts the budget on delivery.
FLAG_DEADLINE = 0x02
#: An OPEN names no session (``sid_len`` 0): it is named after the
#: token the OPEN must then carry (:attr:`OpenRequest.effective_id`).
FLAG_NEW_ID = 0x04
#: An OPEN carries its open token, its transport and its mode.
FLAG_TOKEN = 0x08
FLAG_TRANSPORT = 0x10
FLAG_MODE = 0x20
#: An OPEN attaches to a session the server already holds and creates
#: none: an ATTACH.  It carries no transport or mode and asks for no
#: new id; its token is optional.
FLAG_ATTACH = 0x40

#: The flag bits each request type that names a session may set.
REQUEST_FLAGS: Dict[int, int] = {
    OPEN_SESSION: (
        FLAG_DEADLINE | FLAG_NEW_ID | FLAG_TOKEN | FLAG_TRANSPORT | FLAG_MODE
        | FLAG_ATTACH
    ),
    FEED_CHUNK: FLAG_EOF | FLAG_DEADLINE,
    SNAPSHOT: FLAG_DEADLINE,
    CLOSE_SESSION: FLAG_DEADLINE,
}
#: The optional strings after an OPEN's head, in wire order, with the
#: flag that announces each.
OPEN_FIELDS = (
    ("token", FLAG_TOKEN), ("transport", FLAG_TRANSPORT), ("mode", FLAG_MODE),
)
#: The transport an OPEN means when it names none.
DEFAULT_TRANSPORT = "text"

_PAYLOADS = {
    OPEN_SESSION: "OPEN_SESSION payload",
    FEED_CHUNK: "FEED_CHUNK payload",
    SNAPSHOT: "SNAPSHOT payload",
    CLOSE_SESSION: "CLOSE_SESSION payload",
}

#: The session statuses of :mod:`repro.stream.session`; a binary reply's
#: status byte is the position in this tuple.
STATUSES = (ACTIVE, OVERFLOW, CLOSED, EVICTED, QUARANTINED)
_STATUS_CODES = {status: code for code, status in enumerate(STATUSES)}

#: The binary OK replies that open with a status, per request type: the
#: flag names (bit *i* of the flag byte is the *i*-th name) and the
#: varint fields in wire order.
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


def _put_varint(out: bytearray, value: int) -> None:
    """Append *value* (an int >= 0) to *out* as an unsigned LEB128
    varint: every varint of the protocol -- a frame's seq and length, a
    request's deadline, a reply's fields -- is written here."""
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(
    data: bytes, pos: int, what: str, u32: bool = False
) -> Optional[Tuple[int, int]]:
    """The unsigned LEB128 varint *what* at *pos* of *data* and the
    position after it, or ``None`` when *data* ends inside it; every
    varint of the protocol is read here.  :class:`ProtocolError` on a
    varint not in its shortest form and, for a *u32* field, on one
    longer than 5 bytes or past 32 bits, each at the byte that shows
    it."""
    value = shift = 0
    end = len(data)
    while pos < end:
        byte = data[pos]
        pos += 1
        if byte < 0x80:
            if byte == 0 and shift:
                raise ProtocolError(
                    f"varint {what} is not in its shortest form"
                )
            value |= byte << shift
            if u32 and value > _U32:
                raise ProtocolError(f"varint {what} = {value} exceeds 32 bits")
            return value, pos
        value |= (byte & 0x7F) << shift
        shift += 7
        if u32 and shift == 35:
            raise ProtocolError(f"varint {what} is longer than 5 bytes")
    return None


@dataclass(frozen=True)
class WireFrame:
    """One decoded wire frame."""

    frame_type: int
    seq: int
    payload: bytes


def encode_frame(
    frame_type: int,
    seq: int,
    payload: bytes = b"",
    max_payload: int = DEFAULT_MAX_PAYLOAD,
) -> bytes:
    """Serialize one frame (leading byte + header + payload + CRC)."""
    if not 0 <= frame_type <= 0xFF:
        raise ProtocolError(f"frame type {frame_type} out of range")
    if not 0 <= seq <= _U32:
        raise ProtocolError(f"sequence number {seq} out of range")
    if len(payload) > max_payload:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{max_payload}-byte limit"
        )
    head = bytearray((frame_type,))
    _put_varint(head, seq)
    _put_varint(head, len(payload))
    crc = crc16(payload, crc16(head))
    return _LEAD_BYTE + head + payload + crc.to_bytes(2, "big")


def _refuse_lead(buf: bytearray) -> None:
    """Raise :class:`ProtocolError` for a frame that does not open with
    this version's leading byte: ``unsupported protocol version N`` for
    a frame of another version, the ``"Rp"`` header of versions 1 to 3
    included, and bad magic otherwise.  Returns while the bytes so far
    are an old header too short to name its version."""
    lead = buf[0]
    if lead & 0xF0 == MAGIC:
        version = lead & 0x0F
    elif _OLD_MAGIC.startswith(bytes(buf[:2])):
        if len(buf) < 3:
            return
        version = buf[2]
    else:
        raise ProtocolError(f"bad frame magic {bytes(buf[:2])!r}")
    raise ProtocolError(
        f"unsupported protocol version {version} "
        f"(this side speaks {PROTOCOL_VERSION})"
    )


class FrameAssembler:
    """Incrementally reassembles frames from a TCP byte stream.

    :meth:`feed` buffers arbitrary chunks and returns every frame that
    completed.  A partial frame simply waits for more bytes; bad magic,
    an unsupported version, a malformed varint, an oversized declared
    length, or a CRC mismatch raise :class:`~repro.errors.ProtocolError`
    as soon as the bytes that show it arrive -- the stream is not
    trusted past the first corruption.
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
        if not buf:
            return None
        if buf[0] != _LEAD:
            _refuse_lead(buf)
            return None
        read = _read_varint(buf, 2, "frame sequence number", u32=True)
        if read is None:
            return None
        seq, pos = read
        read = _read_varint(buf, pos, "frame length", u32=True)
        if read is None:
            return None
        length, pos = read
        if length > self.max_payload:
            raise ProtocolError(
                f"declared payload of {length} bytes exceeds the "
                f"{self.max_payload}-byte limit"
            )
        end = pos + length + TRAILER_BYTES
        if len(buf) < end:
            return None
        payload = bytes(buf[pos : pos + length])
        stored = int.from_bytes(buf[end - TRAILER_BYTES : end], "big")
        computed = crc16(payload, crc16(buf[1:pos]))
        if stored != computed:
            raise ProtocolError(
                f"frame CRC mismatch (stored {stored:#06x}, "
                f"computed {computed:#06x})"
            )
        frame = WireFrame(frame_type=buf[1], seq=seq, payload=payload)
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


def _utf8(value: object, what: str, least: int = 0) -> bytes:
    """The UTF-8 form of *value*, which must be a string that encodes
    to *least*..255 bytes -- what one length byte can announce.
    :class:`ProtocolError` otherwise (a lone surrogate, say)."""
    if not isinstance(value, str):
        raise ProtocolError(
            f"{what} must be a string, got {type(value).__name__}"
        )
    try:
        raw = value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ProtocolError(f"{what} is not UTF-8: {exc}") from None
    if not least <= len(raw) <= 0xFF:
        raise ProtocolError(
            f"{what} must encode to {least}..255 bytes, got {len(raw)}"
        )
    return raw


def session_id_bytes(session_id: object) -> bytes:
    """The UTF-8 form of *session_id*, which must be a string that
    encodes to 1..255 bytes -- what a request's ``sid_len`` byte can
    carry.  :class:`ProtocolError` otherwise (a lone surrogate, say)."""
    return _utf8(session_id, "session id", least=1)


def _text(
    payload: bytes, pos: int, what: str, where: str
) -> Tuple[str, int]:
    """The length-prefixed UTF-8 string *what* at *pos* of *where*,
    and the position after it."""
    if pos >= len(payload) or pos + 1 + payload[pos] > len(payload):
        raise ProtocolError(f"{where} truncated in its {what}")
    end = pos + 1 + payload[pos]
    try:
        return payload[pos + 1 : end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable {what}: {exc}") from None


def _put_varints(
    out: bytearray, body: Mapping[str, Any], names: Tuple[str, ...]
) -> None:
    """Append the reply fields *names* of *body* as varints."""
    for name in names:
        value = body[name]
        if value < 0:
            raise ProtocolError(f"reply field {name} = {value} is negative")
        _put_varint(out, value)


def _read_varints(
    payload: bytes, pos: int, names: Tuple[str, ...], body: Dict[str, Any],
    where: str,
) -> int:
    """Read one varint per name at *pos* of *where* into *body*;
    returns the position after them."""
    for name in names:
        read = _read_varint(payload, pos, name)
        if read is None:
            raise ProtocolError(f"{where} truncated in field {name}")
        body[name], pos = read
    return pos


def _ended(payload: bytes, pos: int, where: str) -> None:
    if pos != len(payload):
        raise ProtocolError(
            f"{len(payload) - pos} trailing byte(s) after the {where}"
        )


def _put_flags(
    out: bytearray, flags: int, deadline_ms: Optional[int]
) -> None:
    """Append a request's flag byte and, when given, its deadline."""
    if deadline_ms is None:
        out.append(flags)
        return
    if not 0 <= deadline_ms <= _U32:
        raise ProtocolError(f"deadline {deadline_ms}ms out of range")
    out.append(flags | FLAG_DEADLINE)
    _put_varint(out, deadline_ms)


def _read_flags(
    request_type: int, payload: bytes, pos: int, where: str
) -> Tuple[int, Optional[int], int]:
    """The flag byte at *pos* of a *request_type* payload and the
    deadline it announces (``None`` when it carries none), and the
    position after them.  :class:`ProtocolError` on a flag the type
    does not know."""
    if pos >= len(payload):
        raise ProtocolError(f"{where} truncated before its flags")
    flags = payload[pos]
    unknown = flags & ~REQUEST_FLAGS[request_type]
    if unknown:
        raise ProtocolError(f"unknown {where} flags {unknown:#04x}")
    pos += 1
    deadline_ms: Optional[int] = None
    if flags & FLAG_DEADLINE:
        read = _read_varint(payload, pos, "deadline", u32=True)
        if read is None:
            raise ProtocolError(f"{where} truncated in its deadline")
        deadline_ms, pos = read
    return flags, deadline_ms, pos


def _put_u32(out: bytearray, value: int, what: str) -> None:
    """Append the 32-bit field *what* as a varint."""
    if not 0 <= value <= _U32:
        raise ProtocolError(f"{what} {value} out of range")
    _put_varint(out, value)


def _read_u32(
    payload: bytes, pos: int, what: str, where: str
) -> Tuple[int, int]:
    """The 32-bit varint *what* at *pos* of *where*, and the position
    after it."""
    if not payload:
        raise ProtocolError(f"empty {where}")
    read = _read_varint(payload, pos, what, u32=True)
    if read is None:
        raise ProtocolError(f"{where} truncated in its {what}")
    return read


# -- requests that name their session by handle ------------------------
def encode_feed_request(
    handle: int,
    chunk_index: int,
    data: bytes,
    eof: bool = False,
    deadline_ms: Optional[int] = None,
) -> bytes:
    """Binary ``FEED_CHUNK`` request: ``varint handle | varint
    chunk_index | u8 flags | [varint deadline_ms] | data``.

    ``deadline_ms`` (optional) propagates the client's per-request
    deadline; the server answers an expired request with
    ``RETRY_LATER`` *before* applying it, preserving the no-effect
    promise.
    """
    out = bytearray()
    _put_u32(out, handle, "handle")
    _put_u32(out, chunk_index, "chunk index")
    _put_flags(out, FLAG_EOF if eof else 0, deadline_ms)
    out += data
    return bytes(out)


def decode_feed_request(
    payload: bytes,
) -> Tuple[int, int, bool, bytes, Optional[int]]:
    """Parse a ``FEED_CHUNK`` request into ``(handle, chunk_index,
    eof, data, deadline_ms)``; ``deadline_ms`` is ``None`` when the
    frame carries no deadline."""
    where = _PAYLOADS[FEED_CHUNK]
    handle, pos = _read_u32(payload, 0, "handle", where)
    chunk_index, pos = _read_u32(payload, pos, "chunk index", where)
    flags, deadline_ms, pos = _read_flags(FEED_CHUNK, payload, pos, where)
    eof = bool(flags & FLAG_EOF)
    return handle, chunk_index, eof, payload[pos:], deadline_ms


def encode_session_request(
    handle: int, deadline_ms: Optional[int] = None
) -> bytes:
    """Binary ``SNAPSHOT`` or ``CLOSE_SESSION`` request: ``varint
    handle | u8 flags | [varint deadline_ms]``."""
    out = bytearray()
    _put_u32(out, handle, "handle")
    _put_flags(out, 0, deadline_ms)
    return bytes(out)


def decode_session_request(
    request_type: int, payload: bytes
) -> Tuple[int, Optional[int]]:
    """Parse a *request_type* (``SNAPSHOT`` or ``CLOSE_SESSION``)
    request into ``(handle, deadline_ms)``."""
    where = _PAYLOADS[request_type]
    handle, pos = _read_u32(payload, 0, "handle", where)
    _, deadline_ms, pos = _read_flags(request_type, payload, pos, where)
    _ended(payload, pos, where)
    return handle, deadline_ms


# -- payloads that name their session by id ----------------------------
def _head(
    sid: bytes, flags: int, deadline_ms: Optional[int], index: bytes = b""
) -> bytes:
    """The head of a payload that names its session by id: ``u8
    sid_len | sid | index | u8 flags | [varint deadline_ms]``, where
    *index* is a logged FEED's chunk index and empty on an OPEN."""
    out = bytearray((len(sid),))
    out += sid
    out += index
    _put_flags(out, flags, deadline_ms)
    return bytes(out)


def _read_head(
    request_type: int, payload: bytes
) -> Tuple[Optional[str], int, int, Optional[int], int]:
    """Parse the head of a *request_type* payload that names its
    session by id (an OPEN, or a FEED as the WAL logs it) into
    ``(session_id, chunk_index, flags, deadline_ms, position after the
    head)``.  The id is ``None`` on an OPEN that asks for a new one,
    the chunk index 0 on an OPEN, and ``deadline_ms`` ``None`` when the
    payload carries none.  :class:`ProtocolError` on a truncated head,
    an id that is empty or not UTF-8, and a flag the type does not
    know."""
    where = _PAYLOADS[request_type]
    if not payload:
        raise ProtocolError(f"empty {where}")
    sid, pos = _text(payload, 0, "session id", where)
    at_flags = pos + 4 if request_type == FEED_CHUNK else pos
    if at_flags >= len(payload):
        raise ProtocolError(f"{where} truncated before its flags")
    chunk_index = int.from_bytes(payload[pos:at_flags], "big")
    flags, deadline_ms, pos = _read_flags(
        request_type, payload, at_flags, where
    )
    if flags & FLAG_NEW_ID:
        if sid:
            raise ProtocolError(
                f"an OPEN that asks for a new session id names {sid!r}"
            )
        return None, chunk_index, flags, deadline_ms, pos
    if not sid:
        raise ProtocolError("session id must encode to 1..255 bytes, got 0")
    return sid, chunk_index, flags, deadline_ms, pos


def encode_feed_payload(
    session_id: str,
    chunk_index: int,
    data: bytes,
    eof: bool = False,
    deadline_ms: Optional[int] = None,
) -> bytes:
    """A FEED payload that names its session by id: protocol version
    4's ``FEED_CHUNK`` payload, and what the write-ahead log records
    for a FEED (without a deadline).  The chunk index is a big-endian
    ``u32``."""
    sid = session_id_bytes(session_id)
    if not 0 <= chunk_index <= _U32:
        raise ProtocolError(f"chunk index {chunk_index} out of range")
    return _head(
        sid, FLAG_EOF if eof else 0, deadline_ms,
        chunk_index.to_bytes(4, "big"),
    ) + data


def decode_feed_payload_ex(
    payload: bytes,
) -> Tuple[str, int, bool, bytes, Optional[int]]:
    """Parse an id-named FEED payload (:func:`encode_feed_payload`)
    into ``(session_id, chunk_index, eof, data, deadline_ms)``;
    ``deadline_ms`` is ``None`` when the payload carries no
    deadline."""
    sid, chunk_index, flags, deadline_ms, pos = _read_head(
        FEED_CHUNK, payload
    )
    return sid, chunk_index, bool(flags & FLAG_EOF), payload[pos:], deadline_ms


@dataclass(frozen=True)
class OpenRequest:
    """One decoded ``OPEN_SESSION`` request.  ``session_id`` is
    ``None`` when the server is to name the session after ``token``,
    ``mode`` when the server's default applies, and ``deadline_ms``
    when the request carries none.  ``attach`` marks an ATTACH."""

    session_id: Optional[str]
    token: Optional[str] = None
    transport: str = DEFAULT_TRANSPORT
    mode: Optional[str] = None
    deadline_ms: Optional[int] = None
    attach: bool = False

    @property
    def effective_id(self) -> str:
        """The session this OPEN opens or resumes: the id it names, or
        ``"g" + token`` for an id-less OPEN, whose retry then names the
        same session (:func:`_check_new_id_token`)."""
        return self.session_id or "g" + self.token


def _check_new_id_token(token: Optional[str]) -> None:
    """Refuse an OPEN that asks for a new id without a token the id can
    be made of: :attr:`OpenRequest.effective_id` is ``"g" + token``,
    which must fit a 255-byte id, so the token takes 1..254 bytes."""
    size = None if token is None else len(token.encode("utf-8"))
    if size is None or not 1 <= size <= 0xFE:
        raise ProtocolError(
            "an OPEN that asks for a new session id needs a token of "
            f"1..254 bytes, got {'none' if size is None else size}"
        )


#: What an ATTACH may not carry: it creates nothing.
_NOT_ATTACH = FLAG_NEW_ID | FLAG_TRANSPORT | FLAG_MODE


def _check_attach(flags: int) -> None:
    if flags & FLAG_ATTACH and flags & _NOT_ATTACH:
        raise ProtocolError(
            "an ATTACH names no transport or mode and asks for no new "
            f"session id (flags {flags:#04x})"
        )


def encode_open_payload(
    session_id: Optional[str] = None,
    token: Optional[str] = None,
    transport: str = DEFAULT_TRANSPORT,
    mode: Optional[str] = None,
    deadline_ms: Optional[int] = None,
    attach: bool = False,
) -> bytes:
    """Binary ``OPEN_SESSION`` payload: the head (no id when
    *session_id* is ``None``, which needs a *token* of 1..254 bytes),
    then the token, a transport other than :data:`DEFAULT_TRANSPORT`
    and the mode, each only when given.  *attach* makes it an ATTACH,
    which must name its id and neither a transport nor a mode."""
    if session_id is None:
        flags, sid = FLAG_NEW_ID, b""
    else:
        flags, sid = 0, session_id_bytes(session_id)
    given = {
        "token": token,
        "transport": None if transport == DEFAULT_TRANSPORT else transport,
        "mode": mode,
    }
    fields = b""
    for name, flag in OPEN_FIELDS:
        if given[name] is not None:
            raw = _utf8(given[name], name)
            flags |= flag
            fields += bytes((len(raw),)) + raw
    if attach:
        flags |= FLAG_ATTACH
        _check_attach(flags)
    elif session_id is None:
        _check_new_id_token(token)
    return _head(sid, flags, deadline_ms) + fields


def decode_open_payload(payload: bytes) -> OpenRequest:
    """Parse an ``OPEN_SESSION`` payload (:func:`encode_open_payload`)."""
    sid, _, flags, deadline_ms, pos = _read_head(OPEN_SESSION, payload)
    _check_attach(flags)
    where = _PAYLOADS[OPEN_SESSION]
    fields: Dict[str, str] = {}
    for name, flag in OPEN_FIELDS:
        if flags & flag:
            fields[name], pos = _text(payload, pos, name, where)
    _ended(payload, pos, where)
    if sid is None:
        _check_new_id_token(fields.get("token"))
    return OpenRequest(
        sid, deadline_ms=deadline_ms, attach=bool(flags & FLAG_ATTACH),
        **fields,
    )


#: The varints of an ``OPEN_SESSION`` OK reply, in wire order: a
#: resumed session's also carry ``next_chunk``.
OPEN_REPLY_FIELDS = ("shard", "handle")
#: The strings of an ``OPEN_SESSION`` OK reply, in wire order.
OPEN_REPLY_TEXTS = ("transport", "mode")


def _open_reply_fields(resumed: object) -> Tuple[str, ...]:
    return OPEN_REPLY_FIELDS + (("next_chunk",) if resumed else ())


def encode_reply(request_type: int, body: Mapping[str, Any]) -> bytes:
    """The binary OK reply to *request_type*, read from *body* (other
    keys are ignored).  For ``OPEN_SESSION``: ``resumed`` as flag bit
    0, :data:`OPEN_REPLY_FIELDS`, ``next_chunk`` when resumed, then
    :data:`OPEN_REPLY_TEXTS`.  For ``FEED_CHUNK``, ``SNAPSHOT`` and
    ``CLOSE_SESSION``: ``body["status"]``, its flags and its
    :data:`REPLY_FIELDS`.  Refuses an unknown status and a negative
    field."""
    if request_type == OPEN_SESSION:
        resumed = bool(body.get("resumed"))
        out = bytearray((int(resumed),))
        _put_varints(out, body, _open_reply_fields(resumed))
        for name in OPEN_REPLY_TEXTS:
            raw = _utf8(body[name], name)
            out.append(len(raw))
            out += raw
        return bytes(out)
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
    _put_varints(out, body, REPLY_FIELDS[request_type])
    return bytes(out)


def _decode_open_reply(payload: bytes) -> Dict[str, Any]:
    where = "OPEN_SESSION reply"
    if not payload:
        raise ProtocolError("truncated reply of 0 bytes")
    if payload[0] >> 1:
        raise ProtocolError(f"unknown reply flags {payload[0]:#04x}")
    body: Dict[str, Any] = {}
    if payload[0]:
        body["resumed"] = True
    pos = _read_varints(
        payload, 1, _open_reply_fields(payload[0]), body, where
    )
    for name in OPEN_REPLY_TEXTS:
        body[name], pos = _text(payload, pos, name, where)
    _ended(payload, pos, where)
    return body


def decode_reply(
    request_type: int, frame_type: int, payload: bytes
) -> Dict[str, Any]:
    """Decode the reply of type *frame_type* to a *request_type*
    request: a binary OK reply (:func:`encode_reply`) into its fields,
    anything else as JSON.  :class:`ProtocolError` on a truncated
    payload, a trailing byte, an unknown status or an unknown flag."""
    # every request that names a session has a binary OK reply
    if frame_type != OK or request_type not in REQUEST_FLAGS:
        return decode_json(payload)
    if request_type == OPEN_SESSION:
        return _decode_open_reply(payload)
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
    pos = _read_varints(payload, 2, REPLY_FIELDS[request_type], body, "reply")
    _ended(payload, pos, "reply")
    return body


# ----------------------------------------------------------------------
# structured replies (shared client/server shapes)
def error_payload(code: str, message: str, **extra: object) -> bytes:
    return encode_json({"error": code, "message": message, **extra})


def retry_later_payload(reason: str) -> bytes:
    return encode_json({"reason": reason, "retry_after_s": RETRY_AFTER_S})
