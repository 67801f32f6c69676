"""Batch and incremental decoding of framed bitstreams.

``decode(encode(trace)) == trace`` on clean input; on corrupted input
the decoder degrades the way the framing layer is designed to: a bad
CRC (or torn write) costs exactly the frame it lands in, the reader
re-synchronizes on the next sync marker, and every loss is surfaced as
a :class:`DecodeDiagnostic` -- the binary analogue of the incremental
text parser's :class:`~repro.stream.ingest.ParseDiagnostic`.

Two entry points:

* :func:`decode_stream` -- one-shot decode of a complete byte string.
* :class:`IncrementalFrameDecoder` -- chunk-at-a-time decode for the
  streaming layer; a chunk may end mid-frame, mid-header, anywhere.
  Records are emitted as soon as their frame completes and verifies,
  which is what lets a ``ctrace`` session (:class:`repro.stream.
  session.StreamSession`) feed an online localizer from a live
  bitstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.compress.encoder import (
    RUN_SYMBOL,
    STREAM_VERSION,
    SymbolEntry,
    SymbolTable,
)
from repro.compress.framing import (
    FRAME_DATA,
    FRAME_HEADER,
    BitReader,
    Frame,
    scan_frames,
)
from repro.core.message import IndexedMessage, Message
from repro.errors import CompressionError
from repro.sim.engine import TraceRecord


@dataclass(frozen=True)
class DecodeDiagnostic:
    """One recoverable decode problem (the stream kept going)."""

    kind: str  #: ``"framing" | "header" | "frame" | "record" | "gap"``
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a batch decode."""

    records: Tuple[TraceRecord, ...]
    scenario: str
    seed: int
    diagnostics: Tuple[DecodeDiagnostic, ...]
    frames_decoded: int
    records_dropped: int


def _parse_header_payload(
    payload: bytes,
) -> Tuple[str, int, int, SymbolTable]:
    """``(scenario, seed, records_per_frame, table)`` from a header
    frame payload."""
    reader = BitReader(payload)
    version = reader.read(8)
    if version != STREAM_VERSION:
        raise CompressionError(
            f"unsupported stream version {version} "
            f"(this decoder speaks {STREAM_VERSION})"
        )
    scenario = reader.read_bytes(reader.read_varint()).decode("utf-8")
    seed = reader.read_zigzag()
    records_per_frame = reader.read_varint()
    entries: List[SymbolEntry] = []
    for _ in range(reader.read_varint()):
        index = reader.read_varint()
        name = reader.read_bytes(reader.read_varint()).decode("utf-8")
        value_bits = reader.read_varint()
        entries.append(SymbolEntry(index, name, value_bits))
    return scenario, seed, records_per_frame, SymbolTable(tuple(entries))


def _decode_data_payload(
    payload: bytes,
    table: SymbolTable,
    catalog: Mapping[str, Message],
) -> Tuple[List[TraceRecord], List[DecodeDiagnostic]]:
    """Decode one data frame payload into records.

    Messages missing from *catalog* are skipped with a diagnostic --
    the bit layout is fully described by the symbol table, so decoding
    continues past them.
    """
    reader = BitReader(payload)
    sym_bits = table.symbol_bits
    count = reader.read_varint()
    records: List[TraceRecord] = []
    diagnostics: List[DecodeDiagnostic] = []
    emitted = 0
    cycle = 0
    last: Optional[Tuple[SymbolEntry, int]] = None  # (entry, value)
    while emitted < count:
        symbol = reader.read(sym_bits)
        if symbol == RUN_SYMBOL:
            if last is None:
                raise CompressionError("RUN token before any record")
            run = reader.read_varint()
            stride = reader.read_zigzag()
            entry, value = last
            message = catalog.get(entry.name)
            for _ in range(run):
                cycle += stride
                emitted += 1
                if message is not None:
                    records.append(
                        TraceRecord(
                            cycle=cycle,
                            message=IndexedMessage(message, entry.index),
                            value=value,
                        )
                    )
            continue
        entry = table.entry(symbol)
        if emitted == 0:
            cycle = reader.read_varint()
        else:
            cycle += reader.read_zigzag()
        value = reader.read(entry.value_bits)
        emitted += 1
        last = (entry, value)
        message = catalog.get(entry.name)
        if message is None:
            diagnostics.append(
                DecodeDiagnostic(
                    "record", f"unknown message {entry.name!r}"
                )
            )
            continue
        records.append(
            TraceRecord(
                cycle=cycle,
                message=IndexedMessage(message, entry.index),
                value=value,
            )
        )
    return records, diagnostics


class IncrementalFrameDecoder:
    """Decodes a framed bitstream arriving in arbitrary byte chunks.

    Parameters
    ----------
    catalog:
        Message definitions by name (as for the trace-file readers).

    Notes
    -----
    Frames are decoded as soon as their bytes complete and their CRC
    verifies; anything unrecoverable becomes a diagnostic, never an
    exception -- a live session survives corrupt captures.  Sequence
    numbers are tracked so dropped frames (eviction upstream, loss in
    transport) are reported as ``"gap"`` diagnostics.
    """

    def __init__(self, catalog: Mapping[str, Message]) -> None:
        self._catalog = dict(catalog)
        self._buffer = b""
        self._closed = False
        self._table: Optional[SymbolTable] = None
        self._expected_seq: Optional[int] = None
        self._diagnostics: List[DecodeDiagnostic] = []
        self._frames_decoded = 0
        self._records_emitted = 0
        self._records_dropped = 0
        self.scenario: str = ""
        self.seed: int = 0

    # ------------------------------------------------------------------
    @property
    def diagnostics(self) -> Tuple[DecodeDiagnostic, ...]:
        return tuple(self._diagnostics)

    @property
    def header_seen(self) -> bool:
        return self._table is not None

    @property
    def frames_decoded(self) -> int:
        """Data frames successfully decoded (the header is reported
        through :attr:`header_seen`)."""
        return self._frames_decoded

    @property
    def records_emitted(self) -> int:
        return self._records_emitted

    @property
    def records_dropped(self) -> int:
        """Records lost to skipped frames or unknown messages."""
        return self._records_dropped

    # ------------------------------------------------------------------
    def feed(self, chunk: bytes) -> Tuple[TraceRecord, ...]:
        """Consume *chunk*, returning records whose frames completed."""
        if self._closed:
            raise CompressionError("decoder is closed; no further chunks")
        self._buffer += chunk
        frames, consumed, framing = scan_frames(self._buffer, eof=False)
        self._buffer = self._buffer[consumed:]
        return self._emit(frames, framing)

    def close(self) -> Tuple[TraceRecord, ...]:
        """Flush any complete trailing frame and seal the decoder."""
        if self._closed:
            return ()
        self._closed = True
        frames, _, framing = scan_frames(self._buffer, eof=True)
        self._buffer = b""
        return self._emit(frames, framing)

    # ------------------------------------------------------------------
    # durable-state hooks (used by repro.store snapshots)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Decoder state as a JSON-able dict.

        The buffered partial frame is carried base64-encoded; the
        symbol table is carried as its entry list, so restoring never
        needs the original header frame bytes.
        """
        import base64

        return {
            "buffer": base64.b64encode(self._buffer).decode("ascii"),
            "closed": self._closed,
            "table": (
                None
                if self._table is None
                else [
                    [e.index, e.name, e.value_bits]
                    for e in self._table.entries
                ]
            ),
            "expected_seq": self._expected_seq,
            "diagnostics": [
                [d.kind, d.detail] for d in self._diagnostics
            ],
            "frames_decoded": self._frames_decoded,
            "records_emitted": self._records_emitted,
            "records_dropped": self._records_dropped,
            "scenario": self.scenario,
            "seed": self.seed,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite decoder state with an :meth:`export_state` dict."""
        import base64

        self._buffer = base64.b64decode(state["buffer"])
        self._closed = bool(state["closed"])
        table = state["table"]
        self._table = (
            None
            if table is None
            else SymbolTable(
                tuple(
                    SymbolEntry(int(index), name, int(value_bits))
                    for index, name, value_bits in table
                )
            )
        )
        seq = state["expected_seq"]
        self._expected_seq = None if seq is None else int(seq)
        self._diagnostics = [
            DecodeDiagnostic(kind, detail)
            for kind, detail in state["diagnostics"]
        ]
        self._frames_decoded = int(state["frames_decoded"])
        self._records_emitted = int(state["records_emitted"])
        self._records_dropped = int(state["records_dropped"])
        self.scenario = state["scenario"]
        self.seed = int(state["seed"])

    # ------------------------------------------------------------------
    def _emit(
        self, frames: List[Frame], framing: List[str]
    ) -> Tuple[TraceRecord, ...]:
        for detail in framing:
            self._diagnostics.append(DecodeDiagnostic("framing", detail))
        out: List[TraceRecord] = []
        for frame in frames:
            if frame.frame_type == FRAME_HEADER:
                try:
                    (self.scenario, self.seed, _, self._table) = (
                        _parse_header_payload(frame.payload)
                    )
                    self._expected_seq = 1
                except CompressionError as exc:
                    self._diagnostics.append(
                        DecodeDiagnostic("header", str(exc))
                    )
                continue
            if frame.frame_type != FRAME_DATA:
                self._diagnostics.append(
                    DecodeDiagnostic(
                        "frame", f"unknown frame type {frame.frame_type}"
                    )
                )
                continue
            if self._table is None:
                self._diagnostics.append(
                    DecodeDiagnostic(
                        "frame",
                        f"data frame seq={frame.seq} before any header",
                    )
                )
                continue
            if (
                self._expected_seq is not None
                and frame.seq != self._expected_seq & 0xFFFF
            ):
                self._diagnostics.append(
                    DecodeDiagnostic(
                        "gap",
                        f"expected frame seq="
                        f"{self._expected_seq & 0xFFFF}, got {frame.seq} "
                        "(frame(s) lost)",
                    )
                )
            self._expected_seq = frame.seq + 1
            try:
                records, diags = _decode_data_payload(
                    frame.payload, self._table, self._catalog
                )
            except CompressionError as exc:
                self._diagnostics.append(
                    DecodeDiagnostic(
                        "frame", f"undecodable frame seq={frame.seq}: {exc}"
                    )
                )
                continue
            self._diagnostics.extend(diags)
            self._records_dropped += len(diags)
            self._records_emitted += len(records)
            self._frames_decoded += 1
            out.extend(records)
        return tuple(out)


def decode_stream(
    data: bytes, catalog: Mapping[str, Message]
) -> DecodeResult:
    """One-shot decode of a complete framed bitstream."""
    decoder = IncrementalFrameDecoder(catalog)
    records = decoder.feed(data) + decoder.close()
    return DecodeResult(
        records=records,
        scenario=decoder.scenario,
        seed=decoder.seed,
        diagnostics=decoder.diagnostics,
        frames_decoded=decoder.frames_decoded,
        records_dropped=decoder.records_dropped,
    )
