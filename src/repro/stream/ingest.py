"""Incremental trace-file ingestion.

Post-silicon trace files arrive over time: a monitor appends lines
while the analysis side reads whatever bytes happen to be flushed.
:class:`IncrementalTraceParser` consumes that text in **arbitrary
chunks** -- a chunk may end mid-line, mid-header, even mid-codepoint
of a multi-byte write -- and emits :class:`~repro.sim.engine.
TraceRecord` objects as soon as their line completes.

Unlike the batch reader (:func:`repro.sim.tracefile.read_trace_file`),
which raises on the first malformed line, the incremental parser keeps
going and records a :class:`ParseDiagnostic` per rejected line: a live
debug session should survive a torn write or a monitor glitch and keep
tightening its localization with the records that did parse.  Both
sides share the same line grammar (:func:`~repro.sim.tracefile.
parse_header` / :func:`~repro.sim.tracefile.parse_record_line`), so on
clean input the chunked parse is byte-identical to the batch parse by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.core.message import Message
from repro.errors import SimulationError
from repro.sim.engine import TraceRecord
from repro.sim.tracefile import parse_header, parse_record_line


@dataclass(frozen=True)
class ParseDiagnostic:
    """One rejected input line (the stream kept going past it).

    Attributes
    ----------
    lineno:
        1-based line number within the stream.
    line:
        The offending line text (newline stripped).
    reason:
        Why it was rejected, e.g. ``"bad trace line: ..."`` or
        ``"unknown message 'xyz'"``.
    """

    lineno: int
    line: str
    reason: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"line {self.lineno}: {self.reason}"


class IncrementalTraceParser:
    """Parses trace-file text arriving in arbitrary chunks.

    Parameters
    ----------
    catalog:
        Message definitions by name (as for the batch reader).

    Notes
    -----
    The first complete line must be the ``# repro-trace v1`` header;
    a malformed header becomes a diagnostic (not an exception) and
    parsing continues with ``scenario``/``seed`` left at their
    defaults.  Blank lines and non-header comments are skipped, exactly
    as in the batch reader.
    """

    def __init__(self, catalog: Mapping[str, Message]) -> None:
        self._catalog = catalog
        self._buffer = ""
        self._lineno = 0
        self._header_done = False
        self._closed = False
        self._diagnostics: List[ParseDiagnostic] = []
        self._records_emitted = 0
        self.scenario: str = ""
        self.seed: int = 0

    # ------------------------------------------------------------------
    @property
    def diagnostics(self) -> Tuple[ParseDiagnostic, ...]:
        """Every rejected line so far, in input order."""
        return tuple(self._diagnostics)

    @property
    def records_emitted(self) -> int:
        return self._records_emitted

    @property
    def header_seen(self) -> bool:
        """Whether a well-formed header line has been parsed."""
        return self._header_done and not any(
            d.lineno == 1 for d in self._diagnostics
        )

    # ------------------------------------------------------------------
    def feed(self, chunk: str) -> Tuple[TraceRecord, ...]:
        """Consume *chunk*, returning records whose lines completed.

        A trailing partial line is buffered until a later chunk (or
        :meth:`close`) completes it.
        """
        if self._closed:
            raise SimulationError("parser is closed; no further chunks")
        self._buffer += chunk
        emitted: List[TraceRecord] = []
        while True:
            line, separator, rest = self._buffer.partition("\n")
            if not separator:
                break
            self._buffer = rest
            record = self._consume_line(line)
            if record is not None:
                emitted.append(record)
        self._records_emitted += len(emitted)
        return tuple(emitted)

    def close(self) -> Tuple[TraceRecord, ...]:
        """Flush a trailing unterminated line and seal the parser."""
        if self._closed:
            return ()
        self._closed = True
        if not self._buffer:
            return ()
        line, self._buffer = self._buffer, ""
        record = self._consume_line(line)
        if record is None:
            return ()
        self._records_emitted += 1
        return (record,)

    # ------------------------------------------------------------------
    # durable-state hooks (used by repro.store snapshots)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Parser position + diagnostics as a JSON-able dict (the
        buffered partial line travels verbatim)."""
        return {
            "buffer": self._buffer,
            "lineno": self._lineno,
            "header_done": self._header_done,
            "closed": self._closed,
            "diagnostics": [
                [d.lineno, d.line, d.reason] for d in self._diagnostics
            ],
            "records_emitted": self._records_emitted,
            "scenario": self.scenario,
            "seed": self.seed,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite parser state with an :meth:`export_state` dict."""
        self._buffer = state["buffer"]
        self._lineno = int(state["lineno"])
        self._header_done = bool(state["header_done"])
        self._closed = bool(state["closed"])
        self._diagnostics = [
            ParseDiagnostic(int(lineno), line, reason)
            for lineno, line, reason in state["diagnostics"]
        ]
        self._records_emitted = int(state["records_emitted"])
        self.scenario = state["scenario"]
        self.seed = int(state["seed"])

    # ------------------------------------------------------------------
    def _consume_line(self, line: str) -> Optional[TraceRecord]:
        self._lineno += 1
        line = line.rstrip("\r")
        if not self._header_done:
            self._header_done = True
            header = parse_header(line)
            if header is None:
                self._diagnostics.append(
                    ParseDiagnostic(
                        self._lineno, line, f"bad trace file header: {line!r}"
                    )
                )
            else:
                self.scenario, self.seed = header
            return None
        if not line or line.startswith("#"):
            return None
        try:
            return parse_record_line(line, self._catalog)
        except SimulationError as exc:
            self._diagnostics.append(
                ParseDiagnostic(self._lineno, line, str(exc))
            )
            return None
