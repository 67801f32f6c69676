"""Streaming trace analysis: incremental ingestion and online
localization (the service layer over Section 5.2).

- :mod:`repro.stream.ingest` -- chunk-tolerant trace-file parsing with
  structured diagnostics,
- :mod:`repro.stream.incremental` -- the localization DP carried
  across captures,
- :mod:`repro.stream.session` -- per-validator sessions with limits,
  overflow status, and idle eviction,
- :mod:`repro.stream.service` -- seeded synthetic session captures.

The networked server (:mod:`repro.server`) is the one front end that
serves these sessions.
"""

from repro.stream.incremental import IncrementalLocalizer
from repro.stream.ingest import IncrementalTraceParser, ParseDiagnostic
from repro.stream.service import synthetic_session_records
from repro.stream.session import (
    FeedOutcome,
    SessionLimits,
    SessionManager,
    StreamSession,
)

__all__ = [
    "IncrementalLocalizer",
    "IncrementalTraceParser",
    "ParseDiagnostic",
    "SessionLimits",
    "SessionManager",
    "StreamSession",
    "FeedOutcome",
    "synthetic_session_records",
]
