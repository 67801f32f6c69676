"""Networked post-silicon debug service.

The paper's debug loop -- select observable messages, capture a
failing run's trace, localize the failure to a small set of consistent
flow paths -- runs here as a long-lived, shared service: validators
stream trace chunks at a central debug server as runs fail, instead of
shipping whole trace files around.

The pieces:

* :mod:`repro.server.protocol` -- the length-prefixed, versioned,
  CRC-validated binary wire format (the CRC is :mod:`repro.runtime.
  checksum`'s, which the on-chip trace frames and the WAL share).
* :mod:`repro.server.server` -- the asyncio TCP server: sessions are
  routed by consistent hash onto shards, all run on its one event
  loop; admission control answers overload with structured
  ``RETRY_LATER`` (never a deadlock, never a dropped accepted
  session), idle sessions are evicted, and SIGINT/SIGTERM drain
  gracefully.  Its one metrics registry, a
  :class:`repro.perf.PerfCounters`, is served on the ``STATS`` frame
  and over HTTP.
* :mod:`repro.server.shard` -- the shard core whose ops the server runs
  one at a time on its event loop, with no transport: op handling,
  durability (WAL, snapshots, spill), recovery and shutdown.
* :mod:`repro.server.client` -- the synchronous client: timeouts,
  retry with exponential backoff and jitter, and a streaming feed that
  replays its history if the server loses the session.
* :mod:`repro.server.loadgen` -- the multi-process load generator
  replaying simulator-produced trace files.

``repro serve`` and ``repro loadgen`` are the CLI front ends.
"""

from repro.lazy import lazy_exports

# re-exported on first use, so importing the server module does not
# load the client or the load generator (and multiprocessing)
__getattr__, __dir__ = lazy_exports(globals(), {
    "client": (
        "CircuitBreaker", "DebugClient", "FeedReply", "RetryPolicy",
        "SessionFeed",
    ),
    "loadgen": ("NetworkLoadReport", "run_network_load_test"),
    "protocol": ("FrameAssembler", "WireFrame", "encode_frame"),
    "server": ("DebugServer", "ServeContext", "ServerConfig", "ServerThread"),
})

__all__ = [
    "CircuitBreaker",
    "DebugClient",
    "DebugServer",
    "FeedReply",
    "FrameAssembler",
    "NetworkLoadReport",
    "RetryPolicy",
    "ServeContext",
    "ServerConfig",
    "ServerThread",
    "SessionFeed",
    "WireFrame",
    "encode_frame",
    "run_network_load_test",
]
