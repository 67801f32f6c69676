"""Runtime substrate: artifact caching, parallel fan-out, checksums.

This package is the scaling layer under the experiment drivers, the
debug campaigns, and the CLI:

* :mod:`repro.runtime.artifacts` -- content-addressed keys for
  expensive derivations (interleavings, MI tables, selections).
* :mod:`repro.runtime.cache` -- disk-backed artifact store with an
  in-memory LRU front (``REPRO_CACHE_DIR`` overrides the location).
* :mod:`repro.runtime.parallel` -- deterministic process-pool map
  with per-task timeout and graceful serial fallback.
* :mod:`repro.runtime.orchestrator` -- parallel runs with an
  abort-or-collect failure policy.
* :mod:`repro.runtime.checksum` -- the shared CRC-16/CCITT-FALSE used
  by the compressed-trace frames, the wire protocol, and the session
  store's write-ahead log.
"""

from repro.lazy import lazy_exports

# re-exported on first use, so importing the cache or the checksum does
# not load the process-pool fan-out
__getattr__, __dir__ = lazy_exports(globals(), {
    "artifacts": ("artifact_key", "canonical_token", "message_fingerprint"),
    "checksum": ("crc16", "crc16_bitwise"),
    "cache": (
        "ArtifactCache", "CacheSnapshot", "CacheStats", "default_cache",
        "resolve_cache_dir", "set_default_cache",
    ),
    "orchestrator": ("TaskFailure", "orchestrate"),
    "parallel": ("resolve_jobs", "run_tasks"),
})

__all__ = [
    "artifact_key",
    "canonical_token",
    "message_fingerprint",
    "crc16",
    "crc16_bitwise",
    "ArtifactCache",
    "CacheSnapshot",
    "CacheStats",
    "default_cache",
    "resolve_cache_dir",
    "set_default_cache",
    "TaskFailure",
    "orchestrate",
    "resolve_jobs",
    "run_tasks",
]
