"""Lightweight run records for orchestrated work.

Every orchestrated run (a bug sweep, a campaign, a table regeneration)
produces a :class:`RunRecord`: what ran, how wide, how long, how many
tasks failed, and what the artifact cache did for it.  The record goes
back to the caller; nothing keeps a process-wide history of them.
Streaming sessions return one from ``SessionManager.close`` and
``quarantine``, with per-session details in ``extra``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class RunRecord:
    """Telemetry for one orchestrated run."""

    name: str
    jobs: int = 1
    tasks_dispatched: int = 0
    tasks_completed: int = 0
    tasks_failed: int = 0
    wall_time_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    started_at: float = field(default_factory=time.time)
    extra: Dict[str, object] = field(default_factory=dict)
