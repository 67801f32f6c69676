"""Latency-summary helper shared by the serving reports.

:func:`percentile` is the nearest-rank percentile that the load
generator (:mod:`repro.server.loadgen`) and the repository benchmark
report feed latencies with.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]
