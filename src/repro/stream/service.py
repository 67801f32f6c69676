"""Synthetic debug sessions: one simulated failing run's capture.

:func:`synthetic_session_records` is the workload every serving test,
the load generator (:mod:`repro.server.loadgen`) and the repository
benchmark build their sessions from -- a seeded golden run projected
onto the traced message set, exactly what the trace buffer would hold.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.core.interleave import InterleavedFlow
from repro.core.message import Message
from repro.sim.engine import TraceRecord, TransactionSimulator

__all__ = ["synthetic_session_records"]


def synthetic_session_records(
    interleaved: InterleavedFlow,
    traced: Iterable[Message],
    seed: int,
    scenario_name: str = "stream-demo",
) -> Tuple[TraceRecord, ...]:
    """One simulated failing run's capture: a seeded golden run
    projected onto the traced set (what the buffer would hold)."""
    simulator = TransactionSimulator(interleaved, scenario_name)
    trace = simulator.run(seed=seed)
    return trace.project(tuple(traced))
