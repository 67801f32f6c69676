"""Discrete-event transaction simulation of usage scenarios.

The simulator executes one run of a usage scenario: it samples an
execution of the scenario's interleaved flow uniformly at random
(seeded), assigns clock-cycle timestamps with random inter-message
delays, and gives every message occurrence a deterministic payload
value.  The result is exactly what the paper's System-Verilog monitors
record into an output trace file (Figure 4): a timestamped stream of
flow messages.

Fault injection lives in :mod:`repro.debug.injection`, which transforms
golden :class:`SimulationTrace` objects; this module stays bug-free by
construction so golden/buggy comparisons are trustworthy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.flow import Execution
from repro.core.interleave import InterleavedFlow
from repro.core.message import IndexedMessage, Message
from repro.errors import SimulationError


@dataclass(frozen=True)
class TraceRecord:
    """One observed message occurrence.

    Attributes
    ----------
    cycle:
        Clock cycle at which the message completed.
    message:
        The indexed message (instance tag included).
    value:
        The payload value carried (fits in ``message.width`` bits).
    """

    cycle: int
    message: IndexedMessage
    value: int

    @property
    def name(self) -> str:
        return self.message.name

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"@{self.cycle} {self.message.name}={self.value:#x}"


@dataclass(frozen=True)
class Symptom:
    """A detected failure during a run.

    ``kind`` is one of ``"hang"`` (a flow instance never completed),
    ``"bad_trap"`` (a corrupted payload was consumed), or
    ``"value_mismatch"`` (a payload differed from the golden run).
    """

    kind: str
    cycle: int
    detail: str
    message: Optional[IndexedMessage] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.upper()} @{self.cycle}: {self.detail}"


@dataclass(frozen=True)
class SimulationTrace:
    """A complete simulation run of a usage scenario.

    Attributes
    ----------
    scenario_name:
        Which scenario ran.
    execution:
        The interleaved-flow execution the run followed.
    records:
        Timestamped message occurrences, in time order.
    seed:
        RNG seed that produced the run (for reproducibility).
    total_cycles:
        Cycle count at the end of the run.
    symptom:
        Failure detected during the run; ``None`` for golden runs.
    """

    scenario_name: str
    execution: Execution
    records: Tuple[TraceRecord, ...]
    seed: int
    total_cycles: int
    symptom: Optional[Symptom] = None

    @property
    def messages(self) -> Tuple[IndexedMessage, ...]:
        """The message sequence (no timing, no payloads)."""
        return tuple(r.message for r in self.records)

    def project(self, traced: Sequence[Message]) -> Tuple[TraceRecord, ...]:
        """Records visible through a buffer tracing *traced* messages."""
        wanted = {m.name for m in traced}
        parents = {m.parent for m in traced if m.parent is not None}
        return tuple(
            r
            for r in self.records
            if r.message.message.name in wanted
            or r.message.message.name in parents
        )


class TransactionSimulator:
    """Executes usage-scenario runs at the transaction level.

    Parameters
    ----------
    interleaved:
        The interleaved flow of the scenario.
    scenario_name:
        Label recorded into produced traces.
    min_delay, max_delay:
        Uniform inter-message delay bounds in clock cycles.  Real SoC
        flows take thousands of cycles between protocol steps; scale
        these up for realistic cycle counts (the shape of every
        experiment is delay-invariant).
    """

    def __init__(
        self,
        interleaved: InterleavedFlow,
        scenario_name: str = "scenario",
        min_delay: int = 1,
        max_delay: int = 64,
    ) -> None:
        if min_delay < 1 or max_delay < min_delay:
            raise SimulationError(
                f"invalid delay bounds [{min_delay}, {max_delay}]"
            )
        self.interleaved = interleaved
        self.scenario_name = scenario_name
        self.min_delay = min_delay
        self.max_delay = max_delay

    def run(self, seed: int = 0) -> SimulationTrace:
        """One golden run: sample an execution, timestamp, and value it."""
        rng = random.Random(seed)
        execution = self.interleaved.random_execution(rng)
        records: List[TraceRecord] = []
        cycle = 0
        for message in execution.messages:
            cycle += rng.randint(self.min_delay, self.max_delay)
            records.append(
                TraceRecord(
                    cycle=cycle,
                    message=message,
                    value=self._payload(message, rng),
                )
            )
        return SimulationTrace(
            scenario_name=self.scenario_name,
            execution=execution,
            records=tuple(records),
            seed=seed,
            total_cycles=cycle,
        )

    @staticmethod
    def _payload(message: IndexedMessage, rng: random.Random) -> int:
        """A deterministic payload fitting the full message content
        (multi-cycle messages carry ``width * beats`` bits)."""
        bits = message.message.content_width
        return rng.getrandbits(bits) if bits > 0 else 0
