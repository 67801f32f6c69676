"""Compression-aware cost model and trace-buffer bit budgets.

Step 1 of the paper admits a message combination iff the sum of its
bit widths fits the trace-buffer width -- a *worst-case* rule: it
assumes every buffer entry spends ``width(m)`` bits on every traced
message.  With the :mod:`repro.compress` codec between the monitors
and the buffer, the real spend per message is what its *encoded* form
costs, which a clean-run corpus (:class:`repro.mining.corpus.
TraceCorpus`) lets us estimate per message: how often it occurs, how
its inter-occurrence gaps varint-encode, how wide its captured value
is.

Two budget objects expose the two admissibility rules behind one
interface (``capacity_bits`` / ``message_cost_bits`` / ``admits``):

* :class:`WidthBudget` -- the paper's rule, ``W(M) <= width``.
* :class:`EffectiveWidthBudget` -- the compression-aware rule: the
  whole run's expected encoded bits must fit the physical
  ``width x depth`` bit budget of the buffer, with a configurable
  *guard band* blending the expectation toward the worst observed run
  (``guard_band=1.0`` trusts the corpus not at all and prices every
  message at its worst run).

Additivity is preserved deliberately: per-message costs use the
message's *own-gap* deltas (the cycle gap between consecutive
occurrences of the same message).  The true delta stored on the wire
is the gap to the *previous record of any message*, which is never
larger -- so own-gap costs upper-bound real costs, keep the Step-1
DFS pruning sound, and drop straight into the Step-2 knapsack as
weights.  Symbol widths are likewise fixed at the full candidate
pool's dictionary size rather than per-combination -- conservative,
and constant across the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.compress.encoder import DEFAULT_RECORDS_PER_FRAME
from repro.compress.framing import FRAME_OVERHEAD_BYTES, varint_bits
from repro.core.message import Message
from repro.errors import CompressionError

if TYPE_CHECKING:  # an annotation only: mining stays unloaded
    from repro.mining.corpus import TraceCorpus


@dataclass(frozen=True)
class _NameStats:
    """Aggregated occurrence statistics of one message name."""

    mean_count: float  #: occurrences per run, averaged over the corpus
    max_count: int  #: occurrences in the heaviest run
    mean_delta_bits: float  #: per-run varint bits of own-gap deltas, mean
    max_delta_bits: int  #: ... and in the heaviest run
    entry_count: int  #: distinct flow-instance indices observed


@dataclass(frozen=True)
class CostEstimate:
    """Expected and worst-run encoded bits of one message.

    Both totals are *per run* and include the message's share of
    symbol bits, frame overhead, and dictionary-entry bits, so they
    are directly additive across a combination.
    """

    name: str
    value_bits: int
    occurrences_mean: float
    occurrences_max: int
    expected_bits: float
    worst_bits: float
    worst_case_bits: int  #: the paper's static cost: ``width(m)``

    def effective_bits(self, guard_band: float) -> float:
        """Blend of expectation and worst run: ``(1-g)*E + g*max``."""
        return (1.0 - guard_band) * self.expected_bits + (
            guard_band * self.worst_bits
        )


class CompressionCostModel:
    """Per-message expected encoded bits from a clean-run corpus.

    Parameters
    ----------
    corpus:
        Clean (passing) runs of the usage scenario under analysis.
    records_per_frame:
        Data-frame granularity of the encoder the estimate targets;
        determines how frame overhead amortizes per record.
    """

    def __init__(
        self,
        corpus: TraceCorpus,
        records_per_frame: int = DEFAULT_RECORDS_PER_FRAME,
    ) -> None:
        if corpus.runs == 0:
            raise CompressionError(
                "cannot build a cost model from an empty corpus"
            )
        if records_per_frame < 1:
            raise CompressionError(
                f"records_per_frame must be >= 1, got {records_per_frame}"
            )
        self.corpus = corpus
        self.records_per_frame = records_per_frame
        #: Sync + frame header + CRC + record-count varint, spread over
        #: the records of a full frame.
        self.per_record_overhead_bits = (
            FRAME_OVERHEAD_BYTES * 8 + 8
        ) / records_per_frame

        counts: Dict[str, List[int]] = {}
        delta_bits: Dict[str, List[int]] = {}
        indices: Dict[str, set] = {}
        max_cycle = 0
        for run_no, entry in enumerate(corpus.entries):
            last_cycle: Dict[str, int] = {}
            for record in entry.records:
                name = record.message.message.name
                if name not in counts:
                    counts[name] = [0] * corpus.runs
                    delta_bits[name] = [0] * corpus.runs
                    indices[name] = set()
                counts[name][run_no] += 1
                gap = record.cycle - last_cycle.get(name, 0)
                # own-gap priced as a zigzag varint (>= the bits of the
                # smaller true inter-record delta)
                delta_bits[name][run_no] += varint_bits(abs(gap) * 2)
                last_cycle[name] = record.cycle
                indices[name].add(record.message.index)
                max_cycle = max(max_cycle, record.cycle)
        self._stats: Dict[str, _NameStats] = {
            name: _NameStats(
                mean_count=sum(counts[name]) / corpus.runs,
                max_count=max(counts[name]),
                mean_delta_bits=sum(delta_bits[name]) / corpus.runs,
                max_delta_bits=max(delta_bits[name]),
                entry_count=len(indices[name]),
            )
            for name in counts
        }
        self._max_cycle = max_cycle
        #: Dictionary size if every observed indexed message were
        #: traced -- the conservative, combination-independent symbol
        #: width used throughout selection.
        total_entries = sum(s.entry_count for s in self._stats.values())
        self.symbol_bits = max(1, total_entries.bit_length())
        self._estimates: Dict[Tuple[str, Optional[str], int, int], CostEstimate] = {}

    # ------------------------------------------------------------------
    @property
    def message_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._stats))

    # ------------------------------------------------------------------
    def estimate(self, message: Message) -> CostEstimate:
        """Per-run encoded-bit estimate for tracing *message*.

        A sub-group slice inherits its parent's occurrence statistics
        (the slice is captured whenever the parent fires) but pays only
        its own slice width per value.  A message absent from the
        corpus is priced at zero expected bits but one worst-run
        record, so a non-zero guard band still charges for it.
        """
        key = (message.name, message.parent, message.width, message.beats)
        cached = self._estimates.get(key)
        if cached is not None:
            return cached
        if message.parent is not None:
            stats = self._stats.get(message.name) or self._stats.get(
                message.parent
            )
            value_bits = message.width
        else:
            stats = self._stats.get(message.name)
            value_bits = message.content_width
        # dictionary-entry bits in the header frame: index varint,
        # name length varint + UTF-8 name, value-width varint
        entry_bits = 16 + 8 * len(message.name) + 8
        per_record = (
            value_bits + self.symbol_bits + self.per_record_overhead_bits
        )
        if stats is None:
            worst_delta = varint_bits(2 * max(self._max_cycle, 1))
            estimate = CostEstimate(
                name=message.name,
                value_bits=value_bits,
                occurrences_mean=0.0,
                occurrences_max=1,
                expected_bits=float(entry_bits),
                worst_bits=entry_bits + per_record + worst_delta,
                worst_case_bits=message.width,
            )
        else:
            entry_total = stats.entry_count * entry_bits
            estimate = CostEstimate(
                name=message.name,
                value_bits=value_bits,
                occurrences_mean=stats.mean_count,
                occurrences_max=stats.max_count,
                expected_bits=(
                    entry_total
                    + stats.mean_delta_bits
                    + stats.mean_count * per_record
                ),
                worst_bits=(
                    entry_total
                    + stats.max_delta_bits
                    + stats.max_count * per_record
                ),
                worst_case_bits=message.width,
            )
        self._estimates[key] = estimate
        return estimate

    def expected_run_bits(
        self, messages: Iterable[Message], guard_band: float = 0.0
    ) -> float:
        """Total per-run encoded bits of tracing *messages*."""
        return sum(
            self.estimate(m).effective_bits(guard_band) for m in messages
        )


# ----------------------------------------------------------------------
# budgets
# ----------------------------------------------------------------------
class WidthBudget:
    """The paper's worst-case admissibility rule: ``W(M) <= width``.

    Exposes the same interface as :class:`EffectiveWidthBudget` so the
    selection layers can treat both uniformly.
    """

    mode = "width"

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise CompressionError(
                f"trace buffer width must be positive, got {width}"
            )
        self.width = width
        self.capacity_bits = width

    def message_cost_bits(self, message: Message) -> int:
        return message.width

    def admits(self, messages: Iterable[Message]) -> bool:
        return (
            sum(self.message_cost_bits(m) for m in messages)
            <= self.capacity_bits
        )

    def describe(self) -> str:
        return f"worst-case width budget: {self.width} bits/entry"


class EffectiveWidthBudget:
    """Compression-aware admissibility: expected encoded bits of the
    whole run fit the buffer's physical ``width x depth`` bit budget.

    Parameters
    ----------
    model:
        Cost model built from a clean-run corpus of the scenario.
    width, depth:
        Physical trace-buffer geometry; the budget is their product.
    guard_band:
        Worst-case margin in ``[0, 1]``: each message is priced at
        ``(1-g) * expected + g * worst-run`` bits.  ``0`` trusts the
        corpus mean; ``1`` admits only what the heaviest observed run
        would fit.
    """

    mode = "effective"

    def __init__(
        self,
        model: CompressionCostModel,
        width: int,
        depth: int,
        guard_band: float = 0.25,
    ) -> None:
        if width <= 0 or depth <= 0:
            raise CompressionError(
                f"buffer geometry must be positive, got {width}x{depth}"
            )
        if not 0.0 <= guard_band <= 1.0:
            raise CompressionError(
                f"guard band must be in [0, 1], got {guard_band}"
            )
        self.model = model
        self.width = width
        self.depth = depth
        self.guard_band = guard_band
        #: Stream-header bits that do not scale with the traced set
        #: (frame overhead, version, scenario label, seed).
        self.fixed_overhead_bits = FRAME_OVERHEAD_BYTES * 8 + 16 * 8
        self.capacity_bits = max(
            0, width * depth - self.fixed_overhead_bits
        )

    def message_cost_bits(self, message: Message) -> int:
        """Integer (ceil) effective cost -- the knapsack weight."""
        cost = self.model.estimate(message).effective_bits(self.guard_band)
        return max(1, math.ceil(cost))

    def admits(self, messages: Iterable[Message]) -> bool:
        return (
            sum(self.message_cost_bits(m) for m in messages)
            <= self.capacity_bits
        )

    def utilization(self, messages: Iterable[Message]) -> float:
        """Fraction of the physical bit budget the estimate consumes."""
        used = self.fixed_overhead_bits + sum(
            self.message_cost_bits(m) for m in messages
        )
        return used / (self.width * self.depth)

    def describe(self) -> str:
        return (
            f"effective-width budget: {self.width}x{self.depth} = "
            f"{self.width * self.depth} bits, guard band "
            f"{self.guard_band:.0%}"
        )


# ----------------------------------------------------------------------
# scenario helper
# ----------------------------------------------------------------------
_MODEL_CACHE: Dict[Tuple[int, int, int, int, int], CompressionCostModel] = {}


def cost_model_for_scenario(
    number: int,
    instances: int = 1,
    runs: int = 20,
    base_seed: int = 0,
    jobs: int = 1,
    records_per_frame: int = DEFAULT_RECORDS_PER_FRAME,
) -> CompressionCostModel:
    """Cost model for T2 scenario *number* from a generated corpus.

    The corpus comes from :func:`repro.mining.corpus.generate_corpus`
    (content-addressed cache and all); the finished model is memoized
    in-process per parameter set.
    """
    key = (number, instances, runs, base_seed, records_per_frame)
    model = _MODEL_CACHE.get(key)
    if model is None:
        from repro.mining.corpus import generate_corpus

        corpus = generate_corpus(
            number,
            instances=instances,
            runs=runs,
            base_seed=base_seed,
            jobs=jobs,
        )
        model = CompressionCostModel(
            corpus, records_per_frame=records_per_frame
        )
        _MODEL_CACHE[key] = model
    return model
