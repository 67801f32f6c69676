"""Step 2 of the selection method, and the end-to-end selector.

Given the interleaved flow of a usage scenario and a trace buffer width,
pick the width-feasible message combination with the highest mutual
information gain (Section 3.2), then optionally pack leftover bits with
sub-message groups (Section 3.3).

Two equivalent Step-2 engines are provided:

* ``method="exhaustive"`` -- the paper's formulation: enumerate every
  feasible combination (Step 1) and take the argmax of the gain.
* ``method="knapsack"`` -- exact 0/1 knapsack over per-message gain
  contributions.  Because the paper's probability model makes the gain
  additive across indexed messages (see
  :mod:`repro.core.information`), the knapsack optimum equals the
  exhaustive optimum while scaling to message pools far beyond
  exhaustive reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro import perf

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compress.cost import EffectiveWidthBudget
from repro.core.coverage import flow_specification_coverage
from repro.core.information import InformationModel
from repro.core.interleave import InterleavedFlow
from repro.core.message import Message, MessageCombination
from repro.errors import SelectionError
from repro.selection.combinations import feasible_combinations
from repro.selection.packing import (
    PackingResult,
    expand_subgroups,
    pack_trace_buffer,
)

#: Step-2 engines accepted by :meth:`MessageSelector.select`.
METHODS = ("exhaustive", "knapsack")


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the three-step selection method.

    Attributes
    ----------
    combination:
        Messages chosen in Step 2.
    packed:
        Sub-message groups added by Step 3 (empty without packing).
    gain:
        Mutual information gain of the traced set (packing credit
        included, per the packing policy).
    coverage:
        Flow specification coverage (Definition 7) of the traced set
        over the scenario's interleaved flow.
    buffer_width:
        Trace buffer width the selection was made for.
    method:
        Step-2 engine used (``"exhaustive"`` or ``"knapsack"``).
    budget_mode:
        Admissibility rule used in Steps 1 and 3: ``"width"`` (the
        paper's worst-case ``sum(widths) <= W``) or ``"effective"``
        (compression-aware bit budget,
        :class:`repro.compress.cost.EffectiveWidthBudget`).
    capacity_bits:
        Total bit budget of the effective mode (``0`` in width mode).
    cost_bits:
        Estimated encoded bits of the traced set against that budget
        (``0`` in width mode).
    guard_band:
        Worst-case guard band of the effective budget.
    """

    combination: MessageCombination
    packed: Tuple[Message, ...]
    gain: float
    coverage: float
    buffer_width: int
    method: str
    budget_mode: str = "width"
    capacity_bits: int = 0
    cost_bits: int = 0
    guard_band: float = 0.0

    @property
    def traced(self) -> MessageCombination:
        """Everything that ends up in the trace buffer."""
        return MessageCombination(tuple(self.combination) + self.packed)

    @property
    def total_width(self) -> int:
        """Bits of trace buffer occupied."""
        return self.traced.total_width

    @property
    def utilization(self) -> float:
        """Trace buffer utilization in ``[0, 1]``.

        Width mode: occupied entry bits over entry width.  Effective
        mode: estimated encoded bits over the physical bit budget.
        """
        if self.budget_mode == "effective" and self.capacity_bits:
            return self.cost_bits / self.capacity_bits
        return self.total_width / self.buffer_width

    def describe(self) -> str:
        """One-line human-readable summary."""
        packed = (
            " + packed {" + ", ".join(m.name for m in self.packed) + "}"
            if self.packed
            else ""
        )
        if self.budget_mode == "effective" and self.capacity_bits:
            bits = (
                f"~{self.cost_bits}/{self.capacity_bits} encoded bits, "
                f"guard band {self.guard_band:.0%}"
            )
        else:
            bits = f"{self.total_width}/{self.buffer_width} bits"
        return (
            f"{{{', '.join(self.combination.names())}}}{packed}: "
            f"gain={self.gain:.4f}, coverage={self.coverage:.2%}, "
            f"utilization={self.utilization:.2%} "
            f"({bits})"
        )


class MessageSelector:
    """End-to-end message selection for one usage scenario.

    Parameters
    ----------
    interleaved:
        The interleaved flow ``U`` of the usage scenario.
    buffer_width:
        Available trace buffer width in bits (the paper uses 32).
    subgroups:
        Candidate sub-message groups available for Step-3 packing.
    subgroup_policy:
        Gain-credit policy for packed groups
        (:data:`repro.selection.packing.SUBGROUP_POLICIES`).
    budget:
        Optional compression-aware bit budget
        (:class:`repro.compress.cost.EffectiveWidthBudget`).  When
        given, Steps 1-3 admit combinations by expected *encoded* bits
        against the buffer's physical ``width x depth`` budget instead
        of the worst-case per-entry width rule; messages wider than
        one buffer entry become candidates (the codec spreads them
        over the bit budget).
    """

    def __init__(
        self,
        interleaved: InterleavedFlow,
        buffer_width: int,
        subgroups: Iterable[Message] = (),
        subgroup_policy: str = "proportional",
        budget: Optional["EffectiveWidthBudget"] = None,
    ) -> None:
        if buffer_width <= 0:
            raise SelectionError(
                f"trace buffer width must be positive, got {buffer_width}"
            )
        self.interleaved = interleaved
        self.buffer_width = buffer_width
        self.subgroups: Tuple[Message, ...] = tuple(sorted(set(subgroups)))
        self.subgroup_policy = subgroup_policy
        self.budget = budget
        with perf.timed("information_model"):
            self.model = InformationModel(interleaved)
        # sub-group -> parent expansion map, shared by every coverage
        # query of this selector (exhaustive Step 2 issues one query
        # per feasible combination)
        self._parents = {m.name: m for m in interleaved.messages}
        # Step 2's answer per method: it does not depend on packing,
        # so a with- and a without-packing selection share one search
        self._step2: Dict[str, Tuple[MessageCombination, float]] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def select(
        self, method: str = "knapsack", packing: bool = True
    ) -> SelectionResult:
        """Run Steps 1-3 and return the selected traced set."""
        if method not in METHODS:
            raise SelectionError(
                f"unknown selection method {method!r}; choose one of {METHODS}"
            )
        if method not in self._step2:
            self._step2[method] = (
                self._select_exhaustive()
                if method == "exhaustive"
                else self._select_knapsack()
            )
        combination, gain = self._step2[method]

        packed: Tuple[Message, ...] = ()
        if packing and self.subgroups:
            result: PackingResult = pack_trace_buffer(
                self.model,
                combination,
                self.buffer_width,
                self.subgroups,
                policy=self.subgroup_policy,
                budget=self.budget,
            )
            packed = result.packed
            gain = result.gain
        traced = MessageCombination(tuple(combination) + packed)
        coverage = self.coverage(traced)
        if self.budget is None:
            budget_fields = {}
        else:
            budget_fields = dict(
                budget_mode=self.budget.mode,
                capacity_bits=self.budget.capacity_bits,
                cost_bits=sum(
                    self.budget.message_cost_bits(m) for m in traced
                ),
                guard_band=self.budget.guard_band,
            )
        return SelectionResult(
            combination=combination,
            packed=packed,
            gain=gain,
            coverage=coverage,
            buffer_width=self.buffer_width,
            method=method,
            **budget_fields,
        )

    def evaluate(self, combination: Iterable[Message]) -> Tuple[float, float]:
        """``(gain, coverage)`` of an arbitrary combination -- used by
        the Figure-5 correlation experiment."""
        combo = MessageCombination(combination)
        return self.model.gain(combo), self.coverage(combo)

    def coverage(self, traced: Iterable[Message]) -> float:
        """Flow specification coverage of *traced* over ``U``,
        expanding packed sub-groups to their parents for visibility."""
        parents = self._parents
        expanded = [
            parents.get(m.parent, m) if m.parent is not None else m
            for m in traced
        ]
        return flow_specification_coverage(self.interleaved, expanded)

    # ------------------------------------------------------------------
    # step 2 engines
    # ------------------------------------------------------------------
    def _candidate_pool(self) -> List[Message]:
        """Scenario messages that individually fit the buffer.

        Under an effective budget, "fit" means the message's expected
        encoded bits fit the bit budget -- a message wider than one
        physical entry is still a candidate.
        """
        if self.budget is not None:
            budget = self.budget
            return sorted(
                m
                for m in self.interleaved.messages
                if budget.message_cost_bits(m) <= budget.capacity_bits
            )
        return sorted(
            m for m in self.interleaved.messages if m.width <= self.buffer_width
        )

    def _select_exhaustive(self) -> Tuple[MessageCombination, float]:
        """Argmax of the gain over every feasible combination (Step 1+2).

        Each combination is scored with the O(|combo|) additive gain
        and the O(|combo|) bitset coverage, so the whole enumeration is
        O(#combinations x |combo|) -- the transition relation is never
        rescanned.
        """
        best: Optional[MessageCombination] = None
        best_key: Tuple[float, float, int, Tuple[str, ...]] = (-1.0, -1.0, -1, ())
        scored = 0
        with perf.timed("select_exhaustive"):
            for combo in feasible_combinations(
                self._candidate_pool(), self.buffer_width, budget=self.budget
            ):
                scored += 1
                gain = self.model.gain(combo)
                # ties: prefer higher gain, then higher coverage (the other
                # stated optimization objective), then fuller buffer, then a
                # deterministic (lexicographically smallest) name set
                key = (
                    gain,
                    self.coverage(combo),
                    combo.total_width,
                    _inverted_names(combo),
                )
                if key > best_key:
                    best, best_key = combo, key
        perf.add("combinations_scored", scored)
        if best is None:
            raise SelectionError(
                "no message fits the trace buffer "
                f"({self.buffer_width} bits)"
            )
        return best, best_key[0]

    def _select_knapsack(self) -> Tuple[MessageCombination, float]:
        """Exact 0/1 knapsack: weights = bit widths (or expected
        encoded bits under an effective budget), values = additive
        per-message gain contributions."""
        pool = self._candidate_pool()
        if not pool:
            raise SelectionError(
                "no message fits the trace buffer "
                f"({self.buffer_width} bits)"
            )
        if self.budget is not None:
            capacity = self.budget.capacity_bits
            cost_of = self.budget.message_cost_bits
        else:
            capacity = self.buffer_width
            cost_of = _message_width
        # dp[c] = best (gain, width, inverted-names, chosen) with width <= c
        empty = (0.0, 0, (), ())
        dp: List[Tuple[float, int, Tuple[str, ...], Tuple[Message, ...]]] = [
            empty
        ] * (capacity + 1)
        dp_steps = 0
        with perf.timed("select_knapsack"):
            for item in pool:
                item_cost = cost_of(item)
                dp_steps += max(0, capacity - item_cost + 1)
                for c in range(capacity, item_cost - 1, -1):
                    gain, used, _, chosen = dp[c - item_cost]
                    cand_gain = gain + self.model.message_contribution(item)
                    cand_width = used + item_cost
                    cand_chosen = chosen + (item,)
                    cand = (
                        cand_gain,
                        cand_width,
                        _inverted_names(cand_chosen),
                        cand_chosen,
                    )
                    if cand[:3] > dp[c][:3]:
                        dp[c] = cand
        perf.add("knapsack_dp_steps", dp_steps)
        gain, _, _, chosen = dp[capacity]
        if not chosen:
            # all contributions were zero: fall back to the widest message
            chosen = (max(pool, key=lambda m: (m.width, m.name)),)
            gain = self.model.message_contribution(chosen[0])
        return MessageCombination(chosen), gain


def _message_width(message: Message) -> int:
    """Per-message cost of the paper's worst-case width rule."""
    return message.width


def _inverted_names(messages: Iterable[Message]) -> Tuple[str, ...]:
    """Sort key that prefers lexicographically *smaller* name sets when
    compared with ``>`` (each character's code point is negated)."""
    names = tuple(sorted(m.name for m in messages))
    return tuple(
        "".join(chr(0x10FFFF - ord(ch)) for ch in name) for name in names
    )


def select_messages(
    interleaved: InterleavedFlow,
    buffer_width: int,
    subgroups: Iterable[Message] = (),
    method: str = "knapsack",
    packing: bool = True,
    subgroup_policy: str = "proportional",
    budget: Optional["EffectiveWidthBudget"] = None,
) -> SelectionResult:
    """Functional one-shot wrapper around :class:`MessageSelector`."""
    selector = MessageSelector(
        interleaved,
        buffer_width,
        subgroups=subgroups,
        subgroup_policy=subgroup_policy,
        budget=budget,
    )
    return selector.select(method=method, packing=packing)
