"""Per-message visibility bitsets for Definition-7 coverage.

:func:`repro.core.coverage.visible_states` answers "which states does
this message combination make visible?" with a full scan of the
transition relation -- O(|delta|) per query.  Step 2 of the selection
method asks that question once per feasible combination, which made
exhaustive selection O(#combinations x |delta|).

A :class:`VisibilityIndex` precomputes, once per flow, a bitset over
interned state IDs for every distinct edge label: bit ``i`` of
``bits_for(m)`` is set iff state ID ``i`` is reached by a transition
that message *m* makes visible.  The sub-group rule of Section 3.3 is
folded in: a message with a ``parent`` also lights up every edge whose
label *name* equals that parent (observing ``cputhreadid`` timestamps
the enclosing ``dmusiidata``).  Coverage of a combination is then an
O(|combination|) big-int OR followed by one popcount -- bit-identical
to the reference set computation, because bit positions are exactly
the distinct visible target states.

Python big-ints are the bitset representation: arbitrary width, O(n/64)
bitwise ops in C, no dependencies.  The index is built straight from a
flow's edge list (label and target ID per edge): with numpy every edge
is scattered into one boolean grid of plain messages by states and
each row is packed into bytes; without it each bitset is set bit by
bit in a ``bytearray``.  Either way it is converted to an int once, so
construction is linear in the number of edges.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.arrays import have_numpy, np
from repro.core.message import Message, underlying_message

if hasattr(int, "bit_count"):  # Python >= 3.10
    def popcount(bits: int) -> int:
        """Number of set bits of *bits*."""
        return bits.bit_count()
else:  # pragma: no cover - exercised on Python 3.9 CI only
    def popcount(bits: int) -> int:
        """Number of set bits of *bits*."""
        return bin(bits).count("1")


class VisibilityIndex:
    """Precomputed per-message visibility bitsets of one flow.

    Parameters
    ----------
    num_states:
        ``|S|`` of the flow -- the denominator of Definition 7 and the
        bitset width.
    by_message:
        Plain message -> bitset of target-state IDs of the edges it
        labels (indexed labels are collapsed onto their underlying
        message, as in the reference implementation).
    by_label_name:
        Edge label *name* -> the same bitsets, for the sub-group
        parent-name rule.
    state_at:
        State ID -> state, used only to translate bitsets back into
        state sets for debugging/verification.
    """

    def __init__(
        self,
        num_states: int,
        by_message: Mapping[Message, int],
        by_label_name: Mapping[str, int],
        state_at: Optional[Callable[[int], Hashable]] = None,
    ) -> None:
        self.num_states = num_states
        self._by_message: Dict[Message, int] = dict(by_message)
        self._by_name: Dict[str, int] = dict(by_label_name)
        self._state_at = state_at

    @classmethod
    def from_edges(
        cls,
        num_states: int,
        labels: Sequence[object],
        edge_labels: Sequence[int],
        edge_targets: Sequence[int],
        state_at: Optional[Callable[[int], Hashable]] = None,
    ) -> "VisibilityIndex":
        """Build an index from an edge list: edge ``e`` carries label
        ``labels[edge_labels[e]]`` into state ID ``edge_targets[e]``.

        Labels sharing an underlying message share one bitset.  With
        numpy every edge is scattered into one (plain message x state)
        boolean grid whose rows are packed into bytes; otherwise each
        bitset is set edge by edge in one ``bytearray``.  Either way it
        is converted to an int once.  The edge sequences may be
        ``array`` tables of any integer width or plain lists."""
        plains: Dict[Message, int] = {}
        group = [
            plains.setdefault(underlying_message(label), len(plains))
            for label in labels
        ]
        if have_numpy():
            # an ``array`` table indexes in its own width, a list as int64
            labels_at, targets_at = (
                np.asarray(seq, dtype=getattr(seq, "typecode", np.int64))
                for seq in (edge_labels, edge_targets)
            )
            grid = np.zeros((len(plains), num_states), dtype=bool)
            grid[
                np.asarray(group, dtype=np.int64)[labels_at], targets_at
            ] = True
            rows = [
                row.tobytes()
                for row in np.packbits(grid, axis=1, bitorder="little")
            ]
        else:
            width = (num_states + 7) // 8
            rows = [bytearray(width) for _ in plains]
            by_label = [rows[g] for g in group]
            for label, target in zip(edge_labels, edge_targets):
                by_label[label][target >> 3] |= 1 << (target & 7)
        by_message = {
            plain: int.from_bytes(row, "little")
            for plain, row in zip(plains, rows)
        }
        by_name: Dict[str, int] = {}
        for plain, bits in by_message.items():
            by_name[plain.name] = by_name.get(plain.name, 0) | bits
        return cls(num_states, by_message, by_name, state_at)

    # ------------------------------------------------------------------
    def bits_for(self, message: object) -> int:
        """Bitset of state IDs made visible by *message* alone.

        Mirrors the reference rule exactly: edges labelled with the
        (underlying) message itself, plus -- when the message is a
        sub-group -- edges whose label name equals its ``parent``.
        """
        plain = underlying_message(message)
        bits = self._by_message.get(plain, 0)
        if plain.parent is not None:
            bits |= self._by_name.get(plain.parent, 0)
        return bits

    def union_bits(self, messages: Iterable[object]) -> int:
        """OR of :meth:`bits_for` over *messages* -- O(|messages|)."""
        bits = 0
        for message in messages:
            bits |= self.bits_for(message)
        return bits

    def visible_count(self, messages: Iterable[object]) -> int:
        """``|visible states|`` of the combination (popcount of the OR)."""
        return popcount(self.union_bits(messages))

    def coverage(self, messages: Iterable[object]) -> float:
        """Definition 7: ``|visible states| / |S|``."""
        if self.num_states == 0:
            raise ValueError("flow has no states")
        return self.visible_count(messages) / self.num_states

    def visible_state_set(self, messages: Iterable[object]) -> set:
        """The visible states as objects (needs the state table)."""
        if self._state_at is None:
            raise ValueError(
                "this VisibilityIndex was built without a state table"
            )
        bits = self.union_bits(messages)
        return {
            self._state_at(i)
            for i in range(self.num_states)
            if (bits >> i) & 1
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VisibilityIndex(|S|={self.num_states}, "
            f"|messages|={len(self._by_message)})"
        )


def index_flow_visibility(flow: object) -> VisibilityIndex:
    """Build a :class:`VisibilityIndex` for any flow-like object.

    Works for :class:`~repro.core.flow.Flow` and anything else exposing
    ``states`` and a ``transitions`` iterable of labelled edges.  State
    IDs are assigned deterministically (sorted by ``str``); the
    resulting coverage numbers are ID-assignment invariant anyway.
    :class:`~repro.core.interleave.InterleavedFlow` has its own
    construction path straight from its interned tables.
    """
    states: Tuple[Hashable, ...] = tuple(
        sorted(flow.states, key=str)  # type: ignore[attr-defined]
    )
    ids = {state: i for i, state in enumerate(states)}
    labels: Dict[object, int] = {}
    edge_labels: List[int] = []
    edge_targets: List[int] = []
    for t in flow.transitions:  # type: ignore[attr-defined]
        edge_labels.append(labels.setdefault(t.message, len(labels)))
        edge_targets.append(ids[t.target])
    return VisibilityIndex.from_edges(
        len(states), tuple(labels), edge_labels, edge_targets,
        states.__getitem__,
    )
