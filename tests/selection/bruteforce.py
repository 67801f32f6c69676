"""Brute-force localization oracle: enumerate paths, never run a DP.

The localization DP (:mod:`repro.selection.kernels`) counts
interleaved-flow paths whose visible projection matches an observation
without enumerating them.  This module computes the same quantities
straight from their definitions, walking the product DAG one path at a
time and sharing no code with the DP, so tests can check every frontier
and count against it.  The work grows with the number of paths: use it
on small products only.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.execution import project_trace
from repro.core.interleave import InterleavedFlow
from repro.core.message import IndexedMessage, Message


def symbol_matches(symbol: object, label: IndexedMessage) -> bool:
    """Whether an observed *symbol* matches edge *label*: an indexed
    symbol names one instance, a plain message matches any instance."""
    if isinstance(symbol, IndexedMessage):
        return label == symbol
    return label.message == symbol


def starts_with(projection: Sequence[IndexedMessage], observed: Sequence[object]) -> bool:
    """Whether *projection* starts with *observed*, symbol by symbol."""
    return len(projection) >= len(observed) and all(
        symbol_matches(symbol, label)
        for symbol, label in zip(observed, projection)
    )


def frontier_maps(
    interleaved: InterleavedFlow,
    visible: Set[Message],
    observed: Sequence[object],
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """The ``(matched, closed)`` frontier maps after *observed*.

    ``closed[s]`` counts the path prefixes from an initial state to
    state ID *s* whose visible projection matches *observed*;
    ``matched[s]`` counts those whose last edge is visible (it consumed
    the newest symbol) -- or, before any symbol, the empty prefix at
    each initial state.  Every prefix whose projection is still a
    prefix of *observed* is walked; the others cannot be extended into
    a match, so the walk stops there.
    """
    offsets, msg_ids, targets = interleaved.csr_adjacency()
    table = interleaved.indexed_messages
    matched: Dict[int, int] = {}
    closed: Dict[int, int] = {}
    # (state ID, symbols consumed, the prefix ends on a visible edge)
    stack = [(sid, 0, True) for sid in interleaved.initial_ids]
    while stack:
        sid, consumed, on_visible = stack.pop()
        if consumed == len(observed):
            closed[sid] = closed.get(sid, 0) + 1
            if on_visible:
                matched[sid] = matched.get(sid, 0) + 1
        for e in range(offsets[sid], offsets[sid + 1]):
            label = table[msg_ids[e]]
            if label.message not in visible:
                stack.append((targets[e], consumed, False))
            elif consumed < len(observed) and symbol_matches(
                observed[consumed], label
            ):
                stack.append((targets[e], consumed + 1, True))
    return matched, closed


def projections(
    interleaved: InterleavedFlow, visible: Set[Message]
) -> List[Tuple[IndexedMessage, ...]]:
    """The visible projection of every complete execution."""
    return [
        project_trace(execution.messages, visible)
        for execution in interleaved.executions()
    ]


def prefix_and_exact_counts(
    paths: Sequence[Sequence[IndexedMessage]], observed: Sequence[object]
) -> Tuple[int, int]:
    """Executions whose projection starts with / equals *observed*."""
    prefix = [p for p in paths if starts_with(p, observed)]
    return len(prefix), sum(1 for p in prefix if len(p) == len(observed))


def window_count(
    paths: Sequence[Sequence[IndexedMessage]],
    window: Sequence[IndexedMessage],
) -> int:
    """Executions whose projection contains *window* as a contiguous
    run."""
    window = tuple(window)
    return sum(
        1
        for p in paths
        if any(
            tuple(p[i:i + len(window)]) == window
            for i in range(len(p) - len(window) + 1)
        )
    )
