"""Definition 5, literally: an independent oracle for ``interleave()``.

A breadth-first search over tuples of :class:`IndexedState` objects,
straight from the definition: component ``j`` takes one of its local
transitions only while every *other* component is outside its atomic
set (rules i/ii).  No codes, no IDs, no interning -- states are the
tuples themselves and edges are sorted by the objects' own order.  It
shares no code with :mod:`repro.core.interleave`; use it on small
products only.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, FrozenSet, List, Sequence, Set, Tuple

from repro.core.indexing import IndexedFlow, IndexedState
from repro.core.message import IndexedMessage

ProductState = Tuple[IndexedState, ...]
Edge = Tuple[ProductState, IndexedMessage, ProductState]


def reference_product(
    instances: Sequence[IndexedFlow],
) -> Tuple[
    FrozenSet[ProductState],
    FrozenSet[ProductState],
    FrozenSet[ProductState],
    Tuple[Edge, ...],
]:
    """``(states, initial, stop, edges)`` of the reachable product,
    with ``edges`` sorted as ``(source, message, target)`` tuples."""
    atomic = [frozenset(inst.atomic) for inst in instances]
    stop = [frozenset(inst.stop) for inst in instances]
    initial = frozenset(
        itertools.product(*(inst.initial for inst in instances))
    )
    states: Set[ProductState] = set(initial)
    queue: Deque[ProductState] = deque(initial)
    edges: List[Edge] = []
    while queue:
        state = queue.popleft()
        for j, inst in enumerate(instances):
            others_atomic = any(
                state[i] in atomic[i] for i in range(len(instances)) if i != j
            )
            if others_atomic:
                continue
            for message, local_target in inst.outgoing(state[j]):
                target = state[:j] + (local_target,) + state[j + 1:]
                edges.append((state, message, target))
                if target not in states:
                    states.add(target)
                    queue.append(target)
    stops = frozenset(
        s for s in states if all(s[i] in stop[i] for i in range(len(s)))
    )
    return frozenset(states), initial, stops, tuple(sorted(edges))
