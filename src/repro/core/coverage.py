"""Flow specification coverage (Definition 7).

Every transition of a flow is labelled with a message.  For a message,
the *visible states* are the flow states reached on transitions carrying
it.  The *flow specification coverage* of a message combination is the
fraction of all flow states that are visible through at least one of
its messages.

The functions below are polymorphic over plain :class:`~repro.core.flow.Flow`
objects (labels are :class:`~repro.core.message.Message`) and
:class:`~repro.core.interleave.InterleavedFlow` objects (labels are
:class:`~repro.core.message.IndexedMessage`); an un-indexed message in
the combination covers every indexed instance of itself, exactly as in
the worked example of Section 3.3 (coverage of ``{ReqE, GntE}`` over the
two-instance interleaving is 11/15 = 0.7333).

:func:`visible_states` is the *reference* implementation: a full
O(|delta|) transition scan per query.  :func:`flow_specification_coverage`
takes the fast path when the flow exposes a ``visibility_index()`` (both
``Flow`` and ``InterleavedFlow`` do): an O(|combination|) OR of
precomputed per-message bitsets plus one popcount
(:mod:`repro.core.visibility`) -- bit-identical to the reference, which
the property tests in ``tests/core/test_visibility.py`` enforce on
randomized flows.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Set

from repro import perf
from repro.core.message import Message, underlying_message


def visible_states(flow: object, messages: Iterable[Message]) -> Set[Hashable]:
    """States of *flow* reached on transitions labelled by *messages*.

    Parameters
    ----------
    flow:
        A :class:`Flow` or :class:`InterleavedFlow` (anything exposing a
        ``transitions`` iterable of labelled edges).
    messages:
        Plain (un-indexed) messages; indexed labels in the flow match on
        their underlying message.  A *sub-group* message (one with a
        ``parent``) makes its parent's transitions visible: observing
        ``cputhreadid`` timestamps the enclosing ``dmusiidata`` message.
    """
    wanted = {underlying_message(m) for m in messages}
    wanted_parents = {m.parent for m in wanted if m.parent is not None}
    visible: Set[Hashable] = set()
    for t in flow.transitions:  # type: ignore[attr-defined]
        label = underlying_message(t.message)
        if label in wanted or label.name in wanted_parents:
            visible.add(t.target)
    return visible


def flow_specification_coverage(
    flow: object, messages: Iterable[Message]
) -> float:
    """Definition 7: ``|visible states| / |S|`` of *flow* for *messages*.

    Uses the flow's precomputed visibility bitsets when available
    (O(|messages|) instead of a full transition scan); the result is
    bit-identical either way (an integer count divided by ``|S|``).
    """
    total = flow.num_states  # type: ignore[attr-defined]
    if total == 0:
        raise ValueError("flow has no states")
    index_builder = getattr(flow, "visibility_index", None)
    if index_builder is not None:
        index = index_builder()
        unique = set(messages)
        if perf.enabled():
            perf.add("coverage_bitset_ors", len(unique))
            perf.add("coverage_queries", 1)
        return index.visible_count(unique) / total
    return len(visible_states(flow, messages)) / total
