"""Execution and trace utilities shared across the library.

An :class:`~repro.core.flow.Execution` is an alternating sequence of
states and messages (Definition 2).  During post-silicon debug only a
*projection* of the execution's trace is observable: the subsequence of
messages that were selected for tracing.  The helpers here implement
the projection and subsequence algebra used by path localization
(Section 5.2) and the debug engine (Sections 5.6-5.7).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

from repro.core.flow import Execution
from repro.core.message import IndexedMessage, Message, underlying_message


def project_trace(
    trace: Sequence[object], selected: Iterable[Message]
) -> Tuple[object, ...]:
    """The observable subsequence of *trace* through a trace buffer.

    Only messages whose underlying message is in *selected* survive;
    order is preserved.  Indexed labels stay indexed (tagging support in
    the SoC keeps instance indices observable, Section 2).
    """
    wanted: Set[Message] = {underlying_message(m) for m in selected}
    return tuple(m for m in trace if underlying_message(m) in wanted)


def message_names(trace: Sequence[object]) -> Tuple[str, ...]:
    """Human-readable names of a trace, for reports and assertions."""
    names: List[str] = []
    for m in trace:
        if isinstance(m, IndexedMessage):
            names.append(m.name)
        elif isinstance(m, Message):
            names.append(m.name)
        else:
            names.append(str(m))
    return tuple(names)


def validate_execution(flow: object, execution: Execution) -> bool:
    """Whether *execution* is a valid path of *flow*.

    Works for plain flows and interleaved flows: checks the start state
    is initial, the end state is a stop state, and every step is a
    transition of the flow.
    """
    if not execution.states:
        return False
    if execution.states[0] not in flow.initial:  # type: ignore[attr-defined]
        return False
    if execution.states[-1] not in flow.stop:  # type: ignore[attr-defined]
        return False
    for src, msg, dst in zip(
        execution.states, execution.messages, execution.states[1:]
    ):
        if not any(
            t.message == msg and t.target == dst
            for t in flow.outgoing(src)  # type: ignore[attr-defined]
        ):
            return False
    return True
