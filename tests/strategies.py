"""Hypothesis strategies shared by the property-based test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.flow import linear_flow
from repro.core.indexing import index_flows
from repro.core.interleave import interleave
from repro.core.message import Message


@st.composite
def linear_flows(draw, name_prefix: str = "F"):
    """A random linear flow: 2-5 states, random widths, optional atomics."""
    suffix = draw(st.integers(min_value=0, max_value=10 ** 6))
    length = draw(st.integers(min_value=1, max_value=4))
    widths = draw(
        st.lists(
            st.integers(min_value=1, max_value=8),
            min_size=length,
            max_size=length,
        )
    )
    states = [f"{name_prefix}{suffix}_s{i}" for i in range(length + 1)]
    messages = [
        Message(f"{name_prefix}{suffix}_m{i}", w) for i, w in enumerate(widths)
    ]
    # atomic states: any subset of the interior states
    interior = states[1:-1]
    atomic = [
        s for s in interior if draw(st.booleans())
    ]
    return linear_flow(f"{name_prefix}{suffix}", states, messages, atomic=atomic)


@st.composite
def scenarios(draw):
    """1-3 distinct random flows, each with 1-2 instances."""
    count = draw(st.integers(min_value=1, max_value=3))
    flows = [draw(linear_flows(name_prefix=f"F{i}_")) for i in range(count)]
    expanded = []
    for flow in flows:
        copies = draw(st.integers(min_value=1, max_value=2))
        expanded.extend([flow] * copies)
    return interleave(index_flows(expanded))
