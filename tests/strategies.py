"""Hypothesis strategies shared by the property-based test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.flow import Flow, linear_flow
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


@st.composite
def dag_flows(draw, name_prefix: str = "D"):
    """A random DAG flow that can branch, re-join and have no edges.

    1-4 states in a fixed topological order; every forward pair of
    states may carry an edge, labelled from a pool of 1-3 messages (so
    one message can label several edges, even two edges out of one
    state).  Initial, stop and atomic states are random subsets within
    the rules of Definition 1.
    """
    suffix = draw(st.integers(min_value=0, max_value=10 ** 6))
    size = draw(st.integers(min_value=1, max_value=4))
    states = [f"{name_prefix}{suffix}_s{i}" for i in range(size)]
    pool = [
        Message(f"{name_prefix}{suffix}_m{i}", draw(st.integers(1, 8)))
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    transitions = [
        (states[i], draw(st.sampled_from(pool)), states[j])
        for i in range(size)
        for j in range(i + 1, size)
        if draw(st.booleans())
    ]
    initial = [states[0]] + [s for s in states[1:] if draw(st.booleans())]
    stop = [states[-1]] + [s for s in states[:-1] if draw(st.booleans())]
    # atomic: a proper subset of the non-stop states
    atomic = [
        s for s in states if s not in stop and draw(st.booleans())
    ]
    return Flow(
        f"{name_prefix}{suffix}", states, initial, stop, transitions,
        atomic=atomic,
    )


@st.composite
def dag_scenarios(draw):
    """1-3 instances drawn from 1-2 distinct random DAG flows."""
    flows = [
        draw(dag_flows(name_prefix=f"D{i}_"))
        for i in range(draw(st.integers(min_value=1, max_value=2)))
    ]
    instances = draw(
        st.lists(st.sampled_from(flows), min_size=1, max_size=3)
    )
    return interleave(index_flows(instances))
