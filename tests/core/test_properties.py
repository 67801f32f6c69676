"""Property-based tests (hypothesis) for the core invariants.

These pin the structural guarantees DESIGN.md calls out:

* the interleaving product is a DAG with no doubly-atomic state,
* component projections of interleaved executions are valid component
  executions,
* information gain is additive across disjoint combinations and
  monotone under supersets,
* the knapsack selector matches the exhaustive selector's gain,
* coverage lies in [0, 1] and is monotone,
* sampled executions always localize to at least one path.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.coverage import flow_specification_coverage
from repro.core.execution import project_trace, validate_execution
from repro.core.information import InformationModel
from repro.core.message import MessageCombination
from repro.selection.localization import PathLocalizer
from repro.selection.selector import MessageSelector
from tests.strategies import scenarios


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_product_is_dag_and_atomic_mutex(u):
    order = u.topological_order()  # raises if cyclic
    assert len(order) == u.num_states
    atom_names = {s for c in u.components for s in c.atomic}
    for state in u.states:
        atomic_here = sum(1 for s in state if s in atom_names)
        assert atomic_here <= 1


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_projection_validity(u, seed):
    rng = random.Random(seed)
    execution = u.random_execution(rng)
    assert validate_execution(u, execution)
    for component in u.components:
        local = u.project(execution, component)
        assert component.flow.is_execution(local)


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_gain_additive_and_monotone(u):
    model = InformationModel(u)
    msgs = sorted(u.messages)
    half = len(msgs) // 2
    left = MessageCombination(msgs[:half])
    right = MessageCombination(msgs[half:])
    assert model.gain(left) + model.gain(right) == _approx(
        model.gain(MessageCombination(msgs))
    )
    assert model.gain(MessageCombination(msgs)) >= model.gain(left) - 1e-12


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_coverage_bounds_and_monotonicity(u):
    msgs = sorted(u.messages)
    running = []
    previous = 0.0
    for m in msgs:
        running.append(m)
        coverage = flow_specification_coverage(u, running)
        assert 0.0 <= coverage <= 1.0
        assert coverage >= previous - 1e-12
        previous = coverage


@settings(max_examples=25, deadline=None)
@given(scenarios(), st.integers(min_value=1, max_value=20))
def test_knapsack_matches_exhaustive(u, buffer_width):
    pool = [m for m in u.messages if m.width <= buffer_width]
    if not pool:
        return
    selector = MessageSelector(u, buffer_width)
    exhaustive = selector.select(method="exhaustive", packing=False)
    knapsack = selector.select(method="knapsack", packing=False)
    assert knapsack.gain == _approx(exhaustive.gain)
    assert knapsack.total_width <= buffer_width
    assert exhaustive.total_width <= buffer_width


@settings(max_examples=30, deadline=None)
@given(scenarios(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_sampled_execution_always_localizes(u, seed):
    rng = random.Random(seed)
    execution = u.random_execution(rng)
    msgs = sorted(u.messages)
    traced = MessageCombination(msgs[: max(1, len(msgs) // 2)])
    localizer = PathLocalizer(u, traced)
    observed = project_trace(execution.messages, traced)
    result = localizer.localize(observed, mode="exact")
    assert result.consistent_paths >= 1
    assert result.consistent_paths <= result.total_paths
    prefix = localizer.localize(observed, mode="prefix")
    assert prefix.consistent_paths >= result.consistent_paths


def _approx(value: float):
    import pytest

    return pytest.approx(value, rel=1e-9, abs=1e-9)
