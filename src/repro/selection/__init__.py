"""The three-step trace message selection method (Section 3).

* :mod:`repro.selection.combinations` -- Step 1: enumerate message
  combinations that fit the trace buffer width.
* :mod:`repro.selection.selector` -- Step 2: pick the combination with
  the highest mutual information gain (exhaustive search and the exact
  knapsack equivalent); end-to-end :class:`MessageSelector`.
* :mod:`repro.selection.packing` -- Step 3: pack leftover buffer bits
  with sub-message groups.
* :mod:`repro.selection.localization` -- path localization of observed
  traces (Section 5.2).
* :mod:`repro.selection.kernels` -- the localization DP kernels:
  compiled transition operators, the invisible-closure matrix, and the
  content-addressed table registry shared across sessions and shards.
"""

from repro.selection.combinations import feasible_combinations
from repro.selection.selector import MessageSelector, SelectionResult, select_messages
from repro.selection.packing import pack_trace_buffer, PackingResult
from repro.selection.localization import (
    AdvanceOutcome,
    LocalizationResult,
    PathLocalizer,
)
from repro.selection.kernels import (
    CompiledTables,
    TableRegistry,
    default_registry,
)

__all__ = [
    "feasible_combinations",
    "MessageSelector",
    "SelectionResult",
    "select_messages",
    "pack_trace_buffer",
    "PackingResult",
    "PathLocalizer",
    "LocalizationResult",
    "AdvanceOutcome",
    "CompiledTables",
    "TableRegistry",
    "default_registry",
]
