"""Core formalism of the paper: messages, flows, indexing, interleaving.

This package implements Definitions 1-7 of Pal et al. (DAC 2018):

* :mod:`repro.core.message` -- messages ``<C, w>``, sub-message groups,
  indexed messages and message combinations (Defs. 3 and 6).
* :mod:`repro.core.flow` -- the flow DAG ``<S, S0, Sp, E, delta, Atom>``
  (Def. 1) and executions/traces (Def. 2).
* :mod:`repro.core.indexing` -- indexed flows and legal indexing
  (Defs. 3-4).
* :mod:`repro.core.interleave` -- the interleaving product ``F ||| G``
  with atomic-state mutual exclusion (Def. 5).
* :mod:`repro.core.execution` -- path counting and enumeration over
  flows and interleaved flows.
* :mod:`repro.core.coverage` -- visible states and flow specification
  coverage (Def. 7).
* :mod:`repro.core.information` -- the mutual-information-gain metric
  of Section 3.2.
* :mod:`repro.core.arrays` -- the optional numpy backend switch and the
  whole-array helpers the product build and the localization kernels
  share.
"""

from repro.core.message import (
    Message,
    IndexedMessage,
    MessageCombination,
)
from repro.core.flow import Flow, Transition, Execution
from repro.core.indexing import IndexedFlow, IndexedState, legally_indexed
from repro.core.interleave import InterleavedFlow, interleave
from repro.core.coverage import flow_specification_coverage, visible_states
from repro.core.information import (
    InformationModel,
    mutual_information_gain,
)

__all__ = [
    "Message",
    "IndexedMessage",
    "MessageCombination",
    "Flow",
    "Transition",
    "Execution",
    "IndexedFlow",
    "IndexedState",
    "legally_indexed",
    "InterleavedFlow",
    "interleave",
    "flow_specification_coverage",
    "visible_states",
    "InformationModel",
    "mutual_information_gain",
]
