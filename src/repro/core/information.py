"""Mutual information gain over an interleaved flow (Section 3.2).

The paper associates two random variables with the interleaved flow
``U``:

* ``X`` -- the product state; uniform, ``p(x) = 1/|S|``;
* ``Y`` -- the observed indexed message, ranging over the indexed
  instances of the candidate message combination ``Y'``.

With ``T`` the total number of message occurrences (edges) in ``U`` and
``n(y)`` the occurrences of indexed message ``y``:

* ``p(y)      = n(y) / T``
* ``p(x | y)  = n(x, y) / n(y)`` -- fraction of the occurrences of ``y``
  that lead to state ``x``
* ``p(x, y)   = p(x | y) * p(y)``

and the gain is ``I(X; Y) = sum over x, y of p(x, y) *
ln(p(x, y) / (p(x) p(y)))`` (natural logarithm -- this is what makes the
paper's worked example come out at 1.073).

Because ``p(y)`` is normalized by the *global* occurrence count ``T``
(not by the occurrences of the candidate combination), the double sum
decomposes into **independent per-indexed-message contributions**:

``I(X; Y) = sum over y in Y of c(y)`` with
``c(y) = sum over x of (n(x,y)/T) * ln(|S| * n(x,y) / n(y))``.

:class:`InformationModel` precomputes every ``c(y)`` once per
interleaved flow, making the gain of any candidate combination an O(|Y|)
sum -- and turning Steps 1+2 of the selection method into an exact 0/1
knapsack (see :mod:`repro.selection.selector`).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, Mapping, Tuple

from repro.core.interleave import InterleavedFlow
from repro.core.message import IndexedMessage, Message, MessageCombination


class InformationModel:
    """Precomputed information-gain contributions for one interleaved flow.

    Parameters
    ----------
    interleaved:
        The interleaved flow ``U`` of a usage scenario.

    Notes
    -----
    Construction is O(|transitions|); afterwards
    :meth:`gain` is O(number of indexed messages in the combination).
    """

    def __init__(self, interleaved: InterleavedFlow) -> None:
        self.interleaved = interleaved
        self.num_states = interleaved.num_states
        self.total_occurrences = interleaved.num_transitions
        if self.total_occurrences == 0:
            raise ValueError(
                f"interleaved flow {interleaved.name} has no transitions; "
                "information gain is undefined"
            )
        # n(y) and n(x, y) off the flow's per-message target lists
        # (built for this call, not kept by the flow): target states are
        # integer IDs listed in transition (CSR) order, so the
        # per-target first-encounter order -- which a Counter keeps --
        # and therefore every float-sum order below is identical to a
        # full transition scan
        edge_index = interleaved.edge_target_ids()
        occurrences: Dict[IndexedMessage, int] = {
            y: len(target_ids) for y, target_ids in edge_index.items()
        }
        self._occurrences: Mapping[IndexedMessage, int] = occurrences
        self._contribution: Dict[IndexedMessage, float] = {}
        for y, target_ids in edge_index.items():
            n_y = occurrences[y]
            c = 0.0
            for n_xy in Counter(target_ids).values():
                p_xy = n_xy / self.total_occurrences
                c += p_xy * math.log(self.num_states * n_xy / n_y)
            self._contribution[y] = c
        # indexed instances of each plain message
        self._instances: Dict[Message, Tuple[IndexedMessage, ...]] = {}
        for y in occurrences:
            self._instances.setdefault(y.message, ())
            self._instances[y.message] += (y,)

    # ------------------------------------------------------------------
    def occurrences(self, message: IndexedMessage) -> int:
        """``n(y)`` -- edge count of indexed message *message*."""
        return self._occurrences.get(message, 0)

    def marginal(self, message: IndexedMessage) -> float:
        """``p(y) = n(y) / T``."""
        return self.occurrences(message) / self.total_occurrences

    def contribution(self, message: IndexedMessage) -> float:
        """``c(y)`` -- the additive gain contribution of one indexed
        message (zero if the message never occurs in ``U``)."""
        return self._contribution.get(message, 0.0)

    def message_contribution(self, message: Message) -> float:
        """Summed contribution of every indexed instance of *message*.

        This is the knapsack *value* of the plain message: adding
        *message* to a combination adds exactly this much gain.
        """
        return sum(
            self._contribution[y]
            for y in self._instances.get(message, ())
        )

    def gain(self, combination: Iterable[Message]) -> float:
        """``I(X; Y)`` for the candidate *combination* ``Y'``.

        The random variable ``Y`` ranges over every indexed instance of
        every message of the combination, per Section 3.2.
        """
        # sorted so the float sum has one canonical order: set iteration
        # follows randomized string hashes, and a reordered sum can
        # differ in the last ulp between processes -- enough to flip
        # rank ties downstream and break cross-process reproducibility
        unique = sorted(set(combination))
        return sum(self.message_contribution(m) for m in unique)

    def ranked_messages(self) -> Tuple[Tuple[Message, float], ...]:
        """All plain messages of ``U`` sorted by descending contribution."""
        pairs = [
            (message, self.message_contribution(message))
            for message in self._instances
        ]
        pairs.sort(key=lambda item: (-item[1], item[0].name))
        return tuple(pairs)


def mutual_information_gain(
    interleaved: InterleavedFlow, combination: Iterable[Message]
) -> float:
    """One-shot convenience wrapper around :class:`InformationModel`.

    Prefer constructing a single :class:`InformationModel` when scoring
    many combinations over the same interleaved flow.
    """
    return InformationModel(interleaved).gain(MessageCombination(combination))
