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
knapsack (see :mod:`repro.selection.selector`).  It counts ``n(y)`` and
``n(x, y)`` on whole arrays when numpy is there, and with a loop over
per-message target lists otherwise; both sum every ``c(y)`` in the same
order, so the floats agree bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, Mapping, Tuple

from repro.core.arrays import have_numpy, np, sorted_unique, view
from repro.core.interleave import InterleavedFlow
from repro.core.message import IndexedMessage, Message, MessageCombination

#: The array route runs only while ``|S| * T`` stays below this bound:
#: every integer it converts to float64 is then exact.  Larger products
#: take the exact loop.
_FLOAT_EXACT = 1 << 53


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
        # both routes give the same floats, bit for bit and in the
        # same key order; the array one needs T and every |S| * n(x, y)
        # exact in float64 (n(x, y) <= T), so that its IEEE quotients
        # are the correctly rounded ones Python's int division gives
        if (
            have_numpy()
            and self.num_states * self.total_occurrences < _FLOAT_EXACT
        ):
            occurrences, contributions = _contributions_numpy(interleaved)
        else:
            occurrences, contributions = _contributions_python(interleaved)
        self._occurrences: Mapping[IndexedMessage, int] = occurrences
        self._contribution: Dict[IndexedMessage, float] = contributions
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


def _contributions_python(
    interleaved: InterleavedFlow,
) -> Tuple[Dict[IndexedMessage, int], Dict[IndexedMessage, float]]:
    """``n(y)`` and ``c(y)`` of every indexed message, keyed in
    first-encounter order, off the flow's per-message target lists
    (built for this call, not kept by the flow).  Target states are
    integer IDs listed in transition (CSR) order, so the per-target
    first-encounter order -- which a Counter keeps -- and therefore
    every float-sum order is identical to a full transition scan."""
    num_states = interleaved.num_states
    total = interleaved.num_transitions
    occurrences: Dict[IndexedMessage, int] = {}
    contributions: Dict[IndexedMessage, float] = {}
    for y, target_ids in interleaved.edge_target_ids().items():
        n_y = occurrences[y] = len(target_ids)
        c = 0.0
        for n_xy in Counter(target_ids).values():
            p_xy = n_xy / total
            c += p_xy * math.log(num_states * n_xy / n_y)
        contributions[y] = c
    return occurrences, contributions


def _contributions_numpy(
    interleaved: InterleavedFlow,
) -> Tuple[Dict[IndexedMessage, int], Dict[IndexedMessage, float]]:
    """:func:`_contributions_python` on whole arrays, float for float.

    One sort of the ``message * |S| + target`` keys counts every
    ``n(x, y)`` and finds its first edge (the smallest edge index of
    its run of equal keys); each message's pairs then run in
    first-encounter (Counter) order, ``math.log`` -- not ``np.log``,
    which may round differently -- is taken once per distinct ratio,
    and each ``c(y)`` is the last element of a sequential
    ``np.cumsum`` of its terms: the loop's own additions, in its order.
    Needs ``|S| * T`` below :data:`_FLOAT_EXACT`.

    The CSR tables are read in their stored widths and the keys widened
    to int64 before the multiply.  Each edge-length intermediate is
    dropped as soon as it has been used: this stage's peak is the cold
    start's highest before the table compile (about 40 traced bytes an
    edge on sc3x2)."""
    num_states = interleaved.num_states
    total = interleaved.num_transitions
    _, messages, targets = map(view, interleaved.csr_adjacency())
    n_y = np.bincount(messages)
    keys = messages.astype(np.int64)
    keys *= num_states
    keys += targets
    edges = np.argsort(keys)
    keys = keys[edges]
    heads = np.ones(total, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=heads[1:])
    heads = np.flatnonzero(heads)
    mids = keys[heads] // num_states  # ascending
    del keys
    first = np.minimum.reduceat(edges, heads)
    del edges
    n_xy = np.diff(heads, append=total)
    del heads
    # each message's pairs by first edge; the narrowest dtype that holds
    # the message IDs lets the stable sort by message run as a radix sort
    mids = mids.astype(np.min_scalar_type(mids[-1]))
    order = np.lexsort((first, mids))
    mids = mids[order]
    first = first[order]
    n_xy = n_xy[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], mids[1:] != mids[:-1])))
    # messages by their first edge: the loop's key order
    by_first = np.argsort(first[starts]).tolist()
    del first
    ratios = (n_xy * num_states).astype(np.float64)
    ratios /= n_y[mids]
    distinct = sorted_unique(ratios)
    logs = np.array([math.log(ratio) for ratio in distinct.tolist()])
    terms = n_xy / total
    del n_xy
    terms *= logs[np.searchsorted(distinct, ratios)]
    del ratios, distinct, logs
    bounds = [*starts.tolist(), mids.size]
    occurrences: Dict[IndexedMessage, int] = {}
    contributions: Dict[IndexedMessage, float] = {}
    for k in by_first:
        mid = int(mids[bounds[k]])
        y = interleaved.message_at(mid)
        occurrences[y] = int(n_y[mid])
        contributions[y] = np.cumsum(terms[bounds[k]:bounds[k + 1]])[-1].item()
    return occurrences, contributions


def mutual_information_gain(
    interleaved: InterleavedFlow, combination: Iterable[Message]
) -> float:
    """One-shot convenience wrapper around :class:`InformationModel`.

    Prefer constructing a single :class:`InformationModel` when scoring
    many combinations over the same interleaved flow.
    """
    return InformationModel(interleaved).gain(MessageCombination(combination))
