"""The interleaving product of legally indexed flows (Definition 5).

``interleave(instances)`` constructs the n-ary generalization of the
paper's binary operator ``F ||| G``:

* product states are tuples of component :class:`IndexedState`\\ s,
* a component may take one of its transitions only while **every other
  component is outside its atomic set** (rules i/ii of Definition 5),
* consequently no reachable product state ever has two components in
  their atomic states simultaneously -- e.g. state ``(c1, c2)`` of the
  running example is unreachable.

Only the reachable part of the product is materialized (sparse, BFS
from the initial product states), which is what keeps the construction
tractable for multi-flow usage scenarios.

The product is built and stored on integer *state codes*.  Each
component ranks its local states in sort order, and a product state's
code is the mixed-radix number whose digits are those ranks, component
0 most significant -- so integer order is tuple sort order, and a
component move is one precomputed addition.  Dense state IDs are the
positions of the reachable codes in ascending order, message IDs
follow the indexed messages' sort order, and the transition relation
is three flat CSR tables.  Every integer table is an ``array`` in the
narrowest width its range needs (:func:`repro.core.arrays.narrowest`):
the codes by the code span, the CSR offsets by the edge count, the
edge messages by the message count and the edge targets by the state
count, so the sc3x2 CSR takes 3 bytes an edge.  The hot
consumers -- the information model, coverage bitsets, and the
localization DP -- read those integers directly; the tuple/dataclass
views (``states``, ``transitions``, ``outgoing`` ...) are decoded from
them on first use.
"""

from __future__ import annotations

import itertools
import random
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import perf
from repro.core.arrays import (
    expand_runs,
    have_numpy,
    height_levels,
    height_levels_python,
    narrowest,
    np,
    sorted_unique,
    table,
    table_bytes,
    view,
)
from repro.core.flow import Execution, Flow
from repro.core.indexing import (
    IndexedFlow,
    IndexedState,
    check_legally_indexed,
    index_flows,
)
from repro.core.message import IndexedMessage, Message, MessageCombination
from repro.core.visibility import VisibilityIndex
from repro.errors import InterleavingError

ProductState = Tuple[IndexedState, ...]

#: An integer table: an ``array`` of the narrowest width that holds its
#: range, or a list of exact ints past int64
#: (:func:`repro.core.arrays.table`).
Table = Union[array, List[int]]

#: Tag of the pickled layout; :meth:`InterleavedFlow.__setstate__`
#: refuses anything else, so a cache entry written by another layout
#: fails to load (and is recomputed) instead of loading half-formed.
_PICKLE_FORMAT = "interleaved-flow/exact-width-1"

#: The array product build packs every edge into one int64 key; it
#: runs only while the largest key, ``M * span**2 - 1``, stays below
#: this bound.  Larger products take the exact Python-int route.
_KEY_BOUND = 1 << 62

#: The array path count runs in int64 only while a float64 pass puts
#: every count below this bound; float64 rounding stays far inside the
#: factor-two margin to int64.  Larger counts take the exact big-int
#: route.
_COUNT_BOUND = float(1 << 62)

#: Below this bound the float64 pass's counts are exact already (every
#: partial sum is at most its count), so no int64 pass runs.
_FLOAT_EXACT = float(1 << 53)


@dataclass(frozen=True, order=True)
class InterleavedTransition:
    """One edge of the interleaved flow: ``src --<i:msg>--> dst``."""

    source: ProductState
    message: IndexedMessage
    target: ProductState

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        src = "(" + ",".join(s.name for s in self.source) + ")"
        dst = "(" + ",".join(s.name for s in self.target) + ")"
        return f"{src} --{self.message.name}--> {dst}"


class InterleavedFlow:
    """Reachable interleaving product ``U = F1 ||| F2 ||| ... ||| Fn``.

    Instances are built with :func:`interleave`; the constructor is
    internal.  The object exposes everything the selection machinery
    needs:

    * ``states`` / ``initial`` / ``stop`` / ``transitions`` -- the
      product automaton,
    * ``outgoing(state)`` -- adjacency,
    * ``message_occurrences`` -- how often each indexed message labels
      an edge (the marginal ``p(y)`` numerator of Section 3.2),
    * ``count_paths()`` -- number of executions (used as the
      denominator of path localization, Section 5.2),
    * ``executions()`` / ``random_execution()`` -- path enumeration and
      sampling,

    plus the integer-level view the hot paths run on:

    * ``state_id`` / ``state_at`` and ``message_id`` / ``message_at``
      -- the interned tables (IDs follow sort order),
    * ``initial_ids`` / ``stop_ids`` / ``csr_adjacency()`` -- the
      product automaton over IDs (``nbytes`` is what its tables hold),
    * ``paths_to_stop_ids()`` / ``accepted_ids()`` -- the path-count
      DP (the latter through an automaton), indexed by state ID, and
      ``height_levels()`` / ``topological_ids()`` -- its schedules,
    * ``visibility_index()`` -- per-message coverage bitsets
      (:mod:`repro.core.visibility`).

    Only the integer tables are stored (and pickled); every object
    view is built, and cached, the first time something reads it.
    """

    def __init__(
        self,
        components: Sequence[IndexedFlow],
        local_states: Tuple[Tuple[IndexedState, ...], ...],
        codes: Table,
        message_table: Tuple[IndexedMessage, ...],
        offsets: array,
        messages: array,
        targets: array,
        initial_ids: Tuple[int, ...],
        stop_ids: Tuple[int, ...],
    ) -> None:
        # the stored tables: per-component local states in rank order,
        # the reachable state codes ascending (state ID = position),
        # the message table, and the CSR adjacency (edges of state
        # ``i`` at ``offsets[i]:offsets[i + 1]``, by message then
        # target), each table in its narrowest width
        self._components = tuple(components)
        self._local_states = local_states
        self._codes = codes
        self._message_table = message_table
        self._offsets = offsets
        self._messages = messages
        self._targets = targets
        self._initial_ids = initial_ids
        self._stop_ids = frozenset(stop_ids)
        # derived lookups
        sizes = [len(local) for local in local_states]
        self._digits = tuple(zip(local_states, _places(sizes), sizes))
        self._ranks = tuple(
            {state: rank for rank, state in enumerate(local)}
            for local in local_states
        )
        self._message_ids = {m: i for i, m in enumerate(message_table)}
        # lazy caches, never pickled
        self._state_table: Optional[Tuple[ProductState, ...]] = None
        self._states: Optional[FrozenSet[ProductState]] = None
        self._initial: Optional[FrozenSet[ProductState]] = None
        self._stop: Optional[FrozenSet[ProductState]] = None
        self._transitions: Optional[Tuple[InterleavedTransition, ...]] = None
        self._outgoing_cache: Dict[ProductState, Tuple[InterleavedTransition, ...]] = {}
        self._paths_to_stop: Optional[Dict[ProductState, int]] = None
        self._paths_to_stop_ids: Optional[Table] = None
        self._largest_count = 0
        self._topological_ids: Optional[List[int]] = None
        self._levels: Optional[list] = None
        self._message_occurrences: Optional[Dict[IndexedMessage, int]] = None
        self._visibility: Optional[VisibilityIndex] = None
        self._messages_set: Optional[MessageCombination] = None

    def __getstate__(self) -> tuple:
        return (
            _PICKLE_FORMAT,
            self._components,
            self._local_states,
            self._codes,
            self._message_table,
            self._offsets,
            self._messages,
            self._targets,
            self._initial_ids,
            tuple(sorted(self._stop_ids)),
        )

    def __setstate__(self, state: object) -> None:
        if not (
            isinstance(state, tuple)
            and len(state) == 10
            and state[0] == _PICKLE_FORMAT
        ):
            raise InterleavingError(
                "unsupported pickled InterleavedFlow layout (expected "
                f"{_PICKLE_FORMAT!r}); rebuild the product with interleave()"
            )
        InterleavedFlow.__init__(self, *state[1:])

    # ------------------------------------------------------------------
    # interned integer view
    # ------------------------------------------------------------------
    def state_id(self, state: ProductState) -> int:
        """Dense ID of *state* (IDs follow the states' sort order);
        ``KeyError`` if *state* is not a reachable product state."""
        sid = self._find(state)
        if sid is None:
            raise KeyError(state)
        return sid

    def _find(self, state: object) -> Optional[int]:
        """ID of *state*, or ``None``: encode it, then binary-search
        the ascending code table."""
        if not isinstance(state, tuple) or len(state) != len(self._ranks):
            return None
        code = 0
        for ranks, (_, place, _), local in zip(
            self._ranks, self._digits, state
        ):
            rank = ranks.get(local)
            if rank is None:
                return None
            code += rank * place
        return _code_id(self._codes, code)

    def state_at(self, state_id: int) -> ProductState:
        """The product state with ID *state_id* (decoded from its code
        unless the state table is already built)."""
        if self._state_table is not None:
            return self._state_table[state_id]
        code = self._codes[state_id]
        return tuple(
            local[code // place % size] for local, place, size in self._digits
        )

    def message_id(self, message: IndexedMessage) -> Optional[int]:
        """Dense ID of an indexed message, or ``None`` when it labels
        no edge of the product."""
        return self._message_ids.get(message)

    def message_at(self, message_id: int) -> IndexedMessage:
        """The indexed message interned at *message_id*."""
        return self._message_table[message_id]

    @property
    def initial_ids(self) -> Tuple[int, ...]:
        """IDs of the initial product states, ascending."""
        return self._initial_ids

    @property
    def stop_ids(self) -> FrozenSet[int]:
        """IDs of the stop product states."""
        return self._stop_ids

    def csr_adjacency(self) -> Tuple[array, array, array]:
        """The transition relation as ``(offsets, message_ids,
        target_ids)`` CSR ``array`` tables, each in its narrowest width
        (edges of state ``i`` live at ``offsets[i]:offsets[i + 1]``,
        sorted by message then target)."""
        return self._offsets, self._messages, self._targets

    @property
    def nbytes(self) -> int:
        """Bytes the stored integer tables hold: the state codes and the
        three CSR tables."""
        return sum(
            map(
                table_bytes,
                (self._codes, self._offsets, self._messages, self._targets),
            )
        )

    def _table(self) -> Tuple[ProductState, ...]:
        """Every product state, in ID order (decoded once)."""
        if self._state_table is None:
            self._state_table = tuple(
                self.state_at(i) for i in range(len(self._codes))
            )
        return self._state_table

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def components(self) -> Tuple[IndexedFlow, ...]:
        return self._components

    @property
    def states(self) -> FrozenSet[ProductState]:
        """The reachable product states."""
        if self._states is None:
            self._states = frozenset(self._table())
        return self._states

    @property
    def initial(self) -> FrozenSet[ProductState]:
        if self._initial is None:
            self._initial = frozenset(map(self.state_at, self._initial_ids))
        return self._initial

    @property
    def stop(self) -> FrozenSet[ProductState]:
        if self._stop is None:
            self._stop = frozenset(map(self.state_at, self._stop_ids))
        return self._stop

    @property
    def transitions(self) -> Tuple[InterleavedTransition, ...]:
        """Every edge, sorted (source, message, target) -- CSR order."""
        if self._transitions is None:
            table = self._table()
            messages = self._message_table
            offsets, msg_ids, targets = self.csr_adjacency()
            self._transitions = tuple(
                InterleavedTransition(
                    table[sid], messages[msg_ids[e]], table[targets[e]]
                )
                for sid in range(len(table))
                for e in range(offsets[sid], offsets[sid + 1])
            )
        return self._transitions

    @property
    def name(self) -> str:
        return " ||| ".join(c.name for c in self._components)

    @property
    def num_states(self) -> int:
        return len(self._codes)

    @property
    def num_transitions(self) -> int:
        return len(self._targets)

    @property
    def messages(self) -> MessageCombination:
        """The (un-indexed) message set ``E = union of component E_i``."""
        if self._messages_set is None:
            self._messages_set = MessageCombination(
                m for c in self._components for m in c.flow.messages
            )
        return self._messages_set

    @property
    def indexed_messages(self) -> Tuple[IndexedMessage, ...]:
        """Every indexed message labelling at least one edge (the
        interned message table -- already sorted)."""
        return self._message_table

    def indices_of(self, message: Message) -> Tuple[int, ...]:
        """Instance indices under which *message* occurs in the product."""
        return tuple(
            sorted(
                {
                    m.index
                    for m in self._message_table
                    if m.message == message
                }
            )
        )

    def outgoing(self, state: ProductState) -> Tuple[InterleavedTransition, ...]:
        cached = self._outgoing_cache.get(state)
        if cached is None:
            sid = self._find(state)
            if sid is None:
                return ()
            offsets, msg_ids, targets = self.csr_adjacency()
            cached = tuple(
                InterleavedTransition(
                    state,
                    self._message_table[msg_ids[e]],
                    self.state_at(targets[e]),
                )
                for e in range(offsets[sid], offsets[sid + 1])
            )
            self._outgoing_cache[state] = cached
        return cached

    @property
    def message_occurrences(self) -> Dict[IndexedMessage, int]:
        """Edge count per indexed message over the whole product
        (counted once; the returned dict is a fresh copy)."""
        if self._message_occurrences is None:
            table = self._message_table
            self._message_occurrences = {
                table[mid]: count
                for mid, count in Counter(self._messages).items()
            }
        return dict(self._message_occurrences)

    def destinations(self, message: IndexedMessage) -> List[ProductState]:
        """Target states of every edge labelled *message* (with
        multiplicity, in CSR order), scanned from the CSR arrays."""
        mid = self._message_ids.get(message)
        return [
            self.state_at(target_id)
            for m, target_id in zip(self._messages, self._targets)
            if m == mid
        ]

    def edge_target_ids(self) -> Dict[IndexedMessage, List[int]]:
        """Per-message target-ID lists, in CSR (= ``transitions``)
        order, built from the CSR arrays on every call and not kept.

        Keys appear in first-encounter order and target multiplicity
        is preserved, which is what keeps the information model's
        float-sum order identical to a full scan of ``transitions``.
        """
        table = self._message_table
        buckets: List[List[int]] = [[] for _ in table]
        for mid, target_id in zip(self._messages, self._targets):
            buckets[mid].append(target_id)
        return {
            table[mid]: buckets[mid] for mid in dict.fromkeys(self._messages)
        }

    def visibility_index(self) -> VisibilityIndex:
        """Per-message coverage bitsets over interned state IDs
        (built once, straight from the CSR arrays)."""
        if self._visibility is None:
            with perf.timed("visibility_index"):
                self._visibility = VisibilityIndex.from_edges(
                    self.num_states,
                    self._message_table,
                    self._messages,
                    self._targets,
                    self.state_at,
                )
            perf.add("visibility_bitsets_built", 1)
        return self._visibility

    # ------------------------------------------------------------------
    # paths / executions
    # ------------------------------------------------------------------
    def topological_ids(self) -> List[int]:
        """State IDs in a (deterministic) topological order of the
        product DAG -- Kahn's algorithm over the CSR arrays."""
        if self._topological_ids is None:
            offsets, _, targets = self.csr_adjacency()
            n = self.num_states
            indegree = [0] * n
            for target_id in targets:
                indegree[target_id] += 1
            ready = [i for i in range(n) if indegree[i] == 0]
            order: List[int] = []
            while ready:
                state_id = ready.pop()
                order.append(state_id)
                for e in range(offsets[state_id], offsets[state_id + 1]):
                    target_id = targets[e]
                    indegree[target_id] -= 1
                    if indegree[target_id] == 0:
                        ready.append(target_id)
            if len(order) != n:
                raise InterleavingError("interleaved flow is not a DAG")
            self._topological_ids = order
        return self._topological_ids

    def topological_order(self) -> List[ProductState]:
        """Reachable product states in topological order."""
        return [self.state_at(i) for i in self.topological_ids()]

    def height_levels(self) -> list:
        """State IDs grouped by their longest path to a state without
        successors, over every edge (memoised): a state's successors
        all sit on lower levels, so the longest path has
        ``len(levels) - 1`` edges.  Arrays in the state IDs' width on
        numpy (:func:`repro.core.arrays.height_levels`; read them as
        index arrays, or widen them before arithmetic), lists from the
        topological order otherwise."""
        if self._levels is None:
            if have_numpy():
                levels = height_levels(
                    view(self._offsets), view(self._targets)
                )
                if sum(level.size for level in levels) != self.num_states:
                    raise InterleavingError("interleaved flow is not a DAG")
                code = narrowest(self.num_states - 1)
                levels = [level.astype(code) for level in levels]
            else:
                levels = height_levels_python(
                    self.topological_ids(), self._offsets, self._targets
                )
            self._levels = levels
        return self._levels

    def paths_to_stop_ids(self) -> Table:
        """Paths-to-stop counts as a table indexed by state ID
        (memoised): :meth:`accepted_ids` for the one-state automaton,
        in the narrowest width that holds the largest count -- an
        ``array``, or a list of exact ints past int64.

        With numpy a float64 pass bounds the counts first.  Below
        :data:`_FLOAT_EXACT` its counts are exact and are kept; below
        :data:`_COUNT_BOUND` an int64 pass recounts them; larger counts
        take the exact big-int route.
        """
        if self._paths_to_stop_ids is None:
            with perf.timed("paths_to_stop"):
                step = [(0,)] * len(self._message_table)
                counts = self._stop_counts_numpy(step) if have_numpy() else None
                if counts is None:
                    counts = self._accepted(step, 1, False)
                    self._largest_count = max(counts, default=0)
                else:
                    self._largest_count = int(counts.max(initial=0))
                self._paths_to_stop_ids = table(counts, self._largest_count)
        return self._paths_to_stop_ids

    def _stop_counts_numpy(self, step):
        """The stop-path counts as an int64 array, or ``None`` when one
        reaches :data:`_COUNT_BOUND` (the caller then counts exactly)."""
        counts = self._level_counts(step, 1, np.float64)[:, 0]
        largest = counts.max(initial=0.0)
        if largest < _FLOAT_EXACT:
            return counts.astype(np.int64)
        if largest < _COUNT_BOUND:
            return self._level_counts(step, 1, np.int64)[:, 0]
        return None

    def accepted_ids(
        self, step: Sequence[Sequence[int]], states: int
    ) -> List[int]:
        """Per state ID, the paths to a stop state that drive a
        deterministic automaton from its state 0 into its last state.

        The automaton has *states* states; ``step[m][k]`` is the state
        message ID ``m`` moves state ``k`` to, and the last state
        absorbs.  The table holds one column per automaton state; on
        numpy it fills level by level over :meth:`height_levels`.
        Every entry counts some of its state's paths to stop, so int64
        is exact while the largest path count stays below
        :data:`_COUNT_BOUND`; otherwise the exact big-int route runs.
        """
        self.paths_to_stop_ids()  # its largest count bounds every entry
        return self._accepted(step, states, self._largest_count < _COUNT_BOUND)

    def _accepted(self, step, states: int, fits: bool) -> List[int]:
        """Column 0 of the count table: on whole int64 arrays when
        *fits* and numpy allow, else in exact big-int columns, one per
        automaton state, filled in reverse topological order.  A
        state's entry in column ``k`` is its stop flag (last column
        only) plus, for each edge, the target's entry in column
        ``step[message][k]``."""
        if fits and have_numpy():
            return self._level_counts(step, states, np.int64)[:, 0].tolist()
        offsets, messages, targets = self.csr_adjacency()
        columns = [[0] * self.num_states for _ in range(states)]
        for sid in self._stop_ids:
            columns[-1][sid] = 1
        # per message ID: each automaton state's column beside the
        # column its step reads
        reads = [
            tuple(zip(columns, [columns[j] for j in row])) for row in step
        ]
        for sid in reversed(self.topological_ids()):
            for e in range(offsets[sid], offsets[sid + 1]):
                target = targets[e]
                for column, read in reads[messages[e]]:
                    column[sid] += read[target]
        return columns[0]

    def _level_counts(self, step, states: int, dtype):
        """The count table in *dtype* on whole arrays: a sink holds its
        stop flag in the last column, and each higher level gathers
        ``counts[target, step[message]]`` per edge (as flat cell
        indices) and sums its states' edge runs with one
        ``np.add.reduceat`` (every state above level 0 has an edge, so
        no run is empty).  The CSR tables are read in their stored
        widths and widened to int64 as they are gathered."""
        _, messages, targets = map(view, self.csr_adjacency())
        offsets = view(self._offsets).astype(np.int64)
        moves = np.array(step, dtype=np.int64).reshape(len(step), states)
        degree = np.diff(offsets)
        counts = np.zeros((self.num_states, states), dtype=dtype)
        counts[list(self._stop_ids), -1] = 1
        cells = counts.reshape(-1)
        for sources in self.height_levels()[1:]:
            runs = degree[sources]
            edges = expand_runs(offsets[sources], runs, int(runs.sum()))
            index = moves[messages[edges]]
            index += targets[edges].astype(np.int64)[:, None] * states
            counts[sources] += np.add.reduceat(
                cells.take(index), np.cumsum(runs) - runs
            )
        return counts

    def paths_to_stop(self) -> Dict[ProductState, int]:
        """Number of paths from each state to any stop state (memoised)."""
        if self._paths_to_stop is None:
            self._paths_to_stop = dict(
                zip(self._table(), self.paths_to_stop_ids())
            )
        return self._paths_to_stop

    def count_paths(self) -> int:
        """Total number of executions of the interleaved flow."""
        counts = self.paths_to_stop_ids()
        return sum(counts[i] for i in self._initial_ids)

    def executions(self) -> Iterator[Execution]:
        """Lazily enumerate executions (may be astronomically many --
        callers should bound their consumption)."""
        for start in sorted(self.initial):
            stack: List[
                Tuple[ProductState, Tuple[ProductState, ...], Tuple[IndexedMessage, ...]]
            ] = [(start, (start,), ())]
            while stack:
                state, path_states, path_msgs = stack.pop()
                if state in self.stop:
                    yield Execution(path_states, path_msgs)
                for t in reversed(self.outgoing(state)):
                    stack.append(
                        (t.target, path_states + (t.target,), path_msgs + (t.message,))
                    )

    def random_execution(self, rng: random.Random) -> Execution:
        """Sample one execution uniformly at random among all executions.

        Uses the path-count DP so every complete path has equal
        probability (a plain random walk would bias towards short or
        low-branching paths).  The walk runs on state IDs and decodes
        only the states it visits.
        """
        counts = self.paths_to_stop_ids()
        starts = self._initial_ids
        weights = [counts[i] for i in starts]
        if sum(weights) == 0:
            raise InterleavingError(
                f"interleaved flow {self.name} has no execution"
            )
        offsets, msg_ids, targets = self.csr_adjacency()
        sid = rng.choices(starts, weights=weights)[0]
        path = [sid]
        mids: List[int] = []
        while True:
            options: List[Optional[int]] = []
            option_weights: List[int] = []
            if sid in self._stop_ids:
                options.append(None)
                option_weights.append(1)
            for e in range(offsets[sid], offsets[sid + 1]):
                options.append(e)
                option_weights.append(counts[targets[e]])
            edge = rng.choices(options, weights=option_weights)[0]
            if edge is None:
                return Execution(
                    tuple(map(self.state_at, path)),
                    tuple(self._message_table[m] for m in mids),
                )
            mids.append(msg_ids[edge])
            sid = targets[edge]
            path.append(sid)

    # ------------------------------------------------------------------
    # projections
    # ------------------------------------------------------------------
    def project(self, execution: Execution, component: IndexedFlow) -> Execution:
        """Project an interleaved execution onto one component instance.

        The result is the component's own execution: its local state
        sequence with the messages carrying *component*'s index.
        """
        position = self._components.index(component)
        local_states: List[object] = [execution.states[0][position].state]
        local_msgs: List[Message] = []
        for msg, state in zip(execution.messages, execution.states[1:]):
            if isinstance(msg, IndexedMessage) and msg.index == component.index \
                    and msg.message in component.flow.messages:
                local_msgs.append(msg.message)
                local_states.append(state[position].state)
        return Execution(tuple(local_states), tuple(local_msgs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InterleavedFlow({self.name!r}, |S|={self.num_states}, "
            f"|delta|={self.num_transitions})"
        )


def _places(sizes: Sequence[int]) -> List[int]:
    """Mixed-radix place values of the component digits (component 0
    most significant, the last component's digit worth 1)."""
    places = [1] * len(sizes)
    for j in range(len(sizes) - 2, -1, -1):
        places[j] = places[j + 1] * sizes[j + 1]
    return places


def interleave(instances: Sequence[IndexedFlow]) -> InterleavedFlow:
    """Construct the reachable interleaving of *instances* (Definition 5).

    Parameters
    ----------
    instances:
        Pairwise legally indexed flow instances (Definition 4);
        violations raise :class:`~repro.errors.IndexingError`.

    Returns
    -------
    InterleavedFlow
        The reachable product automaton.  Atomic-state mutual exclusion
        is enforced: a component moves only while every other component
        is outside its atomic set, so no reachable state has two
        components simultaneously atomic.

    Notes
    -----
    The BFS runs on state codes (see the module docstring): a move of
    component ``j`` from local rank ``r`` to ``r'`` adds ``(r' - r) *
    place_j`` to the code, and each local edge carries that delta plus
    a message ID precomputed once.  Every edge becomes one packed
    integer ``(source * M + message) * span + target`` (``M`` candidate
    messages, ``span`` the size of the full product), so one integer
    sort yields the CSR order -- which equals sorting the
    :class:`InterleavedTransition` objects.  With numpy, and while the
    largest key ``M * span**2 - 1`` stays below :data:`_KEY_BOUND`,
    the BFS expands whole frontiers at once in int64
    (:func:`_product_numpy`); otherwise it runs on exact Python ints
    (:func:`_product_python`) -- the full product can exceed 64 bits.
    Both routes lay out the same tables, each in the width that
    :func:`repro.core.arrays.narrowest` gives its bound.
    """
    with perf.timed("interleave"):
        instances = tuple(instances)
        if not instances:
            raise InterleavingError("cannot interleave zero flow instances")
        check_legally_indexed(instances)

        local_states = tuple(inst.states for inst in instances)
        sizes = [len(local) for local in local_states]
        places = _places(sizes)
        span = places[0] * sizes[0]
        ranks = [
            {state: rank for rank, state in enumerate(local)}
            for local in local_states
        ]
        local_out = [
            [inst.outgoing(state) for state in local]
            for inst, local in zip(instances, local_states)
        ]
        candidates = sorted(
            {message for out in local_out for edges in out for message, _ in edges}
        )
        candidate_ids = {m: i for i, m in enumerate(candidates)}
        # per component and local rank: the atomic flag, and every local
        # edge as (code delta, packed-key offset) -- the edge's key is
        # source * (M * span + 1) + offset
        atomic: List[List[bool]] = []
        moves: List[List[List[Tuple[int, int]]]] = []
        for inst, local, out, rank_of, place in zip(
            instances, local_states, local_out, ranks, places
        ):
            atomic_set = frozenset(inst.atomic)
            atomic.append([state in atomic_set for state in local])
            component_moves = []
            for rank, edges in enumerate(out):
                state_moves = []
                for message, target in edges:
                    delta = (rank_of[target] - rank) * place
                    state_moves.append(
                        (delta, candidate_ids[message] * span + delta)
                    )
                component_moves.append(state_moves)
            moves.append(component_moves)

        def encode(combo: ProductState) -> int:
            return sum(
                rank_of[state] * place
                for rank_of, place, state in zip(ranks, places, combo)
            )

        initial_codes = sorted(set(map(encode, itertools.product(
            *(inst.initial for inst in instances)
        ))))
        build = (
            _product_numpy
            if have_numpy() and len(candidates) * span * span <= _KEY_BOUND
            else _product_python
        )
        codes, offsets, edge_messages, edge_targets, used = build(
            initial_codes, list(zip(places, sizes)), atomic, moves,
            len(candidates), span,
        )
        stop_ids = [
            _code_id(codes, code)
            for code in map(encode, itertools.product(
                *(inst.stop for inst in instances)
            ))
        ]
        perf.add("interleave_states_expanded", len(codes))
        perf.add("interleave_transitions", len(edge_targets))
        product = InterleavedFlow(
            components=instances,
            local_states=local_states,
            codes=codes,
            message_table=tuple(candidates[m] for m in used),
            offsets=offsets,
            messages=edge_messages,
            targets=edge_targets,
            initial_ids=tuple(
                bisect_left(codes, code) for code in initial_codes
            ),
            stop_ids=tuple(sorted(i for i in stop_ids if i is not None)),
        )
        perf.add("interleave_table_bytes", product.nbytes)
        return product


#: One product build's result: the reachable codes ascending, the CSR
#: ``offsets``/``messages``/``targets`` tables (messages renumbered over
#: the used candidates) and the used candidate IDs, ascending.  Each
#: table is as wide as its bound needs: the code span, the edge count,
#: the used message count and the state count.
_Product = Tuple[Table, array, array, array, List[int]]


def _product_python(
    initial_codes: List[int],
    radix: List[Tuple[int, int]],
    atomic: List[List[bool]],
    moves: List[List[List[Tuple[int, int]]]],
    num_messages: int,
    span: int,
) -> _Product:
    """The product BFS on exact Python ints, one state at a time.

    *radix* holds each component's ``(place, size)``, *atomic* its
    per-rank atomic flags and *moves* its per-rank local edges as
    ``(code delta, packed-key offset)`` pairs (see :func:`interleave`).
    """
    block = num_messages * span
    seen = set(initial_codes)
    frontier = list(initial_codes)
    keys: List[int] = []
    stride = block + 1
    positions = range(len(radix))
    while frontier:
        code = frontier.pop()
        at = [code // place % size for place, size in radix]
        atomic_positions = [j for j in positions if atomic[j][at[j]]]
        if not atomic_positions:
            movable: Sequence[int] = positions
        elif len(atomic_positions) == 1:
            # only the atomic component itself may move
            movable = atomic_positions
        else:  # two atomic components, only from atomic initial states
            movable = ()
        base = code * stride
        for j in movable:
            for delta, offset in moves[j][at[j]]:
                target = code + delta
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
                keys.append(base + offset)
    keys.sort()

    codes = sorted(seen)
    id_of = {code: i for i, code in enumerate(codes)}
    counts = [0] * (len(codes) + 1)
    edge_messages: List[int] = []
    edge_targets: List[int] = []
    for key in keys:
        source, rest = divmod(key, block)
        message, target = divmod(rest, span)
        counts[id_of[source] + 1] += 1
        edge_messages.append(message)
        edge_targets.append(id_of[target])
    for i in range(1, len(counts)):
        counts[i] += counts[i - 1]
    # keep the candidate messages that label a reachable edge;
    # renumbering preserves their order, hence the edge order
    used = sorted(set(edge_messages))
    if len(used) != num_messages:
        renumber = {m: i for i, m in enumerate(used)}
        edge_messages = [renumber[m] for m in edge_messages]
    return (
        table(codes, span - 1),
        table(counts, len(keys)),
        table(edge_messages, max(len(used) - 1, 0)),
        table(edge_targets, len(codes) - 1),
        used,
    )


def _product_numpy(
    initial_codes: List[int],
    radix: List[Tuple[int, int]],
    atomic: List[List[bool]],
    moves: List[List[List[Tuple[int, int]]]],
    num_messages: int,
    span: int,
) -> _Product:
    """:func:`_product_python` level-synchronously on int64 arrays.

    Each round takes the whole frontier: every component's digit is one
    array expression, the atomic rule is a mask per component, and each
    movable component's local edges are gathered by run expansion.  The
    new targets are deduplicated by a sort (``np.unique`` takes a slower
    hash path on int64) and merged into the sorted ``seen`` codes.  One
    sort of all packed keys then gives the CSR order.  The caller keeps
    every key below :data:`_KEY_BOUND`.
    """
    block = num_messages * span
    stride = block + 1
    atomic_flags = [np.array(flags, dtype=bool) for flags in atomic]
    local_edges = [_local_edges(component) for component in moves]
    seen = np.array(initial_codes, dtype=np.int64)
    frontier = seen
    key_parts = []  # one part per component and round, maybe empty
    while frontier.size:
        digits = [frontier // place % size for place, size in radix]
        held = [flags[at] for flags, at in zip(atomic_flags, digits)]
        # how many components sit in an atomic state: with none, every
        # component may move; with one, only that one
        holders = np.sum(held, axis=0)
        free = holders == 0
        reached = []
        for (first, delta, offset), at, holds in zip(
            local_edges, digits, held
        ):
            movable = free | (holds & (holders == 1))
            local = at[movable]
            lo = first[local]
            counts = first[local + 1] - lo
            edge = expand_runs(lo, counts, int(counts.sum()))
            source = np.repeat(frontier[movable], counts)
            reached.append(source + delta[edge])
            key_parts.append(source * stride + offset[edge])
        reached = sorted_unique(np.concatenate(reached))
        # drop the codes already seen (``seen`` is never empty)
        slot = np.searchsorted(seen, reached)
        new = seen[np.minimum(slot, seen.size - 1)] != reached
        frontier = reached[new]
        seen = np.insert(seen, slot[new], frontier)
    keys = np.concatenate(key_parts)
    del key_parts
    keys.sort()

    # a state's edges start at the first key of its code's block
    offsets = np.append(np.searchsorted(keys, seen * block), keys.size)
    np.remainder(keys, block, out=keys)  # now message * span + target
    message, target = np.divmod(keys, span)
    del keys
    used = np.flatnonzero(np.bincount(message, minlength=num_messages))
    if used.size != num_messages:
        renumber = np.zeros(num_messages, dtype=np.int64)
        renumber[used] = np.arange(used.size)
        message = renumber[message]
    return (
        table(seen, span - 1),
        table(offsets, message.size),
        table(message, max(used.size - 1, 0)),
        table(np.searchsorted(seen, target), seen.size - 1),
        used.tolist(),
    )


def _local_edges(component_moves):
    """One component's local edges as int64 arrays: the CSR row starts
    over its local ranks, then each edge's code delta and packed-key
    offset."""
    first = np.zeros(len(component_moves) + 1, dtype=np.int64)
    np.cumsum([len(edges) for edges in component_moves], out=first[1:])
    flat = [move for edges in component_moves for move in edges]
    return (
        first,
        np.array([delta for delta, _ in flat], dtype=np.int64),
        np.array([offset for _, offset in flat], dtype=np.int64),
    )


def _code_id(codes: Sequence[int], code: int) -> Optional[int]:
    """Position of *code* in the ascending *codes*, or ``None``."""
    position = bisect_left(codes, code)
    if position < len(codes) and codes[position] == code:
        return position
    return None


def interleave_flows(
    flows: Sequence[Flow], copies: int = 1
) -> InterleavedFlow:
    """Convenience wrapper: index *copies* instances of each flow
    (legally, via :func:`repro.core.indexing.index_flows`) and
    interleave them all."""
    if copies < 1:
        raise InterleavingError(f"copies must be >= 1, got {copies}")
    expanded: List[Flow] = []
    for flow in flows:
        expanded.extend([flow] * copies)
    return interleave(index_flows(expanded))
