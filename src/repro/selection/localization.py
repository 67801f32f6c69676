"""Path localization from observed traces (Section 5.2).

During debug the validator sees only the *projection* of the failing
execution onto the traced messages.  Localization asks: *how many paths
of the interleaved flow are consistent with that observation?*  The
fewer, the better -- the paper reports needing to explore no more than
6.11% of interleaved-flow paths without packing and 0.31% with packing.

A path is **consistent** with an observation ``O`` when the subsequence
of its labels that are visible (traced) equals ``O`` exactly
(``mode="exact"``), starts with ``O`` (``mode="prefix"`` -- the
default, modelling a deep trace buffer read at the moment a bug
symptom fires), or *contains* ``O`` as a contiguous run of visible
messages (``mode="window"`` -- a depth-limited ring buffer that only
retained the last ``depth`` captures).  Non-traced labels are free.

Counting never enumerates paths.  Prefix/exact modes run a *forward*
DP whose state is a :class:`DPFrontier`: the weight of every product
state reachable by consuming the observation so far.  The frontier is
keyed by the interleaved flow's *interned state IDs* (dense integers,
see :mod:`repro.core.interleave`), so each DP step is integer-indexed
array walking rather than tuple hashing.  The frontier is exposed
stepwise (:meth:`PathLocalizer.initial_frontier`,
:meth:`PathLocalizer.advance_frontier`) so that
:class:`repro.stream.incremental.IncrementalLocalizer` can carry it
across captures arriving over time; the batch :meth:`PathLocalizer.
localize` is a thin wrapper that replays the observation through the
same hooks.  Window mode composes the interleaved DAG with the KMP
automaton of the observed window, whose determinism makes the count
exact (each path maps to exactly one automaton state sequence -- no
double counting when the window could match at several offsets): it
is the product's stop-path count
(:meth:`~repro.core.interleave.InterleavedFlow.accepted_ids`) with one
column per automaton state.

The prefix/exact DP runs on the compiled kernels of
:mod:`repro.selection.kernels`: the CSR adjacency becomes per-message
transition operators plus an invisible-closure matrix, so advancing is
a handful of gather/scatter-add calls per symbol and a whole chunk is
consumed in one :meth:`PathLocalizer.advance_many` invocation.
Compiled tables are shared across sessions and server shards through
a content-addressed registry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import perf
from repro.core.interleave import InterleavedFlow
from repro.core.message import IndexedMessage, Message, underlying_message
from repro.errors import FrontierOverflowError, SelectionError
from repro.selection import kernels
from repro.selection.packing import expand_subgroups

#: The localization modes :meth:`PathLocalizer.localize` understands.
MODES = ("prefix", "exact", "window")

#: Identical windows whose final counts stay cached per localizer
#: (repeated SNAPSHOTs on idle sessions hit, a scan of many distinct
#: windows stays bounded; the count tables are never kept).
_WINDOW_MEMO_SLOTS = 16


@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of localizing one observed trace.

    Attributes
    ----------
    consistent_paths:
        Paths of the interleaved flow whose visible projection equals
        the observation.
    total_paths:
        All paths of the interleaved flow.
    """

    consistent_paths: int
    total_paths: int

    @property
    def fraction(self) -> float:
        """Paths to explore as a fraction of all paths (lower = better)."""
        if self.total_paths == 0:
            return 0.0
        return self.consistent_paths / self.total_paths

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.consistent_paths}/{self.total_paths} paths "
            f"({self.fraction:.4%})"
        )


@dataclass(frozen=True)
class DPFrontier:
    """Forward localization-DP state after consuming ``length`` symbols.

    Both maps are keyed by the interleaved flow's **interned state
    IDs** (``InterleavedFlow.state_id``/``state_at`` convert to and
    from product-state tuples when needed).

    Attributes
    ----------
    matched:
        Weight per state ID of path-prefixes whose *last edge*
        consumed the newest observed symbol (for ``length == 0``: the
        initial states with weight 1).  ``prefix``-mode counts hang off
        this map: each weighted state contributes ``weight x
        paths_to_stop``.
    closed:
        ``matched`` propagated forward along non-traced (invisible)
        edges -- the states from which the *next* observed symbol may
        be consumed.  ``exact``-mode counts sum ``closed`` over stop
        states.
    length:
        Observed symbols consumed so far.
    """

    matched: Mapping[int, int]
    closed: Mapping[int, int]
    length: int

    @property
    def size(self) -> int:
        """Number of live product states (the memory the frontier pins)."""
        return len(self.closed)

    @property
    def is_dead(self) -> bool:
        """No path is consistent with the observation any more."""
        return not self.closed


@dataclass(frozen=True)
class AdvanceOutcome:
    """What one :meth:`PathLocalizer.advance_many` call did.

    Attributes
    ----------
    frontier:
        The frontier after every symbol of the batch was consumed.
    consumed:
        Symbols consumed (the whole batch on a normal return; on the
        error paths the partial count travels on the exception).
    peak_size:
        The largest intermediate frontier size observed while stepping
        through the batch (the per-record peak a bounded session must
        account for even when the final frontier shrank again).
    """

    frontier: DPFrontier
    consumed: int
    peak_size: int


class PathLocalizer:
    """Counts interleaved-flow paths consistent with observed traces.

    A localizer is used by one thread at a time, as are the tables it
    resolves: its window memo and the tables' step memo are not locked.  The
    debug server shares one per shard among its sessions, all on its
    event loop.

    Parameters
    ----------
    interleaved:
        The usage scenario's interleaved flow.
    traced:
        The traced message set (Step 2 selection plus packed groups;
        sub-groups are expanded to their parents for visibility).
    registry:
        The :class:`~repro.selection.kernels.TableRegistry` the
        compiled tables are resolved from; omitted, the process-wide
        shared registry -- which is what lets every session and server
        shard over the same ``(scenario, visible set)`` reuse one
        read-only table set.
    """

    def __init__(
        self,
        interleaved: InterleavedFlow,
        traced: Iterable[Message],
        registry: Optional["kernels.TableRegistry"] = None,
    ) -> None:
        self.interleaved = interleaved
        expanded = expand_subgroups(traced, interleaved.messages)
        self._visible: Set[Message] = set(expanded)
        self._total = interleaved.count_paths()
        # no window longer than this many records fits on a path
        self._longest_path = len(interleaved.height_levels()) - 1
        self._initial_frontier: Optional[DPFrontier] = None
        self._registry = (
            registry if registry is not None else kernels.default_registry()
        )
        self._tables: Optional[kernels.CompiledTables] = None
        # memoized window-mode counts, LRU-keyed by the observed window
        self._window_memo: "OrderedDict[Tuple[object, ...], int]" = (
            OrderedDict()
        )
        # the traced set as visibility per interned message ID
        self._visible_mid: Tuple[bool, ...] = tuple(
            m.message in self._visible for m in interleaved.indexed_messages
        )

    @property
    def total_paths(self) -> int:
        return self._total

    def is_visible(self, label: object) -> bool:
        """Whether an edge label would be captured by the trace buffer."""
        return underlying_message(label) in self._visible

    def localize(
        self, observed: Sequence[object], mode: str = "prefix"
    ) -> LocalizationResult:
        """Count paths whose visible projection matches *observed*.

        *observed* items may be :class:`IndexedMessage` (exact instance
        match -- tagging keeps indices observable) or plain
        :class:`Message` (any instance matches).

        Parameters
        ----------
        observed:
            The captured trace-buffer content, oldest first.
        mode:
            ``"prefix"`` (default): the observation is a prefix of the
            path's visible projection -- a snapshot taken when a bug
            symptom fired.  ``"exact"``: the projection must equal the
            observation -- a complete run's capture.  ``"window"``: the
            observation is a contiguous run somewhere in the visible
            projection -- a depth-limited ring buffer (requires a fully
            indexed observation).

        Raises
        ------
        SelectionError
            If the observation contains a message that is not traced
            (the buffer could never have captured it), or *mode* is
            unknown, or window mode receives un-indexed items.
        """
        if mode not in MODES:
            raise SelectionError(
                f"unknown localization mode {mode!r}; "
                "choose 'prefix', 'exact', or 'window'"
            )
        for item in observed:
            if not self.is_visible(item):
                raise SelectionError(
                    f"observed message {item!r} is not in the traced set"
                )
        observation: Tuple[object, ...] = tuple(observed)
        if mode == "window":
            count = self.window_count(observation)
        else:
            frontier = self.advance_many(
                self.initial_frontier(), observation
            ).frontier
            count = (
                self.prefix_count(frontier)
                if mode == "prefix"
                else self.exact_count(frontier)
            )
        return LocalizationResult(consistent_paths=count, total_paths=self._total)

    def warm(self) -> "PathLocalizer":
        """Eagerly build every lazily-constructed table (the stop-path
        counts, the compiled kernel tables, and the initial frontier).

        All of these are built on first use anyway; a long-lived host
        that shares one localizer across many sessions (e.g. a debug
        -server shard) calls this once at startup so the cost lands
        there instead of inside the first request's latency.  Returns
        ``self`` so construction and warming chain.

        The compiled operators and closure matrix are resolved through
        the table registry by content hash, so the second shard (or
        session manager) warming the same ``(scenario, visible set)``
        gets the first one's tables back instead of compiling again.
        """
        self.interleaved.paths_to_stop_ids()
        self.initial_frontier()
        return self

    def fingerprint(self) -> str:
        """Content hash of ``(scenario, visible set)``.

        Delegates to :func:`repro.selection.kernels.table_fingerprint`:
        two localizers over structurally identical products with the
        same traced set share it regardless of process or hash seed.
        The session store stamps it into every snapshot so recovery can
        refuse state written against a different scenario or traced
        set.
        """
        return kernels.table_fingerprint(self.interleaved, self._visible_mid)

    # ------------------------------------------------------------------
    # stepwise DP hooks (prefix/exact modes)
    # ------------------------------------------------------------------
    def initial_frontier(self) -> DPFrontier:
        """The frontier before any symbol has been observed.

        Computed once and cached: it only depends on the scenario and
        the traced set, and it expands the initial states' rows of the
        compiled closure matrix (so it compiles the tables on first
        use).  Frontiers are treated as immutable everywhere, so
        sharing the instance is safe.
        """
        cached = self._initial_frontier
        if cached is None:
            matched = {sid: 1 for sid in self.interleaved.initial_ids}
            closed, _ = self._compiled_tables().closure(matched)
            cached = DPFrontier(matched=matched, closed=closed, length=0)
            self._initial_frontier = cached
        return cached

    def advance_frontier(
        self, frontier: DPFrontier, symbol: object
    ) -> DPFrontier:
        """Consume one observed *symbol* (a one-symbol
        :meth:`advance_many`).

        Raises :class:`~repro.errors.SelectionError` when *symbol* is
        not in the traced set (the buffer could never have captured
        it) -- the same guard the batch API applies up front.
        """
        return self.advance_many(frontier, (symbol,)).frontier

    def advance_many(
        self,
        frontier: DPFrontier,
        symbols: Sequence[object],
        max_frontier: Optional[int] = None,
    ) -> AdvanceOutcome:
        """Consume a whole batch of observed *symbols*, oldest first.

        The frontier is scattered into a weight vector once, every
        symbol is one kernel step, and the sparse frontier maps are
        harvested once at the end -- so a FEED chunk costs chunk-many
        gather/scatter calls and a single conversion.

        ``max_frontier`` bounds every *intermediate* frontier: the
        batch stops *before* the first symbol whose frontier would
        exceed it and raises :class:`~repro.errors.
        FrontierOverflowError`.  Untraced symbols raise
        :class:`~repro.errors.SelectionError` as always.  Both
        exceptions carry the partial progress -- ``.frontier`` (the
        last consistent frontier), ``.consumed`` and ``.peak_size`` --
        so a streaming caller can keep the valid prefix of the batch.
        """
        tables = self._compiled_tables()
        consumed = 0
        peak = frontier.size
        length = frontier.length
        dead = frontier.is_dead
        vec = None  # dense closure vector, scattered lazily
        step: Optional[kernels._StepResult] = None
        died = False  # a consumed symbol killed the frontier

        def snap() -> DPFrontier:
            """The current frontier, materialized back to sparse maps."""
            if died:
                return DPFrontier(matched={}, closed={}, length=length)
            if step is None:
                return frontier  # nothing consumed yet (length unchanged)
            return DPFrontier(
                matched=tables.harvest(step.matched),
                closed=tables.harvest(step.closed),
                length=length,
            )

        try:
            for symbol in symbols:
                if not self.is_visible(symbol):
                    raise _attach_progress(
                        SelectionError(
                            f"observed message {symbol!r} is not in the "
                            "traced set"
                        ),
                        snap(),
                        consumed,
                        peak,
                    )
                if dead:
                    # dead frontiers stay dead; only validation remains
                    died = True
                    step = None
                    length += 1
                    consumed += 1
                    continue
                if vec is None:
                    vec = tables.scatter(frontier.closed)
                result = tables.advance(vec, self._operator(tables, symbol))
                if max_frontier is not None and result.size > max_frontier:
                    raise _attach_progress(
                        FrontierOverflowError(
                            f"frontier grew to {result.size} states, over "
                            f"max_frontier={max_frontier}"
                        ),
                        snap(),
                        consumed,
                        peak,
                    )
                step = result
                vec = result.closed
                length += 1
                consumed += 1
                peak = max(peak, result.size)
                dead = result.size == 0
            return AdvanceOutcome(
                frontier=snap(), consumed=consumed, peak_size=peak
            )
        finally:
            if perf.enabled():
                perf.add("localize_kernel_batches")
                perf.add("localize_kernel_symbols", consumed)

    def _operator(
        self, tables: "kernels.CompiledTables", symbol: object
    ) -> Optional["kernels._Operator"]:
        """The compiled transition operator the observed *symbol*
        selects: one instance's edges for an indexed symbol, every
        instance's for a plain one (``None`` -- no product edge carries
        it, the step is dead)."""
        if isinstance(symbol, IndexedMessage):
            mid = self.interleaved.message_id(symbol)
            return None if mid is None else tables.op_by_mid.get(mid)
        if isinstance(symbol, Message):
            return tables.op_by_plain.get(symbol)
        raise TypeError(f"not a message: {symbol!r}")

    def _compiled_tables(self) -> "kernels.CompiledTables":
        """This localizer's dense tables, resolved (once) through the
        content-addressed registry."""
        if self._tables is None:
            self._tables = self._registry.get(
                self.interleaved, self._visible_mid
            )
        return self._tables

    def prefix_count(self, frontier: DPFrontier) -> int:
        """Paths whose visible projection *starts with* the consumed
        observation: every minimally-matched prefix times any
        continuation to a stop state."""
        to_stop = self.interleaved.paths_to_stop_ids()
        return sum(
            weight * to_stop[sid]
            for sid, weight in frontier.matched.items()
        )

    def exact_count(self, frontier: DPFrontier) -> int:
        """Paths whose visible projection *equals* the consumed
        observation: matched prefixes that reach a stop state through
        invisible edges only."""
        stop_ids = self.interleaved.stop_ids
        return sum(
            weight
            for sid, weight in frontier.closed.items()
            if sid in stop_ids
        )

    # ------------------------------------------------------------------
    # window mode (KMP-composed DP)
    # ------------------------------------------------------------------
    def window_count(self, observation: Sequence[object]) -> int:
        """Paths whose visible projection contains *observation* as a
        contiguous run, via the KMP automaton (deterministic, so every
        path is counted exactly once even when the window could match
        at several offsets).

        The count is the product's path-count DP composed with the
        window's automaton (:func:`_kmp_steps`), one column per
        automaton state, summed over the initial states.  A window
        longer than the product's longest path counts 0 before any
        table is built.  The final count is memoized across calls with
        an identical window (bounded LRU), so repeated SNAPSHOT
        requests on an idle session skip the DP.
        """
        for item in observation:
            if not isinstance(item, IndexedMessage):
                raise SelectionError(
                    "window-mode localization needs a fully indexed "
                    f"observation; got {item!r}"
                )
        if not observation:
            return self._total
        if len(observation) > self._longest_path:
            return 0
        memo_key = tuple(observation)
        cached = self._window_memo.get(memo_key)
        if cached is not None:
            self._window_memo.move_to_end(memo_key)
            perf.add("localize_window_memo_hits")
            return cached
        interleaved = self.interleaved
        states = len(observation) + 1
        with perf.timed("window_count"):
            pattern = [interleaved.message_id(item) for item in observation]
            counts = interleaved.accepted_ids(
                _kmp_steps(pattern, self._visible_mid), states
            )
            result = sum(counts[sid] for sid in interleaved.initial_ids)
        perf.add("localize_dp_steps", interleaved.num_states * states)
        self._window_memo[memo_key] = result
        while len(self._window_memo) > _WINDOW_MEMO_SLOTS:
            self._window_memo.popitem(last=False)
        return result


def _attach_progress(
    exc: Exception, frontier: DPFrontier, consumed: int, peak: int
) -> Exception:
    """Attach batch progress to an exception escaping
    :meth:`PathLocalizer.advance_many`, so streaming callers can keep
    the valid prefix of a partially-consumed chunk."""
    exc.frontier = frontier  # type: ignore[attr-defined]
    exc.consumed = consumed  # type: ignore[attr-defined]
    exc.peak_size = peak  # type: ignore[attr-defined]
    return exc


# ----------------------------------------------------------------------
# KMP machinery (window mode)
# ----------------------------------------------------------------------
def kmp_failure(pattern: Sequence[object]) -> List[int]:
    """The KMP failure table of *pattern* (exact equality on items):
    entry ``i`` is the length of the longest proper border of
    ``pattern[:i + 1]``."""
    failure: List[int] = []
    k = 0
    for i, symbol in enumerate(pattern):
        if i:
            while k > 0 and symbol != pattern[k]:
                k = failure[k - 1]
            if symbol == pattern[k]:
                k += 1
        failure.append(k)
    return failure


def _kmp_steps(
    pattern: Sequence[Optional[int]], visible: Sequence[bool]
) -> List[Tuple[int, ...]]:
    """The window automaton's rows: ``rows[m][k]`` is the state message
    ID ``m`` moves KMP state ``k`` (symbols matched so far) to.

    *pattern* holds the window's message IDs (``None`` for a symbol no
    edge carries) and ``visible[m]`` whether ID ``m`` is traced.  An
    untraced message keeps the state, a traced one follows the KMP
    automaton, and the match state ``len(pattern)`` absorbs.
    """
    n = len(pattern)
    failure = kmp_failure(pattern)
    keep = tuple(range(n + 1))
    rows = []
    for mid, traced in enumerate(visible):
        if not traced:
            rows.append(keep)
            continue
        row: List[int] = []
        for k, symbol in enumerate(pattern):
            if mid == symbol:
                row.append(k + 1)
            else:
                # the state the failure link falls back to has its
                # step already in the row
                row.append(row[failure[k - 1]] if k else 0)
        row.append(n)
        rows.append(tuple(row))
    return rows


def localize_trace(
    interleaved: InterleavedFlow,
    traced: Iterable[Message],
    observed: Sequence[object],
    mode: str = "prefix",
) -> LocalizationResult:
    """Functional one-shot wrapper around :class:`PathLocalizer`."""
    return PathLocalizer(interleaved, traced).localize(observed, mode=mode)
