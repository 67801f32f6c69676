"""Online path localization: the batch DP, carried across captures.

``selection.localization`` answers "how many interleaved-flow paths
are consistent with this observation?" for one complete observation.
During live debug the observation *grows*: every trace-buffer readout
appends a few records, and re-running the full DP per readout costs
O(states x observation) each time.  :class:`IncrementalLocalizer`
instead carries the DP state between :meth:`~IncrementalLocalizer.
feed` calls:

* **prefix/exact modes** keep the forward
  :class:`~repro.selection.localization.DPFrontier` -- weights over
  ``(interned state ID, matched length)``; state IDs are the dense
  integers :mod:`repro.core.interleave` assigns at construction -- so
  consuming one new record costs O(frontier x out-degree), independent
  of how much has already been observed.  The frontier only ever *shrinks or stays bounded*
  (it lives inside the product's antichain of states reachable at one
  matched length), which is what makes thousands of concurrent
  sessions affordable.  :meth:`~IncrementalLocalizer.feed` hands the
  whole chunk to :meth:`~repro.selection.localization.PathLocalizer.
  advance_many`, so a FEED chunk is one batched kernel invocation.
* **window mode** only appends each record to the observed window, so
  feeding is cheap; :meth:`~IncrementalLocalizer.snapshot` counts the
  window with :meth:`~repro.selection.localization.PathLocalizer.
  window_count`, whose memo answers a repeated snapshot of the same
  window without rerunning the DP.

At every point ``snapshot()`` equals the batch
:meth:`~repro.selection.localization.PathLocalizer.localize` on the
records fed so far -- chunking is invisible.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.core.interleave import InterleavedFlow
from repro.core.message import IndexedMessage, Message
from repro.errors import FrontierOverflowError, SelectionError
from repro.selection.localization import (
    DPFrontier,
    LocalizationResult,
    MODES,
    PathLocalizer,
)
from repro.sim.engine import TraceRecord

#: What ``feed`` accepts: raw simulator records or bare (indexed)
#: messages -- the same shapes the batch API takes.
Observable = Union[TraceRecord, IndexedMessage, Message]


def _symbol(item: Observable) -> object:
    """The observation symbol carried by *item*."""
    if isinstance(item, TraceRecord):
        return item.message
    return item


class IncrementalLocalizer:
    """Carries the localization DP across incremental captures.

    Parameters
    ----------
    interleaved:
        The usage scenario's interleaved flow.
    traced:
        The traced message set (as for the batch localizer).
    mode:
        ``"prefix"`` (default), ``"exact"``, or ``"window"`` -- fixed
        for the lifetime of the localizer (the carried DP state is
        mode-specific).
    max_frontier:
        Optional bound on carried DP state: live frontier states for
        prefix/exact, observed-window length for window mode.  When
        exceeded, :meth:`feed` raises :class:`~repro.errors.
        FrontierOverflowError` and the localizer freezes at its last
        consistent state (``overflowed`` turns true; further feeding
        keeps raising).
    localizer:
        Share an existing :class:`PathLocalizer` (its compiled kernel
        tables, initial frontier, and path-count tables) across many
        incremental sessions over the same scenario; omitted, a
        private one is built.
    """

    def __init__(
        self,
        interleaved: Optional[InterleavedFlow] = None,
        traced: Optional[Iterable[Message]] = None,
        mode: str = "prefix",
        max_frontier: Optional[int] = None,
        localizer: Optional[PathLocalizer] = None,
    ) -> None:
        if mode not in MODES:
            raise SelectionError(
                f"unknown localization mode {mode!r}; "
                "choose 'prefix', 'exact', or 'window'"
            )
        if localizer is None:
            if interleaved is None or traced is None:
                raise SelectionError(
                    "IncrementalLocalizer needs (interleaved, traced) "
                    "or an existing localizer"
                )
            localizer = PathLocalizer(interleaved, traced)
        if max_frontier is not None and max_frontier < 1:
            raise SelectionError(
                f"max_frontier must be >= 1, got {max_frontier}"
            )
        self.mode = mode
        self.max_frontier = max_frontier
        self._localizer = localizer
        self._overflowed = False
        # prefix/exact state: the forward frontier
        self._frontier: Optional[DPFrontier] = None
        if mode != "window":
            self._frontier = localizer.initial_frontier()
        # window mode carries only the observed window
        self._pattern: List[object] = []
        self._peak_frontier = self.frontier_size

    # ------------------------------------------------------------------
    @property
    def localizer(self) -> PathLocalizer:
        """The shared batch localizer (DP tables, visibility)."""
        return self._localizer

    @property
    def observed_length(self) -> int:
        """Symbols consumed so far: the frontier's length, or the
        window's (window mode)."""
        if self.mode == "window":
            return len(self._pattern)
        assert self._frontier is not None
        return self._frontier.length

    @property
    def overflowed(self) -> bool:
        """Whether the frontier bound was hit (state frozen since)."""
        return self._overflowed

    @property
    def frontier_size(self) -> int:
        """Carried DP state size: live product states (prefix/exact)
        or window length (window mode)."""
        if self.mode == "window":
            return len(self._pattern)
        assert self._frontier is not None
        return self._frontier.size

    @property
    def peak_frontier(self) -> int:
        """Largest frontier seen over the localizer's lifetime."""
        return self._peak_frontier

    @property
    def is_dead(self) -> bool:
        """No path can be consistent any more (count pinned at 0)."""
        if self.mode == "window":
            return False  # a window may still match later paths' runs
        assert self._frontier is not None
        return self._frontier.is_dead

    def is_visible(self, item: Observable) -> bool:
        """Whether the trace buffer would have captured *item*."""
        return self._localizer.is_visible(_symbol(item))

    # ------------------------------------------------------------------
    def feed(self, records: Iterable[Observable]) -> int:
        """Consume *records* (oldest first); returns symbols consumed.

        Raises
        ------
        SelectionError
            On an untraced observation (mirror of the batch guard) or,
            in window mode, an un-indexed one.
        FrontierOverflowError
            When ``max_frontier`` is exceeded; the localizer freezes
            at the state *before* the overflowing record.
        """
        if self._overflowed:
            raise FrontierOverflowError(
                f"localizer frontier overflowed at {self.max_frontier}; "
                "no further records accepted"
            )
        if self.mode == "window":
            consumed = 0
            for item in records:
                self._feed_one(_symbol(item))
                consumed += 1
            return consumed
        # prefix/exact: one batched kernel invocation for the whole
        # chunk.  On partial failure (untraced symbol, overflow) the
        # exception carries the valid prefix's progress, which keeps
        # the freeze-at-last-consistent-state semantics of the
        # per-record loop.
        assert self._frontier is not None
        symbols = [_symbol(item) for item in records]
        try:
            outcome = self._localizer.advance_many(
                self._frontier, symbols, max_frontier=self.max_frontier
            )
        except FrontierOverflowError as exc:
            self._commit(exc.frontier, exc.peak_size)
            self._overflowed = True
            raise
        except SelectionError as exc:
            self._commit(exc.frontier, exc.peak_size)
            raise
        self._commit(outcome.frontier, outcome.peak_size)
        return outcome.consumed

    def _commit(self, frontier: DPFrontier, peak_size: int) -> None:
        """Fold a batch outcome (possibly partial) into carried state."""
        self._frontier = frontier
        self._peak_frontier = max(self._peak_frontier, peak_size)

    def observe_records(self, records: Iterable[Observable]) -> int:
        """Feed only the records the trace buffer would have captured.

        Convenience for raw simulator/ingest streams that still carry
        untraced messages; returns how many records were consumed.
        """
        return self.feed(r for r in records if self.is_visible(r))

    def snapshot(self) -> LocalizationResult:
        """The batch-identical localization of everything fed so far."""
        if self.mode == "prefix":
            assert self._frontier is not None
            count = self._localizer.prefix_count(self._frontier)
        elif self.mode == "exact":
            assert self._frontier is not None
            count = self._localizer.exact_count(self._frontier)
        else:
            count = self._localizer.window_count(tuple(self._pattern))
        return LocalizationResult(
            consistent_paths=count,
            total_paths=self._localizer.total_paths,
        )

    # ------------------------------------------------------------------
    # durable-state hooks (used by repro.store snapshots)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """The carried DP state as a JSON-able dict.

        Everything is expressed in interned integer IDs (state IDs for
        the frontier maps, message IDs for the window pattern), so the
        dict survives a round trip through JSON and a process restart:
        :meth:`restore_state` on a fresh localizer over the *same*
        scenario and traced set (see :meth:`PathLocalizer.fingerprint`)
        rebuilds bit-identical state.  Frontier weights are arbitrary
        -precision ints -- JSON carries them exactly.
        """
        frontier = None
        if self._frontier is not None:
            frontier = {
                "matched": sorted(self._frontier.matched.items()),
                "closed": sorted(self._frontier.closed.items()),
                "length": self._frontier.length,
            }
        interleaved = self._localizer.interleaved
        return {
            "mode": self.mode,
            "max_frontier": self.max_frontier,
            "overflowed": self._overflowed,
            "peak_frontier": self._peak_frontier,
            "frontier": frontier,
            "pattern": [
                interleaved.message_id(symbol) for symbol in self._pattern
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite carried state with an :meth:`export_state` dict.

        The localizer must have been constructed with the same ``mode``
        (the carried representation is mode-specific); the caller is
        responsible for checking the scenario fingerprint first.  The
        ``"failure"`` and ``"observed_length"`` keys older entries
        carry are ignored: the frontier or the window holds the length.
        """
        if state.get("mode") != self.mode:
            raise SelectionError(
                f"cannot restore {state.get('mode')!r} state into a "
                f"{self.mode!r} localizer"
            )
        self.max_frontier = state.get("max_frontier")
        self._overflowed = bool(state["overflowed"])
        self._peak_frontier = int(state["peak_frontier"])
        frontier = state.get("frontier")
        if frontier is None:
            self._frontier = None
        else:
            self._frontier = DPFrontier(
                matched={int(k): int(v) for k, v in frontier["matched"]},
                closed={int(k): int(v) for k, v in frontier["closed"]},
                length=int(frontier["length"]),
            )
        interleaved = self._localizer.interleaved
        self._pattern = [
            interleaved.message_at(int(mid)) for mid in state["pattern"]
        ]

    # ------------------------------------------------------------------
    def _feed_one(self, symbol: object) -> None:
        """Window-mode per-record step (an append, so there is nothing
        to batch)."""
        if not isinstance(symbol, IndexedMessage):
            raise SelectionError(
                "window-mode localization needs a fully indexed "
                f"observation; got {symbol!r}"
            )
        if not self._localizer.is_visible(symbol):
            raise SelectionError(
                f"observed message {symbol!r} is not in the traced set"
            )
        if (
            self.max_frontier is not None
            and len(self._pattern) + 1 > self.max_frontier
        ):
            self._overflowed = True
            raise FrontierOverflowError(
                f"window length would exceed max_frontier="
                f"{self.max_frontier}"
            )
        self._pattern.append(symbol)
        self._peak_frontier = max(self._peak_frontier, self.frontier_size)
