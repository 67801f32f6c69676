"""Vectorized localization kernels and the cross-shard table registry.

The per-event inner loop of the serving stack is the localization DP:
every FEED chunk the debug server accepts advances the frontier of
:class:`~repro.selection.localization.PathLocalizer` by the chunk's
observed symbols.  This module compiles the interleaved flow's CSR
adjacency into **transition operators** so that a frontier becomes a
sorted ``(state IDs, weights)`` vector pair over the *live* states and
consuming one observed symbol is a fixed, small number of
gather/scatter-add kernel calls:

* **per-symbol operators** -- for every visible message ID (and for
  every plain message, the union over its instances) the ``(source,
  target)`` state-ID pairs of the edges it labels, sorted by source:
  the matched step locates each live state's edge run by binary
  search, expands the runs with one repeat/cumsum gather, and reduces
  duplicate targets with one scatter-add -- O(live states + touched
  edges), never O(product states);
* **the invisible-closure matrix** -- the transitive path counts
  ``paths(i -> j)`` along non-traced edges, precomputed once per
  ``(scenario, visible set)`` as source-sorted triplets, so closure
  expansion is the same row-gather/scatter-add;
* **chunk-batched stepping** -- :meth:`PathLocalizer.advance_many
  <repro.selection.localization.PathLocalizer.advance_many>` feeds a
  whole FEED chunk through the kernels in one call, amortizing the
  sparse-map/vector conversions over the chunk.

When :mod:`numpy` is available the kernels run on ``int64`` arrays;
otherwise the pure-Python backend runs the same compiled tables with
dict frontiers and precompiled closure ranges (exact big-int
arithmetic, no third-party imports).  The two backends are
**bit-identical** by construction: all weights are integers, integer
addition is order-independent, and the numpy path is guarded by an
exact compile-time overflow bound -- any step whose weights could
overflow ``int64`` is transparently promoted to the pure-Python
kernels (counted as ``localize_kernel_promotions``).  The tests check
both backends against brute-force path enumeration.

Compiled tables are immutable after construction and shared across
sessions and shard lanes through a content-addressed
:class:`TableRegistry` keyed by the ``(scenario, visible-set)``
fingerprint, so every :class:`~repro.stream.session.SessionManager`
(one per server shard) reuses one table set.  Concurrent cold callers
wait for a single compilation.  The registry exports hit/miss/byte
counters for the service metrics plane.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import perf
from repro.core.interleave import InterleavedFlow
from repro.core.message import Message
from repro.errors import SelectionError

try:  # numpy is optional: the pure-Python kernels are the fallback
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via _force_python
    _np = None

_INT64_MAX = 2**63 - 1

#: Test hook: set to ``True`` to force the pure-Python kernels even
#: when numpy is importable (the CI fallback leg simply has no numpy).
#: Flip it *before* compiling tables -- a table is pinned to the
#: backend it was compiled under.
_force_python = False


def have_numpy() -> bool:
    """Whether the numpy kernel backend is available (and not forced
    off by the test hook)."""
    return _np is not None and not _force_python


# ----------------------------------------------------------------------
# content addressing
# ----------------------------------------------------------------------
def table_fingerprint(
    interleaved: InterleavedFlow, visible_mid: Sequence[bool]
) -> str:
    """Content hash of ``(scenario, visible set)``.

    Hashes the interned CSR arrays, the message table's identity (name,
    index, width, parent -- everything that affects matching), the
    initial/stop sets, and the per-message visibility vector.  Two
    localizers over structurally identical products with the same
    traced set produce the same fingerprint regardless of process,
    hash seed, or object identity -- which is what lets every server
    shard share one compiled table set.
    """
    offsets, msg_ids, targets = interleaved.csr_adjacency()
    digest = hashlib.sha256()
    digest.update(
        repr(
            tuple(
                (m.index, m.message.name, m.message.width, m.message.parent)
                for m in interleaved.indexed_messages
            )
        ).encode("utf-8")
    )
    for arr in (
        offsets,
        msg_ids,
        targets,
        tuple(interleaved.initial_ids),
        tuple(sorted(interleaved.stop_ids)),
    ):
        digest.update(array("q", arr).tobytes())
        digest.update(b"|")
    digest.update(bytes(bytearray(1 if v else 0 for v in visible_mid)))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# compiled operators
# ----------------------------------------------------------------------
def _sorted_runs(
    pairs: List[Tuple[int, int]],
) -> Tuple[List[int], List[int], Dict[int, Tuple[int, int]]]:
    """Sort ``(source, target)`` pairs and index each source's
    contiguous run: ``(sources, targets, {source: (lo, hi)})``."""
    pairs = sorted(pairs)
    sources = [s for s, _ in pairs]
    targets = [t for _, t in pairs]
    ranges: Dict[int, Tuple[int, int]] = {}
    lo = 0
    for i in range(1, len(pairs) + 1):
        if i == len(pairs) or sources[i] != sources[lo]:
            ranges[sources[lo]] = (lo, i)
            lo = i
    return sources, targets, ranges


class _Operator:
    """One observable symbol's visible edges, sorted by source state.

    ``growth`` is the largest number of edges sharing a target (the
    exact per-step weight amplification the overflow guard uses).  On
    the numpy backend ``src``/``tgt`` are read-only ``int64`` arrays;
    the pure-Python kernels use ``ranges`` (source -> run bounds) and
    ``tgt_list`` directly.
    """

    __slots__ = ("src", "tgt", "tgt_list", "ranges", "growth", "edges")

    def __init__(self, pairs: List[Tuple[int, int]]) -> None:
        sources, self.tgt_list, self.ranges = _sorted_runs(pairs)
        self.edges = len(sources)
        multiplicity: Dict[int, int] = {}
        for t in self.tgt_list:
            multiplicity[t] = multiplicity.get(t, 0) + 1
        self.growth = max(multiplicity.values(), default=0)
        if have_numpy():
            self.src = _np.asarray(sources, dtype=_np.int64)
            self.tgt = _np.asarray(self.tgt_list, dtype=_np.int64)
            self.src.flags.writeable = False
            self.tgt.flags.writeable = False
        else:
            self.src = None
            self.tgt = None

    def __len__(self) -> int:
        return self.edges

    @property
    def nbytes(self) -> int:
        return 16 * self.edges


class _StepResult:
    """One kernel step's output frontier.

    ``matched``/``closed`` are sparse vectors in the backend's
    representation: ``(ids, weights)`` sorted int64 array pairs on
    numpy, plain dicts on the pure-Python kernels.  ``size`` is the
    number of live states in ``closed`` (every stored weight is
    positive, so it equals the harvested frontier's ``len(closed)``).
    """

    __slots__ = ("matched", "closed", "size")

    def __init__(self, matched, closed, size: int) -> None:
        self.matched = matched
        self.closed = closed
        self.size = size


def _expand_runs(lo, counts, total: int):
    """Indices selecting, for every row ``i``, the half-open run
    ``[lo[i], lo[i] + counts[i])`` -- the vectorized equivalent of a
    per-row inner loop (repeat/cumsum index expansion)."""
    cum = _np.cumsum(counts)
    return (
        _np.arange(total, dtype=_np.int64)
        - _np.repeat(cum - counts, counts)
        + _np.repeat(lo, counts)
    )


def _reduce_by_id(ids, weights):
    """Sum *weights* grouped by *ids*: sorted unique ids plus int64
    sums (exact -- ``np.add.at`` accumulates in int64, never float)."""
    uniq, inverse = _np.unique(ids, return_inverse=True)
    sums = _np.zeros(uniq.size, dtype=_np.int64)
    _np.add.at(sums, inverse, weights)
    return uniq, sums


#: Gather sizes from which the bincount-based reduction beats
#: ``np.unique`` (whose argsort dominates wide closure expansions).
_BINCOUNT_MIN = 4096

#: Above this many addends the split-float reduction can no longer
#: guarantee exact float64 sums (2^21 addends x 2^32 <= 2^53).
_BINCOUNT_MAX = 1 << 21

_SPLIT_MASK = (1 << 31) - 1

#: Bound on the per-table step memo (content-keyed ``(frontier,
#: symbol) -> result`` cache shared across sessions and shards).
_MEMO_SLOTS = 1024


class CompiledTables:
    """The compiled localization tables of one ``(scenario, visible
    set)``.

    Immutable after construction (numpy arrays are marked read-only),
    so one instance is safely shared across every session and shard
    lane localizing the same scenario.  Built by
    :class:`TableRegistry`; the heavy part is the invisible-closure
    transitive path-count matrix, computed once here instead of being
    re-walked per observed symbol.
    """

    def __init__(
        self, interleaved: InterleavedFlow, visible_mid: Sequence[bool]
    ) -> None:
        offsets, msg_ids, targets = interleaved.csr_adjacency()
        n = len(offsets) - 1
        self.num_states = n

        # visible edges grouped by message ID
        by_mid: Dict[int, List[Tuple[int, int]]] = {}
        invisible: List[List[int]] = [[] for _ in range(n)]
        for sid in range(n):
            for e in range(offsets[sid], offsets[sid + 1]):
                mid = msg_ids[e]
                if visible_mid[mid]:
                    by_mid.setdefault(mid, []).append((sid, targets[e]))
                else:
                    invisible[sid].append(targets[e])
        self.op_by_mid: Dict[int, _Operator] = {
            mid: _Operator(pairs) for mid, pairs in by_mid.items()
        }
        # merged operators for plain (un-indexed) observations: the
        # union of every instance's edges
        table = interleaved.indexed_messages
        plain_pairs: Dict[Message, List[Tuple[int, int]]] = {}
        for mid, pairs in by_mid.items():
            plain_pairs.setdefault(table[mid].message, []).extend(pairs)
        self.op_by_plain: Dict[Message, _Operator] = {
            message: _Operator(pairs)
            for message, pairs in plain_pairs.items()
        }

        # invisible-closure path counts: source-sorted triplets of
        # paths(i -> j) over non-traced edges (j != i; the identity
        # term is implicit in the ``closed = matched + ...``
        # application), built by a reverse-topological DP
        order = interleaved.topological_ids()
        rows: List[Optional[Dict[int, int]]] = [None] * n
        csrc: List[int] = []
        ctgt: List[int] = []
        cweight: List[int] = []
        cranges: Dict[int, Tuple[int, int]] = {}
        for sid in reversed(order):
            row: Dict[int, int] = {}
            for t in invisible[sid]:
                row[t] = row.get(t, 0) + 1
                inner = rows[t]
                if inner:
                    for j, w in inner.items():
                        row[j] = row.get(j, 0) + w
            rows[sid] = row
        col_sums: Dict[int, int] = {}
        for sid in range(n):
            row = rows[sid]
            if not row:
                continue
            lo = len(csrc)
            for j in sorted(row):
                csrc.append(sid)
                ctgt.append(j)
                cweight.append(row[j])
                col_sums[j] = col_sums.get(j, 0) + row[j]
            cranges[sid] = (lo, len(csrc))
        self.closure_entries = len(ctgt)
        self._ctgt_list = ctgt
        self._cweight_list = cweight
        self._cranges = cranges

        # exact int64-overflow guard: one advance multiplies the peak
        # weight by at most step_growth (matched scatter-add) and then
        # by closure_growth (worst closure column sum plus the
        # identity term)
        step_growth = max(
            (op.growth for op in self.op_by_mid.values()), default=0
        )
        step_growth = max(
            step_growth,
            max((op.growth for op in self.op_by_plain.values()), default=0),
        )
        closure_growth = 1 + max(col_sums.values(), default=0)
        growth = max(1, step_growth) * closure_growth
        self.int64_limit = (
            _INT64_MAX // growth if growth <= _INT64_MAX else 0
        )

        self._numpy = have_numpy()
        if self._numpy:
            self._csrc = _np.asarray(csrc, dtype=_np.int64)
            self._ctgt = _np.asarray(ctgt, dtype=_np.int64)
            self._cweight = _np.asarray(cweight, dtype=_np.int64)
            for arr in (self._csrc, self._ctgt, self._cweight):
                arr.flags.writeable = False
            if int(self._cweight.max(initial=0)) != max(cweight, default=0):
                # closure weights themselves exceed int64 (pathological
                # products); numpy can never be safe here
                self.int64_limit = 0  # pragma: no cover - astronomical

        self.nbytes = (
            sum(op.nbytes for op in self.op_by_mid.values())
            + sum(op.nbytes for op in self.op_by_plain.values())
            + 24 * len(ctgt)
        )

        # content-keyed step memo: sessions localizing the same
        # scenario share not just the tables but the hot DP steps --
        # concurrent streams overlap heavily on the wide early
        # frontiers, which are exactly the expensive ones.  Keys are
        # the raw frontier bytes plus the operator's identity, so a
        # hit is exact by construction; results are frozen read-only.
        self._memo_lock = threading.Lock()
        self._memo: "OrderedDict[Tuple[int, bytes, bytes], _StepResult]" = (
            OrderedDict()
        )
        perf.add("localize_table_compiles")
        perf.add("localize_table_bytes", self.nbytes)

    # ------------------------------------------------------------------
    # vector plumbing
    # ------------------------------------------------------------------
    def scatter(self, weights: Mapping[int, int]):
        """A kernel frontier vector from a sparse ``{state ID:
        weight}`` mapping -- a sorted int64 array pair when the numpy
        backend may run, a plain dict otherwise."""
        if self._numpy and self.int64_limit:
            if all(w <= self.int64_limit for w in weights.values()):
                items = sorted(weights.items())
                ids = _np.asarray([i for i, _ in items], dtype=_np.int64)
                vals = _np.asarray([w for _, w in items], dtype=_np.int64)
                return (ids, vals)
        return dict(weights)

    @staticmethod
    def harvest(vec) -> Dict[int, int]:
        """The sparse ``{state ID: weight}`` dict of a kernel vector
        (ascending state IDs on the numpy backend -- deterministic and
        hash-seed free)."""
        if isinstance(vec, dict):
            return dict(vec)
        ids, vals = vec
        return dict(zip((int(i) for i in ids), (int(w) for w in vals)))

    # ------------------------------------------------------------------
    # the kernels
    # ------------------------------------------------------------------
    def advance(self, closed_vec, op: Optional[_Operator]) -> _StepResult:
        """One localization step: gather the live states' edge runs
        through *op*, reduce duplicate targets, then expand the
        invisible closure.

        ``closed_vec`` is the previous frontier's closure vector; a
        ``None``/empty operator (the symbol labels no product edge)
        yields the dead frontier.  The numpy path runs while the exact
        overflow guard allows it; otherwise the step is promoted to
        the pure-Python kernels (same tables, big-int weights).
        """
        if op is None or len(op) == 0:
            if isinstance(closed_vec, dict):
                return _StepResult({}, {}, 0)
            empty = _np.empty(0, dtype=_np.int64)
            return _StepResult((empty, empty), (empty, empty), 0)
        if not isinstance(closed_vec, dict):
            ids, vals = closed_vec
            if vals.size == 0:
                return _StepResult(closed_vec, closed_vec, 0)
            if int(vals.max()) <= self.int64_limit:
                key = (id(op), ids.tobytes(), vals.tobytes())
                with self._memo_lock:
                    hit = self._memo.get(key)
                    if hit is not None:
                        self._memo.move_to_end(key)
                if hit is not None:
                    perf.add("localize_step_memo_hits")
                    return hit
                perf.add("localize_step_memo_misses")
                result = self._advance_numpy(ids, vals, op)
                for pair in (result.matched, result.closed):
                    pair[0].flags.writeable = False
                    pair[1].flags.writeable = False
                with self._memo_lock:
                    self._memo[key] = result
                    while len(self._memo) > _MEMO_SLOTS:
                        self._memo.popitem(last=False)
                return result
            perf.add("localize_kernel_promotions")
            closed_vec = dict(
                zip((int(i) for i in ids), (int(w) for w in vals))
            )
        return self._advance_python(closed_vec, op)

    def _reduce(self, ids, weights):
        """Sum *weights* grouped by *ids*, exactly, picking the faster
        strategy for the gather size.

        Small gathers use :func:`_reduce_by_id`; wide ones (the
        closure expansion of a wide frontier) use two ``bincount``
        passes over 31-bit weight halves carried as float64 -- exact
        because each half's partial sums stay below 2^53 for up to
        2^21 addends, and the recombined ``(hi << 31) + lo`` cannot
        overflow when the true sum fits int64 (which the compile-time
        overflow guard already ensures).
        """
        if _BINCOUNT_MIN <= ids.size <= _BINCOUNT_MAX:
            lo_sum = _np.bincount(
                ids,
                weights=(weights & _SPLIT_MASK).astype(_np.float64),
                minlength=self.num_states,
            )
            hi_sum = _np.bincount(
                ids,
                weights=(weights >> 31).astype(_np.float64),
                minlength=self.num_states,
            )
            nz = _np.nonzero(lo_sum + hi_sum)[0]
            sums = (hi_sum[nz].astype(_np.int64) << 31) + lo_sum[nz].astype(
                _np.int64
            )
            return nz, sums
        return _reduce_by_id(ids, weights)

    def _advance_numpy(self, ids, vals, op: _Operator) -> _StepResult:
        lo = _np.searchsorted(op.src, ids, side="left")
        hi = _np.searchsorted(op.src, ids, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            empty = _np.empty(0, dtype=_np.int64)
            if perf.enabled():
                perf.add("localize_kernel_edges", int(ids.size))
            return _StepResult((empty, empty), (empty, empty), 0)
        sel = _expand_runs(lo, counts, total)
        m_ids, m_vals = self._reduce(op.tgt[sel], _np.repeat(vals, counts))
        # closure expansion over the matched states' precomputed rows
        clo = _np.searchsorted(self._csrc, m_ids, side="left")
        chi = _np.searchsorted(self._csrc, m_ids, side="right")
        ccounts = chi - clo
        ctotal = int(ccounts.sum())
        if ctotal:
            csel = _expand_runs(clo, ccounts, ctotal)
            c_ids, c_vals = self._reduce(
                _np.concatenate((m_ids, self._ctgt[csel])),
                _np.concatenate(
                    (m_vals, self._cweight[csel] * _np.repeat(m_vals, ccounts))
                ),
            )
        else:
            c_ids, c_vals = m_ids, m_vals
        if perf.enabled():
            perf.add("localize_kernel_edges", total + ctotal)
        return _StepResult((m_ids, m_vals), (c_ids, c_vals), int(c_ids.size))

    def _advance_python(
        self, closed_vec: Dict[int, int], op: _Operator
    ) -> _StepResult:
        matched: Dict[int, int] = {}
        edges = 0
        tgt = op.tgt_list
        for s, w in closed_vec.items():
            run = op.ranges.get(s)
            if run is not None:
                edges += run[1] - run[0]
                for e in range(run[0], run[1]):
                    t = tgt[e]
                    matched[t] = matched.get(t, 0) + w
        closed, closure_edges = self.closure(matched)
        if perf.enabled():
            perf.add("localize_kernel_edges", edges + closure_edges)
        return _StepResult(matched, closed, len(closed))

    def closure(
        self, matched: Mapping[int, int]
    ) -> Tuple[Dict[int, int], int]:
        """*matched* propagated along invisible edges -- itself plus its
        states' closure rows, weighted, in exact big-int arithmetic.

        Returns the closed ``{state ID: weight}`` map and the number of
        closure entries it read.
        """
        closed = dict(matched)
        entries = 0
        ctgt = self._ctgt_list
        cweight = self._cweight_list
        for s, w in matched.items():
            run = self._cranges.get(s)
            if run is not None:
                entries += run[1] - run[0]
                for e in range(run[0], run[1]):
                    t = ctgt[e]
                    closed[t] = closed.get(t, 0) + w * cweight[e]
        return closed, entries


# ----------------------------------------------------------------------
# the cross-shard registry
# ----------------------------------------------------------------------
class _InFlight:
    """A compilation in progress that other cold callers wait on."""

    __slots__ = ("done", "tables", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.tables: Optional[CompiledTables] = None
        self.error: Optional[BaseException] = None


class TableRegistry:
    """Content-addressed cache of :class:`CompiledTables`.

    Keyed by :func:`table_fingerprint`, bounded LRU.  Every
    :class:`~repro.selection.localization.PathLocalizer` resolves its
    tables here, so the debug server's per-shard
    :class:`~repro.stream.session.SessionManager` lanes (and any number
    of concurrent sessions) share one read-only table set per scenario
    instead of each rebuilding it.  Compilation is single-flight: the
    first cold caller for a fingerprint compiles, concurrent callers
    for the same fingerprint wait for its result and count as hits.
    ``stats()`` feeds the service metrics plane (``STATS`` frame,
    ``/metrics``, ``repro profile --json``).
    """

    def __init__(self, max_tables: int = 32) -> None:
        if max_tables < 1:
            raise SelectionError(
                f"max_tables must be >= 1, got {max_tables}"
            )
        self._lock = threading.Lock()
        self._tables: "OrderedDict[str, CompiledTables]" = OrderedDict()
        self._building: Dict[str, _InFlight] = {}
        self._max_tables = max_tables
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(
        self, interleaved: InterleavedFlow, visible_mid: Sequence[bool]
    ) -> CompiledTables:
        """The compiled tables for ``(interleaved, visible set)`` --
        cached by content hash, built (and published) on first use."""
        key = table_fingerprint(interleaved, visible_mid)
        with self._lock:
            cached = self._tables.get(key)
            flight = self._building.get(key)
            owner = cached is None and flight is None
            if owner:
                self._misses += 1
                flight = self._building[key] = _InFlight()
            else:
                self._hits += 1
                if cached is not None:
                    self._tables.move_to_end(key)
        if not owner:
            perf.add("localize_table_hits")
            if cached is None:
                # another caller is compiling this table set: wait for it
                flight.done.wait()
                if flight.error is not None:
                    raise flight.error
                cached = flight.tables
            return cached
        perf.add("localize_table_misses")
        try:
            with perf.timed("localize_compile"):
                flight.tables = CompiledTables(interleaved, visible_mid)
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                del self._building[key]
                if flight.tables is not None:
                    self._tables[key] = flight.tables
                    while len(self._tables) > self._max_tables:
                        self._tables.popitem(last=False)
                        self._evictions += 1
            flight.done.set()
        return flight.tables

    def __len__(self) -> int:
        with self._lock:
            return len(self._tables)

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()

    def stats(self) -> Dict[str, object]:
        """Hit/miss/byte counters for the observability plane."""
        with self._lock:
            tables = list(self._tables.values())
            hits, misses, evictions = self._hits, self._misses, self._evictions
        return {
            "tables": len(tables),
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "bytes": sum(t.nbytes for t in tables),
            "closure_entries": sum(t.closure_entries for t in tables),
            "step_memo_entries": sum(len(t._memo) for t in tables),
            "backend": "numpy" if have_numpy() else "python",
        }


#: Process-wide registry every dense localizer shares by default.
_DEFAULT_REGISTRY = TableRegistry()


def default_registry() -> TableRegistry:
    """The process-wide shared :class:`TableRegistry`."""
    return _DEFAULT_REGISTRY
