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
  ``(scenario, visible set)`` as one ``(target, weight)`` row per
  state, located through per-state row bounds, so closure expansion
  is the same row-gather/scatter-add.  The rows are compiled level by
  level: states are grouped by their longest invisible path to a
  state without invisible successors, so a level reads only finished
  rows of lower levels, and on numpy a level is a few whole-array
  gather/sort/reduce calls over source-aligned chunks;
* **chunk-batched stepping** -- :meth:`PathLocalizer.advance_many
  <repro.selection.localization.PathLocalizer.advance_many>` feeds a
  whole FEED chunk through the kernels in one call, amortizing the
  sparse-map/vector conversions over the chunk.

Every table is stored once, in a flat :class:`array.array` buffer of
the narrowest width that holds its range
(:func:`repro.core.arrays.narrowest`): the operators and the closure
targets by the state count, the closure weights by the largest closure
column sum (the compile counts both before it writes the first row)
and the row bounds by the closure's entry count.  When :mod:`numpy` is
available the kernels run on zero-copy read-only views of those
buffers in their own widths and widen every gathered column to
``int64`` before any arithmetic, so frontiers, memo keys and counts
stay ``int64``.  Otherwise the pure-Python backend
indexes the same buffers directly with dict frontiers (exact big-int
arithmetic, no third-party imports).  The two backends are
**bit-identical** by construction: all weights are integers, integer
addition is order-independent, and the numpy path is guarded by an
exact compile-time overflow bound -- any step whose weights could
overflow ``int64`` is transparently promoted to the pure-Python
kernels (counted as ``localize_kernel_promotions``).  The compile
obeys the same rule: it runs in int64 only when a float64 count of
the closure's column sums, which bound every entry, rules overflow
out; otherwise the pure-Python route compiles the same schedule with
exact big-int weights.  The tests check both backends against
brute-force path enumeration, and the two compile routes against
each other.  :func:`repro.core.arrays.have_numpy` is the backend
switch; the product build follows it too.

Compiled tables are immutable after construction and shared across
sessions and shards through a content-addressed
:class:`TableRegistry` keyed by the ``(scenario, visible-set)``
fingerprint, so every :class:`~repro.stream.session.SessionManager`
(one per server shard) reuses one table set.  Nothing here is locked:
the registry, the fingerprint memo and each table's step memo are used
by one thread at a time (in a serving process, its event loop).  The
registry exports hit/miss/byte counters for the service metrics plane.
"""

from __future__ import annotations

import hashlib
import weakref
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import perf
from repro.core.arrays import (
    expand_runs,
    have_numpy,
    height_levels,
    height_levels_python,
    int64_bytes,
    level_edges,
    narrowest,
    np as _np,
    reduce_by_id,
    table,
    table_bytes,
    view,
)
from repro.core.interleave import InterleavedFlow
from repro.core.message import Message
from repro.errors import SelectionError

_INT64_MAX = 2**63 - 1


# ----------------------------------------------------------------------
# content addressing
# ----------------------------------------------------------------------
#: :func:`table_fingerprint`'s memo: product -> visible vector -> hex
#: digest.  Weakly keyed, so a product's entries go with it.
_FINGERPRINTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


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
    shard share one compiled table set.  A product's tables never
    change, so the digest is computed once per ``(product, visible
    vector)``: every shard asks for it twice at start-up, as its
    registry key and as its snapshot stamp.
    """
    visible = bytes(bytearray(1 if v else 0 for v in visible_mid))
    known = _FINGERPRINTS.setdefault(interleaved, {})
    if visible not in known:
        known[visible] = _table_digest(interleaved, visible)
    return known[visible]


def _table_digest(interleaved: InterleavedFlow, visible: bytes) -> str:
    """SHA-256 of the product's tables and the visibility bytes."""
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
    # every table hashes as int64, whatever width it is stored in
    for arr in (
        offsets,
        msg_ids,
        targets,
        tuple(interleaved.initial_ids),
        tuple(sorted(interleaved.stop_ids)),
    ):
        digest.update(int64_bytes(arr))
        digest.update(b"|")
    digest.update(visible)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# compiled operators
# ----------------------------------------------------------------------
def _state_code(num_states: int) -> str:
    """Typecode of a table of state IDs of a product with *num_states*
    states."""
    return narrowest(num_states - 1)


class _Operator:
    """One observable symbol's visible edges, sorted by ``(source,
    target)``.

    ``src``/``tgt`` are the only copy of the edges: flat ``array``
    buffers of state IDs in the product's state width
    (:func:`_state_code`) that the pure-Python kernels index directly,
    locating a source state's run by bisecting ``src``.  On the numpy
    backend ``views`` holds zero-copy read-only views of the same two
    buffers, in that width.  ``growth`` is the largest number of edges
    sharing a target (the exact per-step weight amplification the
    overflow guard uses).
    """

    __slots__ = ("src", "tgt", "views", "growth")

    def __init__(self, src: array, tgt: array) -> None:
        self.src = src
        self.tgt = tgt
        self.views = None
        self.growth = 0

    def seal(self, numpy: bool) -> None:
        """Finish the operator once every edge has been appended."""
        if numpy:
            self.views = (view(self.src), view(self.tgt))
            self.growth = int(_np.bincount(self.views[1]).max())
        else:
            self.growth = max(Counter(self.tgt).values(), default=0)

    def __len__(self) -> int:
        return len(self.src)

    @property
    def nbytes(self) -> int:
        return table_bytes(self.src) + table_bytes(self.tgt)


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

#: Gathered entries per chunk of the numpy closure compile: bounds its
#: intermediate arrays.  Chunks hold whole rows, so one row wider than
#: this is compiled alone.
_COMPILE_CHUNK = 1 << 13

#: The numpy closure compile runs in int64 only while the float64
#: count of every column sum stays below this bound; float64 rounding
#: of the count stays far inside the factor-two margin to int64.
_NUMPY_COMPILE_BOUND = float(1 << 62)


# ----------------------------------------------------------------------
# table compile
# ----------------------------------------------------------------------
def _split_edges_python(
    interleaved: InterleavedFlow, visible_mid: Sequence[bool]
):
    """The per-symbol operators and the invisible-edge CSR, in one scan
    of the product's CSR.

    Returns ``(op_by_mid, op_by_plain, inv_off, inv_tgt)``: visible
    edges grouped by message ID, plus merged operators for plain
    (un-indexed) observations -- the union of every instance's edges --
    and the invisible edges of state ``i`` at ``inv_off[i]:inv_off[i +
    1]`` of ``inv_tgt``.  The CSR lists a state's edges by message then
    target, so the per-ID runs arrive sorted; a plain run merges
    several IDs and is sorted per source state.
    """
    offsets, msg_ids, targets = interleaved.csr_adjacency()
    messages = interleaved.indexed_messages
    code = _state_code(interleaved.num_states)
    op_by_mid: Dict[int, _Operator] = {}
    op_by_plain: Dict[Message, _Operator] = {}
    inv_off = array("q", [0])
    inv_tgt = array("q")
    for sid in range(len(offsets) - 1):
        plain_runs: Dict[Message, List[int]] = {}
        for e in range(offsets[sid], offsets[sid + 1]):
            mid = msg_ids[e]
            t = targets[e]
            if not visible_mid[mid]:
                inv_tgt.append(t)
                continue
            op = op_by_mid.get(mid)
            if op is None:
                op = op_by_mid[mid] = _Operator(array(code), array(code))
            op.src.append(sid)
            op.tgt.append(t)
            plain_runs.setdefault(messages[mid].message, []).append(t)
        inv_off.append(len(inv_tgt))
        for message, run in plain_runs.items():
            op = op_by_plain.get(message)
            if op is None:
                op = op_by_plain[message] = _Operator(
                    array(code), array(code)
                )
            run.sort()
            op.src.fromlist([sid] * len(run))
            op.tgt.fromlist(run)
    for op in (*op_by_mid.values(), *op_by_plain.values()):
        op.seal(False)
    return op_by_mid, op_by_plain, inv_off, inv_tgt


def _split_edges_numpy(
    interleaved: InterleavedFlow, visible_mid: Sequence[bool]
):
    """:func:`_split_edges_python` on whole arrays (``inv_off`` is
    int64, ``inv_tgt`` keeps the product's target width).

    The invisible-edge CSR is a mask of the product's.  The visible
    edges are sorted once by ``(source, target)``; an operator is then
    a mask of its message IDs, so every run stays in that order.  The
    product's tables are read in their stored widths; the visible
    targets are widened as they are gathered.
    """
    offsets, msg_ids, targets = map(view, interleaved.csr_adjacency())
    n = offsets.size - 1
    source = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(offsets))
    shown = _np.asarray(visible_mid, dtype=bool)[msg_ids]
    hidden = ~shown
    inv_off = _np.concatenate(([0], _np.cumsum(hidden)))[offsets]
    inv_tgt = targets[hidden]
    src, mid = source[shown], msg_ids[shown]
    tgt = targets[shown].astype(_np.int64)
    order = _np.argsort(src * n + tgt)
    src, mid, tgt = src[order], mid[order], tgt[order]
    ids_of: Dict[Message, List[int]] = {}
    for m, indexed in enumerate(interleaved.indexed_messages):
        if visible_mid[m]:
            ids_of.setdefault(indexed.message, []).append(m)
    op_by_mid: Dict[int, _Operator] = {}
    op_by_plain: Dict[Message, _Operator] = {}
    # every message ID in the table labels at least one edge
    for message, ids in ids_of.items():
        union = _np.zeros(mid.size, dtype=bool)
        for m in ids:
            edges = mid == m
            op_by_mid[m] = _sealed_operator(src[edges], tgt[edges], n)
            union |= edges
        op_by_plain[message] = _sealed_operator(src[union], tgt[union], n)
    return op_by_mid, op_by_plain, inv_off, inv_tgt


def _sealed_operator(src, tgt, num_states: int) -> _Operator:
    """An operator holding the edge arrays *src* and *tgt* in the state
    width of a *num_states*-state product, sealed for the numpy
    backend."""
    op = _Operator(table(src, num_states - 1), table(tgt, num_states - 1))
    op.seal(True)
    return op


def _column_sums(levels, inv_off, inv_tgt, dtype):
    """The closure matrix's column sums without the matrix: the number
    of invisible paths (of length >= 1) that end at each state, pushed
    along the invisible edges from the highest level down -- every
    predecessor of a state sits on a higher level."""
    into = _np.zeros(inv_off.size - 1, dtype=dtype)
    for sources in reversed(levels[1:]):
        degree, succ = level_edges(sources, inv_off, inv_tgt)
        _np.add.at(into, succ, _np.repeat(into[sources] + 1, degree))
    return into


def _column_sums_python(levels, inv_off, inv_tgt) -> List[int]:
    """:func:`_column_sums` in exact big-int arithmetic, one edge at a
    time."""
    into = [0] * (len(inv_off) - 1)
    for sources in reversed(levels[1:]):
        for sid in sources:
            paths = into[sid] + 1
            for e in range(inv_off[sid], inv_off[sid + 1]):
                into[inv_tgt[e]] += paths
    return into


def _closure_python(levels, inv_off, inv_tgt):
    """The invisible-closure rows in exact big-int arithmetic, level by
    level: a state's row is its invisible successors plus their
    finished rows, read back from the buffers.

    Returns ``(row_lo, row_hi, ctgt, cweight, max_column)``: row ``i``
    is ``ctgt``/``cweight[row_lo[i]:row_hi[i]]``, sorted by target, and
    ``max_column`` is the largest column sum, counted before the first
    row so that it picks the weights' typecode (:func:`_closure_columns`).
    ``cweight`` turns into a list of exact weights if one exceeds
    int64.  The row bounds take their width from the entry count once
    the last row is in.
    """
    n = len(inv_off) - 1
    max_column = max(
        _column_sums_python(levels, inv_off, inv_tgt), default=0
    )
    row_lo = array("q", bytes(8 * n))
    row_hi = array("q", bytes(8 * n))
    ctgt, cweight = _closure_columns(n, max_column)
    for sources in levels[1:]:
        for sid in sources:
            row: Dict[int, int] = {}
            for e in range(inv_off[sid], inv_off[sid + 1]):
                t = inv_tgt[e]
                row[t] = row.get(t, 0) + 1
                lo, hi = row_lo[t], row_hi[t]
                for j, w in zip(ctgt[lo:hi], cweight[lo:hi]):
                    row[j] = row.get(j, 0) + w
            keys = sorted(row)
            weights = [row[j] for j in keys]
            row_lo[sid] = len(ctgt)
            ctgt.fromlist(keys)
            row_hi[sid] = len(ctgt)
            if isinstance(cweight, array):
                try:
                    cweight.fromlist(weights)  # all or nothing
                except OverflowError:
                    # a closure weight exceeds int64 (astronomical
                    # products): keep exact big-int weights instead;
                    # the overflow guard then rules numpy out
                    cweight = cweight.tolist()
            if isinstance(cweight, list):
                cweight.extend(weights)
    entries = len(ctgt)
    return (
        table(row_lo, entries), table(row_hi, entries), ctgt, cweight,
        max_column,
    )


def _closure_columns(num_states: int, max_column: int):
    """The empty closure target and weight buffers: the targets in the
    state width, the weights in the width of the largest column sum
    (every weight is at most its column's sum), 8 bytes at most."""
    return (
        array(_state_code(num_states)),
        array(narrowest(max_column) or "q"),
    )


def _closure_numpy(levels, inv_off, inv_tgt):
    """:func:`_closure_python` on whole arrays, in int64 (the caller
    has ruled out overflow).

    Each level is compiled in source-aligned chunks of about
    :data:`_COMPILE_CHUNK` gathered entries (:func:`_append_rows`), so
    the intermediates stay bounded and the rows go straight into the
    final buffers.  The row bounds are int64 arrays until the last row
    is in, then take their width from the entry count.
    """
    n = inv_off.size - 1
    max_column = int(
        _column_sums(levels, inv_off, inv_tgt, _np.int64).max(initial=0)
    )
    ctgt, cweight = _closure_columns(n, max_column)
    lo_of = _np.zeros(n, dtype=_np.int64)
    hi_of = _np.zeros(n, dtype=_np.int64)
    for sources in levels[1:]:
        degree, succ = level_edges(sources, inv_off, inv_tgt)
        edge_end = _np.cumsum(degree)
        # entries gathered through each source: every successor plus
        # its finished row
        reach = _np.cumsum(1 + hi_of[succ] - lo_of[succ])[edge_end - 1]
        start = 0
        while start < sources.size:
            done = int(reach[start - 1]) if start else 0
            stop = max(
                start + 1,
                int(_np.searchsorted(reach, done + _COMPILE_CHUNK, "right")),
            )
            edges = slice(
                int(edge_end[start] - degree[start]), int(edge_end[stop - 1])
            )
            _append_rows(
                sources[start:stop], degree[start:stop], succ[edges],
                lo_of, hi_of, ctgt, cweight,
            )
            start = stop
    entries = len(ctgt)
    return (
        table(lo_of, entries), table(hi_of, entries), ctgt, cweight,
        max_column,
    )


def _append_rows(sources, degree, succ, lo_of, hi_of, ctgt, cweight):
    """Compile the rows of *sources* (ascending; ``degree[i]`` of the
    successors *succ* belong to ``sources[i]``) from their successors'
    finished rows, append them to ``ctgt``/``cweight`` and record their
    bounds in ``lo_of``/``hi_of``.

    Every edge contributes its target with weight 1 plus its target's
    row; sorting the ``(source, target)`` keys and summing duplicates
    gives the rows, in source then target order.  The finished rows
    are gathered in their stored widths and widened, the sums run in
    int64, and each buffer gets them in its own width.
    """
    n = lo_of.size
    owner = _np.repeat(sources * n, degree)
    lo = lo_of[succ]
    counts = hi_of[succ] - lo
    sel = expand_runs(lo, counts, int(counts.sum()))
    # the buffers cannot grow while these views of them exist
    finished_tgt = _np.frombuffer(ctgt, dtype=ctgt.typecode)
    finished_weight = _np.frombuffer(cweight, dtype=cweight.typecode)
    keys = _np.concatenate(
        (
            owner + succ,
            _np.repeat(owner, counts) + finished_tgt[sel].astype(_np.int64),
        )
    )
    weights = _np.concatenate(
        (
            _np.ones(succ.size, dtype=_np.int64),
            finished_weight[sel].astype(_np.int64),
        )
    )
    # the gathers are spent: drop them before the sort allocates
    del finished_tgt, finished_weight, owner, lo, counts, sel
    order = _np.argsort(keys)
    keys = keys[order]
    heads = _np.flatnonzero(_np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = _np.add.reduceat(weights[order], heads)
    keys = keys[heads]
    owners = keys // n
    at = len(ctgt)
    row_start = at + _np.searchsorted(owners, sources)
    lo_of[sources] = row_start
    hi_of[sources] = _np.append(row_start[1:], at + keys.size)
    for buf, values in ((ctgt, keys - owners * n), (cweight, sums)):
        buf.frombytes(values.astype(buf.typecode, copy=False).view(_np.uint8))


class CompiledTables:
    """The compiled localization tables of one ``(scenario, visible
    set)``.

    Immutable after construction, so one instance is safely shared
    across every session and shard localizing the same scenario.
    Every table is stored once, in a flat :class:`array.array` buffer
    of the narrowest exact width (:func:`repro.core.arrays.narrowest`):
    the operators and closure targets by the state count, the closure
    weights by the largest column sum, the row bounds by the entry
    count.  The pure-Python kernels index them directly and the numpy
    backend reads them through zero-copy read-only views, widening
    what it gathers to int64.  Built by
    :class:`TableRegistry`; the heavy part is the invisible-closure
    transitive path-count matrix, computed once here instead of being
    re-walked per observed symbol.

    The closure is compiled on the height-level schedule of the
    invisible edges (:func:`repro.core.arrays.height_levels`): a
    state's row is its invisible successors plus their rows, all on
    lower levels.  Every entry and
    partial sum is bounded by its column's sum, the number of
    invisible paths ending there, so the numpy route
    (:func:`_closure_numpy`) runs in int64 only when a float64 count
    of the column sums stays below :data:`_NUMPY_COMPILE_BOUND`; the
    exact big-int route (:func:`_closure_python`) covers the rest and
    the no-numpy backend.  Both give bit-identical tables.
    ``int64_limit`` is the largest frontier weight one numpy step may
    start from without overflowing: ``INT64_MAX`` divided by the
    largest operator fan-in times one plus the largest column sum,
    or 0 when that product itself exceeds int64.
    """

    def __init__(
        self, interleaved: InterleavedFlow, visible_mid: Sequence[bool]
    ) -> None:
        self.num_states = interleaved.num_states
        self._numpy = have_numpy()

        # the visible edges become the per-symbol operators; the
        # invisible ones, as a CSR of their own, feed the closure
        # compile.  Both closure routes run the height-level schedule,
        # so a level reads only finished rows of lower levels.
        if self._numpy:
            self.op_by_mid, self.op_by_plain, inv_off, inv_tgt = (
                _split_edges_numpy(interleaved, visible_mid)
            )
            levels = height_levels(inv_off, inv_tgt)
            # int64 is exact while the closure's column sums (which
            # bound every entry and partial sum) fit; their float64
            # count must leave a factor-two margin, else the exact
            # big-int route takes over
            bound = _column_sums(levels, inv_off, inv_tgt, _np.float64)
            if bound.max(initial=0.0) < _NUMPY_COMPILE_BOUND:
                closure = _closure_numpy(levels, inv_off, inv_tgt)
            else:
                closure = _closure_python(
                    [level.tolist() for level in levels],
                    inv_off.tolist(),
                    inv_tgt.tolist(),
                )
        else:
            self.op_by_mid, self.op_by_plain, inv_off, inv_tgt = (
                _split_edges_python(interleaved, visible_mid)
            )
            levels = height_levels_python(
                interleaved.topological_ids(), inv_off, inv_tgt
            )
            closure = _closure_python(levels, inv_off, inv_tgt)
        operators = [*self.op_by_mid.values(), *self.op_by_plain.values()]
        row_lo, row_hi, ctgt, cweight, max_column = closure
        self.closure_entries = len(ctgt)
        self._row_lo = row_lo
        self._row_hi = row_hi
        self._ctgt = ctgt
        self._cweight = cweight

        # exact int64-overflow guard: one advance multiplies the peak
        # weight by at most step_growth (matched scatter-add) and then
        # by closure_growth (worst closure column sum plus the
        # identity term)
        step_growth = max((op.growth for op in operators), default=0)
        closure_growth = 1 + max_column
        growth = max(1, step_growth) * closure_growth
        self.int64_limit = (
            _INT64_MAX // growth if growth <= _INT64_MAX else 0
        )
        self._closure_views = (
            tuple(map(view, (row_lo, row_hi, ctgt, cweight)))
            if self._numpy and self.int64_limit
            else None
        )

        self.nbytes = sum(op.nbytes for op in operators) + sum(
            map(table_bytes, (row_lo, row_hi, ctgt, cweight))
        )

        # content-keyed step memo: sessions localizing the same
        # scenario share not just the tables but the hot DP steps --
        # concurrent streams overlap heavily on the wide early
        # frontiers, which are exactly the expensive ones.  Keys are
        # the raw frontier bytes plus the operator's identity, so a
        # hit is exact by construction; results are frozen read-only.
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
                hit = self._memo.get(key)
                if hit is not None:
                    self._memo.move_to_end(key)
                    perf.add("localize_step_memo_hits")
                    return hit
                perf.add("localize_step_memo_misses")
                result = self._advance_numpy(ids, vals, op)
                for pair in (result.matched, result.closed):
                    pair[0].flags.writeable = False
                    pair[1].flags.writeable = False
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

        Small gathers use :func:`reduce_by_id`; wide ones (the
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
            nz = _np.flatnonzero((lo_sum + hi_sum) != 0)
            sums = (hi_sum[nz].astype(_np.int64) << 31) + lo_sum[nz].astype(
                _np.int64
            )
            return nz, sums
        return reduce_by_id(ids, weights)

    def _advance_numpy(self, ids, vals, op: _Operator) -> _StepResult:
        src, tgt = op.views
        # the live IDs in the operator's width: a needle of another
        # dtype would make numpy cast the whole operator every step
        needle = ids.astype(src.dtype, copy=False)
        lo = _np.searchsorted(src, needle, side="left")
        hi = _np.searchsorted(src, needle, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            empty = _np.empty(0, dtype=_np.int64)
            if perf.enabled():
                perf.add("localize_kernel_edges", int(ids.size))
            return _StepResult((empty, empty), (empty, empty), 0)
        sel = expand_runs(lo, counts, total)
        m_ids, m_vals = self._reduce(
            tgt[sel].astype(_np.int64), _np.repeat(vals, counts)
        )
        # closure expansion over the matched states' precomputed rows,
        # each gathered column widened to int64
        row_lo, row_hi, ctgt, cweight = self._closure_views
        clo = row_lo[m_ids].astype(_np.int64)
        ccounts = row_hi[m_ids] - clo
        ctotal = int(ccounts.sum())
        if ctotal:
            csel = expand_runs(clo, ccounts, ctotal)
            c_ids, c_vals = self._reduce(
                _np.concatenate((m_ids, ctgt[csel].astype(_np.int64))),
                _np.concatenate(
                    (
                        m_vals,
                        cweight[csel].astype(_np.int64)
                        * _np.repeat(m_vals, ccounts),
                    )
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
        src, tgt = op.src, op.tgt
        for s, w in closed_vec.items():
            lo = bisect_left(src, s)
            hi = bisect_right(src, s, lo)
            edges += hi - lo
            for e in range(lo, hi):
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
        row_lo, row_hi = self._row_lo, self._row_hi
        ctgt, cweight = self._ctgt, self._cweight
        for s, w in matched.items():
            lo, hi = row_lo[s], row_hi[s]
            entries += hi - lo
            for e in range(lo, hi):
                t = ctgt[e]
                closed[t] = closed.get(t, 0) + w * cweight[e]
        return closed, entries


# ----------------------------------------------------------------------
# the cross-shard registry
# ----------------------------------------------------------------------
class TableRegistry:
    """Content-addressed cache of :class:`CompiledTables`.

    Keyed by :func:`table_fingerprint`, bounded LRU.  Every
    :class:`~repro.selection.localization.PathLocalizer` resolves its
    tables here, so the debug server's shards, each with its own
    :class:`~repro.stream.session.SessionManager`, and any number of
    sessions share one read-only table set per scenario instead of
    each rebuilding it.  The first caller for a fingerprint compiles;
    a compile that raises caches nothing, so the next caller compiles
    again.  A registry, and the tables it hands out, are used by one
    thread at a time: a serving process resolves and steps them on its
    event loop.  ``stats()`` feeds the service metrics plane (``STATS``
    frame, ``/metrics``, ``repro profile --json``).
    """

    def __init__(self, max_tables: int = 32) -> None:
        if max_tables < 1:
            raise SelectionError(
                f"max_tables must be >= 1, got {max_tables}"
            )
        self._tables: "OrderedDict[str, CompiledTables]" = OrderedDict()
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
        tables = self._tables.get(key)
        if tables is not None:
            self._hits += 1
            self._tables.move_to_end(key)
            perf.add("localize_table_hits")
            return tables
        self._misses += 1
        perf.add("localize_table_misses")
        with perf.timed("localize_compile"):
            tables = CompiledTables(interleaved, visible_mid)
        self._tables[key] = tables
        while len(self._tables) > self._max_tables:
            self._tables.popitem(last=False)
            self._evictions += 1
        return tables

    def __len__(self) -> int:
        return len(self._tables)

    def clear(self) -> None:
        self._tables.clear()

    def stats(self) -> Dict[str, object]:
        """Hit/miss/byte counters for the observability plane."""
        tables = self._tables.values()
        return {
            "tables": len(tables),
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
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
