"""The optional numpy backend: one switch and the shared array helpers.

numpy is optional.  The interleaved product (:mod:`repro.core.interleave`),
the information model (:mod:`repro.core.information`), the visibility
bitsets (:mod:`repro.core.visibility`) and the localization kernels
(:mod:`repro.selection.kernels`) each have a whole-array route and an
exact pure-Python route that produce the same tables.
:func:`have_numpy` is the one switch they all consult, and
``_force_python`` is its test hook.

Every integer table those modules keep is an :class:`array.array` in
the narrowest width that holds its range -- one rule,
:func:`narrowest`, applied by both routes to a bound they already
know (a state, message or edge count, a code span, an exact count
maximum) -- so both routes lay out the same bytes.  numpy reads a
table through :func:`view`, in its stored width, and widens what it
gathers to int64 before any arithmetic: a narrow array times a
Python int keeps the narrow type and wraps, and unsigned sums are
uint64, which mixes with int64 into float64.

The helpers below are the array steps the routes share: run
expansion, sorted distinct values, reduce-by-id, and the height
levels of a CSR DAG with the per-level edge gather;
:func:`height_levels_python` is the pure-Python twin of
:func:`height_levels`.
"""

from __future__ import annotations

import os
from array import array
from typing import Optional

# Nothing in this package calls BLAS, yet OpenBLAS starts a worker
# thread per core inside ``import numpy``: one thread keeps that import
# about 0.05 s shorter and a serving process at one OS thread.  A value
# the caller set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

try:  # numpy is optional: every caller keeps a pure-Python route
    import numpy as np
except ImportError:  # pragma: no cover - exercised via _force_python
    np = None

#: Test hook: set to ``True`` to force the pure-Python routes even
#: when numpy is importable (the CI fallback leg simply has no numpy).
#: Flip it *before* building products or compiling tables -- a
#: compiled table is pinned to the backend it was compiled under.
_force_python = False


def have_numpy() -> bool:
    """Whether the numpy backend is available (and not forced off by
    the test hook)."""
    return np is not None and not _force_python


#: The table typecodes, narrowest first, each with the bound its values
#: stay below: unsigned 1 and 2 bytes, then signed 4 and 8 bytes (numpy
#: reads each with the dtype of the same name).
_WIDTHS = (("B", 1 << 8), ("H", 1 << 16), ("i", 1 << 31), ("q", 1 << 63))


def narrowest(largest: int) -> Optional[str]:
    """The typecode of the narrowest table that holds every integer
    from 0 to *largest*, or ``None`` past int64 (such a table keeps
    exact Python ints in a list)."""
    for code, bound in _WIDTHS:
        if largest < bound:
            return code
    return None


def table(values, largest: int):
    """*values* (a numpy integer array or any iterable of ints, none
    above *largest*) as a table of :func:`narrowest` width: an
    ``array``, or a list of exact ints past int64."""
    code = narrowest(largest)
    if code is None:
        return list(values)
    if np is not None and isinstance(values, np.ndarray):
        buf = array(code)
        buf.frombytes(np.ascontiguousarray(values, dtype=code).view(np.uint8))
        return buf
    return array(code, values)


def view(buf):
    """A zero-copy read-only numpy view of the table *buf* in its
    stored width (the buffer cannot be resized while it exists)."""
    values = np.frombuffer(buf, dtype=buf.typecode)
    values.flags.writeable = False
    return values


def int64_bytes(buf) -> bytes:
    """The values of the table (or int sequence) *buf* as native int64
    bytes, whatever width it stores them in."""
    if np is not None and isinstance(buf, array):
        return view(buf).astype(np.int64).tobytes()
    return array("q", buf).tobytes()


def table_bytes(buf) -> int:
    """Bytes a table holds: ``itemsize * len`` for an array, an 8-byte
    slot per value for a list of exact ints."""
    return buf.itemsize * len(buf) if isinstance(buf, array) else 8 * len(buf)


def expand_runs(lo, counts, total: int):
    """Indices selecting, for every row ``i``, the half-open run
    ``[lo[i], lo[i] + counts[i])`` -- the vectorized equivalent of a
    per-row inner loop (repeat/cumsum index expansion).  *counts* must
    be signed: an unsigned cumsum is uint64."""
    cum = np.cumsum(counts)
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(cum - counts, counts)
        + np.repeat(lo, counts)
    )


def sorted_unique(values):
    """The distinct *values*, ascending: a sort plus a neighbour mask
    (``np.unique`` takes a slower hash path on int64 in numpy 2.x, and
    on floats imports ``numpy.ma``)."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def reduce_by_id(ids, weights):
    """Sum *weights* grouped by *ids*: sorted unique ids plus int64
    sums (exact -- ``np.add.at`` accumulates in int64, never float)."""
    uniq, inverse = np.unique(ids, return_inverse=True)
    sums = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(sums, inverse, weights)
    return uniq, sums


def height_levels(offsets, targets):
    """The states of a CSR DAG (edges of state ``i`` at
    ``targets[offsets[i]:offsets[i + 1]]``) grouped by their longest
    path to a state without successors, ascending within each level:
    a state's successors all sit on lower levels.  Peels the states
    whose successors are all levelled, one level per round (Kahn's
    algorithm over the reversed edges).  On a graph with a cycle the
    levels miss the states on and above it.  The two arrays may be
    tables of any width; the levels are int64."""
    n = offsets.size - 1
    degree = np.diff(offsets).astype(np.int64)
    preds = np.repeat(np.arange(n, dtype=np.int64), degree)[
        np.argsort(targets, kind=_sort_kind(targets))
    ]
    pred_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n), out=pred_off[1:])
    waiting = degree.copy()  # successors not levelled yet
    level = np.flatnonzero(degree == 0)
    levels = []
    while level.size:
        levels.append(level)
        lo = pred_off[level]
        counts = pred_off[level + 1] - lo
        # one hit per successor levelled this round
        touched, hits = reduce_by_id(
            preds[expand_runs(lo, counts, int(counts.sum()))], 1
        )
        waiting[touched] -= hits
        level = touched[waiting[touched] == 0]
    return levels


def _sort_kind(keys) -> str:
    """The faster ``argsort`` kind for integer *keys* whose order among
    equal keys does not matter: numpy radix-sorts 1- and 2-byte keys in
    its stable sort, several times faster than its quicksort there, and
    quicksorts wider ones faster than it merges them."""
    return "stable" if keys.itemsize <= 2 else "quicksort"


def height_levels_python(order, offsets, targets):
    """:func:`height_levels` without numpy: the levels as lists, from
    *order*, a topological order of the CSR DAG."""
    height = [0] * (len(offsets) - 1)
    for sid in reversed(order):
        level = 0
        for e in range(offsets[sid], offsets[sid + 1]):
            above = height[targets[e]] + 1
            if above > level:
                level = above
        height[sid] = level
    levels = [[] for _ in range(max(height, default=-1) + 1)]
    for sid, level in enumerate(height):
        levels[level].append(sid)
    return levels


def level_edges(sources, offsets, targets):
    """The out-degree of every state in *sources* and their successors,
    in edge order and widened to int64, from the CSR ``offsets`` (int64)
    and ``targets`` (any width)."""
    first = offsets[sources]
    degree = offsets[sources + 1] - first
    succ = targets[expand_runs(first, degree, int(degree.sum()))]
    return degree, succ.astype(np.int64)
