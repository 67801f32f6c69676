"""The optional numpy backend: one switch and the shared array helpers.

numpy is optional.  The interleaved product (:mod:`repro.core.interleave`),
the information model (:mod:`repro.core.information`), the visibility
bitsets (:mod:`repro.core.visibility`) and the localization kernels
(:mod:`repro.selection.kernels`) each have a whole-array route and an
exact pure-Python route that produce the same tables.
:func:`have_numpy` is the one switch they all consult, and
``_force_python`` is its test hook.  The helpers below are the array
steps they share: run expansion, sorted distinct values, reduce-by-id,
and the height levels of a CSR DAG with the per-level edge gather;
:func:`height_levels_python` is the pure-Python twin of
:func:`height_levels`.
"""

from __future__ import annotations

import os

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


def expand_runs(lo, counts, total: int):
    """Indices selecting, for every row ``i``, the half-open run
    ``[lo[i], lo[i] + counts[i])`` -- the vectorized equivalent of a
    per-row inner loop (repeat/cumsum index expansion)."""
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
    levels miss the states on and above it."""
    n = offsets.size - 1
    degree = np.diff(offsets)
    preds = np.repeat(np.arange(n, dtype=np.int64), degree)[
        np.argsort(targets)
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
    in edge order, from the CSR ``offsets``/``targets``."""
    first = offsets[sources]
    degree = offsets[sources + 1] - first
    return degree, targets[expand_runs(first, degree, int(degree.sum()))]
