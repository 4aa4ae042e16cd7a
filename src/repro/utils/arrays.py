"""Segmented (per-group) array scans and small array helpers.

The functional rendering core groups millions of fragments by pixel and
scans each group, e.g. the per-pixel arrival alpha of front-to-back
blending.  The segment helpers implement the classic "segmented scan"
primitives on top of NumPy: they take a ``segment_ids`` array sorted
ascending (or its segment ``starts``/slice bounds) and operate within each
run of equal ids.
"""

from __future__ import annotations

import numpy as np


def popcount4(masks):
    """Population count of 4-bit coverage masks (vectorised).

    Shared by the hardware-unit models and the FrameIR group derivation
    (one implementation, so mask-width changes cannot diverge).
    """
    masks = np.asarray(masks)
    return ((masks & 1) + ((masks >> 1) & 1)
            + ((masks >> 2) & 1) + ((masks >> 3) & 1))


def ndarray_bytes(*objs):
    """Total ``nbytes`` of the distinct ndarrays reachable from ``objs``.

    Walks dicts, lists, tuples and object attributes (``__dict__`` and
    ``__slots__``); an array reached along several paths counts once.
    Callers pass only objects whose reachable graph they own.
    """
    seen = set()
    total = 0
    stack = list(objs)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += int(obj.nbytes)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif not isinstance(obj, (int, float, str, bytes, np.generic)):
            stack.extend(vars(obj).values() if hasattr(obj, "__dict__")
                         else ())
            for cls in type(obj).__mro__:
                stack.extend(getattr(obj, name, None)
                             for name in getattr(cls, "__slots__", ()))
    return total


def segment_boundaries(segment_ids):
    """Return ``starts`` indices of each segment in a sorted id array.

    ``segment_ids`` must be 1-D and sorted ascending.  The result is suitable
    for ``np.add.reduceat`` and friends.  An empty input yields an empty
    index array.
    """
    segment_ids = np.asarray(segment_ids)
    if segment_ids.ndim != 1:
        raise ValueError(f"segment_ids must be 1-D, got shape {segment_ids.shape}")
    if segment_ids.size == 0:
        return np.empty(0, dtype=np.int64)
    is_start = np.empty(segment_ids.shape, dtype=bool)
    is_start[0] = True
    np.not_equal(segment_ids[1:], segment_ids[:-1], out=is_start[1:])
    return np.flatnonzero(is_start)


def expand_segments(seg_starts, seg_ends):
    """Concatenate ``arange(s, e)`` for every segment, vectorised.

    Returns ``(rows, offsets)``: the concatenated indices and the
    ``(n_segments + 1,)`` offsets of each segment in them.
    """
    starts = np.asarray(seg_starts, dtype=np.int64)
    ends = np.asarray(seg_ends, dtype=np.int64)
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(lengths)))
    rows = (np.arange(total, dtype=np.int64)
            + np.repeat(starts - offsets[:-1], lengths))
    return rows, offsets


def sliced_cumsum(values, bounds, out=None):
    """Inclusive prefix sums restarted at each slice boundary — computed
    with a *genuine* per-slice ``np.cumsum``, not a global cumsum minus
    per-slice offsets.

    The distinction matters for determinism, not speed: the subtraction
    trick makes every element's rounding depend on all preceding slices,
    while a true per-slice scan depends only on the slice's own content.
    The arrival chain scans per scanline, and the golden suites pin the
    floats that order produces — so slice count here is the number of
    scanlines (hundreds), and the Python loop costs microseconds per
    slice.

    ``bounds`` is an int array of slice offsets ``[b0, b1, ..., bk]`` with
    ``b0 == 0`` and ``bk == len(values)``.
    """
    values = np.asarray(values, dtype=np.float64)
    if out is None:
        out = np.empty_like(values)
    for i in range(bounds.shape[0] - 1):
        a, b = bounds[i], bounds[i + 1]
        np.cumsum(values[a:b], out=out[a:b])
    return out
