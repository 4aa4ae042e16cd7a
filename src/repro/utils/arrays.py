"""Segmented (per-group) array reductions on sorted segment ids.

The functional rendering core groups millions of fragments by pixel and needs
per-pixel prefix products of transmittance and per-pixel sums of weighted
colours.  These helpers implement the classic "segmented scan" primitives on
top of NumPy: all of them take a ``segment_ids`` array that must be sorted
ascending (fragments are lexsorted by pixel first), and operate within each
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


def segmented_sum(values, segment_ids, starts=None):
    """Sum ``values`` within each segment; returns one value per segment.

    ``values`` may be 1-D ``(n,)`` or 2-D ``(n, k)`` (summed per column).
    """
    values = np.asarray(values)
    if starts is None:
        starts = segment_boundaries(segment_ids)
    if values.shape[0] == 0:
        shape = (0,) if values.ndim == 1 else (0, values.shape[1])
        return np.empty(shape, dtype=values.dtype)
    # repro-lint: ok(R1): reference helper, no golden-path float callers; grouping stable per layout
    return np.add.reduceat(values, starts, axis=0)


def segmented_cumsum(values, segment_ids, starts=None):
    """Inclusive prefix sum of ``values`` restarting at each segment start."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    if starts is None:
        starts = segment_boundaries(segment_ids)
    total = np.cumsum(values)
    # Subtract the running total just before each segment start so each
    # segment's scan begins from zero.  The per-segment offset is broadcast
    # to every element of the segment with ``np.repeat``.
    lengths = np.diff(np.concatenate((starts, [values.shape[0]])))
    per_segment = np.concatenate(([0.0], total[starts[1:] - 1])) if starts.size else np.empty(0)
    offsets = np.repeat(per_segment, lengths)
    return total - offsets


def sliced_cumsum(values, bounds, out=None):
    """Inclusive prefix sums restarted at each slice boundary — computed
    with a *genuine* per-slice ``np.cumsum``, not the global-cumsum-minus-
    offset trick of :func:`segmented_cumsum`.

    The distinction matters for determinism, not speed: the subtraction
    trick makes every element's rounding depend on all preceding slices,
    while a true per-slice scan depends only on the slice's own content.
    The IR digestion path's arrival chain scans per scanline, and the
    golden suites pin the floats that order produces — so slice count
    here is the number of scanlines (hundreds), and the Python loop costs
    microseconds per slice.

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


def segmented_cumprod_exclusive(values, segment_ids, starts=None):
    """Exclusive prefix product within each segment.

    Element ``i`` of the result is the product of all *earlier* values in the
    same segment (1.0 for the first element of a segment).  This is exactly
    the transmittance term ``prod_{j<i} (1 - alpha_j)`` of front-to-back
    alpha blending.

    Values must be positive; zeros are clamped to a tiny epsilon so the
    computation can run in log space without producing ``-inf`` (a fragment
    with alpha exactly 1 terminates its pixel, and the clamp keeps downstream
    transmittance at ~1e-30 which is exactly zero for rendering purposes).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    if starts is None:
        starts = segment_boundaries(segment_ids)
    clamped = np.maximum(values, 1e-30)
    logs = np.log(clamped)
    inclusive = segmented_cumsum(logs, segment_ids, starts=starts)
    exclusive = inclusive - logs
    return np.exp(exclusive)


def segmented_first_index_where(mask, segment_ids, starts=None):
    """Per-segment index (local rank) of the first True in ``mask``.

    Returns an int64 array with one entry per segment; segments with no True
    entries get the segment length (i.e. "never"), which makes the result
    directly usable as a per-pixel blended-fragment count under early
    termination.
    """
    mask = np.asarray(mask, dtype=bool)
    segment_ids = np.asarray(segment_ids)
    if starts is None:
        starts = segment_boundaries(segment_ids)
    n_segments = starts.size
    if mask.size == 0:
        return np.empty(0, dtype=np.int64)
    lengths = np.diff(np.concatenate((starts, [mask.size])))
    # Global index of the first True per segment via a minimum-reduction over
    # candidate indices (non-True entries get a sentinel beyond the array).
    candidates = np.where(mask, np.arange(mask.size, dtype=np.int64), np.int64(mask.size))
    first_global = np.minimum.reduceat(candidates, starts)
    local = first_global - starts
    none_found = first_global >= starts + lengths
    local[none_found] = lengths[none_found]
    return local
