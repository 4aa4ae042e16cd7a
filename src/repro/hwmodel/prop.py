"""PROP-side quad reordering: the Quad Reorder Unit (QRU).

The QRU (Figure 14, right) examines the quads of one TC flush in arrival
order.  It keeps one 8-bit register (valid bit + 7-bit quad id) per quad
position of the screen tile (8x8 = 64 positions).  When a quad lands on a
position whose register already holds a valid quad id, the two quads form a
*merge pair*: they are dispatched adjacently in a warp with merge flags, the
fragment shader partially blends them via warp shuffle, and a single merged
quad reaches the CROP.  Because pairs are consecutive occupants of the same
pixel positions in front-to-back order, the associativity of the blend
equation guarantees an unchanged final image.
"""

from __future__ import annotations

import numpy as np

from repro.hwmodel.tgc import CBE_POINTER_BYTES
from repro.render.fragstream import QUADS_PER_TILE_AXIS

#: Quad positions per screen tile: the QRU's registers and pairing keys.
N_QUAD_POSITIONS = QUADS_PER_TILE_AXIS ** 2


class MergePlan:
    """Result of QRU pairing for one flush batch.

    Attributes
    ----------
    first, second:
        Index arrays (into the flush batch) of pair members; ``first[i]``
        arrives before ``second[i]`` and both share a quad position.
    singles:
        Indices of quads left unmerged.
    """

    __slots__ = ("first", "second", "singles")

    def __init__(self, first, second, singles):
        self.first = first
        self.second = second
        self.singles = singles

    @property
    def n_pairs(self):
        return self.first.shape[0]

    @property
    def n_quads_out(self):
        """Quads forwarded to the CROP after merging."""
        return self.n_pairs + self.singles.shape[0]


def plan_merges(qpos):
    """Pair consecutive same-position quads, preserving arrival order.

    ``qpos`` is the per-quad position (0..63) within the flushed tile, in
    arrival order.  The sequential register-file scan of the hardware pairs
    occupants 1&2, 3&4, ... of each position; this vectorised equivalent
    produces identical pairs.
    """
    qpos = np.asarray(qpos)
    n = qpos.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return MergePlan(empty, empty, empty)
    order = np.argsort(qpos, kind="stable")     # groups positions, keeps arrival order
    sorted_pos = qpos[order]
    # Rank of each quad within its position group.
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_pos[1:], sorted_pos[:-1], out=is_start[1:])
    group_start = np.maximum.accumulate(np.where(is_start, np.arange(n), 0))
    rank = np.arange(n) - group_start
    # Even ranks with a same-group successor pair with that successor.
    has_next = np.zeros(n, dtype=bool)
    has_next[:-1] = ~is_start[1:]
    first_mask = (rank % 2 == 0) & has_next
    first = order[first_mask]
    second = order[np.flatnonzero(first_mask) + 1]
    paired = np.zeros(n, dtype=bool)
    paired[first] = True
    paired[second] = True
    singles = np.flatnonzero(~paired)
    return MergePlan(first=first.astype(np.int64),
                     second=second.astype(np.int64),
                     singles=singles.astype(np.int64))


class SegmentedMergePlan:
    """QRU pairing for *every* flush of a draw at once.

    ``first``/``second``/``singles`` are global indices into the input
    arrays; ``pairs_per_segment`` counts merge pairs per flush.  Restricted
    to one segment, the indices reproduce exactly what per-flush
    :func:`plan_merges` would return.
    """

    __slots__ = ("first", "second", "singles", "pairs_per_segment")

    def __init__(self, first, second, singles, pairs_per_segment):
        self.first = first
        self.second = second
        self.singles = singles
        self.pairs_per_segment = pairs_per_segment

    @property
    def n_pairs(self):
        return self.first.shape[0]


def plan_merges_segmented(segment_ids, qpos, n_segments):
    """Vectorised QRU pairing across many flush batches.

    ``segment_ids`` must be non-decreasing (quads grouped by flush, in
    arrival order within each flush) and ``qpos`` a quad position.
    A single stable sort over the combined ``(segment, position)`` key
    reproduces the per-flush register-file scan: within each flush,
    ``first``/``second`` list the pairs in (position, arrival) order and
    ``singles`` the unpaired quads in arrival order — exactly the order
    :func:`plan_merges` emits, which downstream CROP-tag dedup (and hence
    the exact-LRU cache replay) depends on.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    qpos = np.asarray(qpos)
    n = qpos.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return SegmentedMergePlan(empty, empty, empty,
                                  np.zeros(n_segments, dtype=np.int64))
    if int(qpos.max()) >= N_QUAD_POSITIONS:
        raise ValueError("qpos out of range for N_QUAD_POSITIONS")
    key = segment_ids * np.int64(N_QUAD_POSITIONS) + qpos
    # The combined key is bounded by n_segments * N_QUAD_POSITIONS; narrowing
    # it lets numpy's stable argsort run as an LSD radix sort instead of
    # a comparison mergesort.  Key values are unchanged, so the stable
    # order — and with it every downstream pairing — is bit-identical.
    key_bound = np.int64(n_segments) * np.int64(N_QUAD_POSITIONS)
    if key_bound <= np.iinfo(np.uint16).max:
        key = key.astype(np.uint16)
    elif key_bound <= np.iinfo(np.uint32).max:
        key = key.astype(np.uint32)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    # ``same[i]``: sorted quad ``i + 1`` shares quad ``i``'s position
    # group.  A quad pairs with its successor iff that successor is in
    # its group and its rank in the group is even.
    same = sorted_key[1:] == sorted_key[:-1]
    index = np.arange(n, dtype=np.int32 if n < 1 << 31 else np.int64)
    group_start = np.zeros(n, dtype=index.dtype)
    np.maximum.accumulate(np.where(same, 0, index[1:]), out=group_start[1:])
    first_mask = ((index[:-1] - group_start[:-1]) & 1) == 0
    first_mask &= same
    first_sorted = np.flatnonzero(first_mask)
    first = order[first_sorted]
    second = order[first_sorted + 1]
    paired = np.zeros(n, dtype=bool)
    paired[first] = True
    paired[second] = True
    singles = np.flatnonzero(~paired)
    pairs_per_segment = np.bincount(segment_ids[first], minlength=n_segments)
    return SegmentedMergePlan(first.astype(np.int64),
                              second.astype(np.int64),
                              singles.astype(np.int64),
                              pairs_per_segment.astype(np.int64))


def qru_storage_bytes(n_quad_buffer=128):
    """Table III storage cost of the quad reorder unit.

    ``(4 B CBE pointer + 6-bit quad pos.) * 128 + 64 * 1 B + 16 B = 688 B``
    for a 128-quad TC bin: a register (valid bit + 7-bit quad id) per quad
    position, and a bitmap with one bit per buffer entry.
    """
    qpos_bits = (N_QUAD_POSITIONS - 1).bit_length()
    buffer_bits = (CBE_POINTER_BYTES * 8 + qpos_bits) * n_quad_buffer
    register_bits = N_QUAD_POSITIONS * 8
    return (buffer_bits + register_bits + n_quad_buffer) // 8
