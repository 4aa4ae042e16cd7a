"""Tile Coalescing (TC) unit: per-screen-tile quad bins.

The TC unit (Section V-A) aggregates quads from fine raster into bins — one
bin per screen tile (16x16 px), 32 bins of 128 quads each (Table I) — and
flushes a bin to the PROP when (1) it is full, (2) all bins are occupied and
a quad for a new tile arrives (the oldest bin is evicted), or (3) a timeout
elapses after the last incoming quad.  The §VII-A tile-binning probe
("drawing 330 rectangles across 33 screen tiles leads to 330 warps") is a
direct consequence of rule (2) and is reproduced by this model.

Quads are stored as *indices into the draw call's quad table*, so flush
batches are cheap NumPy fancy-index views.

The unit has one reference and one fast path.  :class:`TileCoalescer`
inserts one group at a time and materialises row arrays per flush; the
scalar flush engine and the golden tests use it.
:meth:`RangeTileCoalescer.plan_groups` plans a whole group sequence in one
loop over row ranges; the batched flush engine uses it.  Both read the
timeout rule from one :class:`TimeoutTracker`, so the
``tc_flush_timeout`` accounting cannot drift between the two engines.

The (tile, start, end) group sequences both consume are the
workload's (prim, tile) ranges — derived from the stream's
:class:`~repro.render.frameir.FrameIR` chunklet runs when present, or
from the legacy quad-table reductions — so the planners themselves never
touch per-fragment data.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np


class FlushBatch:
    """One TC-bin flush: the quads of a single screen tile, in order."""

    __slots__ = ("tile_id", "quad_rows", "reason")

    def __init__(self, tile_id, quad_rows, reason):
        self.tile_id = tile_id
        self.quad_rows = quad_rows
        self.reason = reason

    def __len__(self):
        return self.quad_rows.shape[0]

    def __repr__(self):
        return (f"FlushBatch(tile={self.tile_id}, quads={len(self)}, "
                f"reason={self.reason!r})")


class TimeoutTracker:
    """The TC timeout rule, shared by every coalescer implementation.

    Tracks per-tile last-arrival clocks; :meth:`expired` returns the tiles
    whose bins idled for ``timeout_quads`` or more quads, in bin-age order
    (the order the owning coalescer's ``_bins`` dict yields them) — exactly
    the scan the scalar and range coalescers used to duplicate.  With
    ``timeout_quads=None`` every call is a cheap no-op.
    """

    __slots__ = ("timeout_quads", "clock", "last_arrival")

    def __init__(self, timeout_quads):
        if timeout_quads is not None and timeout_quads <= 0:
            raise ValueError("timeout_quads must be positive or None")
        self.timeout_quads = timeout_quads
        self.clock = 0
        self.last_arrival = {}

    @property
    def enabled(self):
        return self.timeout_quads is not None

    def arrive(self, tile_id, n_quads):
        """Advance the clock by ``n_quads`` landing in ``tile_id``'s bin."""
        self.clock += n_quads
        self.last_arrival[tile_id] = self.clock

    def drop(self, tile_id):
        self.last_arrival.pop(tile_id, None)

    def expired(self, bins):
        """Tiles of ``bins`` idle past the timeout, in bin-age order."""
        if self.timeout_quads is None:
            return ()
        clock = self.clock
        timeout = self.timeout_quads
        last = self.last_arrival
        return [tile for tile in bins
                if clock - last[tile] >= timeout]


class TileCoalescer:
    """Exact-bin-dynamics model of the TC unit.

    Parameters
    ----------
    n_bins, bin_capacity:
        Table I: 32 bins x 128 quads.
    timeout_quads:
        Optional timeout model: a bin idle while this many quads (for other
        tiles) stream past is flushed.  ``None`` disables the rule (the
        capacity/eviction rules dominate for splatting workloads); the
        microbenchmarks enable it to mimic idle-flush behaviour.
    """

    FLUSH_FULL = "full"
    FLUSH_EVICT = "evict"
    FLUSH_TIMEOUT = "timeout"
    FLUSH_FINAL = "final"

    def __init__(self, n_bins=32, bin_capacity=128, timeout_quads=None):
        if n_bins <= 0 or bin_capacity <= 0:
            raise ValueError("n_bins and bin_capacity must be positive")
        self.n_bins = int(n_bins)
        self.bin_capacity = int(bin_capacity)
        self._timeout = TimeoutTracker(timeout_quads)
        # tile_id -> dict(chunks=[index arrays], count)
        self._bins = OrderedDict()
        self.flush_counts = {self.FLUSH_FULL: 0, self.FLUSH_EVICT: 0,
                             self.FLUSH_TIMEOUT: 0, self.FLUSH_FINAL: 0}
        self.quads_inserted = 0

    @property
    def timeout_quads(self):
        return self._timeout.timeout_quads

    # ------------------------------------------------------------------

    def _make_batch(self, tile_id, entry, reason):
        self.flush_counts[reason] += 1
        self._timeout.drop(tile_id)
        rows = (np.concatenate(entry["chunks"]) if len(entry["chunks"]) > 1
                else entry["chunks"][0])
        return FlushBatch(tile_id, rows, reason)

    def _check_timeouts(self):
        flushed = []
        for tile in self._timeout.expired(self._bins):
            entry = self._bins.pop(tile)
            flushed.append(self._make_batch(tile, entry, self.FLUSH_TIMEOUT))
        return flushed

    def insert(self, tile_id, quad_rows):
        """Insert the quads of one (primitive, tile) group.

        ``quad_rows`` is an int array of quad-table row indices, in
        rasteriser emission order.  Returns flushed batches (possibly
        several if the group overflows the bin capacity repeatedly).
        """
        quad_rows = np.asarray(quad_rows)
        if quad_rows.ndim != 1:
            raise ValueError("quad_rows must be a 1-D index array")
        flushed = self._check_timeouts()
        bins = self._bins
        offset = 0
        n = quad_rows.shape[0]
        self.quads_inserted += n
        while offset < n:
            if tile_id not in bins:
                if len(bins) >= self.n_bins:
                    old_tile, old_entry = bins.popitem(last=False)
                    flushed.append(self._make_batch(old_tile, old_entry,
                                                    self.FLUSH_EVICT))
                bins[tile_id] = {"chunks": [], "count": 0}
                self._timeout.arrive(tile_id, 0)
            entry = bins[tile_id]
            space = self.bin_capacity - entry["count"]
            take = min(space, n - offset)
            if take > 0:
                entry["chunks"].append(quad_rows[offset:offset + take])
                entry["count"] += take
                offset += take
                self._timeout.arrive(tile_id, take)
            if entry["count"] >= self.bin_capacity:
                bins.pop(tile_id)
                flushed.append(self._make_batch(tile_id, entry, self.FLUSH_FULL))
        # Quads streaming past other tiles' bins advance their idle clocks.
        flushed.extend(self._check_timeouts())
        return flushed

    def insert_groups(self, tile_ids, starts, ends, quad_rows):
        """Batch-insert a run of (primitive, tile) groups in draw order.

        ``tile_ids``, ``starts`` and ``ends`` are parallel arrays (one entry
        per group); group ``g`` inserts ``quad_rows[starts[g]:ends[g]]``
        into ``tile_ids[g]``'s bin.  Yields :class:`FlushBatch` objects in
        the exact order sequential :meth:`insert` calls would produce them —
        bin dynamics are identical; only the per-group Python overhead
        (index-array allocation, list plumbing) goes away, since groups
        slice one shared row array.
        """
        for tile_id, s, e in zip(tile_ids, starts, ends):
            yield from self.insert(int(tile_id), quad_rows[s:e])

    def drain(self):
        """Flush every residual bin in age order (end of draw)."""
        flushed = []
        while self._bins:
            tile_id, entry = self._bins.popitem(last=False)
            flushed.append(self._make_batch(tile_id, entry, self.FLUSH_FINAL))
        return flushed

    @property
    def occupancy(self):
        return len(self._bins)


class RangeTileCoalescer:
    """Range-level TC flush *planner* with :class:`TileCoalescer` dynamics.

    The pipeline always feeds the TC unit contiguous quad-table row ranges
    — every (primitive, tile) group is a slice ``[start, end)`` of the
    draw's row space, and bin overflow only ever splits a range into
    subranges — so the entire flush schedule can be computed without
    materialising a single row array.  Bins hold ``(start, end)`` pairs,
    and each flush appends its ranges to flat segment arrays from which
    :class:`~repro.hwmodel.flushplan.FlushPlan` later expands the row
    stream in one vectorised pass.

    Feeding the same group sequence to :class:`TileCoalescer` produces the
    identical flush sequence (tile, cause, and quad rows); the golden
    flush-engine tests enforce this equivalence on every variant.
    """

    def __init__(self, n_bins=32, bin_capacity=128, timeout_quads=None):
        if n_bins <= 0 or bin_capacity <= 0:
            raise ValueError("n_bins and bin_capacity must be positive")
        self.n_bins = int(n_bins)
        self.bin_capacity = int(bin_capacity)
        self._timeout = TimeoutTracker(timeout_quads)
        # tile_id -> [count, seg_starts, seg_ends]
        self._bins = OrderedDict()
        self.flush_counts = {
            TileCoalescer.FLUSH_FULL: 0, TileCoalescer.FLUSH_EVICT: 0,
            TileCoalescer.FLUSH_TIMEOUT: 0, TileCoalescer.FLUSH_FINAL: 0,
        }
        self.quads_inserted = 0
        # Flat plan accumulators (one entry per flush / per row segment).
        self.flush_tile = []
        self.flush_reason = []
        self.seg_starts = []
        self.seg_ends = []
        self.flush_seg_bounds = [0]

    @property
    def timeout_quads(self):
        return self._timeout.timeout_quads

    # ------------------------------------------------------------------

    def _flush(self, tile_id, entry, reason):
        self.flush_counts[reason] += 1
        self._timeout.drop(tile_id)
        self.flush_tile.append(tile_id)
        self.flush_reason.append(reason)
        self.seg_starts.extend(entry[1])
        self.seg_ends.extend(entry[2])
        self.flush_seg_bounds.append(len(self.seg_starts))

    def plan_groups(self, tile_ids, starts, ends):
        """Plan a run of (primitive, tile) groups, in draw order.

        Produces :class:`TileCoalescer`'s flush schedule for the same
        groups bit for bit, in one pass with hoisted locals.  Repeated
        tile runs (consecutive groups landing in the same bin, common
        under TGC grid grouping) reuse the resolved bin entry.  With the
        timeout rule on, each group advances the shared
        :class:`TimeoutTracker` by its quads and the bins it left idle
        flush right after it, where :meth:`TileCoalescer.insert` checks
        them (its check before a group never fires: nothing has advanced
        the clock since the previous group's check).
        """
        tiles = tile_ids.tolist() if hasattr(tile_ids, "tolist") else tile_ids
        start_l = starts.tolist() if hasattr(starts, "tolist") else starts
        end_l = ends.tolist() if hasattr(ends, "tolist") else ends
        bins = self._bins
        capacity = self.bin_capacity
        n_bins = self.n_bins
        flush = self._flush
        full = TileCoalescer.FLUSH_FULL
        evict = TileCoalescer.FLUSH_EVICT
        timed_out = TileCoalescer.FLUSH_TIMEOUT
        timeout = self._timeout
        timed = timeout.enabled
        get = bins.get
        popitem = bins.popitem
        total = 0
        run_tile = None  # current same-tile run's resolved bin entry
        entry = None
        for tile_id, start, end in zip(tiles, start_l, end_l):
            n = end - start
            total += n
            if tile_id != run_tile or entry is None:
                run_tile = tile_id
                entry = get(tile_id)
            offset = 0
            while offset < n:
                if entry is None:
                    if len(bins) >= n_bins:
                        old_tile, old_entry = popitem(last=False)
                        flush(old_tile, old_entry, evict)
                    entry = bins[tile_id] = [0, [], []]
                take = capacity - entry[0]
                rest = n - offset
                if rest < take:
                    take = rest
                if take > 0:
                    entry[1].append(start + offset)
                    entry[2].append(start + offset + take)
                    entry[0] += take
                    offset += take
                if entry[0] >= capacity:
                    del bins[tile_id]
                    flush(tile_id, entry, full)
                    entry = None
            if timed and n:
                timeout.arrive(tile_id, n)
                for tile in timeout.expired(bins):
                    flush(tile, bins.pop(tile), timed_out)
                run_tile = None
        self.quads_inserted += total

    def drain(self):
        """Plan the end-of-draw flush of every residual bin, in age order."""
        while self._bins:
            tile_id, entry = self._bins.popitem(last=False)
            self._flush(tile_id, entry, TileCoalescer.FLUSH_FINAL)

    @property
    def occupancy(self):
        return len(self._bins)
