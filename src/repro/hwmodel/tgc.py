"""Tile Grid Coalescing (TGC) unit — first half of VR-Pipe's quad merging.

The TGC unit (Figure 14, left) sits between primitive distribution and the
rasteriser.  Each of its 128 bins collects up to 16 primitives intersecting
one *tile grid* (4x4 screen tiles = 64x64 px).  When a bin fills — or must
be evicted because a primitive for a new grid arrives with no bin free — the
rasteriser processes that grid's primitives back-to-back, so the downstream
TC bins receive spatially clustered quads instead of the depth-sorted
scatter, which is what creates merge opportunities.

This model keeps exact FIFO bin dynamics; each emitted group is
``(grid_id, prim_rows, reason)`` in flush order.
"""

from __future__ import annotations

from collections import OrderedDict


class TileGridCoalescer:
    """Exact-bin-dynamics model of the TGC unit.

    Parameters
    ----------
    n_bins:
        Number of bins (Table I: 128).
    bin_capacity:
        Primitives per bin (Table I: 16).

    Use :meth:`insert` per (primitive, grid) pair in draw order and
    :meth:`drain` at the end of the draw call; both return flushed groups.
    """

    FLUSH_FULL = "full"
    FLUSH_EVICT = "evict"
    FLUSH_FINAL = "final"

    def __init__(self, n_bins=128, bin_capacity=16):
        if n_bins <= 0 or bin_capacity <= 0:
            raise ValueError("n_bins and bin_capacity must be positive")
        self.n_bins = int(n_bins)
        self.bin_capacity = int(bin_capacity)
        # grid_id -> list of primitive rows; insertion order == FIFO age.
        self._bins = OrderedDict()
        self.flush_counts = {self.FLUSH_FULL: 0, self.FLUSH_EVICT: 0,
                             self.FLUSH_FINAL: 0}
        self.prims_inserted = 0

    def insert(self, grid_id, prim_row):
        """Insert one primitive occurrence for ``grid_id``.

        Primitives spanning multiple grids are inserted once per grid (the
        paper distributes them per cluster/grid and rasterises each portion
        independently).  Returns a list of flushed groups, possibly empty.
        """
        flushed = []
        bins = self._bins
        self.prims_inserted += 1
        if grid_id not in bins:
            if len(bins) >= self.n_bins:
                old_grid, old_prims = bins.popitem(last=False)
                self.flush_counts[self.FLUSH_EVICT] += 1
                flushed.append((old_grid, old_prims, self.FLUSH_EVICT))
            bins[grid_id] = []
        bins[grid_id].append(prim_row)
        if len(bins[grid_id]) >= self.bin_capacity:
            full = bins.pop(grid_id)
            self.flush_counts[self.FLUSH_FULL] += 1
            flushed.append((grid_id, full, self.FLUSH_FULL))
        return flushed

    def insert_pairs(self, grid_ids, prim_rows):
        """Batch-insert (grid, primitive) occurrences in draw order.

        ``grid_ids`` and ``prim_rows`` are parallel arrays of per-grid
        primitive occurrences (a primitive spanning ``k`` grids contributes
        ``k`` consecutive entries).  Yields flushed ``(grid_id, prim_rows,
        reason)`` groups in the exact order sequential :meth:`insert` calls
        would, letting the pipeline iterate flushes instead of primitives.
        """
        for grid_id, prim in zip(grid_ids, prim_rows):
            yield from self.insert(int(grid_id), int(prim))

    def plan_groups(self, grid_ids, prim_rows):
        """Full flush-group schedule for a (grid, primitive) sequence.

        Equivalent to :meth:`insert_pairs` over the whole occurrence
        stream followed by :meth:`drain` — identical flush groups in
        identical order — but the per-pair loop is collapsed into one
        pass with hoisted locals and plain-int iteration, since this is
        the planning-phase inner loop of the batched flush engine (tens
        of thousands of pairs per draw).
        """
        grid_l = grid_ids.tolist() if hasattr(grid_ids, "tolist") else grid_ids
        prim_l = prim_rows.tolist() if hasattr(prim_rows, "tolist") else prim_rows
        groups = []
        append = groups.append
        bins = self._bins
        get = bins.get
        popitem = bins.popitem
        n_bins = self.n_bins
        capacity = self.bin_capacity
        counts = self.flush_counts
        full = self.FLUSH_FULL
        evict = self.FLUSH_EVICT
        n_pairs = 0
        for grid_id, prim_row in zip(grid_l, prim_l):
            n_pairs += 1
            prims = get(grid_id)
            if prims is None:
                if len(bins) >= n_bins:
                    old_grid, old_prims = popitem(last=False)
                    counts[evict] += 1
                    append((old_grid, old_prims, evict))
                prims = bins[grid_id] = []
            prims.append(prim_row)
            if len(prims) >= capacity:
                del bins[grid_id]
                counts[full] += 1
                append((grid_id, prims, full))
        self.prims_inserted += n_pairs
        groups.extend(self.drain())
        return groups

    def drain(self):
        """Flush all residual bins in age order (end of the draw call)."""
        flushed = []
        while self._bins:
            grid_id, prims = self._bins.popitem(last=False)
            self.flush_counts[self.FLUSH_FINAL] += 1
            flushed.append((grid_id, prims, self.FLUSH_FINAL))
        return flushed

    @property
    def occupancy(self):
        """Currently occupied bins."""
        return len(self._bins)

    def storage_bytes(self, cbe_pointer_bytes=4, vertices_per_prim=3,
                      grid_id_bytes=2):
        """Table III storage cost of this unit's bins.

        ``(4 B CBE pointer * 3 vertices * 16 entries + 2 B grid id) * 128``
        = 24.25 KB with the default sizes.
        """
        per_bin = (cbe_pointer_bytes * vertices_per_prim * self.bin_capacity
                   + grid_id_bytes)
        return per_bin * self.n_bins
