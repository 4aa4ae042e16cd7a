"""Z/Stencil ROP with the VR-Pipe early-termination extension.

Baseline ZROP performs depth/stencil tests; Gaussian splatting disables
both, so the unit idles.  With HET enabled (Figure 13) it gains:

* a **termination test unit** — when a TC bin flushes, each quad's pixels
  are checked against the termination bit (the stencil MSB); quads whose
  four pixels are all terminated are discarded *before fragment shading*;
* a **termination update unit** — triggered by the CROP's alpha test when a
  blend pushes a pixel across the threshold; it read-modify-writes the
  stencil byte in the z-cache, setting the MSB.

The per-fragment termination state is supplied by the functional core (the
``mask_unterminated`` coverage bitmaps), which models the paper's
fragment-granular test; this unit accounts the work and the z-cache traffic.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.hwmodel.caches import LRUCache
from repro.hwmodel.units import as_index_array
from repro.render.fragstream import TILE_SIZE


class ZropUnit:
    """Work accounting for the stencil/termination ROP stage.

    Parameters
    ----------
    config:
        The :class:`~repro.hwmodel.config.GPUConfig`.
    stats:
        The draw call's :class:`~repro.hwmodel.stats.PipelineStats`.
    """

    def __init__(self, config, stats):
        self.config = config
        self.stats = stats
        self.zcache = LRUCache(config.zcache_kb * 1024,
                               config.cache_line_bytes)

    def termination_test(self, batch_masks, tile_id, width):
        """Run the flush-time termination test on one TC batch.

        ``batch_masks`` are the quads' ``mask_unterminated`` bitmaps; a quad
        survives when any pixel is still live.  Returns the survivor mask.
        Accounts test throughput and z-cache read traffic.
        """
        masks = np.asarray(batch_masks)
        survivors = masks != 0
        n = masks.shape[0]
        unit = self.stats.units["zrop"]
        unit.add(n, n / self.config.zrop_quads_per_cycle)
        self.stats.zrop_tests += n
        self.stats.quads_discarded_zrop += int(n - survivors.sum())
        # Stencil reads for the tile: the whole tile's stencil footprint is
        # a handful of lines; account one line group per flush.
        first, stride = self._stencil_lines(int(tile_id), width)
        tags = [first + r * stride for r in range(TILE_SIZE)]
        misses = self.zcache.access_many(tags, write=False)
        self._account_misses(misses)
        return survivors

    def termination_updates(self, n_updates, pixel_tags=()):
        """Account ``n_updates`` termination-bit RMWs signalled by the CROP.

        ``pixel_tags`` may be any iterable of z-cache line tags (including
        a one-shot generator); it is normalised to an index array before
        any length/traffic accounting.
        """
        if n_updates < 0:
            raise ValueError("n_updates must be >= 0")
        pixel_tags = as_index_array(pixel_tags)
        unit = self.stats.units["zrop"]
        unit.add(n_updates, n_updates * self.config.term_update_cycles)
        self.stats.termination_updates += int(n_updates)
        if pixel_tags.size:
            misses = self.zcache.access_many(pixel_tags, write=True)
            self._account_misses(misses)

    def termination_test_plan(self, flush_tiles, n_flushed, n_survivors,
                              width):
        """Batched accounting for a whole draw's per-flush termination tests.

        Mirrors one :meth:`termination_test` call per flush: unit
        throughput and test/discard counters accumulate sequentially, and
        the z-cache's stencil-line traffic is replayed exactly.  A tile's
        stencil footprint is ``TILE_SIZE`` lines determined by the
        tile alone, and the line sets of distinct (tile-row, line-column)
        groups are disjoint — so when the cache holds a whole number of
        such groups and starts empty, the line stream collapses to a
        group-granular LRU (one step per flush instead of 16 line
        accesses), after which the real z-cache is primed with the final
        resident groups so the end-of-draw termination updates see the
        exact state.  Otherwise the full line stream is replayed through
        the cache directly.

        Returns the per-flush z-cache miss counts.  DRAM traffic is *not*
        accounted here: the caller interleaves it with the CROP stream to
        preserve the scalar accumulation order.
        """
        flush_tiles = np.asarray(flush_tiles, dtype=np.int64)
        n_flushed = np.asarray(n_flushed, dtype=np.int64)
        n_survivors = np.asarray(n_survivors, dtype=np.int64)
        n_total = int(n_flushed.sum())
        unit = self.stats.units["zrop"]
        unit.add_sequence(n_total,
                          n_flushed / self.config.zrop_quads_per_cycle)
        self.stats.zrop_tests += n_total
        self.stats.quads_discarded_zrop += int(
            (n_flushed - n_survivors).sum())

        n_flushes = flush_tiles.shape[0]
        if n_flushes == 0:
            return np.zeros(0, dtype=np.int64)
        # First line tag of each flush's group; tags are unique per
        # (tile-row, line-column) group and groups are disjoint.
        group_key, lines_per_row = self._stencil_lines(flush_tiles, width)

        zcache = self.zcache
        if zcache.n_lines % TILE_SIZE == 0 and len(zcache) == 0:
            cap_groups = zcache.n_lines // TILE_SIZE
            resident = OrderedDict()
            misses = np.zeros(n_flushes, dtype=np.int64)
            for i, group in enumerate(group_key.tolist()):
                if group in resident:
                    resident.move_to_end(group)
                else:
                    if len(resident) >= cap_groups:
                        resident.popitem(last=False)
                    resident[group] = True
                    misses[i] = TILE_SIZE
            # Prime the real cache with the final resident groups (clean
            # read accesses, oldest group first, row-ascending lines) so
            # the termination-update replay starts from the exact state.
            for group in resident:
                for r in range(TILE_SIZE):
                    zcache.access_line(group + r * lines_per_row,
                                       write=False)
            # Square the cache's own counters with the full line-level
            # replay the scalar engine performs: priming counted only the
            # resident lines as misses (no hits, no evictions — the cache
            # started empty and the residents fit by construction).
            total_accesses = n_flushes * TILE_SIZE
            total_misses = int(misses.sum())
            primed = len(resident) * TILE_SIZE
            zcache.hits += total_accesses - total_misses
            zcache.misses += total_misses - primed
            zcache.evictions += total_misses - primed
            return misses
        # General fallback: replay the full per-flush line stream.
        tags = (group_key[:, None]
                + np.arange(TILE_SIZE, dtype=np.int64)[None, :] * lines_per_row)
        splits = np.arange(n_flushes + 1, dtype=np.int64) * TILE_SIZE
        return zcache.access_segmented(tags.reshape(-1), splits, write=False)

    # ------------------------------------------------------------------

    def _stencil_lines(self, tiles, width):
        """First stencil line tag of each screen tile (an int or an array)
        and the tag stride between the tile's ``TILE_SIZE`` rows.  The
        stencil is 1 B/pixel, so a row's byte offsets are pixel offsets."""
        line_bytes = self.config.cache_line_bytes
        lines_per_row = max(1, -(-width // line_bytes))
        ty, tx = divmod(tiles, -(-width // TILE_SIZE))
        return (ty * TILE_SIZE * lines_per_row + tx * TILE_SIZE // line_bytes,
                lines_per_row)

    def _account_misses(self, misses):
        if misses:
            bytes_moved = misses * self.config.cache_line_bytes
            self.stats.dram_bytes += bytes_moved
            self.stats.units["dram"].add(
                misses, bytes_moved / self.config.dram_bytes_per_cycle)
