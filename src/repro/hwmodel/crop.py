"""Colour ROP (CROP): blending throughput, CROP cache, alpha test unit.

Models the §VII-A findings: ROPs operate at quad granularity, blend
``rop_quads_per_cycle`` quads per cycle in RGBA16F (twice that in RGBA8,
because the CROP-cache read bandwidth is the limiter), and fetch pixel
colours through a 16 KB per-GPC cache backed by the L2.

With HET enabled, the CROP also hosts the **alpha test unit**: after each
blend it checks whether the accumulated alpha crossed the termination
threshold *on this fragment* (new >= threshold and old < threshold, the
paper's double-sided test that avoids redundant update signals) and, if so,
signals the ZROP termination update unit.
"""

from __future__ import annotations

import numpy as np

from repro.hwmodel.caches import LRUCache
from repro.hwmodel.units import as_index_array


def quad_line_tag_pairs(qx, qy, width, config):
    """Interleaved colour-buffer line tags per quad, *without* dedup.

    A 2x2 quad at quad coords (qx, qy) covers pixel rows ``2*qy`` and
    ``2*qy + 1``; with ``bytes_per_pixel`` from the active format, each
    row lands in one cache line horizontally (quads never straddle a
    line boundary because 128 B covers >= 16 pixels).  Returns an int64
    array of 2 tags per quad (row ``2*qy`` first).  This is the single
    definition of the tag layout: :meth:`CropUnit.quad_line_tags` dedups
    it per flush and the flush digest dedups the whole-draw stream per
    flush downstream.
    """
    qx = np.asarray(qx, dtype=np.int64)
    qy = np.asarray(qy, dtype=np.int64)
    bpp = config.bytes_per_pixel
    line_bytes = config.cache_line_bytes
    lines_per_row = max(1, -(-(width * bpp) // line_bytes))
    line_in_row = (qx * 2 * bpp) // line_bytes
    row0 = qy * 2
    tags = np.empty(qx.shape[0] * 2, dtype=np.int64)
    tags[0::2] = row0 * lines_per_row + line_in_row
    tags[1::2] = (row0 + 1) * lines_per_row + line_in_row
    return tags


class CropUnit:
    """Blend accounting plus an exact-LRU CROP cache.

    ``cache`` may be supplied to persist pixel-colour lines across draw
    calls (the microbenchmarks warm the cache in one draw and measure the
    next); by default each draw starts cold.
    """

    def __init__(self, config, stats, cache=None):
        self.config = config
        self.stats = stats
        self.cache = cache if cache is not None else LRUCache(
            config.crop_cache_kb * 1024, config.cache_line_bytes)
        self._owns_cache = cache is None

    def blend_batch(self, n_quads, n_fragments, line_tags):
        """Blend one flush batch's surviving quads.

        Parameters
        ----------
        n_quads:
            Quads reaching the CROP (post pruning/merge).
        n_fragments:
            Fragments actually blended into the colour buffer.
        line_tags:
            Iterable of colour-buffer line tags the batch touches (callers
            pass first-occurrence-unique tags per flush; repeats within a
            flush are guaranteed hits and carry no information).  Any
            iterable works, including one-shot generators — tags are
            normalised to an array before length or traffic accounting.
        """
        if n_quads == 0:
            return
        line_tags = as_index_array(line_tags)
        misses = self.cache.access_many(line_tags, write=True)
        hits = line_tags.shape[0] - misses
        self.stats.crop_cache_hits += hits
        self.stats.crop_cache_misses += misses
        cycles = (n_quads / self.config.crop_quads_per_cycle
                  + misses * self.config.crop_miss_stall_cycles)
        self.stats.units["crop"].add(n_quads, cycles)
        self.stats.quads_to_crop += int(n_quads)
        self.stats.fragments_blended += int(n_fragments)
        if misses:
            # Line fill plus (eventual) dirty writeback.
            bytes_moved = misses * self.config.cache_line_bytes * 2
            self.stats.dram_bytes += bytes_moved
            self.stats.units["dram"].add(
                misses, bytes_moved / self.config.dram_bytes_per_cycle)

    def blend_plan(self, n_crop_quads, n_fragments, line_tags, tag_splits):
        """Batched accounting for every per-flush CROP blend of a draw.

        ``n_crop_quads``/``n_fragments`` are parallel per-flush arrays;
        ``line_tags`` concatenates every flush's first-occurrence-unique
        line tags, with ``tag_splits`` delimiting flushes.  The replay
        runs through the real (possibly shared/warm) LRU cache, so
        hit/miss totals and the end-of-draw cache state are bit-identical
        to one :meth:`blend_batch` call per flush.  DRAM traffic is *not*
        accounted here — the caller interleaves it with the ZROP stream
        to preserve the scalar accumulation order.  Returns the per-flush
        miss counts.
        """
        n_crop_quads = np.asarray(n_crop_quads, dtype=np.int64)
        n_fragments = np.asarray(n_fragments, dtype=np.int64)
        misses = self.cache.access_segmented(line_tags, tag_splits,
                                             write=True)
        n_tags = int(np.asarray(tag_splits, dtype=np.int64)[-1])
        total_misses = int(misses.sum())
        self.stats.crop_cache_hits += n_tags - total_misses
        self.stats.crop_cache_misses += total_misses
        cycles = (n_crop_quads / self.config.crop_quads_per_cycle
                  + misses * self.config.crop_miss_stall_cycles)
        self.stats.units["crop"].add_sequence(int(n_crop_quads.sum()), cycles)
        self.stats.quads_to_crop += int(n_crop_quads.sum())
        self.stats.fragments_blended += int(n_fragments.sum())
        return misses

    def quad_line_tags(self, qx, qy, width):
        """:func:`quad_line_tag_pairs`, first-occurrence-unique."""
        tags = quad_line_tag_pairs(qx, qy, width, self.config)
        _, first_idx = np.unique(tags, return_index=True)
        return tags[np.sort(first_idx)]

    def finish_draw(self):
        """Flush the cache at end of draw, accounting dirty writebacks.

        Shared caches (microbenchmark probes) stay warm across draws.
        """
        if not self._owns_cache:
            return
        before = self.cache.writebacks
        self.cache.flush()
        written_back = self.cache.writebacks - before
        if written_back:
            bytes_moved = written_back * self.config.cache_line_bytes
            self.stats.dram_bytes += bytes_moved
            self.stats.units["dram"].add(
                written_back, bytes_moved / self.config.dram_bytes_per_cycle)
