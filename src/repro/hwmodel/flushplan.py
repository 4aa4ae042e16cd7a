"""Batched flush engine: plan a draw's flush schedule, digest it, replay it.

The scalar pipeline walks ~tens of thousands of TC-bin flushes per draw,
paying ~30 µs of Python per flush for arithmetic that is tiny per flush but
identical in shape across flushes.  The TC/TGC bin dynamics, however, are
*deterministic* given the insertion sequence — which the
:class:`~repro.hwmodel.pipeline.DrawWorkload` fixes up front — so the whole
schedule can be computed first and the per-flush math vectorised after.

The engine runs in three phases, split along the line between work that
depends only on the frame's content and the :class:`~repro.hwmodel.config.
GPUConfig`, and work that touches a unit, a cache or an accumulator:

:func:`build_flush_plan`
    Replays the bin dynamics at *range* granularity (every inserted group
    is a contiguous quad-table row slice, and bin overflow only splits
    ranges into subranges) in one loop per unit —
    :meth:`~repro.hwmodel.tc.RangeTileCoalescer.plan_groups`, which also
    applies the TC timeout rule, and, for QM variants,
    :meth:`~repro.hwmodel.tgc.TileGridCoalescer.plan_groups` — producing
    a :class:`FlushPlan`: flat per-flush ``tile``/``reason`` arrays plus
    row-segment offsets.  The (prim,
    tile) and (prim, grid) ranges it iterates come from the workload,
    which reads them straight off the stream's
    :class:`~repro.render.frameir.FrameIR` when one is present (chunklet
    runs of the raster structure) instead of per-quad reductions.

:func:`digest_flushes`
    Runs the ZROP termination test (HET), QRU pair planning (QM) and the
    CROP line-tag dedup over *all* flushes at once with ``reduceat``/
    ``bincount`` segment ops, and keeps only per-flush counts and the
    deduplicated CROP tag stream: a :class:`FlushDigest`.  It is a pure
    function of content and config, so the draw memoizes it on the
    fragment stream and the coherence carrier serves it on a revisited
    frame (see :mod:`repro.render.coherence`), which then skips planning
    and reads no per-quad column.

:func:`replay_flushes`
    Feeds a digest through the stateful units.  Exactness is preserved by
    two rules:

    * every floating-point accumulator receives its per-flush contributions
      through :meth:`~repro.hwmodel.stats.UnitStats.add_sequence`, i.e. in
      the same order and with the same sequential rounding as the scalar
      loop (skipped scalar calls become exact ``+0.0`` no-ops);
    * the exact-LRU z- and CROP-cache traffic is replayed over the
      deduplicated per-flush tag streams through the *real* cache objects
      (group-granular for the stencil cache), so hit/miss counts — and the
      warm-cache state carried across draws — stay bit-identical.

    The golden flush-engine tests enforce cycle-, stat- and trace-exact
    equivalence against the scalar path on all four hardware variants.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.hwmodel.crop import quad_line_tag_pairs
from repro.hwmodel.prop import plan_merges_segmented
from repro.hwmodel.tc import RangeTileCoalescer, TileCoalescer
from repro.hwmodel.tgc import TileGridCoalescer
from repro.hwmodel.units import popcount4
from repro.utils.arrays import expand_segments

#: Quad positions per screen tile (8x8), the QRU pairing key space.
N_QUAD_POSITIONS = 64

#: TC flush causes, indexed by :attr:`FlushDigest.reason_code`.
FLUSH_REASONS = (TileCoalescer.FLUSH_FULL, TileCoalescer.FLUSH_EVICT,
                 TileCoalescer.FLUSH_TIMEOUT, TileCoalescer.FLUSH_FINAL)


class FlushPlan:
    """The complete flush schedule of one draw, as flat arrays.

    Attributes
    ----------
    tile:
        int64 ``(n_flushes,)`` — flushed screen tile per flush.
    reason:
        list of flush-cause strings (:class:`~repro.hwmodel.tc.
        TileCoalescer` constants), parallel to ``tile``.
    rows:
        int64 ``(n_rows,)`` — concatenated quad-table rows of every flush,
        in flush order (arrival order within each flush).
    row_splits:
        int64 ``(n_flushes + 1,)`` — offsets of each flush in ``rows``.
    raster_portions, raster_tiles, raster_quads:
        Rasteriser work totals (primitive portions, raster tiles, quads).
    tc_flush_counts, tgc_flush_counts:
        Flush-cause counters of the TC pass and (for QM+TGC draws) the TGC
        pass; ``tgc_flush_counts`` is ``None`` otherwise.
    """

    __slots__ = ("tile", "reason", "rows", "row_splits", "raster_portions",
                 "raster_tiles", "raster_quads", "tc_flush_counts",
                 "tgc_flush_counts")

    def __init__(self, tile, reason, rows, row_splits, raster_portions,
                 raster_tiles, raster_quads, tc_flush_counts,
                 tgc_flush_counts):
        self.tile = tile
        self.reason = reason
        self.rows = rows
        self.row_splits = row_splits
        self.raster_portions = int(raster_portions)
        self.raster_tiles = int(raster_tiles)
        self.raster_quads = int(raster_quads)
        self.tc_flush_counts = tc_flush_counts
        self.tgc_flush_counts = tgc_flush_counts

    @property
    def n_flushes(self):
        return self.tile.shape[0]

    def __repr__(self):
        return (f"FlushPlan(flushes={self.n_flushes}, "
                f"rows={self.rows.shape[0]}, "
                f"tgc={'on' if self.tgc_flush_counts is not None else 'off'})")


def build_flush_plan(workload, config):
    """Plan the entire flush schedule of ``workload`` under ``config``.

    Follows the exact group-insertion sequence of the scalar pipeline —
    draw order, or TGC grid-group order for QM variants — through the
    range-level coalescer, so the resulting schedule is flush-for-flush
    identical to what :class:`~repro.hwmodel.tc.TileCoalescer` would emit.
    For QM variants the TGC flush schedule is planned first and every
    flush's (prim, tile) groups are selected in one pass
    (:meth:`~repro.hwmodel.pipeline.DrawWorkload.select_flushed_groups`),
    where the scalar engine selects per flush
    (:meth:`~repro.hwmodel.pipeline.DrawWorkload.select_grid_groups`).
    """
    tc = RangeTileCoalescer(config.n_tc_bins, config.tc_bin_quads,
                            config.tc_timeout_quads)
    tgc_counts = None
    if config.enable_qm and config.qm_use_tgc:
        tgc = TileGridCoalescer(config.n_tgc_bins, config.tgc_bin_prims)
        # TGC flushes only append to the TC insertion sequence, so the
        # whole grid-group schedule is one selection, in flush order.
        sel, portions = workload.select_flushed_groups(
            tgc.plan_groups(workload.pair_grid, workload.pair_prim))
        raster_tiles = int(workload.group_n_rtiles[sel].sum())
        raster_quads = int(workload.group_n_quads[sel].sum())
        tc.plan_groups(workload.group_tile[sel], workload.group_starts[sel],
                       workload.group_ends[sel])
        tgc_counts = dict(tgc.flush_counts)
    else:
        portions = len(workload.prim_group_ranges)
        raster_tiles = int(workload.group_n_rtiles.sum())
        raster_quads = int(workload.group_n_quads.sum())
        tc.plan_groups(workload.group_tile, workload.group_starts,
                       workload.group_ends)
    tc.drain()

    rows, seg_offsets = expand_segments(tc.seg_starts, tc.seg_ends)
    flush_seg_bounds = np.asarray(tc.flush_seg_bounds, dtype=np.int64)
    row_splits = seg_offsets[flush_seg_bounds]
    return FlushPlan(
        tile=np.asarray(tc.flush_tile, dtype=np.int64),
        reason=tc.flush_reason,
        rows=rows,
        row_splits=row_splits,
        raster_portions=portions,
        raster_tiles=raster_tiles,
        raster_quads=raster_quads,
        tc_flush_counts=dict(tc.flush_counts),
        tgc_flush_counts=tgc_counts,
    )


class FlushDigest:
    """Everything of a draw's flush schedule that the stateful units read.

    A pure function of the frame's content and the ``GPUConfig``
    (:func:`digest_flushes`); :func:`replay_flushes` feeds it through the
    units and caches.  Its arrays are read-only from construction, so the
    stream cache and the coherence carrier share one digest between draws.

    Attributes
    ----------
    tile, reason_code:
        Per-flush screen tile (int64) and flush cause (int8 index into
        :data:`FLUSH_REASONS`; an array, unlike the plan's list of
        strings, so sizing a sealed coherence state walks no per-flush
        Python objects).
    n_flush, n_surv, pairs_f, n_crop, frag_counts:
        int64 per-flush counts: quads flushed, quads surviving the ZROP
        termination test, QRU merge pairs, quads reaching the CROP, and
        fragments they blend.
    crop_tags, crop_tag_splits:
        Per-flush first-occurrence-unique CROP line tags, concatenated in
        flush order, and the ``(n_flushes + 1,)`` offsets delimiting them.
    raster_portions, raster_tiles, raster_quads, tc_flush_counts, \
tgc_flush_counts:
        Copied from the :class:`FlushPlan`.
    """

    __slots__ = ("tile", "reason_code", "n_flush", "n_surv", "pairs_f",
                 "n_crop", "frag_counts", "crop_tags", "crop_tag_splits",
                 "raster_portions", "raster_tiles", "raster_quads",
                 "tc_flush_counts", "tgc_flush_counts")

    def __init__(self, plan, n_flush, n_surv, pairs_f, n_crop, frag_counts,
                 crop_tags, crop_tag_splits):
        self.tile = plan.tile
        code = {reason: i for i, reason in enumerate(FLUSH_REASONS)}
        self.reason_code = np.array([code[r] for r in plan.reason],
                                    dtype=np.int8)
        self.n_flush = n_flush
        self.n_surv = n_surv
        self.pairs_f = pairs_f
        self.n_crop = n_crop
        self.frag_counts = frag_counts
        self.crop_tags = crop_tags
        self.crop_tag_splits = crop_tag_splits
        self.raster_portions = plan.raster_portions
        self.raster_tiles = plan.raster_tiles
        self.raster_quads = plan.raster_quads
        self.tc_flush_counts = plan.tc_flush_counts
        self.tgc_flush_counts = plan.tgc_flush_counts
        for array in self.arrays():
            array.flags.writeable = False

    def arrays(self):
        """The digest's ndarrays."""
        return (self.tile, self.reason_code, self.n_flush, self.n_surv,
                self.pairs_f, self.n_crop, self.frag_counts, self.crop_tags,
                self.crop_tag_splits)

    @property
    def n_flushes(self):
        return self.tile.shape[0]


def digest_key(config):
    """Stream-cache key of the :class:`FlushDigest` drawn under ``config``."""
    return ("flush_digest", dataclasses.astuple(config))


def digest_flushes(plan, workload, config):
    """Reduce every flush of ``plan`` to the counts and tags the units see.

    Vectorised over all flushes: the ZROP termination test (HET), QRU pair
    planning (QM), the CROP-visible quads and fragments, and the per-flush
    CROP line-tag dedup.  Touches no unit, cache or accumulator.
    """
    n_flushes = plan.n_flushes
    quads = workload.quads
    rows = plan.rows
    n_flush = np.diff(plan.row_splits)
    flush_of_row = np.repeat(np.arange(n_flushes, dtype=np.int64), n_flush)

    # ZROP termination test (HET): fully-terminated quads are discarded
    # before shading.
    if config.enable_het:
        surviving = quads.mask_unterminated[rows] != 0
        surv_rows = rows[surviving]
        surv_flush = flush_of_row[surviving]
        n_surv = np.bincount(surv_flush, minlength=n_flushes)
        blend_masks = quads.mask_et[surv_rows]
    else:
        surv_rows = rows
        surv_flush = flush_of_row
        n_surv = n_flush
        blend_masks = quads.mask_unpruned[surv_rows]

    # QRU pair planning.
    if config.enable_qm:
        merge = plan_merges_segmented(surv_flush, quads.qpos[surv_rows],
                                      n_flushes, N_QUAD_POSITIONS)
        pairs_f = merge.pairs_per_segment
        # Post-merge output stream, in the scalar per-flush order: each
        # flush's merge pairs (position-major) first, then its singles
        # (arrival order).
        singles_f = np.bincount(surv_flush[merge.singles],
                                minlength=n_flushes)
        out_counts = pairs_f + singles_f
        zero = np.zeros(1, dtype=np.int64)
        out_splits = np.concatenate(
            (zero, np.cumsum(out_counts))).astype(np.int64)
        pair_offsets = np.concatenate((zero, np.cumsum(pairs_f)))[:-1]
        single_offsets = np.concatenate((zero, np.cumsum(singles_f)))[:-1]
        f_pair = surv_flush[merge.first]
        f_single = surv_flush[merge.singles]
        pair_local = (np.arange(merge.n_pairs, dtype=np.int64)
                      - pair_offsets[f_pair])
        single_local = (np.arange(merge.singles.shape[0], dtype=np.int64)
                        - single_offsets[f_single])
        n_out = int(out_counts.sum())
        pair_pos = out_splits[f_pair] + pair_local
        single_pos = out_splits[f_single] + pairs_f[f_single] + single_local
        # One source permutation drives the whole out-stream: scatter the
        # survivor indices once, then every output column is a single
        # gather through it (a pair record carries its first member's
        # row; its mask ORs in the second's).
        out_src = np.empty(n_out, dtype=np.int64)
        out_src[pair_pos] = merge.first
        out_src[single_pos] = merge.singles
        out_rows = surv_rows[out_src]
        out_masks = blend_masks[out_src]
        out_masks[pair_pos] |= blend_masks[merge.second]
        out_flush = np.repeat(np.arange(n_flushes, dtype=np.int64),
                              out_counts)
    else:
        pairs_f = np.zeros(n_flushes, dtype=np.int64)
        out_rows = surv_rows
        out_masks = blend_masks
        out_flush = surv_flush

    # CROP-visible quads and fragments.  Both streams are in flush
    # order, so per-flush fragment totals are differences of one prefix
    # sum at the flush boundaries.
    live = out_masks != 0
    live_flush = out_flush[live]
    n_crop = np.bincount(live_flush, minlength=n_flushes)
    frag_prefix = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(popcount4(out_masks[live]))))
    frag_counts = np.diff(frag_prefix[np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(n_crop)))])

    # CROP line tags, first-occurrence-unique within each flush.
    live_rows = out_rows[live]
    if live_rows.shape[0]:
        if config.cache_line_bytes % (16 * config.bytes_per_pixel) == 0:
            # Structural fast path: when a cache line spans a whole number
            # of 16px screen tiles, every quad of a flush shares one
            # line-column, so a tag is identified inside its flush by the
            # pixel row alone — and a quad's two tags (its two pixel
            # rows) first occur together, with the first quad of its
            # quad row in the tile (8 per tile).  First occurrences then
            # come from one scatter over a dense (flush, quad row) key
            # space instead of a sort over the whole tag stream.
            key = live_flush * 8 + (quads.qy[live_rows] & 7)
            first = np.empty(n_flushes * 8, dtype=np.int64)
            idx = np.arange(key.shape[0], dtype=np.int64)
            first[key[::-1]] = idx[::-1]
            keep = first[key] == idx
            kept_rows = live_rows[keep]
            crop_tags = quad_line_tag_pairs(quads.qx[kept_rows],
                                            quads.qy[kept_rows],
                                            workload.width, config)
            tag_counts = 2 * np.bincount(live_flush[keep],
                                         minlength=n_flushes)
        else:
            tag_stream = quad_line_tag_pairs(quads.qx[live_rows],
                                             quads.qy[live_rows],
                                             workload.width, config)
            tag_flush = np.repeat(live_flush, 2)
            tag_space = int(tag_stream.max()) + 1
            _, first_idx = np.unique(tag_flush * tag_space + tag_stream,
                                     return_index=True)
            keep = np.zeros(tag_stream.shape[0], dtype=bool)
            keep[first_idx] = True
            crop_tags = tag_stream[keep]
            tag_counts = np.bincount(tag_flush[keep], minlength=n_flushes)
    else:
        crop_tags = np.empty(0, dtype=np.int64)
        tag_counts = np.zeros(n_flushes, dtype=np.int64)
    crop_tag_splits = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(tag_counts))).astype(np.int64)
    return FlushDigest(plan, n_flush, n_surv, pairs_f, n_crop, frag_counts,
                       crop_tags, crop_tag_splits)


def replay_flushes(digest, width, config, stats, crop, zrop, shader,
                   trace=None):
    """Run every flush of ``digest`` through the modelled back half at once.

    Vectorised equivalent of calling ``GraphicsPipeline._process_flush``
    per flush — same counters, same cycle totals bit-for-bit, same cache
    state, same trace — plus the TC/TGC flush-cause counters.
    """
    _apply_flush_counts(digest, stats)
    n_flushes = digest.n_flushes
    if n_flushes == 0:
        return
    cfg = config
    n_flush = digest.n_flush
    n_surv = digest.n_surv
    pairs_f = digest.pairs_f
    n_crop = digest.n_crop

    # TC insertion throughput, accounted at flush over each whole batch.
    stats.units["tc"].add_sequence(
        int(n_flush.sum()), n_flush / cfg.tc_quads_per_cycle)

    # ZROP termination test (HET): stencil-line traffic.
    if cfg.enable_het:
        zrop_misses = zrop.termination_test_plan(digest.tile, n_flush, n_surv,
                                                 width)
    else:
        zrop_misses = np.zeros(n_flushes, dtype=np.int64)

    # SM fragment shading (merge pairs issue their extra cycles).
    shader.shade_fragment_batches(n_surv, pairs_f)
    if cfg.enable_qm:
        stats.quads_merged_pairs += int(pairs_f.sum())

    # PROP: dispatch toward the SMs plus the ordered return into the CROP
    # stream; skipped entirely for flushes with no survivors.
    nonempty = n_surv > 0
    prop_work = cfg.prop_dispatch_weight * n_flush + n_crop
    prop_cycles = np.where(nonempty, prop_work / cfg.prop_quads_per_cycle,
                           0.0)
    prop_items = int((n_flush + n_crop)[nonempty].sum())
    stats.units["prop"].add_sequence(prop_items, prop_cycles)

    # CROP blends: the deduplicated line tags, replayed through the real
    # LRU cache in flush order.
    crop_misses = crop.blend_plan(n_crop, digest.frag_counts,
                                  digest.crop_tags, digest.crop_tag_splits)

    # DRAM: the scalar loop interleaves the ZROP stencil fills and the
    # CROP fill+writeback traffic per flush; replicate that order.
    zrop_bytes = zrop_misses * cfg.cache_line_bytes
    crop_bytes = crop_misses * cfg.cache_line_bytes * 2
    dram_cycles = np.empty(2 * n_flushes, dtype=np.float64)
    dram_cycles[0::2] = zrop_bytes / cfg.dram_bytes_per_cycle
    dram_cycles[1::2] = crop_bytes / cfg.dram_bytes_per_cycle
    stats.units["dram"].add_sequence(
        int(zrop_misses.sum() + crop_misses.sum()), dram_cycles)
    stats.dram_bytes += float(int(zrop_bytes.sum() + crop_bytes.sum()))

    if trace is not None:
        reasons = [FLUSH_REASONS[c] for c in digest.reason_code.tolist()]
        trace.record_flushes(digest.tile, reasons, n_flush, n_surv, pairs_f,
                             n_crop)


def _apply_flush_counts(digest, stats):
    """Copy the digest's TC/TGC flush-cause counters into ``stats``."""
    tc_counts = digest.tc_flush_counts
    stats.tc_flush_full = tc_counts[TileCoalescer.FLUSH_FULL]
    stats.tc_flush_evict = tc_counts[TileCoalescer.FLUSH_EVICT]
    stats.tc_flush_timeout = tc_counts[TileCoalescer.FLUSH_TIMEOUT]
    stats.tc_flush_final = tc_counts[TileCoalescer.FLUSH_FINAL]
    if digest.tgc_flush_counts is not None:
        tgc_counts = digest.tgc_flush_counts
        stats.tgc_flush_full = tgc_counts[TileGridCoalescer.FLUSH_FULL]
        stats.tgc_flush_evict = tgc_counts[TileGridCoalescer.FLUSH_EVICT]
        stats.tgc_flush_final = tgc_counts[TileGridCoalescer.FLUSH_FINAL]
