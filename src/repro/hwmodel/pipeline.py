"""GraphicsPipeline: drives one draw call through the modelled hardware.

Data flow (Figure 12 of the paper)::

    splats -> vertex shading -> VPO -> [TGC]* -> rasterizer -> TC bins
           -> PROP (-> ZROP termination test*) (-> quad reorder*)
           -> SM fragment shading (-> warp-shuffle merge*)
           -> CROP blending (-> alpha test -> ZROP termination update*)

    (* = VR-Pipe extensions, enabled by config.enable_het / enable_qm)

Functional results (which fragments blend, in what order) come from the
shared :class:`~repro.render.fragstream.FragmentStream`; this module
simulates the *mechanics* — exact TGC/TC bin dynamics, QRU pairing, cache
traffic — and accounts busy cycles per unit.  Total draw time uses the
streaming-bottleneck model (max over units + fill), which is also what
produces the utilisation report of Figure 6.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.hwmodel.config import GPUConfig
from repro.hwmodel.crop import CropUnit
from repro.hwmodel.flushplan import (
    build_flush_plan,
    digest_flushes,
    digest_key,
    replay_flushes,
)
from repro.hwmodel.prop import plan_merges
from repro.hwmodel.raster_hw import RasterEngine
from repro.hwmodel.sm import ShaderArray
from repro.hwmodel.stats import PipelineStats
from repro.hwmodel.tc import TileCoalescer
from repro.hwmodel.tgc import TileGridCoalescer
from repro.hwmodel.units import popcount4
from repro.hwmodel.vpo import VertexPipeline
from repro.hwmodel.zrop import ZropUnit
from repro.render.fragstream import (
    QUADS_PER_RASTER_TILE_AXIS,
    QUADS_PER_TILE_AXIS,
    RASTER_TILE_SIZE,
    TILE_SIZE,
    FragmentStream,
)
from repro.utils.arrays import expand_segments, segment_boundaries

#: Valid values of the flush ``engine`` knob: the batched flush plan,
#: or the scalar per-flush oracle.
PIPELINE_ENGINES = ("batched", "scalar")


class DrawWorkload:
    """A draw call pre-digested for the pipeline simulator.

    Groups the quad table by (primitive, screen tile) — the granularity at
    which the rasteriser feeds the TC unit — and precomputes per-group
    raster-tile masks plus the per-pixel termination set for HET.
    """

    def __init__(self, quads, n_prims, width, height, n_terminated_pixels,
                 terminated_stencil_tags, source=None):
        self.quads = quads
        self.n_prims = int(n_prims)
        self.width = int(width)
        self.height = int(height)
        self._n_terminated = (None if n_terminated_pixels is None
                              else int(n_terminated_pixels))
        self._term_tags = terminated_stencil_tags
        #: ``(stream, config)`` of :meth:`from_stream` (``None`` for a
        #: hand-built workload): the deferred termination pass reads it,
        #: and the draw memoizes its flush digest in the stream's cache.
        self._source = source
        self._build_groups()

    # The termination set is consumed by the HET stencil-update pass at end
    # of draw; non-HET digestion defers the whole accumulated-alpha pass
    # behind these properties so baseline/qm draws never pay for it.
    def _compute_termination(self):
        stream, config = self._source
        terminated = stream.accumulated_alpha >= config.termination_alpha
        term_pixels = np.flatnonzero(terminated)
        lines_per_row = max(1, -(-stream.width // config.cache_line_bytes))
        ys, xs = np.divmod(term_pixels, stream.width)
        self._term_tags = np.unique(
            ys * lines_per_row + xs // config.cache_line_bytes)
        self._n_terminated = int(terminated.sum())

    @property
    def n_terminated_pixels(self):
        if self._n_terminated is None:
            self._compute_termination()
        return self._n_terminated

    @property
    def terminated_stencil_tags(self):
        if self._term_tags is None:
            self._compute_termination()
        return self._term_tags

    @classmethod
    def from_stream(cls, stream, config):
        """Build a workload from a fragment stream under ``config``.

        The termination threshold baked into the quad table follows
        ``config.termination_alpha``.  On streams carrying a FrameIR the
        quad table and its (prim, tile) group ranges come off the IR with
        no fragment-level sort; bare streams take the original sort-based
        digestion (see :mod:`repro.render.frameir`).  Both produce
        bit-identical workloads.
        """
        if not isinstance(stream, FragmentStream):
            raise TypeError(
                f"stream must be a FragmentStream, got {type(stream).__name__}")
        lag = config.het_inflight_lag if config.enable_het else 0
        quads = stream.quad_table(config.termination_alpha, lag)
        n_prims = stream.prim_colors.shape[0]
        # Pixels whose accumulated alpha saturates generate exactly one
        # termination update each (the CROP alpha test's double-sided
        # condition fires once per pixel).  The stream's cached accumulated
        # alpha is the alpha map of a full blend — reusing it avoids
        # re-running the whole colour blend per draw; the pass itself is
        # deferred until the termination set is actually read (HET draws,
        # or explicit property access).
        workload = cls(quads, n_prims, stream.width, stream.height,
                       n_terminated_pixels=None,
                       terminated_stencil_tags=None,
                       source=(stream, config))
        if config.enable_het:
            workload._compute_termination()
        return workload

    # ------------------------------------------------------------------

    def _build_groups(self):
        quads = self.quads
        n_quads = len(quads)
        tiles_x = -(-self.width // TILE_SIZE)
        tiles_y = -(-self.height // TILE_SIZE)
        self.n_tiles = tiles_x * tiles_y
        self.quad_rows = np.arange(n_quads, dtype=np.int64)
        if n_quads == 0:
            self.group_starts = np.empty(0, dtype=np.int64)
            self.group_ends = np.empty(0, dtype=np.int64)
            self.group_prim = np.empty(0, dtype=np.int64)
            self.group_tile = np.empty(0, dtype=np.int64)
            self.group_grid = np.empty(0, dtype=np.int64)
            self.group_n_quads = np.empty(0, dtype=np.int64)
            self.group_n_rtiles = np.empty(0, dtype=np.int64)
            return
        ir_groups = getattr(quads, "ir_groups", None)
        if ir_groups is not None:
            # The stream's FrameIR already derived the (prim, tile) group
            # ranges from the raster structure (bit-identical to the
            # reductions below; sortedness holds by construction).
            self.group_starts = ir_groups.starts
            self.group_ends = ir_groups.ends
            self.group_prim = ir_groups.prim
            self.group_tile = ir_groups.tile
            self.group_grid = ir_groups.grid
            self.group_n_quads = ir_groups.ends - ir_groups.starts
            self.group_n_rtiles = ir_groups.n_rtiles
        else:
            combined = quads.prim_ids * self.n_tiles + quads.tile_ids
            if np.any(np.diff(combined) < 0):
                raise ValueError("quad table is not sorted by (prim, tile)")
            starts = segment_boundaries(combined)
            ends = np.concatenate((starts[1:], [n_quads]))
            self.group_starts = starts
            self.group_ends = ends
            self.group_prim = quads.prim_ids[starts]
            self.group_tile = quads.tile_ids[starts]
            self.group_grid = quads.grid_ids[starts]
            self.group_n_quads = ends - starts
            # Raster tiles within the screen tile: 2x2 possibilities; a
            # bitmask OR-reduce counts the distinct ones.
            row, col = np.divmod(quads.qpos, QUADS_PER_TILE_AXIS)
            rt_index = (row // QUADS_PER_RASTER_TILE_AXIS
                        * (TILE_SIZE // RASTER_TILE_SIZE)
                        + col // QUADS_PER_RASTER_TILE_AXIS)
            rt_bit = np.left_shift(1, rt_index.astype(np.int64))
            rt_mask = np.bitwise_or.reduceat(rt_bit, starts)
            self.group_n_rtiles = popcount4(rt_mask)

    @property
    def prim_group_ranges(self):
        """``{prim: (start, end)}`` ranges over the group arrays, in draw
        order; built on first use (the batched QM draw never reads it)."""
        if not hasattr(self, "_prim_group_ranges"):
            prim_starts = segment_boundaries(self.group_prim)
            prim_ends = np.append(prim_starts[1:], self.group_prim.shape[0])
            self._prim_group_ranges = dict(zip(
                self.group_prim[prim_starts].tolist(),
                zip(prim_starts.tolist(), prim_ends.tolist())))
        return self._prim_group_ranges

    def _build_pair_structures(self):
        """(primitive, grid) occurrence and lookup structures (TGC path).

        Deferred: only QM draws with the TGC enabled consume them.
        ``pair_prim``/``pair_grid`` flatten the occurrences in TGC
        insertion order — draw order over primitives, ascending grid id
        within each: the distinct keys of a stable sort on the combined
        (prim, grid) key.
        """
        n_grids = int(self.group_grid.max()) + 1 if len(self.quads) else 1
        self._n_grids = n_grids
        pair_key = self.group_prim * n_grids + self.group_grid
        # Group rows regrouped by (primitive, grid): a stable sort on the
        # pair key keeps each pair's rows in ascending group order — the
        # exact order a per-primitive `flatnonzero(grid == g)` scan yields
        # — so selecting a TGC flush's groups is per-pair range lookups
        # instead of a scan over every group of every primitive.  Pair
        # ``i`` (the ``i``-th sorted unique key) owns the rows
        # ``[_pair_row_starts[i], _pair_row_ends[i])`` of that order.
        pair_order = np.argsort(pair_key, kind="stable")
        sorted_keys = pair_key[pair_order]
        range_starts = segment_boundaries(sorted_keys)
        self._pair_keys = sorted_keys[range_starts]
        self._pair_prim, self._pair_grid = np.divmod(self._pair_keys, n_grids)
        self._groups_by_pair = pair_order
        self._pair_row_starts = range_starts
        self._pair_row_ends = np.concatenate(
            (range_starts[1:], [sorted_keys.shape[0]]))

    @property
    def pair_prim(self):
        if not hasattr(self, "_pair_prim"):
            self._build_pair_structures()
        return self._pair_prim

    @property
    def pair_grid(self):
        if not hasattr(self, "_pair_grid"):
            self._build_pair_structures()
        return self._pair_grid

    def select_grid_groups(self, grid_id, prims):
        """(prim, tile) group indices of ``prims`` falling in ``grid_id``.

        Returns ``(sel, n_portions)``: the group rows in the per-primitive
        order a TGC flush dictates, and the number of primitives with at
        least one group in the grid.  The scalar engine's per-flush
        selection, and the reference for :meth:`select_flushed_groups`.
        """
        if not hasattr(self, "_pair_ranges"):
            if not hasattr(self, "_pair_keys"):
                self._build_pair_structures()
            self._pair_ranges = dict(zip(
                self._pair_keys.tolist(),
                zip(self._pair_row_starts.tolist(),
                    self._pair_row_ends.tolist())))
        ranges = self._pair_ranges
        by_pair = self._groups_by_pair
        n_grids = self._n_grids
        selected = []
        n_portions = 0
        for prim in prims:
            span = ranges.get(prim * n_grids + grid_id)
            if span is not None:
                n_portions += 1
                selected.append(by_pair[span[0]:span[1]])
        if not selected:
            return np.empty(0, dtype=np.int64), 0
        if len(selected) == 1:
            return selected[0], 1
        return np.concatenate(selected), n_portions

    def select_flushed_groups(self, flushed):
        """:meth:`select_grid_groups` over many TGC flushes at once.

        ``flushed`` lists ``(grid_id, prims, reason)`` flush groups in
        flush order (:meth:`~repro.hwmodel.tgc.TileGridCoalescer.
        plan_groups`).  Returns the concatenation of the per-flush
        selections and their summed portion counts: one ``searchsorted``
        over the sorted pair keys finds every flushed (prim, grid)
        occurrence's row range, and one ragged expansion gathers them.
        """
        if not hasattr(self, "_pair_keys"):
            self._build_pair_structures()
        sizes = [len(prims) for _grid, prims, _reason in flushed]
        grids = np.repeat(np.array([grid for grid, _prims, _reason in flushed],
                                   dtype=np.int64), sizes)
        prims = np.fromiter(
            itertools.chain.from_iterable(
                prims for _grid, prims, _reason in flushed),
            dtype=np.int64, count=sum(sizes))
        pair_keys = self._pair_keys
        keys = prims * self._n_grids + grids
        pos = np.searchsorted(pair_keys, keys)
        if keys.shape[0]:
            found = pair_keys[np.minimum(pos, pair_keys.shape[0] - 1)] == keys
            pos = pos[found]
        rows, _offsets = expand_segments(self._pair_row_starts[pos],
                                         self._pair_row_ends[pos])
        return self._groups_by_pair[rows], int(pos.shape[0])


class DrawResult:
    """Outcome of a simulated draw call: statistics and the frame size,
    not the workload (a memoized result must not pin the stream)."""

    def __init__(self, stats, config, width, height):
        self.stats = stats
        self.config = config
        self.width = width
        self.height = height

    @property
    def cycles(self):
        return self.stats.total_cycles

    def time_ms(self):
        """Wall-clock estimate at the configured core frequency."""
        return self.stats.total_cycles / self.config.frequency_hz() * 1e3

    def utilization(self):
        return self.stats.utilization()

    def __repr__(self):
        return (f"DrawResult(cycles={self.cycles:,.0f}, "
                f"bottleneck={self.stats.bottleneck()!r})")


class GraphicsPipeline:
    """The modelled GPU pipeline; one instance per draw call.

    Two execution engines produce identical results: the default
    ``"batched"`` engine precomputes the draw's entire flush schedule
    (:mod:`repro.hwmodel.flushplan`) and runs the per-flush math over all
    flushes at once, while ``"scalar"`` walks the TC flushes one by one —
    the original reference path, kept for validation and as the golden
    oracle of the flush-engine equivalence tests.  :meth:`draw` is the one
    place the engine is chosen.
    """

    def __init__(self, config=None):
        self.config = config if config is not None else GPUConfig()
        if not isinstance(self.config, GPUConfig):
            raise TypeError("config must be a GPUConfig")
        self._trace = None

    # ------------------------------------------------------------------

    def draw(self, workload_or_stream, crop_cache=None, trace=None,
             engine="batched"):
        """Simulate one draw call; returns a :class:`DrawResult`.

        ``crop_cache`` optionally shares a warm CROP cache across draws
        (used by the §VII microbenchmark probes).  ``trace`` optionally
        collects per-flush events into a
        :class:`~repro.hwmodel.trace.DrawTrace`.  ``engine`` selects the
        batched flush-plan engine (default) or the scalar per-flush path;
        both are cycle-, stat- and trace-exact against each other.
        """
        if engine not in PIPELINE_ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {PIPELINE_ENGINES}")
        if isinstance(workload_or_stream, FragmentStream):
            workload = DrawWorkload.from_stream(workload_or_stream,
                                                self.config)
        elif isinstance(workload_or_stream, DrawWorkload):
            workload = workload_or_stream
        else:
            raise TypeError(
                "draw() accepts a FragmentStream or DrawWorkload, got "
                f"{type(workload_or_stream).__name__}")

        cfg = self.config
        self._trace = trace
        stats = PipelineStats()
        shader = ShaderArray(cfg, stats)
        vertex = VertexPipeline(cfg, stats, shader)
        raster = RasterEngine(cfg, stats)
        crop = CropUnit(cfg, stats, cache=crop_cache)
        zrop = ZropUnit(cfg, stats)

        vertex.process_prims(workload.n_prims)

        if engine == "batched":
            self._draw_batched(workload, raster, crop, zrop, shader, stats)
        else:
            self._draw_scalar(workload, raster, crop, zrop, shader, stats)

        if cfg.enable_het:
            zrop.termination_updates(workload.n_terminated_pixels,
                                     workload.terminated_stencil_tags)

        crop.finish_draw()
        raster.finalize()
        stats.finalize(cfg.pipeline_fill_cycles)
        self._trace = None
        return DrawResult(stats, cfg, workload.width, workload.height)

    # ------------------------------------------------------------------

    def _draw_batched(self, workload, raster, crop, zrop, shader, stats):
        """Replay the draw's flush digest through the units at once."""
        digest = self._flush_digest(workload)
        raster.accumulate(digest.raster_portions, digest.raster_tiles,
                          digest.raster_quads)
        replay_flushes(digest, workload.width, self.config, stats, crop,
                       zrop, shader, trace=self._trace)

    def _flush_digest(self, workload):
        """The workload's :class:`~repro.hwmodel.flushplan.FlushDigest`.

        Memoized in the cache of the stream the workload was built from
        under this config (where a coherence full hit installs it), so a
        redrawn or revisited frame skips planning and reads no per-quad
        column.  Workloads built by hand, or under another config, plan
        afresh.
        """
        cfg = self.config
        source = workload._source
        cache = (source[0]._cache if source is not None and source[1] == cfg
                 else {})
        key = digest_key(cfg)
        digest = cache.get(key)
        if digest is None:
            digest = cache[key] = digest_flushes(
                build_flush_plan(workload, cfg), workload, cfg)
        return digest

    def _draw_scalar(self, workload, raster, crop, zrop, shader, stats):
        """Reference path: walk TC flushes one by one."""
        cfg = self.config
        tc = TileCoalescer(cfg.n_tc_bins, cfg.tc_bin_quads,
                           cfg.tc_timeout_quads)
        if cfg.enable_qm and cfg.qm_use_tgc:
            self._run_with_tgc(workload, raster, tc, crop, zrop, shader, stats)
        else:
            self._run_in_draw_order(workload, raster, tc, crop, zrop, shader, stats)

        for batch in tc.drain():
            self._process_flush(batch, workload, crop, zrop, shader, stats)
        stats.tc_flush_full = tc.flush_counts[TileCoalescer.FLUSH_FULL]
        stats.tc_flush_evict = tc.flush_counts[TileCoalescer.FLUSH_EVICT]
        stats.tc_flush_timeout = tc.flush_counts[TileCoalescer.FLUSH_TIMEOUT]
        stats.tc_flush_final = tc.flush_counts[TileCoalescer.FLUSH_FINAL]

    # ------------------------------------------------------------------

    def _run_in_draw_order(self, workload, raster, tc, crop, zrop, shader,
                           stats):
        """Baseline order: primitives hit the rasteriser in draw order.

        The (prim, tile) groups are already sorted in draw order, so the
        whole draw is one batch insert: raster-unit counts accumulate in a
        single call (pure sums, so identical to per-primitive calls) and
        the TC unit consumes every group through :meth:`TileCoalescer.
        insert_groups`, which yields flushes in the exact sequential order.
        """
        raster.accumulate(len(workload.prim_group_ranges),
                          int(workload.group_n_rtiles.sum()),
                          int(workload.group_n_quads.sum()))
        for batch in tc.insert_groups(workload.group_tile,
                                      workload.group_starts,
                                      workload.group_ends,
                                      workload.quad_rows):
            self._process_flush(batch, workload, crop, zrop, shader, stats)

    def _run_with_tgc(self, workload, raster, tc, crop, zrop, shader, stats):
        """VR-Pipe order: the TGC unit groups primitives per tile grid.

        The precomputed ``(pair_prim, pair_grid)`` occurrence arrays drive
        one :meth:`TileGridCoalescer.insert_pairs` pass; the simulator then
        iterates *flushed grid groups* (each rasterised as a tile batch)
        instead of looping per Gaussian.
        """
        cfg = self.config
        tgc = TileGridCoalescer(cfg.n_tgc_bins, cfg.tgc_bin_prims)
        for grid_id, prims, _reason in tgc.insert_pairs(workload.pair_grid,
                                                        workload.pair_prim):
            self._rasterize_grid_group(grid_id, prims, workload, raster,
                                       tc, crop, zrop, shader, stats)
        for grid_id, prims, _reason in tgc.drain():
            self._rasterize_grid_group(grid_id, prims, workload, raster, tc,
                                       crop, zrop, shader, stats)
        stats.tgc_flush_full = tgc.flush_counts[TileGridCoalescer.FLUSH_FULL]
        stats.tgc_flush_evict = tgc.flush_counts[TileGridCoalescer.FLUSH_EVICT]
        stats.tgc_flush_final = tgc.flush_counts[TileGridCoalescer.FLUSH_FINAL]

    def _rasterize_grid_group(self, grid_id, prims, workload, raster, tc,
                              crop, zrop, shader, stats):
        """Rasterise the portions of ``prims`` that fall in ``grid_id``.

        Selects every (prim, tile) group of the flushed primitives inside
        the grid, accumulates their raster counts once, and batch-inserts
        the groups into the TC unit in the original per-primitive order.
        """
        sel, n_portions = workload.select_grid_groups(grid_id, prims)
        if not sel.size:
            return
        raster.accumulate(n_portions,
                          int(workload.group_n_rtiles[sel].sum()),
                          int(workload.group_n_quads[sel].sum()))
        for batch in tc.insert_groups(workload.group_tile[sel],
                                      workload.group_starts[sel],
                                      workload.group_ends[sel],
                                      workload.quad_rows):
            self._process_flush(batch, workload, crop, zrop, shader, stats)

    # ------------------------------------------------------------------

    def _process_flush(self, batch, workload, crop, zrop, shader, stats):
        """One TC flush: ZROP test -> QRU -> shading -> CROP blend."""
        cfg = self.config
        quads = workload.quads
        rows = batch.quad_rows
        n_flushed = rows.shape[0]

        # TC unit insertion throughput, accounted at flush over the whole
        # batch (every flushed quad passed through the bin).
        stats.units["tc"].add(n_flushed, n_flushed / cfg.tc_quads_per_cycle)

        if cfg.enable_het:
            survivors = zrop.termination_test(
                quads.mask_unterminated[rows], batch.tile_id, workload.width)
            rows = rows[survivors]
            blend_masks = quads.mask_et[rows]
        else:
            blend_masks = quads.mask_unpruned[rows]
        if rows.shape[0] == 0:
            if self._trace is not None:
                self._trace.record_flush(batch.tile_id, batch.reason,
                                         n_flushed, 0, 0, 0)
            return

        pairs_before = stats.quads_merged_pairs
        if cfg.enable_qm:
            plan = plan_merges(quads.qpos[rows])
            shader.shade_fragment_batch(rows.shape[0], plan.n_pairs)
            stats.quads_merged_pairs += plan.n_pairs
            out_masks = np.concatenate((
                blend_masks[plan.first] | blend_masks[plan.second],
                blend_masks[plan.singles],
            ))
            out_rows = np.concatenate((rows[plan.first], rows[plan.singles]))
        else:
            shader.shade_fragment_batch(rows.shape[0], 0)
            out_masks = blend_masks
            out_rows = rows

        live = out_masks != 0
        n_crop_quads = int(live.sum())
        n_fragments = int(popcount4(out_masks[live]).sum()) if n_crop_quads else 0

        # PROP: quads pass it twice — dispatch toward the SMs (all flushed
        # quads, at the lighter dispatch weight) and the ordered return of
        # blendable quads into the CROP stream.
        prop_work = cfg.prop_dispatch_weight * n_flushed + n_crop_quads
        stats.units["prop"].add(n_flushed + n_crop_quads,
                                prop_work / cfg.prop_quads_per_cycle)

        if n_crop_quads:
            tags = crop.quad_line_tags(
                quads.qx[out_rows[live]], quads.qy[out_rows[live]],
                workload.width)
            crop.blend_batch(n_crop_quads, n_fragments, tags)

        if self._trace is not None:
            n_pairs = (stats.quads_merged_pairs - pairs_before
                       if cfg.enable_qm else 0)
            self._trace.record_flush(
                batch.tile_id, batch.reason, n_flushed, rows.shape[0],
                n_pairs, n_crop_quads)
