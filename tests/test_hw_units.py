"""Unit-level tests for the small hardware-unit models."""

import numpy as np
import pytest

from repro.hwmodel.config import jetson_agx_orin
from repro.hwmodel.crop import CropUnit
from repro.hwmodel.raster_hw import RasterEngine
from repro.hwmodel.sm import ShaderArray
from repro.hwmodel.stats import PipelineStats
from repro.hwmodel.units import ceil_div, popcount4, warps_for_quads
from repro.hwmodel.vpo import VertexPipeline
from repro.hwmodel.zrop import ZropUnit
from repro.render.fragstream import TILE_SIZE


@pytest.fixture
def cfg():
    return jetson_agx_orin()


@pytest.fixture
def stats():
    return PipelineStats()


class TestHelpers:
    def test_ceil_div(self):
        assert ceil_div(0, 8) == 0
        assert ceil_div(1, 8) == 1
        assert ceil_div(8, 8) == 1
        assert ceil_div(9, 8) == 2
        with pytest.raises(ValueError):
            ceil_div(-1, 8)

    def test_warps_for_quads(self):
        assert warps_for_quads(8) == 1
        assert warps_for_quads(9) == 2

    def test_popcount4(self):
        assert popcount4(np.array([0, 1, 0b1111, 0b1010])).tolist() == \
            [0, 1, 4, 2]


class TestShaderArray:
    def test_vertex_batch(self, cfg, stats):
        ShaderArray(cfg, stats).shade_vertex_batch(64)
        assert stats.n_vertices == 64
        assert stats.units["sm"].busy_cycles > 0

    def test_fragment_batch_counts(self, cfg, stats):
        ShaderArray(cfg, stats).shade_fragment_batch(16)
        assert stats.quads_to_sm == 16
        assert stats.fragments_shaded == 64
        assert stats.warps_launched == 2

    def test_merge_pairs_cost_extra(self, cfg):
        a, b = PipelineStats(), PipelineStats()
        ShaderArray(cfg, a).shade_fragment_batch(16, n_merge_pairs=0)
        ShaderArray(cfg, b).shade_fragment_batch(16, n_merge_pairs=4)
        assert b.units["sm"].busy_cycles > a.units["sm"].busy_cycles
        assert b.merge_warps > 0

    def test_empty_batch_free(self, cfg, stats):
        ShaderArray(cfg, stats).shade_fragment_batch(0)
        assert stats.units["sm"].busy_cycles == 0


class TestVertexPipeline:
    def test_process(self, cfg, stats):
        vpo = VertexPipeline(cfg, stats, ShaderArray(cfg, stats))
        vpo.process_prims(100)
        assert stats.n_prims == 100
        assert stats.n_vertices == 400
        assert stats.units["vpo"].busy_cycles == pytest.approx(200.0)
        assert stats.dram_bytes > 0


class TestRasterEngine:
    def test_max_of_substages(self, cfg, stats):
        engine = RasterEngine(cfg, stats)
        engine.accumulate(10, 40, 80)
        engine.finalize()
        expected = max(10 * cfg.setup_cycles_per_prim,
                       40 / cfg.coarse_raster_tiles_per_cycle,
                       80 / cfg.fine_raster_quads_per_cycle)
        assert stats.units["raster"].busy_cycles == pytest.approx(expected)

    def test_accumulate_after_finalize_fails(self, cfg, stats):
        engine = RasterEngine(cfg, stats)
        engine.finalize()
        with pytest.raises(RuntimeError):
            engine.accumulate(1, 1, 1)

    def test_finalize_idempotent(self, cfg, stats):
        engine = RasterEngine(cfg, stats)
        engine.accumulate(1, 1, 8)
        engine.finalize()
        once = stats.units["raster"].busy_cycles
        engine.finalize()
        assert stats.units["raster"].busy_cycles == once
        assert once == pytest.approx(max(
            cfg.setup_cycles_per_prim,
            1 / cfg.coarse_raster_tiles_per_cycle,
            8 / cfg.fine_raster_quads_per_cycle))

    def test_rejects_negative(self, cfg, stats):
        with pytest.raises(ValueError):
            RasterEngine(cfg, stats).accumulate(-1, 0, 0)


class TestCropUnit:
    def test_blend_accounting(self, cfg, stats):
        crop = CropUnit(cfg, stats)
        tags = crop.quad_line_tags(np.array([0, 1]), np.array([0, 0]), 64)
        crop.blend_batch(2, 7, tags)
        assert stats.quads_to_crop == 2
        assert stats.fragments_blended == 7
        assert stats.crop_cache_misses == len(tags)

    def test_quad_line_tags_two_rows(self, cfg, stats):
        crop = CropUnit(cfg, stats)
        tags = crop.quad_line_tags(np.array([0]), np.array([0]), 64)
        assert len(tags) == 2  # rows 0 and 1

    def test_tags_deduplicated(self, cfg, stats):
        crop = CropUnit(cfg, stats)
        tags = crop.quad_line_tags(np.array([0, 1, 2]),
                                   np.array([0, 0, 0]), 64)
        # 64px * 8B = 512B rows -> 4 lines/row; quads 0..2 share line 0.
        assert len(tags) == 2

    def test_empty_batch_noop(self, cfg, stats):
        CropUnit(cfg, stats).blend_batch(0, 0, [])
        assert stats.units["crop"].busy_cycles == 0

    def test_finish_draw_writebacks(self, cfg, stats):
        crop = CropUnit(cfg, stats)
        crop.blend_batch(1, 4, [0, 1])
        before = stats.dram_bytes
        crop.finish_draw()
        assert stats.dram_bytes > before

    def test_blend_batch_accepts_generator(self, cfg):
        """The documented Iterable contract: a one-shot generator must not
        crash on len() and must account exactly like a list."""
        stats_gen, stats_list = PipelineStats(), PipelineStats()
        CropUnit(cfg, stats_gen).blend_batch(
            2, 8, (tag for tag in (0, 1, 2)))
        CropUnit(cfg, stats_list).blend_batch(2, 8, [0, 1, 2])
        assert stats_gen.crop_cache_misses == stats_list.crop_cache_misses == 3
        assert (stats_gen.units["crop"].busy_cycles
                == stats_list.units["crop"].busy_cycles)


class TestZropUnit:
    def test_termination_test(self, cfg, stats):
        zrop = ZropUnit(cfg, stats)
        survivors = zrop.termination_test(
            np.array([0b0000, 0b0001, 0b1111]), tile_id=0, width=64)
        assert survivors.tolist() == [False, True, True]
        assert stats.zrop_tests == 3
        assert stats.quads_discarded_zrop == 1

    def test_updates(self, cfg, stats):
        zrop = ZropUnit(cfg, stats)
        zrop.termination_updates(5, [0, 1, 2])
        assert stats.termination_updates == 5
        assert stats.units["zrop"].busy_cycles == pytest.approx(
            5 * cfg.term_update_cycles)

    def test_rejects_negative_updates(self, cfg, stats):
        with pytest.raises(ValueError):
            ZropUnit(cfg, stats).termination_updates(-1)

    def test_updates_accept_generator_tags(self, cfg):
        stats_gen, stats_list = PipelineStats(), PipelineStats()
        ZropUnit(cfg, stats_gen).termination_updates(
            3, (tag for tag in (4, 5)))
        ZropUnit(cfg, stats_list).termination_updates(3, [4, 5])
        assert stats_gen.dram_bytes == stats_list.dram_bytes > 0
        assert (stats_gen.units["zrop"].busy_cycles
                == stats_list.units["zrop"].busy_cycles)

    def test_updates_empty_generator_no_traffic(self, cfg, stats):
        ZropUnit(cfg, stats).termination_updates(0, (t for t in ()))
        assert stats.dram_bytes == 0

    @pytest.mark.parametrize("width", [64, 250])
    def test_plan_replay_matches_per_flush_tests(self, cfg, width):
        """The group-granular fast path must leave the z-cache with the
        same counters and line state as per-flush termination_test calls
        — per-flush miss counts included."""
        stats_plan, stats_seq = PipelineStats(), PipelineStats()
        plan_unit = ZropUnit(cfg, stats_plan)
        seq_unit = ZropUnit(cfg, stats_seq)
        assert plan_unit.zcache.n_lines % TILE_SIZE == 0
        # Enough distinct tile rows to overflow the 8-group capacity,
        # plus revisits for hits.
        tiles = list(range(0, 44, 4)) + [0, 20, 40, 0]
        n = np.full(len(tiles), 4, dtype=np.int64)
        plan_misses = plan_unit.termination_test_plan(
            np.asarray(tiles), n, n, width)
        seq_misses = []
        for tile in tiles:
            before = seq_unit.zcache.misses
            seq_unit.termination_test(np.ones(4, dtype=np.int64), tile,
                                      width)
            seq_misses.append(seq_unit.zcache.misses - before)
        assert plan_misses.tolist() == seq_misses
        for counter in ("hits", "misses", "evictions", "writebacks"):
            assert (getattr(plan_unit.zcache, counter)
                    == getattr(seq_unit.zcache, counter)), counter
        assert (list(plan_unit.zcache._lines.items())
                == list(seq_unit.zcache._lines.items()))
        for unit_stats in (stats_plan, stats_seq):
            assert unit_stats.zrop_tests == 4 * len(tiles)
        assert (stats_plan.units["zrop"].busy_cycles
                == stats_seq.units["zrop"].busy_cycles)
