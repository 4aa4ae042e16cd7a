"""Pipeline simulator: integration invariants across the four variants."""

import numpy as np
import pytest

from repro.core.het import blend_with_het
from repro.core.vrpipe import run_all_variants, run_variant
from repro.hwmodel.caches import LRUCache
from repro.hwmodel.config import jetson_agx_orin
from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline


@pytest.fixture(scope="module")
def variant_results(deep_stream):
    return run_all_variants(deep_stream)


class TestDrawWorkload:
    def test_from_stream(self, deep_stream):
        wl = DrawWorkload.from_stream(deep_stream, jetson_agx_orin())
        assert wl.n_prims == deep_stream.prim_colors.shape[0]
        assert wl.group_n_quads.sum() == len(wl.quads)
        # Raster-tile counts bounded by 4 per (prim, tile) group.
        assert wl.group_n_rtiles.max() <= 4
        assert wl.group_n_rtiles.min() >= 1

    def test_groups_cover_all_quads(self, deep_stream):
        wl = DrawWorkload.from_stream(deep_stream, jetson_agx_orin())
        covered = 0
        for prim, (s, e) in wl.prim_group_ranges.items():
            covered += int(wl.group_n_quads[s:e].sum())
            assert (wl.group_prim[s:e] == prim).all()
        assert covered == len(wl.quads)

    def test_terminated_pixels_counted(self, deep_stream):
        wl = DrawWorkload.from_stream(deep_stream, jetson_agx_orin())
        _, alpha, _ = blend_with_het(deep_stream)
        assert wl.n_terminated_pixels == int((alpha >= 0.996).sum())

    def test_type_check(self):
        with pytest.raises(TypeError):
            GraphicsPipeline().draw("stream")


class TestVariantOrdering:
    def test_speedup_ordering(self, variant_results):
        cycles = {k: v.cycles for k, v in variant_results.items()}
        assert cycles["het+qm"] < cycles["het"] < cycles["baseline"]
        assert cycles["qm"] < cycles["baseline"]

    def test_counts_ordering(self, variant_results):
        base = variant_results["baseline"].stats
        het = variant_results["het"].stats
        qm = variant_results["qm"].stats
        both = variant_results["het+qm"].stats
        assert het.fragments_blended < base.fragments_blended
        assert qm.quads_to_crop < base.quads_to_crop
        assert both.quads_to_crop < het.quads_to_crop
        # QM is colour-exact but moves work into the SMs: the ROP blends
        # merged unions, i.e. *fewer* fragments than the baseline.
        assert qm.fragments_blended < base.fragments_blended

    def test_quads_rasterized_variant_invariant(self, variant_results):
        counts = {k: v.stats.quads_rasterized
                  for k, v in variant_results.items()}
        assert len(set(counts.values())) == 1

    def test_merges_only_with_qm(self, variant_results):
        assert variant_results["baseline"].stats.quads_merged_pairs == 0
        assert variant_results["het"].stats.quads_merged_pairs == 0
        assert variant_results["qm"].stats.quads_merged_pairs > 0

    def test_zrop_only_with_het(self, variant_results):
        assert variant_results["baseline"].stats.zrop_tests == 0
        assert variant_results["het"].stats.zrop_tests > 0
        assert variant_results["het"].stats.termination_updates > 0


class TestCountConsistency:
    def test_baseline_blend_counts_match_stream(self, deep_stream,
                                                variant_results):
        stats = variant_results["baseline"].stats
        assert stats.fragments_blended == int(deep_stream.unpruned.sum())

    def test_het_blend_counts_match_lagged_mask(self, deep_stream,
                                                variant_results):
        cfg = variant_results["het"].config
        expected = int(deep_stream.het_blended_mask(
            cfg.termination_alpha, cfg.het_inflight_lag).sum())
        assert variant_results["het"].stats.fragments_blended == expected

    @pytest.mark.parametrize("variant", ["baseline", "het"])
    def test_quad_reaches_crop_while_any_lane_is_live(
            self, deep_stream, variant_results, variant):
        """A quad dies only when all four of its lanes are dropped: the
        CROP sees one quad per distinct (prim, quad x, quad y) among the
        fragments that survive pruning and, under HET, the lagged
        termination mask."""
        res = variant_results[variant]
        cfg = res.config
        if variant == "het":
            live = deep_stream.het_blended_mask(cfg.termination_alpha,
                                                cfg.het_inflight_lag)
        else:
            live = deep_stream.unpruned
        quads = np.stack([deep_stream.prim_ids[live],
                          deep_stream.x[live] // 2,
                          deep_stream.y[live] // 2], axis=1)
        n_live_quads = np.unique(quads, axis=0).shape[0]
        assert res.stats.quads_to_crop == n_live_quads

    def test_shaded_ge_blended(self, variant_results):
        for res in variant_results.values():
            assert res.stats.fragments_shaded >= res.stats.fragments_blended

    def test_qm_merge_arithmetic(self, variant_results):
        stats = variant_results["qm"].stats
        # Each merged pair removes at most one quad from the CROP stream.
        base = variant_results["baseline"].stats
        assert (base.quads_to_crop - stats.quads_to_crop
                <= stats.quads_merged_pairs)

    def test_utilization_in_range(self, variant_results):
        for res in variant_results.values():
            for name, u in res.utilization().items():
                assert 0.0 <= u <= 1.0, (name, u)

    def test_rop_is_bottleneck_baseline(self, variant_results):
        assert variant_results["baseline"].stats.bottleneck() in ("crop",
                                                                  "prop")


class TestDeterminism:
    def test_same_stream_same_cycles(self, deep_stream):
        a = run_variant(deep_stream, "het+qm")
        b = run_variant(deep_stream, "het+qm")
        assert a.cycles == b.cycles
        assert a.stats.quads_merged_pairs == b.stats.quads_merged_pairs


class TestSharedCache:
    def test_warm_cache_second_draw_hits(self, small_stream):
        cfg = jetson_agx_orin()
        cache = LRUCache(cfg.crop_cache_kb * 1024, cfg.cache_line_bytes)
        pipe = GraphicsPipeline(cfg)
        first = pipe.draw(small_stream, crop_cache=cache)
        second = pipe.draw(small_stream, crop_cache=cache)
        # 96x96 RGBA16F framebuffer = 72 KB > 16 KB: it cannot all fit, but
        # re-drawing must not miss more than the first cold pass.
        assert second.stats.crop_cache_misses <= first.stats.crop_cache_misses

    def test_time_ms_positive(self, small_stream):
        res = GraphicsPipeline(jetson_agx_orin()).draw(small_stream)
        assert res.time_ms() > 0
        assert "cycles" in repr(res)


class TestEmptyDraw:
    def test_empty_stream(self):
        from repro.render.fragstream import FragmentStream
        stream = FragmentStream(
            np.empty(0, np.int32), np.empty(0, np.int32),
            np.empty(0, np.int32), np.empty(0, np.float32),
            np.zeros((0, 3)), 32, 32)
        res = GraphicsPipeline(jetson_agx_orin()).draw(stream)
        assert res.stats.quads_to_crop == 0
        assert res.cycles > 0  # fill cycles only
