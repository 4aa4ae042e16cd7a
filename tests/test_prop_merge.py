"""Quad reorder unit pairing and merge exactness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quad_merge import (
    merge_flush_batch,
    merge_quad_pair,
    rop_blend_sequence,
)
from repro.core.vrpipe import variant_config
from repro.hwmodel.flushplan import build_flush_plan
from repro.hwmodel.pipeline import DrawWorkload
from repro.hwmodel.prop import (
    plan_merges,
    plan_merges_segmented,
    qru_storage_bytes,
)
from repro.hwmodel.tgc import TileGridCoalescer
from repro.render.blending import premultiply
from repro.render.splat_raster import rasterize_splats


class TestPlanMerges:
    def test_empty(self):
        plan = plan_merges(np.array([], dtype=int))
        assert plan.n_pairs == 0 and plan.n_quads_out == 0

    def test_no_overlap_all_singles(self):
        plan = plan_merges(np.array([0, 1, 2]))
        assert plan.n_pairs == 0
        assert sorted(plan.singles.tolist()) == [0, 1, 2]

    def test_simple_pair(self):
        plan = plan_merges(np.array([5, 5]))
        assert plan.n_pairs == 1
        assert plan.first.tolist() == [0]
        assert plan.second.tolist() == [1]

    def test_pairs_consecutive_occupants(self):
        # Occupants of position 3 arrive at indices 0, 2, 4: pair (0,2).
        plan = plan_merges(np.array([3, 7, 3, 7, 3]))
        pairs = set(zip(plan.first.tolist(), plan.second.tolist()))
        assert (0, 2) in pairs
        assert (1, 3) in pairs
        assert plan.singles.tolist() == [4]

    def test_order_within_pair(self):
        plan = plan_merges(np.array([1, 1, 1, 1]))
        assert (plan.first < plan.second).all()
        assert plan.n_pairs == 2

    def test_quads_out(self):
        plan = plan_merges(np.array([0, 0, 1, 2]))
        assert plan.n_quads_out == 3  # one pair + two singles

    @staticmethod
    def assert_segmented_matches_per_flush(rng, n_segments):
        seg_lengths = rng.integers(0, 30, size=n_segments)
        qpos = rng.integers(0, 64, size=int(seg_lengths.sum()))
        segment_ids = np.repeat(np.arange(n_segments), seg_lengths)
        seg = plan_merges_segmented(segment_ids, qpos, n_segments)
        offset = 0
        firsts, seconds, singles, pairs = [], [], [], []
        for length in seg_lengths:
            plan = plan_merges(qpos[offset:offset + length])
            firsts.extend((plan.first + offset).tolist())
            seconds.extend((plan.second + offset).tolist())
            singles.extend((plan.singles + offset).tolist())
            pairs.append(plan.n_pairs)
            offset += length
        assert seg.first.tolist() == firsts
        assert seg.second.tolist() == seconds
        assert seg.singles.tolist() == singles
        assert seg.pairs_per_segment.tolist() == pairs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_segmented_matches_per_flush(self, seed):
        """Segmented pairing over many flushes == per-flush plan_merges,
        including the (position, arrival) pair order and arrival-order
        singles the CROP tag stream depends on."""
        self.assert_segmented_matches_per_flush(
            np.random.default_rng(seed), 12)

    def test_segmented_matches_per_flush_wide_keys(self):
        """Past 1024 flushes the (segment, position) key no longer fits
        16 bits, so the pairing sorts on a wider key; it must still be
        the per-flush pairing."""
        self.assert_segmented_matches_per_flush(
            np.random.default_rng(3), 1500)

    def test_segmented_empty(self):
        seg = plan_merges_segmented(np.empty(0, int), np.empty(0, int), 3)
        assert seg.n_pairs == 0
        assert seg.pairs_per_segment.tolist() == [0, 0, 0]

    def test_segmented_rejects_out_of_range_qpos(self):
        with pytest.raises(ValueError):
            plan_merges_segmented(np.zeros(2, int), np.array([0, 64]), 1)

    def test_qru_storage_matches_table3(self):
        assert qru_storage_bytes() == 688


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=0, max_size=60))
def test_plan_partition_property(qpos):
    """Every quad is exactly once a pair member or a single."""
    qpos = np.array(qpos, dtype=int)
    plan = plan_merges(qpos)
    seen = np.concatenate([plan.first, plan.second, plan.singles])
    assert sorted(seen.tolist()) == list(range(len(qpos)))
    # Pair members share a position; first precedes second.
    for f, s in zip(plan.first, plan.second):
        assert qpos[f] == qpos[s]
        assert f < s


def _random_quads(rng, n, qpos_choices=(0, 1)):
    qpos = rng.choice(qpos_choices, size=n)
    coverage = rng.random((n, 4)) > 0.3
    coverage[~coverage.any(axis=1), 0] = True  # at least one lane
    colors = rng.random((n, 4, 3))
    alphas = rng.uniform(0.05, 0.9, size=(n, 4))
    rgba = np.zeros((n, 4, 4))
    for i in range(n):
        rgba[i] = premultiply(colors[i], alphas[i])
        rgba[i][~coverage[i]] = 0.0
    return qpos, rgba, coverage


class TestMergeExactness:
    def test_pair_merge_is_ffb(self):
        rng = np.random.default_rng(0)
        _, rgba, cov = _random_quads(rng, 2, qpos_choices=(0,))
        merged, merged_cov = merge_quad_pair(rgba[0], cov[0], rgba[1], cov[1])
        direct = rop_blend_sequence(rgba, cov)
        via_merge = rop_blend_sequence(merged[None], merged_cov[None])
        np.testing.assert_allclose(via_merge, direct, atol=1e-12)

    def test_merge_flush_batch_preserves_color(self):
        """Blending the merged batch == blending the original sequence.

        All quads share one position so they contribute to the same 2x2
        block; merging must not change the block's final colour.
        """
        rng = np.random.default_rng(1)
        for trial in range(5):
            n = rng.integers(1, 9)
            qpos, rgba, cov = _random_quads(rng, int(n), qpos_choices=(7,))
            out_rgba, out_cov, plan = merge_flush_batch(qpos, rgba, cov)
            direct = rop_blend_sequence(rgba, cov)
            merged = rop_blend_sequence(out_rgba, out_cov)
            np.testing.assert_allclose(merged, direct, atol=1e-12)
            assert out_rgba.shape[0] == plan.n_quads_out

    def test_merge_reduces_quads(self):
        rng = np.random.default_rng(2)
        qpos, rgba, cov = _random_quads(rng, 8, qpos_choices=(3,))
        out_rgba, _, plan = merge_flush_batch(qpos, rgba, cov)
        assert out_rgba.shape[0] == 4
        assert plan.n_pairs == 4

    def test_coverage_union(self):
        rng = np.random.default_rng(3)
        _, rgba, cov = _random_quads(rng, 2, qpos_choices=(0,))
        _, merged_cov = merge_quad_pair(rgba[0], cov[0], rgba[1], cov[1])
        assert (merged_cov == (cov[0] | cov[1])).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            merge_quad_pair(np.zeros((3, 4)), np.ones(4, bool),
                            np.zeros((4, 4)), np.ones(4, bool))
        with pytest.raises(ValueError):
            merge_flush_batch(np.zeros(2), np.zeros((2, 4, 4)),
                              np.zeros((3, 4), bool))


class TestGridGroupSelection:
    """The batched flush planner selects every TGC flush's (prim, tile)
    groups in one pass; the scalar engine selects per flush."""

    def test_batched_matches_per_flush(self, deep_pre, deep_camera):
        stream = rasterize_splats(deep_pre.splats, deep_camera.width,
                                  deep_camera.height)
        # Few, small TGC bins: grids are both evicted and filled.
        config = variant_config("het+qm", n_tgc_bins=3, tgc_bin_prims=4)
        workload = DrawWorkload.from_stream(stream, config)
        tgc = TileGridCoalescer(config.n_tgc_bins, config.tgc_bin_prims)
        flushed = tgc.plan_groups(workload.pair_grid, workload.pair_prim)
        assert tgc.flush_counts[TileGridCoalescer.FLUSH_EVICT] > 0
        assert tgc.flush_counts[TileGridCoalescer.FLUSH_FULL] > 0

        selections, portions = [], 0
        for grid_id, prims, _reason in flushed:
            sel, n_portions = workload.select_grid_groups(grid_id, prims)
            selections.append(sel)
            portions += n_portions
        expected = np.concatenate(selections)

        sel, n_portions = workload.select_flushed_groups(flushed)
        np.testing.assert_array_equal(sel, expected)
        assert n_portions == portions

        plan = build_flush_plan(workload, config)
        assert plan.raster_portions == portions
        assert plan.raster_tiles == int(workload.group_n_rtiles[expected].sum())
        assert plan.raster_quads == int(workload.group_n_quads[expected].sum())
        assert plan.tgc_flush_counts == tgc.flush_counts

    def test_unknown_occurrences_select_nothing(self, deep_pre, deep_camera):
        stream = rasterize_splats(deep_pre.splats, deep_camera.width,
                                  deep_camera.height)
        workload = DrawWorkload.from_stream(stream, variant_config("qm"))
        missing = [(0, [workload.n_prims + 5], TileGridCoalescer.FLUSH_FULL)]
        sel, n_portions = workload.select_flushed_groups(missing)
        assert sel.size == 0 and n_portions == 0
        sel, n_portions = workload.select_flushed_groups([])
        assert sel.size == 0 and n_portions == 0
