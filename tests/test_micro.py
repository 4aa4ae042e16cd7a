"""Microbenchmark probes against the hardware model (§VII-A)."""

import numpy as np
import pytest

from repro.micro.crop_cache import probe_crop_cache_capacity
from repro.micro.rop_throughput import (
    pixels_per_cycle_by_format,
    time_vs_quads_per_pixel,
)
from repro.micro.tile_binning import tile_binning_probe
from repro.micro.workload import checkerboard_stream, rect_stream


class TestRectStream:
    def test_fragment_count(self):
        s = rect_stream([(0, 0, 4, 4)], 32, 32)
        assert len(s) == 16

    def test_clipping(self):
        s = rect_stream([(30, 30, 8, 8)], 32, 32)
        assert len(s) == 4

    def test_order_primitive_major(self):
        s = rect_stream([(0, 0, 2, 2), (4, 4, 2, 2)], 32, 32)
        assert (np.diff(s.prim_ids) >= 0).all()

    def test_distinct_colors(self):
        s = rect_stream([(0, 0, 2, 2)] * 5, 32, 32)
        assert len({tuple(c) for c in s.prim_colors}) == 5

    def test_rejects_empty_rect(self):
        with pytest.raises(ValueError):
            rect_stream([(0, 0, 0, 4)], 32, 32)


class TestCheckerboard:
    def test_live_per_quad(self):
        s = checkerboard_stream(8, 8, quads_per_pixel=2, live_per_quad=2)
        qt = s.quad_table()
        assert (qt.n_fragments == 2).all()
        assert len(qt) == 2 * 16  # 2 layers x 16 quads

    def test_rejects_bad_live(self):
        with pytest.raises(ValueError):
            checkerboard_stream(8, 8, 1, live_per_quad=5)


class TestCropCacheProbe:
    def test_capacity_bounded_by_16kb(self):
        cap = probe_crop_cache_capacity(8, 8, trials=1, max_rects=40)
        assert 8 * 1024 <= cap <= 16 * 1024

    def test_small_rects_fill_close_to_capacity(self):
        cap = probe_crop_cache_capacity(4, 4, trials=1, max_rects=80)
        assert cap >= 12 * 1024

    def test_rejects_bad_rect(self):
        with pytest.raises(ValueError):
            probe_crop_cache_capacity(0, 4)


class TestRopThroughput:
    def test_rgba8_doubles_rgba16f(self):
        ppc = pixels_per_cycle_by_format(width=128, height=128, layers=4)
        assert ppc["rgba8"] / ppc["rgba16f"] == pytest.approx(2.0, rel=0.05)

    def test_rgba16f_near_8_per_cycle(self):
        ppc = pixels_per_cycle_by_format(width=128, height=128, layers=4)
        assert 6.0 <= ppc["rgba16f"] <= 8.0

    def test_quad_granularity(self):
        times = time_vs_quads_per_pixel(width=64, height=64)
        # Keys are quads-per-blended-pixel; time scales with quad count.
        keys = sorted(times)
        assert times[keys[0]] == pytest.approx(1.0)
        assert times[keys[-1]] == pytest.approx(
            keys[-1] / keys[0], rel=0.05)


class TestTileBinning:
    def test_cliff_at_33(self):
        at_32 = tile_binning_probe(32, rounds=10)
        at_33 = tile_binning_probe(33, rounds=10)
        # Below the bin count: quads coalesce into shared warps.
        assert at_32["warps"] < at_32["rects"] / 2
        # Above: every rectangle launches its own warp.
        assert at_33["warps"] == at_33["rects"]
        assert at_33["tc_evictions"] > 0

    def test_no_evictions_below_cliff(self):
        assert tile_binning_probe(16, rounds=5)["tc_evictions"] == 0

    def test_timeout_flushes_reported_separately(self):
        """Idle-flush regression: with the timeout rule on, the round-robin
        probe's bins flush by timeout — and those flushes must surface in
        the dedicated stat instead of being folded into the final count."""
        without = tile_binning_probe(8, rounds=6)
        with_timeout = tile_binning_probe(8, rounds=6, timeout_quads=4)
        assert without["tc_timeouts"] == 0
        assert with_timeout["tc_timeouts"] > 0
        # Every bin flushed idle before the end of the draw.
        assert with_timeout["warps"] >= without["warps"]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            tile_binning_probe(0)
