"""GPU configuration and pipeline statistics."""

import numpy as np
import pytest

from repro.hwmodel.config import EnergyTable, GPUConfig, jetson_agx_orin, rtx_3090
from repro.hwmodel.stats import PipelineStats, UnitStats


class TestGPUConfig:
    def test_table1_defaults(self):
        cfg = jetson_agx_orin()
        assert cfg.n_gpc == 1
        assert cfg.n_sm == 16
        assert cfg.sm_freq_mhz == 612.0
        assert cfg.lanes_per_sm == 64
        assert cfg.crop_cache_kb == 16
        assert cfg.raster_tile_px == 8
        assert cfg.screen_tile_px * cfg.tile_grid_tiles == 64
        assert cfg.n_tgc_bins == 128
        assert cfg.tgc_bin_prims == 16
        assert cfg.n_tc_bins == 32
        assert cfg.tc_bin_quads == 128
        assert cfg.rop_quads_per_cycle == 2.0

    def test_variant_override(self):
        cfg = jetson_agx_orin(enable_het=True)
        assert cfg.enable_het and not cfg.enable_qm
        # Original helper unchanged.
        assert not jetson_agx_orin().enable_het

    def test_format_throughput(self):
        cfg = jetson_agx_orin()
        assert cfg.crop_quads_per_cycle == 2.0
        assert cfg.variant(color_format="rgba8").crop_quads_per_cycle == 4.0

    def test_bytes_per_pixel(self):
        assert jetson_agx_orin().bytes_per_pixel == 8
        assert jetson_agx_orin(color_format="rgba8").bytes_per_pixel == 4

    def test_rejects_bad_format(self):
        with pytest.raises(ValueError):
            GPUConfig(color_format="rgb10")

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            GPUConfig(termination_alpha=1.5)

    def test_rejects_negative_inflight_lag(self):
        with pytest.raises(ValueError):
            GPUConfig(het_inflight_lag=-3)
        assert GPUConfig(het_inflight_lag=0).het_inflight_lag == 0

    def test_rejects_nonpositive_bins(self):
        with pytest.raises(ValueError):
            GPUConfig(n_tc_bins=0)

    def test_rtx3090_bigger(self):
        orin, rtx = jetson_agx_orin(), rtx_3090()
        assert rtx.n_sm > orin.n_sm
        assert rtx.rop_quads_per_cycle > orin.rop_quads_per_cycle
        assert rtx.frequency_hz() > orin.frequency_hz()

    def test_issue_slots(self):
        assert jetson_agx_orin().sm_issue_slots_per_cycle == 64

    def test_energy_table_defaults(self):
        table = EnergyTable()
        assert table.dram_byte_pj > table.cache_access_pj > table.blend_pj


class TestStats:
    def test_unit_accumulates(self):
        unit = UnitStats("crop")
        unit.add(10, 5.0)
        unit.add(2, 1.0)
        assert unit.items == 12
        assert unit.busy_cycles == 6.0

    def test_unit_rejects_negative(self):
        with pytest.raises(ValueError):
            UnitStats("x").add(-1, 0)

    def test_add_sequence_is_bit_equal_to_sequential_adds(self):
        # Magnitudes spread over 16 decades make the summation order show
        # in the last bits: a pairwise reduction (``np.sum``,
        # ``np.add.reduce``) lands on another total than left-to-right adds.
        rng = np.random.default_rng(7)
        values = rng.random(1000) * 10.0 ** rng.integers(-6, 10, 1000)
        loop, batch = UnitStats("tc"), UnitStats("tc")
        for unit in (loop, batch):
            unit.add(1, 0.1)
        for value in values:
            loop.add(1, value)
        batch.add_sequence(values.size, values)
        assert batch.items == loop.items
        assert batch.busy_cycles.hex() == loop.busy_cycles.hex()
        pairwise = float(np.add.reduce(np.concatenate(([0.1], values))))
        assert pairwise != loop.busy_cycles

    def test_finalize_and_utilization(self):
        stats = PipelineStats()
        stats.units["crop"].add(100, 1000.0)
        stats.units["sm"].add(10, 200.0)
        total = stats.finalize(fill_cycles=100.0)
        assert total == 1100.0
        util = stats.utilization()
        assert util["crop"] == pytest.approx(1000 / 1100)
        assert stats.bottleneck() == "crop"

    def test_utilization_requires_finalize(self):
        with pytest.raises(RuntimeError):
            PipelineStats().utilization()

    def test_summary_renders(self):
        stats = PipelineStats()
        stats.units["crop"].add(1, 1.0)
        stats.finalize(0.0)
        text = stats.summary()
        assert "crop" in text and "bottleneck" in text
