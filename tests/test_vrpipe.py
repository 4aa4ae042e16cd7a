"""VR-Pipe public API: variants, hardware cost, end-to-end renderer."""

import numpy as np
import pytest

from repro.core.vrpipe import (
    VARIANTS,
    HardwareRenderer,
    hardware_cost_bytes,
    run_all_variants,
    speedups_over_baseline,
    variant_config,
)
from repro.hwmodel.config import rtx_3090


class TestVariantConfig:
    def test_flags(self):
        assert not variant_config("baseline").enable_het
        assert variant_config("qm").enable_qm
        assert variant_config("het").enable_het
        cfg = variant_config("het+qm")
        assert cfg.enable_het and cfg.enable_qm

    def test_device_passthrough(self):
        cfg = variant_config("het", device=rtx_3090())
        assert cfg.n_sm == 82 and cfg.enable_het

    def test_overrides(self):
        cfg = variant_config("baseline", termination_alpha=0.99)
        assert cfg.termination_alpha == 0.99

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            variant_config("turbo")

    def test_four_variants(self):
        assert set(VARIANTS) == {"baseline", "qm", "het", "het+qm"}


class TestHardwareCost:
    def test_matches_table3(self):
        cost = hardware_cost_bytes()
        assert cost["tgc"] == 24832          # 24.25 KB
        assert cost["qru"] == 688            # 688 B
        assert cost["total"] == 25520        # 24.92 KB
        assert cost["total"] / 1024 == pytest.approx(24.92, abs=0.01)


class TestSpeedups:
    def test_baseline_is_one(self, deep_stream):
        speedups = speedups_over_baseline(run_all_variants(deep_stream))
        assert speedups["baseline"] == pytest.approx(1.0)
        assert speedups["het+qm"] > 1.0

    def test_requires_baseline(self):
        with pytest.raises(KeyError):
            speedups_over_baseline({})


class TestHardwareRenderer:
    def test_end_to_end(self, small_stream, small_pre):
        renderer = HardwareRenderer()
        result = renderer.render_stream(small_stream, small_pre)
        assert result.image.shape == (96, 96, 3)
        assert result.total_cycles > result.draw.cycles
        breakdown = result.breakdown_ms()
        assert set(breakdown) == {"preprocess", "sort", "rasterize"}
        assert result.fps() > 0

    def test_rasterize_dominates(self, small_stream, small_pre):
        """The paper: rasterisation is >70% of hardware-path time."""
        renderer = HardwareRenderer(config=variant_config("baseline"))
        result = renderer.render_stream(small_stream, small_pre)
        b = result.breakdown_ms()
        total = sum(b.values())
        assert b["rasterize"] / total > 0.7

    def test_vrpipe_faster_than_baseline(self, small_stream, small_pre):
        base = HardwareRenderer(config=variant_config("baseline"))
        vrp = HardwareRenderer(config=variant_config("het+qm"))
        t_base = base.render_stream(small_stream, small_pre).total_ms()
        t_vrp = vrp.render_stream(small_stream, small_pre).total_ms()
        assert t_vrp < t_base

    def test_het_image_matches_early_term_reference(self, deep_cloud,
                                                    deep_camera, deep_stream,
                                                    deep_pre):
        from repro.render.reference import render_reference
        vrp = HardwareRenderer(config=variant_config("het+qm"))
        result = vrp.render_stream(deep_stream, deep_pre)
        exact = render_reference(deep_cloud, deep_camera)
        assert np.abs(result.image - exact.image).max() <= 0.004 + 1e-9

    def test_type_checks(self):
        with pytest.raises(TypeError):
            HardwareRenderer(config="nope")
