"""Image metrics and draw-call reports."""

import numpy as np
import pytest

from repro.core.vrpipe import run_all_variants, run_variant
from repro.hwmodel.report import compare_variants, draw_report
from repro.render.metrics import mse, psnr, ssim


class TestMetrics:
    def test_mse_zero_for_identical(self):
        img = np.random.default_rng(0).uniform(size=(16, 16, 3))
        assert mse(img, img) == 0.0

    def test_psnr_inf_identical(self):
        img = np.zeros((16, 16, 3))
        assert psnr(img, img) == float("inf")

    def test_psnr_known_value(self):
        a = np.zeros((8, 8, 3))
        b = np.full((8, 8, 3), 0.1)
        assert psnr(a, b) == pytest.approx(20.0)

    def test_ssim_identical_is_one(self):
        img = np.random.default_rng(1).uniform(size=(16, 16, 3))
        assert ssim(img, img) == pytest.approx(1.0)

    def test_ssim_decreases_with_noise(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0.2, 0.8, size=(32, 32, 3))
        small = np.clip(img + rng.normal(scale=0.02, size=img.shape), 0, 1)
        big = np.clip(img + rng.normal(scale=0.3, size=img.shape), 0, 1)
        assert ssim(img, big) < ssim(img, small) < 1.0

    def test_ssim_grayscale(self):
        img = np.random.default_rng(3).uniform(size=(16, 16))
        assert ssim(img, img) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2, 3)), np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4, 3)), np.zeros((4, 4, 3)))  # below block

    def test_early_term_image_quality(self, deep_stream):
        exact, _ = deep_stream.blend_image(early_term=False)
        et, _ = deep_stream.blend_image(early_term=True)
        assert psnr(exact, et) > 40.0
        assert ssim(exact, et) > 0.99
        assert np.abs(exact - et).max() <= 0.004 + 1e-9


class TestReport:
    def test_draw_report_content(self, deep_stream):
        result = run_variant(deep_stream, "het+qm")
        text = draw_report(result, title="deep scene")
        assert "deep scene" in text
        assert "bottleneck" in text
        assert "quad merging" in text
        assert "early termination" in text

    def test_baseline_report_omits_extensions(self, deep_stream):
        result = run_variant(deep_stream, "baseline")
        text = draw_report(result)
        assert "quad merging" not in text
        assert "early termination:" not in text

    def test_compare_variants(self, deep_stream):
        results = run_all_variants(deep_stream)
        table = compare_variants(results)
        assert "baseline" in table and "het+qm" in table
        assert "1.00" in table  # baseline speedup

    def test_compare_requires_baseline(self, deep_stream):
        result = run_variant(deep_stream, "het")
        with pytest.raises(KeyError):
            compare_variants({"het": result})

    def test_report_type_check(self):
        with pytest.raises(TypeError):
            draw_report("result")
