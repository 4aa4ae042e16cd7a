"""Reference renderer: ground-truth images and error bounds."""

import numpy as np
import pytest

from repro.gaussians.camera import Camera
from repro.render.metrics import psnr
from repro.render.reference import render_reference


class TestRenderReference:
    def test_produces_image(self, small_cloud, small_camera):
        res = render_reference(small_cloud, small_camera)
        assert res.image.shape == (96, 96, 3)
        assert res.alpha.shape == (96, 96)
        assert res.image.min() >= 0.0
        assert res.alpha.max() <= 1.0 + 1e-9

    def test_center_has_content(self, small_cloud, small_camera):
        res = render_reference(small_cloud, small_camera)
        assert res.alpha[40:56, 40:56].mean() > 0.3

    def test_early_term_error_bound(self, deep_cloud, deep_camera):
        exact = render_reference(deep_cloud, deep_camera)
        et = render_reference(deep_cloud, deep_camera, early_term=True)
        # Residual transmittance bound: 1 - 0.996.
        assert np.abs(exact.image - et.image).max() <= 0.004 + 1e-9

    def test_early_term_high_psnr(self, deep_cloud, deep_camera):
        exact = render_reference(deep_cloud, deep_camera)
        et = render_reference(deep_cloud, deep_camera, early_term=True)
        assert psnr(exact.image, et.image) > 50.0

    def test_psnr_identical_inf(self, small_cloud, small_camera):
        res = render_reference(small_cloud, small_camera)
        assert psnr(res.image, res.image) == float("inf")

    def test_psnr_shape_check(self, small_cloud, small_camera):
        res = render_reference(small_cloud, small_camera)
        with pytest.raises(ValueError):
            psnr(res.image, np.zeros((2, 2, 3)))

    def test_render_stream_matches(self, small_cloud, small_camera):
        """The deferred image is the stream's own blend, bit for bit."""
        res = render_reference(small_cloud, small_camera, early_term=True)
        image, alpha = res.stream.blend_image(early_term=True)
        np.testing.assert_array_equal(res.image, image)
        np.testing.assert_array_equal(res.alpha, alpha)
        assert res.pre.n_visible == res.stream.prim_colors.shape[0]

    def test_type_checks(self, small_camera):
        with pytest.raises(TypeError):
            render_reference("cloud", small_camera)

    def test_empty_scene(self):
        from repro.gaussians.gaussian import GaussianCloud
        cam = Camera.look_at(eye=(0, 0, -1), target=(0, 0, 0), width=32,
                             height=32)
        res = render_reference(GaussianCloud.empty(), cam)
        assert res.image.sum() == 0.0
