"""Splat rasterisation: coverage, alpha evaluation, stream integrity."""

import numpy as np
import pytest

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.projection import ALPHA_EPS, project_gaussians
from repro.render.splat_raster import rasterize_splats


def _splats(positions, cam, opacity=0.9, scale=0.06):
    positions = np.atleast_2d(positions)
    n = positions.shape[0]
    cloud = GaussianCloud(
        positions=positions, scales=np.full((n, 3), scale),
        quaternions=np.tile([1.0, 0, 0, 0], (n, 1)),
        opacities=np.full(n, opacity),
        sh=np.zeros((n, 1, 3)))
    return project_gaussians(cloud, cam,
                             colors=np.tile([0.5, 0.5, 0.5], (n, 1)))


@pytest.fixture
def cam():
    return Camera.look_at(eye=(0, 0, -2), target=(0, 0, 0), width=96,
                          height=96)


class TestRasterize:
    def test_fragments_near_center(self, cam):
        stream = rasterize_splats(_splats([0, 0, 0], cam), 96, 96)
        assert len(stream) > 0
        assert abs(stream.x.mean() - 48) < 2
        assert abs(stream.y.mean() - 48) < 2

    def test_alpha_peak_at_center(self, cam):
        stream = rasterize_splats(_splats([0, 0, 0], cam), 96, 96)
        peak = stream.alphas.argmax()
        assert abs(stream.x[peak] - 48) <= 1
        assert abs(stream.y[peak] - 48) <= 1
        assert stream.alphas.max() <= 0.99

    def test_emission_order_is_primitive_major(self, cam):
        stream = rasterize_splats(
            _splats([[0, 0, 0], [0.2, 0.1, 0.5]], cam), 96, 96)
        assert (np.diff(stream.prim_ids) >= 0).all()

    def test_offscreen_clipped(self, cam):
        stream = rasterize_splats(_splats([5.0, 0, 0.0], cam), 96, 96)
        assert len(stream) == 0

    def test_partial_clip(self, cam):
        # A splat on the right edge rasterises only on-screen pixels.
        stream = rasterize_splats(_splats([1.17, 0, 0.0], cam), 96, 96)
        if len(stream):
            assert stream.x.max() <= 95

    def test_max_fragments_guard(self, cam):
        with pytest.raises(MemoryError):
            rasterize_splats(_splats([0, 0, 0], cam, scale=0.5), 96, 96,
                             max_fragments=10)

    def test_alpha_pruning_flags_exist(self, cam):
        stream = rasterize_splats(_splats([0, 0, 0], cam), 96, 96)
        # The OBB boundary sits at alpha == 1/255; corner fragments fall
        # below it and must be flagged pruned (but kept in the stream).
        assert (~stream.unpruned).sum() > 0
        assert stream.alphas[~stream.unpruned].max() < ALPHA_EPS

    def test_empty_splats(self, cam):
        splats = _splats([0, 0, 0], cam).subset(np.array([], dtype=int))
        stream = rasterize_splats(splats, 96, 96)
        assert len(stream) == 0

    def test_type_check(self):
        with pytest.raises(TypeError):
            rasterize_splats("nope", 96, 96)

