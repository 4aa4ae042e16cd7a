"""Frustum culling and depth sorting."""

import numpy as np
import pytest

from repro.gaussians.camera import Camera
from repro.gaussians.culling import frustum_cull
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.sorting import depth_sort_indices


def _cloud(positions, opacity=0.8, scale=0.05):
    positions = np.atleast_2d(positions)
    n = positions.shape[0]
    return GaussianCloud(
        positions=positions, scales=np.full((n, 3), scale),
        quaternions=np.tile([1.0, 0, 0, 0], (n, 1)),
        opacities=np.full(n, opacity), sh=np.zeros((n, 1, 3)))


@pytest.fixture
def cam():
    return Camera.look_at(eye=(0, 0, -2), target=(0, 0, 0),
                          width=128, height=128)


class TestFrustumCull:
    def test_keeps_visible(self, cam):
        assert frustum_cull(_cloud([0, 0, 0]), cam).all()

    def test_culls_behind(self, cam):
        assert not frustum_cull(_cloud([0, 0, -5.0]), cam).any()

    def test_culls_beyond_far(self):
        cam = Camera.look_at(eye=(0, 0, -2), target=(0, 0, 0), width=64,
                             height=64, zfar=10.0)
        assert not frustum_cull(_cloud([0, 0, 100.0]), cam).any()

    def test_culls_far_off_screen(self, cam):
        assert not frustum_cull(_cloud([50.0, 0, 0]), cam).any()

    def test_keeps_marginal_offscreen_with_guard(self, cam):
        # Slightly off-screen but large: the guard band keeps it.
        cloud = _cloud([1.3, 0, 0], scale=0.4)
        assert frustum_cull(cloud, cam).all()

    def test_culls_transparent(self, cam):
        assert not frustum_cull(_cloud([0, 0, 0], opacity=1e-4), cam).any()


class TestDepthSort:
    def test_front_to_back(self):
        order = depth_sort_indices(np.array([3.0, 1.0, 2.0]))
        assert order.tolist() == [1, 2, 0]

    def test_back_to_front(self):
        order = depth_sort_indices(np.array([3.0, 1.0, 2.0]),
                                   front_to_back=False)
        assert order.tolist() == [0, 2, 1]

    def test_stability(self):
        depths = np.array([1.0, 1.0, 1.0])
        assert depth_sort_indices(depths).tolist() == [0, 1, 2]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            depth_sort_indices(np.zeros((2, 2)))


class TestDepthSortTies:
    """Draw order == blend order: equal depths must keep submission order."""

    def test_ties_keep_submission_order_front_to_back(self):
        depths = np.array([2.0, 1.0, 2.0, 1.0, 2.0])
        order = depth_sort_indices(depths)
        # Within each depth group the original submission order survives.
        assert order.tolist() == [1, 3, 0, 2, 4]

    def test_ties_keep_submission_order_back_to_front(self):
        depths = np.array([2.0, 1.0, 2.0, 1.0, 2.0])
        order = depth_sort_indices(depths, front_to_back=False)
        # Farthest-first sorts negated depths stably, so ties still appear
        # in submission order (a reversed stable sort would flip them).
        assert order.tolist() == [0, 2, 4, 1, 3]

    def test_all_equal_is_identity_both_directions(self):
        depths = np.full(6, 3.25)
        assert depth_sort_indices(depths).tolist() == list(range(6))
        assert depth_sort_indices(
            depths, front_to_back=False).tolist() == list(range(6))

    def test_tied_splats_render_deterministically(self):
        # Two overlapping splats at identical depth: repeated sorts must
        # agree, otherwise the non-commutative blend changes the image.
        depths = np.array([1.5, 1.5])
        for _ in range(3):
            assert depth_sort_indices(depths).tolist() == [0, 1]
