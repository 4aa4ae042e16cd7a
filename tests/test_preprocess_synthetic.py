"""Preprocessing orchestration and synthetic scene builders."""

import numpy as np
import pytest

from repro.gaussians import synthetic
from repro.gaussians.preprocess import preprocess


class TestPreprocess:
    def test_sorted_front_to_back(self, small_cloud, small_camera):
        pre = preprocess(small_cloud, small_camera)
        assert (np.diff(pre.splats.depths) >= 0).all()

    def test_visible_not_more_than_input(self, small_cloud, small_camera):
        pre = preprocess(small_cloud, small_camera)
        assert 0 < pre.n_visible <= pre.n_input

    def test_kept_indices_map_depths(self, small_cloud, small_camera):
        pre = preprocess(small_cloud, small_camera)
        cam_space = small_camera.to_camera_space(
            small_cloud.positions[pre.kept_indices])
        assert cam_space[:, 2] == pytest.approx(pre.splats.depths)

    def test_colors_populated(self, small_cloud, small_camera):
        pre = preprocess(small_cloud, small_camera)
        assert pre.splats.colors.shape == (pre.n_visible, 3)
        assert (pre.splats.colors >= 0).all()

    def test_type_checks(self, small_camera):
        with pytest.raises(TypeError):
            preprocess("not a cloud", small_camera)


class TestSyntheticBuilders:
    def test_blob_count_and_bounds(self):
        cloud = synthetic.make_blob(0, 100, center=(1, 2, 3), radius=0.5)
        assert len(cloud) == 100
        assert cloud.positions.mean(axis=0) == pytest.approx([1, 2, 3],
                                                             abs=0.3)

    def test_blob_deterministic(self):
        a = synthetic.make_blob(42, 50, center=(0, 0, 0), radius=1.0)
        b = synthetic.make_blob(42, 50, center=(0, 0, 0), radius=1.0)
        assert a.positions == pytest.approx(b.positions)

    def test_plane_is_flat(self):
        cloud = synthetic.make_plane(0, 200, center=(0, 0, 0),
                                     normal=(0, 0, 1), extent=1.0,
                                     thickness=0.01)
        assert np.abs(cloud.positions[:, 2]).max() < 0.06
        assert np.abs(cloud.positions[:, 0]).max() <= 1.0

    def test_plane_normal_alignment(self):
        """Splats on a plane are flattened along the normal."""
        cloud = synthetic.make_plane(0, 50, center=(0, 0, 0),
                                     normal=(0, 0, 1), extent=1.0,
                                     thickness=0.01)
        assert np.allclose(cloud.scales[:, 2], 0.01)

    def test_shell_radius(self):
        cloud = synthetic.make_shell(0, 300, center=(0, 0, 0), radius=2.0,
                                     thickness=0.02)
        r = np.linalg.norm(cloud.positions, axis=1)
        assert r.mean() == pytest.approx(2.0, abs=0.05)

    def test_layered_surfaces_layer_count(self):
        cloud = synthetic.make_layered_surfaces(
            0, 300, center=(0, 0, 0), extent=1.0, n_layers=3,
            layer_spacing=0.5, axis=(0, 0, 1))
        zs = cloud.positions[:, 2]
        # Three distinct depth clusters around -0.5, 0, +0.5.
        for target in (-0.5, 0.0, 0.5):
            assert (np.abs(zs - target) < 0.1).sum() > 50

    def test_layered_total_count(self):
        cloud = synthetic.make_layered_surfaces(
            0, 301, center=(0, 0, 0), extent=1.0, n_layers=4,
            layer_spacing=0.2)
        assert len(cloud) == 301

    def test_compose(self):
        a = synthetic.make_blob(0, 10, (0, 0, 0), 1.0)
        b = synthetic.make_blob(1, 20, (0, 0, 0), 1.0)
        assert len(synthetic.compose(a, b)) == 30

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            synthetic.make_blob(0, 0, (0, 0, 0), 1.0)

    def test_random_quaternions_unit(self):
        q = synthetic.random_quaternions(np.random.default_rng(0), 20)
        assert np.linalg.norm(q, axis=1) == pytest.approx(np.ones(20))

    def test_opacity_ranges_respected(self):
        cloud = synthetic.make_blob(0, 200, (0, 0, 0), 1.0,
                                    opacity_low=0.3, opacity_high=0.6)
        assert cloud.opacities.min() >= 0.3
        assert cloud.opacities.max() <= 0.6
