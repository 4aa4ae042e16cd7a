"""Golden equivalence: the batched rasteriser vs the scalar seed loop.

The batched tile-binned rasteriser must emit a *bit-identical*
FragmentStream to the per-splat golden loop — same fragments, same order,
same float32 alpha bits — on every scene, including degenerate ones.
"""

import numpy as np
import pytest

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.preprocess import preprocess
from repro.gaussians.projection import project_gaussians
from repro.render.splat_raster import (
    TileBinning,
    rasterize_splats,
    rasterize_splats_scalar,
)
from repro.workloads.catalog import build_scene, get_profile

GOLDEN_SCENES = ("lego", "palace", "train")


def assert_streams_bit_identical(batched, scalar):
    assert batched.prim_ids.dtype == scalar.prim_ids.dtype == np.int32
    assert batched.x.dtype == scalar.x.dtype == np.int32
    assert batched.y.dtype == scalar.y.dtype == np.int32
    assert batched.alphas.dtype == scalar.alphas.dtype == np.float32
    assert len(batched) == len(scalar)
    np.testing.assert_array_equal(batched.prim_ids, scalar.prim_ids)
    np.testing.assert_array_equal(batched.x, scalar.x)
    np.testing.assert_array_equal(batched.y, scalar.y)
    # Compare alpha *bit patterns*: equality must hold to the last ulp.
    np.testing.assert_array_equal(batched.alphas.view(np.uint32),
                                  scalar.alphas.view(np.uint32))
    assert batched.width == scalar.width
    assert batched.height == scalar.height


def _scene_splats(name, seed=0):
    profile = get_profile(name)
    cloud = build_scene(profile, seed=seed)
    camera = profile.camera()
    return preprocess(cloud, camera).splats, camera.width, camera.height


def _cloud(positions, scales, quaternions=None, opacities=0.9):
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n = positions.shape[0]
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (n, 3)).copy()
    if quaternions is None:
        quaternions = np.tile([1.0, 0, 0, 0], (n, 1))
    opacities = np.broadcast_to(np.asarray(opacities, dtype=float), (n,)).copy()
    return GaussianCloud(
        positions=positions, scales=scales, quaternions=quaternions,
        opacities=opacities, sh=np.zeros((n, 1, 3)))


@pytest.fixture(scope="module")
def cam96():
    return Camera.look_at(eye=(0, 0, -2), target=(0, 0, 0), width=96,
                          height=96)


class TestGoldenScenes:
    @pytest.mark.parametrize("ir", (pytest.param("auto", id="frameir"),
                                    "legacy"))
    @pytest.mark.parametrize("scene", GOLDEN_SCENES)
    def test_bit_identical_on_catalog_scene(self, scene, ir):
        # The ir knob only selects the digestion structure riding on the
        # stream; the emitted fragment arrays must stay bit-identical to
        # the scalar golden loop in both modes.
        splats, w, h = _scene_splats(scene)
        batched = rasterize_splats(splats, w, h, ir=ir)
        assert (batched.frameir is not None) == (ir == "auto")
        assert_streams_bit_identical(batched,
                                     rasterize_splats_scalar(splats, w, h))

    def test_bit_identical_on_bench_scene_subset(self):
        # The bench scene's statistics (many small splats) differ from the
        # Table II realisations; cover them with a trimmed subset.
        splats, w, h = _scene_splats("bench")
        subset = splats.subset(np.arange(0, len(splats), 7))
        assert_streams_bit_identical(rasterize_splats(subset, w, h),
                                     rasterize_splats_scalar(subset, w, h))


class TestGoldenAdversarial:
    def test_rotated_anisotropic_splats(self, cam96):
        rng = np.random.default_rng(42)
        n = 120
        quats = rng.normal(size=(n, 4))
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        scales = np.stack([
            rng.uniform(0.005, 0.2, n),
            rng.uniform(0.005, 0.02, n),
            rng.uniform(0.005, 0.08, n),
        ], axis=1)
        cloud = GaussianCloud(
            positions=rng.uniform(-1.2, 1.2, size=(n, 3)) * [1, 1, 0.5],
            scales=scales, quaternions=quats,
            opacities=rng.uniform(0.05, 1.0, n), sh=np.zeros((n, 1, 3)))
        splats = project_gaussians(cloud, cam96)
        assert_streams_bit_identical(rasterize_splats(splats, 96, 96),
                                     rasterize_splats_scalar(splats, 96, 96))

    def test_axis_aligned_splats_hit_zero_projection_path(self, cam96):
        # Isotropic covariances give exactly axis-aligned OBB axes, so one
        # slab constraint has a zero x-coefficient per row.
        cloud = _cloud([[0, 0, 0], [0.4, -0.3, 0.2], [-0.6, 0.5, 0.1]],
                       scales=0.08)
        splats = project_gaussians(cloud, cam96)
        assert (splats.axes[:, :, 0] == 0).any()
        assert_streams_bit_identical(rasterize_splats(splats, 96, 96),
                                     rasterize_splats_scalar(splats, 96, 96))

    def test_edge_straddling_and_offscreen(self, cam96):
        cloud = _cloud([[1.15, 0, 0], [-1.15, 0, 0], [0, 1.15, 0],
                        [0, -1.15, 0], [5.0, 0, 0], [0, 0, -3.0]],
                       scales=0.1)
        splats = project_gaussians(cloud, cam96)
        assert_streams_bit_identical(rasterize_splats(splats, 96, 96),
                                     rasterize_splats_scalar(splats, 96, 96))

    def test_subpixel_splats(self, cam96):
        rng = np.random.default_rng(3)
        cloud = _cloud(rng.uniform(-0.5, 0.5, size=(60, 3)), scales=0.002,
                       opacities=0.7)
        splats = project_gaussians(cloud, cam96)
        assert_streams_bit_identical(rasterize_splats(splats, 96, 96),
                                     rasterize_splats_scalar(splats, 96, 96))

    def test_empty_input(self, cam96):
        splats = project_gaussians(_cloud([0, 0, 0], 0.05), cam96)
        empty = splats.subset(np.array([], dtype=int))
        batched = rasterize_splats(empty, 96, 96)
        scalar = rasterize_splats_scalar(empty, 96, 96)
        assert len(batched) == len(scalar) == 0
        assert isinstance(batched.binning, TileBinning)
        assert batched.binning.n_pairs == 0


class TestGoldenDegenerate:
    """A screen-sized splat exercising the ``max_fragments`` valve."""

    def _screen_splats(self, cam96):
        # One splat covering the whole 96x96 framebuffer plus normal ones.
        cloud = _cloud([[0, 0, 0.5], [0.1, 0.1, 0], [-0.2, 0, 0.1]],
                       scales=[[2.5, 2.5, 2.5], [0.05, 0.05, 0.05],
                               [0.05, 0.05, 0.05]])
        return project_gaussians(cloud, cam96)

    def test_both_paths_raise_memory_error(self, cam96):
        splats = self._screen_splats(cam96)
        with pytest.raises(MemoryError, match="max_fragments"):
            rasterize_splats(splats, 96, 96, max_fragments=100)
        with pytest.raises(MemoryError, match="max_fragments"):
            rasterize_splats_scalar(splats, 96, 96, max_fragments=100)

    def test_guard_boundary_is_identical(self, cam96):
        splats = self._screen_splats(cam96)
        total = len(rasterize_splats(splats, 96, 96))
        # Exactly at the limit neither raises; one below both raise.
        assert len(rasterize_splats(splats, 96, 96, max_fragments=total)) == total
        with pytest.raises(MemoryError):
            rasterize_splats(splats, 96, 96, max_fragments=total - 1)
        with pytest.raises(MemoryError):
            rasterize_splats_scalar(splats, 96, 96, max_fragments=total - 1)

    def test_bit_identical_with_headroom(self, cam96):
        splats = self._screen_splats(cam96)
        assert_streams_bit_identical(rasterize_splats(splats, 96, 96),
                                     rasterize_splats_scalar(splats, 96, 96))


class TestTileBinning:
    def test_pairs_cover_fragment_tiles(self, cam96):
        splats, w, h = _scene_splats("lego")
        stream = rasterize_splats(splats, w, h)
        binning = stream.binning
        # Every (prim, tile) pair observed in the fragments must appear in
        # the binning (binning may be a superset: tiles whose pixels all
        # fail the OBB test still get visited).
        observed = set(zip(stream.prim_ids.tolist(),
                           stream.tile_ids.tolist()))
        binned = set(zip(binning.pair_splat.tolist(),
                         binning.pair_tile.tolist()))
        assert observed <= binned

    def test_pairs_per_splat_counts(self, cam96):
        splats = project_gaussians(
            _cloud([[0, 0, 0], [5.0, 0, 0]], scales=0.05), cam96)
        stream = rasterize_splats(splats, 96, 96)
        counts = stream.binning.pairs_per_splat()
        assert counts.shape == (2,)
        assert counts[0] > 0
        assert counts[1] == 0  # off-screen splat rasterises nowhere

    def test_tile_ids_match_geometry(self, cam96):
        splats = project_gaussians(_cloud([0, 0, 0], 0.05), cam96)
        stream = rasterize_splats(splats, 96, 96)
        tiles_x = -(-96 // 16)
        expect = (stream.y.astype(np.int64) // 16) * tiles_x \
            + stream.x.astype(np.int64) // 16
        np.testing.assert_array_equal(stream.tile_ids, expect)
