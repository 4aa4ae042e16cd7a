"""CUDA-style software renderer: tiling, lockstep warps, kernel model."""

import numpy as np
import pytest

from repro.render.fragstream import FragmentStream
from repro.swrender.renderer import CudaRenderer, SWKernelModel
from repro.swrender.tiling import assign_tiles
from repro.swrender.warp_model import simulate_tile_warps


class TestTiling:
    def test_duplication_at_least_one(self, small_pre, small_camera):
        assignment = assign_tiles(small_pre.splats, small_camera.width,
                                  small_camera.height)
        on_screen = assignment.pairs_per_splat > 0
        assert on_screen.sum() > 0
        assert assignment.n_pairs >= on_screen.sum()

    def test_bigger_splats_more_tiles(self, small_pre, small_camera):
        assignment = assign_tiles(small_pre.splats, small_camera.width,
                                  small_camera.height)
        radii = small_pre.splats.radii.max(axis=1)
        big = assignment.pairs_per_splat[radii > np.median(radii)].mean()
        small = assignment.pairs_per_splat[radii <= np.median(radii)].mean()
        assert big >= small

    def test_type_check(self):
        with pytest.raises(TypeError):
            assign_tiles("splats", 64, 64)


class TestWarpModel:
    def test_et_reduces_rounds(self, deep_stream):
        we = simulate_tile_warps(deep_stream)
        assert we.rounds_et <= we.rounds_no_et
        assert we.et_speedup() >= 1.0

    def test_et_speedup_below_frag_reduction(self, deep_stream):
        """Lockstep: warp-level exit cannot realise per-pixel savings."""
        we = simulate_tile_warps(deep_stream)
        assert we.et_speedup() <= deep_stream.termination_ratio() + 1e-9

    def test_blend_fraction_below_one(self, deep_stream):
        we = simulate_tile_warps(deep_stream)
        frac = we.blending_thread_fraction()
        assert 0.0 < frac < 1.0

    def test_empty_stream(self):
        from repro.render.fragstream import FragmentStream
        empty = FragmentStream(np.empty(0, np.int32), np.empty(0, np.int32),
                               np.empty(0, np.int32), np.empty(0, np.float32),
                               np.zeros((0, 3)), 32, 32)
        we = simulate_tile_warps(empty)
        assert we.rounds_no_et == 0
        assert we.et_speedup() == 1.0
        assert we.blending_thread_fraction() == 0.0

    def test_rounds_count_shallow_scene(self):
        """One full-tile splat -> 8 warps x 1 round."""
        from test_fragstream import make_stream
        frags = [(0, x, y, 0.5) for x in range(16) for y in range(16)]
        s = make_stream(frags, width=16, height=16)
        we = simulate_tile_warps(s)
        assert we.rounds_no_et == 8


class TestCudaRenderer:
    def test_render(self, small_stream, small_pre):
        result = CudaRenderer().render_stream(small_stream, small_pre)
        assert result.image.shape == (96, 96, 3)
        b = result.timing.breakdown_ms()
        assert all(v > 0 for v in b.values())
        assert result.timing.fps() > 0

    def test_early_term_faster(self, deep_stream, deep_pre):
        with_et = CudaRenderer(early_term=True).render_stream(deep_stream,
                                                              deep_pre)
        without = CudaRenderer(early_term=False).render_stream(deep_stream,
                                                               deep_pre)
        assert (with_et.timing.raster_cycles
                < without.timing.raster_cycles)

    def test_image_matches_reference(self, small_cloud, small_camera,
                                     small_stream, small_pre):
        from repro.render.reference import render_reference
        result = CudaRenderer(early_term=False).render_stream(small_stream,
                                                              small_pre)
        ref = render_reference(small_cloud, small_camera)
        np.testing.assert_allclose(result.image, ref.image, atol=1e-12)

    def test_kernel_model_scaling(self):
        model = SWKernelModel()
        assert model.preprocess_cycles(100, 400) > model.preprocess_cycles(
            100, 100)
        assert model.sort_cycles(1000) == 10 * model.sort_cycles(100)

    def test_render_stream_consumes_stream_binning(self, small_stream,
                                                   small_pre):
        # Without pre=, the stream's own TileBinning sizes the duplication
        # (exact counts, no re-binning) instead of raising.
        result = CudaRenderer().render_stream(small_stream)
        binning = small_stream.binning
        assert result.tiling.n_pairs == binning.n_pairs
        np.testing.assert_array_equal(result.tiling.pairs_per_splat,
                                      binning.pairs_per_splat())

    def test_render_stream_requires_pre_or_binning(self, small_stream):
        bare = FragmentStream(
            small_stream.prim_ids, small_stream.x, small_stream.y,
            small_stream.alphas, small_stream.prim_colors,
            small_stream.width, small_stream.height)
        with pytest.raises(ValueError, match="PreprocessResult"):
            CudaRenderer().render_stream(bare)


class TestSessionRevisit:
    def test_revisited_lap_matches_sort_oracle(self):
        """A cuda+et session revisiting its views through its coherence
        carrier reproduces the stateless fragment-sort oracle (carrier
        off, ``swmodel="legacy"``) frame for frame."""
        from repro.engine.session import RenderSession
        from repro.workloads.viewpoints import scene_viewpoints

        cams = scene_viewpoints("lego", 3)
        oracle = RenderSession("lego", backend="cuda+et", baseline=None,
                               coherence="off", swmodel="legacy")
        want = [oracle.render_frame(camera=cam) for cam in cams]
        session = RenderSession("lego", backend="cuda+et", baseline=None)
        for _lap in range(2):
            for cam, ref in zip(cams, want):
                got = session.render_frame(camera=cam)
                assert got.cycles == ref.cycles
                assert got.et_ratio == ref.et_ratio
                assert vars(got.raw.warp_exec) == vars(ref.raw.warp_exec)
        assert session.carrier.stats["full_hits"] == len(cams)
