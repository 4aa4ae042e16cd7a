"""Fuzz/property tests: FrameIR-native software models vs the sort oracle.

The CUDA warp model (:mod:`repro.swrender.warp_model`) and the multi-pass
model (:mod:`repro.swopt.multipass`) each carry two engines: the
FrameIR-native path reads the (prim, tile) group ranges / quad table plus
digestion's cached pixel-sorted arrival chain, and the retained
fragment-sort oracle.  The warp model picks one by its ``swmodel`` knob;
the multi-pass model follows the stream, so its oracle runs on the same
fragments rasterised with ``ir="legacy"``.  Both engines
must agree **bit for bit** on every observable: the
:class:`~repro.swrender.warp_model.WarpExecution` round and blend counts,
every :class:`~repro.swopt.multipass.MultipassResult` cycle (per batch,
per stencil update, total) and blended-fragment count, the sweep speedup
maps, and the :class:`~repro.swrender.tiling.TileAssignment` pair counts
of end-to-end renders.  Random splat scenes plus the library's five
digestion regimes — empty, single-pixel, max_fragments-clamped,
HET-terminated, warm handoff — pin the equivalence the same way
``test_frameir.py`` de-risked the digestion engines.
"""

import contextlib
import zlib

import numpy as np
import pytest

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.preprocess import preprocess
from repro.gaussians.projection import project_gaussians
from repro.render.fragstream import DEFAULT_TERMINATION_ALPHA
from repro.render.frameir import FrameIR
from repro.render.splat_raster import rasterize_splats
from repro.swopt.multipass import multipass_sweep, run_multipass
from repro.swrender import warp_model
from repro.swrender.renderer import CudaRenderer
from repro.swrender.warp_model import resolve_swmodel, simulate_tile_warps

PASS_COUNTS = (1, 2, 5, 7)
THRESHOLDS = (0.996, 0.9)


def fuzz_seed(tag, salt=0):
    """Process-independent fuzz seed (``hash()`` varies per interpreter)."""
    return zlib.crc32(f"{tag}:{salt}".encode()) & 0x7FFFFFFF


def random_cloud(rng, n, spread=1.1, scale_low=0.004, scale_high=0.16,
                 opacity_low=0.05, opacity_high=1.0):
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    scales = np.exp(rng.uniform(np.log(scale_low), np.log(scale_high),
                                size=(n, 3)))
    return GaussianCloud(
        positions=rng.uniform(-spread, spread, size=(n, 3)) * [1, 1, 0.6],
        scales=scales, quaternions=quats,
        opacities=rng.uniform(opacity_low, opacity_high, n),
        sh=np.zeros((n, 1, 3)))


def camera(width=112, height=96):
    return Camera.look_at(eye=(0, 0.1, -2.1), target=(0, 0, 0),
                          width=width, height=height)


def assert_warps_identical(a, b):
    assert a.rounds_no_et == b.rounds_no_et
    assert a.rounds_et == b.rounds_et
    assert a.blend_ops_no_et == b.blend_ops_no_et
    assert a.blend_ops_et == b.blend_ops_et


def assert_multipass_identical(a, b):
    assert a.n_passes == b.n_passes
    assert a.total_cycles == b.total_cycles
    assert a.batch_cycles == b.batch_cycles
    assert a.stencil_cycles == b.stencil_cycles
    assert a.fragments_blended == b.fragments_blended


def rasterize_both(splats, width, height, **kwargs):
    """The same fragments as an IR stream and as a bare (legacy) one."""
    stream = rasterize_splats(splats, width, height, **kwargs)
    bare = rasterize_splats(splats, width, height, ir="legacy", **kwargs)
    assert isinstance(stream.frameir, FrameIR) and bare.frameir is None
    return stream, bare


@contextlib.contextmanager
def oracle_calls():
    """Count the calls of the fragment-sort oracle
    (``_simulate_tile_warps_legacy``) made inside the block."""
    calls = []
    oracle = warp_model._simulate_tile_warps_legacy

    def counting_oracle(*args):
        calls.append(args)
        return oracle(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(warp_model, "_simulate_tile_warps_legacy", counting_oracle)
        yield calls


def oracle_warps(stream, threshold=DEFAULT_TERMINATION_ALPHA):
    """``simulate_tile_warps(swmodel="legacy")``, proven to have run the
    fragment-sort oracle."""
    with oracle_calls() as calls:
        warps = simulate_tile_warps(stream, threshold, swmodel="legacy")
    assert len(calls) == 1
    return warps


def assert_stream_parity(stream, bare):
    """Both engines agree exactly on every model output of one stream
    (``bare`` holds the same fragments without a FrameIR)."""
    for threshold in THRESHOLDS:
        with oracle_calls() as calls:
            fast = simulate_tile_warps(stream, threshold, swmodel="auto")
        assert calls == []
        assert_warps_identical(fast, oracle_warps(stream, threshold))
    for n in PASS_COUNTS:
        assert_multipass_identical(run_multipass(stream, n),
                                   run_multipass(bare, n))
    assert (multipass_sweep(stream, PASS_COUNTS)
            == multipass_sweep(bare, PASS_COUNTS))


class TestSwmodelFuzz:
    def test_random_scenes_exact(self):
        rng = np.random.default_rng(fuzz_seed("swmodel"))
        for trial in range(6):
            n = int(rng.integers(20, 200))
            cloud = random_cloud(rng, n, opacity_low=0.3)
            cam = camera()
            pre = preprocess(cloud, cam)
            stream, bare = rasterize_both(pre.splats, cam.width, cam.height)
            if len(stream) == 0:
                continue
            assert_stream_parity(stream, bare)


class TestSwmodelRegimes:
    """The five stream regimes of the digestion oracle contract."""

    def test_empty_stream(self):
        cam = camera()
        splats = project_gaussians(
            random_cloud(np.random.default_rng(0), 4), cam).subset(
                np.array([], dtype=int))
        stream, bare = rasterize_both(splats, cam.width, cam.height)
        assert len(stream) == 0
        for swmodel in ("auto", "legacy"):
            warp = simulate_tile_warps(stream, swmodel=swmodel)
            assert (warp.rounds_no_et, warp.rounds_et,
                    warp.blend_ops_no_et, warp.blend_ops_et) == (0, 0, 0, 0)
        for s in (stream, bare):
            res = run_multipass(s, 3)
            assert res.total_cycles == 0.0
            assert res.fragments_blended == 0

    def test_single_pixel_splats(self):
        """Subpixel splats: single-fragment quads and one-round tiles."""
        rng = np.random.default_rng(fuzz_seed("sw-single-pixel"))
        cloud = random_cloud(rng, 90, scale_low=0.0015, scale_high=0.003,
                             opacity_low=0.6)
        cam = camera()
        pre = preprocess(cloud, cam)
        stream, bare = rasterize_both(pre.splats, cam.width, cam.height)
        assert len(stream) > 0
        assert_stream_parity(stream, bare)

    def test_max_fragments_clamped(self):
        """At the max_fragments guard boundary the IR still rides along
        and both software models stay exact."""
        rng = np.random.default_rng(fuzz_seed("sw-clamp"))
        cloud = random_cloud(rng, 40, scale_low=0.05, scale_high=0.4)
        cam = camera()
        pre = preprocess(cloud, cam)
        total = len(rasterize_splats(pre.splats, cam.width, cam.height))
        assert total > 0
        stream, bare = rasterize_both(pre.splats, cam.width, cam.height,
                                      max_fragments=total)
        assert_stream_parity(stream, bare)

    def test_small_fixture_stream(self, small_stream, small_pre,
                                  small_camera):
        """``test_swrender.py`` and ``test_swopt.py`` check the models'
        properties on the small and deep fixture streams with the default
        engine; the oracle matches on both (the deep one below), so those
        properties hold for it too."""
        bare = rasterize_splats(small_pre.splats, small_camera.width,
                                small_camera.height, ir="legacy")
        assert_stream_parity(small_stream, bare)

    def test_het_terminated(self, deep_stream, deep_pre, deep_camera):
        """Depth-stacked opaque layers saturate pixels: the warp model's
        per-pixel exit rounds are non-trivial and must match exactly."""
        warp = simulate_tile_warps(deep_stream, swmodel="auto")
        assert warp.rounds_et < warp.rounds_no_et
        bare = rasterize_splats(deep_pre.splats, deep_camera.width,
                                deep_camera.height, ir="legacy")
        assert_stream_parity(deep_stream, bare)

    def test_warm_handoff(self):
        """Whichever engine digests first (warming the stream's shared
        pixel-sort/arrival caches), the other must reproduce it exactly."""
        rng = np.random.default_rng(fuzz_seed("sw-warm"))
        cloud = random_cloud(rng, 80, opacity_low=0.55)
        cam = camera()
        pre = preprocess(cloud, cam)

        stream_a = rasterize_splats(pre.splats, cam.width, cam.height)
        first_a = simulate_tile_warps(stream_a, swmodel="auto")
        second_a = oracle_warps(stream_a)
        assert_warps_identical(first_a, second_a)

        stream_b = rasterize_splats(pre.splats, cam.width, cam.height)
        first_b = oracle_warps(stream_b)
        second_b = simulate_tile_warps(stream_b, swmodel="auto")
        assert_warps_identical(second_b, first_b)
        assert_warps_identical(first_a, first_b)

        bare = rasterize_splats(pre.splats, cam.width, cam.height,
                                ir="legacy")
        oracle = run_multipass(bare, 4)
        assert_multipass_identical(run_multipass(stream_a, 4), oracle)
        assert_multipass_identical(run_multipass(stream_b, 4), oracle)


class TestCudaRendererParity:
    def test_end_to_end_exact(self, frame_inputs):
        """Whole CudaRenderer frames agree across engines: kernel cycles,
        warp counts, tile-duplication pair counts, and the (lazy) blended
        image."""
        rng = np.random.default_rng(fuzz_seed("sw-e2e"))
        cloud = random_cloud(rng, 120, opacity_low=0.4)
        cam = camera()
        # One stream per engine, so neither reads the other's caches.
        pre, stream = frame_inputs(cloud, cam)
        res_ir = CudaRenderer(swmodel="auto").render_stream(stream, pre)
        pre, stream = frame_inputs(cloud, cam)
        with oracle_calls() as calls:
            res_legacy = CudaRenderer(swmodel="legacy").render_stream(stream,
                                                                      pre)
        assert len(calls) == 1
        assert_warps_identical(res_ir.warp_exec, res_legacy.warp_exec)
        assert res_ir.timing.total_cycles == res_legacy.timing.total_cycles
        assert (res_ir.timing.breakdown_ms()
                == res_legacy.timing.breakdown_ms())
        np.testing.assert_array_equal(res_ir.tiling.pairs_per_splat,
                                      res_legacy.tiling.pairs_per_splat)
        assert res_ir.tiling.n_pairs == res_legacy.tiling.n_pairs
        np.testing.assert_array_equal(res_ir.image, res_legacy.image)
        np.testing.assert_array_equal(res_ir.alpha, res_legacy.alpha)


class TestSwmodelKnob:
    def test_resolve_env_default(self, monkeypatch):
        """``$REPRO_SWMODEL`` is not read: only the argument selects."""
        monkeypatch.setenv("REPRO_SWMODEL", "legacy")
        assert resolve_swmodel() == "auto"
        assert resolve_swmodel("legacy") == "legacy"
        with pytest.raises(ValueError, match="swmodel mode"):
            resolve_swmodel("warp")

    def test_bare_stream_takes_the_oracle(self):
        """``"auto"`` reads the FrameIR when the stream carries one; a bare
        (legacy-rasterised) stream takes the fragment-sort oracle, and so
        does the multi-pass model, which has no knob."""
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, 30, opacity_low=0.5)
        cam = camera()
        pre = preprocess(cloud, cam)
        stream, bare = rasterize_both(pre.splats, cam.width, cam.height)
        assert len(bare) > 0
        with oracle_calls() as calls:
            auto = simulate_tile_warps(bare)
        assert len(calls) == 1
        assert_warps_identical(auto, oracle_warps(bare))
        assert_multipass_identical(run_multipass(bare, 3),
                                   run_multipass(stream, 3))

    def test_renderer_validates_eagerly(self):
        for mode in ("warp", "frameir"):
            with pytest.raises(ValueError, match="swmodel mode"):
                CudaRenderer(swmodel=mode)
