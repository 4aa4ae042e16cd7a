"""Engine layer: backend registry, sessions, parallel execution, caching."""

import numpy as np
import pytest

from repro.core.vrpipe import HardwareRenderer, variant_config
from repro.engine import (
    RenderSession,
    ResultCache,
    available_backends,
    clear_cache,
    create_backend,
    frame_seed,
    get_cloud,
)
from repro.engine import cache as engine_cache
from repro.engine.backends import device_kernel_model, make_device
from repro.engine.session import TrajectoryResult
from repro.workloads.catalog import get_profile


class TestRegistry:
    def test_default_backends_registered(self):
        assert {"hw:baseline", "hw:qm", "hw:het", "hw:het+qm",
                "cuda", "cuda+et", "reference"} <= set(available_backends())

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("hw:turbo")

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError, match="unknown device"):
            create_backend("hw:het", device_name="a100")

    def test_frame_result_schema(self):
        backend = create_backend("cuda+et")
        profile = get_profile("lego")
        frame = backend.render(get_cloud("lego"), profile.camera())
        assert frame.backend == "cuda+et"
        assert frame.cycles > 0 and frame.ms > 0 and frame.fps > 0
        assert set(frame.kernels) == {"preprocess", "sort", "rasterize"}
        assert frame.et_ratio > 1.0
        assert frame.pipeline_stats is None  # software path has no hw stats

    def test_reference_backend_functional_only(self):
        backend = create_backend("reference")
        profile = get_profile("lego")
        frame = backend.render(get_cloud("lego"), profile.camera())
        assert frame.cycles is None and frame.ms is None
        assert frame.image.shape == (profile.height, profile.width, 3)


class TestBackendInstances:
    def test_session_accepts_backend_instance_with_auto_baseline(self):
        """A ready backend instance works wherever a spec string does;
        baseline='auto' must resolve from the instance's spec instead of
        crashing on ``str`` methods (the old AttributeError)."""
        instance = create_backend("hw:het+qm")
        session = RenderSession("lego", backend=instance, baseline="auto")
        assert session.backend is instance
        assert session.backend_spec == "hw:het+qm"
        assert session.baseline_spec == "hw:baseline"
        result = session.run(n_views=1)
        assert result.records[0].speedup > 1.0

    def test_session_instance_baseline(self):
        baseline = create_backend("hw:baseline")
        session = RenderSession("lego", backend="hw:het",
                                baseline=baseline)
        assert session.baseline is baseline
        assert session.baseline_spec == "hw:baseline"

    def test_auto_baseline_none_for_non_hw_instance(self):
        instance = create_backend("cuda+et")
        session = RenderSession("lego", backend=instance, baseline="auto")
        assert session.baseline is None

    def test_resolve_rejects_speclike_garbage(self):
        from repro.engine.backends import resolve_backend
        with pytest.raises(TypeError, match="spec"):
            resolve_backend(object())

    def test_instance_backend_bypasses_result_cache(self, tmp_path):
        """Cache keys describe registry-built backends only; a passed
        instance (whose config could differ) must never be served a
        spec-keyed cache hit, nor populate one."""
        cache = ResultCache(tmp_path)
        spec_session = RenderSession("lego", backend="hw:het", baseline=None,
                                     result_cache=cache)
        spec_session.run(n_views=1)
        instance = create_backend("hw:het", device_name="rtx3090")
        inst_session = RenderSession("lego", backend=instance, baseline=None,
                                     result_cache=cache)
        result = inst_session.run(n_views=1)
        assert not result.from_cache
        # And the string-spec path still hits.
        again = RenderSession("lego", backend="hw:het", baseline=None,
                              result_cache=cache).run(n_views=1)
        assert again.from_cache


class TestSingleFrame:
    def test_bit_identical_to_hardware_renderer(self):
        """RenderSession frame == direct HardwareRenderer.render output."""
        session = RenderSession("lego", backend="hw:het+qm", baseline=None)
        frame = session.render_frame()

        profile = get_profile("lego")
        device = make_device("orin")
        direct = HardwareRenderer(
            config=variant_config("het+qm", device),
            kernel_model=device_kernel_model(device),
        ).render(get_cloud("lego"), profile.camera())

        assert np.array_equal(frame.image, direct.image)
        assert np.array_equal(frame.alpha, direct.alpha)
        assert frame.cycles == direct.total_cycles
        assert frame.kernels == direct.breakdown_ms()
        assert frame.pipeline_stats is direct.draw.stats or (
            frame.pipeline_stats.total_cycles == direct.draw.stats.total_cycles)


class TestTrajectory:
    @pytest.fixture(scope="class")
    def serial(self):
        return RenderSession("lego", backend="hw:het", baseline=None).run(
            n_views=4, jobs=1)

    def test_record_and_aggregate_shape(self, serial):
        assert serial.n_frames == 4
        assert [r.index for r in serial.records] == [0, 1, 2, 3]
        agg = serial.aggregates()
        assert agg["frames"] == 4
        assert agg["et_ratio_min"] <= agg["et_ratio_mean"] <= agg["et_ratio_max"]
        assert agg["fps_p5"] <= agg["fps_p50"] <= agg["fps_p95"]
        assert agg["total_ms"] == pytest.approx(
            sum(r.ms for r in serial.records))

    def test_parallel_identical_to_serial(self, serial):
        parallel = RenderSession("lego", backend="hw:het", baseline=None).run(
            n_views=4, jobs=2)
        assert [r.cycles for r in parallel.records] == [
            r.cycles for r in serial.records]
        assert parallel.aggregates() == serial.aggregates()

    def test_deterministic_frame_seeds(self, serial):
        expected = [frame_seed("lego", 0, k) for k in range(4)]
        assert [r.seed for r in serial.records] == expected

    def test_baseline_speedups(self):
        result = RenderSession("lego", backend="hw:het+qm").run(n_views=2)
        assert result.baseline == "hw:baseline"
        for rec in result.records:
            assert rec.speedup == rec.baseline_cycles / rec.cycles
            assert rec.speedup > 1.0
        assert result.aggregates()["geomean_speedup"] > 1.0

    def test_warm_crop_cache_requires_serial(self):
        session = RenderSession("lego", warm_crop_cache=True)
        with pytest.raises(ValueError, match="serial"):
            session.run(n_views=2, jobs=2)

    def test_warm_crop_cache_unsupported_backend(self):
        session = RenderSession("lego", backend="reference", baseline=None,
                                warm_crop_cache=True)
        with pytest.raises(ValueError, match="CROP cache"):
            session.run(n_views=2)

    def test_rejects_bad_view_count(self):
        with pytest.raises(ValueError):
            RenderSession("lego").run(n_views=0)


class TestDiskCache:
    def test_hit_identical_after_clear_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = RenderSession("lego", result_cache=cache).run(n_views=2)
        assert not first.from_cache
        assert len(cache) == 1

        clear_cache()  # drop every in-process memo; force the disk path
        second = RenderSession("lego", result_cache=cache).run(n_views=2)
        assert second.from_cache
        assert second.aggregates() == first.aggregates()
        assert [r.to_dict() for r in second.records] == [
            r.to_dict() for r in first.records]

    def test_key_sensitivity(self, tmp_path):
        cache = ResultCache(tmp_path)
        RenderSession("lego", result_cache=cache).run(n_views=2)
        other = RenderSession("lego", result_cache=cache, seed=1).run(n_views=2)
        assert not other.from_cache
        assert len(cache) == 2

    def test_entry_from_older_model_is_a_miss(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(engine_cache, "model_fingerprint",
                            lambda: "old-model")
        RenderSession("lego", result_cache=cache).run(n_views=2)
        monkeypatch.setattr(engine_cache, "model_fingerprint",
                            lambda: "new-model")
        rerun = RenderSession("lego", result_cache=cache).run(n_views=2)
        assert not rerun.from_cache
        assert len(cache) == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = RenderSession("lego", result_cache=cache).run(n_views=2)
        for path in cache.root.glob("*.json"):
            path.write_text("{not json")
        rerun = RenderSession("lego", result_cache=cache).run(n_views=2)
        assert not rerun.from_cache
        assert rerun.aggregates() == result.aggregates()

    def test_stats_snapshot(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("k1", {"value": 1})
        assert cache.load("k1") is not None
        assert cache.load("missing") is None
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(1 / 2)

    def test_round_trip_dict(self):
        result = RenderSession("lego", backend="cuda+et", baseline=None).run(
            n_views=2)
        restored = TrajectoryResult.from_dict(result.to_dict(),
                                              from_cache=True)
        assert restored.from_cache
        assert restored.aggregates() == result.aggregates()


class TestLazyFrameImages:
    def test_hw_frame_image_materialises_lazily(self):
        backend = create_backend("hw:het")
        profile = get_profile("lego")
        frame = backend.render(get_cloud("lego"), profile.camera())
        # The blend is deferred until the image is actually read...
        assert frame._image is None
        image = frame.image
        assert image.shape == (profile.height, profile.width, 3)
        # ...and equals the stream's eager blend exactly.
        expected, alpha = frame.raw.stream.blend_image(
            early_term=True, threshold=backend.config.termination_alpha)
        assert np.array_equal(image, expected)
        assert np.array_equal(frame.alpha, alpha)

    def test_session_discards_images_without_blending(self):
        session = RenderSession("lego", backend="hw:baseline", baseline=None)
        result = session.run(n_views=1)
        record = result.records[0]
        assert record.result is None
        assert record.cycles > 0



class TestBoundedMemo:
    """The figure memo holds at most one scenario stream: a new scene
    evicts the last one, and a memoized draw keeps no stream alive."""

    def test_scenario_slot_evicts_previous_stream(self):
        import gc
        import weakref

        clear_cache()
        lego = weakref.ref(engine_cache.get_scenario("lego")[1])
        engine_cache.get_scenario("palace")
        gc.collect()
        assert lego() is None

    def test_memoized_draw_keeps_no_stream(self):
        import gc
        import weakref

        clear_cache()
        draw = engine_cache.get_draw("lego", "het+qm")
        stream = weakref.ref(engine_cache.get_scenario("lego")[1])
        engine_cache.get_scenario("palace")
        gc.collect()
        assert stream() is None
        assert engine_cache.get_draw("lego", "het+qm") is draw


class TestFlatMemory:
    """Cold frames leave nothing behind: the per-stream caches (pixel
    grouping, arrival chain, termination masks, quad slots, the flush
    digest) die with their frame without the cyclic garbage collector."""

    #: Allowed growth of traced memory between frame 2 and frame 6.  One
    #: leaked lego frame holds tens of MB; the session's own per-frame
    #: bookkeeping stays in the KB range.
    MARGIN_BYTES = 256 * 1024

    def test_cold_frames_keep_traced_memory_flat(self):
        import gc
        import tracemalloc

        from repro.workloads.viewpoints import scene_viewpoints

        session = RenderSession("lego", backend="hw:het+qm", baseline=None,
                                coherence="off")
        cameras = scene_viewpoints(session.profile, 6)
        traced = []
        gc.collect()
        gc.disable()
        # NumPy reports its data buffers to tracemalloc, so the traced
        # total counts every array a frame leaves alive — deterministic,
        # unlike the process RSS.
        tracemalloc.start()
        try:
            for camera in cameras:
                session.render_frame(camera)
                traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
            gc.enable()
        assert traced[5] - traced[1] < self.MARGIN_BYTES, traced
