"""Engine layer: backend specs, sessions, parallel execution, caching."""

import gc
import json
import pathlib
import time
import weakref

import numpy as np
import pytest

from repro.core.vrpipe import HardwareRenderer, variant_config
from repro.engine import (
    RenderSession,
    ResultCache,
    available_backends,
    clear_cache,
    create_backend,
    get_cloud,
    run_frames,
)
from repro.engine import cache as engine_cache
from repro.engine.cache import CACHE_SCHEMA, payload_checksum
from repro.engine.backends import device_kernel_model, make_device
from repro.engine.session import FrameRecord, TrajectoryResult
from repro.render.fragstream import FragmentStream
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

    def test_frame_result_schema(self, frame_inputs):
        backend = create_backend("cuda+et")
        pre, stream = frame_inputs(get_cloud("lego"),
                                   get_profile("lego").camera())
        frame = backend.render_stream(stream, pre)
        assert frame.backend == "cuda+et"
        assert frame.cycles > 0 and frame.ms > 0 and frame.fps > 0
        assert set(frame.kernels) == {"preprocess", "sort", "rasterize"}
        assert frame.et_ratio > 1.0
        assert frame.pipeline_stats is None  # software path has no hw stats

    def test_reference_backend_functional_only(self, frame_inputs):
        backend = create_backend("reference")
        profile = get_profile("lego")
        pre, stream = frame_inputs(get_cloud("lego"), profile.camera())
        frame = backend.render_stream(stream, pre)
        assert frame.cycles is None and frame.ms is None
        assert frame.image.shape == (profile.height, profile.width, 3)


class TestBackendSpecs:
    def test_session_rejects_backend_instance(self):
        """Sessions take spec strings only, so every session can key the
        disk cache by its specs."""
        with pytest.raises(TypeError, match="spec string"):
            RenderSession("lego", backend=create_backend("hw:het+qm"))
        with pytest.raises(TypeError, match="spec string"):
            RenderSession("lego", backend="hw:het",
                          baseline=create_backend("hw:baseline"))
        session = RenderSession("lego", backend="hw:het+qm")
        assert session.backend.spec == "hw:het+qm"

    def test_auto_baseline_follows_the_spec(self):
        assert RenderSession("lego", backend="hw:het").baseline_spec == (
            "hw:baseline")
        assert RenderSession("lego", backend="hw:baseline").baseline is None
        assert RenderSession("lego", backend="cuda+et").baseline is None


class TestSingleFrame:
    def test_bit_identical_to_hardware_renderer(self, frame_inputs):
        """RenderSession frame == direct HardwareRenderer output."""
        session = RenderSession("lego", backend="hw:het+qm", baseline=None)
        frame = session.render_frame()

        pre, stream = frame_inputs(get_cloud("lego"),
                                   get_profile("lego").camera())
        device = make_device("orin")
        direct = HardwareRenderer(
            config=variant_config("het+qm", device),
            kernel_model=device_kernel_model(device),
        ).render_stream(stream, pre)

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

    def test_baseline_speedups(self):
        result = RenderSession("lego", backend="hw:het+qm").run(n_views=2)
        assert result.baseline == "hw:baseline"
        for rec in result.records:
            assert rec.speedup == rec.baseline_cycles / rec.cycles
            assert rec.speedup > 1.0
        assert result.aggregates()["geomean_speedup"] > 1.0

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

    def test_round_trip_dict(self):
        result = RenderSession("lego", backend="cuda+et", baseline=None).run(
            n_views=2)
        restored = TrajectoryResult.from_dict(result.to_dict(),
                                              from_cache=True)
        assert restored.from_cache
        assert restored.aggregates() == result.aggregates()

    def test_frame_record_missing_key_raises(self):
        payload = FrameRecord(0, "hw:het", cycles=10.0, ms=1.0).to_dict()
        assert FrameRecord.from_dict(payload).cycles == 10.0
        del payload["cycles"]
        with pytest.raises(KeyError):
            FrameRecord.from_dict(payload)


def _flip_first_digit(path):
    """Bit rot on disk: bump the entry's first decimal digit, so it stays
    valid JSON and only its checksum can catch the change."""
    text = path.read_text(encoding="utf-8")
    i = next(i for i, ch in enumerate(text) if ch.isdigit())
    path.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:],
                    encoding="utf-8")


def _failing_replace(monkeypatch):
    """Make every ``Path.replace`` raise ``OSError``."""
    def replace(self, target):
        raise OSError("disk unhappy")

    monkeypatch.setattr(pathlib.Path, "replace", replace)


class TestCacheHardening:
    """A bad entry is taken out of the cache (unlinked) and read as a
    miss; a failed store leaves nothing behind."""

    def test_store_degrades_to_uncached_on_persistent_oserror(
            self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        _failing_replace(monkeypatch)
        assert cache.store("k1", {"value": 42}) is False
        assert len(cache) == 0
        assert list(tmp_path.glob("*.tmp")) == []

    def test_session_completes_when_store_always_fails(self, tmp_path,
                                                       monkeypatch):
        clean = RenderSession("lego").run(n_views=2)
        cache = ResultCache(tmp_path)
        _failing_replace(monkeypatch)
        result = RenderSession("lego", result_cache=cache).run(n_views=2)
        assert result.aggregates() == clean.aggregates()
        assert len(cache) == 0
        assert list(tmp_path.glob("*.tmp")) == []

    def test_corrupted_load_quarantines_and_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path)
        clean = RenderSession("lego", result_cache=cache).run(n_views=2)
        (entry,) = tmp_path.glob("*.json")
        _flip_first_digit(entry)
        assert cache.load(entry.stem) is None
        assert not entry.exists()
        # The next run recomputes and re-stores the entry, so the cache
        # heals itself, and the run after it hits.
        result = RenderSession("lego", result_cache=cache).run(n_views=2)
        assert not result.from_cache
        assert result.aggregates() == clean.aggregates()
        assert entry.exists()
        follow_up = RenderSession("lego", result_cache=cache).run(n_views=2)
        assert follow_up.from_cache
        assert follow_up.aggregates() == clean.aggregates()

    def test_corrupted_store_is_caught_at_load(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.store("k1", {"value": 42}) is True
        _flip_first_digit(cache._path("k1"))
        assert json.loads(cache._path("k1").read_text())["value"] == 52
        assert cache.load("k1") is None
        assert not cache._path("k1").exists()

    def test_unparseable_entry_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        for key, blob in (("bad", b"{not json"), ("list", b"[1, 2]"),
                          ("bytes", b"{\xc3\x28}")):
            cache._path(key).write_bytes(blob)
            assert cache.load(key) is None
            assert not cache._path(key).exists()
        assert list(tmp_path.iterdir()) == []

    def test_schema_mismatch_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        stale = {"schema": CACHE_SCHEMA - 1, "value": 1}
        stale["checksum"] = payload_checksum(stale)
        cache._path("old").write_text(json.dumps(stale), encoding="utf-8")
        assert len(cache) == 1
        assert cache.load("old") is None
        assert len(cache) == 0

    def test_checksum_mismatch_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.store("k1", {"value": 42})
        path = cache._path("k1")
        tampered = path.read_text(encoding="utf-8").replace("42", "43")
        path.write_text(tampered, encoding="utf-8")
        assert cache.load("k1") is None
        assert not path.exists()

    def test_payload_checksum_excludes_itself(self):
        payload = {"value": 1}
        digest = payload_checksum(payload)
        assert payload_checksum(dict(payload, checksum=digest)) == digest

    def test_store_uses_unique_tmp_names(self, tmp_path, monkeypatch):
        # Two writers of one key must never share a tmp path: each store
        # draws a fresh uuid suffix (plus the pid) for its tmp file.
        import uuid

        cache = ResultCache(tmp_path)
        produced = []
        real_uuid4 = uuid.uuid4

        def spy():
            value = real_uuid4()
            produced.append(value.hex[:8])
            return value

        monkeypatch.setattr(uuid, "uuid4", spy)
        cache.store("k1", {"value": 2})
        cache.store("k1", {"value": 3})
        assert len(produced) == 2
        assert len(set(produced)) == 2  # distinct suffix per store
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.load("k1")["value"] == 3


class TestExecutor:
    def test_parallel_failure_reraises_worker_exception(self):
        boom = ValueError("boom")
        ran = []

        def fn(task):
            if task == 0:
                raise boom
            ran.append(task)
            time.sleep(0.05)
            return task

        tasks = list(range(20))
        with pytest.raises(ValueError) as excinfo:
            run_frames(fn, tasks, jobs=2)
        assert excinfo.value is boom
        # Frames that had not started when the failure landed never run.
        assert len(ran) < len(tasks) - 1

    def test_serial_failure_propagates_unwrapped(self):
        def fn(task):
            raise ValueError("boom")

        with pytest.raises(ValueError):
            run_frames(fn, [0], jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_frame_raises_through_the_session(self, jobs,
                                                      monkeypatch):
        session = RenderSession("lego", backend="hw:baseline", baseline=None)

        def broken(*args, **kwargs):
            raise ValueError("broken frame")

        monkeypatch.setattr(session.backend, "render_stream", broken)
        with pytest.raises(ValueError, match="broken frame"):
            session.run(n_views=2, jobs=jobs)


class TestLazyFrameImages:
    """Every backend defers its blend to the first ``image``/``alpha``
    read, and a frame holds nothing that outlives it."""

    #: backend spec -> the termination rule its image blends under.
    EARLY_TERM = {"hw:het": True, "cuda+et": True, "reference": False}

    @pytest.fixture
    def blends(self, monkeypatch):
        """Every ``FragmentStream.blend_image`` call, as its stream."""
        calls = []
        blend_image = FragmentStream.blend_image

        def counting(stream, *args, **kwargs):
            calls.append(stream)
            return blend_image(stream, *args, **kwargs)

        monkeypatch.setattr(FragmentStream, "blend_image", counting)
        return calls

    @pytest.mark.parametrize("spec", sorted(EARLY_TERM))
    def test_frame_image_materialises_lazily(self, spec, blends,
                                             small_stream, small_pre):
        frame = create_backend(spec).render_stream(small_stream, small_pre)
        assert frame.raw.stream is small_stream
        # The blend is deferred until the image is actually read...
        assert blends == []
        image, alpha = frame.image, frame.alpha
        assert blends == [small_stream]  # one blend serves both maps
        # ...and equals the stream's own blend exactly.
        expected, expected_alpha = small_stream.blend_image(
            early_term=self.EARLY_TERM[spec])
        assert np.array_equal(image, expected)
        assert np.array_equal(alpha, expected_alpha)

    @pytest.mark.parametrize("spec", ["hw:baseline", "cuda+et", "reference"])
    def test_session_discards_images_without_blending(self, spec, blends):
        session = RenderSession("lego", backend=spec, baseline=None)
        record = session.run(n_views=1).records[0]
        assert blends == []
        assert record.et_ratio > 1.0
        assert not hasattr(record, "result")

    @pytest.mark.parametrize("spec", sorted(EARLY_TERM))
    def test_dropped_frame_frees_its_stream(self, spec, frame_inputs,
                                            small_cloud, small_camera):
        """Refcounting alone frees a read frame's stream: the deferred
        blend forms no reference cycle."""
        pre, stream = frame_inputs(small_cloud, small_camera)
        frame = create_backend(spec).render_stream(stream, pre)
        assert frame.image is not None
        ref = weakref.ref(stream)
        del pre, stream
        gc.collect()
        gc.disable()
        try:
            assert ref() is not None
            del frame
            assert ref() is None
        finally:
            gc.enable()


class TestBoundedMemo:
    """The figure memo holds at most one scenario stream: a new scene
    evicts the last one, and a memoized draw keeps no stream alive."""

    def test_scenario_slot_evicts_previous_stream(self):
        clear_cache()
        lego = weakref.ref(engine_cache.get_scenario("lego")[1])
        engine_cache.get_scenario("palace")
        gc.collect()
        assert lego() is None

    def test_memoized_draw_keeps_no_stream(self):
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
