"""Cross-frame coherence: every serve path bit-identical to the oracle.

The :class:`~repro.render.coherence.FrameCoherence` carrier answers a
frame's digestion from previous frames' state two ways — full hit
(identical content: the digested products are served) or full
recompute — and each must reproduce the stateless oracle digest
exactly: same arrays, same dtypes, same termination sets, same
quad-table columns, cycle-exact draws.  These tests pin that across
random coherent orbit pairs and the degenerate regimes (empty frames,
full-occlusion revisit, the max_fragments clamp boundary, HET
termination flips between frames, warm-CROP handoff).

CI runs this module under both ``REPRO_COHERENCE=incremental`` and
``=off``; tests therefore select their mode explicitly instead of
relying on the process default.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.vrpipe import variant_config
from repro.engine.session import RenderSession
from repro.gaussians import Camera
from repro.gaussians.preprocess import preprocess
from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline
from repro.render.coherence import (
    COHERENCE_MODES,
    DEFAULT_MAX_BYTES,
    FrameCoherence,
    resolve_coherence,
)
from repro.render.splat_raster import rasterize_splats
from repro.workloads.viewpoints import scene_viewpoints

#: The sorted-domain digestion caches compared with the oracle's.
CANONICAL = ("pixel_order", "pix_sorted", "pixel_starts",
             "alpha_eff_sorted", "arrival_sorted")

#: Quad-table columns compared (incl. dtypes) between carrier and oracle.
QUAD_COLUMNS = ("prim_ids", "qx", "qy", "tile_ids", "grid_ids", "qpos",
                "mask_unpruned", "mask_et", "mask_unterminated")


def _digest(stream):
    """Materialise and collect the canonical digested state."""
    stream._ensure_arrival_sorted()
    out = {k: stream._cache[k] for k in CANONICAL}
    out["accumulated"] = stream.accumulated_alpha
    return out


def _assert_bitwise(expected, got):
    for k in expected:
        a, b = np.asarray(expected[k]), np.asarray(got[k])
        assert a.dtype == b.dtype, f"{k}: dtype {a.dtype} != {b.dtype}"
        assert a.shape == b.shape, f"{k}: shape {a.shape} != {b.shape}"
        # Byte-level equality: exact for ints and floats alike (no NaN
        # leniency, no tolerance).
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), k


def _assert_quads_identical(sa, sb, config):
    qa = sa.quad_table(config.termination_alpha, config.het_inflight_lag)
    qb = sb.quad_table(config.termination_alpha, config.het_inflight_lag)
    _assert_bitwise({k: getattr(qa, k) for k in QUAD_COLUMNS},
                    {k: getattr(qb, k) for k in QUAD_COLUMNS})


def _assert_draws_identical(sa, sb, config):
    wa = DrawWorkload.from_stream(sa, config)
    wb = DrawWorkload.from_stream(sb, config)
    ra = GraphicsPipeline(config).draw(wa)
    rb = GraphicsPipeline(config).draw(wb)
    assert ra.stats.total_cycles == rb.stats.total_cycles
    for unit in ra.stats.units:
        ua, ub = ra.stats.units[unit], rb.stats.units[unit]
        assert ua.busy_cycles == ub.busy_cycles, unit
        assert ua.items == ub.items, unit


class TestKnob:
    def test_modes_enumerated(self):
        assert resolve_coherence("auto") == "auto"
        assert resolve_coherence("incremental") == "incremental"
        assert resolve_coherence("off") == "off"

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_COHERENCE", raising=False)
        assert resolve_coherence() == "auto"
        monkeypatch.setenv("REPRO_COHERENCE", "incremental")
        assert resolve_coherence() == "incremental"

    def test_invalid_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="coherence"):
            resolve_coherence("sometimes")
        monkeypatch.setenv("REPRO_COHERENCE", "bogus")
        with pytest.raises(ValueError, match="coherence"):
            resolve_coherence()

    def test_modes_tuple_is_contract(self):
        assert tuple(COHERENCE_MODES) == ("auto", "incremental", "off")

    def test_incremental_refuses_parallel_run(self):
        session = RenderSession("lego", baseline=None,
                                coherence="incremental")
        with pytest.raises(ValueError, match="serial"):
            session.run(n_views=2, jobs=2)


class TestServePaths:
    """Full hit / fallback, each against a fresh oracle."""

    def _fresh(self, pre, camera):
        return rasterize_splats(pre.splats, camera.width, camera.height)

    def test_full_hit_bit_identical(self, small_pre, small_camera):
        car = FrameCoherence("incremental")
        s1 = self._fresh(small_pre, small_camera)
        car.begin_frame(s1)
        _digest(s1)
        s2 = self._fresh(small_pre, small_camera)
        car.begin_frame(s2)
        got = _digest(s2)
        assert car.stats["full_hits"] == 1
        oracle = _digest(self._fresh(small_pre, small_camera))
        _assert_bitwise(oracle, got)

    def test_fallback_bit_identical(self, deep_pre, deep_camera):
        car = FrameCoherence("incremental")
        s1 = self._fresh(deep_pre, deep_camera)
        car.begin_frame(s1)
        _digest(s1)
        # Every fragment's alpha changes: coherence is zero, the carrier
        # must fall back to the full recompute oracle.
        s2 = self._fresh(deep_pre, deep_camera)
        rng = np.random.default_rng(3)
        alphas = (s2.alphas
                  * rng.uniform(0.9, 0.999, len(s2)).astype(np.float32))
        s2.alphas = alphas
        car.begin_frame(s2)
        got = _digest(s2)
        assert car.stats["full_recomputes"] == 1
        s_ref = self._fresh(deep_pre, deep_camera)
        s_ref.alphas = alphas
        _assert_bitwise(_digest(s_ref), got)

    def test_off_mode_is_inert(self, small_pre, small_camera):
        car = FrameCoherence("off")
        s1 = self._fresh(small_pre, small_camera)
        car.begin_frame(s1)
        assert s1.coherence is None
        _digest(s1)
        assert car.stats == {"full_hits": 0, "partial_hits": 0,
                             "full_recomputes": 0}


class TestRadixGroupingPin:
    """The radix/IR pixel grouping must equal the legacy stable argsort.

    The *permutation* (and everything ordering-derived: pix_sorted,
    pixel_starts, the gathered effective alphas) is bit-identical across
    the two groupings.  The arrival chain itself differs between the
    engines by design — the IR path scans per scanline where the legacy
    oracle scans globally, a different (cleaner) float summation order —
    so arrival values are compared numerically and every *consumer*
    (termination masks, quad-table columns) bitwise.
    """

    ORDER_KEYS = ("pixel_order", "pix_sorted", "pixel_starts",
                  "alpha_eff_sorted")

    def test_order_equality(self, small_pre, small_camera, deep_pre,
                            deep_camera):
        config = variant_config("het+qm")
        for pre, cam in ((small_pre, small_camera), (deep_pre, deep_camera)):
            s_ir = rasterize_splats(pre.splats, cam.width, cam.height,
                                    ir="frameir")
            s_legacy = rasterize_splats(pre.splats, cam.width, cam.height,
                                        ir="legacy")
            assert s_ir._use_ir_digest()
            assert not s_legacy._use_ir_digest()
            d_ir, d_legacy = _digest(s_ir), _digest(s_legacy)
            _assert_bitwise({k: d_legacy[k] for k in self.ORDER_KEYS},
                            {k: d_ir[k] for k in self.ORDER_KEYS})
            np.testing.assert_allclose(d_ir["arrival_sorted"],
                                       d_legacy["arrival_sorted"],
                                       rtol=0, atol=1e-9)
            np.testing.assert_allclose(d_ir["accumulated"],
                                       d_legacy["accumulated"],
                                       rtol=0, atol=1e-9)
            _assert_quads_identical(s_legacy, s_ir, config)
            _assert_bitwise(
                {"et": s_legacy.et_survivor_mask()},
                {"et": s_ir.et_survivor_mask()})


class TestCoherentOrbitFuzz:
    """Random coherent orbit pairs: serve whatever path, match the oracle."""

    def test_orbit_pairs(self, deep_cloud):
        rng = np.random.default_rng(0xC0)
        config = variant_config("het+qm")
        car = FrameCoherence("incremental")
        for trial in range(5):
            angle = rng.uniform(0, 2 * np.pi)
            # Nearby viewpoints of one orbit step: highly (but not fully)
            # coherent frames, the production trajectory regime.
            delta = rng.uniform(0.0, 0.02)
            for theta in (angle, angle + delta):
                eye = (2.2 * np.sin(theta), 0.1, -2.2 * np.cos(theta))
                cam = Camera.look_at(eye=eye, target=(0, 0, 0),
                                     width=96, height=96)
                pre = preprocess(deep_cloud, cam)
                stream = rasterize_splats(pre.splats, cam.width, cam.height)
                car.begin_frame(stream)
                got = _digest(stream)
                oracle = rasterize_splats(pre.splats, cam.width, cam.height)
                _assert_bitwise(_digest(oracle), got)
                _assert_quads_identical(oracle, stream, config)
        served = car.stats["full_hits"] + car.stats["partial_hits"]
        assert served + car.stats["full_recomputes"] >= 9

    def test_revisit_is_full_hit_and_draw_exact(self, deep_cloud):
        """An orbit that returns to a viewpoint serves it from the library."""
        config = variant_config("het+qm")
        cams = [Camera.look_at(eye=(2.2 * np.sin(t), 0.1, -2.2 * np.cos(t)),
                               target=(0, 0, 0), width=96, height=96)
                for t in (0.0, 0.4, 0.0)]
        car = FrameCoherence("incremental")
        streams = []
        for cam in cams:
            pre = preprocess(deep_cloud, cam)
            stream = rasterize_splats(pre.splats, cam.width, cam.height)
            car.begin_frame(stream)
            _digest(stream)
            streams.append((stream, pre, cam))
        assert car.stats["full_hits"] >= 1
        stream, pre, cam = streams[2]
        oracle = rasterize_splats(pre.splats, cam.width, cam.height)
        _assert_bitwise(_digest(oracle), _digest(stream))
        _assert_draws_identical(oracle, stream, config)


class TestDegenerateRegimes:
    def test_empty_frames(self, small_cloud):
        # A camera facing away from the scene: zero visible fragments.
        away = Camera.look_at(eye=(0, 0, -3), target=(0, 0, -9),
                              width=64, height=64)
        car = FrameCoherence("incremental")
        for _ in range(2):
            pre = preprocess(small_cloud, away)
            stream = rasterize_splats(pre.splats, away.width, away.height)
            assert len(stream) == 0
            car.begin_frame(stream)
            got = _digest(stream)
            oracle = rasterize_splats(pre.splats, away.width, away.height)
            _assert_bitwise(_digest(oracle), got)

    def test_empty_then_full_then_empty(self, small_cloud, small_camera):
        away = Camera.look_at(eye=(0, 0, -3), target=(0, 0, -9),
                              width=96, height=96)
        car = FrameCoherence("incremental")
        for cam in (away, small_camera, away):
            pre = preprocess(small_cloud, cam)
            stream = rasterize_splats(pre.splats, cam.width, cam.height)
            car.begin_frame(stream)
            got = _digest(stream)
            oracle = rasterize_splats(pre.splats, cam.width, cam.height)
            _assert_bitwise(_digest(oracle), got)

    def test_full_occlusion_revisit(self, deep_pre, deep_camera):
        """Saturating layered content: termination sets survive reuse."""
        config = variant_config("het")
        car = FrameCoherence("incremental")
        streams = []
        for _ in range(2):
            stream = rasterize_splats(deep_pre.splats, deep_camera.width,
                                      deep_camera.height)
            car.begin_frame(stream)
            _digest(stream)
            streams.append(stream)
        assert car.stats["full_hits"] == 1
        oracle = rasterize_splats(deep_pre.splats, deep_camera.width,
                                  deep_camera.height)
        wa = DrawWorkload.from_stream(oracle, config)
        wb = DrawWorkload.from_stream(streams[1], config)
        assert wa.n_terminated_pixels > 0  # the regime actually occludes
        assert wa.n_terminated_pixels == wb.n_terminated_pixels
        assert np.array_equal(wa.terminated_stencil_tags,
                              wb.terminated_stencil_tags)
        _assert_bitwise(
            {"et": oracle.et_survivor_mask(config.termination_alpha)},
            {"et": streams[1].et_survivor_mask(config.termination_alpha)})

    def test_max_fragments_clamp_boundary(self, small_pre, small_camera):
        w, h = small_camera.width, small_camera.height
        n = len(rasterize_splats(small_pre.splats, w, h))
        with pytest.raises(MemoryError, match="max_fragments"):
            rasterize_splats(small_pre.splats, w, h, max_fragments=n - 1)
        # The carrier never saw the aborted frame; at the exact clamp
        # boundary the stream digests normally and still full-hits.
        car = FrameCoherence("incremental")
        s1 = rasterize_splats(small_pre.splats, w, h, max_fragments=n)
        car.begin_frame(s1)
        _digest(s1)
        with pytest.raises(MemoryError, match="max_fragments"):
            rasterize_splats(small_pre.splats, w, h, max_fragments=n - 1)
        s2 = rasterize_splats(small_pre.splats, w, h, max_fragments=n)
        car.begin_frame(s2)
        got = _digest(s2)
        assert car.stats["full_hits"] == 1
        _assert_bitwise(_digest(rasterize_splats(small_pre.splats, w, h)),
                        got)

    def test_het_termination_flips_between_frames(self, deep_pre,
                                                  deep_camera):
        """Alphas flip pixels across the HET threshold frame-to-frame."""
        config = variant_config("het")
        w, h = deep_camera.width, deep_camera.height
        car = FrameCoherence("incremental")
        scales = (np.float32(1.0), np.float32(0.6), np.float32(1.0))
        base = rasterize_splats(deep_pre.splats, w, h).alphas.copy()
        terminated = []
        for scale in scales:
            stream = rasterize_splats(deep_pre.splats, w, h)
            stream.alphas = np.minimum(np.float32(0.99), base * scale)
            car.begin_frame(stream)
            got = _digest(stream)
            oracle = rasterize_splats(deep_pre.splats, w, h)
            oracle.alphas = stream.alphas.copy()
            _assert_bitwise(_digest(oracle), got)
            _assert_quads_identical(oracle, stream, config)
            terminated.append(
                DrawWorkload.from_stream(stream, config).n_terminated_pixels)
        # The flip is real: damping the alphas changes the termination set.
        assert terminated[0] != terminated[1]
        assert terminated[0] == terminated[2]


class TestStaleCacheGuard:
    """Carrier-shared arrays are frozen: mutation raises, never corrupts."""

    def test_captured_and_served_arrays_read_only(self, small_pre,
                                                  small_camera):
        """Every product array the library shares is frozen, both in the
        stream it was captured from and in the stream it was served to."""
        config = variant_config("het+qm")
        w, h = small_camera.width, small_camera.height
        car = FrameCoherence("incremental")
        streams = []
        for _ in range(2):
            stream = rasterize_splats(small_pre.splats, w, h)
            car.begin_frame(stream)
            _digest(stream)
            GraphicsPipeline(config).draw(
                DrawWorkload.from_stream(stream, config))
            streams.append(stream)
        assert car.stats["full_hits"] == 1
        shared = {key: value for key, value in car._prev.products.items()
                  if isinstance(value, np.ndarray)}
        assert "accumulated_alpha" in shared and len(shared) >= 3
        for stream in streams:
            for key, value in shared.items():
                assert stream._cache[key] is value, key
                with pytest.raises((ValueError, RuntimeError)):
                    stream._cache[key][0:1] = 0

    def test_mutation_after_capture_does_not_poison_library(
            self, small_pre, small_camera):
        """Rebinding inputs after capture must not alter what later
        frames are served: the content hash keys the *digested* state."""
        w, h = small_camera.width, small_camera.height
        car = FrameCoherence("incremental")
        s1 = rasterize_splats(small_pre.splats, w, h)
        car.begin_frame(s1)
        expected = {k: v.copy() for k, v in _digest(s1).items()}
        # Rebind the captured stream's alphas (in-place writes raise; a
        # rebind is the remaining mutation avenue).  A later identical
        # frame is verified against the *stored* content, so it must be
        # served the original digest, not the mutated stream's.
        s1.alphas = s1.alphas * np.float32(0.5)
        s2 = rasterize_splats(small_pre.splats, w, h)
        car.begin_frame(s2)
        _assert_bitwise(expected, _digest(s2))


class TestWarmTrajectorySessions:
    def test_warm_crop_handoff_cycle_exact(self):
        """Warm-CROP sessions under incremental vs off: identical stats."""
        runs = {}
        for mode in ("incremental", "off"):
            session = RenderSession("lego", backend="hw:het+qm",
                                    baseline=None, warm_crop_cache=True,
                                    coherence=mode)
            runs[mode] = session.run(n_views=2)
        for inc, off in zip(runs["incremental"].records,
                            runs["off"].records):
            assert inc.cycles == off.cycles
            assert inc.ms == off.ms
            assert inc.et_ratio == off.et_ratio

    def test_interleaved_cache_and_coherence_hits(self, monkeypatch,
                                                  tmp_path):
        """Satellite: warm sessions under REPRO_IR=frameir, interleaving
        disk-cache-hit runs with coherence-hit revisited viewpoints,
        bit-identical to cold recompute."""
        from repro.engine.cache import ResultCache

        monkeypatch.setenv("REPRO_IR", "frameir")
        cache = ResultCache(tmp_path / "traj")
        warm = RenderSession("lego", backend="hw:het+qm", baseline=None,
                             result_cache=cache, coherence="incremental")
        cold = RenderSession("lego", backend="hw:het+qm", baseline=None,
                             coherence="off")

        first = warm.run(n_views=2)
        assert not first.from_cache
        # Disk-cache hit: the whole trajectory replays from the cache.
        replay = warm.run(n_views=2)
        assert replay.from_cache
        for a, b in zip(first.records, replay.records):
            assert a.cycles == b.cycles

        # Coherence hits: revisit the trajectory's viewpoints frame by
        # frame (render_frame bypasses the disk cache), interleaved with
        # cold recomputes, and demand bit-identical images and
        # cycle-exact hardware stats.
        cams = scene_viewpoints("lego", 2)
        for cam in (cams[0], cams[1], cams[0]):
            r_warm = warm.render_frame(camera=cam)
            r_cold = cold.render_frame(camera=cam)
            assert r_warm.cycles == r_cold.cycles
            sw, sc = r_warm.pipeline_stats, r_cold.pipeline_stats
            assert sw.total_cycles == sc.total_cycles
            for unit in sw.units:
                assert sw.units[unit].busy_cycles == sc.units[unit].busy_cycles
                assert sw.units[unit].items == sc.units[unit].items
            assert np.array_equal(r_warm.image, r_cold.image)
            assert np.array_equal(r_warm.alpha, r_cold.alpha)
        stats = warm._carrier().stats
        assert stats["full_hits"] >= 1


def _library_bytes(car):
    return sum(state.nbytes for state in car._states.values())


def _orbit_camera(theta, size=96):
    eye = (2.2 * np.sin(theta), 0.1, -2.2 * np.cos(theta))
    return Camera.look_at(eye=eye, target=(0, 0, 0), width=size, height=size)


def _render_digest(car, cloud, cam, config):
    """One carrier frame: rasterise, classify, digest and draw."""
    pre = preprocess(cloud, cam)
    stream = rasterize_splats(pre.splats, cam.width, cam.height)
    car.begin_frame(stream)
    got = _digest(stream)
    GraphicsPipeline(config).draw(DrawWorkload.from_stream(stream, config))
    return stream, pre, got


class TestSealedStates:
    """States are sealed to plain arrays once the next frame begins; every
    path served from a sealed state stays bit-identical to the oracle."""

    def test_full_hit_from_sealed_state(self, deep_cloud):
        config = variant_config("het+qm")
        car = FrameCoherence("incremental")
        _render_digest(car, deep_cloud, _orbit_camera(0.0), config)
        _render_digest(car, deep_cloud, _orbit_camera(0.4), config)
        assert all(state.stream is None for state in car._states.values()
                   if state is not car._prev)
        stream, pre, got = _render_digest(car, deep_cloud,
                                          _orbit_camera(0.0), config)
        assert car.stats["full_hits"] == 1
        cam = _orbit_camera(0.0)
        oracle = rasterize_splats(pre.splats, cam.width, cam.height)
        _assert_bitwise(_digest(oracle), got)
        _assert_quads_identical(oracle, stream, config)
        _assert_draws_identical(oracle, stream, config)
        for threshold in (config.termination_alpha, 0.5):
            _assert_bitwise(
                {"et": oracle.et_survivor_mask(threshold),
                 "unterm": oracle.unterminated_on_arrival(threshold, 3)},
                {"et": stream.et_survivor_mask(threshold),
                 "unterm": stream.unterminated_on_arrival(threshold, 3)})

    def test_snapshot_restore_across_seal(self, deep_cloud):
        """A failed attempt seals the previous state; the rewound carrier
        retries exactly as if the attempt never ran."""
        config = variant_config("het+qm")
        thetas = (0.0, 0.3, 0.0)
        clean = FrameCoherence("incremental")
        for theta in thetas:
            _render_digest(clean, deep_cloud, _orbit_camera(theta), config)
        car = FrameCoherence("incremental")
        _render_digest(car, deep_cloud, _orbit_camera(thetas[0]), config)
        for theta in thetas[1:]:
            snap = car.snapshot()
            assert car._prev.stream is not None  # live at snapshot time
            _render_digest(car, deep_cloud, _orbit_camera(theta), config)
            car.restore(snap)
            assert car._prev.stream is None  # sealed by the failed attempt
            stream, pre, got = _render_digest(car, deep_cloud,
                                              _orbit_camera(theta), config)
            cam = _orbit_camera(theta)
            oracle = rasterize_splats(pre.splats, cam.width, cam.height)
            _assert_bitwise(_digest(oracle), got)
            _assert_draws_identical(oracle, stream, config)
        assert car.stats == clean.stats
        assert car.stats["full_hits"] == 1
        assert list(car._states) == list(clean._states)

    def test_adopted_and_rederived_arrays_read_only(self, small_pre,
                                                    small_camera):
        """A sealed state keeps products only, frozen read-only, and a
        full hit adopts the very same arrays."""
        config = variant_config("het+qm")
        thr = round(config.termination_alpha, 9)
        lag = config.het_inflight_lag
        w, h = small_camera.width, small_camera.height
        car = FrameCoherence("incremental")
        for _ in range(2):
            stream = rasterize_splats(small_pre.splats, w, h)
            car.begin_frame(stream)
            GraphicsPipeline(config).draw(
                DrawWorkload.from_stream(stream, config))
            stream.termination_ratio(config.termination_alpha)
        assert car.stats["full_hits"] == 1
        sealed = car._prev
        assert sealed.stream is None
        products = sealed.products
        assert {"accumulated_alpha", "unpruned_count", ("et_count", thr),
                ("term_rank", thr), ("mask_et", thr, lag),
                ("mask_unterminated", thr, lag)} <= set(products)
        # Nothing that only re-runs the arrival chain or the quad
        # reductions is kept.
        assert not {"pixel_order", "pix_sorted", "pixel_starts",
                    "alpha_eff_sorted", "arrival_sorted", "unpruned",
                    ("et_survivor", thr), ("unterminated", thr, lag),
                    ("het_blended", thr, lag)} & set(products)
        assert sealed.frameir._quads._slots is None
        arrays = {key: value for key, value in products.items()
                  if isinstance(value, np.ndarray)}
        for key, value in arrays.items():
            assert stream._cache[key] is value, key
            if key[0] in ("mask_et", "mask_unterminated"):
                assert value.dtype == np.uint8, key
            with pytest.raises(ValueError):
                value[0:1] = 0

    def test_library_evicts_lru_first_by_bytes(self, deep_cloud):
        config = variant_config("het+qm")
        probe = FrameCoherence("incremental")
        for theta in (0.0, 0.2):
            _render_digest(probe, deep_cloud, _orbit_camera(theta), config)
        probe.begin_frame(rasterize_splats(
            preprocess(deep_cloud, _orbit_camera(0.0)).splats, 96, 96))
        sizes = [state.nbytes for state in probe._states.values()]
        # Room for two states of this scene, not three.
        budget = int(2.5 * max(sizes))
        assert 3 * min(sizes) > budget
        car = FrameCoherence("incremental", max_bytes=budget)
        keys = []
        for theta in (0.0, 0.2, 0.4, 0.2, 0.6):
            _render_digest(car, deep_cloud, _orbit_camera(theta), config)
            keys.append(car._key)
            assert _library_bytes(car) - car._prev.nbytes <= budget
        # The next frame's begin seals 0.6 and trims the library.  0.0
        # went first; revisiting 0.2 made it most recent, so 0.4 went
        # next, and the library holds the two most recently used views
        # plus the new frame's live state.
        car.begin_frame(rasterize_splats(
            preprocess(deep_cloud, _orbit_camera(0.8)).splats, 96, 96))
        assert car.stats["full_hits"] == 1
        assert list(car._states) == [keys[3], keys[4], car._key]
        assert _library_bytes(car) - car._prev.nbytes <= budget

    def test_eight_view_lego_loop_stays_resident(self):
        """The default budget holds an 8-view lego sweep: the second lap
        is all full hits, and a sealed lego state stays compact."""
        session = RenderSession("lego", backend="hw:het+qm", baseline=None,
                                coherence="incremental")
        first = session.run(n_views=8)
        car = session._carrier()
        assert car.stats["full_hits"] == 0
        second = session.run(n_views=8)
        assert car.stats["full_hits"] == 8
        for a, b in zip(first.records, second.records):
            assert a.cycles == b.cycles
        states = list(car._states.values())
        assert len(states) == 8
        assert _library_bytes(car) <= DEFAULT_MAX_BYTES
        for state in states:
            if state is not car._prev:
                assert state.stream is None
                assert state.nbytes <= 18 * state.n, state.nbytes / state.n


class TestFullHitServing:
    """A full hit serves the draw and the warp model from the sealed
    products alone: no quad slots, no pixel-sorted arrays."""

    #: Pixel-sorted digestion arrays a full hit must not build.
    SORTED = ("pixel_order", "pix_sorted", "pixel_starts",
              "alpha_eff_sorted", "arrival_sorted")

    def test_hw_full_hit_builds_no_slots_or_sorted_arrays(self,
                                                          deep_cloud):
        config = variant_config("het+qm")
        cam = _orbit_camera(0.0)
        pre = preprocess(deep_cloud, cam)
        car = FrameCoherence("incremental")
        for _ in range(2):
            stream = rasterize_splats(pre.splats, cam.width, cam.height)
            car.begin_frame(stream)
            workload = DrawWorkload.from_stream(stream, config)
            draw = GraphicsPipeline(config).draw(workload)
            ratio = stream.termination_ratio(config.termination_alpha)
        assert car.stats["full_hits"] == 1
        assert stream.frameir._quads._slots is None
        assert not set(self.SORTED) & set(stream._cache)
        oracle = rasterize_splats(pre.splats, cam.width, cam.height)
        want = GraphicsPipeline(config).draw(
            DrawWorkload.from_stream(oracle, config))
        assert draw.stats.total_cycles == want.stats.total_cycles
        for unit in want.stats.units:
            assert (draw.stats.units[unit].busy_cycles
                    == want.stats.units[unit].busy_cycles), unit
            assert (draw.stats.units[unit].items
                    == want.stats.units[unit].items), unit
        assert workload.n_terminated_pixels > 0
        assert ratio == oracle.termination_ratio(config.termination_alpha)
        # Consumers the hit does not serve recompute, bit-identically.
        _assert_quads_identical(oracle, stream, config)
        _assert_bitwise(_digest(oracle), _digest(stream))

    def test_cuda_second_lap_full_hits_match_oracle(self):
        cams = scene_viewpoints("lego", 4)
        oracle = RenderSession("lego", backend="cuda+et", baseline=None,
                               coherence="off", swmodel="legacy")
        session = RenderSession("lego", backend="cuda+et", baseline=None,
                                coherence="incremental")
        for cam in cams:
            session.render_frame(camera=cam)
        car = session._carrier()
        assert car.stats["full_hits"] == 0
        for cam in cams:
            got = session.render_frame(camera=cam)
            assert not set(self.SORTED) & set(got.raw.stream._cache)
            want = oracle.render_frame(camera=cam)
            assert got.cycles == want.cycles
            assert got.et_ratio == want.et_ratio
            assert got.n_fragments == want.n_fragments
            assert vars(got.raw.warp_exec) == vars(want.raw.warp_exec)
        assert car.stats["full_hits"] == len(cams)


class TestFrameRelease:
    def test_stream_freed_without_cyclic_gc(self):
        """A frame's stream is freed by refcounting alone once the next
        frame has rendered and its result is dropped."""
        session = RenderSession("palace", backend="hw:het+qm",
                                baseline=None, coherence="incremental")
        cams = scene_viewpoints("palace", 2)
        gc.collect()
        gc.disable()
        try:
            result = session.render_frame(camera=cams[0])
            ref = weakref.ref(result.raw.stream)
            session.render_frame(camera=cams[1])
            assert ref() is not None
            del result
            assert ref() is None
        finally:
            gc.enable()

    def test_carrier_freed_with_its_session_without_cyclic_gc(self):
        """The last frame's stream links back to the carrier weakly, so a
        dropped session frees its carrier (and library) by refcounting."""
        session = RenderSession("palace", backend="hw:het+qm",
                                baseline=None, coherence="incremental")
        gc.collect()
        gc.disable()
        try:
            session.render_frame(camera=scene_viewpoints("palace", 1)[0])
            carrier = weakref.ref(session._carrier())
            assert carrier()._prev.stream is not None
            del session
            assert carrier() is None
        finally:
            gc.enable()
