"""Cross-frame coherence: every serve path bit-identical to the oracle.

The :class:`~repro.render.coherence.FrameCoherence` carrier answers a
frame's digestion from previous frames' state two ways — full hit
(identical content: the digested products are served) or full
recompute — and each must reproduce the stateless oracle digest
exactly: same arrays, same dtypes, same termination sets, same
quad-table columns, cycle-exact draws.  These tests pin that across
random coherent orbit pairs and the degenerate regimes (empty frames,
full-occlusion revisit, the max_fragments clamp boundary, HET
termination flips between frames).  Session-level tests compare a
carrier session against a ``coherence="off"`` one.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.core.vrpipe import variant_config
from repro.engine.session import RenderSession
from repro.gaussians import Camera
from repro.gaussians.preprocess import preprocess
from repro.hwmodel.flushplan import FlushDigest
from repro.hwmodel.caches import LRUCache
from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline, draw_key
from repro.hwmodel.trace import DrawTrace
from repro.render.coherence import (
    COHERENCE_MODES,
    DEFAULT_MAX_BYTES,
    SPLAT_FIELDS,
    FrameCoherence,
    resolve_coherence,
)
from repro.render.fragstream import FragmentStream
from repro.render.splat_raster import rasterize_splats
from repro.utils.arrays import ndarray_bytes
from repro.workloads.viewpoints import scene_viewpoints

#: The sorted-domain digestion caches compared with the oracle's.
CANONICAL = ("pixel_order", "pix_sorted", "pixel_starts",
             "alpha_eff_sorted", "arrival_sorted")

#: Per-fragment coordinates a served stream expands on first read.
COORDINATES = ("prim_ids", "x", "y")

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
        assert resolve_coherence() == "auto"
        assert resolve_coherence("auto") == "auto"
        assert resolve_coherence("off") == "off"

    def test_env_default(self, monkeypatch):
        """The environment selects no path: with the variables that once
        set process-wide defaults exported, the coherence default is
        still auto and a revisited frame is a full hit."""
        monkeypatch.setenv("REPRO_IR", "legacy")
        monkeypatch.setenv("REPRO_COHERENCE", "off")
        monkeypatch.setenv("REPRO_SWMODEL", "legacy")
        assert resolve_coherence() == "auto"
        session = RenderSession("palace", baseline=None)
        camera = session.profile.camera()
        for _ in range(2):
            session.render_frame(camera)
        assert session.carrier.stats["full_hits"] == 1

    def test_invalid_rejected(self):
        for mode in ("sometimes", "incremental"):
            with pytest.raises(ValueError, match="coherence"):
                resolve_coherence(mode)

    def test_modes_tuple_is_contract(self):
        assert tuple(COHERENCE_MODES) == ("auto", "off")

    def test_parallel_run_bypasses_carrier(self):
        session = RenderSession("palace", baseline=None)
        session.run(n_views=2, jobs=2)
        assert not session.carrier._states
        assert session.carrier.stats["full_recomputes"] == 0


class TestServePaths:
    """Full hit / fallback, each against a fresh oracle."""

    def _fresh(self, pre, camera):
        return rasterize_splats(pre.splats, camera.width, camera.height)

    def test_full_hit_bit_identical(self, small_pre, small_camera):
        car = FrameCoherence()
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
        car = FrameCoherence()
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
        assert not car._states
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
            s_ir = rasterize_splats(pre.splats, cam.width, cam.height)
            s_legacy = rasterize_splats(pre.splats, cam.width, cam.height,
                                        ir="legacy")
            assert s_ir.frameir is not None
            assert s_legacy.frameir is None
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
        car = FrameCoherence()
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
        car = FrameCoherence()
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
        car = FrameCoherence()
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
        car = FrameCoherence()
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
        car = FrameCoherence()
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
        car = FrameCoherence()
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
        car = FrameCoherence()
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
        car = FrameCoherence()
        streams = []
        for _ in range(2):
            stream = rasterize_splats(small_pre.splats, w, h)
            car.begin_frame(stream)
            _digest(stream)
            GraphicsPipeline(config).draw(
                DrawWorkload.from_stream(stream, config))
            streams.append(stream)
        assert car.stats["full_hits"] == 1
        products = car._prev.products
        shared = {key: value for key, value in products.items()
                  if isinstance(value, np.ndarray)}
        assert "accumulated_alpha" in shared and len(shared) >= 2
        digest_key = ("flush_digest", dataclasses.astuple(config))
        digest = products[digest_key]
        for stream in streams:
            assert stream._cache[digest_key] is digest
            for key, value in shared.items():
                assert stream._cache[key] is value, key
            for value in list(shared.values()) + list(digest.arrays()):
                with pytest.raises((ValueError, RuntimeError)):
                    value[0:1] = 0

    def test_mutation_after_capture_does_not_poison_library(
            self, small_pre, small_camera):
        """Rebinding inputs after capture must not alter what later
        frames are served: the content hash keys the *digested* state."""
        w, h = small_camera.width, small_camera.height
        car = FrameCoherence()
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
    def test_interleaved_cache_and_coherence_hits(self, tmp_path):
        """Warm sessions interleaving disk-cache-hit runs with
        coherence-hit revisited viewpoints, bit-identical to cold
        recompute."""
        from repro.engine.cache import ResultCache

        cache = ResultCache(tmp_path / "traj")
        warm = RenderSession("lego", backend="hw:het+qm", baseline=None,
                             result_cache=cache, coherence="auto")
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
        stats = warm.carrier.stats
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
        car = FrameCoherence()
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

    def test_adopted_and_rederived_arrays_read_only(self, small_pre,
                                                    small_camera):
        """A sealed state keeps products only, frozen read-only, and a
        full hit adopts the very same arrays."""
        config = variant_config("het+qm")
        thr = round(config.termination_alpha, 9)
        lag = config.het_inflight_lag
        w, h = small_camera.width, small_camera.height
        car = FrameCoherence()
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
        digest_key = ("flush_digest", dataclasses.astuple(config))
        stats_key = draw_key(config, stream.prim_colors.shape[0])
        assert {"accumulated_alpha", "unpruned_count", ("et_count", thr),
                ("term_rank", thr), digest_key, stats_key} <= set(products)
        assert stream._cache[stats_key] is products[stats_key]
        # Nothing that only re-runs the arrival chain or the quad
        # reductions is kept, and no per-quad aggregate column: the
        # draw's digest replaces them.
        assert not {"pixel_order", "pix_sorted", "pixel_starts",
                    "alpha_eff_sorted", "arrival_sorted", "unpruned",
                    ("et_survivor", thr), ("unterminated", thr, lag),
                    ("het_blended", thr, lag), ("mask_et", thr, lag),
                    ("mask_unterminated", thr, lag)} & set(products)
        assert sealed.frameir._quads._slots is None
        digest = products[digest_key]
        assert isinstance(digest, FlushDigest)
        assert stream._cache[digest_key] is digest
        arrays = {key: value for key, value in products.items()
                  if isinstance(value, np.ndarray)}
        for key, value in arrays.items():
            assert stream._cache[key] is value, key
        for value in list(arrays.values()) + list(digest.arrays()):
            with pytest.raises(ValueError):
                value[0:1] = 0

    def test_sealed_quad_view_keeps_only_groups(self, deep_cloud):
        """A sealed state's quad view holds its group ranges and nothing
        else: no metadata column, no slot, no chunklet state (the row
        arrays it references are the FrameIR's own)."""
        config = variant_config("het+qm")
        car = FrameCoherence()
        _render_digest(car, deep_cloud, _orbit_camera(0.0), config)
        sealed = car._prev
        quads = sealed.frameir._quads
        assert quads._meta and quads._slots is not None
        _render_digest(car, deep_cloud, _orbit_camera(0.4), config)
        assert sealed.stream is None
        assert quads._meta == {} and quads._slots is None
        assert quads._chunk_state is None and quads._p_qy is None
        assert quads._slot_state is None
        ir = sealed.frameir
        rows = (ir.row_prim, ir.row_y, ir.row_xlo, ir.row_xhi,
                ir.row_fstart)
        assert ndarray_bytes(quads) == ndarray_bytes(quads.groups, rows)

    def test_served_stream_rebuilds_quad_columns_bit_identically(
            self, deep_pre, deep_camera):
        """A consumer the hit does not serve reads a quad table the
        sealed view rebuilds from its rows, equal to the oracle's."""
        config = variant_config("het+qm")
        w, h = deep_camera.width, deep_camera.height
        car = FrameCoherence()
        stream = _capture(car, deep_pre.splats, w, h)
        GraphicsPipeline(config).draw(DrawWorkload.from_stream(stream,
                                                               config))
        quads = stream.frameir._quads
        del stream
        served = car.serve(deep_pre.splats, w, h)
        assert served is not None and car.stats["full_hits"] == 1
        assert served.frameir._quads is quads
        assert quads._chunk_state is None and quads._slots is None
        oracle = rasterize_splats(deep_pre.splats, w, h)
        names = ("qx", "qpos", "mask_unpruned")
        for threshold, lag in ((config.termination_alpha,
                                config.het_inflight_lag), (0.5, 0)):
            want = oracle.quad_table(threshold, lag)
            got = served.quad_table(threshold, lag)
            _assert_bitwise({k: getattr(want, k) for k in names},
                            {k: getattr(got, k) for k in names})

    def test_baseline_draw_of_served_frames_matches_off(self):
        """Frames captured under HET+QM alone and then served to a
        trajectory with the ``hw:baseline`` comparison: the baseline draw
        has no digest to replay, so it plans on the sealed quad views
        (rebuilding their columns), cycle-exact with ``coherence="off"``."""
        cams = scene_viewpoints("palace", 2)
        on, off = (RenderSession("palace", backend="hw:het+qm",
                                 baseline="auto", coherence=mode)
                   for mode in ("auto", "off"))
        for cam in cams:
            on.render_frame(camera=cam)
        got = on.run(n_views=2)
        assert on.carrier.stats["full_hits"] == 2
        assert on.carrier._prev.frameir._quads._slots is not None
        want = off.run(n_views=2)
        assert all(r.baseline_cycles for r in want.records)
        assert ([r.to_dict() for r in got.records]
                == [r.to_dict() for r in want.records])

    def test_library_evicts_lru_first_by_bytes(self, deep_cloud):
        config = variant_config("het+qm")
        probe = FrameCoherence()
        for theta in (0.0, 0.2):
            _render_digest(probe, deep_cloud, _orbit_camera(theta), config)
        probe.begin_frame(rasterize_splats(
            preprocess(deep_cloud, _orbit_camera(0.0)).splats, 96, 96))
        sizes = [state.nbytes for state in probe._states.values()]
        # Room for two states of this scene, not three.
        budget = int(2.5 * max(sizes))
        assert 3 * min(sizes) > budget
        car = FrameCoherence(max_bytes=budget)
        keys = []
        for theta in (0.0, 0.2, 0.4, 0.2, 0.6):
            _render_digest(car, deep_cloud, _orbit_camera(theta), config)
            keys.append(next(reversed(car._states)))
            assert _library_bytes(car) - car._prev.nbytes <= budget
        # The next frame's begin seals 0.6 and trims the library.  0.0
        # went first; revisiting 0.2 made it most recent, so 0.4 went
        # next, and the library holds the two most recently used views
        # plus the new frame's live state.
        car.begin_frame(rasterize_splats(
            preprocess(deep_cloud, _orbit_camera(0.8)).splats, 96, 96))
        assert car.stats["full_hits"] == 1
        assert list(car._states)[:-1] == [keys[3], keys[4]]
        assert car._states[next(reversed(car._states))] is car._prev
        assert _library_bytes(car) - car._prev.nbytes <= budget

    def test_eight_view_lego_loop_stays_resident(self):
        """The default budget holds an 8-view lego sweep: the second lap
        is all full hits, and a sealed lego state stays compact."""
        session = RenderSession("lego", backend="hw:het+qm", baseline=None,
                                coherence="auto")
        first = session.run(n_views=8)
        car = session.carrier
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
                assert state.nbytes <= 8 * state.n, state.nbytes / state.n

    def test_sizes_cached_at_seal_equal_a_fresh_walk(self):
        """Each state is sized once per seal; at every frame start (when
        the library is trimmed) the cached sizes equal a fresh walk of
        the arrays the state holds."""
        session = RenderSession("lego", backend="hw:het+qm", baseline=None)
        car = session.carrier
        cams = scene_viewpoints("lego", 3)
        for cam in cams + cams + cams[:1]:
            session.render_frame(camera=cam)
            for state in car._states.values():
                if state is car._prev:
                    continue
                assert state._nbytes is not None
                assert state.nbytes == ndarray_bytes(
                    state.frameir, state.alphas, state.products,
                    state.splats)
        assert car.stats["full_hits"] == 4
        # The next frame start seals the last frame: every cached size,
        # and so the total the library is trimmed by, is fresh again.
        car.serve(preprocess(session.cloud, cams[1]).splats,
                  cams[1].width, cams[1].height)
        fresh = [ndarray_bytes(state.frameir, state.alphas, state.products,
                               state.splats)
                 for state in car._states.values()]
        assert [state.nbytes for state in car._states.values()] == fresh
        assert _library_bytes(car) == sum(fresh)


def _copy_splats(splats):
    return splats.subset(np.arange(len(splats)))


def _capture(car, splats, width, height):
    """One missed carrier frame, recorded with its splats."""
    assert car.serve(splats, width, height) is None
    stream = rasterize_splats(splats, width, height)
    car.begin_frame(stream, splats=splats)
    _digest(stream)
    return stream


def _assert_streams_identical(want, got):
    """Fragment arrays and raster structure bit for bit."""
    names = ("prim_ids", "x", "y", "alphas", "prim_colors")
    _assert_bitwise({name: getattr(want, name) for name in names},
                    {name: getattr(got, name) for name in names})
    assert (want.width, want.height) == (got.width, got.height)
    wir, gir = want.frameir, got.frameir
    assert wir.n_fragments == gir.n_fragments
    for name in ("row_prim", "row_y", "row_xlo", "row_xhi", "row_fstart"):
        assert np.array_equal(getattr(wir, name), getattr(gir, name)), name


class TestPreRasterServe:
    """:meth:`FrameCoherence.serve` answers a revisit from the frame's
    splats before rasterisation, and only on exact input equality."""

    @pytest.mark.parametrize("backend", ["hw:het+qm", "cuda+et"])
    def test_served_revisits_match_off_and_skip_the_rasterizer(
            self, backend, monkeypatch):
        from repro.engine import session as session_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return rasterize_splats(*args, **kwargs)

        monkeypatch.setattr(session_module, "rasterize_splats", counting)
        on = RenderSession("lego", backend=backend, baseline=None)
        off = RenderSession("lego", backend=backend, baseline=None,
                            coherence="off")
        first = on.run(n_views=3)
        assert len(calls) == 3
        second = on.run(n_views=3)
        assert len(calls) == 3  # every revisit was served
        assert on.carrier.stats["full_hits"] == 3
        oracle = off.run(n_views=3)
        assert len(calls) == 6
        for run in (first, second):
            assert ([r.to_dict() for r in run.records]
                    == [r.to_dict() for r in oracle.records])
        for cam in scene_viewpoints("lego", 3):
            got = on.render_frame(camera=cam)
            want = off.render_frame(camera=cam)
            assert got.cycles == want.cycles
            assert got.n_fragments == want.n_fragments
            assert np.array_equal(got.image.view(np.uint64),
                                  want.image.view(np.uint64))
            assert np.array_equal(got.alpha.view(np.uint64),
                                  want.alpha.view(np.uint64))
        assert len(calls) == 9
        assert on.carrier.stats["full_hits"] == 6

    def test_served_stream_is_the_raster(self, small_cloud, small_camera):
        away = Camera.look_at(eye=(0, 0, -3), target=(0, 0, -9),
                              width=64, height=64)
        for cam in (small_camera, away):
            car = FrameCoherence()
            pre = preprocess(small_cloud, cam)
            _capture(car, pre.splats, cam.width, cam.height)
            served = car.serve(pre.splats, cam.width, cam.height)
            assert served is not None
            assert car.stats["full_hits"] == 1
            assert not set(COORDINATES) & set(vars(served))
            oracle = rasterize_splats(pre.splats, cam.width, cam.height)
            _assert_streams_identical(oracle, served)
            assert set(COORDINATES) <= set(vars(served))
            _assert_bitwise(_digest(oracle), _digest(served))

    def test_one_ulp_change_to_each_verified_field_misses(self, small_pre,
                                                          small_camera):
        w, h = small_camera.width, small_camera.height
        car = FrameCoherence()
        _capture(car, small_pre.splats, w, h)
        live = car._prev
        for name in SPLAT_FIELDS:
            splats = _copy_splats(small_pre.splats)
            field = getattr(splats, name).reshape(-1)
            field[0] = np.nextafter(field[0], np.inf)
            assert car.serve(splats, w, h) is None, name
        exact = _copy_splats(small_pre.splats)
        assert car.serve(exact, w + 1, h) is None
        assert car.serve(exact, w, h + 1) is None
        # A miss seals the previous frame (it is finished once the next
        # one starts) and counts nothing; the sealed state stays keyed.
        assert live.stream is None and car._prev is None
        assert car._states[next(reversed(car._states))] is live
        assert live.splats is not None
        assert car.stats == {"full_hits": 0, "partial_hits": 0,
                             "full_recomputes": 0}
        # Depths are not a rasteriser input: the copy with other depths
        # is still this frame.
        exact.depths = exact.depths + 1.0
        assert car.serve(exact, w, h) is not None
        assert car.stats["full_hits"] == 1

    def test_mutating_splats_after_capture_never_serves_stale(
            self, small_pre, small_camera):
        w, h = small_camera.width, small_camera.height
        splats = _copy_splats(small_pre.splats)
        pristine = _copy_splats(small_pre.splats)
        car = FrameCoherence()
        _capture(car, splats, w, h)
        original = splats.opacities[3]
        # In-place writes to the caller's arrays change the inputs, so the
        # frame is no longer a hit ...
        splats.opacities[3] = original * 0.5
        assert car.serve(splats, w, h) is None
        # ... and leave the carrier's copy alone: the captured inputs are
        # still served their own raster.
        served = car.serve(pristine, w, h)
        assert served is not None
        _assert_streams_identical(rasterize_splats(pristine, w, h), served)
        car.begin_frame(rasterize_splats(splats, w, h), splats=splats)
        assert car.stats == {"full_hits": 1, "partial_hits": 0,
                             "full_recomputes": 1}
        # Whatever the caller writes, a serve is a miss or the raster of
        # the splats as they are now.  (Both versions share their rows,
        # and the library keeps both captures.)
        hits = []
        for value in (original * 0.5, original, original * 0.5):
            splats.opacities[3] = value
            served = car.serve(splats, w, h)
            if served is not None:
                _assert_streams_identical(rasterize_splats(splats, w, h),
                                          served)
                hits.append(value)
        assert hits == [original * 0.5, original, original * 0.5]
        # The served raster is shared with the library and read-only.
        for array in (served.alphas, served.frameir.row_xlo):
            with pytest.raises(ValueError):
                array[0:1] = 0

    def test_rebound_inputs_drop_the_splat_record(self, small_pre,
                                                  small_camera):
        w, h = small_camera.width, small_camera.height
        car = FrameCoherence()
        stream = _capture(car, small_pre.splats, w, h)
        state = car._prev
        stream.alphas = stream.alphas * np.float32(0.5)
        # The revisit seals the frame, which drops its record: a miss.
        assert car.serve(small_pre.splats, w, h) is None
        assert state.stream is None
        assert state.splats is None and state.products == {}
        # Only the post-raster check can serve that content now.
        car.begin_frame(rasterize_splats(small_pre.splats, w, h),
                        splats=small_pre.splats)
        assert car.stats["full_hits"] == 1
        assert car.serve(small_pre.splats, w, h) is None

    @pytest.mark.parametrize("entry", ["serve", "begin_frame"])
    def test_opacity_edit_loop_keeps_both_states(self, entry, deep_pre,
                                                 deep_camera):
        """A, B, A, B where B only changes opacities: both frames share
        their rows, so they collide on the row key; the library keeps
        both, and the revisits are full hits equal to the oracle."""
        w, h = deep_camera.width, deep_camera.height
        config = variant_config("het+qm")
        a = _copy_splats(deep_pre.splats)
        b = _copy_splats(deep_pre.splats)
        b.opacities[::3] *= np.float32(0.5)
        car = FrameCoherence()
        hits = []
        for splats in (a, b, a, b):
            before = car.stats["full_hits"]
            stream = (car.serve(splats, w, h) if entry == "serve"
                      else None)
            if stream is None:
                stream = rasterize_splats(splats, w, h)
                car.begin_frame(stream,
                                splats=splats if entry == "serve" else None)
            hits.append(car.stats["full_hits"] - before)
            oracle = rasterize_splats(splats, w, h)  # coherence="off"
            _assert_bitwise(_digest(oracle), _digest(stream))
            _assert_draws_identical(oracle, stream, config)
        ra, rb = rasterize_splats(a, w, h), rasterize_splats(b, w, h)
        assert np.array_equal(ra.frameir.row_xlo, rb.frameir.row_xlo)
        assert not np.array_equal(ra.alphas, rb.alphas)
        assert hits == [0, 0, 1, 1]
        assert car.stats == {"full_hits": 2, "partial_hits": 0,
                             "full_recomputes": 1}
        assert len(car._states) == 2


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
        car = FrameCoherence()
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
                                coherence="auto")
        for cam in cams:
            session.render_frame(camera=cam)
        car = session.carrier
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


def _assert_stats_equal(a, b):
    """Every unit counter and every scalar stat exactly equal."""
    for name in a.units:
        assert a.units[name].items == b.units[name].items, name
        assert a.units[name].busy_cycles == b.units[name].busy_cycles, name
    for attr, value in vars(a).items():
        if attr != "units":
            assert value == getattr(b, attr), attr


class TestFlushDigestServing:
    """A full hit serves a traced batched draw its flush digest: no
    schedule is planned, no per-quad column is read, and the stateful
    replay keeps every stat, trace event and cache state exact."""

    def _hit_stream(self, car, pre, cam, configs):
        """Digest and draw one frame under ``configs``, then return the
        stream of an identical frame the carrier full-hits."""
        stream = rasterize_splats(pre.splats, cam.width, cam.height)
        car.begin_frame(stream)
        for config in configs:
            GraphicsPipeline(config).draw(
                DrawWorkload.from_stream(stream, config))
        stream = rasterize_splats(pre.splats, cam.width, cam.height)
        car.begin_frame(stream)
        assert car.stats["full_hits"] == 1
        return stream

    def test_hit_plans_nothing_and_reads_no_column(self, monkeypatch,
                                                   deep_cloud):
        from repro.hwmodel import pipeline
        from repro.render import fragstream

        config = variant_config("het+qm")
        cam = _orbit_camera(0.0)
        pre = preprocess(deep_cloud, cam)
        car = FrameCoherence()
        stream = self._hit_stream(car, pre, cam, [config])
        plans, columns = [], []

        def counting_plan(*args, **kwargs):
            plans.append(1)
            return build_flush_plan(*args, **kwargs)

        def counting_column(builder, name):
            if name in fragstream.QuadTable._LAZY_COLUMNS:
                columns.append(name)
            return column(builder, name)

        build_flush_plan = pipeline.build_flush_plan
        column = fragstream._IRQuadColumnBuilder.column
        monkeypatch.setattr(pipeline, "build_flush_plan", counting_plan)
        monkeypatch.setattr(fragstream._IRQuadColumnBuilder, "column",
                            counting_column)
        # Traced, so the draw replays the digest rather than returning
        # the memoized stats.
        got = GraphicsPipeline(config).draw(
            DrawWorkload.from_stream(stream, config), trace=DrawTrace())
        assert plans == [] and columns == []
        oracle = rasterize_splats(pre.splats, cam.width, cam.height)
        want = GraphicsPipeline(config).draw(
            DrawWorkload.from_stream(oracle, config))
        # The counters are live: a cold stream plans and reads columns.
        assert plans == [1] and columns
        _assert_stats_equal(got.stats, want.stats)

    @pytest.mark.parametrize("variant", ["baseline", "qm", "het", "het+qm"])
    def test_hit_draw_and_trace_match_coherence_off(self, deep_cloud,
                                                    variant):
        config = variant_config(variant)
        cam = _orbit_camera(0.3)
        pre = preprocess(deep_cloud, cam)
        stream = self._hit_stream(FrameCoherence(), pre, cam,
                                  [config])
        oracle = rasterize_splats(pre.splats, cam.width, cam.height)
        draws = []
        for s in (stream, oracle):
            trace = DrawTrace()
            draws.append((GraphicsPipeline(config).draw(
                DrawWorkload.from_stream(s, config), trace=trace), trace))
        (got, got_trace), (want, want_trace) = draws
        _assert_stats_equal(got.stats, want.stats)
        assert len(got_trace) == len(want_trace) > 0
        assert ([e.as_row() for e in got_trace.events]
                == [e.as_row() for e in want_trace.events])

    def test_one_stream_two_configs_two_digests(self, deep_cloud):
        configs = [variant_config("het+qm"), variant_config("baseline")]
        cam = _orbit_camera(0.6)
        pre = preprocess(deep_cloud, cam)
        stream = self._hit_stream(FrameCoherence(), pre, cam,
                                  configs)
        digests = {key for key in stream._cache
                   if isinstance(key, tuple) and key[0] == "flush_digest"}
        assert digests == {("flush_digest", dataclasses.astuple(config))
                           for config in configs}
        for config in configs:
            oracle = rasterize_splats(pre.splats, cam.width, cam.height)
            got = GraphicsPipeline(config).draw(
                DrawWorkload.from_stream(stream, config))
            want = GraphicsPipeline(config).draw(
                DrawWorkload.from_stream(oracle, config), engine="scalar")
            _assert_stats_equal(got.stats, want.stats)

    def test_workload_of_another_config_is_not_memoized(self, deep_pre,
                                                        deep_camera):
        """A digest depends on the workload's quad table as well as the
        pipeline config, so a workload built under one config and drawn
        under another plans afresh and leaves the stream cache alone."""
        stream = rasterize_splats(deep_pre.splats, deep_camera.width,
                                  deep_camera.height)
        workload = DrawWorkload.from_stream(stream, variant_config("het"))
        config = variant_config("het+qm")
        pipe = GraphicsPipeline(config)
        got = pipe.draw(workload)
        assert not any(isinstance(key, tuple) and key[0] == "flush_digest"
                       for key in stream._cache)
        _assert_stats_equal(got.stats,
                            pipe.draw(workload, engine="scalar").stats)


def _count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (a module function or a method)."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _draw_stats_keys(stream):
    return {key for key in stream._cache
            if isinstance(key, tuple) and key[0] == "draw_stats"}


class TestDrawMemo:
    """An untraced batched cold-cache draw of a stream's own workload is
    memoized with the stream (and kept by the carrier); a verified full
    hit returns a copy of it and runs no unit."""

    def test_revisit_replays_nothing_and_expands_no_coordinate(
            self, monkeypatch):
        from repro.hwmodel import pipeline
        from repro.render import frameir

        cams = scene_viewpoints("palace", 2)
        on, off = (RenderSession("palace", backend="hw:het+qm",
                                 baseline=None, coherence=mode)
                   for mode in ("auto", "off"))
        for cam in cams:
            on.render_frame(camera=cam)

        def forbidden(*args, **kwargs):
            raise AssertionError("a verified full hit ran this")

        monkeypatch.setattr(pipeline, "replay_flushes", forbidden)
        monkeypatch.setattr(frameir, "row_fragments", forbidden)
        got = [on.render_frame(camera=cam) for cam in cams]
        assert on.carrier.stats["full_hits"] == len(cams)
        monkeypatch.undo()
        for frame, cam in zip(got, cams):
            assert not set(COORDINATES) & set(vars(frame.raw.stream))
            want = off.render_frame(camera=cam)
            assert ((frame.cycles, frame.ms, frame.fps, frame.et_ratio,
                     frame.n_fragments, frame.kernels)
                    == (want.cycles, want.ms, want.fps, want.et_ratio,
                        want.n_fragments, want.kernels))
            _assert_stats_equal(frame.pipeline_stats, want.pipeline_stats)

    def test_mutated_stats_do_not_reach_the_next_draw(self, deep_pre,
                                                      deep_camera):
        config = variant_config("het+qm")
        w, h = deep_camera.width, deep_camera.height
        car = FrameCoherence()
        stream = _capture(car, deep_pre.splats, w, h)
        first = GraphicsPipeline(config).draw(stream)
        first.stats.total_cycles = -1.0
        first.stats.units["crop"].add(5, 7.0)
        served = car.serve(deep_pre.splats, w, h)
        assert served is not None and car.stats["full_hits"] == 1
        got = GraphicsPipeline(config).draw(served)
        got.stats.fragments_blended += 1
        again = GraphicsPipeline(config).draw(served)
        oracle = rasterize_splats(deep_pre.splats, w, h)
        want = GraphicsPipeline(config).draw(oracle, engine="scalar")
        _assert_stats_equal(again.stats, want.stats)
        assert again.stats is not got.stats

    def test_unmemoized_draws_simulate_and_leave_no_key(
            self, monkeypatch, deep_pre, deep_camera):
        """Scalar, traced and warm-cache draws, and a workload built under
        another config, always simulate: they neither read a memoized
        draw nor leave one behind."""
        config = variant_config("het+qm")
        w, h = deep_camera.width, deep_camera.height
        simulated = _count_calls(monkeypatch, GraphicsPipeline, "_simulate")
        replays = _count_calls(monkeypatch, GraphicsPipeline,
                               "_draw_batched")

        def draws(stream):
            pipe = GraphicsPipeline(config)
            cache = LRUCache(config.crop_cache_kb * 1024,
                             config.cache_line_bytes)
            return [
                pipe.draw(DrawWorkload.from_stream(stream, config),
                          engine="scalar"),
                pipe.draw(DrawWorkload.from_stream(stream, config),
                          trace=DrawTrace()),
                pipe.draw(DrawWorkload.from_stream(stream, config),
                          crop_cache=cache),
                pipe.draw(DrawWorkload.from_stream(
                    stream, variant_config("het"))),
            ]

        stream = rasterize_splats(deep_pre.splats, w, h)
        want = [result.stats for result in draws(stream)]
        assert len(simulated) == 4 and len(replays) == 3
        assert not _draw_stats_keys(stream)
        # With a memoized draw present they still simulate, identically.
        memoized = GraphicsPipeline(config).draw(stream)
        assert len(simulated) == 5 and len(_draw_stats_keys(stream)) == 1
        for got, stats in zip(draws(stream), want):
            _assert_stats_equal(got.stats, stats)
        assert len(simulated) == 9 and len(replays) == 7
        _assert_stats_equal(memoized.stats, want[0])

    def test_hit_with_other_primitive_count_redraws(self, deep_pre,
                                                    deep_camera):
        """A post-raster hit verifies rows and alphas, not the splat count
        the vertex stage processes: a frame with an extra splat that
        covers no pixel hits the carrier but not the memoized draw."""
        config = variant_config("het+qm")
        w, h = deep_camera.width, deep_camera.height
        car = FrameCoherence()
        stream = rasterize_splats(deep_pre.splats, w, h)
        car.begin_frame(stream)
        GraphicsPipeline(config).draw(stream)
        raster = rasterize_splats(deep_pre.splats, w, h)
        extra = FragmentStream(
            raster.prim_ids, raster.x, raster.y, raster.alphas,
            np.vstack((raster.prim_colors, raster.prim_colors[:1])),
            w, h, frameir=raster.frameir)
        car.begin_frame(extra)
        assert car.stats["full_hits"] == 1
        got = GraphicsPipeline(config).draw(extra)
        want = GraphicsPipeline(config).draw(extra, engine="scalar")
        _assert_stats_equal(got.stats, want.stats)
        assert got.stats.n_prims == stream.prim_colors.shape[0] + 1
        assert len(_draw_stats_keys(extra)) == 2


class TestLazyCoordinates:
    """A served stream expands its coordinates from the FrameIR rows on
    first read, never for its size, and keeps a rebound array."""

    def test_size_reads_expand_nothing(self, small_pre, small_camera):
        w, h = small_camera.width, small_camera.height
        car = FrameCoherence()
        want = _capture(car, small_pre.splats, w, h)
        served = car.serve(small_pre.splats, w, h)
        assert len(served) == served.n_fragments == len(want)
        assert not set(COORDINATES) & set(vars(served))
        _ = served.y
        assert set(COORDINATES) <= set(vars(served))
        assert car._prev.nbytes == ndarray_bytes(
            car._prev.frameir, car._prev.alphas, car._prev.products,
            car._prev.splats)

    def test_rebound_array_stays_rebound(self, small_pre, small_camera):
        w, h = small_camera.width, small_camera.height
        car = FrameCoherence()
        want = _capture(car, small_pre.splats, w, h)
        served = car.serve(small_pre.splats, w, h)
        shifted = want.x + np.int32(1)
        served.x = shifted
        assert np.array_equal(served.prim_ids, want.prim_ids)
        assert served.x is shifted
        assert np.array_equal(served.y, want.y)

    def test_deferring_needs_a_frameir_and_all_three(self, small_stream):
        s = small_stream
        with pytest.raises(ValueError, match="defer"):
            FragmentStream(None, None, None, s.alphas, s.prim_colors,
                           s.width, s.height)
        with pytest.raises(ValueError, match="defer"):
            FragmentStream(None, s.x, None, s.alphas, s.prim_colors,
                           s.width, s.height, frameir=s.frameir)
        with pytest.raises(ValueError, match="alphas"):
            FragmentStream(None, None, None, s.alphas[1:], s.prim_colors,
                           s.width, s.height, frameir=s.frameir)
        with pytest.raises(ValueError, match="colours"):
            FragmentStream(None, None, None, s.alphas, s.prim_colors[:1],
                           s.width, s.height, frameir=s.frameir)


class TestFrameRelease:
    def test_stream_freed_without_cyclic_gc(self):
        """A frame's stream is freed by refcounting alone once the next
        frame has rendered and its result is dropped."""
        session = RenderSession("palace", backend="hw:het+qm",
                                baseline=None, coherence="auto")
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

    def test_missed_serve_frees_the_previous_stream(self):
        """A missed :meth:`~FrameCoherence.serve` seals the previous frame
        before the next raster allocates: once the caller has dropped the
        frame's result, its stream is freed by refcounting alone."""
        session = RenderSession("palace", backend="hw:het+qm",
                                baseline=None, coherence="auto")
        cams = scene_viewpoints("palace", 2)
        pre = preprocess(session.cloud, cams[1])
        gc.collect()
        gc.disable()
        try:
            result = session.render_frame(camera=cams[0])
            ref = weakref.ref(result.raw.stream)
            del result
            assert ref() is not None  # the carrier holds the live frame
            assert session.carrier.serve(pre.splats, cams[1].width,
                                         cams[1].height) is None
            assert ref() is None
        finally:
            gc.enable()

    def test_carrier_freed_with_its_session_without_cyclic_gc(self):
        """A dropped session frees its carrier (and library) by
        refcounting, while the carrier still holds its last frame's
        stream."""
        session = RenderSession("palace", backend="hw:het+qm",
                                baseline=None, coherence="auto")
        gc.collect()
        gc.disable()
        try:
            session.render_frame(camera=scene_viewpoints("palace", 1)[0])
            carrier = weakref.ref(session.carrier)
            assert carrier()._prev.stream is not None
            del session
            assert carrier() is None
        finally:
            gc.enable()
