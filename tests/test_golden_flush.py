"""Golden flush-engine tests: batched vs scalar must agree bit-for-bit.

The batched flush-plan engine (:mod:`repro.hwmodel.flushplan`) replaces
~tens of thousands of per-flush Python calls with vectorised segment math
and exact-LRU cache replays.  These tests pin its contract: on real catalog
scenes, across all four hardware variants, every cycle count, every stat
counter, and every trace event must equal the retained scalar path exactly
— including draws with a warm shared CROP cache and with the TC timeout
rule enabled.
"""

import numpy as np
import pytest

from repro.core.vrpipe import VARIANTS, variant_config
from repro.gaussians.preprocess import preprocess
from repro.hwmodel.caches import LRUCache
from repro.hwmodel.config import rtx_3090
from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline
from repro.hwmodel.stats import UNIT_NAMES
from repro.hwmodel.trace import DrawTrace
from repro.render.fragstream import FragmentStream
from repro.render.splat_raster import rasterize_splats
from repro.workloads.catalog import build_scene, get_profile

SCENES = ("lego", "palace")

#: Every scene runs on both digestion paths, keyed by their test-id
#: label: a stream carrying a FrameIR (``ir="auto"``) and a bare stream
#: (``ir="legacy"``, the sort-based oracle) must drive bit-identical
#: flush schedules.
DIGESTION_PATHS = {"frameir": "auto", "legacy": "legacy"}


@pytest.fixture(scope="module",
                params=[(scene, path) for scene in SCENES
                        for path in DIGESTION_PATHS],
                ids=lambda p: f"{p[0]}-{p[1]}")
def scene_stream(request):
    scene, path = request.param
    profile = get_profile(scene)
    cloud = build_scene(profile, seed=0)
    camera = profile.camera()
    pre = preprocess(cloud, camera)
    return rasterize_splats(pre.splats, camera.width, camera.height,
                            ir=DIGESTION_PATHS[path])


def assert_stats_identical(a, b):
    """Every unit counter and every scalar stat must be exactly equal."""
    for name in UNIT_NAMES:
        assert a.units[name].items == b.units[name].items, name
        assert a.units[name].busy_cycles == b.units[name].busy_cycles, name
    for attr, value in vars(a).items():
        if attr == "units":
            continue
        assert value == getattr(b, attr), attr


def assert_traces_identical(a, b):
    assert len(a) == len(b)
    for ea, eb in zip(a.events, b.events):
        assert ea.as_row() == eb.as_row()


def draw_both_engines(stream, config, caches=(None, None)):
    """Draw with both engines; returns (batched, scalar) results + traces.

    Counts the calls of ``GraphicsPipeline._draw_scalar`` to prove that
    the scalar draw ran the per-flush path and the batched draw did not,
    so no pin can compare the batched engine with itself.
    """
    workload = DrawWorkload.from_stream(stream, config)
    trace_batched, trace_scalar = DrawTrace(), DrawTrace()
    scalar_draws = []
    draw_scalar = GraphicsPipeline._draw_scalar

    def counting_draw_scalar(self, *args):
        scalar_draws.append(self)
        return draw_scalar(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GraphicsPipeline, "_draw_scalar", counting_draw_scalar)
        batched = GraphicsPipeline(config).draw(
            workload, crop_cache=caches[0], trace=trace_batched,
            engine="batched")
        assert scalar_draws == []
        scalar = GraphicsPipeline(config).draw(
            workload, crop_cache=caches[1], trace=trace_scalar,
            engine="scalar")
        assert len(scalar_draws) == 1
    return batched, scalar, trace_batched, trace_scalar


class TestGoldenEquivalence:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_engines_identical(self, scene_stream, variant):
        cfg = variant_config(variant)
        batched, scalar, ta, tb = draw_both_engines(scene_stream, cfg)
        assert batched.cycles == scalar.cycles
        assert_stats_identical(batched.stats, scalar.stats)
        assert_traces_identical(ta, tb)
        # The draw actually exercised the flush machinery.
        assert batched.stats.tc_flushes() > 0
        assert len(ta) == batched.stats.tc_flushes()

    def test_qm_without_tgc(self, scene_stream):
        """The QM ablation (QRU pairing in raw draw order) is also exact."""
        cfg = variant_config("qm", qm_use_tgc=False)
        batched, scalar, ta, tb = draw_both_engines(scene_stream, cfg)
        assert_stats_identical(batched.stats, scalar.stats)
        assert_traces_identical(ta, tb)
        assert batched.stats.tgc_flush_full == 0

    def test_rgba8_format(self, scene_stream):
        """RGBA8 halves the CROP line footprint; the replay must follow."""
        cfg = variant_config("het+qm", color_format="rgba8")
        batched, scalar, *_ = draw_both_engines(scene_stream, cfg)
        assert_stats_identical(batched.stats, scalar.stats)

    def test_lines_narrower_than_a_tile(self, scene_stream):
        """A 64 B line holds 8 RGBA16F pixels, half a screen-tile row, so
        the digest dedups CROP tags by sorting instead of by quad row."""
        cfg = variant_config("het+qm", cache_line_bytes=64)
        batched, scalar, ta, tb = draw_both_engines(scene_stream, cfg)
        assert batched.cycles == scalar.cycles
        assert_stats_identical(batched.stats, scalar.stats)

    def test_inexact_unit_throughputs(self, scene_stream):
        """The Orin preset's TC, PROP, ZROP and SM rates are powers of two,
        so per-flush cycle costs are exact binary fractions and any
        summation order gives the same total.  The RTX 3090 preset's rates
        (56, 15.4, 14 quads and 328 issue slots per cycle) are not: a
        pairwise float sum in the batched accounting lands on other bits
        than the scalar engine's one-add-per-flush loop."""
        cfg = variant_config("het+qm", device=rtx_3090())
        batched, scalar, *_ = draw_both_engines(scene_stream, cfg)
        assert batched.cycles == scalar.cycles
        assert_stats_identical(batched.stats, scalar.stats)


class TestWarmCropCache:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_draws_share_cache(self, scene_stream, variant):
        """Warm shared-CROP-cache draws stay exact per draw on every
        variant, and both engines leave the shared cache in the identical
        state (contents, LRU order and dirty bits), so the handoff from
        one draw to the next is exact too."""
        cfg = variant_config(variant)
        cache_batched = LRUCache(cfg.crop_cache_kb * 1024,
                                 cfg.cache_line_bytes)
        cache_scalar = LRUCache(cfg.crop_cache_kb * 1024,
                                cfg.cache_line_bytes)
        for _ in range(2):
            batched, scalar, ta, tb = draw_both_engines(
                scene_stream, cfg, caches=(cache_batched, cache_scalar))
            assert_stats_identical(batched.stats, scalar.stats)
            assert_traces_identical(ta, tb)
        assert (list(cache_batched._lines.items())
                == list(cache_scalar._lines.items()))
        assert batched.stats.crop_cache_hits > 0


class TestTimeoutRule:
    def test_timeout_flushes_counted_separately(self, scene_stream):
        cfg = variant_config("het+qm", tc_timeout_quads=64)
        batched, scalar, ta, tb = draw_both_engines(scene_stream, cfg)
        assert_stats_identical(batched.stats, scalar.stats)
        assert_traces_identical(ta, tb)
        stats = batched.stats
        assert stats.tc_flush_timeout > 0
        # The trace's per-cause counts must match the stat split exactly:
        # timeouts are no longer folded into the end-of-draw count.
        reasons = ta.reasons()
        assert stats.tc_flush_timeout == reasons.get("timeout", 0)
        assert stats.tc_flush_final == reasons.get("final", 0)
        assert stats.tc_flushes() == len(ta)


class TestDegenerateDraws:
    def test_empty_stream(self):
        stream = FragmentStream(
            np.empty(0, np.int32), np.empty(0, np.int32),
            np.empty(0, np.int32), np.empty(0, np.float32),
            np.zeros((0, 3)), 32, 32)
        cfg = variant_config("het+qm")
        batched, scalar, ta, tb = draw_both_engines(stream, cfg)
        assert_stats_identical(batched.stats, scalar.stats)
        assert len(ta) == len(tb) == 0

    def test_odd_zcache_size_uses_line_replay(self, scene_stream):
        """A z-cache that holds a fractional number of tile groups forces
        the line-granular replay fallback; it must stay exact too."""
        cfg = variant_config("het", zcache_kb=3)
        batched, scalar, *_ = draw_both_engines(scene_stream, cfg)
        assert_stats_identical(batched.stats, scalar.stats)

    def test_unknown_engine_rejected(self, scene_stream):
        cfg = variant_config("baseline")
        workload = DrawWorkload.from_stream(scene_stream, cfg)
        with pytest.raises(ValueError, match="engine"):
            GraphicsPipeline(cfg).draw(workload, engine="warp")
