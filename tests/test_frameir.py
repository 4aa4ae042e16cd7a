"""Fuzz/property tests: FrameIR digestion vs the legacy sort-based oracle.

The FrameIR path (:mod:`repro.render.frameir`) derives the quad table, the
(prim, tile) group ranges and the (prim, grid) pair structures from the
rasteriser's row intervals with no fragment-level sort; the legacy path —
a stream rasterised with ``ir="legacy"``, which carries no FrameIR —
re-sorts the fragment stream.  Each test digests both streams of the same
splats (their fragment arrays are bit-identical).  Both must
agree **bit for bit** on every observable: every quad-table column (meta
and aggregates, for every threshold/lag in use), the group and pair
structures the flush planner iterates, the HET termination sets, and the
simulated draws themselves.  Random splat scenes plus the library's five
digestion regimes — empty, single-pixel, max_fragments-clamped,
HET-terminated, warm handoff — pin the equivalence the same way the
scalar-oracle fuzz suites de-risked the LRU and flush engines.
"""

import zlib

import numpy as np
import pytest

from repro.core.vrpipe import variant_config
from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.preprocess import preprocess
from repro.gaussians.projection import project_gaussians
from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline
from repro.render.fragstream import PRUNE_EPS, FragmentStream
from repro.render.frameir import FrameIR, resolve_ir
from repro.render.splat_raster import rasterize_splats

TABLE_COLUMNS = (
    "prim_ids", "qx", "qy", "tile_ids", "grid_ids", "qpos",
    "n_fragments", "n_unpruned", "n_et_blended", "n_unterminated",
    "mask_unpruned", "mask_et", "mask_unterminated",
)

GROUP_COLUMNS = (
    "group_starts", "group_ends", "group_prim", "group_tile", "group_grid",
    "group_n_quads", "group_n_rtiles",
)


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


def assert_tables_identical(table_ir, table_legacy):
    assert len(table_ir) == len(table_legacy)
    for name in TABLE_COLUMNS:
        a, b = getattr(table_ir, name), getattr(table_legacy, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def assert_workloads_identical(wl_ir, wl_legacy):
    for name in GROUP_COLUMNS:
        np.testing.assert_array_equal(getattr(wl_ir, name),
                                      getattr(wl_legacy, name), err_msg=name)
    assert wl_ir.prim_group_ranges == wl_legacy.prim_group_ranges
    # (prim, grid) pair structures the TGC flush planner consumes.
    np.testing.assert_array_equal(wl_ir.pair_prim, wl_legacy.pair_prim)
    np.testing.assert_array_equal(wl_ir.pair_grid, wl_legacy.pair_grid)
    # Termination sets (HET stencil updates).
    assert wl_ir.n_terminated_pixels == wl_legacy.n_terminated_pixels
    np.testing.assert_array_equal(wl_ir.terminated_stencil_tags,
                                  wl_legacy.terminated_stencil_tags)


def assert_blends_identical(pair, threshold=0.996):
    """Both paths share one arrival chain: the per-fragment arrival
    alphas, the per-pixel accumulated alpha and both blends (with and
    without early termination) agree bit for bit."""
    def assert_bits_equal(a, b, name):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        kind = f"u{a.dtype.itemsize}"
        np.testing.assert_array_equal(np.ascontiguousarray(a).view(kind),
                                      np.ascontiguousarray(b).view(kind),
                                      err_msg=name)

    ir_stream, bare = pair
    for name in ("arrival_alpha", "accumulated_alpha"):
        assert_bits_equal(getattr(ir_stream, name), getattr(bare, name), name)
    for early_term in (False, True):
        for part, a, b in zip(
                ("image", "alpha"),
                ir_stream.blend_image(early_term, threshold),
                bare.blend_image(early_term, threshold)):
            assert_bits_equal(a, b, f"{part} early_term={early_term}")


def stream_pair(splats, width, height, **kwargs):
    """The same splats rasterised onto both digestion paths: a stream
    carrying a FrameIR and a bare one (bit-identical fragment arrays)."""
    return (rasterize_splats(splats, width, height, **kwargs),
            rasterize_splats(splats, width, height, ir="legacy", **kwargs))


def both_tables(pair, threshold, lag):
    return tuple(stream.quad_table(threshold, lag) for stream in pair)


def both_workloads(pair, config):
    return tuple(DrawWorkload.from_stream(stream, config) for stream in pair)


class TestFrameIRFuzz:
    def test_random_scenes_match_oracle(self):
        rng = np.random.default_rng(fuzz_seed("frameir"))
        for trial in range(8):
            n = int(rng.integers(20, 220))
            cloud = random_cloud(rng, n)
            cam = camera()
            pre = preprocess(cloud, cam)
            pair = stream_pair(pre.splats, cam.width, cam.height)
            if len(pair[0]) == 0:
                continue
            for threshold, lag in ((0.996, 0), (0.996, 2), (0.9, 1)):
                assert_tables_identical(*both_tables(pair, threshold, lag))
            assert_blends_identical(pair)

    def test_random_workloads_match_oracle(self):
        rng = np.random.default_rng(fuzz_seed("frameir-wl"))
        for trial in range(5):
            cloud = random_cloud(rng, int(rng.integers(30, 160)),
                                 opacity_low=0.5)
            cam = camera()
            pre = preprocess(cloud, cam)
            pair = stream_pair(pre.splats, cam.width, cam.height)
            for variant in ("baseline", "het+qm"):
                cfg = variant_config(variant)
                assert_workloads_identical(*both_workloads(pair, cfg))
            assert_blends_identical(pair)

    def test_random_draws_cycle_exact(self):
        """IR-digested and legacy-digested workloads simulate identically."""
        rng = np.random.default_rng(fuzz_seed("frameir-draw"))
        cloud = random_cloud(rng, 120, opacity_low=0.4)
        cam = camera()
        pre = preprocess(cloud, cam)
        pair = stream_pair(pre.splats, cam.width, cam.height)
        for variant in ("baseline", "qm", "het", "het+qm"):
            cfg = variant_config(variant)
            wl_ir, wl_legacy = both_workloads(pair, cfg)
            res_ir = GraphicsPipeline(cfg).draw(wl_ir)
            res_legacy = GraphicsPipeline(cfg).draw(wl_legacy)
            assert res_ir.cycles == res_legacy.cycles, variant
            for unit, stats in res_ir.stats.units.items():
                assert stats.items == res_legacy.stats.units[unit].items
                assert (stats.busy_cycles
                        == res_legacy.stats.units[unit].busy_cycles)
        assert_blends_identical(pair)


class TestDigestionRegimes:
    """The five stream regimes of the digestion oracle contract."""

    def test_empty_stream(self):
        cam = camera()
        splats = project_gaussians(
            random_cloud(np.random.default_rng(0), 4), cam).subset(
                np.array([], dtype=int))
        pair = stream_pair(splats, cam.width, cam.height)
        assert len(pair[0]) == 0
        assert isinstance(pair[0].frameir, FrameIR)
        assert_tables_identical(*both_tables(pair, 0.996, 0))
        cfg = variant_config("het+qm")
        assert_workloads_identical(*both_workloads(pair, cfg))
        assert_blends_identical(pair)
        # An empty frame blends to float zeros, like any other frame.
        for stream in pair:
            assert stream.accumulated_alpha.dtype == np.float64
            for early_term in (False, True):
                image, alpha = stream.blend_image(early_term, 0.996)
                assert image.dtype == alpha.dtype == np.float64
                assert not image.any() and not alpha.any()

    def test_single_pixel_splats(self):
        """Subpixel splats: every primitive covers exactly one pixel, so
        every quad holds single-fragment scanline spans."""
        rng = np.random.default_rng(fuzz_seed("single-pixel"))
        cloud = random_cloud(rng, 90, scale_low=0.0015, scale_high=0.003,
                             opacity_low=0.6)
        cam = camera()
        pre = preprocess(cloud, cam)
        pair = stream_pair(pre.splats, cam.width, cam.height)
        assert len(pair[0]) > 0
        counts = np.bincount(pair[0].prim_ids)
        # Subpixel splats: floor/ceil bound snapping caps coverage at a
        # 4x4 pixel neighbourhood per primitive.
        assert counts.max() <= 16
        assert_tables_identical(*both_tables(pair, 0.996, 2))
        cfg = variant_config("het+qm")
        assert_workloads_identical(*both_workloads(pair, cfg))
        assert_blends_identical(pair)

    def test_max_fragments_clamped(self):
        """At the max_fragments guard boundary the IR still rides along
        and digests identically (one below, both paths raise)."""
        rng = np.random.default_rng(fuzz_seed("clamp"))
        cloud = random_cloud(rng, 40, scale_low=0.05, scale_high=0.4)
        cam = camera()
        pre = preprocess(cloud, cam)
        total = len(rasterize_splats(pre.splats, cam.width, cam.height))
        assert total > 0
        pair = stream_pair(pre.splats, cam.width, cam.height,
                           max_fragments=total)
        assert isinstance(pair[0].frameir, FrameIR)
        with pytest.raises(MemoryError):
            rasterize_splats(pre.splats, cam.width, cam.height,
                             max_fragments=total - 1)
        assert_tables_identical(*both_tables(pair, 0.996, 0))
        cfg = variant_config("baseline")
        assert_workloads_identical(*both_workloads(pair, cfg))
        assert_blends_identical(pair)

    def test_het_terminated(self, deep_cloud, deep_camera):
        """Depth-stacked opaque layers saturate pixels: the termination
        sets are non-trivial and must match exactly."""
        pre = preprocess(deep_cloud, deep_camera)
        pair = stream_pair(pre.splats, deep_camera.width, deep_camera.height)
        cfg = variant_config("het+qm")
        wl_ir, wl_legacy = both_workloads(pair, cfg)
        assert wl_ir.n_terminated_pixels > 0
        assert wl_ir.terminated_stencil_tags.size > 0
        assert_workloads_identical(wl_ir, wl_legacy)
        assert_tables_identical(*both_tables(
            pair, cfg.termination_alpha, cfg.het_inflight_lag))
        assert_blends_identical(pair, cfg.termination_alpha)

    def test_warm_handoff(self):
        """On either path, a stream whose shared pixel-sort/arrival caches
        an earlier consumer warmed digests exactly like a cold one, and
        the table is cached once per (threshold, lag)."""
        rng = np.random.default_rng(fuzz_seed("warm"))
        cloud = random_cloud(rng, 80, opacity_low=0.55)
        cam = camera()
        pre = preprocess(cloud, cam)
        cfg = variant_config("het+qm")

        cold = both_workloads(stream_pair(pre.splats, cam.width, cam.height),
                              cfg)
        warm_pair = stream_pair(pre.splats, cam.width, cam.height)
        for stream in warm_pair:
            stream.termination_ratio(cfg.termination_alpha)
        warm = both_workloads(warm_pair, cfg)
        for wl_cold, wl_warm in zip(cold, warm):
            assert_workloads_identical(wl_warm, wl_cold)
            assert_tables_identical(wl_warm.quads, wl_cold.quads)
        assert_workloads_identical(*warm)
        assert_blends_identical(warm_pair)
        for stream, workload in zip(warm_pair, warm):
            assert (stream.quad_table(cfg.termination_alpha,
                                      cfg.het_inflight_lag)
                    is workload.quads)


def row_stream_pair(rng, n_prims, width=40, height=36, max_rows=9,
                    max_span=14):
    """A hand-built IR stream and the same fragments as a bare stream.

    Every primitive covers one random pixel interval on each of a run of
    consecutive scanlines (the rasteriser's row contract: prim-major,
    scanlines ascending, fragments contiguous per row).  Alphas mix
    pruned fragments (below 1/255), faint ones that leave pixels
    unterminated and near-opaque ones that saturate pixels after a few
    layers.
    """
    rows = []
    for prim in range(n_prims):
        if rng.random() < 0.1:
            continue  # a primitive without fragments
        y0 = int(rng.integers(0, height))
        for y in range(y0, min(height, y0 + int(rng.integers(1, max_rows)))):
            xlo = int(rng.integers(0, width))
            xhi = min(width - 1, xlo + int(rng.integers(0, max_span)))
            rows.append((prim, y, xlo, xhi))
    prim, y, xlo, xhi = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    counts = xhi - xlo + 1
    fstart = np.cumsum(counts) - counts
    n = int(counts.sum())
    local = np.arange(n) - np.repeat(fstart, counts)
    kind = rng.random(n)
    alphas = np.where(kind < 0.15, rng.uniform(0.0, PRUNE_EPS, n),
                      np.where(kind < 0.45, rng.uniform(PRUNE_EPS, 0.05, n),
                               rng.uniform(0.3, 0.99, n)))
    # Faint columns: pixels there never reach the threshold.
    xs = np.repeat(xlo, counts) + local
    alphas = np.where(xs % 7 == 0, np.minimum(alphas, 0.02), alphas)
    fields = dict(prim_ids=np.repeat(prim, counts), x=xs,
                  y=np.repeat(y, counts), alphas=alphas.astype(np.float32),
                  prim_colors=rng.uniform(size=(n_prims, 3)),
                  width=width, height=height)
    frameir = FrameIR(prim, y, xlo, xhi, fstart, n, width, height)
    return (FragmentStream(frameir=frameir, **fields),
            FragmentStream(**fields))


class TestKillCutoffFuzz:
    """The per-pixel kill cutoffs (the FrameIR path of
    ``unterminated_on_arrival`` with ``lag > 0``) against the sorted-rank
    test on the same fragments rebuilt without an IR."""

    LAGS = (1, 16, 10_000)
    QUAD_COLUMNS = ("mask_unterminated", "mask_et", "n_et_blended",
                    "n_unterminated")

    def assert_pair_matches(self, pair, threshold):
        ir_stream, bare = pair
        for lag in self.LAGS:
            np.testing.assert_array_equal(
                ir_stream.unterminated_on_arrival(threshold, lag),
                bare.unterminated_on_arrival(threshold, lag),
                err_msg=f"lag={lag}")
            ir_table, bare_table = (stream.quad_table(threshold, lag)
                                    for stream in pair)
            assert len(ir_table) == len(bare_table)
            for name in self.QUAD_COLUMNS:
                a, b = getattr(ir_table, name), getattr(bare_table, name)
                assert a.dtype == b.dtype == np.int64, name
                np.testing.assert_array_equal(a, b,
                                              err_msg=f"{name} lag={lag}")
        assert_blends_identical(pair, threshold)

    def test_random_row_streams_match_oracle(self):
        rng = np.random.default_rng(fuzz_seed("kill-cutoff"))
        regimes = dict(pruned=0, never=0, past=0, killed=0)
        for trial in range(12):
            pair = row_stream_pair(rng, int(rng.integers(5, 90)))
            ir_stream, bare = pair
            assert ir_stream.frameir is not None and bare.frameir is None
            threshold = (0.996, 0.9)[trial % 2]
            self.assert_pair_matches(pair, threshold)
            # The regimes the cutoff table must get right all occur.
            n = len(bare)
            counts = np.bincount(bare.pixel_ids, minlength=bare.n_pixels)
            term_rank = bare._term_rank(threshold)
            covered = counts > 0
            regimes["pruned"] += int((bare.alphas < PRUNE_EPS).sum())
            regimes["never"] += int((covered & (term_rank > n)).sum())
            regimes["past"] += int((covered & (term_rank <= n)
                                    & (term_rank + 1 >= counts)).sum())
            regimes["killed"] += int(
                (~bare.unterminated_on_arrival(threshold, 1)).sum())
        assert min(regimes.values()) > 0, regimes

    def test_rasterised_streams_match_oracle(self, deep_cloud, deep_camera):
        pre = preprocess(deep_cloud, deep_camera)
        pair = stream_pair(pre.splats, deep_camera.width, deep_camera.height)
        assert (~pair[1].unterminated_on_arrival(0.996, 1)).any()
        self.assert_pair_matches(pair, 0.996)

    def test_empty_stream(self):
        pair = row_stream_pair(np.random.default_rng(0), 0)
        assert len(pair[0]) == 0
        self.assert_pair_matches(pair, 0.996)

    def test_negative_lag_rejected(self):
        for stream in row_stream_pair(np.random.default_rng(1), 10):
            with pytest.raises(ValueError, match="lag"):
                stream.unterminated_on_arrival(0.996, -1)


class TestIRKnob:
    def test_resolve_ir(self):
        assert resolve_ir() == "auto"
        assert resolve_ir("legacy") == "legacy"
        for mode in ("warp", "frameir"):
            with pytest.raises(ValueError, match="ir mode"):
                resolve_ir(mode)

    def test_bare_stream_digests_through_legacy(self):
        """Digestion follows the stream: a bare stream (legacy-rasterised
        or scalar-emitted) takes the sort-based path in every consumer,
        the hardware renderer included."""
        from repro.core.vrpipe import HardwareRenderer
        from repro.render.splat_raster import rasterize_splats_scalar

        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 25, opacity_low=0.5)
        cam = camera(64, 64)
        pre = preprocess(cloud, cam)
        bare = rasterize_splats_scalar(pre.splats, cam.width, cam.height)
        assert bare.frameir is None
        table = bare.quad_table(0.996, 0)
        assert table.ir_groups is None
        result = HardwareRenderer().render_stream(bare, pre)
        assert result.draw.cycles > 0

    def test_env_frameir_default_stays_best_effort(self, monkeypatch):
        """``$REPRO_IR`` is not read: under a stale export the default is
        still ``"auto"``, which rasterises a FrameIR and digests a bare
        stream through the legacy fallback."""
        from repro.core.vrpipe import HardwareRenderer
        from repro.render.splat_raster import rasterize_splats_scalar

        monkeypatch.setenv("REPRO_IR", "legacy")
        assert resolve_ir() == "auto"
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 25, opacity_low=0.5)
        cam = camera(64, 64)
        pre = preprocess(cloud, cam)
        assert isinstance(rasterize_splats(pre.splats, cam.width,
                                           cam.height).frameir, FrameIR)
        bare = rasterize_splats_scalar(pre.splats, cam.width, cam.height)
        assert HardwareRenderer().render_stream(bare, pre).draw.cycles > 0

    def test_legacy_stream_has_no_ir(self):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng, 15)
        cam = camera()
        pre = preprocess(cloud, cam)
        stream, bare = stream_pair(pre.splats, cam.width, cam.height)
        assert isinstance(stream.frameir, FrameIR)
        assert stream.frameir.n_fragments == len(stream)
        assert bare.frameir is None


class TestDtypePins:
    """Golden-equality check for the explicit dtypes.

    The explicit ``dtype=`` pins in the columnar modules
    (``frameir.py``, ``fragstream.py``, ``flushplan.py``, ``caches.py``)
    must *document* the dtypes the golden outputs already had, not change
    them: every quad-table and workload column is exactly ``int64`` on
    both digestion paths.
    """

    def test_columns_are_int64_on_both_paths(self):
        rng = np.random.default_rng(fuzz_seed("dtype-pins"))
        cloud = random_cloud(rng, 90)
        cam = camera()
        pre = preprocess(cloud, cam)
        pair = stream_pair(pre.splats, cam.width, cam.height)
        assert len(pair[0]) > 0
        for path, table in zip(("frameir", "legacy"),
                               both_tables(pair, 0.996, 0)):
            for name in TABLE_COLUMNS:
                assert getattr(table, name).dtype == np.int64, (path, name)
        config = variant_config("baseline")
        for workload in both_workloads(pair, config):
            for name in GROUP_COLUMNS:
                assert getattr(workload, name).dtype == np.int64, name
