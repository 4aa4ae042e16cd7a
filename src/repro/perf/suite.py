"""Named benchmark suites over the library's hot paths.

Each suite builds its workload once (scene construction and preprocessing
are *not* part of the timed region unless the benchmark says so), then
times the hot path with :func:`repro.perf.timer.time_callable`.  Suites:

``rasterize``
    The headline suite: the batched tile-binned rasteriser against the
    golden per-splat scalar loop on the same splats, with the bit-identity
    of their streams re-verified inside the run.  Default scene ``bench``
    (production-like small-splat statistics, see
    :mod:`repro.workloads.catalog`).
``reference``
    Full reference frame: preprocess + rasterise + blend.
``hw``
    Simulated draws under the batched flush engine against the retained
    scalar per-flush path, per variant — with their cycle/stat equality
    re-verified inside the run.  Every batched repeat plans its schedule
    (the flush digest a draw memoizes on the stream is dropped first).

Every suite accepts ``quick=True`` — a CI-sized variant (small scene, one
repeat) whose purpose is keeping the harness from bitrotting, not
producing comparable numbers.

These suites answer what a frame benchmark cannot: how much faster each
fast path is than its retained oracle, plus the reference frame.
End-to-end frame times and the per-layer breakdown
(preprocess, rasterize, coherence, digest, draw, ...) come from the
repo benchmark, ``framebench/run.py`` (``--trace 1`` for the layers).
"""

from __future__ import annotations

import numpy as np

from repro.gaussians.preprocess import preprocess
from repro.perf.timer import time_callable
from repro.render.splat_raster import rasterize_splats, rasterize_splats_scalar
from repro.workloads.catalog import build_scene, get_profile


class BenchResult:
    """One benchmark's timing plus derived metrics.

    ``metrics`` is a flat JSON-safe dict (fragment counts, throughput,
    intra-suite speedups ...) merged into the report row.
    """

    def __init__(self, timing, scene, metrics=None):
        self.timing = timing
        self.scene = str(scene)
        self.metrics = dict(metrics or {})

    @property
    def name(self):
        return self.timing.name

    def __repr__(self):
        return f"BenchResult({self.name!r}, median={self.timing.median_ms:.2f} ms)"


class SuiteRun:
    """All results of one suite execution."""

    def __init__(self, suite, quick, results):
        self.suite = str(suite)
        self.quick = bool(quick)
        self.results = list(results)

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)


def _splats_for(scene, seed=0):
    profile = get_profile(scene)
    cloud = build_scene(profile, seed=seed)
    camera = profile.camera()
    pre = preprocess(cloud, camera)
    return profile, camera, pre


def _assert_identical(a, b):
    """Bit-level stream equality — the suite's built-in honesty check."""
    same = (np.array_equal(a.prim_ids, b.prim_ids)
            and np.array_equal(a.x, b.x)
            and np.array_equal(a.y, b.y)
            and np.array_equal(a.alphas.view(np.uint32),
                               b.alphas.view(np.uint32)))
    if not same:
        raise AssertionError(
            "batched and scalar rasterizers diverged; the benchmark would "
            "be comparing different work")


def _suite_rasterize(quick, scene=None, repeat=None):
    scene = scene or ("lego" if quick else "bench")
    repeat = repeat or (2 if quick else 5)
    _, camera, pre = _splats_for(scene)
    w, h = camera.width, camera.height

    # Both paths get the *same* warmup so the speedup ratio compares
    # steady-state against steady-state even in quick mode.
    warmup = 0 if quick else 1
    batched = time_callable(lambda: rasterize_splats(pre.splats, w, h),
                            warmup=warmup, repeat=repeat,
                            name="rasterize/batched")
    scalar = time_callable(lambda: rasterize_splats_scalar(pre.splats, w, h),
                           warmup=warmup, repeat=repeat,
                           name="rasterize/scalar")
    stream = rasterize_splats(pre.splats, w, h)
    _assert_identical(stream, rasterize_splats_scalar(pre.splats, w, h))
    n = len(stream)
    speedup = (scalar.median_s / batched.median_s
               if batched.median_s > 0 else float("inf"))
    common = {"fragments": n, "splats": len(pre.splats)}
    return [
        BenchResult(batched, scene, {
            **common,
            "fragments_per_sec": batched.per_second(n),
            "speedup_vs_scalar": speedup,
        }),
        BenchResult(scalar, scene, {
            **common,
            "fragments_per_sec": scalar.per_second(n),
        }),
    ]


def _suite_reference(quick, scene=None, repeat=None):
    from repro.render.reference import render_reference

    scene = scene or ("lego" if quick else "train")
    repeat = repeat or (1 if quick else 3)
    profile = get_profile(scene)
    cloud = build_scene(profile, seed=0)
    camera = profile.camera()

    timing = time_callable(lambda: render_reference(cloud, camera),
                           warmup=0 if quick else 1, repeat=repeat,
                           name="reference/frame")
    result = render_reference(cloud, camera)
    n = len(result.stream)
    return [BenchResult(timing, scene, {
        "fragments": n,
        "fragments_per_sec": timing.per_second(n),
    })]


def _assert_draws_identical(a, b):
    """Engine honesty check: batched and scalar must agree bit-for-bit."""
    same = (a.stats.total_cycles == b.stats.total_cycles
            and all(a.stats.units[u].busy_cycles == b.stats.units[u].busy_cycles
                    and a.stats.units[u].items == b.stats.units[u].items
                    for u in a.stats.units))
    if not same:
        raise AssertionError(
            "batched and scalar flush engines diverged; the benchmark "
            "would be comparing different work")


def _suite_hw(quick, scene=None, repeat=None):
    from repro.core.vrpipe import variant_config
    from repro.hwmodel.flushplan import digest_key
    from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline

    scene = scene or ("lego" if quick else "train")
    repeat = repeat or (1 if quick else 3)
    variants = ("baseline", "het+qm") if quick else ("baseline", "qm",
                                                     "het", "het+qm")
    _, camera, pre = _splats_for(scene)
    stream = rasterize_splats(pre.splats, camera.width, camera.height)
    n = len(stream)

    results = []
    for variant in variants:
        cfg = variant_config(variant)
        workload = DrawWorkload.from_stream(stream, cfg)
        pipe = GraphicsPipeline(cfg)
        _assert_draws_identical(pipe.draw(workload, engine="batched"),
                                pipe.draw(workload, engine="scalar"))
        key = digest_key(cfg)

        def cold_draw(p=pipe, wl=workload, key=key):
            # Drop the flush digest the previous draw memoized on the
            # stream, so every repeat plans its schedule like a cold frame.
            stream._cache.pop(key, None)
            return p.draw(wl, engine="batched")

        batched = time_callable(cold_draw, warmup=0 if quick else 1,
                                repeat=repeat, name=f"hw/draw:{variant}")
        scalar = time_callable(
            lambda p=pipe, wl=workload: p.draw(wl, engine="scalar"),
            warmup=0 if quick else 1, repeat=repeat,
            name=f"hw/draw:{variant}:scalar")
        speedup = (scalar.median_s / batched.median_s
                   if batched.median_s > 0 else float("inf"))
        results.append(BenchResult(batched, scene, {
            "fragments": n,
            "fragments_per_sec": batched.per_second(n),
            "speedup_vs_scalar": speedup,
        }))
        results.append(BenchResult(scalar, scene, {
            "fragments": n,
            "fragments_per_sec": scalar.per_second(n),
        }))
    return results


#: Suite registry: name -> callable(quick, scene=None, repeat=None).
SUITES = {
    "rasterize": _suite_rasterize,
    "reference": _suite_reference,
    "hw": _suite_hw,
}


def run_suite(name, quick=False, scene=None, repeat=None):
    """Run the suite registered under ``name`` and return a :class:`SuiteRun`.

    ``scene`` and ``repeat`` override the suite defaults (``repeat`` must
    be >= 1 when given); ``quick`` selects the CI-sized variant.  Every
    suite times the library's default fast paths.
    """
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; available: {sorted(SUITES)}") from None
    if repeat is not None and repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    return SuiteRun(name, quick, suite(quick, scene=scene, repeat=repeat))
