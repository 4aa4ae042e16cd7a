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
    Simulated draws under the batched flush-plan engine against the
    retained scalar per-flush path, per variant — with their cycle/stat
    equality re-verified inside the run.
``service``
    The request-serving layer under synthetic closed-loop load
    (:mod:`repro.serve`): a fault-free row and a seeded-chaos row, each
    reporting serving KPIs — latency percentiles, throughput, rejection
    and cache-hit rates, incident counts and the lost-request count
    (invariant: zero).

Every suite accepts ``quick=True`` — a CI-sized variant (small scene, one
repeat) whose purpose is keeping the harness from bitrotting, not
producing comparable numbers.

These suites answer what a frame benchmark cannot: how much faster each
fast path is than its retained oracle, plus the reference frame and the
serving layer.  End-to-end frame times and the per-layer breakdown
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
        batched = time_callable(
            lambda p=pipe, wl=workload: p.draw(wl, engine="batched"),
            warmup=0 if quick else 1, repeat=repeat,
            name=f"hw/draw:{variant}")
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


#: Seeded chaos plan of the ``service`` suite: every one of the seven
#: injection points armed, mixing stall / raise / corrupt / oserror
#: kinds, probabilistic so healing happens without drowning the run.
SERVICE_CHAOS_PLAN = (
    "seed=11; rasterize:raise,p=0.15; digest:stall,delay=150,p=0.15; "
    "coherence.verify:corrupt,p=0.15; flushplan:raise,p=0.15; "
    "lru.replay:corrupt,p=0.15; cache.load:corrupt,p=0.3; "
    "cache.store:oserror,p=0.3")

#: The KPI columns every ``service`` row reports (flat, JSON-safe).
_SERVICE_KPI_KEYS = (
    "submitted", "resolved", "lost", "completed", "rejected", "failed",
    "rejection_rate", "throughput_rps", "cache_hit_rate", "from_cache",
    "incidents", "healing_ms", "latency_p50_ms", "latency_p95_ms",
    "latency_p99_ms")


def _suite_service(quick, scene=None, repeat=None):
    """The serving layer under synthetic load, fault-free and under chaos.

    Each row drives a fresh :class:`~repro.serve.service.RenderService`
    (own on-disk result cache in a temp dir, torn down after) with the
    seeded closed-loop load generator: ``clean`` with no fault plan,
    ``chaos`` under :data:`SERVICE_CHAOS_PLAN` (all seven injection
    points armed).  The timing row is the whole run's wall clock; the
    serving KPIs ride along as metrics.  The service builds its sessions
    with the default fast path, and frames heal through the session
    ladder (primary → retry → reference).

    Full mode runs 8 concurrent clients (the acceptance bar for the
    zero-lost-requests invariant); quick mode 2.
    """
    import shutil
    import tempfile

    from repro import faults
    from repro.engine.cache import ResultCache
    from repro.serve import LoadSpec, RenderService, run_load

    scene = scene or "lego"
    clients = 2 if quick else 8
    spec = LoadSpec(clients=clients, requests_per_client=2 if quick else 3,
                    scenes=(scene,), views_choices=(1, 2), seed=7)

    results = []
    for label, plan_text in (("clean", None), ("chaos", SERVICE_CHAOS_PLAN)):
        reports = []

        def run_once(plan_text=plan_text, reports=reports):
            tmp = tempfile.mkdtemp(prefix="repro-serve-bench-")
            try:
                plan = (faults.FaultPlan.parse(plan_text)
                        if plan_text else None)
                with faults.active(plan):
                    with RenderService(workers=2,
                                       queue_limit=max(16, 2 * clients),
                                       result_cache=ResultCache(tmp)
                                       ) as service:
                        reports.append(run_load(service, spec))
            finally:
                shutil.rmtree(tmp, ignore_errors=True)

        timing = time_callable(run_once, warmup=0, repeat=repeat or 1,
                               name=f"service/{label}")
        kpis = reports[-1].kpis()
        if kpis["lost"]:
            raise AssertionError(
                f"service suite ({label}): {kpis['lost']} request(s) "
                "lost — the serving layer's core invariant is broken")
        metrics = {"clients": clients,
                   **{key: kpis[key] for key in _SERVICE_KPI_KEYS
                      if key in kpis}}
        results.append(BenchResult(timing, scene, metrics))
    return results


#: Suite registry: name -> callable(quick, scene=None, repeat=None).
SUITES = {
    "rasterize": _suite_rasterize,
    "reference": _suite_reference,
    "hw": _suite_hw,
    "service": _suite_service,
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
