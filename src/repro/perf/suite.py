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
    Hardware-model digestion (``DrawWorkload.from_stream``) and simulated
    draws under the batched flush-plan engine against the retained scalar
    per-flush path, per variant — with their cycle/stat equality
    re-verified inside the run.
``trajectory``
    Multi-frame orbit through the engine's ``RenderSession``.
``service``
    The request-serving layer under synthetic closed-loop load
    (:mod:`repro.serve`): a fault-free row and a seeded-chaos row, each
    reporting serving KPIs — latency percentiles, throughput, rejection
    and cache-hit rates, incident counts and the lost-request count
    (invariant: zero).

Every suite accepts ``quick=True`` — a CI-sized variant (small scene, one
repeat) whose purpose is keeping the harness from bitrotting, not
producing comparable numbers.
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


def _suite_rasterize(quick, scene=None, repeat=None, ir=None, coherence=None,
                     swmodel=None):
    scene = scene or ("lego" if quick else "bench")
    repeat = repeat or (2 if quick else 5)
    _, camera, pre = _splats_for(scene)
    w, h = camera.width, camera.height

    # Both paths get the *same* warmup so the speedup ratio compares
    # steady-state against steady-state even in quick mode.
    warmup = 0 if quick else 1
    batched = time_callable(lambda: rasterize_splats(pre.splats, w, h, ir=ir),
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


def _suite_reference(quick, scene=None, repeat=None, ir=None, coherence=None,
                     swmodel=None):
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


def _suite_hw(quick, scene=None, repeat=None, ir=None, coherence=None,
              swmodel=None):
    from repro.core.vrpipe import variant_config
    from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline

    scene = scene or ("lego" if quick else "train")
    repeat = repeat or (1 if quick else 3)
    variants = ("baseline", "het+qm") if quick else ("baseline", "qm",
                                                     "het", "het+qm")
    _, camera, pre = _splats_for(scene)
    stream = rasterize_splats(pre.splats, camera.width, camera.height, ir=ir)
    n = len(stream)

    results = []
    cfg_full = variant_config("het+qm")
    digest = time_callable(
        lambda: DrawWorkload.from_stream(stream, cfg_full, ir=ir),
        warmup=0 if quick else 1, repeat=repeat,
        name="hw/digest")
    results.append(BenchResult(digest, scene, {
        "fragments": n, "fragments_per_sec": digest.per_second(n)}))
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


def _stage_breakdown(session, n_views):
    """Per-frame wall-clock stage map of one serial session run.

    Collected in a separate, untimed run so the instrumentation never
    contaminates the measured repetitions; returns ``{}`` on engines whose
    session predates stage collection (the suite also runs against older
    checkouts to produce baseline reports — probed by signature so a real
    ``TypeError`` inside the run still propagates).
    """
    import inspect

    if "collect_stages" not in inspect.signature(session.run).parameters:
        return {}
    result = session.run(n_views=n_views, collect_stages=True)
    return {f"stage_{name}_ms_per_frame": ms / n_views
            for name, ms in sorted(result.stage_ms.items())}


def _suite_trajectory(quick, scene=None, repeat=None, ir=None,
                      coherence=None, swmodel=None):
    """End-to-end multi-frame trajectories, per engine endpoint.

    The headline suite of the frame engines: each benchmark renders a
    whole ``RenderSession`` orbit — preprocess, rasterise, digest and
    simulate every frame — through one variant, cold, plus warm-CROP-cache
    rows (serial by contract) for the cache-carrying endpoints.  Rows
    report frames/s and a wall-clock per-stage breakdown, so
    ``BENCH_trajectory.json`` doubles as the repo's hotspot map; the
    ``stage_render:digest`` column measures whichever digestion engine
    ``ir`` selects (the FrameIR path by default) under the cross-frame
    ``coherence`` mode (the ``$REPRO_COHERENCE`` default when ``None``).
    The session — and with it the coherence carrier — persists across the
    warmup and every measured repeat, matching the production serving
    loop where a trajectory revisits viewpoints against warm state.

    The software path rides along as ``cuda`` / ``cuda+et`` rows under
    the ``swmodel`` engine knob: their ``cold`` rows pin the coherence
    carrier *off* (every frame digests from scratch — the software
    models' worst case), their ``warm`` rows pin it to ``incremental``
    so cross-frame reuse of the rasterise/FrameIR/digest products shows
    up as a separate measurement.

    Quick mode trades the variant sweep for *scenario* coverage: the
    ``lego`` orbit plus the sparse ``aerial`` and dense ``garden``
    profiles, two hardware variants plus the ``cuda+et`` cold/warm pair
    each.  Rows for non-default scenes carry the scene in their
    benchmark name so reports stay comparable row-by-row.
    """
    from repro.engine.session import RenderSession

    repeat = repeat or (1 if quick else 3)
    n_views = 2 if quick else 4
    if scene is not None:
        scenes = [scene]
    else:
        scenes = ["lego", "aerial", "garden"] if quick else ["lego"]
    cold_variants = ("baseline", "het+qm") if quick else (
        "baseline", "qm", "het", "het+qm")
    warm_variants = () if quick else ("baseline", "het+qm")
    cuda_specs = ("cuda+et",) if quick else ("cuda", "cuda+et")

    results = []
    for scene_name in scenes:
        prefix = ("trajectory" if scene_name == "lego"
                  else f"trajectory/{scene_name}")
        for variant, warm in ([(v, False) for v in cold_variants]
                              + [(v, True) for v in warm_variants]):
            session = RenderSession(scene_name, backend=f"hw:{variant}",
                                    baseline=None, warm_crop_cache=warm,
                                    ir=ir, coherence=coherence,
                                    swmodel=swmodel)
            mode = "warm" if warm else "cold"
            timing = time_callable(
                lambda s=session: s.run(n_views=n_views),
                warmup=0 if quick else 1, repeat=repeat,
                name=f"{prefix}/{variant}:{mode}")
            metrics = {
                "frames": n_views,
                "ms_per_frame": timing.median_ms / n_views,
                "frames_per_sec": timing.per_second(n_views),
            }
            metrics.update(_stage_breakdown(session, n_views))
            results.append(BenchResult(timing, scene_name, metrics))
        for spec in cuda_specs:
            for mode, coh in (("cold", "off"), ("warm", "incremental")):
                session = RenderSession(scene_name, backend=spec,
                                        baseline=None, ir=ir, coherence=coh,
                                        swmodel=swmodel)
                timing = time_callable(
                    lambda s=session: s.run(n_views=n_views),
                    warmup=0 if quick else 1, repeat=repeat,
                    name=f"{prefix}/{spec}:{mode}")
                metrics = {
                    "frames": n_views,
                    "ms_per_frame": timing.median_ms / n_views,
                    "frames_per_sec": timing.per_second(n_views),
                }
                metrics.update(_stage_breakdown(session, n_views))
                results.append(BenchResult(timing, scene_name, metrics))
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


def _suite_service(quick, scene=None, repeat=None, ir=None, coherence=None,
                   swmodel=None):
    """The serving layer under synthetic load, fault-free and under chaos.

    Each row drives a fresh :class:`~repro.serve.service.RenderService`
    (own on-disk result cache in a temp dir, torn down after) with the
    seeded closed-loop load generator: ``clean`` with no fault plan,
    ``chaos`` under :data:`SERVICE_CHAOS_PLAN` (all seven injection
    points armed).  The timing row is the whole run's wall clock; the
    serving KPIs ride along as metrics.  ``ir``/``coherence``/``swmodel``
    are accepted for registry uniformity and ignored — the service builds
    its sessions with the default fast path, and frames heal through the
    session ladder (primary → retry → reference).

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


#: Suite registry: name -> callable(quick, scene=None, repeat=None,
#: ir=None, coherence=None, swmodel=None).
SUITES = {
    "rasterize": _suite_rasterize,
    "reference": _suite_reference,
    "hw": _suite_hw,
    "trajectory": _suite_trajectory,
    "service": _suite_service,
}


def run_suite(name, quick=False, scene=None, repeat=None, ir=None,
              coherence=None, swmodel=None):
    """Run the suite registered under ``name`` and return a :class:`SuiteRun`.

    ``scene`` and ``repeat`` override the suite defaults (``repeat`` must
    be >= 1 when given); ``quick`` selects the CI-sized variant.  ``ir``
    selects the digestion engine the timed paths run under (see
    :mod:`repro.render.frameir`), ``coherence`` the cross-frame reuse
    mode of session-based suites (see :mod:`repro.render.coherence`), and
    ``swmodel`` the software-path model engine of the ``cuda`` rows (see
    :mod:`repro.swrender.warp_model`; suites without the corresponding
    state accept and ignore the knobs).
    """
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; available: {sorted(SUITES)}") from None
    if repeat is not None and repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    return SuiteRun(name, quick, suite(quick, scene=scene, repeat=repeat,
                                       ir=ir, coherence=coherence,
                                       swmodel=swmodel))
