"""One benchmark workload, run inside one fresh process.

``run.py`` starts this file once per measurement; nothing in the program
under test imports it.  Usage::

    PYTHONPATH=src python3 framebench/frames.py --workload cold-orbit \
        --seed 1 --seconds 20 --mode run --out-dir framebench/out \
        --spawned-at <CLOCK_MONOTONIC seconds when the process was started>

Modes:

``run``
    Untraced.  Set up, then time ``RenderSession.render_frame(camera)``
    one frame at a time, in passes, for ``--seconds`` of wall time; check
    every frame's simulated record, re-render the digested frames and the
    last timed frame on the library's bit-exact reference paths as an
    oracle, and compare ``sim_digest`` with the committed one.
``setup``
    Set up exactly as ``run`` does and stop where the first timed frame
    would start: one more ``setup_s`` sample.
``trace``
    Drive one pass through each layer's public function in the order
    ``render_frame`` calls them, one span around every call, then render
    the same pass untraced through ``render_frame``.  The spans are kept
    in memory and written once at the end.

The last line on stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro import faults
from repro.core.vrpipe import HardwareRenderer, HWRenderResult
from repro.engine.session import RenderSession
from repro.gaussians.camera import orbit_viewpoints
from repro.gaussians.preprocess import preprocess
from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline
from repro.render.coherence import FrameCoherence, resolve_coherence
from repro.render.frameir import resolve_ir
from repro.render.splat_raster import rasterize_splats
from repro.swrender.renderer import CudaRenderTiming
from repro.swrender.tiling import assign_tiles
from repro.swrender.warp_model import resolve_swmodel, simulate_tile_warps
from repro.workloads.catalog import get_profile

#: Angle between consecutive distinct views.  Any prefix of a
#: golden-angle sequence covers the orbit almost evenly, so a faster
#: program that fits more frames into the run samples the same mix of
#: view content, not a different arc of the orbit.
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

#: name -> scene, backend, number of looped views (0 = distinct views),
#: timed frames per pass, and how many leading frames ``sim_digest``
#: covers.
#:
#: A pass is one viewpoint sweep in a fresh ``RenderSession``.  Its 8
#: timed views are the library's own sweep length: the default of
#: ``RenderSession.run(n_views=8)`` and of ``repro trajectory --views``.
#: On revisit-loop the session first renders its untimed lap over the
#: loop views, so that session renders 12 frames.  A run repeats passes
#: until its time is up and always completes the first.  The program's
#: memory grows with every frame a session renders, so the pass length,
#: not the run length, sets ``peak_rss_mb``.
WORKLOADS = {
    "cold-orbit": {"scene": "lego", "backend": "hw:het+qm", "loop": 0,
                   "pass_frames": 8, "digest_frames": 6},
    "revisit-loop": {"scene": "lego", "backend": "hw:het+qm", "loop": 4,
                     "pass_frames": 8, "digest_frames": 4},
    "sw-dense": {"scene": "garden", "backend": "cuda+et", "loop": 0,
                 "pass_frames": 8, "digest_frames": 6},
}

#: The bit-exact reference paths the library keeps behind its knobs.
#: The oracle renders on them, so the fast paths a run times are checked
#: against code they do not share.
ORACLE = {"coherence": "off", "ir": "legacy", "swmodel": "legacy"}

#: Committed ``sim_digest`` per workload and seed, made on the ``ORACLE``
#: paths by ``digests.py``, and the listed seed a run with an unlisted
#: seed checks instead.
DIGESTS = Path(__file__).resolve().parent / "digests.json"
ANCHOR_SEED = 0

#: Layer spans of the traced run, in ``render_frame``'s call order.
LAYERS = ("gaussians.preprocess", "render.rasterize", "render.coherence",
          "hwmodel.digest", "hwmodel.draw", "swrender.tiling",
          "swrender.warps", "render.et_ratio")

#: Per-frame counters the layer spans record.
COUNTERS = ("render.fragments", "hwmodel.quads", "hwmodel.tc_flushes",
            "hwmodel.crop_hit_ratio", "hwmodel.merged_quad_pairs",
            "hwmodel.fragments_blended")


def maxrss_mb():
    """This process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Views:
    """The cameras of one workload, made from the seed alone.

    The seed sets the orbit phase.  Looping workloads cycle over
    ``loop`` evenly spaced orbit views; the others visit distinct views
    along the golden-angle sequence.
    """

    def __init__(self, profile, loop, seed):
        self.profile = profile
        self.phase = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        self.loop = (self._orbit(loop, self.phase) if loop else None)

    def _orbit(self, n_views, phase):
        p = self.profile
        return orbit_viewpoints(
            center=p.camera_target, radius=p.orbit_radius, n_views=n_views,
            height=p.orbit_height, fov_x_deg=p.fov_x_deg, width=p.width,
            img_height=p.height, phase=phase)

    def camera(self, k):
        if self.loop is not None:
            return self.loop[k % len(self.loop)]
        return self._orbit(1, self.phase + k * GOLDEN_ANGLE)[0]


# ----------------------------------------------------------------------
# Simulated records and the output check
# ----------------------------------------------------------------------

def hw_units(stats):
    return {name: [unit.busy_cycles, unit.items]
            for name, unit in sorted(stats.units.items())}


def sw_units(warp_exec, tiling):
    return {"rounds": [warp_exec.rounds_et, warp_exec.rounds_no_et],
            "blend_ops": [warp_exec.blend_ops_et, warp_exec.blend_ops_no_et],
            "tile_pairs": [tiling.n_pairs]}


def result_record(frame):
    """The simulated record of one ``render_frame`` result."""
    if frame.pipeline_stats is not None:
        units = hw_units(frame.pipeline_stats)
    else:
        units = sw_units(frame.raw.warp_exec, frame.raw.tiling)
    return {"cycles": frame.cycles, "et_ratio": frame.et_ratio,
            "fragments": frame.n_fragments, "units": units}


def record_problem(rec):
    """Why a record cannot be a valid simulated frame, or ``None``."""
    cycles, et_ratio = rec["cycles"], rec["et_ratio"]
    if not (isinstance(cycles, float) and math.isfinite(cycles)
            and cycles > 0):
        return f"cycles {cycles!r}"
    if not (math.isfinite(et_ratio) and et_ratio >= 1.0):
        return f"et_ratio {et_ratio!r}"
    if not rec["fragments"] > 0:
        return f"fragments {rec['fragments']!r}"
    for name, counts in rec["units"].items():
        if any(c < 0 for c in counts):
            return f"negative unit counter {name}"
    return None


def _canonical(value):
    """JSON-ready copy with floats as exact hex strings."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return int(value)


def sim_digest(records):
    blob = json.dumps(_canonical(records), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Checker:
    """Counts attempted and failed frames; keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed_frames = set()
        self.errors = []

    @property
    def failed(self):
        return len(self.failed_frames)

    def fail(self, frame, reason):
        self.failed_frames.add(frame)
        if len(self.errors) < 8:
            self.errors.append(f"frame {frame}: {reason}")


def digest_head(spec, reference, records):
    """The records ``sim_digest`` covers: the warm-up lap of a looping
    workload, else the leading timed frames."""
    return (reference or records)[:spec["digest_frames"]]


def check_digest(workload, seed, views, head, checker):
    """``sim_digest`` of ``head``, compared with the committed one.

    For a seed the table does not list, the digested views of
    ``ANCHOR_SEED`` are rendered on the timed paths and compared with
    their committed digest instead, so a change to the simulated numbers
    that the oracle shares is still caught.  Returns ``(digest,
    committed)``; ``committed`` is ``None`` for an unlisted seed.
    """
    spec = WORKLOADS[workload]
    table = json.loads(DIGESTS.read_text())[workload]
    digest = sim_digest(head) if head and None not in head else None
    committed = table.get(str(seed))
    if committed is None:
        anchor = Views(views.profile, spec["loop"], ANCHOR_SEED)
        got = sim_digest(render_records(spec, ANCHOR_SEED, anchor,
                                        range(spec["digest_frames"])))
        if got != table[str(ANCHOR_SEED)]:
            checker.fail(0, f"seed {ANCHOR_SEED} sim_digest {got} != "
                            f"committed {table[str(ANCHOR_SEED)]}")
    elif digest != committed:
        checker.fail(0, f"sim_digest {digest} != committed {committed}")
    return digest, committed


# ----------------------------------------------------------------------
# Untraced run
# ----------------------------------------------------------------------

def open_session(spec, seed, **kwargs):
    session = RenderSession(spec["scene"], backend=spec["backend"],
                            baseline=None, seed=seed, **kwargs)
    _ = session.cloud  # the scene build is set-up work
    return session


def render_records(spec, seed, views, ks, **kwargs):
    """Records of views ``ks``, rendered in order in one fresh session
    opened with ``kwargs``."""
    session = open_session(spec, seed, **kwargs)
    return [result_record(session.render_frame(views.camera(k)))
            for k in ks]


def check_oracle(spec, seed, views, head, last, checker):
    """Re-render the digested views and the last timed frame on the
    ``ORACLE`` paths and require identical records.  ``last`` is
    ``(k, record)`` of the last timed frame."""
    ks = list(range(len(head))) + [last[0]]
    for k, got, want in zip(ks, head + [last[1]],
                            render_records(spec, seed, views, ks, **ORACLE)):
        if got is not None and got != want:
            checker.fail(k, "differs from the reference-path oracle")


def warm_up(session, views, spec):
    """Render the untimed first lap of a looping workload (``None`` for
    workloads without one)."""
    if not spec["loop"]:
        return None
    return [result_record(session.render_frame(views.camera(k)))
            for k in range(spec["loop"])]


class Sweep:
    """The session of the current pass and the first pass's warm-up lap.

    Each pass starts from a fresh ``RenderSession``; the previous one is
    released (and its reference cycles collected) first, so only one
    pass's memory is ever resident.
    """

    def __init__(self, spec, seed, views):
        self.spec, self.seed, self.views = spec, seed, views
        self.session = None
        self.reference = self.next_pass()

    def next_pass(self):
        """Open a fresh, warmed session; returns its warm-up records."""
        self.close()
        self.session = open_session(self.spec, self.seed)
        return warm_up(self.session, self.views, self.spec)

    def close(self):
        self.session = None
        gc.collect()


def timed_frames(sweep, seconds, checker, n_frames=None):
    """Time ``render_frame`` per frame, one fresh session per pass.

    Runs frames until ``seconds`` of wall time, pass set-up included, have
    passed since the first timed frame and the first pass is complete, or
    exactly ``n_frames`` frames when given.  Returns ``(frame_ms, records,
    loop_s)``, where ``loop_s`` sums the timed frames and their checks; a
    frame that raised has time and record ``None``.
    """
    views, reference = sweep.views, sweep.reference
    pass_frames = sweep.spec["pass_frames"]
    frame_ms, records = [], []
    loop_s = 0.0
    k = 0
    start = time.perf_counter()
    while True:
        if n_frames is not None:
            if k >= n_frames:
                break
        elif k >= pass_frames and time.perf_counter() - start >= seconds:
            break
        if k and k % pass_frames == 0:
            if sweep.next_pass() != reference:
                checker.fail(k, "warm-up lap differs from the first pass's")
        checker.attempted += 1
        t0 = time.perf_counter()
        try:
            frame = sweep.session.render_frame(views.camera(k))
        except Exception as exc:  # a failed frame is counted, not fatal
            loop_s += time.perf_counter() - t0
            checker.fail(k, f"{type(exc).__name__}: {exc}")
            frame_ms.append(None)
            records.append(None)
            k += 1
            continue
        dt = time.perf_counter() - t0
        rec = result_record(frame)
        del frame
        problem = record_problem(rec)
        if problem is None and reference is not None \
                and rec != reference[k % len(reference)]:
            problem = "differs from the warm-up lap's record of this view"
        if problem is not None:
            checker.fail(k, problem)
        frame_ms.append(dt * 1e3)
        records.append(rec)
        loop_s += time.perf_counter() - t0
        k += 1
    sweep.close()
    return frame_ms, records, loop_s


def run_untraced(workload, views, seed, seconds, spawned_at, setup_only):
    spec = WORKLOADS[workload]
    sweep = Sweep(spec, seed, views)
    out = {"setup_s": time.monotonic() - spawned_at}
    if setup_only:
        return out
    checker = Checker()
    frame_ms, records, loop_s = timed_frames(sweep, seconds, checker)
    peak = maxrss_mb()  # before the oracle opens its own session
    head = digest_head(spec, sweep.reference, records)
    check_oracle(spec, seed, views, head, (len(records) - 1, records[-1]),
                 checker)
    digest, committed = check_digest(workload, seed, views, head, checker)
    out.update(frame_ms=frame_ms, loop_s=loop_s,
               attempted=checker.attempted, failed=checker.failed,
               errors=checker.errors, sim_digest=digest,
               sim_digest_committed=committed, peak_rss_mb=peak)
    return out


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

class Spans:
    """In-memory span recorder: name, start, end, parent, frame id.

    Each span also records the rise of the process's peak RSS during it
    and any counters the caller attaches to the dict it yields.
    """

    def __init__(self):
        self.rows = []
        self._stack = []
        self.frame = None

    @contextmanager
    def span(self, name):
        row = {"name": name, "frame": self.frame,
               "parent": self._stack[-1] if self._stack else None,
               "counters": {}}
        self._stack.append(len(self.rows))
        self.rows.append(row)
        rss0 = maxrss_mb()
        row["start"] = time.perf_counter()
        try:
            yield row["counters"]
        finally:
            row["end"] = time.perf_counter()
            row["peak_step_mb"] = maxrss_mb() - rss0
            self._stack.pop()


def traced_frame(spans, cloud, backend, carrier, camera):
    """One frame through the layers, in ``RenderSession.render_frame``'s
    order.  Returns the record ``render_frame`` would yield and the
    frame's change in the carrier's hit counters."""
    renderer = backend.renderer
    with spans.span("gaussians.preprocess"):
        pre = preprocess(cloud, camera)
    with spans.span("render.rasterize") as c:
        stream = rasterize_splats(pre.splats, camera.width, camera.height)
        c["render.fragments"] = len(stream)
    stats0 = dict(carrier.stats)
    with spans.span("render.coherence"):
        carrier.begin_frame(stream)
    model = renderer.kernel_model
    if isinstance(renderer, HardwareRenderer):
        config = renderer.config
        with spans.span("hwmodel.digest") as c:
            workload = DrawWorkload.from_stream(stream, config)
            c["hwmodel.quads"] = len(workload.quads)
        with spans.span("hwmodel.draw") as c:
            draw = GraphicsPipeline(config).draw(workload,
                                                 engine=renderer.engine)
            st = draw.stats
            crop = st.crop_cache_hits + st.crop_cache_misses
            c.update({"hwmodel.tc_flushes": st.tc_flushes(),
                      "hwmodel.crop_hit_ratio":
                          st.crop_cache_hits / crop if crop else 0.0,
                      "hwmodel.merged_quad_pairs": st.quads_merged_pairs,
                      "hwmodel.fragments_blended": st.fragments_blended})
        with spans.span("render.et_ratio"):
            et_ratio = stream.termination_ratio(config.termination_alpha)
        cycles = HWRenderResult(
            draw, model.preprocess_cycles(pre.n_input, 0),
            model.sort_cycles(stream.prim_colors.shape[0]),
            stream, pre).total_cycles
        units = hw_units(draw.stats)
    else:
        with spans.span("swrender.tiling"):
            tiling = assign_tiles(pre.splats, stream.width, stream.height)
        with spans.span("swrender.warps"):
            warp = simulate_tile_warps(stream, renderer.threshold,
                                       swmodel=renderer.swmodel)
        with spans.span("render.et_ratio"):
            et_ratio = stream.termination_ratio(renderer.threshold)
        et = renderer.early_term
        cycles = CudaRenderTiming(
            preprocess_cycles=model.preprocess_cycles(
                stream.prim_colors.shape[0], tiling.n_pairs),
            sort_cycles=model.sort_cycles(tiling.n_pairs),
            raster_cycles=model.raster_cycles(
                warp.rounds_et if et else warp.rounds_no_et,
                warp.blend_ops_et if et else warp.blend_ops_no_et),
            frequency_hz=renderer.frequency_hz).total_cycles
        units = sw_units(warp, tiling)
    hits = {key: carrier.stats[key] - stats0[key] for key in stats0}
    return {"cycles": cycles, "et_ratio": et_ratio, "fragments": len(stream),
            "units": units}, hits


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans, timed_ids, untraced_ms):
    """Per-layer metrics from the recorded spans: medians over the timed
    frames, peak steps summed over every traced frame.  A layer the
    workload never calls reads 0."""
    frames = {}
    for row in spans.rows:
        frames.setdefault(row["frame"], []).append(row)
    layer_ms = {name: [] for name in LAYERS}
    counters = {name: [] for name in COUNTERS}
    glue, gaps = [], []
    for fid, frame_ms in zip(timed_ids, untraced_ms):
        top, *children = frames[fid]
        child_s = sum(r["end"] - r["start"] for r in children)
        glue.append((top["end"] - top["start"] - child_s) * 1e3)
        if frame_ms is not None:
            gaps.append(frame_ms - child_s * 1e3)
        for name in LAYERS:
            layer_ms[name].append(1e3 * sum(
                r["end"] - r["start"] for r in children if r["name"] == name))
        for r in children:
            for key, value in r["counters"].items():
                counters[key].append(value)
    metrics = {f"{name}_ms": _median(layer_ms[name]) for name in LAYERS}
    metrics.update((name, _median(counters[name])) for name in COUNTERS)
    metrics["engine.session_gap_ms"] = _median(gaps)
    metrics["bench.glue_ms"] = _median(glue)
    for name in LAYERS:
        metrics[f"{name}.peak_step_mb"] = sum(
            r["peak_step_mb"] for r in spans.rows if r["name"] == name)
    return metrics


def run_traced(workload, views, seed, out_dir):
    """One pass traced layer by layer, then the same pass untraced."""
    spec = WORKLOADS[workload]
    session = open_session(spec, seed)
    cloud, backend = session.cloud, session.backend
    del session
    carrier = FrameCoherence()
    spans = Spans()
    checker = Checker()
    n_warm = spec["loop"]
    reference, records, hits, timed_ids = [], [], [], []
    n_frames = spec["pass_frames"]
    for k in range(n_warm + n_frames):
        i = k - n_warm  # timed frame index; negative in the warm-up lap
        spans.frame = k
        with spans.span("frame"):
            rec, frame_hits = traced_frame(spans, cloud, backend, carrier,
                                           views.camera(k if i < 0 else i))
        if i < 0:
            reference.append(rec)
            continue
        timed_ids.append(k)
        records.append(rec)
        hits.append(frame_hits)
        problem = record_problem(rec)
        if problem is None and reference and rec != reference[i % n_warm]:
            problem = "differs from the warm-up lap's record of this view"
        if problem is not None:
            checker.fail(i, problem)
    del carrier, backend, cloud
    gc.collect()
    # The same frames untraced (these count as the attempts): the
    # session gap, and records that must match the traced ones exactly.
    sweep = Sweep(spec, seed, views)
    untraced_ms, untraced_records, _ = timed_frames(
        sweep, 0.0, checker, n_frames=n_frames)
    if sweep.reference != (reference or None):
        checker.fail(0, "traced warm-up lap differs from render_frame's")
    for i, (a, b) in enumerate(zip(records, untraced_records)):
        if a != b:
            checker.fail(i, "traced record differs from render_frame's")
    metrics = layer_metrics(spans, timed_ids, untraced_ms)
    full = sum(h["full_hits"] for h in hits)
    partial = sum(h["partial_hits"] for h in hits)
    metrics["render.coherence.hit_ratio"] = (full + partial) / len(hits)
    metrics["render.coherence.full_hits"] = float(full)
    metrics["render.coherence.recomputes"] = float(
        sum(h["full_recomputes"] for h in hits))
    expected = 1.0 if n_warm else 0.0
    if metrics["render.coherence.hit_ratio"] != expected:
        checker.fail(0, "coherence hit ratio "
                     f"{metrics['render.coherence.hit_ratio']} != {expected}")
    digest, committed = check_digest(
        workload, seed, views, digest_head(spec, reference, records),
        checker)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"spans-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"spans": spans.rows}, fh)
    return {"metrics": metrics, "attempted": checker.attempted,
            "failed": checker.failed, "errors": checker.errors,
            "sim_digest": digest, "sim_digest_committed": committed}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("run", "setup", "trace"))
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = WORKLOADS[args.workload]
    views = Views(get_profile(spec["scene"]), spec["loop"], args.seed)
    knobs = {"ir": resolve_ir(), "coherence": resolve_coherence(),
             "swmodel": resolve_swmodel(), "faults": faults.ENABLED,
             "orbit_phase": views.phase}
    if args.mode == "trace":
        out = run_traced(args.workload, views, args.seed, args.out_dir)
    else:
        out = run_untraced(args.workload, views, args.seed, args.seconds,
                           args.spawned_at, args.mode == "setup")
    out["knobs"] = knobs
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
