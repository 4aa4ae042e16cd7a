"""Multi-pass rendering with stencil-based early termination (Algorithm 1).

The depth-sorted splats are split into N equal batches.  Each pass issues
two draw calls: (1) draw the batch, with the stencil test discarding
fragments of pixels terminated in *earlier* passes, and (2) draw a
screen-sized rectangle whose shader reads each pixel's accumulated alpha and
sets the stencil for newly terminated pixels.  Termination state therefore
only advances at pass boundaries — the reason the software approach cannot
match fragment-granular HET — while each extra pass adds a full-screen
stencil-update draw and a pipeline drain (the paper's "overhead from
additional draw calls").

Cycle costs reuse the hardware model's unit constants through a closed-form
streaming-bottleneck evaluation per pass (bin dynamics are skipped; they do
not change at pass granularity, and the full simulator confirms the N=1
case).

Two engines, chosen by the stream, as digestion is:

* :func:`_multipass_workspace_ir`, for a stream that carries a FrameIR,
  reads the quad/batch structure off the FrameIR quad table and
  digestion's cached pixel-sorted arrival chain — no fragment lexsort and
  no ``np.unique`` over quad keys;
* :func:`_multipass_workspace_legacy`, for a bare stream (rasterised
  with ``ir="legacy"``), is the retained fragment-sort oracle (lexsort +
  ``np.unique``), kept bit-exact for the equivalence tests.

Either workspace holds every stream-dependent, N-independent structure,
so :func:`multipass_sweep` builds it once and reuses it across all pass
counts instead of re-sorting the stream per N.
"""

from __future__ import annotations

import numpy as np

from repro.hwmodel.config import GPUConfig
from repro.hwmodel.units import warps_for_quads
from repro.render.fragstream import FragmentStream


#: Pipeline drain + render-target barrier + driver overhead charged per
#: draw call, in cycles.  The stencil handshake forces a wait-for-idle and
#: a render-target barrier between the batch draw and the stencil-update
#: draw; on real hardware this is fixed time (~tens of microseconds), so at
#: this reproduction's reduced scene scale it is *relatively* larger than in
#: the paper — the calibration keeps the Figure 11 shape (peak at an
#: intermediate N, modest maxima, losses for small scenes).
DRAW_CALL_OVERHEAD_CYCLES = 18000.0


class MultipassResult:
    """Outcome of an N-pass render."""

    def __init__(self, n_passes, batch_cycles, stencil_cycles, total_cycles,
                 fragments_blended):
        self.n_passes = int(n_passes)
        self.batch_cycles = batch_cycles
        self.stencil_cycles = stencil_cycles
        self.total_cycles = float(total_cycles)
        self.fragments_blended = int(fragments_blended)

    def speedup_over(self, baseline_cycles):
        return baseline_cycles / self.total_cycles


def _pass_cycles(config, n_prims, quads_total, quads_to_sm, quads_to_crop):
    """Closed-form streaming-bottleneck cycles for one batch draw call.

    The stencil test kills fragments *before shading*, so only the SM and
    CROP see the reduced counts; the rasteriser, TC/PROP dispatch path and
    the ZROP stencil test still process every rasterised quad of the batch
    — the structural reason multi-pass rendering cannot match HET even
    before overheads.
    """
    cfg = config
    busy = {
        "raster": max(n_prims * cfg.setup_cycles_per_prim,
                      quads_total / cfg.fine_raster_quads_per_cycle),
        "prop": ((cfg.prop_dispatch_weight * quads_total + quads_to_crop)
                 / cfg.prop_quads_per_cycle),
        "zrop": quads_total / cfg.zrop_quads_per_cycle,  # stencil test
        "sm": (warps_for_quads(quads_to_sm) * cfg.frag_shader_cycles_per_warp
               / cfg.sm_issue_slots_per_cycle),
        "crop": quads_to_crop / cfg.crop_quads_per_cycle,
    }
    return max(busy.values()) + cfg.pipeline_fill_cycles


def _stencil_update_cycles(config, width, height):
    """Cycles for the screen-sized stencil-update draw call."""
    cfg = config
    n_quads = (width * height) // 4
    busy = {
        "raster": n_quads / cfg.fine_raster_quads_per_cycle,
        "sm": (warps_for_quads(n_quads) * cfg.frag_shader_cycles_per_warp
               / cfg.sm_issue_slots_per_cycle),
        "zrop": n_quads / cfg.zrop_quads_per_cycle,
    }
    return max(busy.values()) + cfg.pipeline_fill_cycles


class _MultipassWorkspace:
    """Stream-dependent, N-independent structure shared across a sweep.

    Everything downstream of the pixel sort and the quad identification —
    the only expensive steps — lives here: the pixel-sorted fragment view
    (pixel / primitive / arrival alpha / unpruned), the per-fragment quad
    index in the same sorted domain, and the per-quad primitive id.  The
    per-N work is then pure bincounts and boolean scatters.
    """

    __slots__ = ("pix_sorted", "prim_sorted", "arrival_sorted",
                 "unpruned_sorted", "quad_of_frag", "quad_prim", "n_quads")

    def __init__(self, pix_sorted, prim_sorted, arrival_sorted,
                 unpruned_sorted, quad_of_frag, quad_prim):
        self.pix_sorted = pix_sorted
        self.prim_sorted = prim_sorted
        self.arrival_sorted = arrival_sorted
        self.unpruned_sorted = unpruned_sorted
        self.quad_of_frag = quad_of_frag
        self.quad_prim = quad_prim
        self.n_quads = quad_prim.shape[0]


def _multipass_workspace_ir(stream):
    """Workspace off the FrameIR quad table and the cached arrival chain.

    The pixel-sorted view comes straight from digestion's shared caches
    (one radix grouping per stream, already built for the warp model and
    the hw backends); the fragment→quad map inverts the IR's four per-quad
    emission slots — the IR quads are exactly the legacy ``np.unique``
    quad set (PR 5's equality contract), so every per-batch count below is
    identical to the oracle's.
    """
    stream._ensure_arrival_sorted()
    order = stream._pixel_order
    pix_sorted = stream._cache["pix_sorted"]
    arrival_sorted = stream._cache["arrival_sorted"]

    quads = stream.frameir.quads()
    n = len(stream)
    quad_of_frag_emit = np.empty(n, dtype=np.int64)
    qidx = np.arange(len(quads), dtype=np.int64)
    for s in quads.slots():
        present = s < n
        quad_of_frag_emit[s[present]] = qidx[present]
    return _MultipassWorkspace(
        pix_sorted=pix_sorted,
        prim_sorted=stream.prim_ids[order].astype(np.int64),
        arrival_sorted=arrival_sorted,
        unpruned_sorted=stream.unpruned[order],
        quad_of_frag=quad_of_frag_emit[order],
        quad_prim=quads.meta("prim_ids"),
    )


def _multipass_workspace_legacy(stream):
    """The retained fragment-sort oracle workspace: a full lexsort of the
    stream plus a ``np.unique`` over (prim, quad) keys.

    A quad key embeds its primitive, so every fragment of a quad shares
    one batch — the per-quad primitive id read off the unique keys
    replaces the old ``np.maximum.at`` scatter exactly.
    """
    order = np.lexsort((stream.prim_ids, stream.pixel_ids))
    qx = (stream.x // 2).astype(np.int64)
    qy = (stream.y // 2).astype(np.int64)
    quads_x = -(-stream.width // 2)
    quads_y = -(-stream.height // 2)
    quad_key = (stream.prim_ids.astype(np.int64) * (quads_x * quads_y)
                + qy * quads_x + qx)
    unique_quads, inverse = np.unique(quad_key, return_inverse=True)
    return _MultipassWorkspace(
        pix_sorted=stream.pixel_ids[order],
        prim_sorted=stream.prim_ids[order].astype(np.int64),
        arrival_sorted=stream.arrival_alpha[order],
        unpruned_sorted=stream.unpruned[order],
        quad_of_frag=inverse[order],
        quad_prim=unique_quads // (quads_x * quads_y),
    )


def _multipass_workspace(stream):
    if stream.frameir is not None:
        return _multipass_workspace_ir(stream)
    return _multipass_workspace_legacy(stream)


def run_multipass(stream, n_passes, config=None, threshold=None,
                  _workspace=None):
    """Simulate Algorithm 1 with ``n_passes`` over a fragment stream."""
    if not isinstance(stream, FragmentStream):
        raise TypeError(
            f"stream must be a FragmentStream, got {type(stream).__name__}")
    if n_passes < 1:
        raise ValueError(f"n_passes must be >= 1, got {n_passes}")
    config = config or GPUConfig()
    threshold = config.termination_alpha if threshold is None else threshold

    n_prims = stream.prim_colors.shape[0]
    if n_prims == 0 or len(stream) == 0:
        return MultipassResult(n_passes, [], [], 0.0, 0)
    ws = _workspace if _workspace is not None \
        else _multipass_workspace(stream)

    # Batch of each primitive: N equal slices of the depth order.  The
    # split is non-decreasing in primitive id, and fragments within a
    # pixel arrive primitive-ascending, so (pixel, batch) runs are
    # contiguous in the pixel-sorted domain — the pass-start accumulated
    # alpha (stencil state frozen at pass boundaries) is a run-boundary
    # gather, no per-N sort.
    batch_of_prim = np.minimum(
        (np.arange(n_prims, dtype=np.int64) * n_passes) // max(n_prims, 1),
        n_passes - 1)
    fb = batch_of_prim[ws.prim_sorted]
    n = fb.shape[0]
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.logical_or(ws.pix_sorted[1:] != ws.pix_sorted[:-1],
                  fb[1:] != fb[:-1], out=new_run[1:])
    run_starts = np.flatnonzero(new_run)
    lengths = np.diff(np.concatenate(
        (run_starts, np.asarray([n], dtype=np.int64))))
    pass_start = np.repeat(ws.arrival_sorted[run_starts], lengths)

    stencil_pass = pass_start < threshold
    blended = stencil_pass & ws.unpruned_sorted

    # Quad-level aggregation per batch: a quad's fragments share one
    # primitive (the quad identity embeds it), hence one batch.
    quad_sm = np.zeros(ws.n_quads, dtype=bool)
    quad_sm[ws.quad_of_frag[stencil_pass]] = True
    quad_crop = np.zeros(ws.n_quads, dtype=bool)
    quad_crop[ws.quad_of_frag[blended]] = True
    quad_batch = batch_of_prim[ws.quad_prim]

    prims_per_batch = np.bincount(batch_of_prim, minlength=n_passes)
    quads_total = np.bincount(quad_batch, minlength=n_passes)
    quads_to_sm = np.bincount(quad_batch[quad_sm], minlength=n_passes)
    quads_to_crop = np.bincount(quad_batch[quad_crop], minlength=n_passes)

    batch_cycles = []
    stencil_cycles = []
    total = 0.0
    for b in range(n_passes):
        cyc = _pass_cycles(
            config,
            n_prims=int(prims_per_batch[b]),
            quads_total=int(quads_total[b]),
            quads_to_sm=int(quads_to_sm[b]),
            quads_to_crop=int(quads_to_crop[b]),
        ) + DRAW_CALL_OVERHEAD_CYCLES
        batch_cycles.append(cyc)
        total += cyc
        if b < n_passes - 1:
            stencil = (_stencil_update_cycles(config, stream.width,
                                              stream.height)
                       + DRAW_CALL_OVERHEAD_CYCLES)
            stencil_cycles.append(stencil)
            total += stencil

    return MultipassResult(
        n_passes, batch_cycles, stencil_cycles, total,
        fragments_blended=int(blended.sum()))


def multipass_sweep(stream, pass_counts, config=None):
    """Speedup over the single-pass baseline for each N (Figure 11).

    The sort/quad workspace is built once and shared across every pass
    count — the per-N work is batching arithmetic only.
    """
    config = config or GPUConfig()
    ws = None
    if stream.prim_colors.shape[0] and len(stream):
        ws = _multipass_workspace(stream)
    baseline = run_multipass(stream, 1, config, _workspace=ws)
    sweep = {}
    for n in pass_counts:
        result = run_multipass(stream, int(n), config, _workspace=ws)
        sweep[int(n)] = result.speedup_over(baseline.total_cycles)
    return sweep
