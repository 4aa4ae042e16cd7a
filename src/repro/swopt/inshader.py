"""In-shader blending with and without fragment-shader interlock (§IV-A).

Three ways to blend the same fragment stream:

* **ROP-based** — the normal fixed-function path (the baseline pipeline
  simulation's cycle count).
* **In-shader with interlock** — fragments blend inside the shader guarded
  by ``GL_ARB_fragment_shader_interlock`` configured for primitive-ordered
  entry.  Correct, but every surviving fragment pays the lock acquisition
  overhead, and same-pixel critical sections serialise.
* **In-shader without interlock** — fragments race; fast but produces
  non-deterministic colours (the paper runs it only to show the overhead is
  in the lock, not the raster operations).

The lock cost constant is calibrated so the with-extension slowdown lands in
the paper's 3-10x band (Figure 10, log scale).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hwmodel.pipeline import GraphicsPipeline
from repro.hwmodel.units import warps_for_quads
from repro.render.fragstream import FragmentStream


@dataclass
class InShaderModel:
    """Calibrated costs of the in-shader blending paths (issue slots).

    ``lock_overhead_cycles`` models ordered-interlock acquisition: the
    shader spins until every earlier fragment for any pixel in its quad has
    released the lock.  ``critical_section_cycles`` is the locked
    load-blend-store; ``plain_blend_cycles`` the unguarded read-modify-write.
    The shader cost and the issue bandwidth are the GPU's own
    (``frag_shader_cycles_per_warp``, ``sm_issue_slots_per_cycle``).
    """

    lock_overhead_cycles: float = 48.0
    critical_section_cycles: float = 20.0
    plain_blend_cycles: float = 10.0


def inshader_comparison(stream, config, model=None, baseline_draw=None):
    """Compare the three blending strategies on one fragment stream.

    ``baseline_draw`` optionally supplies a precomputed baseline-variant
    :class:`~repro.hwmodel.pipeline.DrawResult` for this stream (e.g.
    ``repro.engine.get_draw(scene, "baseline", ...)``, whose memo keeps
    the draw's statistics but not the stream), saving the
    full pipeline re-simulation — it must be the same computation as the
    inline draw: ``config.variant(enable_het=False, enable_qm=False)``.

    Returns a dict with absolute cycles and times normalised to the
    ROP-based path::

        {"rop_cycles": ..., "interlock_cycles": ..., "no_interlock_cycles": ...,
         "interlock_normalized": ..., "no_interlock_normalized": ...}
    """
    if not isinstance(stream, FragmentStream):
        raise TypeError(
            f"stream must be a FragmentStream, got {type(stream).__name__}")
    model = model or InShaderModel()

    if baseline_draw is not None:
        rop_cycles = baseline_draw.cycles
    else:
        baseline_cfg = config.variant(enable_het=False, enable_qm=False)
        rop_cycles = GraphicsPipeline(baseline_cfg).draw(stream).cycles

    quads = stream.quad_table(config.termination_alpha)
    n_quads = len(quads)
    alive_frags = int(stream.unpruned.sum())

    # Shading cost shared by both in-shader paths (the raster front-end is
    # unchanged, and for these paths the SMs are the bottleneck).
    issue_slots = config.sm_issue_slots_per_cycle
    warps = warps_for_quads(n_quads)
    shade = warps * config.frag_shader_cycles_per_warp / issue_slots

    # Ordered interlock: per-fragment acquisition overhead, plus the longest
    # same-pixel critical-section chain (fragments for one pixel serialise).
    counts = stream.fragments_per_pixel("unpruned")
    deepest_pixel = int(counts.max()) if counts.size else 0
    interlock = shade + max(
        alive_frags * model.lock_overhead_cycles / issue_slots,
        deepest_pixel * model.critical_section_cycles,
    )

    no_interlock = shade + alive_frags * model.plain_blend_cycles / issue_slots

    return {
        "rop_cycles": float(rop_cycles),
        "interlock_cycles": float(interlock),
        "no_interlock_cycles": float(no_interlock),
        "interlock_normalized": float(interlock / rop_cycles),
        "no_interlock_normalized": float(no_interlock / rop_cycles),
    }
