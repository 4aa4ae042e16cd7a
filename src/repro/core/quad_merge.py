"""Quad merging: warp-shuffle partial blending in the fragment shader.

Front-to-back blending is associative (Equation 2):

    f_fb(f_fb(c1, c2), c3) == f_fb(c1, f_fb(c2, c3))

so two quads covering the same pixels, adjacent in blending order, can be
collapsed into one *before* the ROP: the shader threads of the later quad
fetch the earlier quad's premultiplied RGBA via warp shuffle (the QRU placed
the pair in adjacent quad slots) and blend it in front of their own.  The
ROP then blends a single merged quad, halving its workload for that pair —
with a bit-exact final image, unlike approximating schemes such as
quad-fragment merging for MSAA (Section VIII).

This module is the colour spec of QM: the merge math and the Figure 15
warp execution on shaded RGBA.  The timing model counts merges with
:func:`~repro.hwmodel.prop.plan_merges` and never calls this module; the
tests use it to show that merging is exact.  It stays for the hardware
image path of ``ROADMAP.md`` item 20, which will blend QM variants through
it.
"""

from __future__ import annotations

import numpy as np

from repro.hwmodel.prop import MergePlan, plan_merges
from repro.render.blending import front_to_back_blend


def merge_quad_pair(front_rgba, front_coverage, back_rgba, back_coverage):
    """Merge two quads' shaded fragments into one.

    Parameters
    ----------
    front_rgba, back_rgba:
        ``(4, 4)`` premultiplied RGBA per quad lane (lane order is the 2x2
        pixel order); lanes without coverage must be transparent black.
    front_coverage, back_coverage:
        ``(4,)`` boolean coverage per lane.

    Returns ``(merged_rgba, merged_coverage)``.  Uncovered lanes contribute
    identity (transparent black), so the blend is simply ``f_fb`` per lane.
    """
    front_rgba = np.asarray(front_rgba, dtype=np.float64)
    back_rgba = np.asarray(back_rgba, dtype=np.float64)
    if front_rgba.shape != (4, 4) or back_rgba.shape != (4, 4):
        raise ValueError("quad RGBA arrays must have shape (4, 4)")
    front_coverage = np.asarray(front_coverage, dtype=bool)
    back_coverage = np.asarray(back_coverage, dtype=bool)
    merged = front_to_back_blend(front_rgba, back_rgba)
    merged_cov = front_coverage | back_coverage
    merged[~merged_cov] = 0.0
    return merged, merged_cov


def merge_flush_batch(qpos, rgba, coverage):
    """Apply QRU pairing + shuffle merging to one flush batch.

    Parameters
    ----------
    qpos:
        ``(n,)`` quad positions within the tile (0..63), arrival order.
    rgba:
        ``(n, 4, 4)`` shaded premultiplied RGBA per quad lane.
    coverage:
        ``(n, 4)`` boolean lane coverage.

    Returns
    -------
    ``(out_rgba, out_coverage, plan)`` where the outputs hold merged pairs
    first (front quad's slot) then singles, matching the order the PROP
    forwards quads to the CROP, and ``plan`` is the
    :class:`~repro.hwmodel.prop.MergePlan`.
    """
    qpos = np.asarray(qpos)
    rgba = np.asarray(rgba, dtype=np.float64)
    coverage = np.asarray(coverage, dtype=bool)
    n = qpos.shape[0]
    if rgba.shape != (n, 4, 4) or coverage.shape != (n, 4):
        raise ValueError("rgba must be (n, 4, 4) and coverage (n, 4)")
    plan = plan_merges(qpos)
    merged_rgba = []
    merged_cov = []
    for f, s in zip(plan.first, plan.second):
        m_rgba, m_cov = merge_quad_pair(rgba[f], coverage[f],
                                        rgba[s], coverage[s])
        merged_rgba.append(m_rgba)
        merged_cov.append(m_cov)
    for idx in plan.singles:
        merged_rgba.append(rgba[idx])
        merged_cov.append(coverage[idx])
    if merged_rgba:
        out_rgba = np.stack(merged_rgba)
        out_cov = np.stack(merged_cov)
    else:
        out_rgba = np.empty((0, 4, 4))
        out_cov = np.empty((0, 4), dtype=bool)
    return out_rgba, out_cov, plan


def rop_blend_sequence(quads_rgba, quads_coverage):
    """Blend a sequence of quads into a 2x2 pixel block, ROP-style.

    Used by tests to show that merging does not change the block's final
    colour: blending the merged sequence equals blending the original one.
    Returns ``(4, 4)`` premultiplied RGBA per lane.
    """
    quads_rgba = np.asarray(quads_rgba, dtype=np.float64)
    quads_coverage = np.asarray(quads_coverage, dtype=bool)
    acc = np.zeros((4, 4))
    for rgba, cov in zip(quads_rgba, quads_coverage):
        contribution = np.where(cov[:, None], rgba, 0.0)
        acc = front_to_back_blend(acc, contribution)
    return acc


__all__ = [
    "MergePlan",
    "merge_quad_pair",
    "merge_flush_batch",
    "rop_blend_sequence",
]
