"""SIMT-core (SM) model: warp formation and shading cost.

The shader cores matter to the cycle model only through aggregate issue
bandwidth: a GPC with 16 SMs and 4 warp schedulers each can issue 64
warp-instructions per cycle.  Fragment warps for Gaussian splatting cost
``frag_shader_cycles_per_warp`` issue slots (the conic dot product,
exponential, pruning branch — cheap shaders, per §III-B), and merge warps
pay ``quad_merge_extra_cycles`` per pair for the warp shuffle + partial
blend of Figure 15.
"""

from __future__ import annotations

import numpy as np

from repro.hwmodel.units import (
    QUAD_THREADS,
    QUADS_PER_WARP,
    WARP_SIZE,
    ceil_div,
    warps_for_quads,
)


class ShaderArray:
    """Issue-bandwidth accounting for the GPC's SMs."""

    def __init__(self, config, stats):
        self.config = config
        self.stats = stats

    def shade_vertex_batch(self, n_vertices):
        """Account vertex-shader work for ``n_vertices`` (4 per splat)."""
        if n_vertices == 0:
            return
        warps = ceil_div(n_vertices, WARP_SIZE)
        issue = warps * self.config.vert_shader_cycles_per_warp
        self.stats.units["sm"].add(
            warps, issue / self.config.sm_issue_slots_per_cycle)
        self.stats.n_vertices += int(n_vertices)

    def shade_fragment_batch(self, n_quads, n_merge_pairs=0):
        """Account fragment shading of one dispatch from the PROP.

        ``n_quads`` counts quads entering the shader (merge pairs count as
        two — both are shaded before the partial blend collapses them).
        """
        if n_quads == 0:
            return
        warps = warps_for_quads(n_quads)
        issue = (warps * self.config.frag_shader_cycles_per_warp
                 + n_merge_pairs * self.config.quad_merge_extra_cycles)
        self.stats.units["sm"].add(
            warps, issue / self.config.sm_issue_slots_per_cycle)
        self.stats.warps_launched += warps
        if n_merge_pairs:
            self.stats.merge_warps += min(
                warps, ceil_div(2 * n_merge_pairs, QUADS_PER_WARP))
        self.stats.quads_to_sm += int(n_quads)
        self.stats.fragments_shaded += int(n_quads) * QUAD_THREADS

    def shade_fragment_batches(self, n_quads, n_merge_pairs):
        """Vectorised equivalent of per-flush :meth:`shade_fragment_batch`.

        ``n_quads`` and ``n_merge_pairs`` are parallel per-flush arrays;
        flushes with zero quads contribute nothing, matching the scalar
        early return.  Issue cycles accumulate via
        :meth:`~repro.hwmodel.stats.UnitStats.add_sequence`, keeping the
        totals bit-identical to one call per flush.
        """
        n_quads = np.asarray(n_quads, dtype=np.int64)
        pairs = np.asarray(n_merge_pairs, dtype=np.int64)
        if n_quads.size == 0:
            return
        cfg = self.config
        warps = -(-n_quads // QUADS_PER_WARP)
        issue = (warps * cfg.frag_shader_cycles_per_warp
                 + pairs * cfg.quad_merge_extra_cycles)
        self.stats.units["sm"].add_sequence(
            int(warps.sum()), issue / cfg.sm_issue_slots_per_cycle)
        self.stats.warps_launched += int(warps.sum())
        self.stats.merge_warps += int(
            np.minimum(warps, -(-2 * pairs // QUADS_PER_WARP)).sum())
        self.stats.quads_to_sm += int(n_quads.sum())
        self.stats.fragments_shaded += int(n_quads.sum()) * QUAD_THREADS
