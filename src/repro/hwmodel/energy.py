"""Draw-call energy accounting (Figure 19).

Energy is a linear function of the event counts the pipeline simulator
already collects: fragment/vertex shader invocations, CROP blends, ZROP
tests and termination updates, warp-shuffle merges, cache and DRAM traffic,
plus static power over the draw's wall-clock time.  Only *relative* energy
matters for the paper's claim (VR-Pipe is ~1.65x more efficient on average);
the per-op constants live in :class:`~repro.hwmodel.config.EnergyTable`.
"""

from __future__ import annotations


class EnergyBreakdown:
    """Energy per component in joules, plus the total."""

    def __init__(self, components):
        self.components = dict(components)

    @property
    def total_j(self):
        return sum(self.components.values())

    def __repr__(self):
        parts = ", ".join(f"{k}={v * 1e6:.1f}uJ"
                          for k, v in sorted(self.components.items()))
        return f"EnergyBreakdown(total={self.total_j * 1e6:.1f}uJ, {parts})"


def draw_energy(result):
    """Energy of a simulated draw call (:class:`DrawResult`).

    Returns an :class:`EnergyBreakdown`; ``total_j`` divides into the usual
    efficiency metric as ``frames_per_joule = 1 / total_j``.
    """
    stats = result.stats
    cfg = result.config
    table = cfg.energy
    pj = 1e-12
    seconds = stats.total_cycles / cfg.frequency_hz()

    # Fixed per-frame cost: clearing and resolving the colour buffer moves
    # the whole framebuffer through DRAM regardless of variant — one of the
    # reasons measured efficiency (Figure 19: 1.65x) trails the speedup
    # (Figure 16: 2.07x).
    framebuffer_bytes = (result.width * result.height
                         * cfg.bytes_per_pixel * 2.0)

    components = {
        "frame_fixed": table.frame_fixed_uj * 1e-6,
        "framebuffer": framebuffer_bytes * table.dram_byte_pj * pj,
        "fragment_shading": stats.fragments_shaded * table.frag_shade_pj * pj,
        "vertex_shading": stats.n_vertices * table.vert_shade_pj * pj,
        "blending": stats.fragments_blended * table.blend_pj * pj,
        "zrop": (stats.zrop_tests * table.zrop_test_pj
                 + stats.termination_updates * table.term_update_pj) * pj,
        "quad_merge": stats.quads_merged_pairs * 4 * table.warp_shuffle_pj * pj,
        "caches": ((stats.crop_cache_hits + stats.crop_cache_misses)
                   * table.cache_access_pj
                   + stats.crop_cache_misses * table.l2_access_pj) * pj,
        "dram": stats.dram_bytes * table.dram_byte_pj * pj,
        "static": table.static_w * seconds,
    }
    return EnergyBreakdown(components)


def efficiency_ratio(baseline_result, variant_result):
    """Energy-efficiency of ``variant`` relative to ``baseline`` (>1 = better).

    Defined as the ratio of energy per frame, i.e.
    ``E(baseline) / E(variant)`` — the quantity plotted in Figure 19.
    """
    base = draw_energy(baseline_result).total_j
    var = draw_energy(variant_result).total_j
    if var <= 0:
        raise ValueError("variant energy must be positive")
    return base / var
