"""Analytic model of GSCore, the dedicated 3DGS accelerator (ASPLOS'24).

Figure 22 compares VR-Pipe against GSCore and finds the dedicated
accelerator faster (VR-Pipe shows a 1.5-3x slowdown) — the expected price of
VR-Pipe's generality (it runs standard graphics APIs; GSCore needs custom
compilers/runtime and renders only Gaussian splatting).

GSCore's advantages, per its paper, are (1) shape-aware intersection tests
that skip ineffective Gaussian-tile pairs, (2) hierarchical bitonic sorting
units, and (3) an array of dedicated volume-rendering units (VRUs) that
blend with perfect early termination and no quad-granularity loss — it
processes *fragments*, not quads, so partially-covered quads cost nothing.
We model those properties analytically on top of the same fragment stream;
constants reflect GSCore's published configuration scaled to the Table I
clock so the comparison is iso-frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.render.fragstream import FragmentStream


@dataclass
class GSCoreConfig:
    """GSCore-like accelerator parameters (calibrated; see module docs).

    ``vru_fragments_per_cycle`` — aggregate blending throughput of the VRU
    array.  GSCore-1 has 16 VRUs x 2 lanes; at fragment granularity with
    early termination this sustains ~20 useful fragments/cycle after load
    imbalance.
    """

    ccu_gaussians_per_cycle: float = 2.0     # culling & conversion unit
    gsu_keys_per_cycle: float = 4.0          # Gaussian sorting unit
    vru_fragments_per_cycle: float = 20.0    # volume rendering units
    alpha_eval_fragments_per_cycle: float = 32.0


class GSCoreModel:
    """Cycle estimate for rendering a fragment stream on GSCore."""

    def __init__(self, config=None):
        self.config = config or GSCoreConfig()

    def render_cycles(self, stream, n_gaussians=None):
        """Cycles to render ``stream`` (same draw-call scope as the GPU model).

        The accelerator pipelines culling, sorting, and rendering; the
        bottleneck stage dominates.  Rendering pays alpha evaluation for
        every fragment that arrives before its pixel terminates and a blend
        for the unpruned subset.
        """
        if not isinstance(stream, FragmentStream):
            raise TypeError(
                f"stream must be a FragmentStream, got {type(stream).__name__}")
        cfg = self.config
        n_gaussians = (stream.prim_colors.shape[0] if n_gaussians is None
                       else int(n_gaussians))
        # Perfect termination at the paper's threshold (the stream default).
        frag_alive = int(stream.unterminated_on_arrival().sum())
        frag_blend = int(stream.et_survivor_mask().sum())

        ccu = n_gaussians / cfg.ccu_gaussians_per_cycle
        gsu = n_gaussians / cfg.gsu_keys_per_cycle
        vru = (frag_alive / cfg.alpha_eval_fragments_per_cycle
               + frag_blend / cfg.vru_fragments_per_cycle)
        return max(ccu, gsu, vru)

    def slowdown_of(self, draw_result, stream):
        """VR-Pipe's slowdown versus GSCore (Figure 22's y-axis).

        ``draw_result`` is the VR-Pipe (HET+QM) pipeline result on the same
        stream; values > 1 mean GSCore is faster.
        """
        gscore = self.render_cycles(stream)
        if gscore <= 0:
            raise ValueError("GSCore cycle estimate must be positive")
        return draw_result.cycles / gscore
