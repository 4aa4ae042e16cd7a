"""VR-Pipe variants, end-to-end hardware rendering, and hardware cost.

The four evaluated variants of Figure 16 are configurations of the same
pipeline model:

========  ====================  ==================
variant   early termination      quad merging
========  ====================  ==================
baseline  off                    off
qm        off                    on (TGC + QRU)
het       on (stencil MSB)       off
het+qm    on                     on
========  ====================  ==================

:class:`HardwareRenderer` adds the preprocessing and sort kernel costs
(single global sort — no per-tile duplication) to the pipeline simulation
of a fragment stream: the paper's "hardware-based (OpenGL) rendering"
path, with the Figure 5/17 kernel breakdown.
"""

from __future__ import annotations

from repro.hwmodel.config import GPUConfig, jetson_agx_orin
from repro.hwmodel.pipeline import DrawWorkload, GraphicsPipeline
from repro.hwmodel.prop import qru_storage_bytes
from repro.hwmodel.tgc import TileGridCoalescer
from repro.render.reference import RenderResult
from repro.swrender.renderer import SWKernelModel

#: The evaluated hardware variants: name -> (enable_het, enable_qm).
VARIANTS = {
    "baseline": (False, False),
    "qm": (False, True),
    "het": (True, False),
    "het+qm": (True, True),
}


def variant_config(variant, device=None, **overrides):
    """A :class:`GPUConfig` for one of the four variants.

    ``device`` is a base config (defaults to the Table I Orin-like GPU).
    """
    if variant not in VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; choose from {sorted(VARIANTS)}")
    het, qm = VARIANTS[variant]
    base = device if device is not None else jetson_agx_orin()
    if not isinstance(base, GPUConfig):
        raise TypeError("device must be a GPUConfig")
    return base.variant(enable_het=het, enable_qm=qm, **overrides)


def run_variant(stream, variant, device=None, **overrides):
    """Simulate one draw call under ``variant``; returns a DrawResult."""
    config = variant_config(variant, device, **overrides)
    return GraphicsPipeline(config).draw(stream)


def run_all_variants(stream, device=None, **overrides):
    """Simulate all four variants on the same stream."""
    return {name: run_variant(stream, name, device, **overrides)
            for name in VARIANTS}


def speedups_over_baseline(results):
    """Speedup of each variant over ``results['baseline']`` (Figure 16)."""
    if "baseline" not in results:
        raise KeyError("results must include the 'baseline' variant")
    base = results["baseline"].cycles
    return {name: base / res.cycles for name, res in results.items()}


def hardware_cost_bytes(config=None):
    """Table III: storage cost of the VR-Pipe extensions, in bytes.

    Returns ``{"tgc": ..., "qru": ..., "total": ...}``; with the Table I
    configuration this reproduces 24.25 KB + 688 B = 24.92 KB.
    """
    config = config or jetson_agx_orin()
    tgc = TileGridCoalescer(config.n_tgc_bins, config.tgc_bin_prims)
    tgc_bytes = tgc.storage_bytes()
    qru_bytes = qru_storage_bytes(n_quad_buffer=config.tc_bin_quads)
    return {"tgc": tgc_bytes, "qru": qru_bytes,
            "total": tgc_bytes + qru_bytes}


class HWRenderResult(RenderResult):
    """Output of :meth:`HardwareRenderer.render_stream`.

    The image blends under the draw's termination rule (HET on or off),
    deferred as in :class:`~repro.render.reference.RenderResult`.
    """

    def __init__(self, draw_result, preprocess_cycles,
                 sort_cycles, stream, pre):
        config = draw_result.config
        super().__init__(stream, pre, early_term=config.enable_het,
                         threshold=config.termination_alpha)
        self.draw = draw_result
        self.preprocess_cycles = float(preprocess_cycles)
        self.sort_cycles = float(sort_cycles)

    @property
    def total_cycles(self):
        return self.preprocess_cycles + self.sort_cycles + self.draw.cycles

    def breakdown_ms(self):
        """Figure 5 style breakdown: preprocess / sort / rasterize in ms."""
        scale = 1e3 / self.draw.config.frequency_hz()
        return {
            "preprocess": self.preprocess_cycles * scale,
            "sort": self.sort_cycles * scale,
            "rasterize": self.draw.cycles * scale,
        }

    def total_ms(self):
        return self.total_cycles / self.draw.config.frequency_hz() * 1e3

    def fps(self):
        total = self.total_ms()
        return 1000.0 / total if total > 0 else float("inf")


class HardwareRenderer:
    """End-to-end hardware (OpenGL-path) renderer.

    Preprocessing shares the per-Gaussian kernel cost with the CUDA path
    but pays *no duplication* — the graphics hardware handles tiling — and
    the sort covers only the visible Gaussians once (Section III-A).

    Parameters
    ----------
    config:
        Pipeline configuration (pick a variant via
        :func:`variant_config`); defaults to the HET+QM VR-Pipe.
    kernel_model:
        Calibrated preprocessing/sort kernel costs (shared with
        :class:`~repro.swrender.renderer.CudaRenderer` for a fair
        comparison).

    Draws always run the batched flush engine (:attr:`engine`); the
    scalar reference is chosen only at
    :meth:`~repro.hwmodel.pipeline.GraphicsPipeline.draw`.

    The renderer is stateless across frames.  The digestion path follows
    the stream (see :func:`~repro.render.splat_raster.rasterize_splats`),
    and cross-frame digestion reuse lives in
    :class:`~repro.engine.session.RenderSession`.
    """

    #: Flush engine of every draw this renderer runs.
    engine = "batched"

    def __init__(self, config=None, kernel_model=None):
        self.config = config if config is not None else variant_config("het+qm")
        if not isinstance(self.config, GPUConfig):
            raise TypeError("config must be a GPUConfig")
        self.kernel_model = kernel_model or SWKernelModel()

    def render_stream(self, stream, pre=None):
        """Render a fragment stream; returns an :class:`HWRenderResult`.

        ``pre`` sizes the preprocessing kernel (the stream's visible
        splats otherwise).  Each draw starts on a cold CROP cache and a
        cleared termination stencil, as in hardware.  That is what makes
        the draw a pure function of the stream's content and the config,
        so :meth:`~repro.hwmodel.pipeline.GraphicsPipeline.draw` memoizes
        it with the stream, and a coherence full hit of a revisited frame
        returns it without running a unit.
        """
        model = self.kernel_model
        n_gaussians = (pre.n_input if pre is not None
                       else stream.prim_colors.shape[0])
        n_visible = stream.prim_colors.shape[0]
        preprocess_cycles = model.preprocess_cycles(n_gaussians, 0)
        sort_cycles = model.sort_cycles(n_visible)
        workload = DrawWorkload.from_stream(stream, self.config)
        draw = GraphicsPipeline(self.config).draw(workload)
        return HWRenderResult(draw, preprocess_cycles,
                              sort_cycles, stream, pre)
