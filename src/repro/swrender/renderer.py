"""CUDA-style renderer: kernel-time model plus functional output.

Produces the three kernel times of Figure 5's breakdown — preprocess,
Gaussian sort, rasterise — for the software path, using:

* the tile-duplication counts from :mod:`repro.swrender.tiling`
  (preprocess and sort scale with duplicated pairs);
* the lockstep-warp execution model from :mod:`repro.swrender.warp_model`
  (rasterise time scales with executed warp-rounds).

Functional output reuses the shared fragment stream, so the image is
identical to the reference renderer by construction (the CUDA renderer
computes the same math).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.render.fragstream import DEFAULT_TERMINATION_ALPHA
from repro.render.reference import RenderResult
from repro.swrender.tiling import TileAssignment, assign_tiles
from repro.swrender.warp_model import resolve_swmodel, simulate_tile_warps


@dataclass
class SWKernelModel:
    """Calibrated per-item costs of the CUDA kernels (in GPU cycles).

    The paper gives no kernel microarchitecture, so these constants are
    calibrated against Figure 5's breakdown shape: CUDA preprocessing pays
    per-duplicate work (per-tile buffers, key/index duplication), sorting is
    a linear-pass radix sort over duplicated keys, and rasterisation costs a
    fixed instruction budget per warp-round.

    ``issue_slots`` is the GPC-wide warp-instruction issue bandwidth the
    work spreads across (matching the hardware model's SM array).
    """

    preprocess_cycles_per_gaussian: float = 400.0
    preprocess_cycles_per_duplicate: float = 140.0
    sort_cycles_per_key: float = 120.0
    raster_cycles_per_warp_round: float = 190.0
    blend_extra_cycles: float = 6.0
    issue_slots: float = 64.0

    def preprocess_cycles(self, n_gaussians, n_duplicates):
        ops = (n_gaussians * self.preprocess_cycles_per_gaussian
               + n_duplicates * self.preprocess_cycles_per_duplicate)
        return ops / self.issue_slots

    def sort_cycles(self, n_keys):
        return n_keys * self.sort_cycles_per_key / self.issue_slots

    def raster_cycles(self, warp_rounds, blend_ops):
        ops = (warp_rounds * self.raster_cycles_per_warp_round
               + blend_ops * self.blend_extra_cycles)
        return ops / self.issue_slots


class CudaRenderTiming:
    """Per-kernel cycle counts for one software-rendered frame."""

    def __init__(self, preprocess_cycles, sort_cycles, raster_cycles,
                 frequency_hz):
        self.preprocess_cycles = float(preprocess_cycles)
        self.sort_cycles = float(sort_cycles)
        self.raster_cycles = float(raster_cycles)
        self.frequency_hz = float(frequency_hz)

    @property
    def total_cycles(self):
        return self.preprocess_cycles + self.sort_cycles + self.raster_cycles

    def breakdown_ms(self):
        """``{'preprocess': ms, 'sort': ms, 'rasterize': ms}``."""
        scale = 1e3 / self.frequency_hz
        return {
            "preprocess": self.preprocess_cycles * scale,
            "sort": self.sort_cycles * scale,
            "rasterize": self.raster_cycles * scale,
        }

    def total_ms(self):
        return self.total_cycles / self.frequency_hz * 1e3

    def fps(self):
        total = self.total_ms()
        return 1000.0 / total if total > 0 else float("inf")


class CudaRenderResult(RenderResult):
    """Timing and functional output of :meth:`CudaRenderer.render_stream`.

    The image blends under the renderer's termination rule, deferred as
    in :class:`~repro.render.reference.RenderResult`.
    """

    def __init__(self, timing, stream, warp_exec, tiling,
                 early_term, threshold):
        super().__init__(stream, early_term=early_term, threshold=threshold)
        self.timing = timing
        self.warp_exec = warp_exec
        self.tiling = tiling


class CudaRenderer:
    """The software (CUDA) rendering path of Figure 5.

    Parameters
    ----------
    kernel_model:
        Optional calibrated :class:`SWKernelModel`.
    frequency_hz:
        GPU clock used to convert cycles to milliseconds (defaults to the
        paper's 612 MHz Orin configuration).
    early_term:
        Whether the rasterise kernel applies early termination (the paper's
        end-to-end comparison enables it for the software path).
    swmodel:
        Software-model engine (see :mod:`repro.swrender.warp_model`).
    """

    def __init__(self, kernel_model=None, frequency_hz=612e6, early_term=True,
                 threshold=DEFAULT_TERMINATION_ALPHA, swmodel="auto"):
        self.kernel_model = kernel_model or SWKernelModel()
        self.frequency_hz = float(frequency_hz)
        self.early_term = bool(early_term)
        self.threshold = float(threshold)
        self.swmodel = resolve_swmodel(swmodel)

    def render_stream(self, stream, pre=None):
        """Render a fragment stream; returns a :class:`CudaRenderResult`.

        Tile duplication comes from ``pre`` when given; otherwise the
        stream's own :class:`~repro.render.splat_raster.TileBinning` is
        consumed directly (no re-binning).
        """
        model = self.kernel_model
        tiling = _tiling_for(stream, pre)
        n_gaussians = stream.prim_colors.shape[0]
        warp_exec = simulate_tile_warps(stream, self.threshold,
                                        swmodel=self.swmodel)

        warp_rounds = (warp_exec.rounds_et if self.early_term
                       else warp_exec.rounds_no_et)
        blend_ops = (warp_exec.blend_ops_et if self.early_term
                     else warp_exec.blend_ops_no_et)
        timing = CudaRenderTiming(
            preprocess_cycles=model.preprocess_cycles(
                n_gaussians, tiling.n_pairs),
            sort_cycles=model.sort_cycles(tiling.n_pairs),
            raster_cycles=model.raster_cycles(warp_rounds, blend_ops),
            frequency_hz=self.frequency_hz,
        )
        return CudaRenderResult(timing, stream, warp_exec, tiling,
                                early_term=self.early_term,
                                threshold=self.threshold)


def _tiling_for(stream, pre):
    """Tile duplication for the sort/preprocess kernels.

    ``pre`` reproduces the conservative bbox/16-rounding estimate of
    :func:`~repro.swrender.tiling.assign_tiles` (what the CUDA kernel can
    test cheaply).  Without it, the batched rasteriser's
    :class:`~repro.render.splat_raster.TileBinning` on the stream provides
    the *exact* per-splat tile counts, consumed as-is.
    """
    if pre is not None:
        return assign_tiles(pre.splats, stream.width, stream.height)
    binning = getattr(stream, "binning", None)
    if binning is not None:
        return TileAssignment(binning.pairs_per_splat())
    raise ValueError(
        "render_stream needs the PreprocessResult to size tile duplication; "
        "pass pre= or a stream produced by rasterize_splats (which carries "
        "its TileBinning)")
