"""Functional rendering core shared by every simulator in the library.

``splat_raster`` turns depth-sorted 2D splats into a deterministic
:class:`FragmentStream`; ``fragstream`` computes per-pixel blending orders,
transmittances, early-termination ranks and quad groupings from that stream;
``reference`` produces ground-truth images and the deferred-blend
:class:`RenderResult` every render path returns.  All timing models (hardware
pipeline, CUDA-style software renderer, software optimisations) consume the
same stream, so functional results are comparable across variants and the
paper's invariants are directly testable.
"""

from repro.render.blending import (
    accumulate_front_to_back,
    front_to_back_blend,
    premultiply,
)
from repro.render.frameir import IR_MODES, FrameIR, resolve_ir
from repro.render.splat_raster import rasterize_splats, rasterize_splats_scalar
from repro.render.fragstream import FragmentStream, QuadTable
from repro.render.reference import RenderResult, render_reference
from repro.render.metrics import psnr, ssim
from repro.render.image_io import read_ppm, write_ppm

__all__ = [
    "accumulate_front_to_back",
    "front_to_back_blend",
    "premultiply",
    "rasterize_splats",
    "rasterize_splats_scalar",
    "FragmentStream",
    "FrameIR",
    "IR_MODES",
    "QuadTable",
    "resolve_ir",
    "RenderResult",
    "render_reference",
    "psnr",
    "ssim",
    "read_ppm",
    "write_ppm",
]
