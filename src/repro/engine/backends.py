"""Renderer backends: every rendering path behind one spec string.

The library has three rendering paths — the hardware pipeline
(:class:`~repro.core.vrpipe.HardwareRenderer`), the CUDA-style software
renderer (:class:`~repro.swrender.renderer.CudaRenderer`), and the
reference blender — each rendering a fragment stream into a
:class:`~repro.render.reference.RenderResult`.  A backend wraps one path
and returns the common :class:`FrameResult`; :func:`create_backend`
builds it from a spec in the constant :data:`BACKENDS` table, so callers
(sessions, the CLI) select a path by string:

==============  ======================================================
spec            path
==============  ======================================================
``hw:baseline``  hardware pipeline, no VR-Pipe extensions
``hw:qm``        hardware pipeline + quad merging (TGC/QRU)
``hw:het``       hardware pipeline + hardware early termination
``hw:het+qm``    full VR-Pipe
``cuda``         CUDA-style software renderer, no early termination
``cuda+et``      CUDA-style software renderer with early termination
``reference``    ground-truth blender (functional only, no timing)
==============  ======================================================
"""

from __future__ import annotations

from repro.core.vrpipe import VARIANTS, HardwareRenderer, variant_config
from repro.hwmodel.config import jetson_agx_orin, rtx_3090
from repro.render.reference import RenderResult
from repro.swrender.renderer import CudaRenderer, SWKernelModel


def make_device(device_name):
    """Device presets shared by every backend and the experiments."""
    if device_name == "orin":
        return jetson_agx_orin()
    if device_name == "rtx3090":
        return rtx_3090()
    raise ValueError(f"unknown device {device_name!r}; use 'orin' or 'rtx3090'")


def device_kernel_model(device):
    """The calibrated CUDA-kernel model matched to ``device``'s SM array."""
    return SWKernelModel(issue_slots=float(device.sm_issue_slots_per_cycle))


class FrameResult:
    """One rendered frame in the engine's common schema.

    ``raw`` is the path's own result, a
    :class:`~repro.render.reference.RenderResult` (the hardware and CUDA
    results subclass it): ``image``/``alpha`` read its deferred blend, so
    sessions that keep only numeric records never blend, and
    ``raw.stream`` is the frame's fragment stream on every backend.
    ``et_ratio`` and ``n_fragments`` (framebench records it) come from
    that stream.  ``cycles``/``ms``/``fps`` are ``None`` for the
    reference backend, which is functional-only.  ``kernels`` is the
    per-kernel millisecond breakdown (preprocess / sort / rasterize) when
    the path models it, and ``pipeline_stats`` the hardware model's
    :class:`~repro.hwmodel.stats.PipelineStats` when available.
    """

    def __init__(self, backend, raw, cycles=None, ms=None, fps=None,
                 kernels=None, pipeline_stats=None):
        self.backend = backend
        self.raw = raw
        self.cycles = cycles
        self.ms = ms
        self.fps = fps
        self.kernels = dict(kernels) if kernels else {}
        self.et_ratio = raw.stream.termination_ratio(raw.threshold)
        self.n_fragments = len(raw.stream)
        self.pipeline_stats = pipeline_stats

    @property
    def image(self):
        return self.raw.image

    @property
    def alpha(self):
        return self.raw.alpha


class HardwareBackend:
    """Hardware (OpenGL-path) rendering under one VR-Pipe variant.

    The pipeline runs its default batched flush engine; the scalar
    per-flush engine is a test oracle only.  The backend is stateless
    across frames; the digestion path is chosen where a stream is
    rasterised, and cross-frame digestion reuse lives in
    :class:`~repro.engine.session.RenderSession`.
    """

    def __init__(self, spec, variant, device):
        self.spec = spec
        self.renderer = HardwareRenderer(
            config=variant_config(variant, device),
            kernel_model=device_kernel_model(device))

    def render_stream(self, stream, pre=None):
        res = self.renderer.render_stream(stream, pre)
        return FrameResult(self.spec, res, cycles=res.total_cycles,
                           ms=res.total_ms(), fps=res.fps(),
                           kernels=res.breakdown_ms(),
                           pipeline_stats=res.draw.stats)


class CudaBackend:
    """CUDA-style software rendering (Figure 5's SW path).

    ``renderer`` is a :class:`~repro.swrender.renderer.CudaRenderer`
    matched to the device's clock and SM count; its ``swmodel`` selects
    the warp-model engine (FrameIR-backed or the fragment-sort oracle,
    see :mod:`repro.swrender.warp_model`) — a bit-identical mode pair.
    """

    def __init__(self, spec, renderer):
        self.spec = spec
        self.renderer = renderer

    def render_stream(self, stream, pre=None):
        res = self.renderer.render_stream(stream, pre)
        timing = res.timing
        return FrameResult(self.spec, res, cycles=timing.total_cycles,
                           ms=timing.total_ms(), fps=timing.fps(),
                           kernels=timing.breakdown_ms())


class ReferenceBackend:
    """Ground-truth blender: functional output only, no timing model."""

    def __init__(self, spec):
        self.spec = spec

    def render_stream(self, stream, pre=None):
        return FrameResult(self.spec, RenderResult(stream, pre))


#: Every backend spec: ``spec -> (path, argument)``.  The argument is the
#: hardware variant for ``"hw"`` and the early-termination flag for
#: ``"cuda"``.
BACKENDS = {
    **{f"hw:{variant}": ("hw", variant) for variant in VARIANTS},
    "cuda": ("cuda", False),
    "cuda+et": ("cuda", True),
    "reference": ("reference", None),
}


def available_backends():
    """Every backend spec, sorted."""
    return sorted(BACKENDS)


def create_backend(spec, device_name="orin", swmodel="auto"):
    """Build the backend named by ``spec`` on the ``device_name`` preset.

    ``swmodel`` sets the software path's model engine (see
    :mod:`repro.swrender.warp_model`) and reaches only that path.  Neither
    the digestion path nor cross-frame digestion reuse is a backend knob:
    the first is chosen by
    :func:`~repro.render.splat_raster.rasterize_splats`, the second lives
    in :class:`~repro.engine.session.RenderSession`.
    """
    try:
        path, arg = BACKENDS[spec]
    except KeyError:
        raise ValueError(
            f"unknown backend {spec!r}; available: {available_backends()}"
        ) from None
    device = make_device(device_name)
    if path == "cuda":
        return CudaBackend(spec, CudaRenderer(
            kernel_model=device_kernel_model(device),
            frequency_hz=device.frequency_hz(), early_term=arg,
            swmodel=swmodel))
    if path == "hw":
        return HardwareBackend(spec, arg, device)
    return ReferenceBackend(spec)
