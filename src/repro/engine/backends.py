"""Renderer backends: every rendering path behind one spec string.

The library has three rendering paths — the hardware pipeline
(:class:`~repro.core.vrpipe.HardwareRenderer`), the CUDA-style software
renderer (:class:`~repro.swrender.renderer.CudaRenderer`), and the
reference blender — each with its own result type.  A backend wraps one
path and returns the common :class:`FrameResult`; :func:`create_backend`
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
from repro.gaussians.preprocess import preprocess
from repro.hwmodel.caches import LRUCache
from repro.hwmodel.config import jetson_agx_orin, rtx_3090
from repro.render.fragstream import DEFAULT_TERMINATION_ALPHA
from repro.render.splat_raster import rasterize_splats
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


def make_cuda_renderer(device_name="orin", early_term=True, swmodel="auto"):
    """A CUDA-path renderer matched to the device's clock and SM count."""
    device = make_device(device_name)
    return CudaRenderer(kernel_model=device_kernel_model(device),
                        frequency_hz=device.frequency_hz(),
                        early_term=early_term, swmodel=swmodel)


class FrameResult:
    """One rendered frame in the engine's common schema.

    ``cycles``/``ms``/``fps`` are ``None`` for the reference backend,
    which is functional-only.  ``n_fragments`` counts the rasterised
    fragments of the frame (framebench records it).  ``kernels`` is the per-kernel millisecond
    breakdown (preprocess / sort / rasterize) when the path models it.
    ``pipeline_stats`` carries the hardware model's
    :class:`~repro.hwmodel.stats.PipelineStats` when available, and
    ``raw`` the backend's native result object.

    ``image``/``alpha`` may be deferred: a backend can hand an
    ``image_source`` (any object with lazy ``image``/``alpha`` attributes,
    e.g. :class:`~repro.core.vrpipe.HWRenderResult`) instead of eager
    arrays, and the blend then runs on first property access — sessions
    that keep only numeric records never trigger it.
    """

    def __init__(self, backend, image=None, alpha=None, cycles=None,
                 ms=None, fps=None, kernels=None, et_ratio=None,
                 n_fragments=None, pipeline_stats=None, raw=None,
                 image_source=None):
        self.backend = backend
        self._image = image
        self._alpha = alpha
        self._image_source = image_source
        self.cycles = cycles
        self.ms = ms
        self.fps = fps
        self.kernels = dict(kernels) if kernels else {}
        self.et_ratio = et_ratio
        self.n_fragments = n_fragments
        self.pipeline_stats = pipeline_stats
        self.raw = raw

    @property
    def image(self):
        if self._image is None and self._image_source is not None:
            self._image = self._image_source.image
        return self._image

    @property
    def alpha(self):
        if self._alpha is None and self._image_source is not None:
            self._alpha = self._image_source.alpha
        return self._alpha


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
        self.variant = variant
        self.config = variant_config(variant, device)
        self.renderer = HardwareRenderer(
            config=self.config, kernel_model=device_kernel_model(device))

    def render(self, cloud, camera, crop_cache=None):
        res = self.renderer.render(cloud, camera, crop_cache=crop_cache)
        return self._wrap(res)

    def render_stream(self, stream, pre=None, crop_cache=None):
        res = self.renderer.render_stream(stream, pre, crop_cache=crop_cache)
        return self._wrap(res)

    def new_crop_cache(self):
        return LRUCache(self.config.crop_cache_kb * 1024,
                        self.config.cache_line_bytes)

    def _wrap(self, res):
        return FrameResult(
            backend=self.spec,
            image_source=res,
            cycles=res.total_cycles,
            ms=res.total_ms(),
            fps=res.fps(),
            kernels=res.breakdown_ms(),
            et_ratio=res.stream.termination_ratio(
                self.config.termination_alpha),
            n_fragments=len(res.stream),
            pipeline_stats=res.draw.stats,
            raw=res,
        )


class _CachelessBackend:
    """A backend without a CROP cache to persist across frames."""

    def new_crop_cache(self):
        return None

    def _check_no_cache(self, crop_cache):
        if crop_cache is not None:
            raise ValueError(
                f"backend {self.spec!r} has no CROP cache to persist")


class CudaBackend(_CachelessBackend):
    """CUDA-style software rendering (Figure 5's SW path).

    ``renderer`` comes from :func:`make_cuda_renderer`; its ``swmodel``
    selects the warp-model engine (FrameIR-backed or the fragment-sort
    oracle, see :mod:`repro.swrender.warp_model`) — a bit-identical mode
    pair.
    """

    def __init__(self, spec, renderer):
        self.spec = spec
        self.renderer = renderer

    def render(self, cloud, camera, crop_cache=None):
        self._check_no_cache(crop_cache)
        return self._wrap(self.renderer.render(cloud, camera))

    def render_stream(self, stream, pre=None, crop_cache=None):
        self._check_no_cache(crop_cache)
        return self._wrap(self.renderer.render_stream(stream, pre))

    def _wrap(self, res):
        return FrameResult(
            backend=self.spec,
            image_source=res,
            cycles=res.timing.total_cycles,
            ms=res.timing.total_ms(),
            fps=res.timing.fps(),
            kernels=res.timing.breakdown_ms(),
            et_ratio=res.stream.termination_ratio(self.renderer.threshold),
            n_fragments=len(res.stream),
            pipeline_stats=None,
            raw=res,
        )


class ReferenceBackend(_CachelessBackend):
    """Ground-truth blender: functional output only, no timing model."""

    def __init__(self, spec):
        self.spec = spec

    def render(self, cloud, camera, crop_cache=None):
        self._check_no_cache(crop_cache)
        pre = preprocess(cloud, camera)
        stream = rasterize_splats(pre.splats, camera.width, camera.height)
        return self.render_stream(stream, pre)

    def render_stream(self, stream, pre=None, crop_cache=None):
        self._check_no_cache(crop_cache)
        image, alpha = stream.blend_image(early_term=False)
        return FrameResult(
            backend=self.spec,
            image=image,
            alpha=alpha,
            et_ratio=stream.termination_ratio(DEFAULT_TERMINATION_ALPHA),
            n_fragments=len(stream),
            raw=stream,
        )




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
    if path == "cuda":
        return CudaBackend(spec, make_cuda_renderer(
            device_name, early_term=arg, swmodel=swmodel))
    device = make_device(device_name)
    if path == "hw":
        return HardwareBackend(spec, arg, device)
    return ReferenceBackend(spec)
