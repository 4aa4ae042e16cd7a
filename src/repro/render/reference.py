"""Reference renderer: the ground-truth image every simulator must match.

Composes preprocessing (cull/colour/project/sort), rasterisation, and
per-pixel front-to-back blending.  The early-termination variant implements
the paper's termination rule (stop blending a pixel once accumulated alpha
reaches 0.996) at perfect fragment granularity.
"""

from __future__ import annotations

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.preprocess import preprocess
from repro.render.fragstream import DEFAULT_TERMINATION_ALPHA
from repro.render.splat_raster import rasterize_splats


class RenderResult:
    """A rendered frame: its fragment stream and a deferred blend.

    Every render path returns one (the hardware and CUDA results
    subclass it).  The ``image``/``alpha`` maps are blended from
    ``stream`` on first access: the colour pass adds nothing to any
    simulated cycle count, so callers that keep only numeric records
    never pay for it.

    Attributes
    ----------
    stream:
        The :class:`~repro.render.fragstream.FragmentStream` the image is
        blended from, shared with the timing simulators.
    pre:
        The :class:`~repro.gaussians.preprocess.PreprocessResult`, or
        ``None`` when the stream came without one.
    early_term, threshold:
        The termination rule of the blend.
    image:
        ``(h, w, 3)`` float RGB (premultiplied composite over black).
    alpha:
        ``(h, w)`` accumulated alpha.
    """

    def __init__(self, stream, pre=None, early_term=False,
                 threshold=DEFAULT_TERMINATION_ALPHA):
        self.stream = stream
        self.pre = pre
        self.early_term = bool(early_term)
        self.threshold = float(threshold)
        self._blended = None

    def _blend(self):
        if self._blended is None:
            self._blended = self.stream.blend_image(
                early_term=self.early_term, threshold=self.threshold)
        return self._blended

    @property
    def image(self):
        return self._blend()[0]

    @property
    def alpha(self):
        return self._blend()[1]


def render_reference(cloud, camera, early_term=False,
                     threshold=DEFAULT_TERMINATION_ALPHA):
    """Render a Gaussian cloud from ``camera`` and return a RenderResult.

    Parameters
    ----------
    cloud:
        Scene Gaussians.
    camera:
        Viewpoint.
    early_term:
        Apply the early-termination rule; the resulting image differs from
        the exact composite by at most the residual transmittance
        (``1 - threshold``) per channel.
    """
    if not isinstance(cloud, GaussianCloud):
        raise TypeError(f"cloud must be a GaussianCloud, got {type(cloud).__name__}")
    if not isinstance(camera, Camera):
        raise TypeError(f"camera must be a Camera, got {type(camera).__name__}")
    pre = preprocess(cloud, camera)
    stream = rasterize_splats(pre.splats, camera.width, camera.height)
    return RenderResult(stream, pre, early_term=early_term,
                        threshold=threshold)
