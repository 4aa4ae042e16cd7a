"""Reference renderer: the ground-truth image every simulator must match.

Composes preprocessing (cull/colour/project/sort), rasterisation, and
per-pixel front-to-back blending.  The early-termination variant implements
the paper's termination rule (stop blending a pixel once accumulated alpha
reaches 0.996) at perfect fragment granularity.
"""

from __future__ import annotations

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.preprocess import preprocess
from repro.render.fragstream import DEFAULT_TERMINATION_ALPHA, FragmentStream
from repro.render.splat_raster import rasterize_splats


class RenderResult:
    """Output of :func:`render_reference`.

    Attributes
    ----------
    image:
        ``(h, w, 3)`` float RGB (premultiplied composite over black).
    alpha:
        ``(h, w)`` accumulated alpha.
    stream:
        The :class:`FragmentStream` the image was blended from — reused by
        the timing simulators so they never re-rasterise.
    preprocess:
        The :class:`~repro.gaussians.preprocess.PreprocessResult`.
    """

    def __init__(self, image, alpha, stream, preprocess_result):
        self.image = image
        self.alpha = alpha
        self.stream = stream
        self.preprocess = preprocess_result

    def psnr_against(self, other_image, peak=1.0):
        """PSNR (dB) of this image against ``other_image``."""
        other_image = np.asarray(other_image, dtype=np.float64)
        if other_image.shape != self.image.shape:
            raise ValueError(
                f"shape mismatch: {other_image.shape} vs {self.image.shape}")
        mse = float(np.mean((self.image - other_image) ** 2))
        if mse == 0.0:
            return float("inf")
        return 10.0 * np.log10(peak * peak / mse)


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
    image, alpha = stream.blend_image(early_term=early_term, threshold=threshold)
    return RenderResult(image=image, alpha=alpha, stream=stream,
                        preprocess_result=pre)


def render_stream(stream, early_term=False,
                  threshold=DEFAULT_TERMINATION_ALPHA):
    """Blend an existing fragment stream (no re-rasterisation)."""
    if not isinstance(stream, FragmentStream):
        raise TypeError(
            f"stream must be a FragmentStream, got {type(stream).__name__}")
    return stream.blend_image(early_term=early_term, threshold=threshold)
