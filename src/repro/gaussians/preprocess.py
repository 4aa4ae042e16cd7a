"""The full preprocessing step: cull -> SH colour -> project -> sort.

Mirrors Figure 4 of the paper: before the draw call, Gaussians are frustum
culled, assigned a depth (camera-space z of the centre), splatted to screen
space, coloured from SH coefficients and the viewing direction, and sorted
front-to-back.  The output is ready for either rendering path.
"""

from __future__ import annotations

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.culling import frustum_cull
from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.projection import project_gaussians
from repro.gaussians.sh import eval_sh
from repro.gaussians.sorting import depth_sort_indices


class PreprocessResult:
    """Output of :func:`preprocess`.

    Attributes
    ----------
    splats:
        :class:`Splat2D` sorted front-to-back — the draw-call input.
    n_input:
        Gaussians in the original cloud.
    n_visible:
        Gaussians surviving frustum/opacity culling (== ``len(splats)``).
    kept_indices:
        Indices into the original cloud for each splat, in sorted order.
    """

    def __init__(self, splats, n_input, kept_indices):
        self.splats = splats
        self.n_input = int(n_input)
        self.kept_indices = kept_indices

    @property
    def n_visible(self):
        return len(self.splats)

    def __repr__(self):
        return (f"PreprocessResult(n_input={self.n_input}, "
                f"n_visible={self.n_visible})")


def preprocess(cloud, camera):
    """Cull, colour, project, and depth-sort a Gaussian cloud for a camera.

    Returns a :class:`PreprocessResult` whose splats are sorted
    front-to-back, ready to be drawn by any of the renderers in this
    library.
    """
    if not isinstance(cloud, GaussianCloud):
        raise TypeError(f"cloud must be a GaussianCloud, got {type(cloud).__name__}")
    if not isinstance(camera, Camera):
        raise TypeError(f"camera must be a Camera, got {type(camera).__name__}")

    keep = frustum_cull(cloud, camera)
    kept_indices = np.flatnonzero(keep)
    visible = cloud.subset(kept_indices)

    directions = visible.positions - camera.position[None, :]
    colors = eval_sh(visible.sh, directions)

    splats = project_gaussians(visible, camera, colors=colors)
    order = depth_sort_indices(splats.depths, front_to_back=True)
    return PreprocessResult(
        splats=splats.subset(order),
        n_input=len(cloud),
        kept_indices=kept_indices[order],
    )
