"""3D Gaussian splatting substrate.

This subpackage implements everything the paper's preprocessing step needs:
the Gaussian scene representation, the pinhole camera, spherical-harmonics
colour evaluation, EWA projection of 3D Gaussians to 2D screen-space splats
with tight oriented bounding boxes, frustum culling, and the single global
depth sort used by the hardware (OpenGL) rendering path.  Every scene is
procedural (:mod:`repro.gaussians.synthetic`); there is no scene-file loader.
"""

from repro.gaussians.gaussian import GaussianCloud
from repro.gaussians.camera import Camera, orbit_viewpoints
from repro.gaussians.sh import eval_sh, num_sh_coeffs
from repro.gaussians.projection import Splat2D, project_gaussians
from repro.gaussians.culling import frustum_cull
from repro.gaussians.sorting import depth_sort_indices
from repro.gaussians.preprocess import PreprocessResult, preprocess
from repro.gaussians import synthetic

__all__ = [
    "GaussianCloud",
    "Camera",
    "orbit_viewpoints",
    "eval_sh",
    "num_sh_coeffs",
    "Splat2D",
    "project_gaussians",
    "frustum_cull",
    "depth_sort_indices",
    "PreprocessResult",
    "preprocess",
    "synthetic",
]
