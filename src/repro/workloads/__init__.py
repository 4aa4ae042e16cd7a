"""Evaluation workloads: the Table II scenes and the large-scale scenes.

Trained 3DGS checkpoints are not available offline, so each paper scene is
realised as a procedural :class:`SceneProfile` whose layout and parameters
are calibrated to the scene's published statistics (resolution and Gaussian
count, scaled down ~5-6x linearly) and its qualitative behaviour in the
paper's figures (early-termination ratio ordering, fragments/pixel depth).
See DESIGN.md §2 for the substitution rationale.
"""

from repro.workloads.catalog import (
    LARGE_SCALE_SCENES,
    SCENES,
    SceneProfile,
    build_scene,
    get_profile,
    scene_names,
)
from repro.workloads.viewpoints import scene_viewpoints

__all__ = [
    "LARGE_SCALE_SCENES",
    "SCENES",
    "SceneProfile",
    "build_scene",
    "get_profile",
    "scene_names",
    "scene_viewpoints",
]
