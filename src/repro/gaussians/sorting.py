"""Depth sorting of splats.

The hardware (OpenGL) rendering path needs exactly one global front-to-back
sort of the visible Gaussians by centre depth — one of the efficiency
arguments the paper makes versus the CUDA path, which must duplicate and
sort per tile (Section III-A).
"""

from __future__ import annotations

import numpy as np


def depth_sort_indices(depths, front_to_back=True):
    """Return indices sorting ``depths`` with an explicitly *stable* sort.

    Parameters
    ----------
    depths:
        ``(n,)`` camera-space depths.
    front_to_back:
        Sort nearest-first when True (the order required by front-to-back
        alpha blending); farthest-first otherwise.

    Why stability matters
    ---------------------
    Draw order **is** blend order: every renderer in this library blends
    fragments in the order splats are submitted, so two splats at the same
    depth must keep their submission order for the composite to be
    deterministic across runs, platforms, and rasteriser implementations
    (alpha blending does not commute — swapping equal-depth splats changes
    the image).  ``np.argsort(kind="stable")`` guarantees exactly that;
    the default introsort does not.  The farthest-first direction sorts the
    *negated* depths stably rather than reversing the nearest-first order,
    because reversing a stable sort would flip the submission order of
    equal-depth splats.
    """
    depths = np.asarray(depths)
    if depths.ndim != 1:
        raise ValueError(f"depths must be 1-D, got shape {depths.shape}")
    if front_to_back:
        return np.argsort(depths, kind="stable")
    return np.argsort(-depths, kind="stable")
