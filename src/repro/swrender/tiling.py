"""Per-tile Gaussian duplication — the CUDA path's preprocessing burden.

The CUDA renderer assigns each splat to every 16x16 screen tile its (tight)
bounding box overlaps, duplicating a (depth | tile) sort key and an index
per assignment.  The paper identifies exactly this duplication as the reason
software preprocessing and sorting are slower than the hardware path, which
needs a single global sort (Section III-A).
"""

from __future__ import annotations

import numpy as np

from repro.gaussians.projection import Splat2D

#: Side of the CUDA renderer's screen tile (one thread block), in pixels.
TILE_SIZE = 16


class TileAssignment:
    """Splat-to-tile duplication summary.

    Attributes
    ----------
    pairs_per_splat:
        ``(n,)`` tiles each splat is assigned to (0 for off-screen splats).
    n_pairs:
        Total duplicated (splat, tile) pairs — the CUDA sort's key count.
    """

    def __init__(self, pairs_per_splat):
        self.pairs_per_splat = pairs_per_splat

    @property
    def n_pairs(self):
        return int(self.pairs_per_splat.sum())


def assign_tiles(splats, width, height):
    """Count tile assignments per splat from tight-OBB bounding boxes.

    Mirrors the tight-OBB CUDA variant the paper evaluates: the number of
    assignments uses the axis-aligned bounds of the oriented box (what the
    kernel can test cheaply), clipped to the screen.
    """
    if not isinstance(splats, Splat2D):
        raise TypeError(f"splats must be a Splat2D, got {type(splats).__name__}")
    if width <= 0 or height <= 0:
        raise ValueError("width and height must be positive")
    bboxes = splats.bounding_boxes()
    x0 = np.clip(np.floor(bboxes[:, 0] / TILE_SIZE), 0, None)
    y0 = np.clip(np.floor(bboxes[:, 1] / TILE_SIZE), 0, None)
    tiles_x = -(-width // TILE_SIZE)
    tiles_y = -(-height // TILE_SIZE)
    x1 = np.clip(np.ceil(bboxes[:, 2] / TILE_SIZE), None, tiles_x)
    y1 = np.clip(np.ceil(bboxes[:, 3] / TILE_SIZE), None, tiles_y)
    nx = np.maximum(x1 - x0, 0.0)
    ny = np.maximum(y1 - y0, 0.0)
    counts = (nx * ny).astype(np.int64)
    counts[(splats.radii <= 0).any(axis=1)] = 0
    return TileAssignment(counts)
