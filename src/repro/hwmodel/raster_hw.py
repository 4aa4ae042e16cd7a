"""Fixed-function rasteriser cost model: setup, coarse raster, fine raster.

The rasteriser runs four sequential, internally pipelined steps (Section
V-A): edge setup, coarse raster (which 8x8-pixel raster tiles does the
primitive touch), hierarchical-z (disabled for alpha blending — Gaussian
splatting renders with the depth test off), and fine raster (per-pixel
coverage, 2x2-quad assembly).  Because the steps pipeline against each
other, the engine's busy time over a draw call is the *maximum* of the three
step totals, not their sum.

Coverage itself comes from the functional core; this module only accounts
cycles from primitive/raster-tile/quad counts accumulated during the draw.
"""

from __future__ import annotations


class RasterEngine:
    """Cycle accounting for the rasteriser (accumulate, then finalize)."""

    def __init__(self, config, stats):
        self.config = config
        self.stats = stats
        self._prim_portions = 0
        self._raster_tiles = 0
        self._quads = 0
        self._finalized = False

    def accumulate(self, n_prim_portions, n_raster_tiles, n_quads):
        """Record one rasterised primitive portion.

        A *portion* is what setup runs on: the whole primitive in the
        baseline flow, or the primitive's slice within one tile grid when
        the TGC unit re-dispatches it per grid.
        """
        if self._finalized:
            raise RuntimeError("RasterEngine already finalized")
        if min(n_prim_portions, n_raster_tiles, n_quads) < 0:
            raise ValueError("raster work counts must be non-negative")
        self._prim_portions += int(n_prim_portions)
        self._raster_tiles += int(n_raster_tiles)
        self._quads += int(n_quads)
        self.stats.quads_rasterized += int(n_quads)

    def finalize(self):
        """Set the raster unit's busy cycles from the accumulated counts."""
        if self._finalized:
            return
        cfg = self.config
        setup = self._prim_portions * cfg.setup_cycles_per_prim
        coarse = self._raster_tiles / cfg.coarse_raster_tiles_per_cycle
        fine = self._quads / cfg.fine_raster_quads_per_cycle
        self.stats.units["raster"].add(self._quads, max(setup, coarse, fine))
        self._finalized = True
