"""Tile-binning probe: counting TC bins via round-robin rectangles (§VII-A).

The paper draws 2x2-pixel rectangles visiting N screen tiles round-robin
and counts launched warps: while N <= 32, quads for the same tile from
different rounds coalesce into shared warps; at N = 33 every insertion
evicts a bin before it can accumulate, so every rectangle launches its own
warp ("drawing 330 rectangles across 33 screen tiles leads to the launch of
330 warps").  The probe reproduces the cliff and thereby measures the bin
count of the modelled TC unit.
"""

from __future__ import annotations

from repro.hwmodel.config import GPUConfig
from repro.hwmodel.pipeline import GraphicsPipeline
from repro.micro.workload import rect_stream


def tile_binning_probe(n_tiles, rounds=10, config=None, tile_px=16,
                       timeout_quads=None):
    """Warps launched when drawing ``n_tiles * rounds`` tiny rectangles.

    Rectangles are 2x2 px at the origin corner of each tile, visiting tiles
    0..n_tiles-1 repeatedly (``rounds`` times), matching the paper's
    experiment layout.  ``timeout_quads`` optionally enables the TC idle-
    flush rule; the resulting timeout flushes are reported separately as
    ``tc_timeouts`` (they are *not* folded into the end-of-draw flushes).
    """
    config = config or GPUConfig()
    if timeout_quads is not None:
        config = config.variant(tc_timeout_quads=timeout_quads)
    if n_tiles <= 0 or rounds <= 0:
        raise ValueError("n_tiles and rounds must be positive")
    # Arrange the target tiles on a wide-enough framebuffer.
    tiles_x = max(8, min(n_tiles, 64))
    tiles_y = -(-n_tiles // tiles_x)
    width = tiles_x * tile_px
    height = tiles_y * tile_px
    rects = []
    for _round in range(rounds):
        for t in range(n_tiles):
            ty, tx = divmod(t, tiles_x)
            rects.append((tx * tile_px, ty * tile_px, 2, 2))
    stream = rect_stream(rects, width, height)
    result = GraphicsPipeline(config).draw(stream)
    return {
        "n_tiles": n_tiles,
        "rects": len(rects),
        "warps": result.stats.warps_launched,
        "tc_evictions": result.stats.tc_flush_evict,
        "tc_timeouts": result.stats.tc_flush_timeout,
    }

