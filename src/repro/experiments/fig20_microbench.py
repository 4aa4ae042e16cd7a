"""Figure 20 + §VII-A probes: microbenchmarking the fixed-function units.

(a) CROP-cache capacity across rectangle sizes — all results must bound
    below ~16 KB;
(b) CROP pixels/cycle by colour format — RGBA8 should double RGBA16F;
(c) render time vs quads-per-pixel — time tracks quads (quad-granular
    ROPs);
(d) the TC-bin count probe — the warp-count cliff between 32 and 33 tiles.
"""

from __future__ import annotations

from repro.experiments.runner import format_table
from repro.micro.crop_cache import probe_crop_cache_capacity
from repro.micro.rop_throughput import (
    pixels_per_cycle_by_format,
    time_vs_quads_per_pixel,
)
from repro.micro.tile_binning import tile_binning_probe

RECT_SIZES = ((4, 4), (4, 8), (8, 4), (8, 8), (8, 16), (16, 8), (16, 16))

#: Idle-flush window of the TC timeout probe (quads streaming past).
TIMEOUT_QUADS = 8


def run(rect_sizes=RECT_SIZES, bin_probe_tiles=(16, 32, 33, 36),
        timeout_probe_tiles=(8, 16, 32)):
    """All probes' data in one dict."""
    capacity = {size: probe_crop_cache_capacity(*size, trials=2, max_rects=80)
                for size in rect_sizes}
    formats = pixels_per_cycle_by_format()
    quad_time = time_vs_quads_per_pixel()
    binning = {n: tile_binning_probe(n, rounds=10) for n in bin_probe_tiles}
    # Same round-robin layout with the idle-flush rule enabled: bins now
    # flush by timeout between visits, which the dedicated stat surfaces.
    binning_timeout = {
        n: tile_binning_probe(n, rounds=10, timeout_quads=TIMEOUT_QUADS)
        for n in timeout_probe_tiles
    }
    return {
        "crop_cache_capacity": capacity,
        "pixels_per_cycle": formats,
        "time_vs_quads_per_pixel": quad_time,
        "tile_binning": binning,
        "tile_binning_timeout": binning_timeout,
    }


def main(data=None):
    data = run() if data is None else data
    print(format_table(
        ["Rect size", "Max fitting data (KB)"],
        [[f"{w}x{h}", kb / 1024.0]
         for (w, h), kb in data["crop_cache_capacity"].items()],
        title="Figure 20(a): CROP cache capacity probe"))
    print()
    print(format_table(
        ["Format", "Pixels/cycle"],
        [[fmt.upper(), v] for fmt, v in data["pixels_per_cycle"].items()],
        title="Figure 20(b): ROP throughput by colour format"))
    print()
    print(format_table(
        ["Quads per pixel", "Normalized time"],
        [[q, t] for q, t in data["time_vs_quads_per_pixel"].items()],
        title="Figure 20(c): ROP quad granularity"))
    print()
    print(format_table(
        ["Screen tiles", "Rectangles", "Warps launched"],
        [[n, d["rects"], d["warps"]]
         for n, d in data["tile_binning"].items()],
        title="Tile-binning probe (SVII-A): the 32-bin cliff"))
    print()
    print(format_table(
        ["Screen tiles", "Rectangles", "Warps launched", "Timeout flushes"],
        [[n, d["rects"], d["warps"], d["tc_timeouts"]]
         for n, d in data["tile_binning_timeout"].items()],
        title=f"TC idle-flush probe (timeout after {TIMEOUT_QUADS} quads)"))


if __name__ == "__main__":
    main()
