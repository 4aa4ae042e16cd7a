"""Tables I-III: simulation configuration, workloads, hardware cost.

Table I's GPC count, lanes and L2 size are literal rows: no model reads them.
"""

from __future__ import annotations

from repro.core.vrpipe import hardware_cost_bytes
from repro.experiments.runner import format_table
from repro.hwmodel.config import jetson_agx_orin
from repro.render.fragstream import RASTER_TILE_SIZE, TILE_GRID_TILES, TILE_SIZE
from repro.workloads.catalog import LARGE_SCALE_SCENES, SCENES


def table1():
    """Table I: the simulated GPU configuration."""
    cfg = jetson_agx_orin()
    return {
        "# GPC": 1,
        "# SIMT Cores": cfg.n_sm,
        "SIMT Core Freq. (MHz)": cfg.sm_freq_mhz,
        "Lanes per SIMT Core": 64,
        "Warp schedulers per core": cfg.warp_schedulers_per_sm,
        "Shared L2 (KB)": 4096,
        "CROP Cache (KB)": cfg.crop_cache_kb,
        "Raster Tile (px)": RASTER_TILE_SIZE,
        "Screen Tile (px)": TILE_SIZE,
        "Tile Grid (tiles)": TILE_GRID_TILES,
        "# TGC Bins": cfg.n_tgc_bins,
        "TGC Bin Size (prims)": cfg.tgc_bin_prims,
        "# TC Bins": cfg.n_tc_bins,
        "TC Bin Size (quads)": cfg.tc_bin_quads,
        "ROP Throughput (quads/cycle, RGBA16F)": cfg.rop_quads_per_cycle,
    }


def table2(include_large=True):
    """Table II: evaluated workloads (paper facts + scaled realisation)."""
    rows = []
    scenes = dict(SCENES)
    if include_large:
        scenes.update(LARGE_SCALE_SCENES)
    for name, p in scenes.items():
        rows.append({
            "scene": name,
            "dataset": p.dataset,
            "type": p.scene_type,
            "paper_resolution": f"{p.paper_resolution[0]}x{p.paper_resolution[1]}",
            "paper_gaussians": p.paper_gaussians,
            "repro_resolution": f"{p.width}x{p.height}",
            "repro_gaussians": p.n_gaussians,
        })
    return rows


def table3():
    """Table III: hardware cost of the VR-Pipe extensions."""
    cost = hardware_cost_bytes()
    return {
        "Tile Grid Coalescing Unit (B)": cost["tgc"],
        "Quad Reorder Unit (B)": cost["qru"],
        "Total (KB)": cost["total"] / 1024.0,
    }


def main():
    print(format_table(["Parameter", "Value"],
                       [[k, v] for k, v in table1().items()],
                       title="Table I: simulation configuration"))
    print()
    rows = table2()
    print(format_table(
        ["Scene", "Dataset", "Type", "Paper res", "Paper #G",
         "Repro res", "Repro #G"],
        [[r["scene"], r["dataset"], r["type"], r["paper_resolution"],
          r["paper_gaussians"], r["repro_resolution"], r["repro_gaussians"]]
         for r in rows],
        title="Table II: evaluated workloads"))
    print()
    print(format_table(["Component", "Size"],
                       [[k, v] for k, v in table3().items()],
                       title="Table III: hardware cost of VR-Pipe"))


if __name__ == "__main__":
    main()
