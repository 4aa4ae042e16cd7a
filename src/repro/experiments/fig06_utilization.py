"""Figure 6: per-unit throughput utilisation during the baseline draw call.

The paper's observation: the ROP stages (PROP, CROP) run near saturation
while the Raster Engine and SMs idle — Gaussian splatting on the hardware
pipeline is ROP-bound.
"""

from __future__ import annotations

from repro.engine import get_draw
from repro.experiments.runner import format_table
from repro.workloads.catalog import scene_names

#: The units the paper plots.
REPORTED_UNITS = ("prop", "crop", "raster", "sm")


def run(scenes=None):
    """``{scene: {unit: utilisation}}`` for the baseline pipeline."""
    scenes = list(scenes) if scenes is not None else scene_names()
    out = {}
    for name in scenes:
        result = get_draw(name, "baseline")
        util = result.utilization()
        out[name] = {unit: util[unit] for unit in REPORTED_UNITS}
        out[name]["bottleneck"] = result.stats.bottleneck()
    return out


def main(data=None):
    data = run() if data is None else data
    rows = [[name] + [f"{d[u] * 100:.1f}%" for u in REPORTED_UNITS]
            + [d["bottleneck"]] for name, d in data.items()]
    print(format_table(
        ["Scene", "PROP", "CROP", "Raster", "SM", "Bottleneck"], rows,
        title="Figure 6: unit throughput utilisation (baseline)"))


if __name__ == "__main__":
    main()
