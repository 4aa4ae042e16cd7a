"""Figure 23: scalability to city-scale scenes (Building, Rubble).

(a) baseline unit utilisation — ROPs must remain the bottleneck at this
scale; (b) VR-Pipe (HET+QM) speedup — the benefit should persist (the paper
shows ~1.8-2.1x).
"""

from __future__ import annotations

from repro.engine import get_draw
from repro.experiments.fig06_utilization import REPORTED_UNITS
from repro.experiments.runner import format_table
from repro.workloads.catalog import LARGE_SCALE_SCENES


def run(scenes=None, device_name="orin"):
    """``{scene: {"utilization": {...}, "speedup": x}}``."""
    scenes = list(scenes) if scenes is not None else list(LARGE_SCALE_SCENES)
    out = {}
    for name in scenes:
        base = get_draw(name, "baseline", device_name)
        vrp = get_draw(name, "het+qm", device_name)
        util = base.utilization()
        out[name] = {
            "utilization": {u: util[u] for u in REPORTED_UNITS},
            "bottleneck": base.stats.bottleneck(),
            "speedup": base.cycles / vrp.cycles,
        }
    return out


def main(data=None):
    data = run() if data is None else data
    rows = [[name]
            + [f"{d['utilization'][u] * 100:.1f}%" for u in REPORTED_UNITS]
            + [d["speedup"]] for name, d in data.items()]
    print(format_table(
        ["Scene", "PROP", "CROP", "Raster", "SM", "HET+QM speedup"], rows,
        title="Figure 23: large-scale scenes"))


if __name__ == "__main__":
    main()
