"""Figure 16: VR-Pipe speedup over the baseline GPU, per variant.

Four bars per scene — Baseline, QM, HET, HET+QM — plus the geometric mean.
Paper results to match in shape: QM up to ~1.5x, HET ~1.8x average, HET+QM
~2.07x average with the outdoor scenes (Train, Truck) highest.
"""

from __future__ import annotations

from repro.core.vrpipe import VARIANTS
from repro.engine import geomean, get_draw
from repro.experiments.runner import format_table
from repro.workloads.catalog import scene_names


def run(scenes=None, device_name="orin"):
    """``{scene: {variant: speedup}}`` plus ``{"geomean": {...}}``."""
    scenes = list(scenes) if scenes is not None else scene_names()
    out = {}
    for name in scenes:
        base = get_draw(name, "baseline", device_name)
        out[name] = {}
        for variant in VARIANTS:
            result = get_draw(name, variant, device_name)
            out[name][variant] = base.cycles / result.cycles
    out["geomean"] = {
        variant: geomean(out[name][variant] for name in scenes)
        for variant in VARIANTS
    }
    return out


def main(data=None):
    data = run() if data is None else data
    variants = list(VARIANTS)
    rows = [[name] + [d[v] for v in variants] for name, d in data.items()]
    print(format_table(
        ["Scene"] + [v.upper() for v in variants], rows,
        title="Figure 16: speedup of VR-Pipe over the baseline GPU"))


if __name__ == "__main__":
    main()
