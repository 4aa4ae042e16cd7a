"""Figure 19: energy efficiency of VR-Pipe over the baseline GPU.

Efficiency = baseline draw energy / VR-Pipe (HET+QM) draw energy; the
paper reports 1.65x average, up to 2.15x, with the outdoor scenes highest.
"""

from __future__ import annotations

from repro.engine import geomean, get_draw
from repro.experiments.runner import format_table
from repro.hwmodel.energy import draw_energy, efficiency_ratio
from repro.workloads.catalog import scene_names


def run(scenes=None, device_name="orin"):
    """``{scene: efficiency}`` plus the geometric mean and breakdowns."""
    scenes = list(scenes) if scenes is not None else scene_names()
    out = {"per_scene": {}, "breakdowns": {}}
    for name in scenes:
        base = get_draw(name, "baseline", device_name)
        vrp = get_draw(name, "het+qm", device_name)
        out["per_scene"][name] = efficiency_ratio(base, vrp)
        out["breakdowns"][name] = {
            "baseline_uj": draw_energy(base).total_j * 1e6,
            "vrpipe_uj": draw_energy(vrp).total_j * 1e6,
        }
    out["geomean"] = geomean(out["per_scene"].values())
    return out


def main(data=None):
    data = run() if data is None else data
    rows = [[name, data["breakdowns"][name]["baseline_uj"],
             data["breakdowns"][name]["vrpipe_uj"], eff]
            for name, eff in data["per_scene"].items()]
    rows.append(["geomean", "-", "-", data["geomean"]])
    print(format_table(
        ["Scene", "Baseline (uJ)", "VR-Pipe (uJ)", "Efficiency"], rows,
        title="Figure 19: energy efficiency of VR-Pipe"))


if __name__ == "__main__":
    main()
