"""Figure 22: VR-Pipe versus the GSCore dedicated accelerator.

Reports VR-Pipe's (HET+QM) slowdown relative to the GSCore analytic model:
the accelerator should win everywhere (slowdown > 1) — the price of
VR-Pipe's generality — with a geomean around ~2x.
"""

from __future__ import annotations

from repro.accel.gscore import GSCoreModel
from repro.engine import geomean, get_draw, get_scenario
from repro.experiments.runner import format_table
from repro.workloads.catalog import scene_names


def run(scenes=None, device_name="orin"):
    """``{scene: slowdown}`` plus the geometric mean."""
    scenes = list(scenes) if scenes is not None else scene_names()
    model = GSCoreModel()
    out = {"per_scene": {}}
    for name in scenes:
        stream = get_scenario(name)[1]
        vrp = get_draw(name, "het+qm", device_name)
        out["per_scene"][name] = model.slowdown_of(vrp, stream)
    out["geomean"] = geomean(out["per_scene"].values())
    return out


def main(data=None):
    data = run() if data is None else data
    rows = [[name, s] for name, s in data["per_scene"].items()]
    rows.append(["geomean", data["geomean"]])
    print(format_table(
        ["Scene", "VR-Pipe slowdown vs GSCore"], rows,
        title="Figure 22: comparison with a dedicated 3DGS accelerator"))


if __name__ == "__main__":
    main()
