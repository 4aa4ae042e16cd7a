"""Figure 8: CUDA early-termination speedup vs fragment reduction.

The gap between the two bars is the paper's point: lockstep warps cannot
convert all of the fragment reduction into speedup, because a warp only
stops when *all 32* pixels terminate.
"""

from __future__ import annotations

from repro.engine import get_scenario
from repro.experiments.runner import format_table
from repro.swrender.warp_model import simulate_tile_warps
from repro.workloads.catalog import scene_names


def run(scenes=None):
    """``{scene: {"speedup": x, "frag_reduction": y}}``."""
    scenes = list(scenes) if scenes is not None else scene_names()
    out = {}
    for name in scenes:
        stream = get_scenario(name)[1]
        warp_exec = simulate_tile_warps(stream)
        out[name] = {
            "speedup": warp_exec.et_speedup(),
            "frag_reduction": stream.termination_ratio(),
        }
    return out


def main(data=None):
    data = run() if data is None else data
    rows = [[name, d["speedup"], d["frag_reduction"]]
            for name, d in data.items()]
    print(format_table(
        ["Scene", "Speedup in CUDA", "Reduction in #Frags"], rows,
        title="Figure 8: early termination in software rendering"))


if __name__ == "__main__":
    main()
