"""Figure 9: % of warp threads performing blending in software rendering.

With alpha pruning plus early termination, fewer than 40% of lockstep
thread-slots do useful blending work across all scenes — shader cores are
mostly wasted, which is the motivation for letting fixed-function hardware
(at quad granularity) do the discarding instead.
"""

from __future__ import annotations

from repro.engine import get_scenario
from repro.experiments.runner import format_table
from repro.swrender.warp_model import simulate_tile_warps
from repro.workloads.catalog import scene_names


def run(scenes=None):
    """``{scene: fraction_of_threads_blending}`` (0..1)."""
    scenes = list(scenes) if scenes is not None else scene_names()
    out = {}
    for name in scenes:
        warp_exec = simulate_tile_warps(get_scenario(name)[1])
        out[name] = warp_exec.blending_thread_fraction(early_term=True)
    return out


def main(data=None):
    data = run() if data is None else data
    rows = [[name, f"{frac * 100:.1f}%"] for name, frac in data.items()]
    print(format_table(
        ["Scene", "Threads blending in a warp"], rows,
        title="Figure 9: effective warp occupancy in CUDA rendering"))


if __name__ == "__main__":
    main()
