"""Figure 11: software early termination via multi-pass rendering.

Speedup over the single-pass baseline as the pass count N grows.  The
paper's shape: scenes with high fragment reduction (Train, Truck) peak
modestly above 1x at an intermediate N; low-reduction or small scenes
(Bonsai, Lego, Palace) hover at or below 1x — and the best N varies per
scene, which is the practicality argument for hardware support.
"""

from __future__ import annotations

from repro.engine import get_scenario, make_device
from repro.experiments.runner import format_table
from repro.swopt.multipass import multipass_sweep
from repro.workloads.catalog import scene_names

DEFAULT_PASS_COUNTS = (1, 2, 3, 5, 8, 10, 15, 20, 25, 30)


def run(scenes=None, pass_counts=DEFAULT_PASS_COUNTS, device_name="orin"):
    """``{scene: {N: speedup}}``."""
    scenes = list(scenes) if scenes is not None else scene_names()
    device = make_device(device_name)
    out = {}
    for name in scenes:
        out[name] = multipass_sweep(get_scenario(name)[1], pass_counts,
                                    device)
    return out


def best_pass_count(sweep):
    """The N with the highest speedup for one scene's sweep."""
    return max(sweep, key=sweep.get)


def main(data=None):
    data = run() if data is None else data
    counts = sorted(next(iter(data.values())))
    rows = [[name] + [d[n] for n in counts] + [best_pass_count(d)]
            for name, d in data.items()]
    print(format_table(
        ["Scene"] + [f"N={n}" for n in counts] + ["best N"], rows,
        title="Figure 11: multi-pass early termination speedup"))


if __name__ == "__main__":
    main()
