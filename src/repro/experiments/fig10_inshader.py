"""Figure 10: in-shader blending vs ROP-based blending (log scale).

The interlock-guarded path must land several times slower than ROP
blending; the unguarded (incorrect) path lands close to or below it —
demonstrating the cost is the lock, not the raster operations.
"""

from __future__ import annotations

from repro.engine import get_draw, get_scenario, make_device
from repro.experiments.runner import format_table
from repro.swopt.inshader import inshader_comparison
from repro.workloads.catalog import scene_names


def run(scenes=None, device_name="orin"):
    """``{scene: {"rop": 1.0, "interlock": x, "no_interlock": y}}``."""
    scenes = list(scenes) if scenes is not None else scene_names()
    device = make_device(device_name)
    out = {}
    for name in scenes:
        # The ROP-based reference is the plain baseline draw — reuse the
        # engine's memoised simulation instead of re-running the pipeline.
        cmp = inshader_comparison(
            get_scenario(name)[1], device,
            baseline_draw=get_draw(name, "baseline", device_name))
        out[name] = {
            "rop": 1.0,
            "interlock": cmp["interlock_normalized"],
            "no_interlock": cmp["no_interlock_normalized"],
        }
    return out


def main(data=None):
    data = run() if data is None else data
    rows = [[name, d["rop"], d["interlock"], d["no_interlock"]]
            for name, d in data.items()]
    print(format_table(
        ["Scene", "ROP-based", "In-shader w/ ext", "In-shader w/o ext"],
        rows, title="Figure 10: normalized rasterization time"))


if __name__ == "__main__":
    main()
