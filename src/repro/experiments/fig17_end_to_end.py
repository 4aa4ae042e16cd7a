"""Figure 17: end-to-end rendering — SW (CUDA), HW (OpenGL), VR-Pipe.

End-to-end includes preprocessing and sorting.  Per the paper's protocol,
the software path *uses* early termination while the plain hardware path
does not (the baseline lacks native support); VR-Pipe is HET+QM.  Reports
VR-Pipe's speedup over both and its absolute FPS.
"""

from __future__ import annotations

from repro.engine import create_backend, geomean, get_scenario
from repro.experiments.runner import format_table
from repro.workloads.catalog import scene_names


def run(scenes=None, device_name="orin"):
    """``{scene: {"speedup_vs_sw", "speedup_vs_hw", "fps", ...}}``."""
    scenes = list(scenes) if scenes is not None else scene_names()
    cuda, hw_plain, vrpipe = (create_backend(spec, device_name).renderer
                              for spec in ("cuda+et", "hw:baseline",
                                           "hw:het+qm"))
    out = {}
    for name in scenes:
        pre, stream = get_scenario(name)
        sw = cuda.render_stream(stream, pre)
        hw = hw_plain.render_stream(stream, pre)
        vp = vrpipe.render_stream(stream, pre)
        out[name] = {
            "sw_ms": sw.timing.total_ms(),
            "hw_ms": hw.total_ms(),
            "vrpipe_ms": vp.total_ms(),
            "speedup_vs_sw": sw.timing.total_ms() / vp.total_ms(),
            "speedup_vs_hw": hw.total_ms() / vp.total_ms(),
            "fps": vp.fps(),
        }
    out["geomean"] = {
        "speedup_vs_sw": geomean(out[n]["speedup_vs_sw"] for n in scenes),
        "speedup_vs_hw": geomean(out[n]["speedup_vs_hw"] for n in scenes),
    }
    return out


def main(data=None):
    data = run() if data is None else data
    rows = []
    for name, d in data.items():
        if name == "geomean":
            rows.append([name, "-", "-", "-", d["speedup_vs_sw"],
                         d["speedup_vs_hw"], "-"])
        else:
            rows.append([name, d["sw_ms"], d["hw_ms"], d["vrpipe_ms"],
                         d["speedup_vs_sw"], d["speedup_vs_hw"], d["fps"]])
    print(format_table(
        ["Scene", "SW (ms)", "HW (ms)", "VR-Pipe (ms)", "vs SW", "vs HW",
         "FPS"],
        rows, title="Figure 17: end-to-end speedups and FPS"))


if __name__ == "__main__":
    main()
