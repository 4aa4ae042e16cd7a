"""Figure 5: CUDA (software) vs OpenGL (hardware) rendering, two devices.

Per scene and device, the three-kernel breakdown (preprocess / Gaussian
sort / rasterise) for both paths.  The paper's findings to reproduce:
hardware rendering is generally comparable-or-faster end to end because it
avoids per-tile duplication in preprocessing/sorting, and rasterisation
dominates the hardware path's time.
"""

from __future__ import annotations

from repro.core.vrpipe import HardwareRenderer, variant_config
from repro.engine import get_scenario, make_cuda_renderer, make_device
from repro.experiments.runner import format_table
from repro.swrender.renderer import SWKernelModel
from repro.workloads.catalog import scene_names


def run(scenes=None, devices=("orin", "rtx3090")):
    """Breakdowns in ms: ``{device: {scene: {"cuda": {...}, "opengl": {...}}}}``."""
    scenes = list(scenes) if scenes is not None else scene_names()
    renderers = {}
    for device_name in devices:
        device = make_device(device_name)
        kernel = SWKernelModel(
            issue_slots=float(device.sm_issue_slots_per_cycle))
        renderers[device_name] = (
            make_cuda_renderer(device_name, early_term=True),
            HardwareRenderer(config=variant_config("baseline", device),
                             kernel_model=kernel))
    out = {device_name: {} for device_name in devices}
    for name in scenes:  # outermost: each scene's stream is built once
        pre, stream = get_scenario(name)
        for device_name, (cuda, gl) in renderers.items():
            sw = cuda.render_stream(stream, pre)
            hw = gl.render_stream(stream, pre)
            out[device_name][name] = {
                "cuda": sw.timing.breakdown_ms(),
                "cuda_total": sw.timing.total_ms(),
                "opengl": hw.breakdown_ms(),
                "opengl_total": hw.total_ms(),
            }
    return out


def main(data=None):
    data = run() if data is None else data
    for device, per_scene in data.items():
        rows = []
        for name, d in per_scene.items():
            for path in ("cuda", "opengl"):
                b = d[path]
                rows.append([name, path.upper(), b["preprocess"], b["sort"],
                             b["rasterize"], d[f"{path}_total"]])
        print(format_table(
            ["Scene", "Path", "Preprocess (ms)", "Sort (ms)",
             "Rasterize (ms)", "Total (ms)"],
            rows, title=f"Figure 5 ({device}): SW vs HW rendering breakdown"))
        print()


if __name__ == "__main__":
    main()
