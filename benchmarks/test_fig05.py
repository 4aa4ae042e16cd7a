"""Figure 5 bench: CUDA vs OpenGL rendering breakdown on two devices."""

from repro.experiments import fig05_sw_vs_hw


def test_fig05(benchmark, scenes, check_digest):
    data = benchmark.pedantic(
        fig05_sw_vs_hw.run, kwargs={"scenes": scenes}, rounds=1, iterations=1)
    check_digest("fig05", data, scenes)
    for device, per_scene in data.items():
        for scene, d in per_scene.items():
            # Hardware-path preprocessing/sorting avoid duplication.
            assert d["opengl"]["preprocess"] < d["cuda"]["preprocess"]
            assert d["opengl"]["sort"] < d["cuda"]["sort"]
            # Rasterisation dominates the hardware path (paper: > 70%).
            assert d["opengl"]["rasterize"] / d["opengl_total"] > 0.7
    print()
    fig05_sw_vs_hw.main(data)
