"""Figure 21 bench: early-termination ratio across viewpoints."""

from repro.experiments import fig21_et_ratio


def test_fig21(benchmark, scenes, check_digest):
    data = benchmark.pedantic(
        fig21_et_ratio.run, kwargs={"scenes": scenes, "n_views": 6},
        rounds=1, iterations=1)
    check_digest("fig21", data, scenes)
    for scene, d in data.items():
        # Paper: every scene averages > 1.5 (>= 33% eliminable fragments).
        assert d["mean"] > 1.4, scene
        assert d["min"] >= 1.0, scene
    if {"train", "bonsai"} <= set(data):
        assert data["train"]["mean"] > data["bonsai"]["mean"]
    print()
    fig21_et_ratio.main(data)
