"""Figure 6 bench: unit utilisation — the pipeline must be ROP-bound."""

from repro.experiments import fig06_utilization


def test_fig06(benchmark, scenes, check_digest):
    data = benchmark.pedantic(
        fig06_utilization.run, kwargs={"scenes": scenes},
        rounds=1, iterations=1)
    check_digest("fig06", data, scenes)
    for scene, util in data.items():
        assert util["bottleneck"] in ("crop", "prop"), scene
        assert util["crop"] > 0.8
        assert util["prop"] > 0.6
        assert util["sm"] < 0.5
        assert util["raster"] < 0.6
    print()
    fig06_utilization.main(data)
