"""Figure 9 bench: warp threads doing useful blending (< 40% everywhere)."""

from repro.experiments import fig09_warp_occupancy


def test_fig09(benchmark, scenes, check_digest):
    data = benchmark.pedantic(
        fig09_warp_occupancy.run, kwargs={"scenes": scenes},
        rounds=1, iterations=1)
    check_digest("fig09", data, scenes)
    for scene, frac in data.items():
        assert 0.0 < frac < 0.40, scene
    print()
    fig09_warp_occupancy.main(data)
