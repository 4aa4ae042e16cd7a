"""Figure 19 bench: energy efficiency (paper: 1.65x avg, <= 2.15x)."""

from repro.experiments import fig19_energy


def test_fig19(benchmark, scenes, check_digest):
    data = benchmark.pedantic(
        fig19_energy.run, kwargs={"scenes": scenes}, rounds=1, iterations=1)
    check_digest("fig19", data, scenes)
    for scene, eff in data["per_scene"].items():
        assert eff > 1.0, scene
    assert 1.2 < data["geomean"] < 3.0
    print()
    fig19_energy.main(data)
