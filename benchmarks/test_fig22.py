"""Figure 22 bench: VR-Pipe vs the GSCore dedicated accelerator."""

from repro.experiments import fig22_gscore


def test_fig22(benchmark, scenes, check_digest):
    data = benchmark.pedantic(
        fig22_gscore.run, kwargs={"scenes": scenes}, rounds=1, iterations=1)
    check_digest("fig22", data, scenes)
    for scene, slowdown in data["per_scene"].items():
        # The dedicated accelerator wins everywhere, by a bounded margin.
        assert 1.0 < slowdown < 6.0, scene
    assert 1.2 < data["geomean"] < 4.0
    print()
    fig22_gscore.main(data)
