"""Figure 17 bench: end-to-end speedups over SW and HW rendering."""

from repro.experiments import fig17_end_to_end


def test_fig17(benchmark, scenes, check_digest):
    data = benchmark.pedantic(
        fig17_end_to_end.run, kwargs={"scenes": scenes}, rounds=1,
        iterations=1)
    check_digest("fig17", data, scenes)
    for scene, d in data.items():
        if scene == "geomean":
            continue
        assert d["speedup_vs_hw"] > 1.0, scene
        assert d["speedup_vs_sw"] > 0.8, scene
        assert d["fps"] > 0.0
    # Paper geomeans: 2.05x vs SW, 1.60x vs HW.
    gm = data["geomean"]
    assert 1.2 < gm["speedup_vs_hw"] < 3.2
    assert 1.0 < gm["speedup_vs_sw"] < 3.5
    print()
    fig17_end_to_end.main(data)
