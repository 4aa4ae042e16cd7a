"""Figure 23 bench: large-scale scenes (Building, Rubble)."""

from repro.experiments import fig23_large_scale


def test_fig23(benchmark, check_digest):
    data = benchmark.pedantic(fig23_large_scale.run, rounds=1, iterations=1)
    check_digest("fig23", data)
    for scene, d in data.items():
        # ROPs stay the bottleneck at city scale.
        assert d["bottleneck"] in ("crop", "prop"), scene
        assert d["utilization"]["crop"] > 0.8
        # VR-Pipe keeps helping (paper: ~1.8-2.1x).
        assert d["speedup"] > 1.4, scene
    print()
    fig23_large_scale.main(data)
