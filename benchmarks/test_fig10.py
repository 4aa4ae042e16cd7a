"""Figure 10 bench: in-shader blending penalty (log-scale bars)."""

from repro.experiments import fig10_inshader


def test_fig10(benchmark, scenes, check_digest):
    data = benchmark.pedantic(
        fig10_inshader.run, kwargs={"scenes": scenes}, rounds=1, iterations=1)
    check_digest("fig10", data, scenes)
    for scene, d in data.items():
        # The interlock path sits in the paper's 3-10x band.
        assert 2.0 < d["interlock"] < 12.0, scene
        # The unguarded path is close to the ROP path.
        assert d["no_interlock"] < 1.6, scene
    print()
    fig10_inshader.main(data)
