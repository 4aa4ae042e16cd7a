"""Figure 18 bench: ROP quad/fragment reduction ratios."""

from repro.experiments import fig18_reduction
from repro.engine import geomean


def test_fig18(benchmark, scenes, check_digest):
    data = benchmark.pedantic(
        fig18_reduction.run, kwargs={"scenes": scenes}, rounds=1,
        iterations=1)
    check_digest("fig18", data, scenes)
    for scene, d in data.items():
        assert d["het"]["fragment_reduction"] > 1.3, scene
        assert d["qm"]["quad_reduction"] > 1.1, scene
        assert (d["het+qm"]["fragment_reduction"]
                > d["het"]["fragment_reduction"]), scene
        # HET quad reduction trails its fragment reduction (quads die only
        # when all four fragments terminate).
        assert (d["het"]["quad_reduction"]
                <= d["het"]["fragment_reduction"] + 0.05), scene
    # Paper averages: HET 2.52x fragments / 1.90x quads; +QM 1.3x more.
    het_frag = geomean(d["het"]["fragment_reduction"] for d in data.values())
    assert 1.5 < het_frag < 3.2
    print()
    fig18_reduction.main(data)
